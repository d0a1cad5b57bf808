"""Benchmark of the ICR simulator: ``sweep``, ``campaign`` and ``service``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The exit code is non-zero when an output fails the correctness gate or
the checkout holds no simulator source.  ``README.md`` beside this file
documents the workloads and metrics; ``bench.py`` holds the logic.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "campaign", "service")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator source at {SRC}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # Children (set-up, server, pool workers) import the same source tree;
    # every cache the program keeps goes under the checkout's .perfbench/.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench" / "home")
    for name in ("REPRO_CHAOS_PLAN", "REPRO_CHAOS_SCRATCH", "REPRO_TRACE_CACHE"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
