"""Subprocesses of the benchmark: native build, trace set-up, the server.

Each runs in a fresh interpreter so its cost includes process start and
imports, the way a user's run pays them::

    python3 perfbench/child.py native
    python3 perfbench/child.py setup --workload sweep --seed 0
    python3 perfbench/child.py serve --cache-dir D --queue-dir Q --stats F

``REPRO_TRACE_CACHE_DIR`` and ``REPRO_CACHE_DIR`` come from the parent.
``setup`` generates every trace a workload reads into the (empty) trace
directory.  ``serve`` runs a ``repro-icr serve`` equivalent on an
ephemeral port, prints ``PORT <n>`` once it accepts connections, and on
SIGTERM stops, flushes its spans and writes its CPU time and peak RSS to
the ``--stats`` file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys
import time

import inputs
import spans


def _setup(args) -> int:
    from repro.workloads.generator import trace_for
    from repro.workloads.spec2000 import profile_for

    specs = {
        "sweep": inputs.sweep_specs,
        "campaign": inputs.campaign_trace_specs,
        "service": inputs.service_catalogue,
    }[args.workload](args.seed)
    tracer = spans.Tracer(args.spans_dir, "setup") if args.spans_dir else None
    if tracer:
        tracer.install()
    try:
        for bench, length, trace_seed in inputs.trace_keys(specs):
            trace_for(profile_for(bench), length, seed_offset=trace_seed)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.flush()
    return 0


def _serve(args) -> int:
    from repro.service import ServiceConfig
    from repro.service.server import SimulationService

    tracer = spans.Tracer(args.spans_dir, "server") if args.spans_dir else None
    if tracer:
        tracer.install()
    config = ServiceConfig(
        port=0, workers=1, cache_dir=args.cache_dir, queue_dir=args.queue_dir
    )

    async def main() -> float:
        service = SimulationService(config)
        await service.start()
        cpu_ready = time.process_time()
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        print(f"PORT {service.port}", flush=True)
        await stop.wait()
        await service.stop()
        return cpu_ready

    cpu_ready = asyncio.run(main())
    cpu_exit = time.process_time()
    if tracer:
        tracer.uninstall()
        tracer.flush()
    with open(args.stats, "w") as fh:
        json.dump(
            {
                "cpu_busy_s": cpu_exit - cpu_ready,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            fh,
        )
    return 0


def _native(args) -> int:
    from repro.core import _native

    print(json.dumps({"native": _native.available()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("native")
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--spans-dir")
    serve = sub.add_parser("serve")
    serve.add_argument("--cache-dir", required=True)
    serve.add_argument("--queue-dir", required=True)
    serve.add_argument("--stats", required=True)
    serve.add_argument("--spans-dir")
    args = parser.parse_args(argv)
    return {"native": _native, "setup": _setup, "serve": _serve}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
