"""Campaign smoke target: a tiny Monte Carlo fault-injection campaign.

Runs a deliberately small campaign (two schemes, one benchmark, a
handful of trials) through :mod:`repro.harness.campaign`, checks its
report against the reference checked in under ``tests/golden/``, and
records trials/sec plus engine telemetry (worker utilization, steals,
cancelled-trial savings) under ``benchmarks/results/``.

A second, adaptive-stopping campaign (``batch_size=1`` and a bootstrap
half-width target) exercises speculative trials past the firm frontier
and their cancellation on convergence; it is checked against its own
reference too.

The references were recorded for the default arguments; with other
arguments the reports are not checked (the output says so).

This is the artifact the CI campaign-smoke job uploads; it is sized to
finish in well under a minute so it can run on every push without
gating merges.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --trials 20 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"
ROOT = Path(__file__).resolve().parent.parent


def _run_once(config, jobs, **engine_kwargs):
    """One fresh, uncached campaign run; returns (report, telemetry, secs)."""
    from repro.harness.campaign import create_engine
    from repro.harness.runner import ParallelRunner

    runner = ParallelRunner(jobs=jobs, cache=None)
    engine = create_engine(config, runner, **engine_kwargs)
    start = time.perf_counter()
    report = engine.run()
    elapsed = time.perf_counter() - start
    return report, engine.telemetry(), elapsed


def _entry(report, telemetry, elapsed, matches):
    trials = sum(len(o.records) for o in report.outcomes)
    return {
        "elapsed_s": round(elapsed, 3),
        "trials": trials,
        "trials_per_sec": round(trials / elapsed, 2) if elapsed else None,
        "matches_reference": matches,
        "telemetry": telemetry,
        # Multi-host cooperation: how much of the helper-trial effort
        # (trials run for cells owned by another engine) actually warmed
        # the shared result cache with fresh simulations.
        "helper_warming": {
            "submitted": telemetry.get("helper_trials", 0),
            "completed": telemetry.get("helper_completed", 0),
            "warmed": telemetry.get("helper_warmed", 0),
            "warm_rate": round(telemetry.get("helper_warm_rate", 0.0), 4),
        },
    }


def _describe(matches: Optional[bool]) -> str:
    if matches is None:
        return "no reference for these arguments"
    return "matches reference" if matches else "DIFFERS from reference"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="gzip", help="workload profile")
    parser.add_argument(
        "--schemes", default="BaseP,ICR-P-PS(S)", help="comma-separated schemes"
    )
    parser.add_argument("--error-rate", type=float, default=1e-2)
    parser.add_argument("--trials", type=int, default=12, help="trials per cell")
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--adaptive-jobs",
        type=int,
        default=4,
        help="worker processes for the adaptive-stopping campaign",
    )
    parser.add_argument(
        "--adaptive-trials",
        type=int,
        default=48,
        help="trial cap per cell in the adaptive-stopping campaign",
    )
    parser.add_argument(
        "--adaptive-instructions",
        type=int,
        default=5_000,
        help="instructions per trial in the adaptive-stopping campaign",
    )
    parser.add_argument(
        "--skip-adaptive",
        action="store_true",
        help="skip the adaptive-stopping campaign",
    )
    args = parser.parse_args(argv)

    from repro.harness.campaign import CampaignConfig

    sys.path.insert(0, str(ROOT))
    from tests.campaign_reference import matches_reference

    config = CampaignConfig(
        benchmarks=(args.benchmark,),
        schemes=tuple(args.schemes.split(",")),
        error_rates=(args.error_rate,),
        trials=args.trials,
        batch_size=max(4, args.trials // 2),
        n_instructions=args.instructions,
    )

    # -- smoke campaign ----------------------------------------------------
    report, telemetry, elapsed = _run_once(config, args.jobs)
    matches = matches_reference(report, "bench_smoke")
    smoke = _entry(report, telemetry, elapsed, matches)
    print(
        f"[smoke] {smoke['trials']} trials in {elapsed:.1f}s "
        f"({smoke['trials_per_sec']} trials/sec, jobs={args.jobs}), "
        f"{_describe(smoke['matches_reference'])}"
    )
    ok = smoke["matches_reference"] is not False

    # -- adaptive stopping with speculative lookahead ----------------------
    adaptive = None
    if not args.skip_adaptive:
        adaptive_config = CampaignConfig(
            benchmarks=(args.benchmark,),
            schemes=tuple(args.schemes.split(",")),
            error_rates=(args.error_rate,),
            trials=args.adaptive_trials,
            min_trials=8,
            batch_size=1,
            target_half_width=1.15e-3,
            n_instructions=args.adaptive_instructions,
        )
        a_report, a_tel, a_elapsed = _run_once(
            adaptive_config, args.adaptive_jobs, lookahead_batches=8
        )
        matches = matches_reference(a_report, "bench_adaptive")
        adaptive = _entry(a_report, a_tel, a_elapsed, matches)
        adaptive["config"] = {
            "trials": adaptive_config.trials,
            "batch_size": adaptive_config.batch_size,
            "target_half_width": adaptive_config.target_half_width,
            "jobs": args.adaptive_jobs,
        }
        print(
            f"[adaptive] {adaptive['trials']} trials in {a_elapsed:.1f}s, "
            f"{a_tel['cancelled_savings']} cancelled trials saved, "
            f"{_describe(adaptive['matches_reference'])}"
        )
        ok = ok and adaptive["matches_reference"] is not False

    table = report.to_table()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign.txt").write_text(table + "\n")
    payload = {
        "report": json.loads(report.to_json()),
        "smoke": smoke,
        "adaptive": adaptive,
    }
    (RESULTS_DIR / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(table)
    if not ok:
        print("FAIL: a campaign report differs from its reference", file=sys.stderr)

    # Shape check: every ICR cell must be at least as resilient as the
    # baseline cell sharing its (benchmark, error_rate).
    ulf = {
        o.cell: o.metric_ci("unrecoverable_load_fraction", config)
        for o in report.outcomes
    }
    for cell, ci in ulf.items():
        if ci is None or cell.scheme.startswith("Base"):
            continue
        for base_cell, base_ci in ulf.items():
            if (
                base_ci is not None
                and base_cell.scheme.startswith("Base")
                and base_cell.benchmark == cell.benchmark
                and base_cell.error_rate == cell.error_rate
                and ci.mean > base_ci.mean + 1e-9
            ):
                print(
                    f"FAIL: {cell.scheme} ulf {ci.mean:.4f} > "
                    f"{base_cell.scheme} {base_ci.mean:.4f}",
                    file=sys.stderr,
                )
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
