"""Correctness gate: output digests, the object-kernel oracle, ulf shape.

The simulated model is deterministic, so every output of a workload is
checked, never timed.  Three checks, all outside the timed phase:

* the digest of a run's outputs must equal the one recorded in
  ``reference.json`` for the default seed (and every round of a run must
  produce the same digest);
* a fixed sample of results is re-simulated on ``backend="object"`` and
  must be bit-identical (``to_dict()`` equality), so a wrong fast path
  fails on any seed;
* a campaign must commit every trial with no failed attempt, and the
  parity ICR scheme's unrecoverable-load fraction must not exceed
  BaseP's at the same error rate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: ICR schemes whose mean ulf must not exceed their baseline's.  The
#: SEC-DED pair is left out: with four trials per cell, whether
#: ICR-ECC-PS(S) or BaseECC loses fewer loads flips with the fault seed.
ULF_BASELINES = {"ICR-P-PS(S)": "BaseP"}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def results_digest(results) -> str:
    """Digest of the sorted ``to_dict()`` of every result."""
    return digest(sorted(json.dumps(r.to_dict(), sort_keys=True) for r in results))


def campaign_digest(report) -> str:
    """Digest of ``report.to_json()`` without the campaign id.

    The id hashes the simulator's source files, so it changes with every
    edit to the program; the records and statistics must not.
    """
    payload = json.loads(report.to_json())
    payload.pop("campaign", None)
    return digest(payload)


def reference_digest(workload: str, seed: int) -> Optional[str]:
    """The recorded digest for *workload*, if *seed* is the recorded seed."""
    reference = json.loads(REFERENCE_PATH.read_text())
    if seed != reference["seed"]:
        return None
    return reference["digests"].get(workload)


def oracle_mismatches(pairs) -> list[str]:
    """Labels of (spec, result) pairs whose object-kernel rerun differs."""
    from repro.harness.experiment import run_experiment

    bad = []
    for spec, result in pairs:
        oracle = run_experiment(spec.with_backend("object"))
        if oracle.to_dict() != result.to_dict():
            bad.append(spec.label)
    return bad


def campaign_problems(report, config) -> list[str]:
    """Trial-count, failed-attempt and ulf-shape violations."""
    problems = []
    expected = len(config.cells()) * config.trials
    committed = sum(
        1 for o in report.outcomes for r in o.records if r.status == "ok"
    )
    if committed != expected:
        problems.append(f"{committed} trials committed, expected {expected}")
    failed = sum(o.failed_attempts() for o in report.outcomes)
    if failed:
        problems.append(f"{failed} failed trial attempts")
    ulf = {
        (o.cell.scheme, o.cell.error_rate): o.metric_ci(
            "unrecoverable_load_fraction", config
        )
        for o in report.outcomes
    }
    for (scheme, rate), ci in ulf.items():
        base = ULF_BASELINES.get(scheme)
        if base is None:
            continue
        base_ci = ulf.get((base, rate))
        if ci is None or base_ci is None:
            problems.append(f"no ulf estimate for {scheme} or {base} at {rate:g}")
        elif ci.mean > base_ci.mean + 1e-9:
            problems.append(
                f"{scheme} ulf {ci.mean:.5f} > {base} {base_ci.mean:.5f} at {rate:g}"
            )
    return problems
