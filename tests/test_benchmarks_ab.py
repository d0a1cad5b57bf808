"""The A/B driver's summary (``benchmarks/ab.py``) on canned result lines."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _lines(values: dict, failed: int = 0) -> list[str]:
    """One perfbench result line per run; *values* maps metric -> runs."""
    runs = len(next(iter(values.values())))
    return [
        json.dumps({
            "correct": failed == 0,
            "attempted": 32,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values.get(m["name"], [1.0] * runs)[i],
                            "unit": m["unit"]}
                for m in DECLARED
            },
        })
        for i in range(runs)
    ]


def _row(rows, name):
    return next(row for row in rows if row["name"] == name)


def test_quartiles_are_inclusive_median_and_iqr():
    assert ab.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert ab.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)


def test_pair_wins_follow_the_declared_direction_and_skip_ties():
    # ops_per_s is higher-better, latency_p50_ms lower-better: the same
    # values are a win on one and a loss on the other, and the tied
    # pair counts for neither side.
    base = _lines({"ops_per_s": [10, 10, 10], "latency_p50_ms": [10, 10, 10]})
    change = _lines({"ops_per_s": [11, 9, 10], "latency_p50_ms": [11, 9, 10]})
    rows, failed, attempted = ab.summarize(base, change, DECLARED)
    assert [r["name"] for r in rows] == [m["name"] for m in DECLARED]
    ops, p50 = _row(rows, "ops_per_s"), _row(rows, "latency_p50_ms")
    assert (ops["change_won"], ops["base_won"]) == (1, 1)
    assert (p50["change_won"], p50["base_won"]) == (1, 1)
    assert ops["base"] == (10, 10, 10)
    assert ops["change"] == (9.5, 10, 10.5)
    assert (failed, attempted) == ([0, 0], [96, 96])


@pytest.mark.parametrize(
    "name, change, verdict",
    [
        # ops_per_s: higher is better, bound 0.25 of the base median 100.
        ("ops_per_s", [80, 80, 80, 80], "within"),
        ("ops_per_s", [70, 70, 70, 70], "WORSE"),
        # setup_s: lower is better, so the same numbers read the other way.
        ("setup_s", [120, 120, 120, 120], "within"),
        ("setup_s", [130, 130, 130, 130], "WORSE"),
        ("setup_s", [70, 70, 70, 70], "within"),
    ],
)
def test_verdict_against_the_declared_bound(name, change, verdict):
    rows, _, _ = ab.summarize(
        _lines({name: [100] * 4}), _lines({name: change}), DECLARED
    )
    assert _row(rows, name)["verdict"] == verdict


def test_spread_wider_than_the_bound_is_unresolved():
    base = _lines({"ops_per_s": [40, 100, 100, 160]})
    change = _lines({"ops_per_s": [40, 60, 70, 200]})
    rows, _, _ = ab.summarize(base, change, DECLARED)
    assert _row(rows, "ops_per_s")["verdict"] == "unresolved"
    # ...unless every run of the change beats every run of the base.
    change = _lines({"ops_per_s": [170, 180, 190, 200]})
    rows, _, _ = ab.summarize(base, change, DECLARED)
    assert _row(rows, "ops_per_s")["verdict"] == "within"
