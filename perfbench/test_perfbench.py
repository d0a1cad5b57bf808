"""Self-tests of the benchmark.  Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from repro.harness.experiment import run_experiment  # noqa: E402
from repro.harness.runner import Job, ParallelRunner  # noqa: E402
from repro.harness.spec import ExperimentSpec  # noqa: E402


@pytest.fixture(autouse=True)
def private_caches(tmp_path, monkeypatch):
    """Keep traces and the native build out of the user's cache."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "home"))


def _tiny(scheme="BaseP", backend="object", **kw) -> ExperimentSpec:
    return ExperimentSpec("gzip", scheme, n_instructions=2_000, backend=backend, **kw)


# -- metric names -------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOAD_CLASSES)


def test_reported_metric_sets_are_complete():
    rnd = bench.Round(False, setup_s=1.0, wall_s=2.0, ops=4, cpu_s=1.0,
                      latencies_ms=[1.0, 2.0, 3.0, 4.0],
                      latency_slowdowns=[1.0] * 4)
    assert set(bench.end_to_end([rnd])) == set(bench.END_TO_END)
    layers, _, problems = bench.layer_metrics([], wall=1.0, workers=2, simulated=0)
    assert set(layers) == set(bench.PER_LAYER)
    assert problems == []


# -- seeded inputs ------------------------------------------------------------


def test_zipf_sequence_reproduces_from_the_seed():
    first = inputs.zipf_sequence(7, 96)
    assert first == inputs.zipf_sequence(7, 96)
    assert first != inputs.zipf_sequence(8, 96)
    assert len(first) == inputs.SERVICE_JOBS
    # Every spec is asked for, so every seed has the same misses.
    assert set(first) == set(range(96))
    # The same sequence in a fresh interpreter (no hash randomisation).
    code = (
        "import sys, json; sys.path[:0] = sys.argv[1:3]; import inputs; "
        "print(json.dumps(inputs.zipf_sequence(7, 96)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="123"),
    )
    assert json.loads(out.stdout) == first


def test_zipf_popularity_is_skewed():
    counts: dict[int, int] = {}
    for item in inputs.zipf_sequence(3, 96):
        counts[item] = counts.get(item, 0) + 1
    top = max(counts.values())
    assert top > 10 * (sum(counts.values()) / len(counts)) / 3


def test_campaign_and_sweep_seeds_reproduce_from_the_seed():
    assert inputs.campaign_config(5) == inputs.campaign_config(5)
    assert inputs.campaign_config(5).seed0 != inputs.campaign_config(6).seed0
    assert inputs.campaign_config(5).target_half_width is None
    assert inputs.sweep_specs(5) == inputs.sweep_specs(5)
    assert inputs.sweep_specs(5) != inputs.sweep_specs(6)
    assert inputs.service_catalogue(5) == inputs.service_catalogue(5)
    assert len(inputs.service_catalogue(5)) == 96


def test_sweep_covers_all_three_kernel_tiers():
    from repro.core.array_kernel import backend_mode

    tiers = [backend_mode(spec) for spec in inputs.sweep_specs(0)]
    assert tiers.count("array-batched") == 24
    assert tiers.count("array-soa") == 4
    assert tiers.count("object") == 4


# -- correctness gate ---------------------------------------------------------


def test_digest_gate_rejects_one_perturbed_dl1_counter():
    spec = _tiny()
    result = run_experiment(spec)
    clean = gate.results_digest([result])
    assert gate.oracle_mismatches([(spec, result)]) == []
    counter = sorted(result.dl1)[0]
    result.dl1[counter] += 1
    assert gate.results_digest([result]) != clean
    assert gate.oracle_mismatches([(spec, result)]) == [spec.label]


def test_campaign_digest_ignores_only_the_campaign_id():
    from repro.harness.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        benchmarks=("gzip",), schemes=("BaseP",), error_rates=(1e-2,),
        trials=2, batch_size=2, n_instructions=2_000,
    )
    report = run_campaign(config, ParallelRunner(jobs=1))
    before = gate.campaign_digest(report)
    report.digest = "another-code-version"
    assert gate.campaign_digest(report) == before
    report.outcomes[0].records[0].metrics["unrecoverable_load_fraction"] += 1e-9
    assert gate.campaign_digest(report) != before


def test_reference_digests_are_recorded_for_every_workload():
    reference = json.loads(gate.REFERENCE_PATH.read_text())
    assert reference["seed"] == inputs.DEFAULT_SEED
    assert set(reference["digests"]) == set(bench.WORKLOAD_CLASSES)


# -- tracing ------------------------------------------------------------------


def _current(name):
    owner, attr = spans._resolve(*spans.TARGETS[name])
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_removes_every_wrapper(tmp_path):
    originals = {name: _current(name) for name in spans.TARGETS}
    tracer = spans.Tracer(tmp_path / "spans", "main").install()
    try:
        for name in spans.TARGETS:
            assert _current(name) is not originals[name], name
        run_experiment(_tiny(trace_seed=11))
    finally:
        tracer.uninstall()
    for name in spans.TARGETS:
        assert _current(name) is originals[name], name
    recorded = {s[0] for s in tracer.drain()}
    assert {"cpu.pipeline", "workloads.generate"} <= recorded
    # Untraced calls after uninstall record nothing.
    run_experiment(_tiny(trace_seed=12))
    assert tracer.drain() == []


def test_pool_worker_spans_are_flushed_and_merged(tmp_path):
    tracer = spans.Tracer(tmp_path / "spans", "main").install()
    specs = [_tiny("BaseP", trace_seed=2), _tiny("BaseECC", trace_seed=2)]
    try:
        ParallelRunner(jobs=2).run([Job.from_spec(s) for s in specs])
    finally:
        tracer.uninstall()
    tracer.flush()
    merged = spans.load_spans(tmp_path / "spans")
    roots = [s for s in merged if s[0] == "experiment.run_spec"]
    assert sorted(s[5] for s in roots) == sorted(s.key() for s in specs)
    assert any(s[6] != os.getpid() for s in roots)
    # Children carry their root's correlation id.
    pipelines = [s for s in merged if s[0] == "cpu.pipeline"]
    assert {s[5] for s in pipelines} == {s[5] for s in roots}


def test_probe_time_is_taken_out_of_the_phase(tmp_path):
    host = bench.Probe()
    rnd = bench.Round(False)
    with bench._timed_phase(rnd, None, tmp_path, host):
        for _ in range(3):
            host.run()
    # Three probes inside, one before and one after the phase.
    assert len(host.wall) == 5
    assert 0.0 <= rnd.wall_s < host.spent_wall
    assert rnd.slowdown == pytest.approx(
        statistics.median(host.wall) / probe.REFERENCE_S
    )
    # Up to a moment, only the probes that had ended by then count.
    assert host.slowdown(host.at[0]) == host.wall[0] / probe.REFERENCE_S
    assert host.slowdown(host.at[0] - 1.0) == host.wall[0] / probe.REFERENCE_S


def test_normalised_metrics_divide_by_the_slowdown():
    rnd = bench.Round(False, setup_s=1.0, wall_s=2.0, ops=4, cpu_s=1.0,
                      latencies_ms=[1.0, 2.0, 3.0, 4.0],
                      latency_slowdowns=[1.0, 1.0, 2.0, 8.0],
                      slowdown=2.0, cpu_slowdown=4.0)
    raw = bench.end_to_end([rnd], raw=True)
    e2e = bench.end_to_end([rnd])
    assert e2e["setup_s"] == raw["setup_s"] / 2.0
    assert e2e["ops_per_s"] == raw["ops_per_s"] * 2.0
    # Each latency by its own slowdown: 1.0, 2.0, 1.5, 0.5.
    assert e2e["latency_p50_ms"] == 1.0
    assert e2e["latency_p99_ms"] == 2.0
    assert e2e["cpu_ms_per_op"] == raw["cpu_ms_per_op"] / 4.0
    assert e2e["peak_rss_mb"] == raw["peak_rss_mb"]


def test_self_time_subtracts_direct_children():
    merged = [
        ("outer", 0.0, 10.0, 1, None, "a", 1, None),
        ("inner", 2.0, 5.0, 2, 1, "a", 1, None),
        ("inner", 6.0, 7.0, 3, 1, "a", 1, None),
        ("other-process", 0.0, 4.0, 1, None, "b", 2, None),
    ]
    assert spans.self_times(merged) == [6.0, 3.0, 1.0, 4.0]


def test_run_refuses_a_directory_without_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py",):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
