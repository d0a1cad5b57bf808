"""Rounds, metrics and report of the benchmark (entry point: ``run.py``).

A run repeats *rounds* until ``--seconds`` of timed work have passed, and
at least :data:`MIN_ROUNDS` of them.  Every round starts from the same
state: a fresh interpreter generates the workload's traces into an
empty trace directory (the set-up), then the timed phase runs the
workload's fixed work against a fresh, empty result cache (for
``service``, a fresh server with fresh queue and cache directories).
Everything a run writes lives under ``.perfbench/`` in the checkout, and
is removed when the run ends, except the native phase-2 kernel, which is
built once into ``.perfbench/home/native`` before the first round.

The simulation work of a round runs in one process at a time (the
runner's in-process path; for ``service``, one caller and the server
taking turns), so a run needs one CPU and never measures the scheduler.
A :class:`probe.Probe` times a fixed piece of work between operations of
each timed phase; the end-to-end times are divided by the host's slowdown
it finds, so they read as on the reference host (the raw times are
printed beside them).

With ``--trace 1`` rounds alternate untraced and traced.  The traced
rounds give the per-layer metrics; their end-to-end result against the
untraced rounds' gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import gate
import inputs
import spans
from probe import Probe
from repro.harness.cache import ResultCache
from repro.harness.campaign import Cell, create_engine
from repro.harness.experiment import SimulationResult, run_experiment
from repro.harness.runner import Job, ParallelRunner
from repro.workloads.generator import trace_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Runner workers (sweep, campaign): the runner's in-process path.
WORKERS = 1
MIN_ROUNDS = 3
#: No round starts after this much wall time, so a run ends within 180 s.
ROUND_DEADLINE_S = 100.0
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.trace_load_s": "s",
    "workloads.trace_loads": "count",
    "experiment.tier_sims.array-batched": "count",
    "experiment.tier_sims.array-soa": "count",
    "experiment.tier_sims.object": "count",
    "array_kernel.batched_s": "s",
    "array_kernel.batched_calls": "count",
    "array_kernel.ns_per_instr": "ns/instr",
    "array_kernel.cold_s": "s",
    "cpu.pipeline_s": "s",
    "cpu.ns_per_instr": "ns/instr",
    "errors.fault_overhead_frac": "fraction",
    "cache.encode_s": "s",
    "cache.decode_s": "s",
    "cache.put_s": "s",
    "cache.get_s": "s",
    "cache.bytes_written": "bytes",
    "runner.kernel_busy_frac": "fraction",
    "runner.retries": "count",
    "runner.failures": "count",
    "scheduler.utilization": "fraction",
    "scheduler.wasted_frac": "fraction",
    "scheduler.checkpoint_writes": "count",
    "service.submit_ms": "ms",
    "service.wait_ms": "ms",
    "service.decode_ms": "ms",
    "service.cache_served_frac": "fraction",
    "service.store_hit_rate": "fraction",
    "service.runner_simulated": "count",
    "trace.overhead_frac": "fraction",
}

#: The workload-specific names of the generic end-to-end metrics.
ALIASES = {
    "sweep": {"ops_per_s": "sims_per_s"},
    "campaign": {"ops_per_s": "trials_per_s"},
    "service": {
        "ops_per_s": "jobs_per_s",
        "latency_p50_ms": "job_p50_ms",
        "latency_p99_ms": "job_p99_ms",
    },
}


@dataclass
class Round:
    """One set-up plus one timed pass over a workload's fixed work."""

    traced: bool
    #: None when the round reused an earlier round's trace directory.
    setup_s: Optional[float] = None
    trace_dir: Optional[Path] = None
    wall_s: float = 0.0
    attempted: int = 0
    ops: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    #: What each latency is divided by: the host's slowdown from the start
    #: of the timed phase until the latency ended.
    latency_slowdowns: list = field(default_factory=list)
    digest: Optional[str] = None
    #: Failed checks of the round as a whole; each fails all its operations.
    problems: list = field(default_factory=list)
    #: Operations that raised, one line each.
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    table: dict = field(default_factory=dict)
    #: Peak resident set (KiB) of the benchmark process and its children
    #: (set-up processes, the server) at the round's end.
    maxrss_kb: int = 0
    #: The host's slowdown over the timed phase, by wall and by CPU time.
    slowdown: float = 1.0
    cpu_slowdown: float = 1.0

    @property
    def ops_per_s(self) -> float:
        """Operations per second on the reference host."""
        return self.ops * self.slowdown / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _maxrss_kb() -> int:
    """Peak resident set (KiB) so far of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _child(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        check=True,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return done.stdout


def _prepare_traces(
    workload: str, seed: int, rnd: Round, rdir: Path, reuse: Optional[Path]
) -> None:
    """Point the program at the round's trace directory.

    Without *reuse*, a fresh process generates the workload's traces into
    an empty directory and its wall time is the round's set-up time.  A
    reused directory holds exactly what a set-up leaves behind, and the
    timed phase only reads it, so the round starts from the same state.
    """
    rnd.trace_dir = reuse or rdir / "traces"
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(rnd.trace_dir)
    if reuse is not None:
        return
    args = ["setup", "--workload", workload, "--seed", str(seed)]
    if rnd.traced:
        args += ["--spans-dir", str(rdir / "spans")]
    start = time.perf_counter()
    _child(*args)
    rnd.setup_s = time.perf_counter() - start


class ArrivalCache(ResultCache):
    """A fresh result store that notes when each result reaches the caller.

    The in-process runner stores each result as it is made, so this is
    also where the host's speed is probed between two operations; an
    arrival time leaves out the probing before it.
    """

    def __init__(self, cache_dir, probe: Probe):
        super().__init__(cache_dir=cache_dir)
        self.probe = probe
        #: (clock reading, the same less the probing before it) per result.
        self.arrivals: list[tuple[float, float]] = []

    def put(self, key, result):
        super().put(key, result)
        now = time.perf_counter()
        self.arrivals.append((now, now - self.probe.spent_wall))
        self.probe.maybe()

    def latencies(self, rnd: Round, start: float) -> None:
        """Fill *rnd*'s time-to-result latencies from a phase at *start*."""
        rnd.latencies_ms = [(t - start) * 1e3 for _, t in self.arrivals]
        rnd.latency_slowdowns = [self.probe.slowdown(t) for t, _ in self.arrivals]


@contextmanager
def _timed_phase(
    rnd: Round,
    tracer: Optional[spans.Tracer],
    rdir: Path,
    probe: Probe,
):
    """Time the block as *rnd*'s timed phase; traced when *tracer* is set.

    Yields the phase's start (``perf_counter``).  The phase's simulations
    run in this process, so its CPU time is this process's.  *probe* is
    run just before and just after the phase, and by the block between
    its operations; its time is taken out of the phase's.
    """
    if tracer is not None:
        tracer.spans_dir = rdir / "spans"
        tracer.install()
    try:
        probe.run()
        probe.spent_wall = probe.spent_cpu = 0.0
        cpu0 = time.process_time()
        start = time.perf_counter()
        yield start
        rnd.wall_s = time.perf_counter() - start - probe.spent_wall
        rnd.cpu_s = time.process_time() - cpu0 - probe.spent_cpu
        probe.run()
        rnd.slowdown = probe.slowdown()
        rnd.cpu_slowdown = probe.cpu_slowdown()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.flush()


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(
    all_spans: list, wall: float, workers: int, simulated: int
) -> tuple[dict, dict, list]:
    """Per-layer metrics, the layer table and problems of one traced round."""
    own = spans.self_times(all_spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    timed = [(s, t) for s, t in zip(all_spans, own) if s[8] != "setup"]

    def pick(name):
        return [(s, t) for s, t in timed if s[0] == name]

    metrics["workloads.generate_s"] = sum(
        t for s, t in zip(all_spans, own) if s[0] == "workloads.generate"
    )
    loads = pick("workloads.trace_load")
    metrics["workloads.trace_load_s"] = sum(t for _, t in loads)
    metrics["workloads.trace_loads"] = len(loads)
    run_specs = pick("experiment.run_spec")
    for span, _ in run_specs:
        tier = (span[7] or {}).get("tier", "object")
        metrics[f"experiment.tier_sims.{tier}"] += 1

    batched = pick("array_kernel.run_batched")
    batched_instr = sum(s[7]["instructions"] for s, _ in batched if s[7])
    metrics["array_kernel.batched_s"] = sum(t for _, t in batched)
    metrics["array_kernel.batched_calls"] = len(batched)
    metrics["array_kernel.cold_s"] = sum(
        t for s, t in batched if s[7] and s[7].get("cold")
    )
    if batched_instr:
        metrics["array_kernel.ns_per_instr"] = (
            metrics["array_kernel.batched_s"] / batched_instr * 1e9
        )
    pipeline = pick("cpu.pipeline")
    pipeline_instr = sum(s[7]["instructions"] for s, _ in pipeline if s[7])
    metrics["cpu.pipeline_s"] = sum(t for _, t in pipeline)
    if pipeline_instr:
        metrics["cpu.ns_per_instr"] = metrics["cpu.pipeline_s"] / pipeline_instr * 1e9

    for name, key in (
        ("cache.encode", "cache.encode_s"),
        ("cache.decode", "cache.decode_s"),
        ("cache.put", "cache.put_s"),
        ("cache.get", "cache.get_s"),
    ):
        metrics[key] = sum(t for _, t in pick(name))
    metrics["cache.bytes_written"] = sum(
        s[7]["bytes"] for s, _ in pick("cache.put") if s[7] and "bytes" in s[7]
    )
    kernel_busy = sum(s[2] - s[1] for s, _ in batched + pipeline)
    metrics["runner.kernel_busy_frac"] = kernel_busy / (workers * wall) if wall else 0.0

    problems = []
    # More spans than counted sims is legitimate: a straggler duplicate
    # that lost its race runs to the end but is never harvested.
    if len(run_specs) < simulated:
        problems.append(
            f"spans: {len(run_specs)} experiment.run_spec spans merged, "
            f"but {simulated} simulations ran"
        )
    return metrics, spans.layer_table(all_spans, wall), problems


def _traced_layers(rdir: Path, rnd: Round, workers: int, simulated: int) -> list:
    """Fill *rnd*'s per-layer metrics from its span files; the spans."""
    merged = spans.load_spans(rdir / "spans")
    rnd.layers, rnd.table, problems = layer_metrics(
        merged, rnd.wall_s, workers, simulated
    )
    if rnd.setup_s is None:
        del rnd.layers["workloads.generate_s"]  # no set-up in this round
    rnd.problems += problems
    return merged


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Sweep:
    """Error-free figure grid through ``ParallelRunner(jobs=1)``."""

    name = "sweep"
    op = "sim"

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = inputs.sweep_specs(seed)
        self.first_results: list = []

    def run_round(self, rdir: Path, tracer, reuse: Optional[Path]) -> Round:
        rnd = Round(tracer is not None)
        _prepare_traces(self.name, self.seed, rnd, rdir, reuse)
        trace_for.cache_clear()  # the runner loads traces from disk
        probe = Probe()
        cache = ArrivalCache(rdir / "results", probe)
        runner = ParallelRunner(jobs=WORKERS, cache=cache)
        jobs = [Job.from_spec(spec) for spec in self.specs]
        with _timed_phase(rnd, tracer, rdir, probe) as start:
            results = runner.run(jobs, on_error="return")
        ok = [r for r in results if isinstance(r, SimulationResult)]
        rnd.attempted = len(jobs)
        rnd.ops = len(ok)
        rnd.failed = len(jobs) - len(ok)
        cache.latencies(rnd, start)
        rnd.digest = gate.results_digest(ok)
        if not self.first_results:
            self.first_results = results
        if rnd.traced:
            stats = runner.stats
            _traced_layers(rdir, rnd, WORKERS, stats.simulated)
            rnd.layers["runner.retries"] = stats.retries
            rnd.layers["runner.failures"] = stats.failures
        return rnd

    def post_checks(self) -> tuple[int, list]:
        # One batched cell and one SoA cell of the first benchmark; the
        # object-tier cells are their own oracle.
        picks = [2, len(inputs.FIGURE_SCHEMES) * len(inputs.SWEEP_BENCHMARKS)]
        pairs = [(self.specs[i], self.first_results[i]) for i in picks]
        if not all(isinstance(r, SimulationResult) for _, r in pairs):
            return len(pairs), ["sweep: oracle sample has failed sims"]
        bad = gate.oracle_mismatches(pairs)
        return len(bad), [f"sweep: {b} differs from the object oracle" for b in bad]


class Campaign:
    """Fixed-trial Fig. 14 campaign on the stealing scheduler."""

    name = "campaign"
    op = "trial"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = inputs.campaign_config(seed)
        self.expected = len(self.config.cells()) * self.config.trials

    def run_round(self, rdir: Path, tracer, reuse: Optional[Path]) -> Round:
        rnd = Round(tracer is not None)
        _prepare_traces(self.name, self.seed, rnd, rdir, reuse)
        trace_for.cache_clear()
        probe = Probe()
        cache = ArrivalCache(rdir / "results", probe)
        runner = ParallelRunner(jobs=WORKERS, cache=cache)
        engine = create_engine(
            self.config,
            runner,
            scheduler="stealing",
            workers=WORKERS,
            checkpoint_path=rdir / "campaign.ckpt",
        )
        with _timed_phase(rnd, tracer, rdir, probe) as start:
            report = engine.run()
        committed = sum(
            1 for o in report.outcomes for r in o.records if r.status == "ok"
        )
        rnd.attempted = self.expected
        rnd.ops = committed
        rnd.failed = max(0, self.expected - committed)
        cache.latencies(rnd, start)
        rnd.digest = gate.campaign_digest(report)
        rnd.problems += [
            f"campaign: {p}" for p in gate.campaign_problems(report, self.config)
        ]
        if rnd.traced:
            telemetry = engine.telemetry()
            merged = _traced_layers(rdir, rnd, WORKERS, runner.stats.simulated)
            # Every sim that ran, harvested or not (straggler duplicates).
            simulated = sum(1 for s in merged if s[0] == "experiment.run_spec")
            rnd.layers["runner.retries"] = runner.stats.retries
            rnd.layers["runner.failures"] = runner.stats.failures
            rnd.layers["scheduler.utilization"] = telemetry["utilization"]
            rnd.layers["scheduler.wasted_frac"] = (
                (simulated - committed) / simulated if simulated else 0.0
            )
            rnd.layers["scheduler.checkpoint_writes"] = telemetry["checkpoint_writes"]
        return rnd

    def post_checks(self) -> tuple[int, list]:
        return 0, []

    def fault_overhead(self) -> float:
        """1 - t(error-free object replay) / t(trial), on sampled trials."""
        rate = max(self.config.error_rates)
        trials = [
            self.config.trial_spec(Cell(inputs.CAMPAIGN_BENCHMARK, scheme, rate), 0, 0)
            for scheme in self.config.schemes
        ]
        free = [t.replace(error_rate=0.0, backend="object") for t in trials]
        run_experiment(free[0])  # load the trace outside the timing

        def best(spec) -> float:
            times = []
            for _ in range(2):
                start = time.perf_counter()
                run_experiment(spec)
                times.append(time.perf_counter() - start)
            return min(times)

        t_trial = sum(best(spec) for spec in trials)
        t_free = sum(best(spec) for spec in free)
        return 1.0 - t_free / t_trial


class _Server:
    """A ``repro-icr serve`` equivalent in its own subprocess."""

    def __init__(self, rdir: Path, traced: bool):
        self.stats_path = rdir / "server.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), "serve",
            "--cache-dir", str(rdir / "results"),
            "--queue-dir", str(rdir / "queue"),
            "--stats", str(self.stats_path),
        ]
        if traced:
            cmd += ["--spans-dir", str(rdir / "spans")]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self._kill()
            raise RuntimeError(f"server did not start (said {line!r})")
        self.port = int(line.split()[1])

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> dict:
        """Stop the server; its CPU seconds since ready and peak RSS."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill()
            raise
        self.proc.stdout.close()
        return json.loads(self.stats_path.read_text())


def run_job(client, spec) -> SimulationResult:
    """``ServiceClient.run``, waiting on the job's event stream.

    ``ServiceClient.run`` polls every 50 ms, so a miss would take a whole
    number of polls and the latency tail would step between them; the
    stream ends as soon as the job does.
    """
    submitted = client.submit(spec)
    if "result" in submitted:  # answered from the store at submission
        return SimulationResult.from_dict(submitted["result"])
    job_id = submitted["job"]["id"]
    wait_done(client, job_id)
    payload = client.job(job_id)
    if payload["job"]["state"] != "done" or payload.get("result") is None:
        raise RuntimeError(
            f"job {job_id}: {payload['job'].get('error') or 'no result'}"
        )
    return SimulationResult.from_dict(payload["result"])


def wait_done(client, job_id: str) -> None:
    """Follow the job's event stream until it turns terminal."""
    for _ in client.events(job_id, timeout=120.0):
        pass


class Service:
    """One closed-loop caller against the job server, Zipf popularity."""

    name = "service"
    op = "job"

    def __init__(self, seed: int):
        self.seed = seed
        self.catalogue = inputs.service_catalogue(seed)
        self.sequence = inputs.zipf_sequence(seed, len(self.catalogue))
        self.distinct = len(set(self.sequence))
        self.first_outputs: dict = {}

    def run_round(self, rdir: Path, tracer, reuse: Optional[Path]) -> Round:
        from repro.service import ServiceClient

        rnd = Round(tracer is not None)
        _prepare_traces(self.name, self.seed, rnd, rdir, reuse)
        boot_start = time.perf_counter()
        server = _Server(rdir, rnd.traced)
        if rnd.setup_s is not None:
            rnd.setup_s += time.perf_counter() - boot_start
        received: list = []
        ends: list[float] = []
        probe = Probe()
        try:
            client = ServiceClient(port=server.port, timeout=60.0)
            # The client's CPU is timed here and the server reports its own.
            with _timed_phase(rnd, tracer, rdir, probe):
                for item in self.sequence:
                    sent = time.perf_counter()
                    try:
                        result = run_job(client, self.catalogue[item])
                    except Exception as exc:  # counted as a failed job
                        rnd.errors.append(f"job {item}: {exc!r}")
                    else:
                        done = time.perf_counter()
                        rnd.latencies_ms.append((done - sent) * 1e3)
                        ends.append(done)
                        received.append((item, result))
                    probe.maybe()
            telemetry = client.telemetry()
        finally:
            stats = server.stop()
        rnd.latency_slowdowns = [probe.slowdown(t) for t in ends]
        rnd.cpu_s += stats["cpu_busy_s"]
        rnd.maxrss_kb = stats["maxrss_kb"]
        rnd.attempted = len(self.sequence)
        outputs: dict[int, dict] = {}
        firsts: dict[int, SimulationResult] = {}
        mismatched = 0
        for item, result in received:
            data = result.to_dict()
            firsts.setdefault(item, result)
            if outputs.setdefault(item, data) != data:
                mismatched += 1
        rnd.ops = len(rnd.latencies_ms) - mismatched
        rnd.failed = len(rnd.errors) + mismatched
        rnd.digest = gate.digest([[i, outputs[i]] for i in sorted(outputs)])
        simulated = telemetry["runner"]["simulated"]
        if simulated != self.distinct:
            rnd.problems.append(
                f"service: runner simulated {simulated} specs, "
                f"expected each of the {self.distinct} distinct specs once"
            )
        if not self.first_outputs:
            self.first_outputs = firsts
        if rnd.traced:
            merged = _traced_layers(rdir, rnd, 1, simulated)
            jobs = max(1, len(rnd.latencies_ms))
            client_spans = [s for s in merged if s[8] == "main"]
            for name, key in (
                ("service.submit", "service.submit_ms"),
                ("service.wait", "service.wait_ms"),
                ("cache.decode", "service.decode_ms"),
            ):
                rnd.layers[key] = (
                    sum(s[2] - s[1] for s in client_spans if s[0] == name) / jobs * 1e3
                )
            rnd.layers["service.cache_served_frac"] = (
                telemetry["cache_served"] / telemetry["submissions"]
                if telemetry["submissions"]
                else 0.0
            )
            rnd.layers["service.store_hit_rate"] = telemetry["store"]["hit_rate"]
            rnd.layers["service.runner_simulated"] = simulated
            rnd.layers["runner.retries"] = telemetry["runner"]["retries"]
            rnd.layers["runner.failures"] = telemetry["runner"]["failures"]
        return rnd

    def post_checks(self) -> tuple[int, list]:
        # The first three specs asked for, re-run on the object kernel.
        picks = list(dict.fromkeys(self.sequence))[:3]
        pairs = [
            (self.catalogue[i], self.first_outputs[i])
            for i in picks
            if i in self.first_outputs
        ]
        bad = gate.oracle_mismatches(pairs)
        problems = [f"service: {label} differs from the object oracle" for label in bad]
        if len(pairs) != len(picks):
            problems.append("service: oracle sample jobs failed")
        return len(bad) + len(picks) - len(pairs), problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (Sweep, Campaign, Service)}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def host_fingerprint(native: bool) -> dict:
    """What a result set must be compared by: never across hosts."""
    import numpy

    from repro.harness.cache import code_version

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_phase2": native,
        "git_rev": rev,
        "source_digest": code_version(),
    }


def end_to_end(rounds: list[Round], raw: bool = False) -> dict:
    """The end-to-end metrics of *rounds*, on the reference host.

    Each round's times are divided by the host's slowdown over its timed
    phase (a set-up by its round's, a latency by the slowdown from the
    phase's start until it ended); with *raw*, they are left as read.
    """

    def slow(r: Round) -> float:
        return 1.0 if raw else r.slowdown

    def cpu_slow(r: Round) -> float:
        return 1.0 if raw else r.cpu_slowdown

    def latency(r: Round, pct: float) -> float:
        if raw:
            return percentile(r.latencies_ms, pct)
        return percentile(
            [ms / s for ms, s in zip(r.latencies_ms, r.latency_slowdowns)], pct
        )

    timed = [r for r in rounds if r.latencies_ms]
    ops = sum(r.ops for r in rounds)
    cpu_s = sum(r.cpu_s / cpu_slow(r) for r in rounds)
    return {
        "setup_s": statistics.median(
            r.setup_s / slow(r) for r in rounds if r.setup_s is not None
        ),
        "ops_per_s": statistics.median(
            r.raw_ops_per_s * slow(r) for r in rounds
        ),
        # Medians over rounds of each round's percentile, so one noisy
        # round moves neither; a service round has 1000 jobs, so ten lie
        # beyond its p99.
        "latency_p50_ms": statistics.median(
            latency(r, 50) for r in timed
        ) if timed else 0.0,
        "latency_p99_ms": statistics.median(
            latency(r, 99) for r in timed
        ) if timed else 0.0,
        "cpu_ms_per_op": cpu_s / ops * 1e3 if ops else 0.0,
        "peak_rss_mb": max(r.maxrss_kb for r in rounds) / 1024.0,
    }


def print_layer_table(workload: str, rnd: Round) -> None:
    """Layer self-time and counts of one traced round."""
    columns = ("calls", "self_s", "total_s", "self_share")
    print(f"\n{'=' * 70}\n{workload}: layer self-time (traced round, "
          f"wall {rnd.wall_s:.3f} s)\n{'=' * 70}")
    print(f"  {'layer':<26}" + "".join(f" {c:>10}" for c in columns))
    print(f"  {'-' * 26}" + f" {'-' * 10}" * len(columns))
    for name in sorted(rnd.table):
        row = rnd.table[name]
        print(
            f"  {name:<26} {row['calls']:>10d} {row['self_s']:>10.4f} "
            f"{row['total_s']:>10.4f} {row['self_share']:>10.4f}"
        )


def run_rounds(workload, args) -> tuple[list[Round], bool, int, list, float]:
    """The rounds of one run, the native flag, and the post-check results."""
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    try:
        native = json.loads(_child("native"))["native"]
        tracer = spans.Tracer(run_dir, "main") if args.trace else None
        rounds: list[Round] = []
        need = MIN_ROUNDS + (1 if tracer else 0)
        while True:
            rdir = run_dir / f"round{len(rounds)}"
            rdir.mkdir(parents=True)
            traced = tracer if (tracer and len(rounds) % 2 == 1) else None
            # The first rounds each set up from scratch (setup_s is their
            # median); later rounds reuse the last set-up's traces.
            reuse = rounds[-1].trace_dir if len(rounds) >= MIN_ROUNDS else None
            rnd = workload.run_round(rdir, traced, reuse)
            # Read before the post-checks and replays below, which no
            # timed phase does.
            rnd.maxrss_kb = max(rnd.maxrss_kb, _maxrss_kb())
            rounds.append(rnd)
            timed = sum(r.wall_s for r in rounds)
            late = time.perf_counter() - started > ROUND_DEADLINE_S
            if len(rounds) >= (2 if tracer else 1) and late:
                break
            if len(rounds) >= need and timed >= args.seconds:
                break
        oracle_failed, problems = workload.post_checks()
        fault_overhead = 0.0
        if tracer and isinstance(workload, Campaign):
            fault_overhead = workload.fault_overhead()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return rounds, native, oracle_failed, problems, fault_overhead


def traced_layers(rounds: list[Round], fault_overhead: float) -> dict:
    """Per-layer metrics: medians over the traced rounds."""
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    layers = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [r.layers[name] for r in traced if name in r.layers]
        if values:
            layers[name] = statistics.median(values)
    layers["errors.fault_overhead_frac"] = fault_overhead
    plain_rate = statistics.median(r.ops_per_s for r in plain)
    traced_rate = statistics.median(r.ops_per_s for r in traced)
    if traced_rate:
        layers["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
    return layers


def print_rounds(workload, rounds: list[Round]) -> None:
    """Wall and CPU time side by side, round by round."""
    print("raw times; slowdown is the host's against the reference host")
    print(f"{'round':>5} {'traced':>6} {'setup_s':>9} {'wall_s':>9} {'cpu_s':>9} "
          f"{workload.op + 's':>7} {'per_s':>9} {'p50_ms':>9} {'p99_ms':>9} "
          f"{'slowdown':>8} {'cpu_slow':>8}")
    for index, rnd in enumerate(rounds):
        p50 = percentile(rnd.latencies_ms, 50) if rnd.latencies_ms else 0.0
        p99 = percentile(rnd.latencies_ms, 99) if rnd.latencies_ms else 0.0
        setup = "-" if rnd.setup_s is None else f"{rnd.setup_s:.3f}"
        print(f"{index:>5} {str(rnd.traced):>6} {setup:>9} {rnd.wall_s:>9.3f} "
              f"{rnd.cpu_s:>9.3f} {rnd.ops:>7d} {rnd.raw_ops_per_s:>9.3f} "
              f"{p50:>9.3f} {p99:>9.3f} {rnd.slowdown:>8.3f} "
              f"{rnd.cpu_slowdown:>8.3f}")


def main(args) -> int:
    workload = WORKLOAD_CLASSES[args.workload](args.seed)
    rounds, native, oracle_failed, problems, fault_overhead = run_rounds(workload, args)

    # -- correctness gate -------------------------------------------------
    reference = gate.reference_digest(args.workload, args.seed)
    expected = reference or rounds[0].digest
    failed = oracle_failed
    for index, rnd in enumerate(rounds):
        if rnd.digest != expected:
            rnd.problems.append(
                f"round {index}: output digest {rnd.digest} != "
                f"{'reference' if reference else 'round 0'} {expected}"
            )
        problems += rnd.problems + rnd.errors[:5]
        failed += rnd.attempted if rnd.problems else rnd.failed
    attempted = sum(r.attempted for r in rounds)
    correct = failed == 0 and not problems

    # -- report -------------------------------------------------------------
    plain = [r for r in rounds if not r.traced]
    e2e = end_to_end(plain)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host " + json.dumps(host_fingerprint(native), sort_keys=True))
    print("model: unvalidated against hardware, so no error figure is given; "
          "simulated outputs are checked for identity, not timed; the modelled "
          "caches start empty (warmup_instructions=0)")
    print_rounds(workload, rounds)
    if reference is None:
        verdict = "no reference recorded for this seed"
    else:
        verdict = "reference matched" if rounds[0].digest == reference else "MISMATCH"
    print(f"digest {rounds[0].digest} ({verdict})")
    aliases = ALIASES[args.workload]
    raw = end_to_end(plain, raw=True)
    print(f"  {'metric (on the reference host)':<34} {'value':>14} "
          f"{'unit':<5} {'raw':>14}")
    for name, unit in END_TO_END.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name + alias:<34} {e2e[name]:>14.4f} {unit:<5} {raw[name]:>14.4f}")
    samples = sum(len(r.latencies_ms) for r in plain)
    print(f"  {'failed_frac':<34} {failed / max(1, attempted):>14.4f} "
          f"fraction ({failed}/{attempted}; latency samples {samples})")
    for problem in problems:
        print(f"FAIL: {problem}")

    if args.trace:
        values, units = traced_layers(rounds, fault_overhead), PER_LAYER
        print_layer_table(args.workload, [r for r in rounds if r.traced][-1])
        for name, unit in units.items():
            print(f"  {name:<36} {values[name]:>14.6f} {unit}")
    else:
        values, units = e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": u} for name, u in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1
