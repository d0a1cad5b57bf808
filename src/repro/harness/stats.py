"""Statistical rigor utilities: multi-seed runs and summary statistics.

The paper reports single deterministic runs (simulation noise is not an
issue on a fixed trace).  Our synthetic traces are seeded, so we can do
better: re-run an experiment over several trace seeds and report the mean
and spread of every metric — useful for judging whether a small scheme
difference is real or workload noise.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.harness.experiment import DEFAULT_INSTRUCTIONS, _run_spec
from repro.harness.spec import ExperimentSpec


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread of one metric over seeds."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n > 1 else 0.0

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)


def summarize(values: Sequence[float]) -> MetricSummary:
    """Summary statistics of a sample (population-corrected std)."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return MetricSummary(
        mean=mean, std=math.sqrt(var), minimum=min(values), maximum=max(values), n=n
    )


def latency_summary(values: Sequence[float], edges: Sequence[float]) -> dict:
    """Order statistics plus a histogram of latencies (telemetry payload).

    Bucket ``i`` counts the values ``v`` with ``edges[i - 1] <= v <
    edges[i]``; the first and last buckets are open-ended.  An empty
    sample summarizes to zeros.
    """
    vals = sorted(values)
    n = len(vals)
    counts = [0] * (len(edges) + 1)
    for v in vals:
        counts[bisect_right(edges, v)] += 1
    return {
        "count": n,
        "mean": sum(vals) / n if n else 0.0,
        "p50": vals[n // 2] if n else 0.0,
        "p90": vals[min(n - 1, (9 * n) // 10)] if n else 0.0,
        "max": vals[-1] if n else 0.0,
        "histogram": {"edges": list(edges), "counts": counts},
    }


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile-bootstrap confidence interval for a sample statistic.

    Produced by :func:`bootstrap_ci`; the interval is deterministic for
    a fixed *(values, seed)* pair, which is what lets a resumed fault-
    injection campaign reproduce its report byte-for-byte.
    """

    mean: float
    lo: float
    hi: float
    n: int
    level: float
    resamples: int

    @property
    def half_width(self) -> float:
        """Half the CI width — the campaign's adaptive-stopping signal."""
        return (self.hi - self.lo) / 2.0


def bootstrap_ci(
    values: Sequence[float],
    *,
    level: float = 0.95,
    n_resamples: int = 1000,
    seed: int = 0,
    statistic: Optional[Callable[[Sequence[float]], float]] = None,
) -> BootstrapCI:
    """Percentile bootstrap CI of *statistic* (default: the mean).

    Resampling uses ``random.Random(seed)``, so the interval is a pure
    function of the sample and the seed.  With one observation the
    interval degenerates to the point estimate.
    """
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    stat = statistic or (lambda xs: sum(xs) / len(xs))
    values = list(values)
    n = len(values)
    point = stat(values)
    if n == 1:
        return BootstrapCI(
            mean=point, lo=point, hi=point, n=1, level=level,
            resamples=n_resamples,
        )
    rng = random.Random(seed)
    replicates = sorted(
        stat([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(n_resamples)
    )
    alpha = (1.0 - level) / 2.0
    lo_index = min(n_resamples - 1, max(0, int(math.floor(alpha * n_resamples))))
    hi_index = min(
        n_resamples - 1, max(0, int(math.ceil((1.0 - alpha) * n_resamples)) - 1)
    )
    return BootstrapCI(
        mean=point,
        lo=replicates[lo_index],
        hi=replicates[hi_index],
        n=n,
        level=level,
        resamples=n_resamples,
    )


@dataclass
class SeededRun:
    """Per-metric summaries of one experiment repeated over trace seeds."""

    benchmark: str
    scheme: str
    seeds: tuple[int, ...]
    metrics: dict[str, MetricSummary] = field(default_factory=dict)

    def __getitem__(self, metric: str) -> MetricSummary:
        return self.metrics[metric]


#: Metrics summarized by default (attribute names of SimulationResult).
DEFAULT_METRICS = (
    "cycles",
    "cpi",
    "miss_rate",
    "replication_ability",
    "loads_with_replica",
)


def run_with_seeds(
    benchmark: str,
    scheme: str,
    *,
    n_seeds: int = 5,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    metrics: Sequence[str] = DEFAULT_METRICS,
    **kwargs,
) -> SeededRun:
    """Repeat one experiment over *n_seeds* trace seeds and summarize."""
    if n_seeds <= 0:
        raise ValueError("need at least one seed")
    seeds = tuple(range(n_seeds))
    samples: dict[str, list[float]] = {m: [] for m in metrics}
    scheme_name = benchmark_name = None
    base = ExperimentSpec.from_kwargs(
        benchmark, scheme, n_instructions=n_instructions, **kwargs
    )
    for seed in seeds:
        result = _run_spec(base.replace(trace_seed=seed))
        scheme_name = result.scheme
        benchmark_name = result.benchmark
        for metric in metrics:
            samples[metric].append(float(getattr(result, metric)))
    return SeededRun(
        benchmark=benchmark_name,
        scheme=scheme_name,
        seeds=seeds,
        metrics={m: summarize(v) for m, v in samples.items()},
    )


def significant_difference(
    a: MetricSummary, b: MetricSummary, sigma: float = 2.0
) -> bool:
    """Crude Welch-style significance: means differ by > sigma joint SEMs."""
    joint = math.sqrt(a.sem**2 + b.sem**2)
    if joint == 0.0:
        return a.mean != b.mean
    return abs(a.mean - b.mean) > sigma * joint


def compare_with_seeds(
    benchmark: str,
    scheme_a: str,
    scheme_b: str,
    *,
    metric: str = "cycles",
    n_seeds: int = 5,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    kwargs_a: dict | None = None,
    kwargs_b: dict | None = None,
) -> tuple[MetricSummary, MetricSummary, bool]:
    """Seed-paired comparison of one metric between two schemes."""
    a = run_with_seeds(
        benchmark, scheme_a, n_seeds=n_seeds, n_instructions=n_instructions,
        metrics=(metric,), **(kwargs_a or {}),
    )
    b = run_with_seeds(
        benchmark, scheme_b, n_seeds=n_seeds, n_instructions=n_instructions,
        metrics=(metric,), **(kwargs_b or {}),
    )
    return a[metric], b[metric], significant_difference(a[metric], b[metric])
