"""Seeded inputs for the three benchmark workloads.

Everything a workload feeds the simulator is a pure function of the
``--seed`` argument, so two runs with one seed give the program identical
inputs.  The seed varies only what does not change the amount of work
(trace random streams, fault seeds, which catalogue entries are popular),
so runs with different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import random

from repro.harness.campaign import CampaignConfig
from repro.harness.figures import RELAXED
from repro.harness.spec import ExperimentSpec
from repro.workloads.spec2000 import BENCHMARKS

#: The seed whose output digests are recorded in ``reference.json``.
DEFAULT_SEED = 0

#: The Base/ICR-{P,ECC}-{PS,PP} family of the error-free figures.
FIGURE_SCHEMES = (
    "BaseP",
    "BaseECC",
    "ICR-P-PS(S)",
    "ICR-P-PP(S)",
    "ICR-ECC-PS(S)",
    "ICR-ECC-PP(S)",
)

SWEEP_BENCHMARKS = ("gzip", "mcf", "vpr", "parser")
SWEEP_INSTRUCTIONS = 100_000

CAMPAIGN_BENCHMARK = "vortex"
CAMPAIGN_SCHEMES = ("BaseP", "ICR-P-PS(S)", "ICR-ECC-PS(S)", "BaseECC")
CAMPAIGN_ERROR_RATES = (2e-2, 5e-2)
CAMPAIGN_TRIALS = 4
CAMPAIGN_INSTRUCTIONS = 10_000

SERVICE_TRACE_SEEDS = 2
SERVICE_INSTRUCTIONS = 20_000
SERVICE_JOBS = 1000
ZIPF_EXPONENT = 1.1


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"perfbench:{label}:{seed}")


def _derived(seed: int, label: str, bound: int) -> int:
    digest = hashlib.blake2b(f"perfbench:{label}:{seed}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % bound


def sweep_specs(seed: int) -> list[ExperimentSpec]:
    """The error-free figure grid: 24 batched, 4 SoA and 4 object sims."""
    trace_seeds = {
        bench: 1 + _derived(seed, f"sweep:{bench}", 1 << 16)
        for bench in SWEEP_BENCHMARKS
    }
    specs = [
        ExperimentSpec(
            bench,
            scheme,
            n_instructions=SWEEP_INSTRUCTIONS,
            trace_seed=trace_seeds[bench],
            backend="array",
        )
        for bench in SWEEP_BENCHMARKS
        for scheme in FIGURE_SCHEMES
    ]
    for bench in SWEEP_BENCHMARKS:
        # A nonzero decay window reads cycle numbers, so the batched
        # engine declines it: this cell runs the per-access SoA kernel.
        specs.append(
            ExperimentSpec(
                bench,
                "ICR-P-PS(S)",
                n_instructions=SWEEP_INSTRUCTIONS,
                trace_seed=trace_seeds[bench],
                backend="array",
                scheme_kwargs={"decay_window": 1000},
            )
        )
        # The R-Cache baseline has no array port: the object kernel.
        specs.append(
            ExperimentSpec(
                bench,
                "rcache",
                n_instructions=SWEEP_INSTRUCTIONS,
                trace_seed=trace_seeds[bench],
                backend="array",
            )
        )
    return specs


def campaign_config(seed: int) -> CampaignConfig:
    """A fixed-trial Fig. 14 campaign (no adaptive stopping)."""
    return CampaignConfig(
        benchmarks=(CAMPAIGN_BENCHMARK,),
        schemes=CAMPAIGN_SCHEMES,
        error_rates=CAMPAIGN_ERROR_RATES,
        trials=CAMPAIGN_TRIALS,
        batch_size=CAMPAIGN_TRIALS // 2,
        target_half_width=None,
        n_instructions=CAMPAIGN_INSTRUCTIONS,
        backend="auto",
        scheme_kwargs=RELAXED,
        seed0=_derived(seed, "campaign", 1 << 31),
    )


def campaign_trace_specs(seed: int) -> list[ExperimentSpec]:
    """One spec per trace the campaign's trials read."""
    config = campaign_config(seed)
    return [config.trial_spec(config.cells()[0], 0, 0)]


def service_catalogue(seed: int) -> list[ExperimentSpec]:
    """8 benchmarks x 6 schemes x 2 trace seeds of error-free array specs."""
    trace_seeds = [
        1 + _derived(seed, f"service:trace:{i}", 1 << 16)
        for i in range(SERVICE_TRACE_SEEDS)
    ]
    return [
        ExperimentSpec(
            bench,
            scheme,
            n_instructions=SERVICE_INSTRUCTIONS,
            trace_seed=trace_seed,
            backend="array",
        )
        for bench in BENCHMARKS
        for trace_seed in trace_seeds
        for scheme in FIGURE_SCHEMES
    ]


def zipf_counts(n_jobs: int, n_items: int) -> list[int]:
    """Requests per popularity rank: Zipf shares of *n_jobs*, rounded.

    Largest-remainder rounding makes the counts sum to *n_jobs* exactly,
    so the number of distinct specs, and with it the number of misses,
    is the same for every seed.
    """
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, n_items + 1)]
    total = sum(weights)
    raw = [n_jobs * w / total for w in weights]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(n_items), key=lambda k: (counts[k] - raw[k], k))
    for rank in by_remainder[: n_jobs - sum(counts)]:
        counts[rank] += 1
    return counts


def zipf_sequence(seed: int, catalogue_size: int) -> list[int]:
    """The caller's indices into a catalogue of *catalogue_size* specs.

    Popularity is Zipf: the seed picks which specs are popular and the
    order of requests.  Every request is either the first for its spec (a
    miss) or a repeat of a finished one (a hit), and the counts make the
    hit/miss split the same for every seed.
    """
    rng = _rng(seed, "service:zipf")
    ranked = list(range(catalogue_size))
    rng.shuffle(ranked)
    counts = zipf_counts(SERVICE_JOBS, catalogue_size)
    sequence = [item for item, count in zip(ranked, counts) for _ in range(count)]
    rng.shuffle(sequence)
    return sequence


def trace_keys(specs) -> list[tuple[str, int, int]]:
    """The distinct (benchmark, length, trace seed) triples *specs* read."""
    keys = {
        (s.benchmark, s.n_instructions + s.warmup_instructions, s.trace_seed)
        for s in specs
    }
    return sorted(keys)
