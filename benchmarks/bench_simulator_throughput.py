"""Micro-benchmarks of the simulator itself (proper pytest-benchmark use).

These track the throughput of the hot paths — cache accesses, the SEC-DED
and byte-parity codecs, protected-word storage, pipeline scheduling on the
object and struct-of-arrays dL1, hierarchy construction, trace
generation — so performance
regressions in the substrate are visible independently of the figure
suite.
"""

import random

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache
from repro.coding.hamming import decode, encode, extract_data
from repro.coding.parity import byte_parity_bits
from repro.coding.protection import STORED_BITS, ProtectedWord, ProtectionKind
from repro.core.array_kernel import backend_mode
from repro.core.schemes import make_cache
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.harness.experiment import run_experiment
from repro.harness.runner import Job, ParallelRunner
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for


def test_plain_cache_access_throughput(benchmark):
    cache = SetAssociativeCache(CacheGeometry(16 * 1024, 4, 64))
    rng = random.Random(1)
    addrs = [rng.randrange(1 << 22) & ~7 for _ in range(20_000)]

    def run():
        for now, addr in enumerate(addrs):
            cache.access(addr, now & 3 == 0, now)

    benchmark(run)


def test_icr_cache_access_throughput(benchmark):
    cache = make_cache("ICR-P-PS(S)", decay_window=0)
    rng = random.Random(2)
    hot = [rng.randrange(1 << 20) & ~7 for _ in range(128)]
    addrs = [
        rng.choice(hot) if rng.random() < 0.8 else rng.randrange(1 << 22) & ~7
        for _ in range(20_000)
    ]

    def run():
        for now, addr in enumerate(addrs):
            cache.access(addr, now & 3 == 0, now)

    benchmark(run)


WORDS = [(i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) for i in range(2_000)]


def test_secded_encode_throughput(benchmark):
    benchmark(lambda: [encode(w) for w in WORDS])


def test_secded_decode_throughput(benchmark):
    codewords = [encode(w) for w in WORDS]
    benchmark(lambda: [decode(c) for c in codewords])


def test_secded_extract_throughput(benchmark):
    codewords = [encode(w) for w in WORDS]
    benchmark(lambda: [extract_data(c) for c in codewords])


def test_byte_parity_throughput(benchmark):
    benchmark(lambda: [byte_parity_bits(w) for w in WORDS])


@pytest.mark.parametrize("kind", list(ProtectionKind), ids=lambda k: k.value)
def test_protected_word_write_throughput(benchmark, kind):
    word = ProtectedWord(kind)

    def run():
        for w in WORDS:
            word.write(w)

    benchmark(run)


@pytest.mark.parametrize("kind", list(ProtectionKind), ids=lambda k: k.value)
def test_protected_word_read_throughput(benchmark, kind):
    # Every third word carries a single-bit fault, as in a busy campaign.
    cells = [ProtectedWord(kind, w) for w in WORDS]
    for i, cell in enumerate(cells[::3]):
        cell.flip_bit(i % STORED_BITS)
    benchmark(lambda: [cell.read() for cell in cells])


@pytest.mark.parametrize("kind", list(ProtectionKind), ids=lambda k: k.value)
def test_protected_word_flip_throughput(benchmark, kind):
    word = ProtectedWord(kind, WORDS[1])
    bits = [i % STORED_BITS for i in range(2_000)]

    def run():
        for bit in bits:
            word.flip_bit(bit)

    benchmark(run)


def test_pipeline_throughput(benchmark):
    trace = WorkloadGenerator(profile_for("gzip")).generate(30_000)

    def run():
        pipeline = OutOfOrderPipeline(MemoryHierarchy(make_cache("BaseP")))
        return pipeline.run(trace).cycles

    benchmark(run)


def test_pipeline_throughput_soa(benchmark):
    """The per-access tier on the struct-of-arrays dL1.

    A decay window of 1000 couples the dL1 to cycle numbers, so this spec
    runs the per-access pipeline, not the batched engine.  One untimed
    run first fills the trace and front-end memos, as in a sweep.
    """
    spec = ExperimentSpec.from_kwargs(
        "gzip",
        "ICR-P-PS(S)",
        n_instructions=30_000,
        backend="array",
        decay_window=1000,
    )
    assert backend_mode(spec) == "array-soa"
    run_experiment(spec)
    benchmark(lambda: run_experiment(spec).cycles)


def test_hierarchy_construction(benchmark):
    """Building the Table 1 hierarchy around a dL1: paid once per run."""
    dl1 = make_cache("BaseP")
    benchmark(lambda: MemoryHierarchy(dl1))


def test_trace_generation_throughput(benchmark):
    generator = WorkloadGenerator(profile_for("gcc"))
    benchmark(lambda: generator.generate(30_000))


def _end_to_end_grid(backend):
    return [
        Job(bench, scheme, dict(n_instructions=30_000, backend=backend))
        for bench in ("gzip", "mcf")
        for scheme in ("BaseP", "ICR-P-PS(S)")
    ]


def test_end_to_end_sims_per_sec(benchmark):
    """End-to-end runner throughput (jobs=1, result cache disabled).

    Whole simulations per second through the serial in-process path —
    trace lookup, pipeline, hierarchy and stats extraction included.
    """
    grid = _end_to_end_grid("object")

    def run():
        runner = ParallelRunner(jobs=1, cache=None)
        runner.run(grid)
        return runner.stats.sims_per_sec

    benchmark(run)


def test_end_to_end_sims_per_sec_array(benchmark):
    """Same grid through the struct-of-arrays kernel (backend="array").

    One untimed warm-up pass first: it fills the trace memo and the
    phase-1 prestage memo and builds the native phase-2 kernel, all
    one-time costs that would otherwise be charged to the first timed
    round.  The steady-state number here against its object twin above
    is the array kernel's speedup claim (>= 3x end to end).
    """
    grid = _end_to_end_grid("array")
    ParallelRunner(jobs=1, cache=None).run(list(grid))

    def run():
        runner = ParallelRunner(jobs=1, cache=None)
        runner.run(grid)
        return runner.stats.sims_per_sec

    benchmark(run)
