"""Tests for the out-of-order scoreboard pipeline and functional units."""

import pytest

from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.array_kernel import backend_mode
from repro.core.schemes import make_cache
from repro.cpu.branch import CombinedPredictor
from repro.cpu.funits import DEFAULT_SPECS, FunctionalUnits, FUSpec
from repro.cpu.isa import (
    OP_BRANCH,
    OP_FP_MUL,
    OP_INT_ALU,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
    Trace,
)
from repro.cpu.pipeline import OutOfOrderPipeline, PipelineConfig, front_end_for
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec, MachineConfig
from repro.workloads.generator import trace_for
from repro.workloads.spec2000 import profile_for


def build_pipeline(scheme="BaseP", config=None, **scheme_kwargs):
    dl1 = make_cache(scheme, **scheme_kwargs)
    hierarchy = MemoryHierarchy(dl1, HierarchyConfig(model_icache=False))
    return OutOfOrderPipeline(hierarchy, config or PipelineConfig())


def alu_trace(n, dependent=False):
    trace = Trace()
    for i in range(n):
        src = 1 if dependent else 0
        trace.append(OP_INT_ALU, dest=1, src1=src, pc=0x400000 + 4 * i)
    return trace


class TestFunctionalUnits:
    def test_int_alu_pool_has_four_units(self):
        fu = FunctionalUnits()
        starts = [fu.issue(OP_INT_ALU, 0)[0] for _ in range(5)]
        # Four ops start at cycle 0, the fifth waits for a unit.
        assert starts[:4] == [0, 0, 0, 0]
        assert starts[4] == 1

    def test_single_multiplier_serializes(self):
        fu = FunctionalUnits()
        starts = [fu.issue(OP_INT_MUL, 0)[0] for _ in range(3)]
        assert starts == [0, 1, 2]

    def test_latencies_match_specs(self):
        fu = FunctionalUnits()
        assert fu.issue(OP_INT_ALU, 0)[1] == 1
        assert fu.issue(OP_INT_MUL, 0)[1] == 3
        assert fu.issue(OP_FP_MUL, 0)[1] == 4

    def test_custom_specs_override(self):
        fu = FunctionalUnits({"int_alu": FUSpec(count=1, latency=5)})
        assert fu.issue(OP_INT_ALU, 0)[1] == 5
        assert DEFAULT_SPECS["int_alu"].latency == 1  # defaults untouched

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            FUSpec(count=0, latency=1)


class TestThroughputLimits:
    def test_independent_alu_ipc_close_to_width(self):
        pipeline = build_pipeline()
        result = pipeline.run(alu_trace(4000))
        assert result.ipc == pytest.approx(4.0, rel=0.05)

    def test_dependent_chain_ipc_is_one(self):
        pipeline = build_pipeline()
        result = pipeline.run(alu_trace(2000, dependent=True))
        assert result.ipc == pytest.approx(1.0, rel=0.05)

    def test_narrow_width_limits_ipc(self):
        pipeline = build_pipeline(config=PipelineConfig(issue_width=2))
        result = pipeline.run(alu_trace(2000))
        assert result.ipc == pytest.approx(2.0, rel=0.1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(issue_width=0)


class TestLoadLatencySensitivity:
    def _chained_load_trace(self, n):
        """Loads whose addresses depend on the previous load (chain)."""
        trace = Trace()
        for i in range(n):
            trace.append(OP_LOAD, dest=1, src1=1, pc=0x400000, addr=0x1000)
        return trace

    def test_ecc_loads_slow_chained_trace(self):
        trace = self._chained_load_trace(2000)
        fast = build_pipeline("BaseP").run(trace)
        slow = build_pipeline("BaseECC").run(trace)
        # Chained 1-cycle loads vs 2-cycle loads: ~2x cycles.
        assert slow.cycles / fast.cycles == pytest.approx(2.0, rel=0.1)

    def test_miss_latency_visible(self):
        trace = Trace()
        for i in range(500):
            trace.append(OP_LOAD, dest=1, src1=1, pc=0x400000, addr=i * 4096)
        result = build_pipeline().run(trace)
        # Every load misses L1 and mostly L2: cycles >> instructions.
        assert result.cycles > 500 * 50


class TestStores:
    def test_store_throughput_not_latency_bound(self):
        trace = Trace()
        for i in range(2000):
            trace.append(OP_STORE, src1=0, pc=0x400000, addr=0x1000)
        result = build_pipeline().run(trace)
        # Stores are 1 cycle; mem-port (2) is the limiter, not the cache.
        assert result.ipc >= 1.8

    def test_lsq_limits_outstanding_memory_ops(self):
        config = PipelineConfig(lsq_size=2)
        trace = Trace()
        for i in range(400):
            trace.append(OP_LOAD, dest=0, src1=0, pc=0x400000, addr=i * 4096)
        small = build_pipeline(config=config).run(trace)
        large = build_pipeline(config=PipelineConfig(lsq_size=64)).run(trace)
        assert small.cycles > large.cycles


class TestBranches:
    def _branch_trace(self, n, taken_pattern):
        trace = Trace()
        for i in range(n):
            taken = taken_pattern(i)
            trace.append(
                OP_BRANCH, pc=0x400000, taken=taken, target=0x400100 if taken else 0
            )
        return trace

    def test_predictable_branches_cost_little(self):
        trace = self._branch_trace(2000, lambda i: True)
        result = build_pipeline().run(trace)
        assert result.mispredict_rate < 0.02

    def test_random_branches_mispredict_and_stall(self):
        import random

        rng = random.Random(3)
        flips = [rng.random() < 0.5 for _ in range(2000)]
        trace = self._branch_trace(2000, lambda i: flips[i])
        predictable = build_pipeline().run(self._branch_trace(2000, lambda i: True))
        chaotic = build_pipeline().run(trace)
        assert chaotic.mispredict_rate > 0.2
        assert chaotic.cycles > predictable.cycles * 1.5

    def test_mispredict_penalty_scales_cycles(self):
        import random

        rng = random.Random(3)
        flips = [rng.random() < 0.5 for _ in range(2000)]
        cheap = build_pipeline(config=PipelineConfig(mispredict_penalty=1))
        costly = build_pipeline(config=PipelineConfig(mispredict_penalty=10))
        t1 = self._branch_trace(2000, lambda i: flips[i])
        t2 = self._branch_trace(2000, lambda i: flips[i])
        assert costly.run(t2).cycles > cheap.run(t1).cycles


class TestResultAccounting:
    def test_counts_by_class(self):
        trace = Trace()
        trace.append(OP_LOAD, dest=1, addr=0x1000, pc=0x400000)
        trace.append(OP_STORE, addr=0x1000, pc=0x400004)
        trace.append(OP_BRANCH, pc=0x400008, taken=False)
        trace.append(OP_INT_ALU, dest=2, pc=0x40000C)
        result = build_pipeline().run(trace)
        assert result.instructions == 4
        assert result.loads == 1
        assert result.stores == 1
        assert result.branches == 1

    def test_cycles_positive_and_cpi_sane(self):
        result = build_pipeline().run(alu_trace(100))
        assert result.cycles > 0
        assert 0.2 < result.cpi < 2.0


class TestFrontEnd:
    """The trace-pure front end: memoized per trace, or computed per run."""

    N = 5_000

    def _trace(self):
        return trace_for(profile_for("gzip"), self.N, 0)

    def _pipeline(self, **kwargs):
        dl1 = make_cache("ICR-P-PS(S)", decay_window=1000)
        return OutOfOrderPipeline(MemoryHierarchy(dl1, HierarchyConfig()), **kwargs)

    def test_memoized_front_end_gives_the_same_result(self):
        pipeline = self._pipeline()
        front_end = front_end_for(
            profile_for("gzip"), self.N, 0, pipeline.hierarchy.fetch_shift
        )
        memoized = pipeline.run(self._trace(), front_end=front_end)
        computed = self._pipeline().run(self._trace())
        assert memoized == computed  # predictor_stats included
        assert computed.predictor_stats.branches == computed.branches > 0

    def test_pretrained_predictor_is_honoured(self):
        predictor = CombinedPredictor()
        first = self._pipeline(predictor=predictor).run(self._trace())
        second = self._pipeline(predictor=predictor).run(self._trace())
        # The second run continues the trained predictor: its stats
        # accumulate, and its own mispredicts are the difference.
        assert second.predictor_stats is predictor.stats
        assert predictor.stats.branches == 2 * first.branches
        assert second.mispredicts == predictor.stats.mispredicts - first.mispredicts
        assert second.mispredicts < first.mispredicts

    def test_front_end_memo_is_bounded(self):
        assert front_end_for.cache_info().maxsize is not None

    def test_front_end_of_another_trace_is_rejected(self):
        front_end = front_end_for(profile_for("gzip"), self.N, 0, 5)
        with pytest.raises(ValueError, match="length"):
            self._pipeline().run(alu_trace(10), front_end=front_end)

    @pytest.mark.parametrize("model_icache", [True, False])
    def test_slow_fetch_matches_batched_engine(self, model_icache):
        # An iL1 latency above one cycle stalls every instruction, not
        # only new fetch blocks; the batched engine prices each one.
        hierarchy = HierarchyConfig(l1i_latency=2, model_icache=model_icache)
        machine = MachineConfig(hierarchy=hierarchy)
        results = {
            backend: run_experiment(
                ExperimentSpec(
                    "gzip",
                    "BaseP",
                    n_instructions=3_000,
                    machine=machine,
                    backend=backend,
                )
            )
            for backend in ("object", "array")
        }
        assert backend_mode(
            ExperimentSpec("gzip", "BaseP", machine=machine, backend="array")
        ) == "array-batched"
        assert results["object"].to_dict() == results["array"].to_dict()
