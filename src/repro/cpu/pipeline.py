"""Out-of-order timing model in the spirit of SimpleScalar's sim-outorder.

A scoreboard scheduler walks the dynamic trace once (O(1) work per
instruction) and computes, for every instruction, when it could dispatch,
issue, complete and retire on the Table 1 machine:

* **dispatch** is limited by the 4-wide issue width, by RUU occupancy
  (an instruction cannot enter until the one 16 slots earlier retired),
  by LSQ occupancy for memory ops, by instruction fetch (iL1 misses), and
  by branch-misprediction redirects (resolve + 3 cycles);
* **issue** waits for source operands (register scoreboard) and for a free
  functional unit of the right class;
* **completion** adds the unit or cache latency — loads ask the memory
  hierarchy, which is where the per-scheme 1- vs 2-cycle hit costs and the
  miss costs enter the model;
* **retirement** is in order, up to ``issue_width`` per cycle.

This greedy schedule is the standard fast approximation of an out-of-order
core: it captures what matters for the paper — load-latency sensitivity,
miss overlap within the RUU window, store buffering, and write-buffer
stalls — while staying fast enough to sweep ten schemes over eight
workloads in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import deadline
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.branch import CombinedPredictor, PredictorStats
from repro.cpu.funits import FunctionalUnits, FUSpec
from repro.cpu.isa import OP_BRANCH, OP_LOAD, OP_STORE, Trace


@dataclass(frozen=True)
class PipelineConfig:
    """Core parameters (defaults = Table 1)."""

    issue_width: int = 4
    ruu_size: int = 16
    lsq_size: int = 8
    mispredict_penalty: int = 3
    fu_specs: dict[str, FUSpec] | None = None

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.ruu_size <= 0 or self.lsq_size <= 0:
            raise ValueError("pipeline parameters must be positive")


@dataclass
class PipelineResult:
    """Outcome of one timed run."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    branches: int
    mispredicts: int
    predictor_stats: PredictorStats = field(default_factory=PredictorStats)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0


class OutOfOrderPipeline:
    """Scoreboard-scheduled superscalar core bound to a memory hierarchy."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        config: PipelineConfig | None = None,
        predictor: CombinedPredictor | None = None,
    ):
        self.hierarchy = hierarchy
        self.config = config or PipelineConfig()
        self.predictor = predictor or CombinedPredictor()
        self.funits = FunctionalUnits(self.config.fu_specs)

    def run(self, trace: Trace, reset_stats_at: int = 0) -> PipelineResult:
        """Schedule the whole trace; returns timing and branch statistics.

        *reset_stats_at* > 0 zeroes the hierarchy's counters after that
        many instructions have been scheduled — warm-up exclusion for
        short traces (cycle counts still cover the whole run; the cache
        and predictor state stays warm).
        """
        cfg = self.config
        hierarchy = self.hierarchy
        predictor = self.predictor
        issue = self.funits.issue
        width = cfg.issue_width
        ruu_size = cfg.ruu_size
        lsq_size = cfg.lsq_size
        penalty = cfg.mispredict_penalty

        reg_ready = [0] * 64  # generous: src/dest indices are < 32
        # Ring buffers of retirement times for RUU/LSQ occupancy limits.
        ruu_ring = [0] * ruu_size
        lsq_ring = [0] * lsq_size

        dispatch_cycle = 0  # cycle currently accepting dispatches
        dispatched_in_cycle = 0
        redirect_floor = 0  # no dispatch before this (mispredict redirect)
        retire_cycle = 0
        retired_in_cycle = 0
        last_retire = 0
        mem_index = 0
        loads = stores = branches = mispredicts = 0

        ops = trace.op
        dests = trace.dest
        src1s = trace.src1
        src2s = trace.src2
        pcs = trace.pc
        addrs = trace.addr
        takens = trace.taken
        targets = trace.target

        expires = deadline.current()
        check_at = deadline.CHECK_INTERVAL
        for i in range(len(ops)):
            if i == check_at:
                deadline.check(expires)
                check_at += deadline.CHECK_INTERVAL
            if i == reset_stats_at and i > 0:
                hierarchy.stats.reset()
            op = ops[i]
            # --- dispatch constraints ---
            earliest = redirect_floor
            ruu_free = ruu_ring[i % ruu_size]
            if ruu_free > earliest:
                earliest = ruu_free
            is_mem = op == OP_LOAD or op == OP_STORE
            if is_mem:
                lsq_free = lsq_ring[mem_index % lsq_size]
                if lsq_free > earliest:
                    earliest = lsq_free
            if earliest > dispatch_cycle:
                dispatch_cycle = earliest
                dispatched_in_cycle = 1
            else:
                dispatched_in_cycle += 1
                if dispatched_in_cycle > width:
                    dispatch_cycle += 1
                    dispatched_in_cycle = 1
            dispatch = dispatch_cycle

            # --- instruction fetch (charged on new fetch blocks) ---
            fetch_latency = hierarchy.fetch(pcs[i], dispatch)
            if fetch_latency > 1:
                # An iL1 miss freezes the front end.
                dispatch += fetch_latency - 1
                dispatch_cycle = dispatch
                dispatched_in_cycle = 1

            # --- operand readiness and functional-unit issue ---
            ready = dispatch
            t = reg_ready[src1s[i]]
            if t > ready:
                ready = t
            t = reg_ready[src2s[i]]
            if t > ready:
                ready = t
            start, unit_latency = issue(op, ready)

            # --- execution ---
            if op == OP_LOAD:
                loads += 1
                complete = start + hierarchy.load(addrs[i], start)
            elif op == OP_STORE:
                stores += 1
                complete = start + hierarchy.store(addrs[i], start)
            elif op == OP_BRANCH:
                branches += 1
                complete = start + unit_latency
                if predictor.access(pcs[i], takens[i], targets[i]):
                    mispredicts += 1
                    floor = complete + penalty
                    if floor > redirect_floor:
                        redirect_floor = floor
            else:
                complete = start + unit_latency

            dest = dests[i]
            if dest:
                reg_ready[dest] = complete

            # --- in-order retirement, up to `width` per cycle ---
            retire = complete if complete > last_retire else last_retire
            if retire > retire_cycle:
                retire_cycle = retire
                retired_in_cycle = 1
            else:
                retired_in_cycle += 1
                if retired_in_cycle > width:
                    retire_cycle += 1
                    retired_in_cycle = 1
                retire = retire_cycle
            last_retire = retire
            ruu_ring[i % ruu_size] = retire
            if is_mem:
                lsq_ring[mem_index % lsq_size] = retire
                mem_index += 1

        return PipelineResult(
            cycles=last_retire,
            instructions=len(ops),
            loads=loads,
            stores=stores,
            branches=branches,
            mispredicts=mispredicts,
            predictor_stats=predictor.stats,
        )
