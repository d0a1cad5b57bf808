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

The front end is precomputed per trace.  Branch outcomes and fetch-block
boundaries depend only on the instruction trace, never on cache contents
or cycle numbers, so :func:`front_end_pass` computes the per-instruction
mispredict and new-fetch-block flags in one pass, and
:func:`front_end_for` memoizes that pass per trace for the default
predictor (the batched engine of :mod:`repro.core.array_kernel` builds its
prestage on the same memo).  The scheduling loop reads the flags: only an
instruction that starts a new fetch block reaches the iL1, and no
predictor call sits on the per-instruction path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

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


class FrontEnd(NamedTuple):
    """The trace-pure front-end outcomes of one trace (:func:`front_end_pass`)."""

    #: Per instruction, 1 where a branch mispredicts (0 elsewhere).
    mispredicts: bytes
    #: The predictor's final ``PredictorStats`` fields, in field order.
    predictor_counts: tuple[int, int, int]
    #: Per instruction, 1 where it starts a new fetch block.
    new_block: bytes


def front_end_pass(
    trace: Trace, predictor: CombinedPredictor, fetch_shift: int
) -> FrontEnd:
    """Drive *predictor* over the trace's branches and mark fetch blocks.

    One pass in program order.  A negative *fetch_shift* means the iL1
    is not modelled: no instruction starts a fetch block.  The deadline
    is checked every :data:`deadline.CHECK_INTERVAL` instructions.
    """
    ops = np.frombuffer(bytes(trace.op), dtype=np.uint8)
    n = len(ops)
    pcs = trace.pc
    takens = trace.taken
    targets = trace.target
    misp = bytearray(n)
    access = predictor.access
    expires = deadline.current()
    check_at = deadline.CHECK_INTERVAL
    for i in np.flatnonzero(ops == OP_BRANCH).tolist():
        if i >= check_at:
            deadline.check(expires)
            check_at = i + deadline.CHECK_INTERVAL
        if access(pcs[i], takens[i], targets[i]):
            misp[i] = 1
    if fetch_shift < 0 or n == 0:
        new_block = bytes(n)
    else:
        blocks = np.asarray(pcs, dtype=np.int64) >> fetch_shift
        flags = np.empty(n, dtype=bool)
        flags[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=flags[1:])
        new_block = flags.tobytes()
    stats = predictor.stats
    counts = (stats.branches, stats.direction_mispredicts, stats.btb_misses)
    return FrontEnd(bytes(misp), counts, new_block)


@lru_cache(maxsize=16)
def front_end_for(
    profile, n_instructions: int, seed_offset: int, fetch_shift: int
) -> FrontEnd:
    """:func:`front_end_pass` of a fresh :class:`CombinedPredictor`, memoized.

    Keyed like :func:`~repro.workloads.generator.trace_for` plus the
    fetch-block shift, so every scheme run on one trace pays the pass
    once.  A pass the deadline interrupts leaves nothing in the memo.
    """
    from repro.workloads.generator import trace_for

    trace = trace_for(profile, n_instructions, seed_offset)
    return front_end_pass(trace, CombinedPredictor(), fetch_shift)


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

    def run(
        self,
        trace: Trace,
        reset_stats_at: int = 0,
        front_end: FrontEnd | None = None,
    ) -> PipelineResult:
        """Schedule the whole trace; returns timing and branch statistics.

        *reset_stats_at* > 0 zeroes the hierarchy's counters after that
        many instructions have been scheduled — warm-up exclusion for
        short traces (cycle counts still cover the whole run; the cache
        and predictor state stays warm).

        *front_end* is the trace's memoized :func:`front_end_for`, valid
        only for a pipeline whose predictor is a fresh default
        :class:`CombinedPredictor`; without it the front-end pass runs
        here on :attr:`predictor`.
        """
        hierarchy = self.hierarchy
        if front_end is None:
            front_end = front_end_pass(trace, self.predictor, hierarchy.fetch_shift)
            predictor_stats = self.predictor.stats
        else:
            predictor_stats = PredictorStats(*front_end.predictor_counts)
        ops = trace.op
        n = len(ops)
        if len(front_end.mispredicts) != n or len(front_end.new_block) != n:
            raise ValueError("front end and trace differ in length")

        cfg = self.config
        width = cfg.issue_width
        ruu_size = cfg.ruu_size
        lsq_size = cfg.lsq_size
        penalty = cfg.mispredict_penalty
        by_op = self.funits.by_op
        fetch = hierarchy.fetch
        load = hierarchy.load
        store = hierarchy.store
        # Stall of an instruction inside the current fetch block: the
        # iL1 hit latency beyond one cycle.
        fetch_stall = max(hierarchy.config.l1i_latency - 1, 0)

        reg_ready = [0] * 64  # generous: src/dest indices are < 32
        # Ring buffers of retirement times for RUU/LSQ occupancy limits.
        ruu_ring = [0] * ruu_size
        lsq_ring = [0] * lsq_size
        ruu_at = lsq_at = 0

        dispatch_cycle = 0  # cycle currently accepting dispatches
        dispatched_in_cycle = 0
        redirect_floor = 0  # no dispatch before this (mispredict redirect)
        retire_cycle = 0  # last retirement time
        retired_in_cycle = 0

        rows = zip(
            ops,
            trace.dest,
            trace.src1,
            trace.src2,
            trace.pc,
            trace.addr,
            front_end.mispredicts,
            front_end.new_block,
        )
        # The loop runs in chunks: the deadline is checked between chunks
        # of CHECK_INTERVAL instructions, and the warm-up boundary starts
        # a chunk of its own, so the loop body pays for neither.
        bounds = set(range(0, n, deadline.CHECK_INTERVAL))
        if 0 < reset_stats_at < n:
            bounds.add(reset_stats_at)
        bounds = sorted(bounds)
        expires = deadline.current()
        for lo, hi in zip(bounds, bounds[1:] + [n]):
            deadline.check(expires)
            if lo == reset_stats_at and lo > 0:
                hierarchy.stats.reset()
            for op, dest, s1, s2, pc, addr, mp, nb in islice(rows, hi - lo):
                # --- dispatch constraints ---
                earliest = redirect_floor
                ruu_free = ruu_ring[ruu_at]
                if ruu_free > earliest:
                    earliest = ruu_free
                is_mem = 3 < op < 6  # OP_LOAD or OP_STORE
                if is_mem:
                    lsq_free = lsq_ring[lsq_at]
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

                # --- instruction fetch (only a new fetch block reaches the iL1) ---
                if nb:
                    fetch_latency = fetch(pc, dispatch_cycle)
                    if fetch_latency > 1:
                        # An iL1 miss freezes the front end.
                        dispatch_cycle += fetch_latency - 1
                        dispatched_in_cycle = 1
                elif fetch_stall:
                    dispatch_cycle += fetch_stall
                    dispatched_in_cycle = 1

                # --- operand readiness and functional-unit issue ---
                ready = dispatch_cycle
                t = reg_ready[s1]
                if t > ready:
                    ready = t
                t = reg_ready[s2]
                if t > ready:
                    ready = t
                free, unit_latency, interval = by_op[op]
                # The unit that frees earliest; the lowest index on ties.
                best_time = min(free)
                start = ready if ready >= best_time else best_time
                free[free.index(best_time)] = start + interval

                # --- execution ---
                if op == OP_LOAD:
                    complete = start + load(addr, start)
                elif op == OP_STORE:
                    complete = start + store(addr, start)
                else:
                    complete = start + unit_latency
                    if mp:  # a mispredicted branch redirects the front end
                        floor = complete + penalty
                        if floor > redirect_floor:
                            redirect_floor = floor

                if dest:
                    reg_ready[dest] = complete

                # --- in-order retirement, up to `width` per cycle ---
                if complete > retire_cycle:
                    retire_cycle = complete
                    retired_in_cycle = 1
                else:
                    retired_in_cycle += 1
                    if retired_in_cycle > width:
                        retire_cycle += 1
                        retired_in_cycle = 1
                ruu_ring[ruu_at] = retire_cycle
                ruu_at += 1
                if ruu_at == ruu_size:
                    ruu_at = 0
                if is_mem:
                    lsq_ring[lsq_at] = retire_cycle
                    lsq_at += 1
                    if lsq_at == lsq_size:
                        lsq_at = 0

        return PipelineResult(
            cycles=retire_cycle,
            instructions=n,
            loads=ops.count(OP_LOAD),
            stores=ops.count(OP_STORE),
            branches=ops.count(OP_BRANCH),
            mispredicts=front_end.mispredicts.count(1),
            predictor_stats=predictor_stats,
        )
