"""Functional-unit pools (Table 1).

Each pool models *n* identical units with an operation latency and an issue
interval (how long one operation occupies the unit before the next can
start; 1 = fully pipelined).  Reservation is greedy: an operation takes the
unit that frees earliest, starting no earlier than its operands are ready.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import (
    OP_BRANCH,
    OP_FP_ALU,
    OP_FP_MUL,
    OP_INT_ALU,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
)


@dataclass(frozen=True)
class FUSpec:
    """One pool: unit count, result latency, issue interval."""

    count: int
    latency: int
    interval: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0 or self.latency <= 0 or self.interval <= 0:
            raise ValueError("functional-unit parameters must be positive")


#: SimpleScalar-flavoured defaults for the Table 1 machine.
DEFAULT_SPECS: dict[str, FUSpec] = {
    "int_alu": FUSpec(count=4, latency=1),
    "int_mul": FUSpec(count=1, latency=3, interval=1),
    "fp_alu": FUSpec(count=4, latency=2),
    "fp_mul": FUSpec(count=1, latency=4, interval=1),
    # Cache ports for loads/stores (address generation + access issue).
    "mem_port": FUSpec(count=2, latency=1),
}

_OP_TO_POOL = {
    OP_INT_ALU: "int_alu",
    OP_INT_MUL: "int_mul",
    OP_FP_ALU: "fp_alu",
    OP_FP_MUL: "fp_mul",
    OP_LOAD: "mem_port",
    OP_STORE: "mem_port",
    OP_BRANCH: "int_alu",  # branches resolve on an integer ALU
}


class FunctionalUnits:
    """All pools of the machine, addressed by operation class."""

    def __init__(self, specs: dict[str, FUSpec] | None = None):
        self.specs = dict(DEFAULT_SPECS)
        if specs:
            self.specs.update(specs)
        # Per pool, the cycle at which each of its units is next free.
        free_at = {name: [0] * spec.count for name, spec in self.specs.items()}
        #: Indexed by op (the ``OP_*`` classes are 0..6): the pool's shared
        #: free_at list, its latency and its issue interval — one lookup
        #: per issue on the per-instruction hot path.  Ops sharing a pool
        #: (mem_port, int_alu) share the same free_at list object.
        self.by_op: list[tuple[list[int], int, int]] = []
        for op in range(len(_OP_TO_POOL)):
            spec = self.specs[_OP_TO_POOL[op]]
            self.by_op.append((free_at[_OP_TO_POOL[op]], spec.latency, spec.interval))

    def issue(self, op: int, ready: int) -> tuple[int, int]:
        """Reserve the right pool for *op*; returns (start, unit latency)."""
        free, latency, interval = self.by_op[op]
        # The unit that frees earliest; the lowest index on ties.
        best_time = min(free)
        start = ready if ready >= best_time else best_time
        free[free.index(best_time)] = start + interval
        return start, latency

    def latency_of(self, op: int) -> int:
        return self.specs[_OP_TO_POOL[op]].latency
