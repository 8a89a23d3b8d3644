"""Simulation drivers: exact, memory-driven, and fidelity-driven runs.

All drivers walk the gate list once, keeping a single pinned state diagram.
The approximating drivers differ only in when they fire a removal round:

* memory-driven: after any gate that leaves the node count above a fixed
  threshold.  Rounds keep firing gate after gate while the diagram stays
  oversized, so the working size hovers near the threshold's reach instead
  of saturating.
* fidelity-driven: at gate positions planned up front.  With a per-round
  floor ``f_round`` and an overall target ``f_final``, up to
  ``floor(log(f_final) / log(f_round))`` rounds keep the product of round
  fidelities at or above the target.  Positions are spread evenly or taken
  from the circuit's barrier markers.

Each round's fidelity against the state it pruned is exact, and the
reported ``fidelity_lower_bound`` is the product of those round fidelities.
The product equals the final state's fidelity against the exact run for a
single round, and for nested rounds with no gates between them.  It is not a
certificate in general: once gates run between rounds, the realized fidelity
can fall below it.  ``gen_supremacy(3, 4, 8, 32)`` at threshold 500 and
``f_round`` 0.99 reports 0.82993 and realizes 0.82077.

Python's cyclic garbage collector is paused while the gate loop runs and
restored to its prior state afterwards.  The engine creates no reference
cycles, so reference counting alone frees what the loop drops, and the
collector would only re-scan the live diagram again and again.
"""
from __future__ import annotations

import gc
import math
import time
from dataclasses import asdict, dataclass, field

from .approx import approximate_round
from .circuit import Circuit
from .dd import Context, StateDD
from .ops import apply

#: Unique-table size that triggers a garbage collection sweep.  A collection
#: walks only the live nodes, and ``_run`` then raises the trigger to twice
#: the live count, so a low floor keeps few dead nodes (each owning its two
#: weights) alive at an amortized cost.
GC_WATERMARK = 1 << 16


@dataclass
class RoundRecord:
    after_gate: int
    trigger: str
    nodes_before: int
    nodes_after: int
    round_fidelity: float


@dataclass
class SimStats:
    """Everything observable about one simulation run."""

    benchmark: str
    mode: str
    num_qubits: int
    num_gates: int
    max_dd_size: int = 0
    final_dd_size: int = 0
    rounds: list[RoundRecord] = field(default_factory=list)
    fidelity_lower_bound: float = 1.0
    node_trace: list[int] = field(default_factory=list)
    planned_rounds: int | None = None
    warnings: list[str] = field(default_factory=list)
    wall_time_seconds: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class MemoryDrivenConfig:
    threshold: int
    f_round: float

    def validate(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be positive")
        if not 0.0 < self.f_round <= 1.0:
            raise ValueError("f_round must be in (0, 1]")


@dataclass
class FidelityDrivenConfig:
    f_final: float
    f_round: float
    placement: str = "even"

    def validate(self) -> None:
        if not 0.0 < self.f_final <= 1.0:
            raise ValueError("f_final must be in (0, 1]")
        if not 0.0 < self.f_round <= 1.0:
            raise ValueError("f_round must be in (0, 1]")
        if self.placement not in ("even", "markers"):
            raise ValueError(f"unknown placement {self.placement!r}")


def plan_rounds(f_final: float, f_round: float) -> int:
    """Most rounds of fidelity >= f_round whose product stays >= f_final."""
    if not 0.0 < f_final <= 1.0:
        raise ValueError("f_final must be in (0, 1]")
    if not 0.0 < f_round <= 1.0:
        raise ValueError("f_round must be in (0, 1]")
    if f_final == 1.0:
        return 0
    if f_round == 1.0:
        raise ValueError("f_round must be below 1 to plan rounds for f_final < 1")
    return int(math.floor(math.log(f_final) / math.log(f_round) + 1e-12))


def even_positions(num_gates: int, rounds: int) -> list[int]:
    """Round positions spread evenly through the gate list.

    Position ``p`` means "after gate ``p``"; positions collide and drop out
    when there are more rounds than interior gaps.
    """
    raw = (math.ceil(k * num_gates / (rounds + 1)) for k in range(1, rounds + 1))
    return sorted({p for p in raw if 0 < p < num_gates})


def marker_positions(markers, num_gates: int, rounds: int) -> tuple[list[int], list[str]]:
    """The first ``rounds`` usable barrier markers, with scheduling notes."""
    usable = sorted({m for m in markers if 0 < m < num_gates})
    notes = []
    if len(usable) > rounds:
        notes.append(f"using the first {rounds} of {len(usable)} barrier markers")
        usable = usable[:rounds]
    elif len(usable) < rounds:
        notes.append(f"only {len(usable)} barrier markers available for "
                     f"{rounds} planned rounds")
    return usable, notes


def simulate_exact(circuit: Circuit, context: Context | None = None):
    """Run the circuit without any approximation; returns (state, stats)."""
    return _run(circuit, context, "exact", lambda done, count: None)


def simulate_memory_driven(circuit: Circuit, config: MemoryDrivenConfig,
                           context: Context | None = None):
    """Approximate after any gate that leaves the diagram oversized."""
    config.validate()
    threshold = config.threshold

    def policy(done: int, count: int):
        if count > threshold:
            return config.f_round, "threshold"
        return None

    return _run(circuit, context, "memory", policy)


def simulate_fidelity_driven(circuit: Circuit, config: FidelityDrivenConfig,
                             context: Context | None = None):
    """Approximate at planned positions; the bound stays >= ``f_final``."""
    config.validate()
    num_gates = len(circuit.ops)
    planned = plan_rounds(config.f_final, config.f_round)
    notes: list[str] = []
    if config.placement == "even":
        positions = even_positions(num_gates, planned)
        if len(positions) < planned:
            notes.append(f"even placement yields {len(positions)} distinct "
                         f"positions for {planned} planned rounds")
        trigger = "planned"
    else:
        positions, notes = marker_positions(circuit.markers, num_gates, planned)
        trigger = "marker"
    where = set(positions)

    def policy(done: int, count: int):
        if done in where:
            return config.f_round, trigger
        return None

    state, stats = _run(circuit, context, "fidelity", policy)
    stats.planned_rounds = planned
    stats.warnings.extend(notes)
    return state, stats


def _run(circuit: Circuit, context: Context | None, mode: str, policy):
    """Shared gate loop; ``policy(gates_done, node_count)`` may fire a round.

    Python's cyclic garbage collector is paused for the loop, rounds and
    :meth:`Context.collect_garbage` included, and switched back on afterwards
    only if it was on before, also when the loop raises.  The engine makes
    no reference cycles (see :mod:`ddqsim.dd`), so reference counting frees
    everything it drops, and the pause only saves the collector's repeated
    scans of the live nodes.
    """
    circuit.validate()
    ctx = context if context is not None else Context()
    n = circuit.num_qubits
    stats = SimStats(benchmark=circuit.name, mode=mode, num_qubits=n,
                     num_gates=len(circuit.ops))
    started = time.perf_counter()
    state = ctx.make_basis_state(n, circuit.initial_state or "0" * n)
    count = state.node_count()
    stats.max_dd_size = count
    watermark = GC_WATERMARK

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i, gate in enumerate(circuit.ops):
            new = apply(state, gate)
            state.release()
            state = new
            count = state.node_count()
            if count > stats.max_dd_size:
                stats.max_dd_size = count
            fired = policy(i + 1, count)
            if fired is not None:
                f_round, trigger = fired
                outcome = approximate_round(state, f_round)
                state.release()
                state = outcome.state
                count = outcome.nodes_after
                stats.rounds.append(RoundRecord(
                    after_gate=i + 1, trigger=trigger,
                    nodes_before=outcome.nodes_before,
                    nodes_after=outcome.nodes_after,
                    round_fidelity=outcome.round_fidelity))
            if ctx.unique_table_size() > watermark:
                ctx.collect_garbage()
                watermark = max(GC_WATERMARK, 2 * ctx.unique_table_size())
            stats.node_trace.append(count)
    finally:
        if was_enabled:
            gc.enable()

    stats.final_dd_size = count
    stats.fidelity_lower_bound = math.prod(
        r.round_fidelity for r in stats.rounds)
    stats.wall_time_seconds = time.perf_counter() - started
    return state, stats
