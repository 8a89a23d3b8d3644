"""Simulation drivers: exact, memory-driven, and fidelity-driven runs.

All drivers walk the gate list once, keeping a single state diagram.
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
``f_round`` 0.99 reports 0.83126 and realizes 0.81887.

The gate list runs in windows.  A run of consecutive monomial gates (one
nonzero per column; see :func:`ddqsim.ops.is_monomial`) is applied in one
:func:`ddqsim.ops.apply` call, with one node count.  The call splits the
window into blocks of at most ``ddqsim.ops.FUSION_SPAN`` qubits and
``ddqsim.ops.FUSION_GATES`` gates, one matrix diagram each, and applies
them in one descent over the state, each block handing its sub-results to
the next at the highest level a later block touches.  A window holds at
most ``FUSION_GATES`` blocks (see :func:`ddqsim.ops.fused_windows`).  It
ends before any other gate, which runs alone, and after every
position where a round may fire: after every gate in memory-driven runs,
which therefore never fuse, and at the planned or marker positions in
fidelity-driven runs, so the round fidelities keep their meaning.
``node_trace`` and ``max_dd_size`` describe window ends, and a peak inside
a window is not seen.  Fused phases multiply in another order than gate by
gate, so exact and fidelity-driven results move by rounding dust.

Python's cyclic garbage collector is paused while the gate loop runs and
restored to its prior state afterwards, by the same helper
(:func:`ddqsim.dd.collector_paused`) that pauses it in each
:func:`ddqsim.ops.apply`.  The engine creates no reference cycles, so
reference counting and the unique-table sweep free what the loop drops, and
the collector would only re-scan the live diagram again and again.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, field

from .approx import approximate_round
from .circuit import Circuit
from .dd import CapacityError, Context, StateDD, collector_paused
from .ops import apply, fused_windows, is_monomial

#: Unique-table size that triggers a sweep, which frees the dead nodes the
#: table still holds.  ``_run`` then raises the trigger to twice the live
#: count, so dead nodes never outnumber live ones by much, and each sweep's
#: walk of the table is paid for by the entries added since the last one.
GC_WATERMARK = 1 << 12


@dataclass
class RoundRecord:
    after_gate: int
    trigger: str
    nodes_before: int
    nodes_after: int
    round_fidelity: float


@dataclass
class SimStats:
    """Everything observable about one simulation run.

    ``node_trace`` holds the node count at the end of each window of gates
    that :func:`_run` applies as one, after any round fired there, and
    ``trace_after_gate`` the number of gates done at that point.
    ``max_dd_size`` is the largest of those counts and the initial state's,
    so a peak inside a window is not seen.  Memory mode never fuses: it
    counts after every gate.
    """

    benchmark: str
    mode: str
    num_qubits: int
    num_gates: int
    max_dd_size: int = 0
    final_dd_size: int = 0
    rounds: list[RoundRecord] = field(default_factory=list)
    fidelity_lower_bound: float = 1.0
    node_trace: list[int] = field(default_factory=list)
    trace_after_gate: list[int] = field(default_factory=list)
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
    when there are more rounds than interior gaps.  With at least as many
    rounds as gaps every gap holds one, so the answer is known without a
    loop over the rounds, which a tiny per-round budget can make astronomic.
    """
    if rounds >= num_gates - 1:
        return list(range(1, num_gates))
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

    # The threshold may be crossed after any gate.
    return _run(circuit, context, "memory", policy,
                stops=range(1, len(circuit.ops) + 1))


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

    state, stats = _run(circuit, context, "fidelity", policy, stops=where)
    stats.planned_rounds = planned
    stats.warnings.extend(notes)
    return state, stats


def _windows(gates, stops):
    """Split ``gates`` into the windows that :func:`_run` applies as one.

    A window is a run of consecutive monomial gates (see
    :func:`ddqsim.ops.is_monomial`), cut by :func:`ddqsim.ops.fused_windows`
    into windows of at most ``ddqsim.ops.FUSION_GATES`` blocks; any other
    gate is a window of its own.  A window also ends after every gate count
    in ``stops``, and a gate that would open a window ending there is not
    classified at all.
    """
    run: list = []
    for done, gate in enumerate(gates, 1):
        if not run and done in stops:
            # The gate is a window of its own whatever its kind.
            yield [gate]
            continue
        if not is_monomial(gate):
            yield from fused_windows(run)
            run = []
            yield [gate]
            continue
        run.append(gate)
        if done in stops:
            yield from fused_windows(run)
            run = []
    yield from fused_windows(run)


def _run(circuit: Circuit, context: Context | None, mode: str, policy,
         stops=()):
    """Shared gate loop; ``policy(gates_done, node_count)`` may fire a round.

    The gates run in windows (see :func:`_windows`), each applied in one
    :func:`ddqsim.ops.apply` pass; ``stops`` holds the gate counts after
    which ``policy`` may fire, so a window ends at each of them.  The node
    count and ``policy`` are taken once per window, at its end, and the
    count taken there is the one a round's record reports as
    ``nodes_before``.  Dead nodes stay in the unique table, where a later
    gate may find them again; once it holds more than the watermark,
    :meth:`Context.collect_garbage` frees them, and the watermark becomes
    twice the live count, or ``GC_WATERMARK`` if more.
    A register deeper than ``sys.getrecursionlimit()`` is refused with
    :class:`~ddqsim.dd.CapacityError` before anything is allocated: every
    kernel recurses once per level, so it could not run.
    Python's cyclic garbage collector is paused for the loop, rounds and
    :meth:`Context.collect_garbage` included, by
    :func:`ddqsim.dd.collector_paused`, which switches it back on afterwards
    only if it was on before, also when the loop raises.  The engine makes
    no reference cycles (see :mod:`ddqsim.dd`), so reference counting and
    the sweep free everything it drops, and the pause only saves the
    collector's repeated scans of the live nodes.
    """
    circuit.validate()
    n = circuit.num_qubits
    limit = sys.getrecursionlimit()
    if n > limit:
        # Every kernel recurses once per level, so no such register can run;
        # refuse it before its basis-state label is built.
        raise CapacityError(
            f"a {n}-qubit register is too deep: every kernel recurses once "
            f"per level, and the recursion limit is {limit}")
    ctx = context if context is not None else Context()
    stats = SimStats(benchmark=circuit.name, mode=mode, num_qubits=n,
                     num_gates=len(circuit.ops))
    started = time.perf_counter()
    state = ctx.make_basis_state(n, circuit.initial_state or "0" * n)
    count = state.node_count()
    stats.max_dd_size = count
    watermark = GC_WATERMARK
    done = 0

    with collector_paused():
        for window in _windows(circuit.ops, stops):
            state = apply(state, *window)
            done += len(window)
            count = state.node_count()
            if count > stats.max_dd_size:
                stats.max_dd_size = count
            fired = policy(done, count)
            if fired is not None:
                f_round, trigger = fired
                outcome = approximate_round(state, f_round)
                state = outcome.state
                stats.rounds.append(RoundRecord(
                    after_gate=done, trigger=trigger,
                    nodes_before=count,
                    nodes_after=outcome.nodes_after,
                    round_fidelity=outcome.round_fidelity))
                count = outcome.nodes_after
            if ctx.unique_table_size() > watermark:
                ctx.collect_garbage()
                watermark = max(GC_WATERMARK, 2 * ctx.unique_table_size())
            stats.node_trace.append(count)
            stats.trace_after_gate.append(done)

    stats.final_dd_size = count
    stats.fidelity_lower_bound = math.prod(
        r.round_fidelity for r in stats.rounds)
    stats.wall_time_seconds = time.perf_counter() - started
    return state, stats
