"""Fused windows of monomial gates: one matrix diagram and one pass per run."""
import math
import random

import numpy as np
import pytest

from ddqsim import approx, ops, oracle, strategies
from ddqsim.circuit import (Circuit, Gate, gate_entries, gen_ghz,
                            gen_shor_period)
from ddqsim.dd import TERMINAL, Context
from ddqsim.ops import (FUSION_GATES, FUSION_SPAN, _blocks,
                        _composed_entries, _folded_columns, apply, fidelity,
                        gate_dd, inner_product, is_monomial)
from ddqsim.oracle import _apply_dense, dense_simulate, random_state
from ddqsim.strategies import (FidelityDrivenConfig, MemoryDrivenConfig,
                               even_positions, plan_rounds, simulate_exact,
                               simulate_fidelity_driven,
                               simulate_memory_driven)

from conftest import random_circuit


def random_monomial_gate(rng: random.Random, n: int) -> Gate:
    """A seeded monomial gate on ``n >= 4`` qubits: a phase or bit flip with
    0-2 controls anywhere, a SWAP, or a PERMUTATION on 2-3 targets."""
    roll = rng.random()
    if roll < 0.15:
        return Gate("SWAP", tuple(sorted(rng.sample(range(n), 2))))
    if roll < 0.3:
        qubits = rng.sample(range(n), rng.choice((2, 3, 4)))
        k = rng.choice((2, 3)) if len(qubits) == 4 else 2
        targets = tuple(sorted(qubits[:k]))
        table = list(range(1 << k))
        rng.shuffle(table)
        return Gate("PERMUTATION", targets, controls=tuple(qubits[k:]),
                    table=tuple(table))
    qubits = rng.sample(range(n), rng.choice((1, 2, 3)))
    kind = rng.choice(("X", "Y", "Z", "S", "SDG", "T", "TDG", "RZ", "PHASE"))
    angle = rng.uniform(-math.pi, math.pi) if kind in ("RZ", "PHASE") else None
    return Gate(kind, (qubits[0],), controls=tuple(qubits[1:]), angle=angle)


@pytest.mark.parametrize("gate", [
    Gate("X", (0,)), Gate("Y", (0,)), Gate("Z", (0,)), Gate("S", (0,)),
    Gate("SDG", (0,)), Gate("T", (0,)), Gate("TDG", (0,)),
    Gate("RZ", (0,), angle=0.3), Gate("PHASE", (1,), angle=-2.0),
    Gate("X", (0,), controls=(1, 2)), Gate("SWAP", (0, 2)),
    Gate("PERMUTATION", (0, 1), controls=(3,), table=(1, 3, 0, 2)),
    # Decided by the entries: RX at angle 0 has no off-diagonal.
    Gate("RX", (0,), angle=0.0),
], ids=lambda g: f"{g.kind}_{len(g.controls)}c")
def test_monomial_gates(gate):
    assert is_monomial(gate)


@pytest.mark.parametrize("gate", [
    Gate("H", (0,)), Gate("SQRTX", (0,)), Gate("SQRTY", (0,), controls=(1,)),
    Gate("RX", (0,), angle=0.3), Gate("RY", (0,), angle=math.pi),
], ids=lambda g: f"{g.kind}_{g.angle}")
def test_dense_gates_are_not_monomial(gate):
    assert not is_monomial(gate)


def dense_run(vec: np.ndarray, gates, n: int) -> np.ndarray:
    psi = vec.reshape([2] * n)
    for gate in gates:
        psi = _apply_dense(psi, gate, n)
    return psi.reshape(-1)


def apply_one_by_one(state, gates):
    for gate in gates:
        state = apply(state, gate)
    return state


@pytest.mark.parametrize("seed", range(8))
def test_fused_apply_matches_gate_by_gate_and_oracle(seed):
    # Runs of 2-12 monomial gates on 6 qubits, controls above and below
    # their targets, applied to a seeded dense state.
    n = 6
    rng = random.Random(seed)
    ctx = Context()
    vec = random_state(n, seed)
    for _ in range(4):
        gates = [random_monomial_gate(rng, n) for _ in range(rng.randint(2, 12))]
        fused = apply(ctx.from_dense(vec), *gates).to_dense()
        single = apply_one_by_one(ctx.from_dense(vec), gates).to_dense()
        assert np.abs(fused - single).max() <= 1e-12
        want = dense_run(vec, gates, n)
        assert np.abs(fused - want).max() <= 1e-12
        vec = want


def random_wide_monomial_run(rng: random.Random, n: int) -> list:
    """A seeded run of 8-24 monomial gates on ``n`` qubits: CX, CZ, T, S,
    RZ and SWAP on random qubits, and one PERMUTATION on 5 targets."""
    run = []
    for _ in range(rng.randint(8, 24)):
        kind = rng.choice(("CX", "CZ", "T", "S", "RZ", "SWAP"))
        if kind in ("CX", "CZ"):
            c, t = rng.sample(range(n), 2)
            run.append(Gate(kind[1], (t,), controls=(c,)))
        elif kind == "SWAP":
            run.append(Gate("SWAP", tuple(sorted(rng.sample(range(n), 2)))))
        else:
            angle = rng.uniform(-math.pi, math.pi) if kind == "RZ" else None
            run.append(Gate(kind, (rng.randrange(n),), angle=angle))
    table = list(range(1 << 5))
    rng.shuffle(table)
    wide = Gate("PERMUTATION", tuple(sorted(rng.sample(range(n), 5))),
                table=tuple(table))
    run.insert(rng.randrange(len(run) + 1), wide)
    return run


@pytest.mark.parametrize("seed", range(12))
def test_blocks_in_one_pass_match_gate_by_gate_and_oracle(seed):
    # Monomial runs wider than FUSION_SPAN split into several blocks, which
    # one apply pass applies in order at each node on the top level.
    rng = random.Random(1000 + seed)
    n = rng.randint(6, 10)
    run = random_wide_monomial_run(rng, n)
    assert len({q for gate in run for q in gate.qubits()}) > FUSION_SPAN
    assert len(list(_blocks(run))) > 1
    vec = random_state(n, seed)
    ctx = Context()
    fused = apply(ctx.from_dense(vec), *run).to_dense()
    single = apply_one_by_one(ctx.from_dense(vec), run).to_dense()
    assert np.abs(fused - single).max() <= 1e-12
    assert np.abs(fused - dense_run(vec, run, n)).max() <= 1e-12
    ctx.check_invariants()


def rising_then_falling_window(rng: random.Random, n: int) -> list:
    """Seeded monomial gates on four-qubit stations that climb the register
    and come back down, with one block on qubits 0-3 repeated later.  Each
    station opens with a Z controlled by its other three qubits, so it is
    one block."""
    station = lambda b: [Gate("Z", (0,), controls=(1, 2, 3))] + [
        random_monomial_gate(rng, 4) for _ in range(rng.randint(1, 4))]
    moved = lambda gates, b: [Gate(g.kind, tuple(q + b for q in g.targets),
                                   tuple(q + b for q in g.controls), g.angle,
                                   g.table) for g in gates]
    bottom = station(0)
    run = list(bottom)
    bases = list(range(2, n - 3, 2))
    for b in bases + bases[-2::-1]:
        run += moved(station(b), b)
    return run + bottom


@pytest.mark.parametrize("seed", range(8))
def test_chained_descent_with_rising_and_falling_tops(seed):
    # Each block hands its sub-results to the next at the highest level a
    # later block touches; here the block tops rise and then fall, and the
    # first and last blocks are one cached diagram.
    rng = random.Random(2000 + seed)
    n = rng.randint(8, 11)
    run = rising_then_falling_window(rng, n)
    ctx = Context()
    parts = list(_blocks(run))
    roots = [gate_dd(ctx, *block)[0] for block in parts]
    tops = [max(q for g in block for q in g.qubits()) for block in parts]
    peak = tops.index(max(tops))
    assert 0 < peak < len(tops) - 1
    assert tops[0] < tops[peak] > tops[-1]
    assert roots[0] is roots[-1]
    assert len(parts) <= FUSION_GATES
    vec = random_state(n, seed)
    fused = apply(ctx.from_dense(vec), *run).to_dense()
    single = apply_one_by_one(ctx.from_dense(vec), run).to_dense()
    assert np.abs(fused - single).max() <= 1e-12
    assert np.abs(fused - dense_run(vec, run, n)).max() <= 1e-12
    ctx.check_invariants()


def test_one_diagram_serving_two_blocks_keeps_their_results_apart():
    # Blocks 0 and 2 are one cached diagram (qubits 0-3 are their own
    # placement), and all four hand on at level 9.  On |0...0> blocks 0
    # and 1 change no node, so block 2 meets the very node that block 0
    # handed on, and only the block index tells their results apart.
    n = 10
    b = Gate("Z", (0,), controls=(1, 2, 3))
    run = [b, Gate("Z", (4,), controls=(5, 6, 7)), b, Gate("X", (9,))]
    ctx = Context()
    roots = [gate_dd(ctx, *block)[0] for block in _blocks(run)]
    assert len(roots) == 4 and roots[0] is roots[2]
    state = apply(ctx.make_basis_state(n, "0" * n), *run)
    assert state.amplitude("1" + "0" * (n - 1)) == 1
    assert state.node_count() == n


def test_fused_apply_of_dense_gates_matches_gate_by_gate():
    # apply accepts any gates; a dense run multiplies full columns.
    n = 5
    gates = random_circuit(n, 12, seed=3).ops
    vec = random_state(n, 4)
    ctx = Context()
    fused = apply(ctx.from_dense(vec), *gates).to_dense()
    single = apply_one_by_one(ctx.from_dense(vec), gates).to_dense()
    assert np.abs(fused - single).max() <= 1e-12
    assert np.abs(fused - dense_run(vec, gates, n)).max() <= 1e-12


def composed_by_dicts(gates, touched):
    """Reference composition: each column a dict ``row -> weight``, starting
    from the first gate's own columns."""
    first, *rest = [_folded_columns(gate, touched) for gate in gates]
    cols = {col: dict(rows) for col, rows in enumerate(first)}
    for step in rest:
        for col, rows in cols.items():
            out: dict = {}
            for mid, w in rows.items():
                for row, gw in step[mid]:
                    if row in out:
                        out[row] += gw * w
                    else:
                        out[row] = gw * w
            cols[col] = {row: w for row, w in out.items() if w != 0}
    return {(row, col): w for col, rows in cols.items()
            for row, w in rows.items()}


@pytest.mark.parametrize("seed", range(6))
def test_composed_entries_match_the_dict_composition_bit_for_bit(seed):
    # Monomial runs, dense runs on four qubits whose products land on
    # shared rows, and one-gate runs (dense, controlled, permutation),
    # whose entries are the gate's own, zero signs included.
    n = 4
    rng = random.Random(seed)
    runs = [[random_monomial_gate(rng, n) for _ in range(rng.randint(2, 12))],
            random_circuit(n, 16, seed=seed).ops,
            [Gate("H", (seed % n,))],
            [Gate("Y", (0,), controls=(seed % 3 + 1,))],
            [Gate("PERMUTATION", (1, 2), controls=(0,),
                  table=tuple(rng.sample(range(4), 4)))],
            [random_monomial_gate(rng, n)]]
    for gates in runs:
        touched = sorted({q for gate in gates for q in gate.qubits()})
        got = _composed_entries(tuple(gates), touched)
        want = composed_by_dicts(gates, touched)
        assert repr(sorted(got.items())) == repr(sorted(want.items()))
        if len(gates) == 1:
            # One gate keeps its own weights, unmultiplied.
            own = {repr(w) for w in gate_entries(gates[0]).values()}
            assert {repr(w) for w in got.values()} <= own | {repr(1 + 0j)}


def test_gate_dds_are_cached_per_shape():
    # The key is the gates relabeled to their qubits' ranks among the
    # touched ones, and the cached diagram lies on those local levels.
    ctx = Context()
    gate = Gate("X", (1,), controls=(3,))
    local = Gate("X", (0,), controls=(1,))
    edge = gate_dd(ctx, gate)
    assert set(ctx.gate_dds) == {(local,)}
    assert edge[0].level == 3 and ctx.gate_dds[(local,)][0].level == 1
    assert gate_dd(ctx, Gate("X", (5,), controls=(9,)))[0].level == 9
    assert gate_dd(ctx, local) == ctx.gate_dds[(local,)]
    assert set(ctx.gate_dds) == {(local,)}
    pair = gate_dd(ctx, gate, gate)
    # X twice is the identity on everything it touches.
    assert pair == (TERMINAL, 1 + 0j)
    assert set(ctx.gate_dds) == {(local,), (local, local)}


def matrix_nodes(edge):
    """Every node of a matrix diagram in depth-first order, each as its
    level and its edges' weights and successor positions in that order."""
    order: dict = {}
    out = []

    def visit(node):
        if node is TERMINAL or node in order:
            return
        order[node] = len(order)
        for target, _ in node.edges:
            visit(target)
        out.append((node.level, [(repr(w), -1 if t is TERMINAL else order[t])
                                 for t, w in node.edges]))

    visit(edge[0])
    return repr(edge[1]), out


def matrix_entries(edge, touched):
    """Sparse ``(row, col) -> weight`` of a matrix diagram over the sorted
    qubits ``touched``, multiplying the weights along each path."""
    out = {}
    stack = [(edge[0], edge[1], 0, 0, len(touched) - 1)]
    while stack:
        node, w, row, col, p = stack.pop()
        if node is TERMINAL:
            # An identity block over the local bits p..0.
            for b in range(1 << (p + 1)):
                out[(row | b, col | b)] = w
            continue
        while touched[p] > node.level:
            p -= 1
        for quad, (target, ew) in enumerate(node.edges):
            if ew != 0:
                stack.append((target, w * ew, row | (quad >> 1) << p,
                              col | (quad & 1) << p, p - 1))
    return out


def test_one_shape_builds_once_and_every_placement_matches_a_fresh_build(
        monkeypatch):
    built = []
    compose = ops._composed_entries
    monkeypatch.setattr(ops, "_composed_entries",
                        lambda gates, touched: built.append(gates) or
                        compose(gates, touched))
    shape = [Gate("X", (0,), controls=(2,)), Gate("T", (1,)),
             Gate("SWAP", (0, 1)), Gate("RZ", (2,), angle=0.7)]
    ctx = Context()
    for touched in ([2, 5, 6], [0, 3, 9], [0, 1, 2]):
        gates = [Gate(g.kind, tuple(touched[q] for q in g.targets),
                      tuple(touched[q] for q in g.controls), g.angle)
                 for g in shape]
        placed = gate_dd(ctx, *gates)
        fresh = gate_dd(Context(), *gates)
        assert matrix_nodes(placed) == matrix_nodes(fresh)
        assert {level for level, _ in matrix_nodes(placed)[1]} <= \
            set(touched)
        got = matrix_entries(placed, touched)
        want = _composed_entries(tuple(gates), touched)
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-15
    # One build for the three placements, one for each fresh context.
    assert len(built) == 4


def test_apply_needs_a_gate():
    state = Context().make_basis_state(2, "00")
    with pytest.raises(ValueError, match="at least one gate"):
        apply(state)


def windows(gates, stops=()):
    return [len(w) for w in strategies._windows(gates, stops)]


def blocks(gates):
    return [len(b) for b in _blocks(gates)]


def test_blocks_hold_at_most_fusion_gates_gates():
    assert FUSION_GATES == 32
    run = [Gate("T", (q % 3,)) for q in range(2 * FUSION_GATES + 5)]
    assert blocks(run) == [FUSION_GATES] * 2 + [5]


def test_blocks_span_at_most_fusion_span_qubits():
    cx = [Gate("X", (q - 1,), controls=(q,)) for q in range(6, 0, -1)]
    assert FUSION_SPAN == 4
    assert blocks(cx) == [3, 3]           # {6..3}, then {3..0}
    # Dense gates split only by span, and a wider gate is a block alone.
    assert blocks([Gate("H", (q,)) for q in range(6)]) == [4, 2]
    wide = Gate("PERMUTATION", tuple(range(5)), table=tuple(range(32)))
    assert blocks([Gate("T", (0,)), wide, Gate("Z", (1,))]) == [1, 1, 1]


def test_windows_end_at_dense_gates_and_stops_only():
    # Span does not end a window: apply splits it into blocks instead.
    cx = [Gate("X", (q - 1,), controls=(q,)) for q in range(6, 0, -1)]
    assert windows(cx) == [6]
    assert windows(cx, stops={2}) == [2, 4]
    assert windows([Gate("H", (0,))] + cx[:2] + [Gate("H", (5,))] + cx[2:]) == \
        [1, 2, 1, 4]
    assert windows(cx, stops=range(1, 7)) == [1] * 6


def test_windows_hold_at_most_fusion_gates():
    # A window ends before it would open block FUSION_GATES + 1, with
    # blocks ended by their gate count ...
    run = [Gate("T", (q % 3,)) for q in range(FUSION_GATES * (FUSION_GATES + 1) + 5)]
    assert windows(run) == [FUSION_GATES * FUSION_GATES, FUSION_GATES + 5]
    # ... or by their span.
    run = [Gate("T", (q,)) for q in range(FUSION_SPAN * (FUSION_GATES + 1))]
    assert windows(run) == [FUSION_SPAN * FUSION_GATES, FUSION_SPAN]
    assert [blocks(w) for w in strategies._windows(run, ())] == \
        [[FUSION_SPAN] * FUSION_GATES, [FUSION_SPAN]]


def test_windows_skip_classifying_gates_that_end_at_a_stop(monkeypatch):
    # Memory mode stops after every gate, so no gate is classified there.
    def refuse(gate):
        raise AssertionError(f"{gate.kind} was classified")

    monkeypatch.setattr(strategies, "is_monomial", refuse)
    cx = [Gate("X", (q - 1,), controls=(q,)) for q in range(6, 0, -1)]
    assert windows(cx, stops=range(1, 7)) == [1] * 6
    _, stats = simulate_memory_driven(gen_ghz(6), MemoryDrivenConfig(1000, 0.99))
    assert stats.trace_after_gate == [1, 2, 3, 4, 5, 6]


def test_wide_permutation_runs_alone():
    table = list(range(1 << 7))
    random.Random(7).shuffle(table)
    wide = Gate("PERMUTATION", tuple(range(7)), table=tuple(table))
    assert is_monomial(wide)
    gates = [Gate("T", (0,)), wide, Gate("Z", (1,)), Gate("S", (2,))]
    # One window, whose pass applies the wide gate as a block of its own.
    assert windows(gates) == [4]
    assert blocks(gates) == [1, 1, 2]
    circ = Circuit(8, [Gate("H", (q,)) for q in range(3)] + gates)
    state, stats = simulate_exact(circ)
    assert stats.trace_after_gate == [1, 2, 3, 7]
    assert np.abs(state.to_dense() - dense_simulate(circ)).max() <= 1e-12


def test_ghz_500_runs_in_7_windows_of_one_descent():
    # The H, then the 499 CX gates in windows of FUSION_GATES blocks of
    # three CX each; each window's descent rebuilds each level about once,
    # not once per block below it.
    ctx = Context()
    _, stats = simulate_exact(gen_ghz(500), ctx)
    assert stats.trace_after_gate == [1, 97, 193, 289, 385, 481, 500]
    assert stats.final_dd_size == stats.max_dd_size == 999
    assert ctx._next_uid - 1 < 3_000


def assert_trace_is_per_window(stats):
    after = stats.trace_after_gate
    assert len(after) == len(stats.node_trace)
    assert all(a < b for a, b in zip(after, after[1:]))
    assert after[-1] == stats.num_gates
    assert stats.max_dd_size >= max(stats.node_trace)
    assert stats.final_dd_size == stats.node_trace[-1]


@pytest.mark.parametrize("seed", range(4))
def test_exact_trace_is_per_window(seed):
    circ = random_circuit(5, 60, seed=seed)
    state, stats = simulate_exact(circ)
    assert_trace_is_per_window(stats)
    assert len(stats.node_trace) < stats.num_gates
    assert np.abs(state.to_dense() - dense_simulate(circ)).max() <= 1e-10


def test_memory_mode_never_fuses():
    circ = gen_ghz(12)
    _, stats = simulate_memory_driven(circ, MemoryDrivenConfig(1000, 0.99))
    assert stats.trace_after_gate == list(range(1, len(circ.ops) + 1))
    assert_trace_is_per_window(stats)


def test_fidelity_windows_never_cross_a_planned_stop():
    # GHZ is all monomial past its first gate, so without stops it would
    # fuse across every planned position.
    circ = gen_ghz(40)
    _, stats = simulate_fidelity_driven(circ, FidelityDrivenConfig(0.5, 0.9))
    planned = even_positions(len(circ.ops), plan_rounds(0.5, 0.9))
    assert [r.after_gate for r in stats.rounds] == planned
    assert set(planned) <= set(stats.trace_after_gate)
    assert len(stats.trace_after_gate) < len(circ.ops)
    assert_trace_is_per_window(stats)


def test_fidelity_windows_never_cross_a_marker():
    circ = gen_shor_period(15, 7)
    cfg = FidelityDrivenConfig(0.5, 0.9, placement="markers")
    _, stats = simulate_fidelity_driven(circ, cfg)
    fired = [r.after_gate for r in stats.rounds]
    assert fired and set(fired) <= set(stats.trace_after_gate)
    assert_trace_is_per_window(stats)


def _released():
    state = Context().make_basis_state(2, "00")
    state.release()
    return state


@pytest.mark.parametrize("call", [
    lambda s: apply(s, Gate("H", (0,))),
    lambda s: inner_product(s, s.context.make_basis_state(2, "00")),
    lambda s: fidelity(s.context.make_basis_state(2, "00"), s),
    approx.node_contributions,
    lambda s: approx.remove_nodes(s, []),
    lambda s: approx.approximate_round(s, 0.9),
    lambda s: oracle.basis_path_nodes(s, 0),
], ids=["apply", "inner_product", "fidelity", "node_contributions",
        "remove_nodes", "approximate_round", "basis_path_nodes"])
def test_released_handle_is_refused_by_ops_and_approx(call):
    with pytest.raises(ValueError, match="released"):
        call(_released())
