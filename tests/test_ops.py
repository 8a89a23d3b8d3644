"""Gate application, inner products, and their dense cross-checks."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddqsim.circuit import FIXED_KINDS, ANGLE_KINDS, Circuit, Gate
from ddqsim.dd import TERMINAL, ZERO, CapacityError, Context, levels
from ddqsim.ops import _add, apply, fidelity, gate_dd, inner_product
from ddqsim.oracle import _apply_dense, dense_fidelity, dense_simulate, random_state

from conftest import random_circuit, random_permutation


def dense_apply(vector: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    return _apply_dense(vector.reshape([2] * n), gate, n).reshape(-1)


def single_qubit_gates():
    gates = [Gate(kind, (0,)) for kind in FIXED_KINDS if kind != "SWAP"]
    gates += [Gate(kind, (0,), angle=angle)
              for kind in ANGLE_KINDS for angle in (0.3, -1.2, math.pi)]
    return gates


@pytest.mark.parametrize("gate", single_qubit_gates(),
                         ids=lambda g: f"{g.kind}_{g.angle}")
def test_single_qubit_gate_matches_dense(gate):
    ctx = Context()
    n = 3
    for target in range(n):
        moved = Gate(gate.kind, (target,), angle=gate.angle)
        for seed in (1, 2):
            vec = random_state(n, 10 * target + seed)
            state = ctx.from_dense(vec)
            got = apply(state, moved).to_dense()
            want = dense_apply(vec, moved, n)
            assert np.allclose(got, want, atol=1e-12)


def test_controlled_gates_match_dense():
    ctx = Context()
    n = 4
    cases = [
        Gate("X", (0,), controls=(3,)),
        Gate("X", (2,), controls=(0,)),
        Gate("Z", (1,), controls=(3,)),
        Gate("PHASE", (3,), controls=(1,), angle=0.7),
        Gate("X", (1,), controls=(0, 3)),
        Gate("PHASE", (0,), controls=(2, 3), angle=-2.1),
    ]
    for i, gate in enumerate(cases):
        vec = random_state(n, 100 + i)
        got = apply(ctx.from_dense(vec), gate).to_dense()
        want = dense_apply(vec, gate, n)
        assert np.allclose(got, want, atol=1e-12)


def test_swap_and_permutation_match_dense():
    ctx = Context()
    n = 4
    vec = random_state(n, 7)
    got = apply(ctx.from_dense(vec), Gate("SWAP", (1, 3))).to_dense()
    assert np.allclose(got, dense_apply(vec, Gate("SWAP", (1, 3)), n), atol=1e-12)

    table = (2, 0, 3, 1, 4, 5, 6, 7)
    perm = Gate("PERMUTATION", (0, 1, 2), table=table)
    got = apply(ctx.from_dense(vec), perm).to_dense()
    assert np.allclose(got, dense_apply(vec, perm, n), atol=1e-12)

    controlled = Gate("PERMUTATION", (0, 1), controls=(3,), table=(1, 2, 3, 0))
    got = apply(ctx.from_dense(vec), controlled).to_dense()
    assert np.allclose(got, dense_apply(vec, controlled, n), atol=1e-12)


def test_random_circuits_match_dense_oracle():
    for seed in range(12):
        n = 2 + seed % 6
        circ = random_circuit(n, 30, seed=seed)
        ctx = Context()
        state = ctx.make_basis_state(n, "0" * n)
        for gate in circ.ops:
            state = apply(state, gate)
        assert np.allclose(state.to_dense(), dense_simulate(circ), atol=1e-10)


def test_apply_preserves_norm():
    ctx = Context()
    vec = random_state(5, 3)
    state = ctx.from_dense(vec)
    for gate in random_circuit(5, 40, seed=9).ops:
        state = apply(state, gate)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_gate_dd_cached_per_gate_value():
    # One entry per gate value with its qubits relabeled to local ranks:
    # H on any qubit is one shape, placed at that qubit.
    ctx = Context()
    a = gate_dd(ctx, Gate("H", (2,)))
    b = gate_dd(ctx, Gate("H", (2,)))
    assert a[0].level == b[0].level == 2 and a[1] == b[1]
    assert a[0].edges == b[0].edges
    c = gate_dd(ctx, Gate("H", (1,)))
    assert c[0].level == 1 and c[0].edges == a[0].edges
    assert list(ctx.gate_dds) == [(Gate("H", (0,)),)]
    r1 = gate_dd(ctx, Gate("RZ", (0,), angle=0.5))
    r2 = gate_dd(ctx, Gate("RZ", (0,), angle=0.25))
    assert r1[0] is not r2[0] or r1[1] != r2[1]
    assert len(ctx.gate_dds) == 3


def test_collect_garbage_drops_gate_dds():
    rng = random.Random(5)
    ops = [Gate("H", (q,)) for q in range(4)]
    ops += [Gate("RZ", (rng.randrange(4),), angle=rng.uniform(-math.pi, math.pi))
            for _ in range(5000)]
    ctx = Context()
    state = ctx.make_basis_state(4, "0000")
    for gate in ops:
        nxt = apply(state, gate)
        state.release()
        state = nxt
    ctx.collect_garbage()
    assert ctx.gate_dds == {}
    ops.append(Gate("H", (2,)))
    state = apply(state, ops[-1])
    assert np.abs(state.to_dense() - dense_simulate(Circuit(4, ops))).max() < 1e-9


@pytest.mark.parametrize("gate", [
    Gate("H", (39,)),              # _add memo: both terms share one sub-diagram
    Gate("T", (0,)),               # _mv memo through 39 untouched levels
    Gate("X", (0,), controls=(39,)),
], ids=lambda g: g.kind)
def test_gate_memos_keep_work_linear_in_depth(gate):
    n = 40
    ctx = Context()
    plus = ctx.make_basis_state(n, "0" * n)
    for q in range(n):
        plus = apply(plus, Gate("H", (q,)))
    calls = [0]
    make_vnode = ctx.make_vnode

    def counting(*args):
        # Without memos the shared |+> sub-diagrams are expanded once per
        # path, about 2**40 calls: fail at the bound instead of running on.
        calls[0] += 1
        if calls[0] > 2 * n:
            raise AssertionError(f"more than {2 * n} make_vnode calls")
        return make_vnode(*args)

    ctx.make_vnode = counting
    out = apply(plus, gate)
    assert out.node_count() <= 2 * n


def _count_make_vnode(ctx: Context) -> list[int]:
    """Count ``ctx.make_vnode`` calls from now on, in the returned cell."""
    calls = [0]
    make_vnode = ctx.make_vnode

    def counting(*args):
        calls[0] += 1
        return make_vnode(*args)

    ctx.make_vnode = counting
    return calls


def test_controlled_gate_on_deep_plus_state_builds_one_path():
    # The control-0 half is an identity block, so only the control-1 half
    # is walked: one make_vnode per level, plus one for the root.
    n = 40
    ctx = Context()
    plus = ctx.make_basis_state(n, "0" * n)
    for q in range(n):
        plus = apply(plus, Gate("H", (q,)))
    calls = _count_make_vnode(ctx)
    out = apply(plus, Gate("X", (0,), controls=(39,)))
    assert calls[0] <= n + 1
    assert out.root[0] is plus.root[0]


def test_add_of_one_node_with_itself_builds_nothing():
    ctx = Context()
    node = ctx.from_dense(random_state(3, seed=4)).root[0]
    calls = _count_make_vnode(ctx)
    a = 0.3 - 0.4j
    b = 0.25 + 0.5j
    assert _add(ctx, (node, a), (node, b), {}) == (node, a + b)
    assert _add(ctx, (node, a), (node, -a), {}) == ZERO
    assert _add(ctx, (TERMINAL, a), (TERMINAL, -a), {}) == ZERO
    assert calls[0] == 0


def test_gate_dd_identity_blocks_end_at_the_terminal():
    ctx = Context()
    root, w = gate_dd(ctx, Gate("X", (0,), controls=(5,)))
    assert root.level == 5 and w == 1
    e00, e01, e10, e11 = root.edges
    assert e00 == (TERMINAL, 1 + 0j)
    assert e01 == ZERO and e10 == ZERO
    assert e11[0].level == 0
    # A gate that is the identity on all it touches needs no matrix node.
    assert gate_dd(ctx, Gate("PERMUTATION", (1, 2), table=(0, 1, 2, 3))) == \
        (TERMINAL, 1 + 0j)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_same_node_sums_and_identity_blocks_match_dense_oracle(seed):
    """Random 5-qubit circuits with controlled permutations mixed in, and
    self-inverse pairs that force same-node sums and exact cancellation."""
    n = 5
    rng = random.Random(seed)
    gates = []
    for gate in random_circuit(n, 30, seed).ops:
        gates.append(gate)
        roll = rng.random()
        if roll < 0.25:
            gates.append(random_permutation(rng, n))
        elif roll < 0.6:
            pair = Gate(rng.choice(("H", "X")), (rng.randrange(n),))
            gates += [pair, pair]
    ctx = Context()
    state = ctx.make_basis_state(n, "0" * n)
    for i, gate in enumerate(gates):
        nxt = apply(state, gate)
        state.release()
        state = nxt
        ctx.check_invariants()
        assert state.node_count() == sum(map(len, levels(state.root)))
        want = dense_simulate(Circuit(n, gates[:i + 1]))
        assert np.abs(state.to_dense() - want).max() < 1e-9


def test_gate_dd_skips_untouched_levels():
    ctx = Context()
    root, _ = gate_dd(ctx, Gate("Z", (5,), controls=(2,)))
    levels = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is TERMINAL or node.level in levels:
            continue
        levels.add(node.level)
        stack.extend(t for t, w in node.edges if w != 0)
    assert levels == {2, 5}


def test_apply_on_top_qubit_keeps_lower_structure():
    ctx = Context()
    n = 8
    state = ctx.make_basis_state(n, "0" * n)
    before = state.node_count()
    after = apply(state, Gate("H", (n - 1,)))
    # A top-qubit H adds no nodes below the root level of a product state.
    assert after.node_count() == before


def test_inner_product_matches_dense():
    ctx = Context()
    for seed in range(10):
        u = random_state(5, seed)
        v = random_state(5, 50 + seed)
        a = ctx.from_dense(u)
        b = ctx.from_dense(v)
        assert inner_product(a, b) == pytest.approx(np.vdot(u, v), abs=1e-12)
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate(), abs=1e-12)
        assert inner_product(a, a) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_matches_dense_and_clamps():
    ctx = Context()
    for seed in range(10):
        u = random_state(4, seed)
        v = random_state(4, 90 + seed)
        a = ctx.from_dense(u)
        b = ctx.from_dense(v)
        assert fidelity(a, b) == pytest.approx(dense_fidelity(u, v), abs=1e-12)
        assert 0.0 <= fidelity(a, b) <= 1.0
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_size_mismatch():
    ctx = Context()
    a = ctx.make_basis_state(3, "000")
    b = ctx.make_basis_state(4, "0000")
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_deep_inner_product_is_a_capacity_error():
    state = Context().make_basis_state(1200, "0" * 1200)
    with pytest.raises(CapacityError):
        fidelity(state, state)


def test_apply_rejects_bad_qubits():
    ctx = Context()
    state = ctx.make_basis_state(3, "000")
    with pytest.raises(ValueError):
        apply(state, Gate("X", (1,), controls=(1,)))
    with pytest.raises(ValueError):
        apply(state, Gate("X", (3,)))
    with pytest.raises(ValueError):
        apply(state, Gate("Z", (0,), controls=(-1,)))


def test_zero_amplitude_shortcuts():
    # A controlled gate whose control is never set leaves the state intact.
    ctx = Context()
    state = ctx.make_basis_state(3, "000")
    out = apply(state, Gate("X", (0,), controls=(2,)))
    assert np.allclose(out.to_dense(), state.to_dense())
    assert out.root[0] is state.root[0]
