"""Core diagram tests: canonical construction, lookups, round trips, GC."""
import gc
import os
import random
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ddqsim
from ddqsim import strategies
from ddqsim.approx import approximate_round
from ddqsim.circuit import Gate, gen_ghz, gen_shor_period, gen_supremacy
from ddqsim.dd import (EPS, ONE, TERMINAL, ZERO, BoundedCache, CapacityError,
                       Context, VNode, _cell, _node_key, collector_paused,
                       levels, squared_norm, subtree_norms)
from ddqsim.ops import apply
from ddqsim.oracle import (basis_path_nodes, dense_fidelity, dense_simulate,
                           random_state)
from ddqsim.strategies import (FidelityDrivenConfig, MemoryDrivenConfig,
                               simulate_exact, simulate_fidelity_driven,
                               simulate_memory_driven)

from conftest import random_circuit, random_permutation


# -- weight cells ----------------------------------------------------------

def test_weights_within_eps_share_one_stored_value():
    ctx = Context()
    a = ctx.make_vnode(0, (TERMINAL, 1.0), (TERMINAL, 0.5 + 0.25j))
    b = ctx.make_vnode(0, (TERMINAL, 1.0), (TERMINAL, 0.5 + 4e-14 + 0.25j))
    assert a[0] is b[0]
    # Both real parts round to cell 6, yet they lie just over EPS apart: the
    # unique table is keyed by cell, so one node serves both and keeps the
    # weight it was built with.
    lo = 5.5 * EPS + 0.25j
    hi = 6.5 * EPS + 0.25j
    assert _cell(lo) == _cell(hi) and abs(hi - lo) > EPS
    x = ctx.new_state(ctx.make_vnode(0, (TERMINAL, 1.0), (TERMINAL, lo)), 1)
    y = ctx.new_state(ctx.make_vnode(0, (TERMINAL, 1.0), (TERMINAL, hi)), 1)
    assert x.root[0] is y.root[0]
    assert x.root[0].high[1] == lo
    ctx.check_invariants()


def test_weights_beyond_eps_stay_distinct():
    ctx = Context()
    a = ctx.make_vnode(0, (TERMINAL, 1.0), (TERMINAL, 0.5 + 0j))
    b = ctx.make_vnode(0, (TERMINAL, 1.0), (TERMINAL, 0.5 + 3e-13 + 0j))
    assert a[0] is not b[0]
    assert ctx.unique_table_size() == 2


def test_near_zero_snaps_to_exact_zero():
    ctx = Context()
    assert ctx.weight(5e-14 - 5e-14j) == 0j
    assert ctx.weight(0.0j) == 0j


# -- basis states and amplitude lookup ------------------------------------

def test_basis_state_has_one_node_per_level():
    ctx = Context()
    s = ctx.make_basis_state(4, "0101")
    assert s.node_count() == 4
    assert s.amplitude("0101") == 1
    assert s.amplitude("0100") == 0


def test_basis_state_dense_index_is_binary_value():
    ctx = Context()
    dense = ctx.make_basis_state(3, "011").to_dense()
    want = np.zeros(8, dtype=complex)
    want[0b011] = 1
    assert np.array_equal(dense, want)


def test_basis_state_rejects_bad_bits():
    ctx = Context()
    with pytest.raises(ValueError):
        ctx.make_basis_state(3, "01")
    with pytest.raises(ValueError):
        ctx.make_basis_state(3, "01x")
    with pytest.raises(ValueError):
        ctx.make_basis_state(0, "")


def test_amplitude_rejects_bad_bits():
    ctx = Context()
    s = ctx.make_basis_state(2, "00")
    with pytest.raises(ValueError):
        s.amplitude("0")
    with pytest.raises(ValueError):
        s.amplitude("02")


# -- dense round trips -----------------------------------------------------

def test_round_trip_sweep_100_random_vectors():
    ctx = Context()
    for seed in range(100):
        v = random_state(6, seed=seed)
        err = np.abs(ctx.from_dense(v).to_dense() - v).max()
        assert err < 1e-12, f"seed {seed}: {err}"


def test_round_trip_various_sizes():
    ctx = Context()
    for n in (1, 2, 3, 5, 8):
        v = random_state(n, seed=n)
        assert np.abs(ctx.from_dense(v).to_dense() - v).max() < 1e-12


def test_from_dense_rejects_bad_input():
    ctx = Context()
    with pytest.raises(ValueError):
        ctx.from_dense(np.array([1.0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        ctx.from_dense(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        ctx.from_dense(np.array([1.0], dtype=complex))


def test_from_dense_is_canonical():
    ctx = Context()
    v = random_state(5, seed=7)
    a = ctx.from_dense(v)
    b = ctx.from_dense(v.copy())
    assert a.root[0] is b.root[0]
    assert a.root[1] == b.root[1]


def test_from_dense_root_weight_carries_the_global_phase():
    ctx = Context()
    for seed in range(10):
        v = random_state(4, seed=seed)
        theta = 0.3 + 0.6 * seed
        a = ctx.from_dense(v)
        b = ctx.from_dense(np.exp(1j * theta) * v)
        assert b.root[0] is a.root[0]
        assert abs(b.root[1] - np.exp(1j * theta) * a.root[1]) < 1e-12


def test_dense_lookup_agreement_is_exact():
    # to_dense entry i must equal amplitude(bits(i)) bit for bit.
    ctx = Context()
    for seed in (0, 1, 2):
        s = ctx.from_dense(random_state(5, seed=seed))
        dense = s.to_dense()
        for i in range(32):
            bits = format(i, "05b")
            assert dense[i] == s.amplitude(bits)


def test_zero_state_expands_to_all_zeros():
    dense = Context().new_state(ZERO, 3).to_dense()
    assert dense.shape == (8,)
    assert np.array_equal(dense, np.zeros(8, dtype=complex))


def test_to_dense_refuses_past_capacity_guard():
    ctx = Context()
    s = ctx.make_basis_state(21, "0" * 21)
    with pytest.raises(CapacityError):
        s.to_dense()


# -- structural invariants -------------------------------------------------

def _random_dd(ctx, n, seed):
    return ctx.from_dense(random_state(n, seed=seed))


def test_largest_outgoing_weight_has_unit_magnitude():
    ctx = Context()
    for seed in range(20):
        s = _random_dd(ctx, 6, seed)
        for node in chain.from_iterable(levels(s.root)):
            top = max(abs(node.low[1]), abs(node.high[1]))
            assert abs(top - 1.0) < 1e-12


def test_tie_normalization_prefers_low_edge():
    ctx = Context()
    edge = ctx.make_vnode(0, (TERMINAL, -0.5 + 0j), (TERMINAL, 0.5 + 0j))
    node = edge[0]
    assert node.low[1] == 1  # the low edge is chosen despite the sign
    assert node.high[1] == -1
    assert edge[1] == -0.5


def test_zero_edges_are_terminal_stubs():
    ctx = Context()
    for seed in range(20):
        v = random_state(5, seed=seed)
        v[::3] = 0
        v /= np.linalg.norm(v)
        s = ctx.from_dense(v)
        for node in chain.from_iterable(levels(s.root)):
            for target, w in (node.low, node.high):
                if w == 0:
                    assert target is TERMINAL


def test_nodes_hold_their_edges_in_their_own_slots():
    ctx = Context()
    states = [simulate_exact(gen_ghz(20), ctx)[0], _random_dd(ctx, 6, seed=5),
              ctx.make_basis_state(5, "01101")]
    zero_edges = 0
    for node in ctx._vtable.values():
        assert not any(isinstance(r, tuple) for r in gc.get_referents(node))
        for view, target, w in ((node.low, node.low_node, node.low_weight),
                                (node.high, node.high_node, node.high_weight)):
            assert view == (target, w)
            assert view[0] is target and view[1] is w or view is ZERO
            if w == 0:
                zero_edges += 1
                assert target is TERMINAL and view is ZERO
    assert zero_edges >= 2 * 19  # one per node on each of GHZ's two chains
    with pytest.raises(AttributeError):
        node.low = ZERO  # the views are read-only
    assert all(state.node_count() for state in states)


def test_nodes_with_all_zero_children_collapse():
    ctx = Context()
    assert ctx.make_vnode(1, ZERO, ZERO) == ZERO
    assert ctx.make_vnode(1, (TERMINAL, 1e-14 + 0j), ZERO) == ZERO


def test_node_count_upper_bound_and_sharing():
    ctx = Context()
    for seed in range(20):
        s = _random_dd(ctx, 5, seed)
        assert s.node_count() <= 2 ** 5 - 1
        buckets = levels(s.root)
        assert [{n.level for n in b} for b in buckets] == \
            [{4}, {3}, {2}, {1}, {0}]
        nodes = list(chain.from_iterable(buckets))
        assert len(set(nodes)) == len(nodes) == s.node_count()
    # proportional halves share one node
    v = np.array([1, 2, 3, 4, 2, 4, 6, 8], dtype=complex)
    v /= np.linalg.norm(v)
    s = ctx.from_dense(v)
    assert s.node_count() < 7
    root = s.root[0]
    assert root.low[0] is root.high[0]


_AMPLITUDE = st.sampled_from((0j, 1 + 0j, -1 + 0j, 1j, 0.5 + 0j, 0.6 - 0.8j))


@settings(max_examples=60, deadline=None)
@given(amplitudes=st.integers(1, 5).flatmap(
    lambda n: st.lists(_AMPLITUDE, min_size=1 << n, max_size=1 << n)))
@example(amplitudes=[0j, 0j, 0j, 0j])   # zero root
@example(amplitudes=[0.6 + 0j, 0.8j])   # one-qubit state
def test_node_count_matches_basis_paths(amplitudes):
    # Few distinct amplitudes, so equal and proportional halves are common.
    # The reference never walks the diagram as a whole: it follows one basis
    # state's path at a time, and every reachable node lies on one.
    ctx = Context()
    v = np.array(amplitudes, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        state = ctx.new_state(ZERO, len(v).bit_length() - 1)
    else:
        state = ctx.from_dense(v / norm)
    on_paths = set()
    for index in range(len(v)):
        on_paths.update(basis_path_nodes(state, index))
    assert state.node_count() == len(on_paths)


def test_levels_are_breadth_first_low_before_high():
    # Level 0 is reached as x, y (from a) and then z (from b); a depth-first
    # walk that pops each high child before its low sibling meets z, y, x.
    ctx = Context()
    x = ctx.make_vnode(0, ONE, ZERO)
    y = ctx.make_vnode(0, ONE, ONE)
    z = ctx.make_vnode(0, ZERO, ONE)
    a = ctx.make_vnode(1, x, y)
    b = ctx.make_vnode(1, y, z)
    root = ctx.make_vnode(2, a, b)
    assert [list(level) for level in levels(root)] == \
        [[root[0]], [a[0], b[0]], [x[0], y[0], z[0]]]
    # A node reached by both edges of its parent is listed once.
    twin = ctx.make_vnode(1, z, z)
    assert [list(level) for level in levels(twin)] == [[twin[0]], [z[0]]]


# Amplitudes whose ratios are short decimals: those lie at least a quarter
# cell from a cell edge, where the rounding dust of a phase rotation cannot
# move them into the next cell (see test_phase_copies_split_at_a_cell_edge).
_CENTERED = st.sampled_from((0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, 0.5j,
                             0.6 - 0.8j, 0.8 + 0.6j, 0.3 + 0.4j))


@settings(max_examples=60, deadline=None)
@given(sub=st.integers(1, 4).flatmap(
           lambda n: st.lists(_CENTERED, min_size=1 << n, max_size=1 << n)),
       theta=st.floats(-np.pi, np.pi))
def test_phase_rotated_subvectors_share_one_node(sub, theta):
    v = np.array(sub, dtype=complex)
    norm = np.linalg.norm(v)
    assume(norm > 0)
    v /= norm
    phase = np.exp(1j * theta)
    ctx = Context()
    state = ctx.from_dense(np.concatenate([v, phase * v]) / np.sqrt(2))
    root = state.root[0]
    assert root.low[0] is root.high[0]
    assert abs(root.high[1] / root.low[1] - phase) < 1e-12
    ctx.check_invariants()


def test_random_product_states_have_one_node_per_qubit():
    # Each qubit: a global phase drawn at random times a unit vector from a
    # short list, so every level repeats one sub-vector under many phases.
    units = [np.array(u) / np.linalg.norm(u) for u in
             ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [0.6, 0.8j],
              [0.8, -0.6], [1, 0.5], [0.5j, 1])]
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 10)
        v = np.ones(1, dtype=complex)
        for _ in range(n):
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
            v = np.kron(v, phase * rng.choice(units))
        ctx = Context()
        state = ctx.from_dense(v)
        assert state.node_count() == n
        assert np.abs(state.to_dense() - v).max() < 1e-12
        ctx.check_invariants()


@pytest.mark.xfail(strict=True, reason=(
    "nodes are keyed by EPS cell: a weight ratio within rounding of a cell "
    "edge can land in either cell, so copies that differ by a phase split"))
def test_phase_copies_split_at_a_cell_edge():
    edge = 0.3 + 0.5 * EPS
    q0 = np.array([1, edge]) / np.hypot(1, edge)
    q1 = np.array([np.cos(0.7), np.sin(0.7) * np.exp(0.15j)])
    assert Context().from_dense(np.kron(q1, q0)).node_count() == 2


def test_identical_subvectors_reuse_one_node():
    ctx = Context()
    a = ctx.make_vnode(0, (TERMINAL, 0.6 + 0j), (TERMINAL, 0.8j))
    b = ctx.make_vnode(0, (TERMINAL, 0.6 + 0j), (TERMINAL, 0.8j))
    assert a[0] is b[0]
    assert a[1] == b[1]


def test_norm_of_public_states_is_one():
    ctx = Context()
    for seed in range(10):
        assert abs(_random_dd(ctx, 6, seed).norm() - 1.0) < 1e-10


def test_subtree_norms_match_dense_blocks():
    ctx = Context()
    v = random_state(4, seed=3)
    s = ctx.from_dense(v)
    norms = subtree_norms(s.root)
    root = s.root[0]
    whole = squared_norm(s.root)
    assert abs(whole - 1.0) < 1e-12
    # the root subtree norm times its squared incoming weight is the total
    w = s.root[1]
    assert abs((w.real ** 2 + w.imag ** 2) * norms[id(root)] - whole) < 1e-12


def _reference_norms(root) -> dict[int, float]:
    """Squared norm of every reachable node's sub-vector, keyed by id, from
    one bottom-up walk over the stored weights: the walk that each node's
    cached ``norm2`` replaces."""
    norms: dict[int, float] = {}
    for bucket in reversed(levels(root)):
        for node in bucket:
            got = 0.0
            for target, w in (node.low, node.high):
                if w != 0:
                    got += (w.real * w.real + w.imag * w.imag) * \
                        (1.0 if target is TERMINAL else norms[id(target)])
            norms[id(node)] = got
    return norms


def _assert_cached_norms_are_the_reference(state):
    # Exact equality: the round planner and the pinned round records rely
    # on the cached value being the walk's to the last bit.
    ref = _reference_norms(state.root)
    for node in chain.from_iterable(levels(state.root)):
        assert node.norm2 == ref[id(node)]


@settings(max_examples=60, deadline=None)
@given(amplitudes=st.integers(1, 5).flatmap(lambda n: st.lists(
    st.one_of(_AMPLITUDE, st.complex_numbers(
        max_magnitude=2, allow_nan=False, allow_infinity=False)),
    min_size=1 << n, max_size=1 << n)))
def test_cached_norms_match_the_reference_walk(amplitudes):
    v = np.array(amplitudes, dtype=complex)
    norm = np.linalg.norm(v)
    assume(norm > 1e-6)
    _assert_cached_norms_are_the_reference(Context().from_dense(v / norm))


def test_cached_norms_match_the_reference_walk_after_rounds(monkeypatch):
    checked = []

    def checked_round(state, f_round):
        _assert_cached_norms_are_the_reference(state)
        outcome = approximate_round(state, f_round)
        _assert_cached_norms_are_the_reference(outcome.state)
        checked.append(outcome)
        return outcome

    monkeypatch.setattr(strategies, "approximate_round", checked_round)
    simulate_memory_driven(gen_supremacy(3, 4, 6, 100),
                           MemoryDrivenConfig(100, 0.95))
    assert len(checked) > 10


# -- liveness: the table holds nodes, sweeps free the dead ones -------------

def _vnodes() -> int:
    """Number of ``VNode`` objects alive in the process."""
    return sum(isinstance(obj, VNode) for obj in gc.get_objects())


def test_dropping_the_last_handle_frees_the_diagram_at_the_next_sweep():
    gc.collect()
    with collector_paused():
        ctx = Context()
        state = ctx.from_dense(random_state(5, seed=4))
        other = ctx.new_state(state.root, state.num_qubits)
        size = ctx.unique_table_size()
        assert size == state.node_count()
        alive = _vnodes()
        state.release()
        del other
        # Dead but held: the table keeps every node until the sweep.
        assert _vnodes() == alive
        assert ctx.unique_table_size() == size
        assert ctx.collect_garbage() == size
        assert _vnodes() == alive - size
        assert ctx.unique_table_size() == 0


def test_sweep_returns_the_number_of_dead_entries():
    ctx = Context()
    keep = ctx.from_dense(random_state(5, seed=9))
    drop = ctx.from_dense(random_state(5, seed=10))
    live = keep.node_count()
    dead = drop.node_count()
    assert ctx.unique_table_size() == live + dead
    drop.release()
    assert ctx.unique_table_size() == live + dead
    assert ctx.collect_garbage() == dead
    assert ctx.unique_table_size() == live
    assert ctx.collect_garbage() == 0
    ctx.check_invariants()


def test_a_dead_node_is_found_again_before_the_sweep():
    ctx = Context()
    state = ctx.from_dense(random_state(5, seed=6))
    gate = Gate("H", (2,))
    first = apply(state, gate)
    root_uid = first.root[0].uid
    next_uid = ctx._next_uid
    first.release()
    again = apply(state, gate)
    assert ctx._next_uid == next_uid
    assert again.root[0].uid == root_uid
    ctx.check_invariants()


def test_dropping_a_deep_chain_does_not_crash():
    # A sweep frees a 200,000-deep chain newest first, one node at a time.
    # Dropping a context frees its chain from inside each parent's
    # deallocation instead, as deep as the chain.  A crash in either would
    # end the interpreter, so both run in a child process.
    code = ("import gc\n"
            "from ddqsim.dd import Context, VNode\n"
            "ctx = Context()\n"
            "state = ctx.make_basis_state(200000, '0' * 200000)\n"
            "del state\n"
            "print(ctx.collect_garbage())\n"
            "ctx = Context()\n"
            "state = ctx.make_basis_state(200000, '1' * 200000)\n"
            "print(ctx.unique_table_size())\n"
            "del state, ctx\n"
            "print(sum(isinstance(o, VNode) for o in gc.get_objects()))\n")
    src = str(Path(ddqsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["200000", "200000", "0"]


def test_released_handle_prints_as_released_and_refuses_reads():
    state = Context().make_basis_state(2, "00")
    assert repr(state) == "StateDD(num_qubits=2, nodes=2)"
    state.release()
    assert repr(state) == "StateDD(num_qubits=2, released)"
    reads = (state.node_count, state.norm, state.to_dense,
             lambda: state.amplitude("00"))
    for read in reads:
        with pytest.raises(ValueError, match="released"):
            read()


def test_collect_garbage_reclaims_released_states():
    ctx = Context()
    keep = ctx.from_dense(random_state(6, seed=0))
    before = ctx.unique_table_size()
    drop = ctx.from_dense(random_state(6, seed=1))
    assert ctx.unique_table_size() > before
    drop.release()
    ctx.collect_garbage()
    assert ctx.unique_table_size() == before
    # survivor unharmed
    assert abs(keep.norm() - 1.0) < 1e-10


def test_collect_garbage_keeps_shared_structure():
    ctx = Context()
    v = random_state(5, seed=2)
    a = ctx.from_dense(v)
    b = ctx.from_dense(v)  # same diagram, second pin
    a.release()
    ctx.collect_garbage()
    assert np.abs(b.to_dense() - v).max() < 1e-12


def test_two_handles_on_one_root_pin_it_until_both_are_released():
    ctx = Context()
    v = random_state(4, seed=5)
    a = ctx.from_dense(v)
    b = ctx.new_state(a.root, a.num_qubits)
    size = ctx.unique_table_size()
    a.release()
    assert ctx.collect_garbage() == 0
    assert ctx.unique_table_size() == size
    ctx.check_invariants()
    assert np.abs(b.to_dense() - v).max() < 1e-12
    b.release()
    assert ctx.collect_garbage() == size
    assert ctx.unique_table_size() == 0


def test_collect_garbage_returns_removed_count():
    ctx = Context()
    s = ctx.make_basis_state(8, "0" * 8)
    s.release()
    assert ctx.collect_garbage() == 8
    assert ctx.unique_table_size() == 0


def test_collect_garbage_keeps_live_weight_objects():
    ctx = Context()
    s = ctx.from_dense(random_state(5, seed=9))
    ctx.from_dense(random_state(5, seed=10)).release()
    nodes = list(chain.from_iterable(levels(s.root)))
    stored = [(node.low[1], node.high[1]) for node in nodes]
    assert ctx.collect_garbage() > 0
    assert ctx.unique_table_size() == len(nodes)
    for node, (lw, hw) in zip(nodes, stored):
        assert node.low[1] is lw and node.high[1] is hw
    ctx.check_invariants()


# Cell-key components: ordinary magnitudes, exact half-way ties between two
# cells (ties round to even), and magnitudes on both sides of 2**51 * EPS,
# past which the snapped sum no longer rounds like round() and _cell falls
# back to it.
_component = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: (k + 0.5) * EPS),
    st.floats(2 ** 49 * EPS, 2 ** 54 * EPS).flatmap(
        lambda x: st.sampled_from((x, -x))),
    st.floats(-1e9, 1e9))


@given(re=_component, im=_component)
@example(re=2.5 * EPS, im=-3.5 * EPS)
@example(re=(2 ** 51 + 3) * EPS, im=-(2 ** 51 + 3) * EPS)
def test_cell_key_matches_round(re, im):
    assert _cell(complex(re, im)) == complex(round(re / EPS), round(im / EPS))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_gc_after_every_gate_matches_dense_oracle(seed):
    circ = random_circuit(5, 25, seed)
    ctx = Context()
    state = ctx.make_basis_state(5, "0" * 5)
    for gate in circ.ops:
        nxt = apply(state, gate)
        ctx.check_invariants()
        state.release()
        state = nxt
        ctx.collect_garbage()
        ctx.check_invariants()
        assert ctx.unique_table_size() == state.node_count()
    assert np.abs(state.to_dense() - dense_simulate(circ)).max() < 1e-9


def test_invariants_hold_after_fidelity_driven_run():
    ctx = Context()
    state, stats = simulate_fidelity_driven(
        gen_shor_period(15, 7), FidelityDrivenConfig(0.5, 0.9), ctx)
    assert stats.rounds  # pruning rounds ran, and their rebuilds are checked
    ctx.check_invariants()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_memory_driven_rounds_keep_invariants_and_exact_fidelity(seed):
    """A round after every gate, GC after every round, checked on the oracle."""
    circ = random_circuit(5, 40, seed)
    rng = random.Random(seed)
    gates = []
    for i, gate in enumerate(circ.ops):
        gates.append(gate)
        if i % 4 == 3:
            gates.append(random_permutation(rng, 5))
    ctx = Context()
    state = ctx.make_basis_state(5, "0" * 5)
    for gate in gates:
        nxt = apply(state, gate)
        state.release()
        before = nxt.to_dense()
        outcome = approximate_round(nxt, 0.9)
        nxt.release()
        state = outcome.state
        ctx.collect_garbage()
        ctx.check_invariants()
        after = state.to_dense()
        assert outcome.round_fidelity == pytest.approx(
            dense_fidelity(before, after), abs=1e-9)


@pytest.mark.parametrize("how", ["reachable", "key", "normalized", "phase",
                                 "non-canonical", "one level down", "norm",
                                 "order"])
def test_check_invariants_detects_corruption(how):
    ctx = Context()
    state = ctx.from_dense(random_state(4, seed=3))
    ctx.check_invariants()
    node = state.root[0]
    key = _node_key(node)
    if how == "reachable":
        # A live node's child loses its entry.
        del ctx._vtable[_node_key(node.low[0])]
    elif how == "key":
        ctx._vtable[(node.level + 1, *key[1:])] = ctx._vtable.pop(key)
    elif how == "normalized":
        del ctx._vtable[key]
        node.low_weight = node.low_weight * 0.5
        node.high_weight = node.high_weight * 0.5
        ctx._vtable[_node_key(node)] = node
    elif how == "phase":
        # The larger weight keeps magnitude 1 but turns by 0.25 rad.
        del ctx._vtable[key]
        turn = complex(np.exp(0.25j))
        node.low_weight = node.low_weight * turn
        node.high_weight = node.high_weight * turn
        ctx._vtable[_node_key(node)] = node
    elif how == "one level down":
        # Skip a level: the low edge keeps its weight but jumps two down.
        del ctx._vtable[key]
        node.low_node = node.low_node.low_node
        ctx._vtable[_node_key(node)] = node
    elif how == "norm":
        node.norm2 *= 1 + 1e-9
    elif how == "order":
        # The oldest entry moves behind the newest.
        oldest = next(iter(ctx._vtable))
        ctx._vtable[oldest] = ctx._vtable.pop(oldest)
    else:
        # Move the low weight two cells over in place; its key still names
        # the old cell.
        node.low_weight = node.low_weight + 2 * EPS
        assert _cell(node.low_weight) != key[2]
    with pytest.raises(AssertionError, match=how):
        ctx.check_invariants()


# -- bounded operation caches ----------------------------------------------

def test_bounded_cache_never_returns_wrong_value():
    cache = BoundedCache(1)  # every key collides
    cache.put(("a",), 1)
    assert cache.get(("a",)) == 1
    cache.put(("b",), 2)
    assert cache.get(("b",)) == 2
    assert cache.get(("a",)) is None  # evicted, not confused


def test_bounded_cache_requires_power_of_two():
    with pytest.raises(ValueError):
        BoundedCache(3)
    with pytest.raises(ValueError):
        BoundedCache(0)


def test_explicit_size_beats_env():
    ctx = Context(compute_table_size=64)
    assert ctx.add_cache._mask == 63
