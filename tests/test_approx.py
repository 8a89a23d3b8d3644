"""Node contributions, removal rounds, and their exact fidelity accounting."""
import math

import numpy as np
import pytest

from ddqsim.approx import approximate_round, node_contributions, remove_nodes
from ddqsim.dd import CapacityError, Context, TERMINAL
from ddqsim.oracle import (dense_fidelity, path_contributions, random_state,
                           truncate_dense)

from conftest import random_circuit
from ddqsim.ops import apply


def evolved_state(ctx, num_qubits, num_gates, seed):
    state = ctx.make_basis_state(num_qubits, "0" * num_qubits)
    for gate in random_circuit(num_qubits, num_gates, seed).ops:
        state = apply(state, gate)
    return state


def test_contributions_sum_to_one_per_level():
    ctx = Context()
    for seed in range(8):
        n = 3 + seed % 4
        state = ctx.from_dense(random_state(n, seed))
        contrib = node_contributions(state)
        by_level: dict[int, float] = {}
        for node, mass in contrib.items():
            by_level[node.level] = by_level.get(node.level, 0.0) + mass
        assert set(by_level) == set(range(n))
        for level_sum in by_level.values():
            assert level_sum == pytest.approx(1.0, abs=1e-10)


def test_contributions_match_path_oracle():
    ctx = Context()
    for seed in range(8):
        n = 3 + seed % 3
        state = ctx.from_dense(random_state(n, 40 + seed))
        want = path_contributions(state, state.to_dense())
        got = node_contributions(state)
        assert len(got) == len(want)
        for node, mass in got.items():
            assert mass == pytest.approx(want[node], abs=1e-10)


def test_contributions_on_product_state():
    # |+>|0>: both nodes carry all the mass.
    ctx = Context()
    state = ctx.from_dense(np.array([1, 0, 1, 0]) / math.sqrt(2))
    contrib = node_contributions(state)
    assert sorted(contrib.values()) == pytest.approx([1.0, 1.0])


def test_remove_nodes_matches_dense_truncation():
    ctx = Context()
    for seed in range(6):
        n = 4
        state = ctx.from_dense(random_state(n, 60 + seed))
        contrib = node_contributions(state)
        # Pick the two cheapest non-root nodes as victims.
        victims = sorted(
            (nd for nd in contrib if nd is not state.root[0]),
            key=lambda nd: contrib[nd])[:2]
        outcome = remove_nodes(state, victims)

        # Dense reference: zero every basis state whose path runs through a
        # victim, then renormalize.
        victim_ids = {id(v) for v in victims}
        keep = np.ones(1 << n, dtype=bool)
        for index in range(1 << n):
            node, w = state.root
            for level in range(n - 1, -1, -1):
                if w == 0 or node is TERMINAL:
                    break
                if id(node) in victim_ids:
                    keep[index] = False
                    break
                node, w = node.high if (index >> level) & 1 else node.low
        want, kept_fraction = truncate_dense(state.to_dense(), keep)
        got = outcome.state.to_dense()
        # Global phase is fixed by construction: surviving amplitudes are
        # rescaled by a positive real.
        assert np.allclose(got, want, atol=1e-10)
        assert outcome.round_fidelity == pytest.approx(kept_fraction, abs=1e-12)
        assert outcome.state.norm() == pytest.approx(1.0, abs=1e-12)


def test_remove_nothing_is_identity():
    ctx = Context()
    state = ctx.from_dense(random_state(4, 5))
    outcome = remove_nodes(state, [])
    assert outcome.round_fidelity == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(outcome.state.to_dense(), state.to_dense(), atol=1e-12)
    assert state.node_count() == outcome.nodes_after


def test_deep_rebuild_is_a_capacity_error():
    state = Context().make_basis_state(1200, "0" * 1200)
    with pytest.raises(CapacityError):
        remove_nodes(state, [])


def test_remove_root_rejected():
    ctx = Context()
    state = ctx.from_dense(random_state(3, 1))
    with pytest.raises(ValueError):
        remove_nodes(state, [state.root[0]])


def test_remove_everything_rejected():
    ctx = Context()
    state = ctx.from_dense(random_state(3, 2))
    victims = [nd for nd in node_contributions(state) if nd is not state.root[0]
               and nd.level == 1]
    with pytest.raises(ValueError):
        remove_nodes(state, victims)


def test_round_fidelity_respects_budget():
    ctx = Context()
    for seed in range(20):
        n = 4 + seed % 4
        state = evolved_state(ctx, n, 25, seed)
        before = state.to_dense()
        for f_round in (0.9, 0.99, 0.999):
            outcome = approximate_round(state, f_round)
            assert outcome.round_fidelity >= f_round - 1e-9
            # The reported fidelity is exact, not a bound.
            realized = dense_fidelity(before, outcome.state.to_dense())
            assert realized == pytest.approx(outcome.round_fidelity, abs=1e-10)


def test_round_with_full_fidelity_removes_nothing():
    ctx = Context()
    state = evolved_state(ctx, 5, 20, seed=3)
    outcome = approximate_round(state, 1.0)
    assert outcome.round_fidelity == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(outcome.state.to_dense(), state.to_dense(), atol=1e-12)


def test_round_keeps_unit_norm():
    ctx = Context()
    state = evolved_state(ctx, 6, 30, seed=11)
    outcome = approximate_round(state, 0.9)
    assert outcome.state.norm() == pytest.approx(1.0, abs=1e-12)
    assert outcome.nodes_after <= state.node_count()
    assert outcome.removed_mass == pytest.approx(
        1.0 - outcome.round_fidelity, abs=1e-12)


def test_round_rejects_bad_f_round():
    ctx = Context()
    state = ctx.make_basis_state(2, "00")
    with pytest.raises(ValueError):
        approximate_round(state, 0.0)
    with pytest.raises(ValueError):
        approximate_round(state, 1.5)


def test_balanced_state_survives_aggressive_round():
    # A GHZ-like state has no node below half the mass, so even a deep
    # budget removes nothing and the round reports fidelity 1.
    ctx = Context()
    vec = np.zeros(16, dtype=complex)
    vec[0] = vec[15] = 1 / math.sqrt(2)
    state = ctx.from_dense(vec)
    outcome = approximate_round(state, 0.9)
    assert outcome.round_fidelity == pytest.approx(1.0, abs=1e-12)
    assert outcome.nodes_after == state.node_count()
