"""Round planning and the exact / memory-driven / fidelity-driven drivers."""
import math
import random

import numpy as np
import pytest

from ddqsim import strategies
from ddqsim.circuit import (Circuit, Gate, gen_ghz, gen_qft, gen_shor_period,
                            gen_supremacy)
from ddqsim.dd import Context
from ddqsim.oracle import dense_fidelity, dense_simulate
from ddqsim.strategies import (FidelityDrivenConfig, MemoryDrivenConfig,
                               even_positions, marker_positions, plan_rounds,
                               simulate_exact, simulate_fidelity_driven,
                               simulate_memory_driven)

from conftest import random_circuit


# -- round planning -----------------------------------------------------------

def test_plan_rounds_known_values():
    assert plan_rounds(0.5, 0.9) == 6
    assert plan_rounds(0.99, 0.9) == 0
    assert plan_rounds(0.25, 0.5) == 2
    assert plan_rounds(1.0, 0.9) == 0
    assert plan_rounds(1.0, 1.0) == 0


def test_plan_rounds_count_law():
    for f_final in (0.3, 0.5, 0.8, 0.95):
        for f_round in (0.5, 0.9, 0.99):
            rounds = plan_rounds(f_final, f_round)
            # The budget is never exceeded and one more round would bust it.
            assert f_round ** rounds >= f_final - 1e-12
            assert f_round ** (rounds + 1) < f_final + 1e-12


def test_plan_rounds_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_rounds(0.0, 0.9)
    with pytest.raises(ValueError):
        plan_rounds(0.5, 0.0)
    with pytest.raises(ValueError):
        plan_rounds(0.5, 1.0)


def test_even_positions_spread():
    assert even_positions(100, 3) == [25, 50, 75]
    assert even_positions(10, 0) == []
    # More rounds than interior gaps: positions dedup, never 0 or num_gates.
    got = even_positions(3, 7)
    assert got == [1, 2]
    for num_gates in (1, 5, 17):
        for rounds in (1, 2, 9):
            for p in even_positions(num_gates, rounds):
                assert 0 < p < num_gates


def spread_by_loop(num_gates, rounds):
    """The per-round spread, one position per planned round."""
    raw = (math.ceil(k * num_gates / (rounds + 1))
           for k in range(1, rounds + 1))
    return sorted({p for p in raw if 0 < p < num_gates})


@pytest.mark.parametrize("num_gates", [2, 3, 7, 40])
def test_even_positions_fill_every_gap_without_a_loop(num_gates):
    g = num_gates
    for rounds in (g - 2, g - 1, g, 3 * g):
        assert even_positions(g, rounds) == spread_by_loop(g, rounds)
    # A round budget of 1e-300 at 0.9999999 plans about 7e9 rounds; the
    # answer must come at once, not after one loop step per round.
    assert even_positions(4, 10**18) == [1, 2, 3]


def test_marker_positions_capping():
    markers = [0, 3, 7, 12, 20]
    got, notes = marker_positions(markers, 20, 2)
    assert got == [3, 7]
    assert any("first 2" in n for n in notes)
    got, notes = marker_positions([4], 20, 3)
    assert got == [4]
    assert any("only 1" in n for n in notes)
    got, notes = marker_positions([5, 9], 20, 2)
    assert got == [5, 9]
    assert notes == []


# -- exact driver --------------------------------------------------------------

def test_exact_matches_oracle_and_reports_stats():
    circ = random_circuit(5, 40, seed=21)
    state, stats = simulate_exact(circ)
    assert np.allclose(state.to_dense(), dense_simulate(circ), atol=1e-10)
    assert stats.mode == "exact"
    assert stats.benchmark == circ.name
    assert stats.rounds == []
    assert stats.fidelity_lower_bound == 1.0
    assert stats.num_gates == 40
    # One trace entry per window of fused monomial gates.
    assert stats.trace_after_gate == [1, 2, 3, 7, 10, 11, 12, 13, 19, 20, 21,
                                      22, 23, 26, 27, 32, 36, 37, 40]
    assert len(stats.node_trace) == 19
    assert stats.max_dd_size == max(stats.node_trace)
    assert stats.final_dd_size == stats.node_trace[-1]
    assert stats.wall_time_seconds > 0


def test_long_parametric_circuit_stays_bounded(monkeypatch):
    collections = []
    collect = Context.collect_garbage

    def counted(ctx):
        collections.append(collect(ctx))
        return collections[-1]

    monkeypatch.setattr(Context, "collect_garbage", counted)

    # 40,000 RX gates from |0000>, each a distinct dense gate DD applied on
    # its own: the watermark must fire collections that drop the dead nodes
    # and gate DDs, though the live state never exceeds 4 nodes.
    rng = random.Random(1)
    ops = [Gate("RX", (rng.randrange(4),), angle=rng.uniform(-math.pi, math.pi))
           for _ in range(40_000)]
    ctx = Context()
    _, stats = simulate_exact(Circuit(4, ops, name="rx_chain"), ctx)
    assert len(stats.node_trace) == len(ops)
    assert stats.max_dd_size == stats.final_dd_size == 4
    assert collections
    assert ctx.unique_table_size() <= strategies.GC_WATERMARK
    assert len(ctx.gate_dds) < len(ops)

    # The same chain with RZ after an H on each qubit: RZ is monomial, so
    # the 40,000 phases fuse into windows of FUSION_GATES gates, each
    # applied in one pass, and the product state ends at 4 nodes.  One
    # sweep fires on the 1,254 windows' nodes and gate DDs.
    collections.clear()
    rng = random.Random(1)
    ops = [Gate("H", (q,)) for q in range(4)]
    ops += [Gate("RZ", (rng.randrange(4),), angle=rng.uniform(-math.pi, math.pi))
            for _ in range(40_000)]
    ctx = Context()
    state, stats = simulate_exact(Circuit(4, ops, name="rz_chain"), ctx)
    assert strategies.FUSION_GATES == 32
    assert stats.trace_after_gate == [1, 2, 3, 4] + list(range(36, len(ops) + 1, 32))
    assert stats.final_dd_size == 4
    assert collections == [4093]
    assert np.abs(state.to_dense() - dense_simulate(Circuit(4, ops))).max() < 1e-11


def test_qft_round_trip_keeps_product_states_small():
    # From an odd basis state every intermediate of the round trip is a
    # product state.  Copies of a sub-vector that differ by a phase share
    # one node, so the peak stays far below 2^13 - 1; it exceeds 13 only
    # where a weight ratio lies within rounding of a cell edge.
    n = 13
    ops = gen_qft(n).ops + gen_qft(n, inverse=True).ops
    for seed in range(20):
        index = random.Random(seed).randrange(1 << (n - 1)) * 2 + 1
        circ = Circuit(n, ops, initial_state=format(index, f"0{n}b"))
        state, stats = simulate_exact(circ)
        assert stats.max_dd_size <= 128, (seed, stats.max_dd_size)
        assert state.node_count() == n
        assert abs(abs(state.amplitude(circ.initial_state)) - 1) < 1e-9


def test_ghz_500_ends_at_999_nodes():
    # The all-zero and all-one chains are not proportional, so each of the
    # 499 levels below the root keeps two nodes.
    _, stats = simulate_exact(gen_ghz(500))
    assert stats.final_dd_size == stats.max_dd_size == 999


def uniform_superposition(n: int) -> Circuit:
    return Circuit(n, [Gate("H", (q,)) for q in range(n)], name=f"h_{n}")


@pytest.mark.parametrize("n", [87, 200])
def test_wide_uniform_superposition_keeps_unit_norm(n):
    # The root weight is 2^(-n/2), below EPS from 87 qubits on; only the
    # state's norm, not the weight, may decide that the state is zero.
    state, stats = simulate_exact(uniform_superposition(n))
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert stats.final_dd_size == n


def test_exact_empty_circuit():
    state, stats = simulate_exact(Circuit(3, [], initial_state="101"))
    assert state.amplitude("101") == 1.0
    assert stats.max_dd_size == 3


# -- memory-driven driver -------------------------------------------------------

def test_memory_high_threshold_is_exact():
    circ = random_circuit(5, 40, seed=22)
    state_e, stats_e = simulate_exact(circ)
    state_m, stats_m = simulate_memory_driven(
        circ, MemoryDrivenConfig(threshold=10 ** 6, f_round=0.9))
    assert stats_m.rounds == []
    assert stats_m.fidelity_lower_bound == 1.0
    assert np.allclose(state_m.to_dense(), state_e.to_dense(), atol=1e-12)


def test_memory_tight_threshold_fires_and_certifies():
    circ = random_circuit(7, 60, seed=23)
    state_e, stats_e = simulate_exact(circ)
    threshold = 8
    # The exact run must outgrow the threshold, or no round can fire.
    assert stats_e.max_dd_size > threshold
    cfg = MemoryDrivenConfig(threshold=threshold, f_round=0.98)
    state_m, stats_m = simulate_memory_driven(circ, cfg)
    assert len(stats_m.rounds) >= 1
    assert all(r.trigger == "threshold" for r in stats_m.rounds)
    # Every round fired on an oversized diagram and reported its own sizes.
    for r in stats_m.rounds:
        assert r.nodes_before > threshold
        assert r.nodes_after <= r.nodes_before
        assert r.round_fidelity >= 0.98 - 1e-9
    bound = stats_m.fidelity_lower_bound
    assert bound == pytest.approx(
        math.prod(r.round_fidelity for r in stats_m.rounds), abs=1e-12)
    fid = dense_fidelity(state_e.to_dense(), state_m.to_dense())
    assert fid >= bound - 1e-9


def test_memory_round_fires_every_oversized_gate():
    circ = random_circuit(6, 50, seed=24)
    cfg = MemoryDrivenConfig(threshold=8, f_round=0.95)
    _, stats = simulate_memory_driven(circ, cfg)
    # The node trace records post-round sizes; any trace entry above the
    # threshold must carry a matching round record.
    fired = {r.after_gate for r in stats.rounds}
    for i, count in enumerate(stats.node_trace, start=1):
        if count > 8:
            assert i in fired


def test_memory_identity_rounds_keep_state_exact():
    circ = random_circuit(5, 30, seed=25)
    state_e, _ = simulate_exact(circ)
    state_m, stats = simulate_memory_driven(
        circ, MemoryDrivenConfig(threshold=1, f_round=1.0))
    assert len(stats.rounds) >= 1
    assert all(r.round_fidelity == 1.0 for r in stats.rounds)
    assert all(r.nodes_after == r.nodes_before for r in stats.rounds)
    assert stats.fidelity_lower_bound == 1.0
    assert np.allclose(state_m.to_dense(), state_e.to_dense(), atol=1e-10)


def test_memory_reduces_peak_size():
    circ = random_circuit(9, 120, seed=26)
    _, stats_e = simulate_exact(circ)
    _, stats_m = simulate_memory_driven(
        circ, MemoryDrivenConfig(threshold=30, f_round=0.9))
    assert stats_m.max_dd_size < stats_e.max_dd_size


def test_memory_config_validation():
    circ = gen_ghz(3)
    with pytest.raises(ValueError):
        simulate_memory_driven(circ, MemoryDrivenConfig(threshold=0, f_round=0.9))
    with pytest.raises(ValueError):
        simulate_memory_driven(circ, MemoryDrivenConfig(threshold=5, f_round=0.0))



# (after_gate, nodes_before, nodes_after, round_fidelity) of every round of
# gen_supremacy(3, 4, 6, 100) at threshold 500 and f_round 0.99.  Near-tie
# victims depend on the order in which prefix masses of shared nodes are
# summed, but no victim of this run sits on such a near-tie, so a change to
# the order of the contribution walk can leave these records intact.  The
# memory-driven records of scripts/fingerprint.py are the check for that.
GRID_ROUNDS = [
    (65, 529, 525, 0.9908470869120796),
    (66, 554, 526, 0.9907625372180838),
    (67, 574, 546, 0.990246661577205),
    (68, 546, 536, 0.9943769870030584),
    (69, 536, 525, 0.9946020805554853),
    (70, 525, 513, 0.9904161717313039),
]


def test_memory_round_records_are_pinned():
    _, stats = simulate_memory_driven(gen_supremacy(3, 4, 6, 100),
                                      MemoryDrivenConfig(500, 0.99))
    assert len(stats.rounds) == len(GRID_ROUNDS)
    for r, (after, before, after_nodes, fid) in zip(stats.rounds, GRID_ROUNDS):
        assert (r.after_gate, r.trigger, r.nodes_before, r.nodes_after) == \
            (after, "threshold", before, after_nodes)
        assert r.round_fidelity == pytest.approx(fid, abs=1e-12)


# Seed 32 has the widest gap of gen_supremacy(3, 4, 8, s) for s = 0..39:
# the bound exceeds the realized fidelity at s = 9, 11, 30, 32, 33 and 38
# only.
@pytest.mark.xfail(strict=True, reason=(
    "the product of round fidelities is exact only for one round or nested "
    "rounds with no gates between them; here it is 0.83126 while the "
    "realized fidelity is 0.81887"))
def test_memory_bound_holds_with_gates_between_rounds():
    circ = gen_supremacy(3, 4, 8, 32)
    state, stats = simulate_memory_driven(circ, MemoryDrivenConfig(500, 0.99))
    fid = dense_fidelity(dense_simulate(circ), state.to_dense())
    assert fid >= stats.fidelity_lower_bound - 1e-9


# -- fidelity-driven driver ------------------------------------------------------

def test_fidelity_driven_meets_target():
    for seed in (31, 32, 33):
        circ = random_circuit(6, 60, seed=seed)
        state_e, _ = simulate_exact(circ)
        cfg = FidelityDrivenConfig(f_final=0.8, f_round=0.95)
        state_f, stats = simulate_fidelity_driven(circ, cfg)
        assert stats.planned_rounds == plan_rounds(0.8, 0.95)
        assert len(stats.rounds) <= stats.planned_rounds
        assert stats.fidelity_lower_bound >= 0.8 - 1e-12
        fid = dense_fidelity(state_e.to_dense(), state_f.to_dense())
        assert fid >= stats.fidelity_lower_bound - 1e-9
        assert fid >= 0.8 - 1e-9


def test_fidelity_driven_even_placement_positions():
    circ = random_circuit(5, 60, seed=34)
    cfg = FidelityDrivenConfig(f_final=0.5, f_round=0.9)
    _, stats = simulate_fidelity_driven(circ, cfg)
    want = even_positions(60, plan_rounds(0.5, 0.9))
    assert [r.after_gate for r in stats.rounds] == want
    assert all(r.trigger == "planned" for r in stats.rounds)


def test_fidelity_driven_full_target_is_exact():
    circ = random_circuit(5, 40, seed=35)
    state_e, _ = simulate_exact(circ)
    state_f, stats = simulate_fidelity_driven(
        circ, FidelityDrivenConfig(f_final=1.0, f_round=0.9))
    assert stats.planned_rounds == 0
    assert stats.rounds == []
    assert np.allclose(state_f.to_dense(), state_e.to_dense(), atol=1e-12)


def test_fidelity_driven_marker_placement():
    circ = gen_shor_period(15, 2)
    cfg = FidelityDrivenConfig(f_final=0.5, f_round=0.9, placement="markers")
    _, stats = simulate_fidelity_driven(circ, cfg)
    planned = plan_rounds(0.5, 0.9)
    fired = [r.after_gate for r in stats.rounds]
    assert fired == sorted(fired)
    assert len(fired) <= planned
    assert set(fired) <= set(circ.markers)
    assert all(r.trigger == "marker" for r in stats.rounds)
    # More markers exist than the budget allows; the cap leaves a note.
    assert any("barrier markers" in w for w in stats.warnings)


def test_fidelity_driven_ghz_rounds_remove_nothing():
    circ = gen_ghz(10)
    state_e, _ = simulate_exact(circ)
    state_f, stats = simulate_fidelity_driven(
        circ, FidelityDrivenConfig(f_final=0.5, f_round=0.9))
    assert len(stats.rounds) >= 1
    assert all(r.round_fidelity == pytest.approx(1.0, abs=1e-12)
               for r in stats.rounds)
    assert np.allclose(state_f.to_dense(), state_e.to_dense(), atol=1e-10)


def test_fidelity_driven_wide_uniform_superposition_keeps_unit_norm():
    state, stats = simulate_fidelity_driven(
        uniform_superposition(100), FidelityDrivenConfig(0.5, 0.9))
    assert stats.rounds
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert stats.final_dd_size == 100


def test_fidelity_config_validation():
    circ = gen_ghz(3)
    with pytest.raises(ValueError):
        simulate_fidelity_driven(circ, FidelityDrivenConfig(f_final=0.0, f_round=0.9))
    with pytest.raises(ValueError):
        simulate_fidelity_driven(
            circ, FidelityDrivenConfig(f_final=0.5, f_round=0.9, placement="odd"))
    with pytest.raises(ValueError):
        simulate_fidelity_driven(circ, FidelityDrivenConfig(f_final=0.5, f_round=1.0))


# -- determinism ----------------------------------------------------------------

def test_runs_are_deterministic():
    circ = random_circuit(6, 50, seed=36)
    cfg = MemoryDrivenConfig(threshold=20, f_round=0.95)
    state_a, stats_a = simulate_memory_driven(circ, cfg)
    state_b, stats_b = simulate_memory_driven(circ, cfg)
    da = stats_a.as_dict()
    db = stats_b.as_dict()
    da.pop("wall_time_seconds")
    db.pop("wall_time_seconds")
    assert da == db
    assert np.array_equal(state_a.to_dense(), state_b.to_dense())
