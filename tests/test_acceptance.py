"""End-to-end acceptance suite: one verdict line per criterion.

Each test covers one observable guarantee of the package, from hand-worked
small-state regressions up to the memory-driven size cap on a 16-qubit
random grid circuit.  Every test records a single ``[PASS]``/``[FAIL]``
line, printed as an "acceptance report" section in the run's terminal
summary, and enforces its own wall-clock budget where one applies.

The suite is deterministic: every random object is drawn from a fixed seed,
so reruns produce identical verdicts.
"""
import functools
import math
import time

import numpy as np

from ddqsim.approx import node_contributions, remove_nodes
from ddqsim.circuit import (Circuit, Gate, gen_ghz, gen_qft, gen_shor_period,
                            gen_supremacy)
from ddqsim.dd import Context
from ddqsim.ops import fidelity
from ddqsim.oracle import (counting_distribution, dense_fidelity,
                           dense_simulate, shor_postprocess, truncate_dense)
from ddqsim.strategies import (FidelityDrivenConfig, MemoryDrivenConfig,
                               simulate_exact, simulate_fidelity_driven,
                               simulate_memory_driven)

from conftest import acceptance_report, random_circuit


def report(tag: str, budget: float | None = None):
    """Record one verdict line for the wrapped test, timing included."""
    def deco(fn):
        @functools.wraps(fn)
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                acceptance_report.append(
                    f"[FAIL] {tag} ({time.perf_counter() - started:.1f}s)")
                raise
            elapsed = time.perf_counter() - started
            if budget is not None and elapsed >= budget:
                acceptance_report.append(
                    f"[FAIL] {tag} ({elapsed:.1f}s, budget {budget:.0f}s)")
                raise AssertionError(
                    f"{tag}: runtime {elapsed:.1f}s exceeds {budget:.0f}s")
            acceptance_report.append(f"[PASS] {tag} ({elapsed:.1f}s)")
        return run
    return deco


@report("acceptance 1: hand-worked regression states", budget=1.0)
def test_hand_worked_regression_states():
    # Three-qubit state with known decision diagram: five nodes, amplitude
    # -1/sqrt(10) at index 3, contributions {1, .9, .8, .2, .1}.  The
    # level-0 sub-vectors (0, -1) and (0, 1) differ by a phase, so they
    # share one node, which carries .1 + .8 of the mass.
    s = 1 / math.sqrt(10)
    vec = np.array([s, 0, 0, -s, 0, 2 * s, 0, 2 * s], dtype=complex)
    ctx = Context()
    state = ctx.from_dense(vec)
    assert abs(state.amplitude("011") - (-s)) <= 1e-12
    contribs = node_contributions(state)
    assert len(contribs) == 5
    expected = sorted([1.0, 0.9, 0.8, 0.2, 0.1])
    got = sorted(contribs.values())
    assert all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))

    # Removing the contribution-0.2 node keeps exactly the two large
    # amplitudes and costs 0.2 of fidelity.
    victims = [nd for nd, c in contribs.items() if abs(c - 0.2) <= 1e-9]
    assert len(victims) == 1
    out = remove_nodes(state, victims)
    assert abs(out.round_fidelity - 0.8) <= 1e-12
    h = 1 / math.sqrt(2)
    want = np.array([0, 0, 0, 0, 0, h, 0, h], dtype=complex)
    assert np.allclose(out.state.to_dense(), want, rtol=0, atol=1e-12)

    # Hadamard then CNOT from |00> lands on the maximally entangled pair.
    bell = Circuit(2, [Gate("H", (1,)), Gate("X", (0,), controls=(1,))])
    got_bell, _ = simulate_exact(bell)
    want_bell = np.array([h, 0, 0, h], dtype=complex)
    assert np.allclose(got_bell.to_dense(), want_bell, rtol=0, atol=1e-12)

    # Fidelity of the flat two-qubit state against that pair is one half,
    # measured on the diagrams themselves.
    flat = np.full(4, 0.5, dtype=complex)
    assert abs(fidelity(ctx.from_dense(flat), ctx.from_dense(want_bell))
               - 0.5) <= 1e-12

    # Two nested truncations: round fidelities 1/2 and 1/2, end to end 1/4.
    mid, kept1 = truncate_dense(flat, np.array([True, False, False, True]))
    assert abs(kept1 - 0.5) <= 1e-12
    assert abs(dense_fidelity(flat, mid) - 0.5) <= 1e-12
    last, kept2 = truncate_dense(mid, np.array([False, False, False, True]))
    assert abs(kept2 - 0.5) <= 1e-12
    assert abs(dense_fidelity(mid, last) - 0.5) <= 1e-12
    assert abs(dense_fidelity(flat, last) - 0.25) <= 1e-12


@report("acceptance 2: truncation fidelity laws, 1000 trials", budget=30.0)
def test_truncation_fidelity_laws():
    # For a single truncation the fidelity equals the kept mass; nested
    # truncations compose multiplicatively; unitaries change neither.
    rng = np.random.default_rng(20260825)
    for trial in range(1000):
        n = 2 + trial % 7
        dim = 1 << n
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)

        keep1 = rng.random(dim) < rng.uniform(0.3, 0.9)
        keep1[int(rng.integers(dim))] = True
        phi1, kept1 = truncate_dense(psi, keep1)
        f01 = dense_fidelity(psi, phi1)
        assert abs(f01 - kept1) <= 1e-9

        keep2 = keep1 & (rng.random(dim) < 0.7)
        keep2[int(np.flatnonzero(keep1)[0])] = True
        phi2, _ = truncate_dense(phi1, keep2)
        f12 = dense_fidelity(phi1, phi2)
        f02 = dense_fidelity(psi, phi2)
        assert abs(f02 - f01 * f12) <= 1e-9

        basis = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary = np.linalg.qr(basis)[0]
        assert abs(dense_fidelity(unitary @ psi, unitary @ phi2) - f02) <= 1e-10


@report("acceptance 3: exact runs match the dense oracle", budget=60.0)
def test_exact_runs_match_dense_oracle():
    # Every circuit generator, at the largest width the dense oracle covers
    # comfortably.  Period finding for 21 needs 15 qubits, past the 12-qubit
    # cap here; it is exercised end to end in the factoring test instead.
    circuits = [
        gen_ghz(12),
        gen_qft(12),
        gen_qft(12, inverse=True),
        gen_supremacy(3, 3, 10),
        gen_shor_period(15, 7),
    ]
    for circuit in circuits:
        state, _ = simulate_exact(circuit)
        f = dense_fidelity(state.to_dense(), dense_simulate(circuit))
        assert abs(f - 1.0) <= 1e-9, f"{circuit.name}: fidelity {f}"


@report("acceptance 4: fidelity-driven guarantee, 50 random circuits",
        budget=60.0)
def test_fidelity_driven_guarantee_on_random_circuits():
    configs = [(0.5, 0.9), (0.5, 0.99), (0.8, 0.9), (0.8, 0.99)]
    for i in range(50):
        f_final, f_round = configs[i % 4]
        circuit = random_circuit(4 + i % 7, 40, seed=9000 + i)
        cfg = FidelityDrivenConfig(f_final=f_final, f_round=f_round)
        state, stats = simulate_fidelity_driven(circuit, cfg)
        f = dense_fidelity(dense_simulate(circuit), state.to_dense())
        tag = f"{circuit.name} f_final={f_final} f_round={f_round}"
        assert f >= f_final - 1e-9, f"{tag}: fidelity {f}"
        assert f >= stats.fidelity_lower_bound - 1e-9, \
            f"{tag}: fidelity {f} below bound {stats.fidelity_lower_bound}"
        assert stats.fidelity_lower_bound >= f_final - 1e-9, \
            f"{tag}: bound {stats.fidelity_lower_bound} below target"


@report("acceptance 5: factoring survives 50 percent fidelity", budget=120.0)
def test_factoring_survives_half_fidelity():
    for N, a, factors in ((15, 7, (3, 5)), (21, 2, (3, 7))):
        circuit = gen_shor_period(N, a)
        cfg = FidelityDrivenConfig(f_final=0.5, f_round=0.9)
        state, stats = simulate_fidelity_driven(circuit, cfg)
        assert stats.planned_rounds <= 6
        counting = 2 * (N - 1).bit_length()
        dist = counting_distribution(state.to_dense(), counting)
        assert shor_postprocess(dist, N, a) == factors


@report("acceptance 6: memory-driven size cap on a 16-qubit grid",
        budget=600.0)
def test_memory_driven_caps_diagram_size():
    # One exact run and two memory-driven runs over the same adversarial
    # grid circuit.  Approximation must cut the peak diagram size, and the
    # harsher per-round budget must cut size and certified fidelity further.
    circuit = gen_supremacy(4, 4, 12, seed=1)

    state, exact_stats = simulate_exact(circuit)
    exact_vec = state.to_dense()
    state.release()

    results = {}
    for f_round in (0.99, 0.95):
        cfg = MemoryDrivenConfig(threshold=500, f_round=f_round)
        state, stats = simulate_memory_driven(circuit, cfg)
        f = dense_fidelity(exact_vec, state.to_dense())
        state.release()
        assert stats.rounds, f"f_round={f_round}: no rounds fired"
        assert f >= stats.fidelity_lower_bound - 1e-9, \
            f"f_round={f_round}: fidelity {f} below bound"
        results[f_round] = stats

    assert results[0.99].max_dd_size < exact_stats.max_dd_size
    assert results[0.95].max_dd_size < exact_stats.max_dd_size
    assert results[0.95].max_dd_size <= results[0.99].max_dd_size
    assert results[0.95].fidelity_lower_bound <= results[0.99].fidelity_lower_bound


@report("acceptance 7: reruns are bit-identical")
def test_reruns_are_bit_identical():
    def strip(stats) -> dict:
        d = stats.as_dict()
        del d["wall_time_seconds"]
        return d

    runs = [
        lambda: simulate_exact(gen_ghz(10)),
        lambda: simulate_memory_driven(
            gen_supremacy(3, 3, 8, seed=5),
            MemoryDrivenConfig(threshold=50, f_round=0.9)),
        lambda: simulate_fidelity_driven(
            random_circuit(8, 60, seed=424),
            FidelityDrivenConfig(f_final=0.5, f_round=0.9)),
    ]
    for run in runs:
        state_a, stats_a = run()
        state_b, stats_b = run()
        assert strip(stats_a) == strip(stats_b)
        assert np.array_equal(state_a.to_dense(), state_b.to_dense())
