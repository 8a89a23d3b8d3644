"""The dense reference implementations themselves."""
import ctypes
import glob
import math
import os

import numpy as np
import pytest

from ddqsim.circuit import Circuit, Gate, gen_ghz
from ddqsim.dd import CapacityError, Context
from ddqsim.oracle import (_controlled_matrix, basis_path_nodes,
                           counting_distribution, dense_fidelity,
                           dense_simulate, path_contributions, random_state,
                           shor_postprocess, truncate_dense)


def test_openblas_runs_single_threaded():
    # tests/conftest.py sets OPENBLAS_NUM_THREADS=1 before NumPy loads, so
    # timed dense tests are not slowed by BLAS threads spinning under load.
    # Ask the loaded library itself, through the thread-count getter that
    # NumPy's wheels export under one of a few names.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    getters = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in getters:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                assert getter() == 1, "NumPy was imported before conftest.py"
                return
    pytest.skip("NumPy's bundled OpenBLAS was not found")


def test_dense_simulate_bell():
    circ = Circuit(2, [Gate("H", (1,)), Gate("X", (0,), controls=(1,))])
    vec = dense_simulate(circ)
    want = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert np.allclose(vec, want, atol=1e-12)


def test_dense_simulate_initial_state():
    circ = Circuit(3, [], initial_state="110")
    vec = dense_simulate(circ)
    assert vec[0b110] == 1.0
    assert np.count_nonzero(vec) == 1


def test_dense_simulate_refuses_large():
    with pytest.raises(CapacityError):
        dense_simulate(Circuit(15, []))


def test_controlled_matrix_layout():
    cx = _controlled_matrix(Gate("X", (0,), controls=(1,)))
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = [[0, 1], [1, 0]]
    assert np.array_equal(cx, want)
    ccz = _controlled_matrix(Gate("Z", (0,), controls=(1, 2)))
    assert ccz.shape == (8, 8)
    assert ccz[7, 7] == -1
    assert np.array_equal(ccz[:7, :7], np.eye(7))


def test_dense_fidelity_known_values():
    u = np.array([1, 0, 0, 1]) / math.sqrt(2)
    v = np.array([1, 1, 1, 1]) / 2.0
    assert dense_fidelity(u, v) == pytest.approx(0.5, abs=1e-12)
    assert dense_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert dense_fidelity(u, 1j * u) == pytest.approx(1.0, abs=1e-12)


def test_truncate_dense_accounting():
    vec = random_state(4, 8)
    keep = np.abs(vec) > np.median(np.abs(vec))
    out, kept_fraction = truncate_dense(vec, keep)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    assert kept_fraction == pytest.approx(
        float(np.sum(np.abs(vec[keep]) ** 2)), abs=1e-12)
    assert np.all(out[~keep] == 0)
    # Fidelity against the source equals the surviving mass.
    assert dense_fidelity(vec, out) == pytest.approx(kept_fraction, abs=1e-12)
    with pytest.raises(ValueError):
        truncate_dense(vec, np.zeros(16, dtype=bool))


def test_basis_path_nodes_walks_one_path():
    ctx = Context()
    state = ctx.make_basis_state(4, "0101")
    path = basis_path_nodes(state, 0b0101)
    assert len(path) == 4
    assert [nd.level for nd in path] == [3, 2, 1, 0]
    # A path that leaves the support stops at its zero stub.  Index 0 agrees
    # with the state on the top bit, so it reaches the level-2 node before
    # the mismatch there ends the walk.
    assert len(basis_path_nodes(state, 0b0000)) == 2


def test_path_contributions_root_carries_everything():
    ctx = Context()
    vec = random_state(5, 17)
    state = ctx.from_dense(vec)
    contrib = path_contributions(state, vec)
    assert contrib[state.root[0]] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(CapacityError):
        path_contributions(ctx.make_basis_state(11, "0" * 11),
                           np.zeros(1 << 11))


def test_counting_distribution_marginals():
    # Two counting qubits on top of one work qubit.
    vec = np.array([0.5, 0.5, 0.5, 0, 0, 0, 0, 0.5], dtype=complex)
    dist = counting_distribution(vec, 2)
    assert dist == pytest.approx([0.5, 0.25, 0.0, 0.25])
    assert dist.sum() == pytest.approx(1.0)


def test_random_state_seeded():
    a = random_state(6, 3)
    b = random_state(6, 3)
    c = random_state(6, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_shor_postprocess_recovers_factors():
    # Ideal period-4 distribution for a = 7 mod 15 over 8 counting qubits:
    # peaks at multiples of 256/4.
    dist = np.zeros(256)
    dist[[0, 64, 128, 192]] = 0.25
    assert shor_postprocess(dist, 15, 7) == (3, 5)

    # Period 6 for a = 2 mod 21: peaks at the rounded multiples of 256/6.
    dist = np.zeros(256)
    dist[[0, 43, 85, 128, 171, 213]] = 1 / 6
    assert shor_postprocess(dist, 21, 2) == (3, 7)


def test_shor_postprocess_gives_up_without_signal():
    dist = np.zeros(256)
    dist[0] = 1.0
    assert shor_postprocess(dist, 15, 7) is None


def test_ghz_contributions_split_between_branches():
    ctx = Context()
    circ = gen_ghz(6)
    vec = dense_simulate(circ)
    state = ctx.from_dense(vec)
    contrib = path_contributions(state, vec)
    values = sorted(contrib.values())
    # Root carries 1; every deeper level splits into two half-mass branches.
    assert values[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(0.5, abs=1e-12) for v in values[:-1])
