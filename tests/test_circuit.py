"""Circuit validation, the QASM subset, and the benchmark generators."""
import math
import random

import numpy as np
import pytest

from ddqsim.circuit import (ANGLE_KINDS, FIXED_KINDS, Circuit, Gate,
                            QasmParseError, gate_entries, gate_matrix,
                            gen_ghz, gen_qft,
                            gen_shor_period, gen_supremacy, parse_qasm,
                            to_qasm)
from ddqsim.oracle import dense_simulate

from conftest import random_circuit


# -- gate matrices ----------------------------------------------------------

def test_gate_matrices_are_unitary():
    gates = [Gate(k, (0,)) for k in FIXED_KINDS if k != "SWAP"]
    gates += [Gate(k, (0,), angle=0.7) for k in ANGLE_KINDS]
    gates.append(Gate("SWAP", (0, 1)))
    gates.append(Gate("PERMUTATION", (0, 1), table=(2, 0, 3, 1)))
    for gate in gates:
        u = gate_matrix(gate)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)


def _numpy_gate_matrix(gate: Gate) -> np.ndarray:
    """The dense numpy formulas that once built every gate matrix; kept here
    only as the reference that :func:`gate_entries` must reproduce."""
    sq2 = 1.0 / math.sqrt(2.0)
    a_ = 0.5 + 0.5j
    fixed = {
        "H": np.array([[sq2, sq2], [sq2, -sq2]], dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        "S": np.array([[1, 0], [0, 1j]], dtype=complex),
        "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
        "T": np.array([[1, 0], [0, np.exp(0.25j * math.pi)]], dtype=complex),
        "TDG": np.array([[1, 0], [0, np.exp(-0.25j * math.pi)]], dtype=complex),
        "SQRTX": np.array([[a_, a_.conjugate()], [a_.conjugate(), a_]],
                          dtype=complex),
        "SQRTY": np.array([[a_, -a_], [a_, a_]], dtype=complex),
        "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                          [0, 0, 0, 1]], dtype=complex),
    }
    k = gate.kind
    if k in fixed:
        return fixed[k]
    a = gate.angle
    if k == "RX":
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k == "RY":
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k == "RZ":
        return np.array([[np.exp(-0.5j * a), 0], [0, np.exp(0.5j * a)]],
                        dtype=complex)
    if k == "PHASE":
        return np.array([[1, 0], [0, np.exp(1j * a)]], dtype=complex)
    dim = 1 << len(gate.targets)
    m = np.zeros((dim, dim), dtype=complex)
    for col, row in enumerate(gate.table):
        m[row, col] = 1.0
    return m


def _reference_gates():
    """Every fixed kind, each angle kind at 2,000 seeded angles plus edge
    angles, and seeded permutations on one to four targets."""
    gates = [Gate(k, (0, 1) if k == "SWAP" else (0,)) for k in FIXED_KINDS]
    rng = random.Random(1707)
    edges = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi,
             4 * math.pi, 1e-300, 5e-324, 1e10, -1e17]
    for k in ANGLE_KINDS:
        angles = edges + [rng.uniform(-4 * math.pi, 4 * math.pi)
                          for _ in range(2000)]
        gates += [Gate(k, (0,), angle=a) for a in angles]
    for k in (1, 2, 3, 4):
        for _ in range(5):
            table = list(range(1 << k))
            rng.shuffle(table)
            gates.append(Gate("PERMUTATION", tuple(range(k)),
                              table=tuple(table)))
    return gates


def test_gate_entries_match_the_numpy_formulas_bit_for_bit():
    # repr tells signed zeros and last-bit differences apart; the order is
    # numpy's nonzero order, row-major.
    for gate in _reference_gates():
        u = _numpy_gate_matrix(gate)
        want = [((int(r), int(c)), complex(u[r, c])) for r, c in zip(*u.nonzero())]
        assert repr(list(gate_entries(gate).items())) == repr(want), gate


def test_gate_matrix_is_a_dense_complex_view_of_the_entries():
    gates = _reference_gates()
    for gate in gates[:40] + gates[-20:]:
        u = gate_matrix(gate)
        dim = 1 << len(gate.targets)
        assert u.dtype == np.complex128
        assert u.shape == (dim, dim)
        assert np.array_equal(u, _numpy_gate_matrix(gate))
    u = gate_matrix(Gate("RX", (0,), angle=0.0))
    assert u.shape == (2, 2) and np.array_equal(u, np.eye(2))


def test_gate_entries_reject_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_entries(Gate("Q", (0,)))


def test_permutation_matrix_places_columns():
    u = gate_matrix(Gate("PERMUTATION", (0, 1), table=(1, 2, 3, 0)))
    for col, row in enumerate((1, 2, 3, 0)):
        assert u[row, col] == 1.0


# -- circuit validation ------------------------------------------------------

def test_validate_rejects_malformed_circuits():
    bad = [
        Circuit(0),
        Circuit(2, [Gate("Q", (0,))]),
        Circuit(2, [Gate("X", (0,), controls=(0,))]),
        Circuit(2, [Gate("X", (2,))]),
        Circuit(2, [Gate("RX", (0,))]),                      # missing angle
        Circuit(2, [Gate("X", (0,), angle=1.0)]),            # stray angle
        Circuit(2, [Gate("RZ", (0,), angle=math.inf)]),
        Circuit(2, [Gate("RZ", (0,), angle=math.nan)]),
        Circuit(2, [Gate("RZ", (0,), angle=1 + 1j)]),          # complex angle
        Circuit(2, [Gate("SWAP", (0,))]),
        Circuit(2, [Gate("PERMUTATION", (1, 0), table=(0, 1, 2, 3))]),
        Circuit(2, [Gate("PERMUTATION", (0, 1), table=(0, 0, 2, 3))]),
        Circuit(2, [Gate("X", (0,), table=(1, 0))]),
        Circuit(2, initial_state="0"),
        Circuit(2, initial_state="02"),
        Circuit(2, [Gate("X", (0,))], markers=[5]),
    ]
    for circ in bad:
        with pytest.raises(ValueError):
            circ.validate()


def test_validate_accepts_well_formed():
    circ = random_circuit(4, 30, seed=0)
    circ.markers = [0, 10, 30]
    circ.initial_state = "0101"
    circ.validate()


# -- QASM parsing ------------------------------------------------------------

GOOD_QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
t q[1]; tdg q[2];
rx(pi/2) q[0];
p(3*pi/4) q[1];
cx q[0],q[1];
cz q[1],q[2];
cp(-pi/8) q[0],q[2];
barrier q;
ccx q[0],q[1],q[2];
swap q[2],q[0];
measure q[0] -> c[0];
"""


def test_parse_supported_subset():
    with pytest.warns(UserWarning, match="measure"):
        circ = parse_qasm(GOOD_QASM, name="good")
    assert circ.num_qubits == 3
    assert circ.name == "good"
    kinds = [g.kind for g in circ.ops]
    assert kinds == ["H", "T", "TDG", "RX", "PHASE", "X", "Z", "PHASE", "X", "SWAP"]
    assert circ.ops[3].angle == pytest.approx(math.pi / 2)
    assert circ.ops[4].angle == pytest.approx(3 * math.pi / 4)
    assert circ.ops[5] == Gate("X", (1,), controls=(0,))
    assert circ.ops[7] == Gate("PHASE", (2,), controls=(0,), angle=-math.pi / 8)
    assert circ.ops[8] == Gate("X", (2,), controls=(0, 1))
    assert circ.ops[9] == Gate("SWAP", (0, 2))
    assert circ.markers == [8]


def test_parse_comments_and_whitespace():
    src = "OPENQASM 2.0;\n// a comment\nqreg q[1];\nh // trailing\n q[0];\n"
    circ = parse_qasm(src)
    assert [g.kind for g in circ.ops] == ["H"]


@pytest.mark.parametrize("src, fragment, line", [
    ("OPENQASM 3.0;\nqreg q[1];", "version", 1),
    ("qreg q[0];", "size", 1),
    ("qreg q[1];\nqreg r[1];", "one qreg", 2),
    ("h q[0];", "before qreg", 1),
    ("qreg q[1];\nfrobnicate q[0];", "unknown gate", 2),
    ("qreg q[1];\nu3(1,2,3) q[0];", "unsupported", 2),
    ("qreg q[1];\nif (c==0) h q[0];", "unsupported", 2),
    ("qreg q[2];\nh q;", "indexed", 2),
    ("qreg q[2];\nh r[0];", "unknown register", 2),
    ("qreg q[2];\nh q[5];", "outside register", 2),
    ("qreg q[2];\ncx q[1],q[1];", "distinct", 2),
    ("qreg q[1];\nrx q[0];", "requires an angle", 2),
    ("qreg q[1];\nh(0.5) q[0];", "takes no angle", 2),
    ("qreg q[1];\nrx(pi/0x) q[0];", "malformed angle", 2),
    ("qreg q[1];\nrx(exp(1)) q[0];", "unsupported angle", 2),
    ("qreg q[1];\nrz(1/0) q[0];", "not a finite real", 2),
    ("qreg q[1];\nrx(0^-1) q[0];", "not a finite real", 2),
    ("qreg q[1];\nrz(10^400) q[0];", "not a finite real", 2),
    ("qreg q[1];\nrz(1e308*10) q[0];", "not a finite real", 2),
    ("qreg q[1];\nh q[0];\nrz((-8)^(1/3)) q[0];", "not a finite real", 3),
    ("qreg q[1];\nh q[0]", "';'", 2),
    ("qreg q[1];\ngate foo a { h a; }", "not supported", 2),
])
def test_parse_errors_carry_position(src, fragment, line):
    with pytest.raises(QasmParseError) as err:
        parse_qasm(src)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_missing_qreg():
    with pytest.raises(QasmParseError, match="no qreg"):
        parse_qasm("OPENQASM 2.0;")


def test_angle_expressions():
    circ = parse_qasm("qreg q[1];\nrz(-pi) q[0];\nrz(2^3) q[0];\nrz(1-0.5) q[0];")
    assert [g.angle for g in circ.ops] == [pytest.approx(-math.pi), 8.0, 0.5]


# -- QASM writing ------------------------------------------------------------

def test_qasm_round_trip_preserves_ops():
    soup = random_circuit(5, 80, seed=4)
    # SQRTX/SQRTY have no QASM spelling; round-trip everything else.
    ops = [g for g in soup.ops if g.kind not in ("SQRTX", "SQRTY")]
    circ = Circuit(5, ops, markers=[0, 5, len(ops)])
    parsed = parse_qasm(to_qasm(circ))
    assert parsed.ops == circ.ops
    assert parsed.markers == circ.markers


def test_qasm_round_trip_simple():
    circ = Circuit(3, [Gate("H", (0,)),
                       Gate("PHASE", (1,), controls=(0,), angle=0.25),
                       Gate("SWAP", (1, 2))],
                   initial_state="101", markers=[1])
    parsed = parse_qasm(to_qasm(circ))
    # The initial state becomes a layer of X gates.
    assert parsed.ops[:2] == [Gate("X", (0,)), Gate("X", (2,))]
    assert parsed.ops[2:] == circ.ops
    assert parsed.markers == [3]


def test_to_qasm_rejects_unrepresentable():
    with pytest.raises(ValueError):
        to_qasm(Circuit(1, [Gate("SQRTX", (0,))]))
    with pytest.raises(ValueError):
        to_qasm(Circuit(2, [Gate("PERMUTATION", (0, 1), table=(1, 0, 2, 3))]))
    with pytest.raises(ValueError):
        to_qasm(Circuit(2, [Gate("Y", (0,), controls=(1,))]))


# -- generators ---------------------------------------------------------------

def test_ghz_generator():
    circ = gen_ghz(4)
    assert circ.name == "ghz_4"
    vec = dense_simulate(circ)
    want = np.zeros(16, dtype=complex)
    want[0] = want[15] = 1 / math.sqrt(2)
    assert np.allclose(vec, want, atol=1e-12)
    with pytest.raises(ValueError):
        gen_ghz(1)


def test_qft_matches_fourier_matrix():
    n = 4
    dim = 1 << n
    circ = gen_qft(n)
    cols = []
    for x in range(dim):
        circ.initial_state = format(x, f"0{n}b")
        cols.append(dense_simulate(circ))
    got = np.stack(cols, axis=1)
    y, x = np.mgrid[0:dim, 0:dim]
    want = np.exp(2j * math.pi * x * y / dim) / math.sqrt(dim)
    assert np.allclose(got, want, atol=1e-10)


def test_inverse_qft_inverts():
    n = 5
    circ = gen_qft(n)
    inv = gen_qft(n, inverse=True)
    assert inv.name == "qftinv_5"
    combined = Circuit(n, circ.ops + inv.ops, initial_state="01011")
    vec = dense_simulate(combined)
    want = np.zeros(1 << n, dtype=complex)
    want[0b01011] = 1.0
    assert np.allclose(vec, want, atol=1e-10)


def test_supremacy_structure():
    circ = gen_supremacy(3, 3, 8, seed=2)
    assert circ.num_qubits == 9
    assert circ.name == "supremacy_3x3_8"
    # Initial Hadamard layer on every qubit.
    assert [g.kind for g in circ.ops[:9]] == ["H"] * 9
    # Determinism per seed, variation across seeds.
    assert gen_supremacy(3, 3, 8, seed=2).ops == circ.ops
    assert gen_supremacy(3, 3, 8, seed=3).ops != circ.ops
    # CZ gates connect grid neighbours only.
    for g in circ.ops[9:]:
        if g.controls:
            assert g.kind == "Z"
            a, b = g.controls[0], g.targets[0]
            ax, ay = divmod(a, 3)
            bx, by = divmod(b, 3)
            assert abs(ax - bx) + abs(ay - by) == 1
    # Single-qubit cycle gates never repeat immediately on the same qubit.
    last = {}
    for g in circ.ops[9:]:
        if not g.controls:
            q = g.targets[0]
            assert last.get(q) != g.kind
            last[q] = g.kind
    # First cycle gate on any qubit is a T.
    first = {}
    for g in circ.ops[9:]:
        if not g.controls and g.targets[0] not in first:
            first[g.targets[0]] = g.kind
    assert set(first.values()) == {"T"}


def test_supremacy_depth_zero_and_bounds():
    circ = gen_supremacy(2, 2, 0)
    assert [g.kind for g in circ.ops] == ["H"] * 4
    with pytest.raises(ValueError):
        gen_supremacy(0, 3, 1)
    with pytest.raises(ValueError):
        gen_supremacy(6, 5, 1)
    with pytest.raises(ValueError):
        gen_supremacy(2, 2, -1)


def test_shor_period_structure():
    circ = gen_shor_period(15, 7)
    n = 4          # work register for values mod 15
    m = 8          # counting register
    assert circ.num_qubits == n + m
    assert circ.name == "shor_15_7"
    assert circ.initial_state == "0" * (n + m - 1) + "1"
    # Hadamard layer on the counting register.
    heads = circ.ops[:m]
    assert all(g.kind == "H" and g.targets[0] >= n for g in heads)
    # One controlled modular multiplication per counting qubit.
    mults = [g for g in circ.ops if g.kind == "PERMUTATION"]
    assert len(mults) == m
    for j, g in enumerate(mults):
        assert g.controls == (n + j,)
        mult = pow(7, 1 << j, 15)
        for x in range(15):
            assert g.table[x] == (mult * x) % 15
        assert g.table[15] == 15
    # Markers sit after every multiplication and inside the inverse QFT.
    assert len(circ.markers) == m + (m - 1)
    assert circ.markers == sorted(circ.markers)


def test_shor_period_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gen_shor_period(16, 3)       # even
    with pytest.raises(ValueError):
        gen_shor_period(13, 2)       # prime
    with pytest.raises(ValueError):
        gen_shor_period(15, 6)       # shares a factor
    with pytest.raises(ValueError):
        gen_shor_period(15, 1)
    with pytest.raises(ValueError):
        gen_shor_period(121, 3)      # exceeds the supported modulus
