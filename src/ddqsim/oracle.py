"""Dense reference implementations used to cross-check the diagrams.

Everything here works on flat numpy vectors indexed with qubit ``n-1`` as
the most significant bit, matching the diagram convention.  The only thing
shared with the diagram engine is the circuit representation and the base
gate matrices; state evolution, truncation, fidelity and the number theory
are all recomputed from scratch so the two sides can disagree.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .circuit import Circuit, Gate, gate_matrix
from .dd import CapacityError, StateDD, TERMINAL

#: Dense simulation is refused above this qubit count.
DENSE_SIM_LIMIT = 14

#: Per-path contribution accounting is refused above this qubit count.
PATH_LIMIT = 10


def dense_simulate(circuit: Circuit) -> np.ndarray:
    """Full state-vector simulation of the circuit (small sizes only)."""
    circuit.validate()
    n = circuit.num_qubits
    if n > DENSE_SIM_LIMIT:
        raise CapacityError(
            f"refusing dense simulation of {n} qubits (limit {DENSE_SIM_LIMIT})")
    v = np.zeros(1 << n, dtype=complex)
    v[int(circuit.initial_state or "0", 2)] = 1.0
    psi = v.reshape([2] * n)
    for gate in circuit.ops:
        psi = _apply_dense(psi, gate, n)
    return psi.reshape(-1)


def _apply_dense(psi: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Contract the full controlled matrix into the state tensor."""
    qubits = list(gate.targets) + list(gate.controls)
    m = len(qubits)
    u = _controlled_matrix(gate)
    axes = [n - 1 - qubits[m - 1 - j] for j in range(m)]
    psi = np.tensordot(u.reshape([2] * (2 * m)), psi,
                       axes=(list(range(m, 2 * m)), axes))
    return np.moveaxis(psi, list(range(m)), axes)


def _controlled_matrix(gate: Gate) -> np.ndarray:
    """Dense unitary over targets (low bits) then controls (high bits)."""
    u = gate_matrix(gate)
    k = int(math.log2(u.shape[0]))
    c = len(gate.controls)
    if c == 0:
        return u
    dim = 1 << (k + c)
    out = np.eye(dim, dtype=complex)
    sel = dim - (1 << k)   # all control bits set, target bits zero
    out[sel:, sel:] = u
    return out


def dense_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>|^2 for unit-norm vectors, clamped into [0, 1]."""
    return min(1.0, float(abs(np.vdot(u, v)) ** 2))


def truncate_dense(vector: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, float]:
    """Zero the amplitudes where ``keep`` is False and renormalize.

    Returns the renormalized vector and the fidelity against the input,
    which for a plain truncation is exactly the surviving probability mass.
    """
    kept = np.where(keep, vector, 0.0)
    mass = float(np.vdot(kept, kept).real)
    total = float(np.vdot(vector, vector).real)
    if mass == 0.0:
        raise ValueError("truncation removed everything")
    return kept / math.sqrt(mass), mass / total


def basis_path_nodes(state: StateDD, index: int) -> list:
    """Diagram nodes on the unique path of basis state ``index``.

    The walk stops at a zero stub; the nodes passed until then are still
    reported, since that path's (zero) amplitude is routed through them.
    """
    nodes = []
    node, w = state._live_root()
    if w == 0:
        return nodes
    for level in range(state.num_qubits - 1, -1, -1):
        if node is TERMINAL:
            break
        nodes.append(node)
        node, w = node.high if (index >> level) & 1 else node.low
        if w == 0:
            break
    return nodes


def path_contributions(state: StateDD, amplitudes: np.ndarray) -> dict:
    """Per-node probability mass, accumulated path by path.

    Uses the diagram only for its topology; the mass comes from the given
    dense amplitudes, so this cross-checks the engine's own accounting.
    """
    n = state.num_qubits
    if n > PATH_LIMIT:
        raise CapacityError(
            f"refusing per-path accounting over {n} qubits (limit {PATH_LIMIT})")
    contrib: dict = {}
    for index in range(1 << n):
        a = amplitudes[index]
        p = a.real * a.real + a.imag * a.imag
        for node in basis_path_nodes(state, index):
            contrib[node] = contrib.get(node, 0.0) + p
    return contrib


def counting_distribution(vector: np.ndarray, num_counting: int) -> np.ndarray:
    """Marginal probabilities of the top ``num_counting`` qubits."""
    dim = vector.shape[0]
    rest = dim >> num_counting
    probs = (vector.real ** 2 + vector.imag ** 2).reshape(1 << num_counting, rest)
    return probs.sum(axis=1)


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    """Haar-ish unit vector: normalized complex Gaussian entries."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return v / np.linalg.norm(v)


def shor_postprocess(distribution: np.ndarray, N: int, a: int):
    """Factor ``N`` from a period-finding counting distribution.

    Walks measurement outcomes by descending probability; each candidate
    phase ``x / 2^m`` is converted to a period guess by continued fractions
    (plus small multiples, to recover periods whose fraction collapsed).
    Returns a sorted factor pair, or None if no outcome works.
    """
    m = int(math.log2(distribution.shape[0]))
    order = np.argsort(-distribution, kind="stable")
    for x in order:
        x = int(x)
        if x == 0 or distribution[x] <= 1e-9:
            continue
        den = Fraction(x, 1 << m).limit_denominator(N).denominator
        for mult in range(1, 5):
            r = den * mult
            if r > N:
                break
            if r % 2 or pow(a, r, N) != 1:
                continue
            half = pow(a, r // 2, N)
            if half == N - 1:
                continue
            p = math.gcd(half - 1, N)
            q = math.gcd(half + 1, N)
            if 1 < p < N and N % p == 0:
                return tuple(sorted((p, N // p)))
            if 1 < q < N and N % q == 0:
                return tuple(sorted((q, N // q)))
    return None
