"""Shared helpers: seeded random circuits and gates, and the acceptance report.

Sweeps draw everything from ``random.Random(seed)`` so every run sees the
same instances; there is no test-order or wall-clock dependence.

The acceptance tests append one verdict line each to ``acceptance_report``;
a terminal-summary section prints them at the end of the run, outside
pytest's output capture.

OpenBLAS runs single-threaded for the whole session.  Acceptance 2 makes
1,000 small QR factorizations under a wall-clock budget, and OpenBLAS's
worker threads spin against any other busy process on a small machine: beside
one busy loop on two cores the test took 10.6 s with the default threads and
3.0 s with one.  OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when NumPy
loads it, so the variable is set here, before any test module imports NumPy;
``tests/test_oracle.py`` checks that it took effect.
"""
import math
import os
import random

import pytest

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from ddqsim.circuit import Circuit, Gate  # noqa: E402

acceptance_report: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance report")
        for line in acceptance_report:
            terminalreporter.write_line(line)

_PLAIN = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG", "SQRTX", "SQRTY")
_ANGLED = ("RX", "RY", "RZ", "PHASE")


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Mixed gate soup: plain, rotations, controlled gates, swaps."""
    rng = random.Random(seed)
    ops = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.45 or num_qubits < 2:
            ops.append(Gate(rng.choice(_PLAIN), (rng.randrange(num_qubits),)))
        elif roll < 0.65:
            ops.append(Gate(rng.choice(_ANGLED), (rng.randrange(num_qubits),),
                            angle=rng.uniform(-math.pi, math.pi)))
        elif roll < 0.9:
            t, c = rng.sample(range(num_qubits), 2)
            kind = rng.choice(("X", "Z", "PHASE"))
            angle = rng.uniform(-math.pi, math.pi) if kind == "PHASE" else None
            ops.append(Gate(kind, (t,), controls=(c,), angle=angle))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            ops.append(Gate("SWAP", tuple(sorted((a, b)))))
    return Circuit(num_qubits, ops, name=f"random_{num_qubits}q_s{seed}")


def random_permutation(rng: random.Random, num_qubits: int) -> Gate:
    """A PERMUTATION on two or three targets with one control."""
    qubits = rng.sample(range(num_qubits), rng.choice((3, 4)))
    targets = tuple(sorted(qubits[1:]))
    table = list(range(1 << len(targets)))
    rng.shuffle(table)
    return Gate("PERMUTATION", targets, controls=(qubits[0],),
                table=tuple(table))


@pytest.fixture
def make_random_circuit():
    return random_circuit
