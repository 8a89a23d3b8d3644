"""Circuit representation, an OpenQASM 2 subset parser, and benchmark generators.

A :class:`Circuit` is a flat gate list over ``num_qubits`` qubits starting
from a computational basis state.  Gates are stored controls-out: ``cx`` is
an ``X`` with one control, ``ccx`` an ``X`` with two, so the simulator only
needs base single-target matrices plus SWAP and PERMUTATION.  The simulator
reads them as sparse entries from :func:`gate_entries`, built with
:mod:`math` and :mod:`cmath`; only the dense view :func:`gate_matrix`, which
the oracle and the tests use, imports numpy.  ``markers``
records barrier positions as "number of gates before the barrier"; the
fidelity-driven scheduler can use them as approximation points.

Bit convention everywhere: qubit ``n-1`` is the most significant bit of a
basis index, matching bitstrings written ``b_{n-1}...b_0``.
"""
from __future__ import annotations

import ast
import cmath
import math
import numbers
import random
import re
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Gate kinds whose matrix takes no parameter.
FIXED_KINDS = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG", "SQRTX", "SQRTY", "SWAP")
#: Gate kinds parameterized by one angle.
ANGLE_KINDS = ("RX", "RY", "RZ", "PHASE")

_SQ2 = 1.0 / math.sqrt(2.0)
_A = 0.5 + 0.5j   # (1+i)/2, the recurring square-root-gate entry


@dataclass(frozen=True)
class Gate:
    """One gate: a base operation on ``targets`` plus optional controls.

    ``targets`` must be strictly ascending for multi-target kinds; the bit
    ``b`` of a local basis index then belongs to ``targets[b]``.  For
    PERMUTATION, ``table[i]`` is the image of local basis state ``i`` and
    must be a permutation of ``range(2**len(targets))``.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None
    table: tuple[int, ...] | None = None

    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


@dataclass
class Circuit:
    num_qubits: int
    ops: list[Gate] = field(default_factory=list)
    initial_state: str | None = None
    markers: list[int] = field(default_factory=list)
    name: str = ""

    def validate(self) -> None:
        """Raise ValueError on out-of-range qubits or malformed gates."""
        n = self.num_qubits
        if n < 1:
            raise ValueError("circuit needs at least one qubit")
        if self.initial_state is not None:
            if len(self.initial_state) != n or set(self.initial_state) - {"0", "1"}:
                raise ValueError("initial_state must be a bitstring of length num_qubits")
        allowed = set(FIXED_KINDS) | set(ANGLE_KINDS) | {"PERMUTATION"}
        for g in self.ops:
            if g.kind not in allowed:
                raise ValueError(f"unknown gate kind {g.kind!r}")
            qs = g.qubits()
            if len(set(qs)) != len(qs):
                raise ValueError(f"gate {g.kind} reuses a qubit: {qs}")
            if any(q < 0 or q >= n for q in qs):
                raise ValueError(f"gate {g.kind} addresses a qubit outside 0..{n - 1}")
            if g.kind in ANGLE_KINDS:
                if g.angle is None:
                    raise ValueError(f"{g.kind} requires an angle")
                if not isinstance(g.angle, numbers.Real) or not math.isfinite(g.angle):
                    raise ValueError(f"{g.kind} angle must be a finite real "
                                     f"number, got {g.angle!r}")
            elif g.angle is not None:
                raise ValueError(f"{g.kind} takes no angle")
            if g.kind == "PERMUTATION":
                k = len(g.targets)
                if g.targets != tuple(sorted(g.targets)):
                    raise ValueError("PERMUTATION targets must be ascending")
                if g.table is None or sorted(g.table) != list(range(1 << k)):
                    raise ValueError("PERMUTATION table must be a permutation of the local indices")
            elif g.table is not None:
                raise ValueError(f"{g.kind} takes no table")
            if g.kind == "SWAP" and len(g.targets) != 2:
                raise ValueError("SWAP takes exactly two targets")
            if g.kind in FIXED_KINDS + ANGLE_KINDS and g.kind != "SWAP" and len(g.targets) != 1:
                raise ValueError(f"{g.kind} takes exactly one target")
        for m in self.markers:
            if m < 0 or m > len(self.ops):
                raise ValueError(f"marker {m} outside 0..{len(self.ops)}")


def gate_entries(gate: Gate) -> dict[tuple[int, int], complex]:
    """Nonzero entries ``(row, col) -> weight`` of the unitary on the gate's
    targets (controls excluded), local-bit order, rows ascending.

    Built with :mod:`math` and :mod:`cmath` alone, so simulation never
    loads numpy; a PERMUTATION is read straight from its table, with no
    ``2**k`` by ``2**k`` matrix.  Each entry is the complex number that the
    usual dense formula gives when numpy evaluates it, bit for bit.
    """
    k = gate.kind
    fixed = _FIXED_ENTRIES.get(k)
    if fixed is not None:
        return dict(fixed)
    a = gate.angle
    if k == "RX" or k == "RY":
        c = complex(math.cos(a / 2))
        s = math.sin(a / 2)
        if k == "RX":
            lo, hi = -1j * s, -1j * s
        else:
            lo, hi = complex(-s), complex(s)
        # The off-diagonal vanishes where sin(a/2) is zero.
        entries = {(0, 0): c, (0, 1): lo, (1, 0): hi, (1, 1): c}
        return {rc: w for rc, w in entries.items() if w != 0}
    if k == "RZ":
        return {(0, 0): cmath.exp(-0.5j * a), (1, 1): cmath.exp(0.5j * a)}
    if k == "PHASE":
        return {(0, 0): 1 + 0j, (1, 1): cmath.exp(1j * a)}
    if k == "PERMUTATION":
        # table[col] is the row of column col's single 1.
        return dict.fromkeys(sorted(zip(gate.table, range(len(gate.table)))),
                             1 + 0j)
    raise ValueError(f"unknown gate kind {k!r}")


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary on the gate's targets (controls excluded), local-bit order.

    A dense complex view of :func:`gate_entries`, for the dense oracle and
    the tests; it imports numpy, which simulation never needs.
    """
    import numpy as np

    dim = 1 << len(gate.targets)
    m = np.zeros((dim, dim), dtype=complex)
    for (row, col), w in gate_entries(gate).items():
        m[row, col] = w
    return m


_FIXED_ENTRIES = {
    "H": {(0, 0): complex(_SQ2), (0, 1): complex(_SQ2),
          (1, 0): complex(_SQ2), (1, 1): complex(-_SQ2)},
    "X": {(0, 1): 1 + 0j, (1, 0): 1 + 0j},
    "Y": {(0, 1): -1j, (1, 0): 1j},
    "Z": {(0, 0): 1 + 0j, (1, 1): -1 + 0j},
    "S": {(0, 0): 1 + 0j, (1, 1): 1j},
    "SDG": {(0, 0): 1 + 0j, (1, 1): -1j},
    "T": {(0, 0): 1 + 0j, (1, 1): cmath.exp(0.25j * math.pi)},
    "TDG": {(0, 0): 1 + 0j, (1, 1): cmath.exp(-0.25j * math.pi)},
    "SQRTX": {(0, 0): _A, (0, 1): _A.conjugate(),
              (1, 0): _A.conjugate(), (1, 1): _A},
    "SQRTY": {(0, 0): _A, (0, 1): -_A, (1, 0): _A, (1, 1): _A},
    "SWAP": {(0, 0): 1 + 0j, (1, 2): 1 + 0j, (2, 1): 1 + 0j, (3, 3): 1 + 0j},
}


# -- OpenQASM 2 subset ----------------------------------------------------

class QasmParseError(ValueError):
    """Parse failure with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_PLAIN_GATES = {"h": "H", "x": "X", "y": "Y", "z": "Z",
                "s": "S", "sdg": "SDG", "t": "T", "tdg": "TDG"}
_ANGLE_GATES = {"rx": "RX", "ry": "RY", "rz": "RZ", "u1": "PHASE", "p": "PHASE"}
_UNSUPPORTED = {"gate", "opaque", "if", "reset", "u", "u2", "u3", "id"}

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\(([^()]*(?:\([^()]*\)[^()]*)*)\))?\s*(.*)$",
                      re.S)
_OPERAND_RE = re.compile(r"^([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")


def parse_qasm(text: str, name: str = "") -> Circuit:
    """Parse the OpenQASM 2 subset used here into a :class:`Circuit`.

    Supported statements: the version header, ``include``, one ``qreg``,
    ``creg``, the gates h x y z s sdg t tdg rx ry rz u1 p cx cz cp cu1 ccx
    swap, ``barrier`` (recorded as a marker), and ``measure`` (skipped with
    a warning; the simulator produces the full state).  Gate operands must
    be indexed, like ``q[2]``.
    """
    qreg: tuple[str, int] | None = None
    ops: list[Gate] = []
    markers: list[int] = []
    warned_measure = False

    for stmt, line, col in _statements(text):
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            if stmt != "OPENQASM 2.0":
                raise QasmParseError(f"unsupported version {stmt[8:].strip()!r}", line, col)
            continue
        if head == "include":
            continue
        if head == "qreg":
            m = _QREG_RE.match(stmt)
            if not m:
                raise QasmParseError("malformed qreg declaration", line, col)
            if qreg is not None:
                raise QasmParseError("only one qreg is supported", line, col)
            size = int(m.group(2))
            if size < 1:
                raise QasmParseError("qreg size must be positive", line, col)
            qreg = (m.group(1), size)
            continue
        if head == "creg":
            if not _CREG_RE.match(stmt):
                raise QasmParseError("malformed creg declaration", line, col)
            continue
        if head == "measure":
            if not warned_measure:
                warnings.warn("measure statements are ignored; the simulator "
                              "returns the full state", stacklevel=2)
                warned_measure = True
            continue
        if head == "barrier":
            if not markers or markers[-1] != len(ops):
                markers.append(len(ops))
            continue
        if head in _UNSUPPORTED:
            raise QasmParseError(f"unsupported statement {head!r}", line, col)

        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmParseError("cannot parse statement", line, col)
        gname, angle_src, operand_src = m.group(1), m.group(2), m.group(3)
        if qreg is None:
            raise QasmParseError("gate before qreg declaration", line, col)
        qubits = _parse_operands(operand_src, qreg, line, col)
        angle = None
        if angle_src is not None:
            angle = _eval_angle(angle_src, line, col)

        gate = _build_gate(gname, qubits, angle, line, col)
        ops.append(gate)

    if qreg is None:
        raise QasmParseError("no qreg declaration found", 1, 1)
    circ = Circuit(num_qubits=qreg[1], ops=ops, markers=markers, name=name)
    circ.validate()
    return circ


def _build_gate(gname: str, qubits: list[int], angle, line: int, col: int) -> Gate:
    def need_angle(flag: bool):
        if flag and angle is None:
            raise QasmParseError(f"{gname} requires an angle", line, col)
        if not flag and angle is not None:
            raise QasmParseError(f"{gname} takes no angle", line, col)

    def need_qubits(k: int):
        if len(qubits) != k:
            raise QasmParseError(f"{gname} takes {k} qubit(s), got {len(qubits)}", line, col)
        if len(set(qubits)) != k:
            raise QasmParseError(f"{gname} operands must be distinct", line, col)

    if gname in _PLAIN_GATES:
        need_angle(False); need_qubits(1)
        return Gate(_PLAIN_GATES[gname], (qubits[0],))
    if gname in _ANGLE_GATES:
        need_angle(True); need_qubits(1)
        return Gate(_ANGLE_GATES[gname], (qubits[0],), angle=angle)
    if gname == "cx":
        need_angle(False); need_qubits(2)
        return Gate("X", (qubits[1],), controls=(qubits[0],))
    if gname == "cz":
        need_angle(False); need_qubits(2)
        return Gate("Z", (qubits[1],), controls=(qubits[0],))
    if gname in ("cp", "cu1"):
        need_angle(True); need_qubits(2)
        return Gate("PHASE", (qubits[1],), controls=(qubits[0],), angle=angle)
    if gname == "ccx":
        need_angle(False); need_qubits(3)
        return Gate("X", (qubits[2],), controls=(qubits[0], qubits[1]))
    if gname == "swap":
        need_angle(False); need_qubits(2)
        return Gate("SWAP", tuple(sorted(qubits)))
    raise QasmParseError(f"unknown gate {gname!r}", line, col)


def _parse_operands(src: str, qreg: tuple[str, int], line: int, col: int) -> list[int]:
    if not src.strip():
        raise QasmParseError("gate has no operands", line, col)
    out = []
    for part in src.split(","):
        m = _OPERAND_RE.match(part.strip())
        if not m:
            raise QasmParseError(f"operand {part.strip()!r} must be an indexed "
                                 "qubit like q[2]", line, col)
        reg, idx = m.group(1), int(m.group(2))
        if reg != qreg[0]:
            raise QasmParseError(f"unknown register {reg!r}", line, col)
        if idx >= qreg[1]:
            raise QasmParseError(f"qubit index {idx} outside register of size {qreg[1]}",
                                 line, col)
        out.append(idx)
    return out


def _eval_angle(src: str, line: int, col: int) -> float:
    """Evaluate an arithmetic angle expression over numbers and ``pi``.

    An expression nested too deeply for the parser or for
    :func:`_eval_node` (``RecursionError`` or ``MemoryError``) is a parse
    error too.
    """
    try:
        tree = ast.parse(src.strip(), mode="eval")
        return _eval_node(tree.body, src, line, col)
    except SyntaxError:
        raise QasmParseError(f"malformed angle expression {src.strip()!r}", line, col) from None
    except (RecursionError, MemoryError):
        raise QasmParseError("angle expression is nested too deeply", line, col) from None


def _eval_node(node, src: str, line: int, col: int) -> float:
    """Value of one node of the angle expression ``src``.

    Every number and every intermediate result must be a finite real
    float: a division by zero, an overflow, an infinite literal or a
    complex power is a parse error, not a traceback or a corrupt state.
    """
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, src, line, col)
        return -v if isinstance(node.op, ast.USub) else v
    # BitXor covers the QASM power operator '^'.
    ops = {ast.Add: float.__add__, ast.Sub: float.__sub__,
           ast.Mult: float.__mul__, ast.Div: float.__truediv__,
           ast.Pow: float.__pow__, ast.BitXor: float.__pow__}
    try:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            value = float(node.value)
        elif isinstance(node, ast.BinOp) and type(node.op) in ops:
            value = ops[type(node.op)](_eval_node(node.left, src, line, col),
                                       _eval_node(node.right, src, line, col))
        else:
            raise QasmParseError(
                f"unsupported angle expression {src.strip()!r}", line, col)
    except ArithmeticError:
        # ZeroDivisionError, or OverflowError from a huge power or literal.
        value = None
    if not (isinstance(value, float) and math.isfinite(value)):
        raise QasmParseError(f"angle expression {src.strip()!r} is not a "
                             "finite real number", line, col)
    return value


def _statements(text: str):
    """Yield (statement, line, col) with comments stripped, positions 1-based."""
    stmts = []
    buf: list[str] = []
    start: tuple[int, int] | None = None
    line, col = 1, 1
    in_comment = False
    prev = ""
    for ch in text:
        if ch == "\n":
            in_comment = False
            if buf:
                buf.append(" ")
            line += 1
            col = 1
            prev = ""
            continue
        if in_comment:
            col += 1
            continue
        if ch == "/" and prev == "/":
            in_comment = True
            if buf and buf[-1] == "/":
                buf.pop()
                if not "".join(buf).strip():
                    buf, start = [], None
            prev = ""
            col += 1
            continue
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt:
                stmts.append((re.sub(r"\s+", " ", stmt), start[0], start[1]))
            buf, start = [], None
            prev = ""
            col += 1
            continue
        if ch in "{}":
            raise QasmParseError("gate definitions are not supported", line, col)
        if not ch.isspace() and start is None:
            start = (line, col)
        if start is not None:
            buf.append(ch)
        prev = ch if not ch.isspace() else ""
        col += 1
    leftover = "".join(buf).strip()
    if leftover:
        raise QasmParseError("statement missing terminating ';'", start[0], start[1])
    return stmts


_QASM_PLAIN = {v: k for k, v in _PLAIN_GATES.items()}
_QASM_ANGLE = {"RX": "rx", "RY": "ry", "RZ": "rz", "PHASE": "p"}


def to_qasm(circuit: Circuit) -> str:
    """Render a circuit in the supported OpenQASM 2 subset.

    Nonzero initial states are encoded as a leading layer of ``x`` gates.
    Raises ValueError for gates with no representation in the subset
    (SQRTX, SQRTY, PERMUTATION, controls on anything but X/Z/PHASE).
    """
    circuit.validate()
    n = circuit.num_qubits
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    if circuit.initial_state:
        for level, bit in enumerate(reversed(circuit.initial_state)):
            if bit == "1":
                lines.append(f"x q[{level}];")
    marker_set = set(circuit.markers)
    for i, g in enumerate(circuit.ops):
        if i in marker_set:
            lines.append("barrier q;")
        lines.append(_gate_to_qasm(g))
    if len(circuit.ops) in marker_set:
        lines.append("barrier q;")
    return "\n".join(lines) + "\n"


def _gate_to_qasm(g: Gate) -> str:
    t = g.targets
    c = g.controls
    if g.kind in _QASM_PLAIN and not c:
        return f"{_QASM_PLAIN[g.kind]} q[{t[0]}];"
    if g.kind in _QASM_ANGLE and not c:
        return f"{_QASM_ANGLE[g.kind]}({g.angle!r}) q[{t[0]}];"
    if g.kind == "X" and len(c) == 1:
        return f"cx q[{c[0]}],q[{t[0]}];"
    if g.kind == "X" and len(c) == 2:
        return f"ccx q[{c[0]}],q[{c[1]}],q[{t[0]}];"
    if g.kind == "Z" and len(c) == 1:
        return f"cz q[{c[0]}],q[{t[0]}];"
    if g.kind == "PHASE" and len(c) == 1:
        return f"cp({g.angle!r}) q[{c[0]}],q[{t[0]}];"
    if g.kind == "SWAP" and not c:
        return f"swap q[{t[0]}],q[{t[1]}];"
    raise ValueError(f"gate {g.kind} with {len(c)} control(s) has no QASM form here")


# -- generators ------------------------------------------------------------

def gen_ghz(num_qubits: int) -> Circuit:
    """Hadamard on the top qubit plus a CX chain: the n-qubit GHZ state."""
    if num_qubits < 2:
        raise ValueError("GHZ needs at least two qubits")
    ops = [Gate("H", (num_qubits - 1,))]
    for q in range(num_qubits - 1, 0, -1):
        ops.append(Gate("X", (q - 1,), controls=(q,)))
    return Circuit(num_qubits, ops, name=f"ghz_{num_qubits}")


def _qft_ops(qubits: list[int]) -> list[Gate]:
    """Quantum Fourier transform on ``qubits`` (ascending significance)."""
    m = len(qubits)
    ops = []
    for j in range(m - 1, -1, -1):
        ops.append(Gate("H", (qubits[j],)))
        for k in range(1, j + 1):
            ops.append(Gate("PHASE", (qubits[j],), controls=(qubits[j - k],),
                            angle=math.pi / (1 << k)))
    for i in range(m // 2):
        ops.append(Gate("SWAP", tuple(sorted((qubits[i], qubits[m - 1 - i])))))
    return ops


def gen_qft(num_qubits: int, inverse: bool = False) -> Circuit:
    """QFT mapping |x> to (1/sqrt(D)) sum_y exp(2 pi i x y / D) |y>.

    With ``inverse`` the adjoint circuit is returned: the gate list reversed,
    rotation angles negated (H and SWAP are self-inverse).
    """
    if num_qubits < 1:
        raise ValueError("QFT needs at least one qubit")
    ops = _qft_ops(list(range(num_qubits)))
    if inverse:
        ops = [Gate("PHASE", g.targets, controls=g.controls, angle=-g.angle)
               if g.kind == "PHASE" else g
               for g in reversed(ops)]
        return Circuit(num_qubits, ops, name=f"qftinv_{num_qubits}")
    return Circuit(num_qubits, ops, name=f"qft_{num_qubits}")


def gen_supremacy(rows: int, cols: int, depth: int, seed: int = 0) -> Circuit:
    """Random circuit on a rows x cols grid in the style of hardness benchmarks.

    Starts with Hadamards everywhere, then ``depth`` cycles: each cycle lays
    a shifting pattern of CZ gates between grid neighbours (alternating
    horizontal and vertical), and every qubit not touched by a CZ receives a
    single-qubit gate drawn from {T, sqrt(X), sqrt(Y)} with no immediate
    repeats; the first such gate on a qubit is always T.
    """
    n = rows * cols
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if n > 25:
        raise ValueError(f"grid of {n} qubits exceeds the supported 25")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    rng = random.Random(seed)
    ops = [Gate("H", (q,)) for q in range(n)]
    last: dict[int, str] = {}
    for i in range(depth):
        dx = i % 2
        dy = 1 - dx
        off = (i >> 1) % 4
        busy = set()
        for x in range(rows):
            for y in range(cols):
                if x + dx >= rows or y + dy >= cols:
                    continue
                if (x * (2 - dx) + y * (2 - dy)) % 4 != off:
                    continue
                a, b = x * cols + y, (x + dx) * cols + (y + dy)
                ops.append(Gate("Z", (b,), controls=(a,)))
                busy.add(a)
                busy.add(b)
        for q in range(n):
            if q in busy:
                continue
            if q not in last:
                kind = "T"
            else:
                kind = rng.choice([k for k in ("T", "SQRTX", "SQRTY") if k != last[q]])
            last[q] = kind
            ops.append(Gate(kind, (q,)))
    return Circuit(n, ops, name=f"supremacy_{rows}x{cols}_{depth}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def gen_shor_period(N: int, a: int) -> Circuit:
    """Period-finding circuit for a modulo N (order finding for factoring).

    Work register: qubits 0..n-1 holding values mod N, initialized to 1.
    Counting register: qubits n..3n-1, Hadamard-prepared, driving controlled
    modular multiplications by a^(2^j), then inverse-Fourier-transformed.
    Barriers after every controlled multiplication and after every rotation
    block of the inverse transform mark natural approximation points.
    """
    if N > 64:
        raise ValueError(f"modulus {N} exceeds the supported 64")
    if N % 2 == 0 or _is_prime(N) or N < 9:
        raise ValueError("N must be an odd composite")
    if not 1 < a < N:
        raise ValueError("need 1 < a < N")
    if math.gcd(a, N) != 1:
        raise ValueError(f"gcd({a}, {N}) != 1; factor found classically")

    n = (N - 1).bit_length()
    m = 2 * n
    total = n + m
    work = list(range(n))
    counting = list(range(n, n + m))

    ops: list[Gate] = []
    markers: list[int] = []
    for q in counting:
        ops.append(Gate("H", (q,)))
    for j, q in enumerate(counting):
        mult = pow(a, 1 << j, N)
        table = tuple((mult * x) % N if x < N else x for x in range(1 << n))
        ops.append(Gate("PERMUTATION", tuple(work), controls=(q,), table=table))
        markers.append(len(ops))

    # Inverse QFT on the counting register: reverse the forward op list and
    # negate the rotation angles.  Mark the end of every rotation block.
    rotations = 0
    for g in reversed(_qft_ops(counting)):
        if g.kind == "PHASE":
            ops.append(Gate("PHASE", g.targets, controls=g.controls, angle=-g.angle))
            rotations += 1
        else:
            ops.append(g)
        if g.kind == "H" and rotations:
            markers.append(len(ops))
            rotations = 0

    bits = ["0"] * total
    bits[total - 1] = "1"   # work register starts at value 1
    return Circuit(total, ops, initial_state="".join(bits), markers=markers,
                   name=f"shor_{N}_{a}")
