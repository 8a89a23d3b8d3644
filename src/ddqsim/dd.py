"""Hash-consed decision diagrams for quantum state vectors.

A state over ``n`` qubits is stored as a rooted DAG: each node splits on one
qubit (level ``n-1`` at the root, level 0 at the bottom) and carries two
weighted edges for that qubit being 0 ("low") or 1 ("high").  The amplitude
of a basis state is the product of edge weights along the corresponding
root-to-terminal path; a zero-weight edge is a stub that short-circuits the
whole subtree to zero.  Structurally identical nodes are stored once per
:class:`Context` (hash-consing), so equal sub-vectors share memory.

An edge is a plain ``(target, weight)`` tuple; this module sits on every hot
path, so edges stay raw tuples rather than a class.  ``ZERO`` is the unique
zero stub ``(TERMINAL, 0j)``.

Conventions pinned here and relied on by every other module:

* Normalization: the outgoing weights of a node are divided by the magnitude
  of the largest one (ties resolved toward the low edge), and that positive
  real factor is pushed into the incoming edge.  Phases therefore stay local
  to the level where they occur, sub-vectors that agree up to a positive real
  factor share one node, and states built from vectors carry a non-negative
  real root weight.  A sum of two edges into the same node reuses that node
  under the summed weight instead of building a phase-rotated copy of it.
* Descent: every nonzero edge of a node leads exactly one level down (a
  level-0 node's to the terminal) and every zero edge is ``ZERO``, so a node
  is reached only at its own level.  :meth:`StateDD.node_count` relies on
  that, and :meth:`Context.check_invariants` checks it.
* Weights: a node is stored under the cells of its outgoing weights on a
  grid of cell size ``EPS`` per component (see :func:`_node_key`), so
  sub-vectors whose normalized weights differ only by rounding dust share
  one node, and the unique table cannot fill up with near-duplicates.  The
  node keeps the raw normalized weights of the computation that first built
  it.  Weights within ``EPS`` of zero in both components become the zero
  stub.  Incoming scale factors stay raw.
* Index convention: bitstring ``b_{n-1}...b_0`` (qubit ``n-1`` written first)
  maps to the integer index with ``b_{n-1}`` most significant.
* Liveness: each :class:`StateDD` handle pins its root node, and
  :meth:`Context.collect_garbage` keeps exactly the nodes that pinned roots
  reach, re-keyed in one walk of them.  Nodes carry no reference counts.
* No cycles: nodes point only down, at their children, and no helper is a
  closure that calls itself (a recursive walk is a module-level function
  that takes its memo and context as arguments).  The engine therefore
  makes no reference cycles, Python's reference counting frees a dropped
  diagram, memo or context at once, and the drivers in
  :mod:`ddqsim.strategies` can pause the cyclic garbage collector.

A :class:`Context` owns all tables and is meant for single-threaded use;
independent contexts may run concurrently in separate threads or processes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Weight-cell size and zero-snap tolerance (component-wise).
EPS = 1e-13

#: Dense expansion is refused above this qubit count.
DENSE_QUBIT_LIMIT = 20

#: Default number of slots in each of ``Context.apply_cache`` and
#: ``Context.add_cache`` (power of two).  Nothing in this package reads those
#: tables: gate application memoizes per gate (see :mod:`ddqsim.ops`).  They
#: remain only as slots the benchmark tracer swaps for counting tables, so
#: they default to one slot each and cost no memory.
DEFAULT_COMPUTE_TABLE_SIZE = 1

#: Adding and then subtracting ``_SNAP`` rounds both components of a complex
#: to integers, ties to even, exactly as ``round()`` does, for components of
#: magnitude below ``_SNAP_LIMIT``: the sums then lie in [2**52, 2**53),
#: where floats are spaced exactly 1 apart.
_SNAP = complex(1.5 * 2 ** 52, 1.5 * 2 ** 52)
_SNAP_LIMIT = 2.0 ** 51

#: Edges are (target, weight) tuples; this alias is for signatures only.
Edge = tuple


class CapacityError(RuntimeError):
    """An operation would exceed a hard size guard."""


def _cell(z: complex) -> complex:
    """Weight-grid cell of ``z``: ``complex(round(re / EPS), round(im / EPS))``.

    The snapped sum is one complex allocation where ``round()`` builds two
    ints; components of ``z`` beyond ``_SNAP_LIMIT * EPS`` (about 225) take
    the ``round()`` form.
    """
    k = z / EPS + _SNAP - _SNAP
    if -_SNAP_LIMIT < k.real < _SNAP_LIMIT and -_SNAP_LIMIT < k.imag < _SNAP_LIMIT:
        return k
    return complex(round(z.real / EPS), round(z.imag / EPS))


class Terminal:
    """Shared sink of every diagram; represents the scalar 1."""

    __slots__ = ()
    level = -1
    uid = 0

    def __repr__(self) -> str:
        return "<terminal>"


TERMINAL = Terminal()

#: The unique zero stub: weight 0, pointing at the terminal.
ZERO = (TERMINAL, 0j)
ONE = (TERMINAL, 1.0 + 0j)


class VNode:
    """Vector-diagram node: one qubit split into low/high sub-vectors."""

    __slots__ = ("level", "low", "high", "uid")

    def __init__(self, level: int, low: Edge, high: Edge, uid: int):
        self.level = level
        self.low = low
        self.high = high
        self.uid = uid

    def __repr__(self) -> str:
        return f"<q{self.level} #{self.uid}>"


def _node_key(node: VNode) -> tuple:
    """Unique-table key of ``node``: its level, and per edge the target and
    the weight's :func:`_cell` (``0j`` for a zero edge).

    :meth:`Context.make_vnode` computes the same key inline.
    """
    nl = node.low
    nh = node.high
    return (node.level, nl[0], _cell(nl[1]), nh[0], _cell(nh[1]))


class BoundedCache:
    """Fixed-size memoization table with overwrite-on-collision.

    Lookups verify the full key, so a collision can only cost a recomputation,
    never a wrong result.
    """

    __slots__ = ("_mask", "_slots")

    def __init__(self, size: int = DEFAULT_COMPUTE_TABLE_SIZE):
        if size < 1 or size & (size - 1):
            raise ValueError(f"cache size must be a power of two, got {size}")
        self._mask = size - 1
        self._slots: list = [None] * size

    def get(self, key):
        entry = self._slots[hash(key) & self._mask]
        if entry is not None and entry[0] == key:
            return entry[1]
        return None

    def put(self, key, value) -> None:
        self._slots[hash(key) & self._mask] = (key, value)

    def clear(self) -> None:
        self._slots = [None] * (self._mask + 1)


class Context:
    """Owner of the vector-node unique table, the pins and the gate-diagram
    cache.

    All diagrams created through one context live in its tables; diagrams
    from different contexts must not be combined by operations that create
    nodes.  Public handles (:class:`StateDD`) pin their root node; nodes no
    pinned root reaches are reclaimed only by an explicit
    :meth:`collect_garbage` call, so node counts observed between calls are
    reproducible.

    Operations memoize in dicts of their own that live for one gate, not in
    the context.  ``apply_cache`` and ``add_cache`` are unused bounded
    tables, kept for the benchmark tracer that swaps them for counting
    tables; ``compute_table_size`` only sizes them.
    """

    def __init__(self, compute_table_size: int = DEFAULT_COMPUTE_TABLE_SIZE):
        # Always empty: nodes are keyed by weight cell and no weight table
        # exists.  Kept only because the benchmark tracer reads its length.
        self._weights: dict = {}
        self._vtable: dict = {}
        # Root node -> number of StateDD handles pinning it.
        self._pins: dict[VNode, int] = {}
        self._next_uid = 1
        # Not read by this package; see DEFAULT_COMPUTE_TABLE_SIZE.
        self.apply_cache = BoundedCache(compute_table_size)
        self.add_cache = BoundedCache(compute_table_size)
        self.gate_dds: dict = {}

    # -- weights ---------------------------------------------------------

    def weight(self, z: complex) -> complex:
        """``z`` as a complex, or exact zero if it lies within ``EPS`` of
        zero in both components.

        Node weights get the same snap inside :meth:`make_vnode`; root and
        matrix weights get it here.
        """
        re = z.real
        im = z.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            return 0j
        return complex(re, im)

    # -- node construction ----------------------------------------------

    def make_vnode(self, level: int, low: Edge, high: Edge) -> Edge:
        """Build (or find) the node over ``low``/``high``.

        Returns the normalized edge into the node: the outgoing weights are
        scaled by 1/max-magnitude (a positive real, returned as the new edge
        weight, raw).  Children whose relative weight falls below ``EPS``
        collapse to the zero stub; if everything vanishes, so does the node.
        The node is looked up under :func:`_node_key` of the normalized
        edges: a node found keeps the weights it was built with, which lie
        in the same cells as the ones asked for; a node built stores the
        normalized weights as they are.
        """
        wl = low[1]
        wh = high[1]
        ml = abs(wl)
        mh = abs(wh)
        m = ml if ml >= mh else mh
        if m <= EPS:
            return ZERO
        # _node_key, inlined: this runs for every node built.  Both
        # quotients have components of magnitude at most 1, so the snapped
        # cell needs no range check (see _cell).
        nlw = wl / m
        re = nlw.real
        im = nlw.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            lt = TERMINAL
            lk = 0j
        else:
            lt = low[0]
            lk = nlw / EPS + _SNAP - _SNAP
        nhw = wh / m
        re = nhw.real
        im = nhw.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            ht = TERMINAL
            hk = 0j
        else:
            ht = high[0]
            hk = nhw / EPS + _SNAP - _SNAP
        key = (level, lt, lk, ht, hk)
        node = self._vtable.get(key)
        if node is None:
            nl = ZERO if lk == 0 else (lt, nlw)
            nh = ZERO if hk == 0 else (ht, nhw)
            node = VNode(level, nl, nh, self._next_uid)
            self._next_uid += 1
            self._vtable[key] = node
        return (node, m)

    # -- garbage collection ----------------------------------------------

    def collect_garbage(self) -> int:
        """Drop every vector node no pinned root reaches; returns the count.

        One walk of the pinned roots rebuilds the unique table in walk
        order, each node keyed by :func:`_node_key`.  A fresh dict returns
        the memory the dropped entries held, and the dead entries are never
        visited.  Surviving nodes keep their weights and their keys.  No
        operation memo outlives its gate, so none can mention a reclaimed
        node.  ``gate_dds`` is cleared too and rebuilt on demand, so a long
        run of distinct parametric gates cannot grow it without bound.
        """
        self.gate_dds.clear()
        before = len(self._vtable)
        vtable: dict = {}
        for node in self._pinned_nodes():
            vtable[_node_key(node)] = node
        self._vtable = vtable
        return before - len(vtable)

    def _pinned_nodes(self):
        """Every node a pinned root reaches, root by root in walk order.

        A node that several pinned roots reach comes once per root.
        """
        for root in self._pins:
            for bucket in levels((root, 1.0)):
                yield from bucket

    def unique_table_size(self) -> int:
        """Number of vector nodes currently stored (live or not)."""
        return len(self._vtable)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the vector-node table is sound.

        Checks that each unique-table key names its node's level and edge
        targets, and the cells of its stored weights (a weight outside the
        cell its key names is non-canonical); that each node is normalized,
        its larger outgoing magnitude 1 up to rounding (checked to
        ``2 * EPS``); that each nonzero edge leads exactly one level down and
        each zero edge is the zero stub, which :meth:`StateDD.node_count`
        relies on; and that every node a pinned root reaches is the node
        stored under its own key.  A test aid: it walks the table and every
        pinned diagram and changes nothing.
        """
        for key, node in self._vtable.items():
            nl = node.low
            nh = node.high
            if (key[0], key[1], key[3]) != (node.level, nl[0], nh[0]):
                raise AssertionError(f"unique-table key {key} does not match {node}")
            if (key[2], key[4]) != (_cell(nl[1]), _cell(nh[1])):
                raise AssertionError(
                    f"{node} stores a non-canonical weight: {nl[1]!r} and "
                    f"{nh[1]!r} do not lie in the cells of key {key}")
            m = max(abs(nl[1]), abs(nh[1]))
            if abs(m - 1.0) > 2 * EPS:
                raise AssertionError(f"{node} is not normalized: max weight {m!r}")
            for target, w in (nl, nh):
                if target.level != (node.level - 1 if w != 0 else -1):
                    raise AssertionError(
                        f"{node} has an edge to {target} that neither leads "
                        f"one level down nor is the zero stub")
        for node in self._pinned_nodes():
            if self._vtable.get(_node_key(node)) is not node:
                raise AssertionError(
                    f"{node}, reachable from a pinned root, is not stored "
                    f"under its key")

    # -- state construction ----------------------------------------------

    def make_basis_state(self, num_qubits: int, bits: str) -> "StateDD":
        """Chain diagram for the basis state labelled ``bits`` (qubit n-1 first)."""
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        _check_bits(bits, num_qubits)
        edge = ONE
        for level in range(num_qubits):
            if bits[num_qubits - 1 - level] == "0":
                edge = self.make_vnode(level, edge, ZERO)
            else:
                edge = self.make_vnode(level, ZERO, edge)
        return self.new_state(edge, num_qubits)

    def from_dense(self, vector) -> "StateDD":
        """Build the canonical diagram of a unit-norm amplitude vector."""
        v = np.asarray(vector, dtype=complex)
        dim = v.shape[0] if v.ndim == 1 else 0
        if v.ndim != 1 or dim < 2 or dim & (dim - 1):
            raise ValueError("amplitude vector length must be a power of two >= 2")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"amplitude vector must have unit norm, got {norm!r}")
        num_qubits = dim.bit_length() - 1
        root = self._dense_rec(v, num_qubits - 1)
        return self.new_state(root, num_qubits)

    def _dense_rec(self, v: np.ndarray, level: int) -> Edge:
        if level < 0:
            return (TERMINAL, self.weight(complex(v[0])))
        half = v.shape[0] // 2
        low = self._dense_rec(v[:half], level - 1)
        high = self._dense_rec(v[half:], level - 1)
        return self.make_vnode(level, low, high)

    def new_state(self, root: Edge, num_qubits: int) -> "StateDD":
        """Wrap a root edge as a pinned state handle (low-level)."""
        node = root[0]
        if node is not TERMINAL:
            self._pins[node] = self._pins.get(node, 0) + 1
        return StateDD(self, root, num_qubits)


@dataclass
class StateDD:
    """Handle to a decision diagram representing a ``2**num_qubits`` vector.

    Holding one pins the root node: :meth:`Context.collect_garbage` keeps
    everything it reaches.  Call :meth:`release` (once) when a long-running
    loop is done with an intermediate state so the collector can reclaim
    what no other pinned root reaches.
    """

    context: Context
    root: Edge
    num_qubits: int

    def release(self) -> None:
        node = self.root[0]
        if node is not TERMINAL:
            pins = self.context._pins
            if pins[node] == 1:
                del pins[node]
            else:
                pins[node] -= 1

    def amplitude(self, bits: str) -> complex:
        """Product of edge weights along the path selected by ``bits``.

        Factors multiply bottom-up, in the same association order as
        :meth:`to_dense`, so both report bit-identical values.
        """
        _check_bits(bits, self.num_qubits)
        node, rw = self.root
        if rw == 0:
            return 0j
        path = []
        for ch in bits:
            node, w = node.low if ch == "0" else node.high
            if w == 0:
                return 0j
            path.append(w)
        acc = 1.0 + 0j
        while path:
            acc = path.pop() * acc
        return complex(rw * acc)

    def to_dense(self) -> np.ndarray:
        """Expand to the full amplitude vector (guarded above 20 qubits)."""
        if self.num_qubits > DENSE_QUBIT_LIMIT:
            raise CapacityError(
                f"refusing dense expansion of {self.num_qubits} qubits "
                f"(limit {DENSE_QUBIT_LIMIT})")
        return self.root[1] * _expand(self.root[0], {})

    def node_count(self) -> int:
        """Number of distinct non-terminal nodes reachable from the root.

        Counts level by level: the nodes one level down are the set of the
        current level's children, less the terminal that zero edges point
        at.  No node is counted twice because every nonzero edge leads
        exactly one level down (see the module's Conventions), and no
        bucket lists are built, unlike :func:`levels`.
        """
        node, w = self.root
        if w == 0 or node is TERMINAL:
            return 0
        count = 0
        level = {node}
        while level:
            count += len(level)
            below = set()
            add = below.add
            for n in level:
                add(n.low[0])
                add(n.high[0])
            below.discard(TERMINAL)
            level = below
        return count

    def norm(self) -> float:
        """Euclidean norm of the represented vector."""
        return squared_norm(self.root) ** 0.5

    def __repr__(self) -> str:
        return f"StateDD(num_qubits={self.num_qubits}, nodes={self.node_count()})"


def _check_bits(bits: str, num_qubits: int) -> None:
    if len(bits) != num_qubits or any(c not in "01" for c in bits):
        raise ValueError(f"expected a bitstring of length {num_qubits}, got {bits!r}")


def _expand(node, memo: dict[int, np.ndarray]) -> np.ndarray:
    """Dense sub-vector of a weight-stripped node; ``memo`` is keyed by id."""
    if node is TERMINAL:
        return np.ones(1, dtype=complex)
    got = memo.get(id(node))
    if got is None:
        half = 1 << node.level
        parts = []
        for target, w in (node.low, node.high):
            if w == 0:
                parts.append(np.zeros(half, dtype=complex))
            else:
                parts.append(w * _expand(target, memo))
        got = np.concatenate(parts)
        memo[id(node)] = got
    return got


def levels(root: Edge) -> list[list[VNode]]:
    """Nodes reachable from ``root``, bucketed by level, root level first.

    Every nonzero edge descends one level, so the buckets in order put
    parents before children.  Within a bucket, nodes keep the order in which
    a depth-first walk (low pushed before high, marked when popped) first
    reaches them: masses over shared nodes are summed in that order, which
    decides near-ties between removal candidates.
    """
    node, w = root
    if w == 0 or node is TERMINAL:
        return []
    top = node.level
    buckets: list[list[VNode]] = [[] for _ in range(top + 1)]
    seen: set[VNode] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        buckets[top - node.level].append(node)
        child, cw = node.low
        if cw != 0 and child is not TERMINAL:
            stack.append(child)
        child, cw = node.high
        if cw != 0 and child is not TERMINAL:
            stack.append(child)
    return buckets


def level_norms(buckets: list[list[VNode]]) -> dict[int, float]:
    """:func:`subtree_norms` over the result of :func:`levels`, bottom-up."""
    norms: dict[int, float] = {}
    for bucket in reversed(buckets):
        for node in bucket:
            got = 0.0
            for target, w in (node.low, node.high):
                if w != 0:
                    got += (w.real * w.real + w.imag * w.imag) * \
                        (1.0 if target is TERMINAL else norms[id(target)])
            norms[id(node)] = got
    return norms


def subtree_norms(root: Edge) -> dict[int, float]:
    """Squared norm of every reachable node's own sub-vector, keyed by id.

    The value excludes the incoming edge weight; the terminal's implicit
    value is 1 and is not part of the map.
    """
    return level_norms(levels(root))


def squared_norm(root: Edge) -> float:
    """Squared Euclidean norm of the vector represented by ``root``."""
    w = root[1]
    if w == 0:
        return 0.0
    base = subtree_norms(root)
    sub = 1.0 if root[0] is TERMINAL else base[id(root[0])]
    return (w.real * w.real + w.imag * w.imag) * sub
