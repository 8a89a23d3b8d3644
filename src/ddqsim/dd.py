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
  real root weight.
* Outgoing weights are canonicalized on a grid of cell size ``EPS`` per
  component: one table maps each occupied cell to the value first stored
  there, and later values within ``EPS`` of it (component-wise) map to that
  stored value, so the unique table cannot fill up with near-duplicates
  produced by rounding.  Every garbage collection rebuilds the table from
  the weights of the surviving nodes.  Incoming scale factors stay raw; they
  are re-canonicalized wherever they next feed a node.
* Index convention: bitstring ``b_{n-1}...b_0`` (qubit ``n-1`` written first)
  maps to the integer index with ``b_{n-1}`` most significant.

A :class:`Context` owns all tables and is meant for single-threaded use;
independent contexts may run concurrently in separate threads or processes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: Weight canonicalization tolerance (component-wise).
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

    __slots__ = ("level", "low", "high", "uid", "ref")

    def __init__(self, level: int, low: Edge, high: Edge, uid: int):
        self.level = level
        self.low = low
        self.high = high
        self.uid = uid
        self.ref = 0

    def __repr__(self) -> str:
        return f"<q{self.level} #{self.uid}>"


class MNode:
    """Matrix-diagram node: four successors ordered (row bit, column bit)."""

    __slots__ = ("level", "edges", "uid", "ref")

    def __init__(self, level: int, edges: tuple, uid: int):
        self.level = level
        self.edges = edges
        self.uid = uid
        self.ref = 0

    def __repr__(self) -> str:
        return f"<m{self.level} #{self.uid}>"


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
    """Owner of the unique tables, the weight table and the gate diagrams.

    All diagrams created through one context live in its tables; diagrams
    from different contexts must not be combined by operations that create
    nodes.  Nodes are reference counted: every stored parent edge counts one
    reference, and public handles (:class:`StateDD`) pin their root.  Dead
    nodes are reclaimed only by an explicit :meth:`collect_garbage` call, so
    node counts observed between calls are reproducible.

    Operations memoize in dicts of their own that live for one gate, not in
    the context.  ``apply_cache`` and ``add_cache`` are unused bounded
    tables, kept for the benchmark tracer that swaps them for counting
    tables; ``compute_table_size`` (or the ``DDQSIM_COMPUTE_TABLE_SIZE``
    environment variable when not given) only sizes them.
    """

    def __init__(self, compute_table_size: int | None = None):
        if compute_table_size is None:
            compute_table_size = int(os.environ.get(
                "DDQSIM_COMPUTE_TABLE_SIZE", DEFAULT_COMPUTE_TABLE_SIZE))
        # Weight-grid cell (see _cell) -> canonical weight stored for it.
        self._weights: dict[complex, complex] = {}
        self._vtable: dict = {}
        self._mtable: dict = {}
        self._next_uid = 1
        # Not read by this package; see DEFAULT_COMPUTE_TABLE_SIZE.
        self.apply_cache = BoundedCache(compute_table_size)
        self.add_cache = BoundedCache(compute_table_size)
        self.gate_dds: dict = {}
        for seed in (1 + 0j, -1 + 0j, 1j, -1j):
            self.weight(seed)

    # -- weights ---------------------------------------------------------

    def weight(self, z: complex) -> complex:
        """Return the canonical stored weight for ``z``.

        Values within ``EPS`` of zero in both components become exact zero.
        Others are snapped onto a grid of cell size ``EPS`` per component:
        a query within ``EPS`` of the value stored for its cell reuses that
        value, so float dust from normalization collapses onto one
        representative; otherwise the query's own value is stored for the
        cell.  Values straddling a cell boundary may stay distinct; that
        costs a missed node merge, never a wrong amplitude.  The table keeps
        the cells met since the last :meth:`collect_garbage`, plus the
        weights of the nodes that survived it.
        """
        re = z.real
        im = z.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            return 0j
        key = _cell(z)
        w = self._weights.get(key)
        if w is None or abs(w.real - re) > EPS or abs(w.imag - im) > EPS:
            w = self._weights[key] = complex(re, im)
        return w

    # -- node construction ----------------------------------------------

    def make_vnode(self, level: int, low: Edge, high: Edge) -> Edge:
        """Build (or find) the canonical node over ``low``/``high``.

        Returns the normalized edge into the node: the outgoing weights are
        scaled by 1/max-magnitude (a positive real, returned as the new edge
        weight, raw).  Children whose relative weight falls below ``EPS``
        collapse to the zero stub; if everything vanishes, so does the node.
        """
        wl = low[1]
        wh = high[1]
        ml = abs(wl)
        mh = abs(wh)
        m = ml if ml >= mh else mh
        if m <= EPS:
            return ZERO
        # self.weight(wl / m) and self.weight(wh / m), inlined: this runs
        # for every node built.  Both quotients have components of magnitude
        # at most 1, so the snapped cell key needs no range check.
        weights = self._weights
        z = wl / m
        re = z.real
        im = z.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            nlw = 0j
        else:
            key = z / EPS + _SNAP - _SNAP
            nlw = weights.get(key)
            if nlw is None or abs(nlw.real - re) > EPS \
                    or abs(nlw.imag - im) > EPS:
                nlw = weights[key] = complex(re, im)
        z = wh / m
        re = z.real
        im = z.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            nhw = 0j
        else:
            key = z / EPS + _SNAP - _SNAP
            nhw = weights.get(key)
            if nhw is None or abs(nhw.real - re) > EPS \
                    or abs(nhw.imag - im) > EPS:
                nhw = weights[key] = complex(re, im)
        lt = TERMINAL if nlw == 0 else low[0]
        ht = TERMINAL if nhw == 0 else high[0]
        key = (level, lt, nlw, ht, nhw)
        node = self._vtable.get(key)
        if node is None:
            nl = ZERO if nlw == 0 else (lt, nlw)
            nh = ZERO if nhw == 0 else (ht, nhw)
            node = VNode(level, nl, nh, self._next_uid)
            self._next_uid += 1
            self._vtable[key] = node
            if lt is not TERMINAL:
                lt.ref += 1
            if ht is not TERMINAL:
                ht.ref += 1
        return (node, m)

    def make_mnode(self, level: int, edges: tuple) -> Edge:
        """Matrix-node analogue of :meth:`make_vnode` (four successors)."""
        m = max(abs(e[1]) for e in edges)
        if m <= EPS:
            return ZERO
        norm_edges = []
        for e in edges:
            w = self.weight(e[1] / m)
            norm_edges.append(ZERO if w == 0 else (e[0], w))
        norm_edges = tuple(norm_edges)
        key = (level, norm_edges)
        node = self._mtable.get(key)
        if node is None:
            node = MNode(level, norm_edges, self._next_uid)
            self._next_uid += 1
            self._mtable[key] = node
        return (node, m)

    # -- reference counting / garbage collection -------------------------

    def incref(self, edge: Edge) -> None:
        if edge[0] is not TERMINAL:
            edge[0].ref += 1

    def decref(self, edge: Edge) -> None:
        if edge[0] is not TERMINAL:
            edge[0].ref -= 1

    def collect_garbage(self) -> int:
        """Drop all vector nodes with zero references; returns the count.

        No operation memo outlives its gate, so none can mention a reclaimed
        node.  Gate diagrams (the matrix nodes and ``gate_dds``) are dropped
        as well and rebuilt on demand, so a long run of distinct parametric
        gates cannot grow them without bound.  Finally the weight table is
        rebuilt from the surviving nodes.
        """
        self.gate_dds.clear()
        self._mtable.clear()
        dead = [n for n in self._vtable.values() if n.ref == 0]
        removed = 0
        vtable = self._vtable
        while dead:
            node = dead.pop()
            nl = node.low
            nh = node.high
            del vtable[(node.level, nl[0], nl[1], nh[0], nh[1])]
            removed += 1
            for child in (nl[0], nh[0]):
                if child is not TERMINAL:
                    child.ref -= 1
                    if child.ref == 0:
                        dead.append(child)
        self._rebuild_weight_tables()
        return removed

    def _rebuild_weight_tables(self) -> None:
        """Shrink the weight table to the unit seeds and the stored weights.

        Between collections the table gains a cell for every distinct
        weight canonicalized, which on low-redundancy circuits means far
        more cells than the live diagram uses.  Each weight still stored in
        a node keeps its cell and its identity, so snapping stays stable
        for everything alive; a cell held only by reclaimed nodes is
        forgotten and may take a new representative within ``EPS`` on its
        next use.
        """
        old = self._weights
        weights: dict[complex, complex] = {}
        for seed in (1 + 0j, -1 + 0j, 1j, -1j):
            key = _cell(seed)
            weights[key] = old.get(key, seed)
        for node in self._vtable.values():
            for w in (node.low[1], node.high[1]):
                if w != 0:
                    weights.setdefault(_cell(w), w)
        self._weights = weights

    def unique_table_size(self) -> int:
        """Number of vector nodes currently stored (live or not)."""
        return len(self._vtable)

    def check_invariants(self, *handles: "StateDD") -> None:
        """Raise ``AssertionError`` unless the vector-node tables are sound.

        ``handles`` must be every state handle still pinned in this context.
        Checks that each stored node's ``ref`` equals its parent edges in
        the unique table (live or dead) plus the handles rooted at it; that
        each node is normalized, its larger outgoing magnitude within
        ``2 * EPS`` of 1 (a canonical weight lies within ``EPS`` of the
        normalized value in each component, so within ``sqrt(2) * EPS`` in
        magnitude); that each unique-table key matches its node; and that
        each nonzero stored weight is the value the weight table holds for
        its cell, so ``weight(w)`` returns ``w``.  A test aid: it walks
        every table and changes nothing.
        """
        expected: dict[VNode, int] = {node: 0 for node in self._vtable.values()}
        for state in handles:
            if state.root[0] is not TERMINAL:
                expected[state.root[0]] += 1
        for key, node in self._vtable.items():
            nl = node.low
            nh = node.high
            if key != (node.level, nl[0], nl[1], nh[0], nh[1]):
                raise AssertionError(f"unique-table key {key} does not match {node}")
            m = max(abs(nl[1]), abs(nh[1]))
            if abs(m - 1.0) > 2 * EPS:
                raise AssertionError(f"{node} is not normalized: max weight {m!r}")
            for child, w in (nl, nh):
                if child is not TERMINAL:
                    expected[child] += 1
                if w != 0 and self._weights.get(_cell(w)) != w:
                    raise AssertionError(f"{node} stores non-canonical weight {w!r}")
        for node, refs in expected.items():
            if node.ref != refs:
                raise AssertionError(
                    f"{node} has ref {node.ref}, expected {refs} from its "
                    f"parents and pinned handles")

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
        state = StateDD(self, root, num_qubits)
        self.incref(root)
        return state


@dataclass
class StateDD:
    """Handle to a decision diagram representing a ``2**num_qubits`` vector.

    Holding one pins the root against garbage collection; call
    :meth:`release` when a long-running loop is done with an intermediate
    state so :meth:`Context.collect_garbage` can reclaim it.
    """

    context: Context
    root: Edge
    num_qubits: int

    def release(self) -> None:
        self.context.decref(self.root)

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
        memo: dict[int, np.ndarray] = {}

        def expand(node) -> np.ndarray:
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
                        parts.append(w * expand(target))
                got = np.concatenate(parts)
                memo[id(node)] = got
            return got

        return self.root[1] * expand(self.root[0])

    def node_count(self) -> int:
        """Number of distinct non-terminal nodes reachable from the root."""
        return sum(map(len, levels(self.root)))

    def norm(self) -> float:
        """Euclidean norm of the represented vector."""
        return squared_norm(self.root) ** 0.5

    def __repr__(self) -> str:
        return f"StateDD(num_qubits={self.num_qubits}, nodes={self.node_count()})"


def _check_bits(bits: str, num_qubits: int) -> None:
    if len(bits) != num_qubits or any(c not in "01" for c in bits):
        raise ValueError(f"expected a bitstring of length {num_qubits}, got {bits!r}")


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
