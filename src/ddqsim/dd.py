"""Hash-consed decision diagrams for quantum state vectors.

A state over ``n`` qubits is stored as a rooted DAG: each node splits on one
qubit (level ``n-1`` at the root, level 0 at the bottom) and carries two
weighted edges for that qubit being 0 ("low") or 1 ("high").  The amplitude
of a basis state is the product of edge weights along the corresponding
root-to-terminal path; a zero-weight edge is a stub that short-circuits the
whole subtree to zero.  Structurally identical nodes are stored once per
:class:`Context` (hash-consing), so equal sub-vectors share memory.

A node holds its two edges in its own slots, a target and a weight each
(see :class:`VNode`), so a node is one object to allocate, to free and for
the cyclic collector to track.  ``low`` and ``high`` are read-only views
that pair a slot's target and weight into a tuple, for callers outside the
kernels.  Edges passed between functions, the one :meth:`Context.make_vnode`
returns included, stay plain ``(target, weight)`` tuples; this module sits
on every hot path, so they are raw tuples rather than a class.  ``ZERO`` is
the unique zero stub ``(TERMINAL, 0j)``, and a node stores a zero edge as
the target ``TERMINAL`` with weight ``0j``.

Conventions pinned here and relied on by every other module:

* Normalization: the outgoing weights of a node are divided by the complex
  weight of its chosen edge, and that factor is pushed into the incoming
  edge, so the chosen edge stores exactly ``1+0j``.  The chosen edge is the
  low one unless the high weight's magnitude exceeds the low one's by more
  than a factor ``1 + EPS``; the tolerance keeps rounding dust from
  flipping the choice between near-equal magnitudes, and the other edge's
  magnitude is at most ``1 + EPS``.  Sub-vectors that agree up to any
  complex factor therefore share one node (a product state has one node
  per qubit), and the root weight of a state carries its global phase.  A
  sum of two edges into the same node reuses that node under the summed
  weight instead of walking the shared subtree to find it again.
* Norms: each node stores the squared norm of its own sub-vector, without
  the incoming weight, as ``norm2`` (the terminal's is 1), computed when the
  node is made from its stored weights and its children's ``norm2``, so a
  state's norm is a lookup, not a walk.
* Descent: every nonzero edge of a node leads exactly one level down (a
  level-0 node's to the terminal) and every zero edge is the zero stub, so a
  node is reached only at its own level, and the children of one level's
  nodes are exactly the next level's.  :func:`levels`, the one walk over a
  whole diagram that counting, dense expansion and the contribution pass
  share, relies on that, and :meth:`Context.check_invariants` checks it.
* Weights: a node is stored under the cells of its outgoing weights on a
  grid of cell size ``EPS`` per component (see :func:`_node_key`), so
  sub-vectors whose normalized weights differ only by rounding dust share
  one node, and the unique table cannot fill up with near-duplicates.  A
  node keeps the raw normalized weights of the computation that built it,
  for as long as it stays in the table (see Liveness).  Weights within
  ``EPS`` of zero in both components become the zero stub.  Incoming scale
  factors stay raw.
* Index convention: bitstring ``b_{n-1}...b_0`` (qubit ``n-1`` written first)
  maps to the integer index with ``b_{n-1}`` most significant.
* Liveness: CPython's reference counts decide it.  The unique table holds
  each node strongly, under a key that names its children by ``uid``, in
  creation order.  A node that no live parent's edge and no
  :class:`StateDD` root holds is dead: it stays in the table, where a later
  lookup finds it again, until :meth:`Context.collect_garbage` frees it.
* No cycles: nodes point only down, at their children, and no helper is a
  closure that calls itself (a recursive walk is a module-level function
  that takes its memo and context as arguments).  The engine therefore
  makes no reference cycles: Python's reference counting frees a dropped
  memo or context at once, and a dead node when the sweep drops its entry
  (see Liveness).  Gate application and the drivers in
  :mod:`ddqsim.strategies` pause the cyclic garbage collector (see
  :func:`collector_paused`).
* Dense paths: numpy is imported only by the functions that take or return
  a dense vector (:meth:`Context.from_dense`, :meth:`StateDD.to_dense` and
  its helpers), so building and simulating diagrams never loads it.

A :class:`Context` owns all tables and is meant for single-threaded use;
independent contexts may run concurrently in separate threads or processes.
"""
from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


@contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector for the block, and switch it
    back on afterwards only if it was on before, also when the block raises.

    The engine makes no reference cycles (see Conventions), so reference
    counting and :meth:`Context.collect_garbage` free everything a block
    drops, and the collector would only re-scan the live diagram again and
    again.  Inside a block where the collector is already off, this leaves
    it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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


#: Cell of the weight ``1+0j`` that every node's chosen edge stores.
_UNIT_CELL = _cell(1.0 + 0j)


class Terminal:
    """Shared sink of every diagram; represents the scalar 1."""

    __slots__ = ()
    level = -1
    uid = 0
    norm2 = 1.0

    def __repr__(self) -> str:
        return "<terminal>"


TERMINAL = Terminal()

#: The unique zero stub: weight 0, pointing at the terminal.
ZERO = (TERMINAL, 0j)
ONE = (TERMINAL, 1.0 + 0j)


class VNode:
    """Vector-diagram node: one qubit split into low/high sub-vectors, and
    the squared norm ``norm2`` of its sub-vector (see Conventions).

    The two edges live in the node's own slots, a target and a weight each
    (``low_node``, ``low_weight``, ``high_node``, ``high_weight``), so a node
    is a single object; a zero edge is the target ``TERMINAL`` with weight
    ``0j``.  ``low`` and ``high`` are read-only views that pair a slot's
    target and weight into an edge tuple (``ZERO`` for a zero edge); the
    kernels read the slots instead.  A live node costs about 327 bytes with
    its unique-table entry and its weights (tracemalloc over the 53,248-node
    final state of fidelity-driven Shor 35 with markers, CPython 3.11,
    64-bit).
    """

    __slots__ = ("level", "low_node", "low_weight", "high_node", "high_weight",
                 "uid", "norm2")

    def __init__(self, level: int, low_node, low_weight: complex, high_node,
                 high_weight: complex, uid: int, norm2: float):
        self.level = level
        self.low_node = low_node
        self.low_weight = low_weight
        self.high_node = high_node
        self.high_weight = high_weight
        self.uid = uid
        self.norm2 = norm2

    @property
    def low(self) -> Edge:
        """The low edge as a ``(target, weight)`` tuple."""
        w = self.low_weight
        return ZERO if w == 0 else (self.low_node, w)

    @property
    def high(self) -> Edge:
        """The high edge as a ``(target, weight)`` tuple."""
        w = self.high_weight
        return ZERO if w == 0 else (self.high_node, w)

    def __repr__(self) -> str:
        return f"<q{self.level} #{self.uid}>"


def _node_key(node: VNode) -> tuple:
    """Unique-table key of ``node``: its level, and per edge the target's
    ``uid`` and the weight's :func:`_cell` (``0j`` for a zero edge).

    :meth:`Context.make_vnode` computes the same key inline.
    """
    return (node.level, node.low_node.uid, _cell(node.low_weight),
            node.high_node.uid, _cell(node.high_weight))


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
    """Owner of the vector-node unique table and the gate-diagram cache.

    All diagrams created through one context live in its tables; diagrams
    from different contexts must not be combined by operations that create
    nodes.  The table holds its nodes strongly (see Conventions), and
    :meth:`collect_garbage` frees the ones nothing else holds.

    Operations memoize in dicts of their own that live for one gate, not in
    the context.  ``apply_cache`` and ``add_cache`` are unused bounded
    tables, kept for the benchmark tracer that swaps them for counting
    tables; ``compute_table_size`` only sizes them.
    """

    def __init__(self, compute_table_size: int = DEFAULT_COMPUTE_TABLE_SIZE):
        # Always empty: nodes are keyed by weight cell and no weight table
        # exists.  Kept only because the benchmark tracer reads its length.
        self._weights: dict = {}
        # Node key -> node, in creation order.
        self._vtable: dict = {}
        self._next_uid = 1
        # Not read by this package; see DEFAULT_COMPUTE_TABLE_SIZE.
        self.apply_cache = BoundedCache(compute_table_size)
        self.add_cache = BoundedCache(compute_table_size)
        self.gate_dds: dict = {}

    # -- weights ---------------------------------------------------------

    def weight(self, z: complex) -> complex:
        """``z`` as a complex, or exact zero if it lies within ``EPS`` of
        zero in both components.

        Node weights get the same snap inside :meth:`make_vnode`; matrix
        weights and dense amplitudes get it here.  A root weight is snapped
        only when the whole state's squared norm is below ``EPS**2``.
        """
        re = z.real
        im = z.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            return 0j
        return complex(re, im)

    # -- node construction ----------------------------------------------

    def make_vnode(self, level: int, low: Edge, high: Edge) -> Edge:
        """Build (or find) the node over ``low``/``high``.

        Returns the normalized edge into the node.  The chosen edge is the
        low one unless the high weight's magnitude exceeds the low one's by
        more than a factor ``1 + EPS``; both outgoing weights are divided by
        the chosen weight, a complex number returned raw as the new edge
        weight, so the chosen edge stores exactly ``1+0j``.  The tolerance
        keeps rounding dust from flipping the choice between near-equal
        magnitudes.  A child whose relative weight falls below ``EPS``
        collapses to the zero stub; if everything vanishes, so does the
        node.  The node is looked up under :func:`_node_key` of the
        normalized edges: a node found, also a dead one not yet swept, keeps
        the weights it was built with, which lie in the same cells as the
        ones asked for; a node built stores the normalized weights as they
        are, and as ``norm2`` the chosen child's plus the other weight's
        squared magnitude times the other child's.
        """
        wl = low[1]
        wh = high[1]
        ml = abs(wl)
        mh = abs(wh)
        # _node_key, inlined: this runs for every node built.  The chosen
        # edge's cell is _UNIT_CELL; the other quotient has components of
        # magnitude at most about 1, so its snapped cell needs no range
        # check (see _cell).
        if mh > ml * (1.0 + EPS):
            if mh <= EPS:
                return ZERO
            w = wl / wh
            re = w.real
            im = w.imag
            if -EPS <= re <= EPS and -EPS <= im <= EPS:
                key = (level, 0, 0j, high[0].uid, _UNIT_CELL)
            else:
                key = (level, low[0].uid, w / EPS + _SNAP - _SNAP,
                       high[0].uid, _UNIT_CELL)
            node = self._vtable.get(key)
            if node is None:
                hn = high[0]
                if key[2] == 0:
                    node = VNode(level, TERMINAL, 0j, hn, 1.0 + 0j,
                                 self._next_uid, hn.norm2)
                else:
                    ln = low[0]
                    node = VNode(level, ln, w, hn, 1.0 + 0j, self._next_uid,
                                 hn.norm2 + (re * re + im * im) * ln.norm2)
                self._next_uid += 1
                self._vtable[key] = node
            return (node, wh)
        if ml <= EPS:
            return ZERO
        w = wh / wl
        re = w.real
        im = w.imag
        if -EPS <= re <= EPS and -EPS <= im <= EPS:
            key = (level, low[0].uid, _UNIT_CELL, 0, 0j)
        else:
            key = (level, low[0].uid, _UNIT_CELL, high[0].uid,
                   w / EPS + _SNAP - _SNAP)
        node = self._vtable.get(key)
        if node is None:
            ln = low[0]
            if key[4] == 0:
                node = VNode(level, ln, 1.0 + 0j, TERMINAL, 0j,
                             self._next_uid, ln.norm2)
            else:
                hn = high[0]
                node = VNode(level, ln, 1.0 + 0j, hn, w, self._next_uid,
                             ln.norm2 + (re * re + im * im) * hn.norm2)
            self._next_uid += 1
            self._vtable[key] = node
        return (node, wl)

    # -- garbage collection ----------------------------------------------

    def collect_garbage(self) -> int:
        """Free the nodes that only the unique table holds; returns how
        many entries were dropped.

        The table is in creation order (an entry is never replaced) and a
        node is made after its children, so a walk newest first meets every
        parent before its children.  The walk reads snapshots of the
        table's keys and nodes, so it never looks a key up; it drops the
        snapshot's hold on each node as it reaches it, and deletes each
        entry whose node nothing else holds (``sys.getrefcount`` 3 on
        CPython 3.10-3.12: the table's reference, the walk's and the
        call's).  The node is freed, with its hold on its children, when the
        walk moves on, before it reaches them, so one pass frees a whole
        dead diagram without recursion.  The live entries are then copied,
        in order, into a fresh dict that returns the memory the dead ones
        held; live nodes keep their weights and their keys.  ``gate_dds``
        is cleared too and rebuilt on demand, so a long run of distinct
        parametric gates cannot grow it without bound.
        """
        self.gate_dds.clear()
        vtable = self._vtable
        before = len(vtable)
        keys = list(vtable)
        nodes = list(vtable.values())
        for i in range(before - 1, -1, -1):
            node = nodes[i]
            nodes[i] = None
            if sys.getrefcount(node) == 3:
                del vtable[keys[i]]
        self._vtable = dict(vtable)
        return before - len(self._vtable)

    def unique_table_size(self) -> int:
        """Number of unique-table entries, dead nodes included until the
        next :meth:`collect_garbage`."""
        return len(self._vtable)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the vector-node table is sound.

        Checks that the table is in creation order (``uid`` rises along it),
        which the one-pass sweep of :meth:`collect_garbage` relies on.  For
        each node, dead ones included, checks that its key names its level,
        the uids of its edge targets and the cells of its stored
        weights (a weight outside the cell its key names is non-canonical);
        that it is normalized, its chosen edge (the low one unless that is
        not exactly 1) storing exactly ``1+0j`` and the other edge a
        magnitude of at most ``1 + EPS`` up to rounding (checked to
        ``1 + 2 * EPS``); that each nonzero edge leads exactly one level down
        and each zero edge is the zero stub, which
        :func:`levels` relies on; that every nonzero child is
        the node stored under its own key; and that its ``norm2`` is
        bit for bit the one its weights and children give.  A test aid: it
        changes nothing.
        """
        vtable = self._vtable
        uids = [node.uid for node in vtable.values()]
        if uids != sorted(set(uids)):
            raise AssertionError("unique-table order is not creation order")
        for key, node in vtable.items():
            ln = node.low_node
            lw = node.low_weight
            hn = node.high_node
            hw = node.high_weight
            if (key[0], key[1], key[3]) != (node.level, ln.uid, hn.uid):
                raise AssertionError(f"unique-table key {key} does not match {node}")
            if (key[2], key[4]) != (_cell(lw), _cell(hw)):
                raise AssertionError(
                    f"{node} stores a non-canonical weight: {lw!r} and "
                    f"{hw!r} do not lie in the cells of key {key}")
            chosen, other = (lw, hw) if lw == 1 else (hw, lw)
            if chosen != 1:
                raise AssertionError(
                    f"{node} is not normalized: neither weight is 1 in "
                    f"magnitude and phase ({lw!r}, {hw!r})")
            if abs(other) > 1.0 + 2 * EPS:
                raise AssertionError(
                    f"{node} is not normalized: its other weight {other!r} "
                    f"exceeds magnitude 1 + EPS")
            norm2 = 0.0
            for target, w in ((ln, lw), (hn, hw)):
                if target.level != (node.level - 1 if w != 0 else -1):
                    raise AssertionError(
                        f"{node} has an edge to {target} that neither leads "
                        f"one level down nor is the zero stub")
                if w != 0:
                    if target is not TERMINAL:
                        if vtable.get(_node_key(target)) is not target:
                            raise AssertionError(
                                f"{target}, reachable from {node}, is not "
                                f"stored under its key")
                    norm2 += (w.real * w.real + w.imag * w.imag) * target.norm2
            if node.norm2 != norm2:
                raise AssertionError(
                    f"{node} stores a squared norm {node.norm2!r} that its "
                    f"weights and children give as {norm2!r}")

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
        """Build the canonical diagram of a unit-norm amplitude vector.

        Imports numpy, as every dense path does (see Conventions).
        """
        import numpy as np

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
        """Wrap a root edge as a state handle (low-level); the handle's
        reference to the root keeps the diagram alive."""
        return StateDD(self, root, num_qubits)


@dataclass
class StateDD:
    """Handle to a decision diagram representing a ``2**num_qubits`` vector.

    The handle holds its root edge, and so keeps alive every node the root
    reaches; the nodes nothing else holds are freed by the next
    :meth:`Context.collect_garbage` after the last handle drops them (see
    the ``dd`` Conventions).
    """

    context: Context
    root: Edge
    num_qubits: int

    def release(self) -> None:
        """Drop this handle's root (it becomes ``None``), so the next
        :meth:`Context.collect_garbage` frees the nodes that only this handle
        held, even while the handle lives on.

        A released handle prints as released, and reading its state
        (:meth:`amplitude`, :meth:`to_dense`, :meth:`node_count`,
        :meth:`norm`) raises ``ValueError``.
        """
        self.root = None

    def _live_root(self) -> Edge:
        """The root edge, or ``ValueError`` if the handle was released."""
        root = self.root
        if root is None:
            raise ValueError("this StateDD was released; its root is gone")
        return root

    def amplitude(self, bits: str) -> complex:
        """Product of edge weights along the path selected by ``bits``.

        Factors multiply bottom-up, in the same association order as
        :meth:`to_dense` and with the same complex product (see
        :func:`_scaled`), so both report bit-identical values.
        """
        _check_bits(bits, self.num_qubits)
        node, rw = self._live_root()
        if rw == 0:
            return 0j
        path = []
        for ch in bits:
            if ch == "0":
                w = node.low_weight
                node = node.low_node
            else:
                w = node.high_weight
                node = node.high_node
            if w == 0:
                return 0j
            path.append(w)
        acc = 1.0 + 0j
        while path:
            acc = path.pop() * acc
        return complex(rw * acc)

    def to_dense(self) -> np.ndarray:
        """Expand to the full amplitude vector of ``2**num_qubits`` entries,
        all zero for the zero state (guarded above 20 qubits).

        Loads numpy, through :func:`_expand` and :func:`_scaled`.
        """
        root = self._live_root()
        if self.num_qubits > DENSE_QUBIT_LIMIT:
            raise CapacityError(
                f"refusing dense expansion of {self.num_qubits} qubits "
                f"(limit {DENSE_QUBIT_LIMIT})")
        return _expand(root, self.num_qubits)

    def node_count(self) -> int:
        """Number of distinct non-terminal nodes reachable from the root:
        the sizes of the :func:`levels` of the root, summed."""
        return sum(map(len, levels(self._live_root())))

    def norm(self) -> float:
        """Euclidean norm of the represented vector."""
        return squared_norm(self._live_root()) ** 0.5

    def __repr__(self) -> str:
        if self.root is None:
            return f"StateDD(num_qubits={self.num_qubits}, released)"
        return f"StateDD(num_qubits={self.num_qubits}, nodes={self.node_count()})"


def _check_bits(bits: str, num_qubits: int) -> None:
    if len(bits) != num_qubits or any(c not in "01" for c in bits):
        raise ValueError(f"expected a bitstring of length {num_qubits}, got {bits!r}")


def _expand(root: Edge, num_qubits: int) -> np.ndarray:
    """Dense vector of ``root`` over ``num_qubits`` qubits.

    Fills each node's weight-stripped sub-vector bottom-up over the
    :func:`levels` of ``root``: a level's children are all on the level
    below (see Descent), so only that level's sub-vectors are kept while the
    next is filled.  The root node's is then scaled by the root weight.  A
    zero root gives ``2**num_qubits`` zeros.  Imports numpy; see
    :meth:`StateDD.to_dense`.
    """
    import numpy as np

    node, w = root
    if w == 0:
        return np.zeros(1 << num_qubits, dtype=complex)
    below = {TERMINAL: np.ones(1, dtype=complex)}
    for level in reversed(levels(root)):
        dense = {}
        for n in level:
            half = 1 << n.level
            dense[n] = np.concatenate([
                _scaled(cw, below[target]) if cw != 0
                else np.zeros(half, dtype=complex)
                for target, cw in ((n.low_node, n.low_weight),
                                   (n.high_node, n.high_weight))])
        below = dense
    return _scaled(w, below[node])


def _scaled(w: complex, v: np.ndarray) -> np.ndarray:
    """``w * v`` by CPython's complex product, component by component.

    NumPy's complex multiply may fuse a multiply and an add into one
    rounding, so it can differ in the last bit from the Python product that
    :meth:`StateDD.amplitude` takes; separate float operations round each
    step as Python does.  Imports numpy; see :meth:`StateDD.to_dense`.
    """
    import numpy as np

    out = np.empty_like(v)
    out.real = w.real * v.real - w.imag * v.imag
    out.imag = w.real * v.imag + w.imag * v.real
    return out


def levels(root: Edge) -> list[dict[VNode, None]]:
    """Nodes reachable from ``root``, level by level, root level first.

    A breadth-first level-set walk: each level is an insertion-ordered dict
    whose keys are that level's nodes (its values are ``None``), in the
    order the level above first reaches them, each parent's low child before
    its high child.  Every nonzero edge descends exactly one level (see
    Descent in the Conventions), so the children of one level are exactly
    the next level, no node is met at two levels, and the levels in order
    put parents before children.  The dicts are returned as they are, so
    counting a level is ``len`` and no copy is made.  Masses over shared
    nodes are summed in this order, which decides near-ties between removal
    candidates.
    """
    node, w = root
    if w == 0 or node is TERMINAL:
        return []
    level = {node: None}
    out = [level]
    while True:
        below: dict[VNode, None] = {}
        for node in level:
            below[node.low_node] = None
            below[node.high_node] = None
        # A zero edge points at the terminal, as do level 0's edges.
        below.pop(TERMINAL, None)
        if not below:
            return out
        out.append(below)
        level = below


def subtree_norms(root: Edge) -> dict[int, float]:
    """Every reachable node's cached ``norm2``, keyed by id.

    The value excludes the incoming edge weight; the terminal's implicit
    value is 1 and is not part of the map.
    """
    return {id(node): node.norm2 for level in levels(root) for node in level}


def squared_norm(root: Edge) -> float:
    """Squared Euclidean norm of the vector represented by ``root``, in
    O(1): the squared root weight times the root node's ``norm2``."""
    w = root[1]
    return (w.real * w.real + w.imag * w.imag) * root[0].norm2
