"""Gate application and inner products on decision diagrams.

A block of gates, one gate or many, becomes one matrix diagram over only
the qubits it touches; levels it never mentions are skipped entirely
(applying it treats them as identity on the fly).  Every block takes one
path: each gate's columns over the touched qubits are its
:func:`~ddqsim.circuit.gate_entries` with controls folded in as diagonal
blocks, so plain, controlled and permutation gates are alike; the block's
columns start as its first gate's and are composed gate after gate; and
the product, flattened to a sparse ``(row, col) -> weight`` map, is built
into a diagram.  A block spans at most ``FUSION_SPAN`` qubits, since its
matrix is built from ``2**span`` columns.  :func:`apply` splits a window of
gates into such blocks and applies them all in one pass over the state:
the levels above the window's highest touched qubit are rebuilt once, and
at each node on that level the blocks act in order (combined-operation
simulation, as in Zulehner & Wille, "Advanced Simulation of Quantum
Computations", IEEE TCAD 2019).  The drivers in :mod:`ddqsim.strategies`
fuse only runs of monomial gates (see :func:`is_monomial`), whose composed
matrices stay weighted permutations.
A block that is the identity on every touched qubit below it is the
terminal itself, so the recursion ends there and the control-0 halves of
controlled gates and permutations hand the vector sub-diagram back
unchanged.  Matrix nodes are not hash-consed: each diagram owns its nodes,
equal sub-matrices within it share one node through the build memo, and the
finished diagram is cached per gates tuple in ``Context.gate_dds``.  They
are normalized by the largest magnitude, a positive real, and not by a
complex weight as vector nodes are: the build memo shares only equal
blocks, so a phase-canonical rule would share nothing more.

Matrix-vector products and sums are memoized per operation: :func:`apply`
builds two fresh dicts for each pass, passes them down the recursion and
drops them when it returns.  Entries are keyed by the node objects, which is
sound because nodes are hash-consed and a memo holds every node it names
alive until the pass is done.  One pair serves every block of a pass: a
product's key names its matrix node, which belongs to one block's diagram,
and a sum's key names its operands.  A sum of two edges into the same node is
that node with the summed weight; it builds nothing, where adding the two
node by node would walk the whole shared subtree only to find the same
node.  Other addition memos are keyed on the weight ratio of the operands,
so ``a + c*b`` is shared across common rescalings.  Results reused across
passes saved almost nothing, so no compute table outlives its pass.

A released :class:`~ddqsim.dd.StateDD` is refused with ``ValueError``, as
its own methods refuse it.
"""
from __future__ import annotations

from .circuit import Gate, gate_entries
from .dd import (EPS, ONE, TERMINAL, ZERO, CapacityError, Context, Edge,
                 StateDD, collector_paused)

#: Most qubits one block of a window may span.  A block's matrix diagram is
#: built from ``2**span`` columns, so a wider span saves passes over the
#: state but costs more per block.  Measured when each block was a window of
#: its own, with a pass of its own, CPU seconds on a 2-vCPU Xeon VM, best to
#: worst of three: GHZ 500 took 0.96-1.16 unfused, 0.53-0.66 at span 3,
#: 0.38-0.46 at 4, 0.37-0.38 at 6 and 0.65-0.66 at 8; the 13-qubit QFT
#: round trip, whose windows are short and mostly distinct, took
#: 0.024-0.027, 0.026-0.028, 0.036, 0.064 and 0.17.
FUSION_SPAN = 4


class MNode:
    """Matrix-diagram node: four successors ordered (row bit, column bit)."""

    __slots__ = ("level", "edges")

    def __init__(self, level: int, edges: tuple):
        self.level = level
        self.edges = edges

    def __repr__(self) -> str:
        return f"<m{self.level}>"


class Blocks:
    """The matrix roots of a window's blocks, applied in order at each node
    on ``level``, the highest level any of them touches.

    :func:`_mv` takes it where it takes a matrix node: it maps the levels
    above ``level`` through as untouched, once for all blocks.
    """

    __slots__ = ("level", "roots")

    def __init__(self, roots: list):
        self.level = max(m.level for m in roots)
        self.roots = roots


def gate_dd(ctx: Context, *gates: Gate) -> Edge:
    """Matrix diagram of ``gates`` applied in order, cached on the context
    per gates tuple.

    The diagram spans the sorted union of the gates' qubits.  Its sparse
    matrix is the product of the gates' folded columns, composed column by
    column (see :func:`_composed_entries`), for one gate as for many, so a
    run of monomial gates stays one weighted permutation.  A sub-block that
    is the identity on every touched qubit it still spans becomes the edge
    ``(TERMINAL, 1)``, which :func:`_mv` maps to its vector operand
    unchanged.  Gates that are the
    identity on all they touch are that edge as a whole.
    """
    cached = ctx.gate_dds.get(gates)
    if cached is not None:
        return cached
    touched = sorted({q for gate in gates for q in gate.qubits()})
    edge = _build_block(ctx, touched, {}, _composed_entries(gates, touched),
                        len(touched) - 1)
    ctx.gate_dds[gates] = edge
    return edge


def is_monomial(gate: Gate) -> bool:
    """Whether ``gate`` has exactly one nonzero per column, judged from its
    :func:`~ddqsim.circuit.gate_entries`; controls keep that property."""
    entries = gate_entries(gate)
    return len({col for _, col in entries}) == len(entries) == \
        1 << len(gate.targets)


def _blocks(gates):
    """Split ``gates`` greedily into the blocks that :func:`apply` builds
    one matrix diagram each for: runs of consecutive gates whose qubits
    together span at most ``FUSION_SPAN``.  A gate wider than that is a
    block of its own."""
    block: list = []
    span: set = set()
    for gate in gates:
        qubits = set(gate.qubits())
        if block and len(span | qubits) > FUSION_SPAN:
            yield tuple(block)
            block, span = [], set()
        block.append(gate)
        span |= qubits
    if block:
        yield tuple(block)


def _build_block(ctx: Context, touched: list[int], memo: dict, sub: dict,
           p: int) -> Edge:
    """Matrix diagram of the sparse block ``sub`` over local bits ``p..0``.

    ``memo`` maps ``(p, entries)`` to the edges already built for this
    gate, so equal sub-blocks share one node.
    """
    if p < 0:
        return (TERMINAL, sub.get((0, 0), 0j))
    if len(sub) == 2 << p and all(r == c and w == 1
                                  for (r, c), w in sub.items()):
        return ONE
    key = (p, frozenset(sub.items()))
    got = memo.get(key)
    if got is not None:
        return got
    # Split the block into its quadrants, ordered (row bit, column bit), in
    # one pass; an empty quadrant is the zero stub without a call.
    rest = (1 << p) - 1
    parts: tuple = ({}, {}, {}, {})
    for (row, col), w in sub.items():
        parts[(row >> p << 1 | col >> p) & 3][(row & rest, col & rest)] = w
    quads = [_build_block(ctx, touched, memo, part, p - 1) if part else ZERO
             for part in parts]
    # Divide by the largest magnitude, which becomes the incoming weight
    # (see the module docstring for why not by a complex weight).
    m = max(abs(w) for _, w in quads)
    if m <= EPS:
        got = ZERO
    else:
        edges = []
        for target, w in quads:
            w = ctx.weight(w / m)
            edges.append(ZERO if w == 0 else (target, w))
        got = (MNode(touched[p], tuple(edges)), m)
    memo[key] = got
    return got


def _folded_columns(gate: Gate, touched: list[int]) -> list:
    """Columns of ``gate`` over ``touched``, a sorted superset of its
    qubits, with controls folded in: column ``col`` is the list of its
    nonzero ``(row, weight)`` pairs.

    Local bit ``p`` stands for qubit ``touched[p]``.  Control bits act as
    diagonal selectors: columns whose control bits are not all ones hold a
    single ``1`` on the diagonal.  On the all-ones block the target
    unitary's nonzero entries from :func:`ddqsim.circuit.gate_entries` act,
    as they are, on the target bits and leave every other bit as it is.
    """
    tpos = [touched.index(q) for q in gate.targets]
    cmask = 0
    for q in gate.controls:
        cmask |= 1 << touched.index(q)
    tmask = 0
    for p in tpos:
        tmask |= 1 << p
    by_col: dict = {}
    for (tr, tc), w in gate_entries(gate).items():
        by_col.setdefault(tc, []).append((tr, w))

    cols = []
    for col in range(1 << len(touched)):
        if (col & cmask) != cmask:
            # Identity where the control bits are not all ones.
            cols.append([(col, 1.0 + 0j)])
            continue
        tc = 0
        for b, p in enumerate(tpos):
            tc |= ((col >> p) & 1) << b
        rest = col & ~tmask
        rows = []
        for tr, w in by_col.get(tc, ()):
            row = rest
            for b, p in enumerate(tpos):
                row |= ((tr >> b) & 1) << p
            rows.append((row, w))
        cols.append(rows)
    return cols


def _composed_entries(gates: tuple, touched: list[int]) -> dict:
    """Sparse matrix ``(row, col) -> weight`` of ``gates`` applied in
    order, over ``touched``.

    The columns start as the first gate's own (see :func:`_folded_columns`),
    so one gate keeps its entries exactly; every later gate maps each
    ``(row, weight)`` pair of a column through its own column ``row``.  For
    monomial gates a column holds one pair throughout, whose weight is the
    product of one weight per gate.  Products that land on one row are
    summed in the order they arise, which only a gate with two entries in
    one row can cause, and entries that cancel to exactly zero are dropped.
    """
    cols = _folded_columns(gates[0], touched)
    for gate in gates[1:]:
        step = _folded_columns(gate, touched)
        for col, rows in enumerate(cols):
            sums: dict = {}
            for mid, w in rows:
                for row, gw in step[mid]:
                    if row in sums:
                        sums[row] += gw * w
                    else:
                        sums[row] = gw * w
            cols[col] = [(row, w) for row, w in sums.items() if w != 0]
    return {(row, col): w for col, rows in enumerate(cols) for row, w in rows}


def apply(state: StateDD, *gates: Gate) -> StateDD:
    """Apply ``gates`` in order and return the new state (the input is left
    intact).

    The gates split into blocks (see :func:`_blocks`), each one matrix
    diagram from :func:`gate_dd`, and all blocks act in one pass over the
    state: the levels above the highest qubit they touch are walked once,
    and at each node on that level the blocks act in order.  Blocks that
    are the identity on every qubit they touch are skipped.  Several gates
    give the same state as one at a time up to rounding, as their weights
    multiply in another order.  Python's cyclic garbage collector is paused
    while the gates run (see :func:`ddqsim.dd.collector_paused`): a pass
    builds many nodes, and each collection would re-scan the whole live
    diagram.
    """
    if not gates:
        raise ValueError("apply needs at least one gate")
    ctx = state.context
    for gate in gates:
        qs = gate.qubits()
        if len(set(qs)) != len(qs):
            raise ValueError(f"gate {gate.kind} reuses a qubit: {qs}")
        if any(q < 0 or q >= state.num_qubits for q in qs):
            raise ValueError(
                f"gate {gate.kind} addresses a qubit outside the register")
    root, rw = state._live_root()
    with collector_paused():
        roots = []
        mw = 1.0
        for block in _blocks(gates):
            mroot, bw = gate_dd(ctx, *block)
            if mroot is not TERMINAL:
                roots.append(mroot)
                mw *= bw
        if not roots:
            # The gates are the identity on every qubit they touch.
            out, ow = root, 1.0
        else:
            m = roots[0] if len(roots) == 1 else Blocks(roots)
            try:
                out, ow = _mv(ctx, m, root, {}, {})
            except RecursionError as e:
                # _mv recurses once per level above the lowest touched qubit.
                raise CapacityError(
                    f"a {state.num_qubits}-qubit register is too deep for "
                    f"recursive gate application") from e
        w = rw * mw * ow
        # Snap by the state's squared norm, not by the weight: a unit state's
        # root weight is 1/sqrt(norm2), below EPS from 87 qubits on.
        if (w.real * w.real + w.imag * w.imag) * out.norm2 <= EPS * EPS:
            w = 0j
        return ctx.new_state((out, w), state.num_qubits)


def _mv(ctx: Context, m, v, memo: dict, add_memo: dict) -> Edge:
    """Product of a matrix node and a vector node, both weight-stripped.

    ``memo`` holds the products and ``add_memo`` the sums (see :func:`_add`)
    already computed in the current pass.  A matrix edge into the terminal
    is an identity block, so it maps its vector child straight to
    ``(child, weight)`` without a call; ``m`` itself is never the terminal
    (:func:`apply` skips identity blocks).  ``m`` may also be a
    :class:`Blocks`, whose matrix roots act in order on each node on its
    level, their weights left to the caller.  The branches are unrolled by
    hand: this function dominates simulation time, so it avoids loops and
    intermediate sequences on purpose.
    """
    key = (m, v)
    got = memo.get(key)
    if got is not None:
        return got
    if v.level > m.level:
        # The matrix does not touch this qubit: map both children through.
        w = v.low_weight
        if w == 0:
            low = ZERO
        else:
            sub, sw = _mv(ctx, m, v.low_node, memo, add_memo)
            low = (sub, w * sw)
        w = v.high_weight
        if w == 0:
            high = ZERO
        else:
            sub, sw = _mv(ctx, m, v.high_node, memo, add_memo)
            high = (sub, w * sw)
    elif m.__class__ is Blocks:
        # Each block acts on the one before's result; a block below this
        # level descends to its own top through the branch above.
        roots = m.roots
        out = _mv(ctx, roots[0], v, memo, add_memo)
        for mb in roots[1:]:
            sub, w = out
            if w == 0:
                break
            sub, sw = _mv(ctx, mb, sub, memo, add_memo)
            out = (sub, w * sw)
        memo[key] = out
        return out
    else:
        e00, e01, e10, e11 = m.edges
        vl = v.low_node
        wl = v.low_weight
        vh = v.high_node
        wh = v.high_weight
        mt, mw = e00
        if mw == 0 or wl == 0:
            low = ZERO
        elif mt is TERMINAL:
            low = (vl, mw * wl)
        else:
            sub, sw = _mv(ctx, mt, vl, memo, add_memo)
            low = (sub, mw * wl * sw)
        mt, mw = e01
        if mw != 0 and wh != 0:
            if mt is TERMINAL:
                term = (vh, mw * wh)
            else:
                sub, sw = _mv(ctx, mt, vh, memo, add_memo)
                term = (sub, mw * wh * sw)
            low = term if low[1] == 0 else _add(ctx, low, term, add_memo)
        mt, mw = e10
        if mw == 0 or wl == 0:
            high = ZERO
        elif mt is TERMINAL:
            high = (vl, mw * wl)
        else:
            sub, sw = _mv(ctx, mt, vl, memo, add_memo)
            high = (sub, mw * wl * sw)
        mt, mw = e11
        if mw != 0 and wh != 0:
            if mt is TERMINAL:
                term = (vh, mw * wh)
            else:
                sub, sw = _mv(ctx, mt, vh, memo, add_memo)
                term = (sub, mw * wh * sw)
            high = term if high[1] == 0 else _add(ctx, high, term, add_memo)
    out = memo[key] = ctx.make_vnode(v.level, low, high)
    return out


def _add(ctx: Context, a: Edge, b: Edge, memo: dict) -> Edge:
    """Sum of two same-level vector edges (weights included).

    Two edges into one node, the terminal included, sum to that node with
    the summed weight, left raw like every incoming weight, or to ``ZERO``
    where :meth:`Context.weight` would snap that weight to 0; no node is
    built, and the shared subtree is not walked only to find that node
    again.  Child edges into one node are summed the same way inline,
    without a call.  Otherwise ``memo`` maps ``(an, bn, ratio)`` to the
    normalized edge for ``an + ratio*bn``, for the sums already computed in
    the current gate.
    """
    aw = a[1]
    if aw == 0:
        return b
    bw = b[1]
    if bw == 0:
        return a
    an = a[0]
    bn = b[0]
    if an is bn:
        w = aw + bw
        if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
            return ZERO
        return (an, w)
    if an.uid > bn.uid:
        an, bn = bn, an
        aw, bw = bw, aw
    ratio = bw / aw
    if ratio == 0:
        return (an, aw)
    key = (an, bn, ratio)
    got = memo.get(key)
    if got is None:
        t = an.low_node
        tw = an.low_weight
        w = bn.low_weight
        if w == 0:
            low = (t, tw)
        elif tw == 0:
            low = (bn.low_node, ratio * w)
        elif t is bn.low_node:
            w = tw + ratio * w
            if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
                low = ZERO
            else:
                low = (t, w)
        else:
            low = _add(ctx, (t, tw), (bn.low_node, ratio * w), memo)
        t = an.high_node
        tw = an.high_weight
        w = bn.high_weight
        if w == 0:
            high = (t, tw)
        elif tw == 0:
            high = (bn.high_node, ratio * w)
        elif t is bn.high_node:
            w = tw + ratio * w
            if -EPS <= w.real <= EPS and -EPS <= w.imag <= EPS:
                high = ZERO
            else:
                high = (t, w)
        else:
            high = _add(ctx, (t, tw), (bn.high_node, ratio * w), memo)
        got = memo[key] = ctx.make_vnode(an.level, low, high)
    return (got[0], got[1] * aw)


def inner_product(a: StateDD, b: StateDD) -> complex:
    """The Hermitian inner product <a|b> (a's amplitudes conjugated)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have the same number of qubits")
    an, wa = a._live_root()
    bn, wb = b._live_root()
    if wa == 0 or wb == 0:
        return 0j
    try:
        ip = _ip(an, bn, {})
    except RecursionError as e:
        # _ip recurses once per level, like _mv.
        raise CapacityError(
            f"a {a.num_qubits}-qubit register is too deep for the "
            f"recursive inner product") from e
    return complex(wa.conjugate() * wb * ip)


def _ip(x, y, memo: dict) -> complex:
    """<x|y> of two weight-stripped nodes; ``memo`` is keyed by id pairs."""
    if x is TERMINAL:
        return 1.0 + 0j
    key = (id(x), id(y))
    got = memo.get(key)
    if got is None:
        got = 0j
        xw = x.low_weight
        yw = y.low_weight
        if xw != 0 and yw != 0:
            got += xw.conjugate() * yw * _ip(x.low_node, y.low_node, memo)
        xw = x.high_weight
        yw = y.high_weight
        if xw != 0 and yw != 0:
            got += xw.conjugate() * yw * _ip(x.high_node, y.high_node, memo)
        memo[key] = got
    return got


def fidelity(a: StateDD, b: StateDD) -> float:
    """|<a|b>|^2 for unit-norm states, clamped to [0, 1]."""
    ip = inner_product(a, b)
    return min(1.0, ip.real * ip.real + ip.imag * ip.imag)
