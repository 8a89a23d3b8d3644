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
matrix is built from ``2**span`` columns, and holds at most
``FUSION_GATES`` gates.  :func:`apply` splits a window of gates into such
blocks and applies them all in one descent over the state (combined-operation
simulation, as in Zulehner & Wille, "Advanced Simulation of Quantum
Computations", IEEE TCAD 2019): block ``i`` hands its sub-results to the
blocks after it at the highest level any of them touches, so each level is
rebuilt about once per window rather than once per block below it (see
:func:`_mvc`).  The drivers in :mod:`ddqsim.strategies` fuse only runs of
monomial gates (see :func:`is_monomial`), whose composed matrices stay
weighted permutations, in windows of at most ``FUSION_GATES`` blocks.
A block that is the identity on every touched qubit below it is the
terminal itself, so the recursion ends there and the control-0 halves of
controlled gates and permutations hand the vector sub-diagram back
unchanged.  Matrix nodes are not hash-consed: each diagram owns its nodes,
and equal sub-matrices within it share one node through the build memo.
A diagram is built once per shape, the gates with their qubits relabeled
to local ranks, over local levels, cached in ``Context.gate_dds``, and
copied to the touched qubits on each use (see :func:`gate_dd`).  Matrix
nodes are normalized by the largest magnitude, a positive real, and not by
a complex weight as vector nodes are: the build memo shares only equal
blocks, so a phase-canonical rule would share nothing more.

Matrix-vector products and sums are memoized per operation: :func:`apply`
builds two fresh dicts for each call, passes them down the recursion and
drops them when it returns.  Entries are keyed by the node objects, which is
sound because nodes are hash-consed and a memo holds every node it names
alive until the call is done.  One pair serves every block of a window: a
plain product's key ``(m, v)`` names its matrix node, a chained result's
key ``(i, m, v)`` also its block's index, and a sum's key names its
operands.  A sum of two edges into the same node is
that node with the summed weight; it builds nothing, where adding the two
node by node would walk the whole shared subtree only to find the same
node.  Other addition memos are keyed on the weight ratio of the operands,
so ``a + c*b`` is shared across common rescalings.  Results reused across
calls saved almost nothing, so no compute table outlives its call.

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

#: Most gates one block may hold, and most blocks one window of fused
#: monomial gates may hold (see :func:`_blocks` and :func:`fused_windows`).
#: Within a block, each column of its matrix multiplies one weight per gate
#: on its own, so columns whose ratios are equal in exact arithmetic drift
#: apart by rounding that grows with the block, and a product state splits
#: where they straddle a weight cell; the gate bound caps that drift.  A
#: window's blocks share one descent and one pair of memo dicts (see
#: :func:`_mvc`), so the block bound caps what one call holds.  Measured
#: with both roles at once (2-vCPU VM): exact GHZ 500, whose blocks end at
#: the span, ran in 22, 12, 7, 4 and 3 windows at 8, 16, 32, 64 and 128 and
#: created 6,207, 3,807, 2,607, 1,743 and 1,551 nodes (1,167 in 2 windows
#: without a limit), in 0.016-0.028 CPU s at 32 (best to worst of 20); over
#: 40 seeded chains of an H on each of 4 qubits then 4,000 RZ, 42 of 2,680
#: window ends split the product state at 8, 23 of 800 at 16, 7 of 320 at
#: 32 and 3 of 200 at 64, and 14 of the 40 final states split without a
#: limit against 1-3 with one.
FUSION_GATES = 32


class MNode:
    """Matrix-diagram node: four successors ordered (row bit, column bit)."""

    __slots__ = ("level", "edges")

    def __init__(self, level: int, edges: tuple):
        self.level = level
        self.edges = edges

    def __repr__(self) -> str:
        return f"<m{self.level}>"


def gate_dd(ctx: Context, *gates: Gate) -> Edge:
    """Matrix diagram of ``gates`` applied in order, built once per shape.

    The diagram spans the sorted union of the gates' qubits.  Its sparse
    matrix is the product of the gates' folded columns, composed column by
    column (see :func:`_composed_entries`), for one gate as for many, so a
    run of monomial gates stays one weighted permutation.  The gates are
    relabeled to their qubits' ranks among the touched ones, and that shape
    is the key of ``Context.gate_dds``: its diagram is built once over the
    local levels ``0..span-1`` and copied with each level moved to the
    qubit of that rank (see :func:`_place`), so one CX chain shifted down
    the register builds one diagram, and every copy is the fresh build's
    entry for entry.  A sub-block that is the identity on every touched
    qubit it still spans becomes the edge ``(TERMINAL, 1)``, which
    :func:`_mv` maps to its vector operand unchanged.  Gates that are the
    identity on all they touch are that edge as a whole.
    """
    touched = sorted({q for gate in gates for q in gate.qubits()})
    span = len(touched)
    rank = {q: p for p, q in enumerate(touched)}
    shape = tuple(Gate(g.kind, tuple(rank[q] for q in g.targets),
                       tuple(rank[q] for q in g.controls), g.angle, g.table)
                  for g in gates)
    local = ctx.gate_dds.get(shape)
    if local is None:
        local = ctx.gate_dds[shape] = _build_block(
            ctx, {}, _composed_entries(shape, list(range(span))), span - 1)
    if local[0] is TERMINAL or touched[-1] == span - 1:
        # On qubits 0..span-1 the local diagram is its own placement.
        return local
    return (_place(local[0], touched, {}), local[1])


def _place(node: MNode, touched: list[int], copies: dict) -> MNode:
    """A copy of the local matrix diagram under ``node`` with each level
    ``p`` moved to qubit ``touched[p]``; shared nodes stay shared, through
    ``copies``, and weights are kept as they are."""
    got = copies.get(node)
    if got is None:
        edges = []
        for edge in node.edges:
            target = edge[0]
            if target is not TERMINAL:
                edge = (_place(target, touched, copies), edge[1])
            edges.append(edge)
        got = copies[node] = MNode(touched[node.level], tuple(edges))
    return got


def is_monomial(gate: Gate) -> bool:
    """Whether ``gate`` has exactly one nonzero per column, judged from its
    :func:`~ddqsim.circuit.gate_entries`; controls keep that property."""
    entries = gate_entries(gate)
    return len({col for _, col in entries}) == len(entries) == \
        1 << len(gate.targets)


def _blocks(gates):
    """Split ``gates`` greedily into the blocks that :func:`apply` builds
    one matrix diagram each for: runs of at most ``FUSION_GATES``
    consecutive gates whose qubits together span at most ``FUSION_SPAN``.
    A gate wider than that is a block of its own.  This is the one rule
    for both: :func:`fused_windows` cuts windows at these block ends too."""
    block: list = []
    span: set = set()
    for gate in gates:
        qubits = gate.qubits()
        if block and (len(block) == FUSION_GATES
                      or len(span.union(qubits)) > FUSION_SPAN):
            yield tuple(block)
            block, span = [], set()
        block.append(gate)
        span.update(qubits)
    if block:
        yield tuple(block)


def fused_windows(run):
    """Split a run of monomial gates into the windows that
    :mod:`ddqsim.strategies` applies in one :func:`apply` call each: a
    window ends before it would open block ``FUSION_GATES + 1`` of
    :func:`_blocks`, so :func:`apply` splits it into the same blocks."""
    window: list = []
    count = 0
    for block in _blocks(run):
        if count == FUSION_GATES:
            yield window
            window, count = [], 0
        window.extend(block)
        count += 1
    if window:
        yield window


def _build_block(ctx: Context, memo: dict, sub: dict, p: int) -> Edge:
    """Matrix diagram of the sparse block ``sub`` over local levels
    ``p..0``.

    ``memo`` maps ``(p, entries)`` to the edges already built for this
    block, so equal sub-blocks share one node.
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
    quads = [_build_block(ctx, memo, part, p - 1) if part else ZERO
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
        got = (MNode(p, tuple(edges)), m)
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
    diagram from :func:`gate_dd`, and all blocks act in one descent over
    the state (see :func:`_mvc`): each block hands its sub-results to the
    next at the highest level a later block touches, so each level is
    rebuilt about once per call, not once per block.  Blocks that are the
    identity on every qubit they touch are skipped.  Several gates
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
            try:
                if len(roots) == 1:
                    out, ow = _mv(ctx, roots[0], root, {}, {})
                else:
                    # tops[i]: the highest level blocks i+1.. touch, where
                    # block i hands its sub-results on.
                    tops = [-1] * len(roots)
                    for i in range(len(roots) - 1, 0, -1):
                        tops[i - 1] = max(tops[i], roots[i].level)
                    out, ow = _mvc(ctx, roots, tops, 0, roots[0], root, {},
                                   {})
            except RecursionError as e:
                # The kernels recurse once per level above the lowest
                # touched qubit, and once more per hand-off between blocks.
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
    (:func:`apply` skips identity blocks).  The branches are unrolled by
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


def _hand(ctx: Context, roots: list, tops: list, i: int, v, memo: dict,
          add_memo: dict) -> Edge:
    """Blocks ``i..`` of a window applied in order to the vector node
    ``v``, which lies on or above block ``i``'s top level."""
    if i == len(roots) - 1:
        return _mv(ctx, roots[i], v, memo, add_memo)
    return _mvc(ctx, roots, tops, i, roots[i], v, memo, add_memo)


def _mvc(ctx: Context, roots: list, tops: list, i: int, m, v, memo: dict,
         add_memo: dict) -> Edge:
    """Blocks ``i+1..`` applied to the product of ``m``, a node of block
    ``i``'s diagram, and the vector node ``v``; the blocks' root weights
    are left to the caller.

    ``roots`` holds the window's matrix roots in order, and ``tops[i]`` the
    highest level any block after ``i`` touches.  Above that level this is
    :func:`_mv`'s descent, except that each sub-product takes the later
    blocks with it: a matrix edge into the terminal hands its vector child
    straight to block ``i+1`` (see :func:`_hand`), and at a node on level
    ``tops[i]`` block ``i``'s plain product from :func:`_mv` is handed on.
    This is sound because the later blocks are the identity on every level
    above ``tops[i]``, so they commute with the sums formed there.  Results
    are memoized under ``(i, m, v)``: one diagram may serve two blocks of a
    window, and its plain products keep their ``(m, v)`` keys.  Unrolled as
    :func:`_mv` is.
    """
    key = (i, m, v)
    got = memo.get(key)
    if got is not None:
        return got
    if v.level <= tops[i]:
        sub, sw = _mv(ctx, m, v, memo, add_memo)
        if sw == 0:
            out = ZERO
        else:
            sub, w = _hand(ctx, roots, tops, i + 1, sub, memo, add_memo)
            out = (sub, sw * w)
        memo[key] = out
        return out
    if v.level > m.level:
        # Block i does not touch this qubit: map both children through.
        w = v.low_weight
        if w == 0:
            low = ZERO
        else:
            sub, sw = _mvc(ctx, roots, tops, i, m, v.low_node, memo, add_memo)
            low = (sub, w * sw)
        w = v.high_weight
        if w == 0:
            high = ZERO
        else:
            sub, sw = _mvc(ctx, roots, tops, i, m, v.high_node, memo,
                           add_memo)
            high = (sub, w * sw)
    else:
        e00, e01, e10, e11 = m.edges
        vl = v.low_node
        wl = v.low_weight
        vh = v.high_node
        wh = v.high_weight
        mt, mw = e00
        if mw == 0 or wl == 0:
            low = ZERO
        else:
            if mt is TERMINAL:
                sub, sw = _hand(ctx, roots, tops, i + 1, vl, memo, add_memo)
            else:
                sub, sw = _mvc(ctx, roots, tops, i, mt, vl, memo, add_memo)
            low = (sub, mw * wl * sw)
        mt, mw = e01
        if mw != 0 and wh != 0:
            if mt is TERMINAL:
                sub, sw = _hand(ctx, roots, tops, i + 1, vh, memo, add_memo)
            else:
                sub, sw = _mvc(ctx, roots, tops, i, mt, vh, memo, add_memo)
            term = (sub, mw * wh * sw)
            low = term if low[1] == 0 else _add(ctx, low, term, add_memo)
        mt, mw = e10
        if mw == 0 or wl == 0:
            high = ZERO
        else:
            if mt is TERMINAL:
                sub, sw = _hand(ctx, roots, tops, i + 1, vl, memo, add_memo)
            else:
                sub, sw = _mvc(ctx, roots, tops, i, mt, vl, memo, add_memo)
            high = (sub, mw * wl * sw)
        mt, mw = e11
        if mw != 0 and wh != 0:
            if mt is TERMINAL:
                sub, sw = _hand(ctx, roots, tops, i + 1, vh, memo, add_memo)
            else:
                sub, sw = _mvc(ctx, roots, tops, i, mt, vh, memo, add_memo)
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
