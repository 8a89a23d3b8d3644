"""Gate application and inner products on decision diagrams.

A gate becomes a matrix diagram over only the qubits it touches; levels it
never mentions are skipped entirely (applying it treats them as identity on
the fly).  Matrix diagrams are built from a sparse ``(row, col) -> weight``
map over the touched qubits with controls folded in as diagonal blocks, so
one code path covers plain, controlled and permutation gates.

Matrix-vector products and sums are memoized per operation: :func:`apply`
builds two fresh dicts for each gate, passes them down the recursion and
drops them when it returns.  Entries are keyed by the node objects, which is
sound because nodes are hash-consed and no garbage collection runs inside a
gate.  Addition memos are keyed on the weight ratio of the operands, so
``a + c*b`` is shared across common rescalings.  Results reused across gates
saved almost nothing, so no compute table outlives its gate.
"""
from __future__ import annotations

from .circuit import Gate, gate_matrix
from .dd import TERMINAL, ZERO, CapacityError, Context, Edge, StateDD


def gate_dd(ctx: Context, gate: Gate) -> Edge:
    """Matrix diagram for ``gate``, cached on the context per gate value."""
    cached = ctx.gate_dds.get(gate)
    if cached is not None:
        return cached
    touched = sorted(gate.qubits())
    entries = _folded_entries(gate, touched)
    memo: dict = {}

    def build(sub: dict, p: int) -> Edge:
        if p < 0:
            return (TERMINAL, sub.get((0, 0), 0j))
        key = (p, frozenset(sub.items()))
        got = memo.get(key)
        if got is not None:
            return got
        mask = 1 << p
        quads = []
        for r in (0, 1):
            for c in (0, 1):
                part = {(row & ~mask, col & ~mask): w
                        for (row, col), w in sub.items()
                        if (row & mask) == r * mask and (col & mask) == c * mask}
                quads.append(build(part, p - 1))
        got = ctx.make_mnode(touched[p], tuple(quads))
        memo[key] = got
        return got

    edge = build(entries, len(touched) - 1)
    ctx.gate_dds[gate] = edge
    return edge


def _folded_entries(gate: Gate, touched: list[int]) -> dict:
    """Sparse matrix over the touched qubits with controls folded in.

    Local bit ``p`` stands for qubit ``touched[p]``.  Control bits act as
    diagonal selectors: rows/columns whose control bits are not all ones lie
    on an identity block.
    """
    u = gate_matrix(gate)
    tpos = [touched.index(q) for q in gate.targets]
    cmask = 0
    for q in gate.controls:
        cmask |= 1 << touched.index(q)

    entries: dict = {}
    # Identity on every assignment whose control bits are not all ones.
    for bits in range(1 << len(touched)):
        if (bits & cmask) != cmask:
            entries[(bits, bits)] = 1.0 + 0j
    # The target unitary on the all-ones control block.
    for tr, tc in zip(*u.nonzero()):
        row = cmask
        col = cmask
        for b, p in enumerate(tpos):
            row |= ((int(tr) >> b) & 1) << p
            col |= ((int(tc) >> b) & 1) << p
        entries[(row, col)] = complex(u[tr, tc])
    return entries


def apply(state: StateDD, gate: Gate) -> StateDD:
    """Apply ``gate`` and return the new state (the input is left intact)."""
    ctx = state.context
    qs = gate.qubits()
    if len(set(qs)) != len(qs):
        raise ValueError(f"gate {gate.kind} reuses a qubit: {qs}")
    if any(q < 0 or q >= state.num_qubits for q in qs):
        raise ValueError(f"gate {gate.kind} addresses a qubit outside the register")
    mroot, mw = gate_dd(ctx, gate)
    try:
        out, ow = _mv(ctx, mroot, state.root[0], {}, {})
    except RecursionError as e:
        # _mv recurses once per level above the gate's lowest touched qubit.
        raise CapacityError(
            f"a {state.num_qubits}-qubit register is too deep for "
            f"recursive gate application") from e
    w = ctx.weight(state.root[1] * mw * ow)
    return ctx.new_state((out, w), state.num_qubits)


def _mv(ctx: Context, m, v, memo: dict, add_memo: dict) -> Edge:
    """Product of a matrix node and a vector node, both weight-stripped.

    ``memo`` holds the products and ``add_memo`` the sums (see :func:`_add`)
    already computed for the current gate.  The branches are unrolled by
    hand: this function dominates simulation time, so it avoids loops and
    intermediate sequences on purpose.
    """
    if m is TERMINAL:
        return (v, 1.0)
    key = (m, v)
    got = memo.get(key)
    if got is not None:
        return got
    vl = v.low
    vh = v.high
    if v.level > m.level:
        # The matrix does not touch this qubit: map both children through.
        w = vl[1]
        if w == 0:
            low = ZERO
        else:
            sub, sw = _mv(ctx, m, vl[0], memo, add_memo)
            low = (sub, w * sw)
        w = vh[1]
        if w == 0:
            high = ZERO
        else:
            sub, sw = _mv(ctx, m, vh[0], memo, add_memo)
            high = (sub, w * sw)
    else:
        e00, e01, e10, e11 = m.edges
        wl = vl[1]
        wh = vh[1]
        mw = e00[1]
        if mw == 0 or wl == 0:
            low = ZERO
        else:
            sub, sw = _mv(ctx, e00[0], vl[0], memo, add_memo)
            low = (sub, mw * wl * sw)
        mw = e01[1]
        if mw != 0 and wh != 0:
            sub, sw = _mv(ctx, e01[0], vh[0], memo, add_memo)
            term = (sub, mw * wh * sw)
            low = term if low[1] == 0 else _add(ctx, low, term, add_memo)
        mw = e10[1]
        if mw == 0 or wl == 0:
            high = ZERO
        else:
            sub, sw = _mv(ctx, e10[0], vl[0], memo, add_memo)
            high = (sub, mw * wl * sw)
        mw = e11[1]
        if mw != 0 and wh != 0:
            sub, sw = _mv(ctx, e11[0], vh[0], memo, add_memo)
            term = (sub, mw * wh * sw)
            high = term if high[1] == 0 else _add(ctx, high, term, add_memo)
    out = memo[key] = ctx.make_vnode(v.level, low, high)
    return out


def _add(ctx: Context, a: Edge, b: Edge, memo: dict) -> Edge:
    """Sum of two same-level vector edges (weights included).

    ``memo`` maps ``(an, bn, ratio)`` to the normalized edge for
    ``an + ratio*bn``, for the sums already computed in the current gate.
    """
    aw = a[1]
    if aw == 0:
        return b
    bw = b[1]
    if bw == 0:
        return a
    an = a[0]
    bn = b[0]
    if an is TERMINAL and bn is TERMINAL:
        return (TERMINAL, ctx.weight(aw + bw))
    if an.uid > bn.uid:
        an, bn = bn, an
        aw, bw = bw, aw
    ratio = bw / aw
    if ratio == 0:
        return (an, aw)
    key = (an, bn, ratio)
    got = memo.get(key)
    if got is None:
        al = an.low
        bl = bn.low
        w = bl[1]
        if w == 0:
            low = al
        elif al[1] == 0:
            low = (bl[0], ratio * w)
        else:
            low = _add(ctx, al, (bl[0], ratio * w), memo)
        ah = an.high
        bh = bn.high
        w = bh[1]
        if w == 0:
            high = ah
        elif ah[1] == 0:
            high = (bh[0], ratio * w)
        else:
            high = _add(ctx, ah, (bh[0], ratio * w), memo)
        got = memo[key] = ctx.make_vnode(an.level, low, high)
    return (got[0], got[1] * aw)


def inner_product(a: StateDD, b: StateDD) -> complex:
    """The Hermitian inner product <a|b> (a's amplitudes conjugated)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have the same number of qubits")
    memo: dict = {}

    def rec(x, y) -> complex:
        if x is TERMINAL:
            return 1.0 + 0j
        key = (id(x), id(y))
        got = memo.get(key)
        if got is None:
            got = 0j
            for (xt, xw), (yt, yw) in ((x.low, y.low), (x.high, y.high)):
                if xw != 0 and yw != 0:
                    got += xw.conjugate() * yw * rec(xt, yt)
            memo[key] = got
        return got

    wa = a.root[1]
    wb = b.root[1]
    if wa == 0 or wb == 0:
        return 0j
    try:
        ip = rec(a.root[0], b.root[0])
    except RecursionError as e:
        # rec recurses once per level, like _mv.
        raise CapacityError(
            f"a {a.num_qubits}-qubit register is too deep for the "
            f"recursive inner product") from e
    return complex(wa.conjugate() * wb * ip)


def fidelity(a: StateDD, b: StateDD) -> float:
    """|<a|b>|^2 for unit-norm states, clamped to [0, 1]."""
    ip = inner_product(a, b)
    return min(1.0, ip.real * ip.real + ip.imag * ip.imag)
