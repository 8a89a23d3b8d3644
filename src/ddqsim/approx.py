"""Contribution-guided node removal with an exact per-round fidelity.

Every basis state corresponds to exactly one root-to-terminal path, so the
squared norm of a state splits additively over the nodes of any diagram cut.
The contribution of a node is the total probability mass of the basis states
whose path runs through it: the mass arriving from above (prefix) times the
squared norm of the sub-vector below it (suffix), which each node caches as
``norm2`` (see :mod:`ddqsim.dd`).  Zeroing a set of nodes
costs at most the sum of their contributions, so a removal round that stays
within a contribution budget keeps at least the matching share of the norm.

After removal the surviving amplitudes are unchanged up to one global
rescale, so the fidelity between the state before and after a round is
exactly the surviving squared norm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dd import (CapacityError, Context, Edge, StateDD, TERMINAL, VNode,
                 levels, squared_norm)


@dataclass
class RoundOutcome:
    """Result of one removal round.

    ``round_fidelity`` is the squared overlap between the states before and
    after the round; ``removed_mass`` is the squared norm it discarded
    (``1 - round_fidelity`` for unit input).  ``nodes_after`` is measured on
    the new root's reachable set, so shared collapse below the victims shows
    up in it.
    """

    state: StateDD
    round_fidelity: float
    removed_mass: float
    nodes_after: int


def node_contributions(state: StateDD) -> dict[VNode, float]:
    """Probability mass routed through each reachable node.

    The root's contribution is the squared norm of the state (1 for unit
    states); within any single level contributions sum to the same value.
    One top-down pass over the :func:`levels` of the root flows the prefix
    masses down and multiplies each by the node's cached ``norm2``.  A
    shared node's prefix mass is summed over its parents in the order of
    their level, which decides near-ties between removal candidates.
    """
    contributions: dict[VNode, float] = {}
    root = state._live_root()
    w = root[1]
    prefix = {root[0]: w.real * w.real + w.imag * w.imag}
    for level in levels(root):
        for node in level:
            mass = prefix[node]
            contributions[node] = mass * node.norm2
            # A zero edge points at the terminal (see ddqsim.dd).
            child = node.low_node
            if child is not TERMINAL:
                cw = node.low_weight
                prefix[child] = prefix.get(child, 0.0) + \
                    mass * (cw.real * cw.real + cw.imag * cw.imag)
            child = node.high_node
            if child is not TERMINAL:
                cw = node.high_weight
                prefix[child] = prefix.get(child, 0.0) + \
                    mass * (cw.real * cw.real + cw.imag * cw.imag)
    return contributions


def remove_nodes(state: StateDD, victims) -> RoundOutcome:
    """Zero out the sub-vectors under ``victims`` and renormalize exactly.

    The rebuild walks the diagram once: victim subtrees become zero stubs,
    parents whose children all vanish collapse, everything else is re-made
    bottom-up (hash-consing re-shares surviving structure); the squared
    norms before and after are the root nodes' cached ``norm2``.  Raises
    ValueError if the root is a victim or nothing would survive, and
    CapacityError if the register is too deep for the recursive rebuild.
    """
    ctx = state.context
    root = state._live_root()
    victim_ids = {id(v) for v in victims}
    if id(root[0]) in victim_ids:
        raise ValueError("cannot remove the root node")
    try:
        out, ow = _rebuild(ctx, root[0], victim_ids, {})
    except RecursionError as e:
        # _rebuild recurses once per level; it stays recursive because its
        # node creation order fixes uids and the weights new nodes keep.
        raise CapacityError(
            f"a {state.num_qubits}-qubit register is too deep for the "
            f"recursive rebuild") from e
    rebuilt = (out, root[1] * ow)
    kept = squared_norm(rebuilt)
    if kept == 0.0:
        raise ValueError("removal would annihilate the state")
    fidelity = kept / squared_norm(root)
    new_state = ctx.new_state((out, rebuilt[1] / kept ** 0.5),
                              state.num_qubits)
    return RoundOutcome(state=new_state, round_fidelity=fidelity,
                        removed_mass=1.0 - fidelity,
                        nodes_after=new_state.node_count())


def _rebuild(ctx: Context, node, victim_ids: set[int],
             memo: dict[int, Edge]) -> Edge:
    """``node``'s sub-vector with the ``victim_ids`` subtrees zeroed.

    ``memo`` maps node ids to the edges already rebuilt in this round.
    """
    if node is TERMINAL:
        return (TERMINAL, 1.0 + 0j)
    if id(node) in victim_ids:
        return (TERMINAL, 0j)
    got = memo.get(id(node))
    if got is None:
        # Subtrees without victims come back as themselves; a node whose
        # children both do is reused as it is, so untouched regions cost one
        # check each.
        unchanged = True
        t = node.low_node
        w = node.low_weight
        low = (t, w)
        if w != 0:
            sub, sw = _rebuild(ctx, t, victim_ids, memo)
            if sub is not t or sw != 1.0:
                low = (sub, w * sw)
                unchanged = False
        t = node.high_node
        w = node.high_weight
        high = (t, w)
        if w != 0:
            sub, sw = _rebuild(ctx, t, victim_ids, memo)
            if sub is not t or sw != 1.0:
                high = (sub, w * sw)
                unchanged = False
        if unchanged:
            got = (node, 1.0 + 0j)
        else:
            got = ctx.make_vnode(node.level, low, high)
        memo[id(node)] = got
    return got


def approximate_round(state: StateDD, f_round: float) -> RoundOutcome:
    """Remove the least-contributing nodes within a ``1 - f_round`` budget.

    Candidates are taken in ascending contribution order (ties: lower level
    first, then older node) and charged the contribution they had at the
    start of the round.  Overlapping victims (an ancestor and a node only
    reachable through it) are charged more than they jointly remove, so the
    realized round fidelity can exceed the budgeted floor but never drops
    below ``f_round`` (up to float slack).  The root always survives, and a
    round that can afford nothing returns the state as is with fidelity 1.
    """
    if not 0.0 < f_round <= 1.0:
        raise ValueError("f_round must be in (0, 1]")
    if f_round == 1.0:
        return remove_nodes(state, [])
    budget = 1.0 - f_round
    contributions = node_contributions(state)
    root_node = state._live_root()[0]
    candidates = sorted(
        (c for c in contributions.items() if c[0] is not root_node),
        key=lambda c: (c[1], c[0].level, c[0].uid))

    victims: list[VNode] = []
    spent = 0.0
    for node, mass in candidates:
        if spent + mass > budget + 1e-12:
            break
        spent += mass
        victims.append(node)
    return remove_nodes(state, victims)
