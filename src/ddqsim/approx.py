"""Contribution-guided node removal with an exact per-round fidelity.

Every basis state corresponds to exactly one root-to-terminal path, so the
squared norm of a state splits additively over the nodes of any diagram cut.
The contribution of a node is the total probability mass of the basis states
whose path runs through it: the mass arriving from above (prefix) times the
squared norm of the sub-vector below it (suffix).  Zeroing a set of nodes
costs at most the sum of their contributions, so a removal round that stays
within a contribution budget keeps at least the matching share of the norm.

After removal the surviving amplitudes are unchanged up to one global
rescale, so the fidelity between the state before and after a round is
exactly the surviving squared norm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dd import (CapacityError, Context, Edge, StateDD, TERMINAL, VNode,
                 level_norms, levels)


@dataclass
class RoundOutcome:
    """Result of one removal round.

    ``round_fidelity`` is the squared overlap between the states before and
    after the round; ``removed_mass`` is the squared norm it discarded
    (``1 - round_fidelity`` for unit input).  Node counts are measured on
    the root's reachable set, so shared collapse below the victims shows up
    in ``nodes_after``.
    """

    state: StateDD
    round_fidelity: float
    removed_mass: float
    nodes_before: int
    nodes_after: int


def node_contributions(state: StateDD) -> dict[VNode, float]:
    """Probability mass routed through each reachable node.

    The root's contribution is the squared norm of the state (1 for unit
    states); within any single level contributions sum to the same value.
    One :func:`levels` walk serves both halves: suffix norms fill bottom-up,
    then prefix masses flow top-down.
    """
    buckets = levels(state.root)
    suffix = level_norms(buckets)
    contributions: dict[VNode, float] = {}
    w = state.root[1]
    prefix = {state.root[0]: w.real * w.real + w.imag * w.imag}
    for bucket in buckets:
        for node in bucket:
            mass = prefix[node]
            contributions[node] = mass * suffix[id(node)]
            for child, cw in (node.low, node.high):
                if cw != 0 and child is not TERMINAL:
                    prefix[child] = prefix.get(child, 0.0) + \
                        mass * (cw.real * cw.real + cw.imag * cw.imag)
    return contributions


def _size_and_mass(root: Edge) -> tuple[int, float]:
    """Reachable node count and squared norm of ``root``, from one walk."""
    buckets = levels(root)
    if not buckets:
        return 0, 0.0
    w = root[1]
    mass = (w.real * w.real + w.imag * w.imag) * \
        level_norms(buckets)[id(root[0])]
    return sum(map(len, buckets)), mass


def remove_nodes(state: StateDD, victims) -> RoundOutcome:
    """Zero out the sub-vectors under ``victims`` and renormalize exactly.

    The rebuild walks the diagram once: victim subtrees become zero stubs,
    parents whose children all vanish collapse, everything else is re-made
    bottom-up (hash-consing re-shares surviving structure).  Raises
    ValueError if the root is a victim or nothing would survive, and
    CapacityError if the register is too deep for the recursive rebuild.
    """
    ctx = state.context
    victim_ids = {id(v) for v in victims}
    if id(state.root[0]) in victim_ids:
        raise ValueError("cannot remove the root node")
    nodes_before, total = _size_and_mass(state.root)
    try:
        out, ow = _rebuild(ctx, state.root[0], victim_ids, {})
    except RecursionError as e:
        # _rebuild recurses once per level; it stays recursive because its
        # node creation order fixes uids and the weights new nodes keep.
        raise CapacityError(
            f"a {state.num_qubits}-qubit register is too deep for the "
            f"recursive rebuild") from e
    root = (out, state.root[1] * ow)
    nodes_after, kept = _size_and_mass(root)
    if kept == 0.0:
        raise ValueError("removal would annihilate the state")
    fidelity = kept / total
    new_root = (root[0], ctx.weight(root[1] / kept ** 0.5))
    new_state = ctx.new_state(new_root, state.num_qubits)
    return RoundOutcome(state=new_state, round_fidelity=fidelity,
                        removed_mass=1.0 - fidelity,
                        nodes_before=nodes_before,
                        nodes_after=nodes_after)


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
        # Subtrees without victims come back as themselves; such edges
        # are reused directly so untouched regions cost one check each.
        nl = node.low
        if nl[1] == 0:
            low = nl
        else:
            sub, sw = _rebuild(ctx, nl[0], victim_ids, memo)
            low = nl if (sub is nl[0] and sw == 1.0) else (sub, nl[1] * sw)
        nh = node.high
        if nh[1] == 0:
            high = nh
        else:
            sub, sw = _rebuild(ctx, nh[0], victim_ids, memo)
            high = nh if (sub is nh[0] and sw == 1.0) else (sub, nh[1] * sw)
        if low is nl and high is nh:
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
    root_node = state.root[0]
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
