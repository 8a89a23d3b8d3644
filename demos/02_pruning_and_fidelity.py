"""Pruning diagram nodes while accounting for the damage.

Every node carries a norm contribution: the probability mass of all basis
states whose paths pass through it.  Cutting a node zeroes exactly those
amplitudes, so the fidelity of the pruned state against the original is one
minus the contribution.  Chained rounds multiply, which is what lets a
simulation certify a fidelity lower bound without ever seeing the exact
state.
"""
import math

import numpy as np

from ddqsim.approx import approximate_round, node_contributions, remove_nodes
from ddqsim.dd import Context
from ddqsim.oracle import dense_fidelity, random_state


def main() -> None:
    ctx = Context()
    s = 1 / math.sqrt(10)
    state = ctx.from_dense([s, 0, 0, -s, 0, 2 * s, 0, 2 * s])

    print("== contributions of the hand-sized state ==")
    contribs = node_contributions(state)
    for node, c in sorted(contribs.items(), key=lambda kv: (-kv[0].level, -kv[1])):
        print(f"level {node.level}: contribution {c:.3f}")

    print()
    print("== cutting the cheapest branch ==")
    victim = next(nd for nd, c in contribs.items() if abs(c - 0.2) < 1e-9)
    before = state.node_count()
    out = remove_nodes(state, [victim])
    print(f"removed one level-{victim.level} node "
          f"(contribution {contribs[victim]:.3f})")
    print(f"round fidelity: {out.round_fidelity:.3f}")
    print(f"nodes: {before} -> {out.nodes_after}")
    print(f"pruned vector: {np.round(out.state.to_dense(), 4)}")
    state.release()
    out.state.release()

    print()
    print("== budgeted rounds on a random 8-qubit state ==")
    exact = random_state(8, seed=21)
    state = ctx.from_dense(exact)
    bound = 1.0
    for f_round in (0.98, 0.9):
        before = state.node_count()
        out = approximate_round(state, f_round)
        state.release()
        state = out.state
        bound *= out.round_fidelity
        print(f"budget {f_round}: kept fidelity {out.round_fidelity:.6f}, "
              f"nodes {before} -> {out.nodes_after}")
    realized = dense_fidelity(exact, state.to_dense())
    print(f"certified bound (product of rounds): {bound:.6f}")
    print(f"realized fidelity against the original: {realized:.6f}")
    state.release()


if __name__ == "__main__":
    main()
