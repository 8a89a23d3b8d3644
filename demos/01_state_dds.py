"""A first look at state decision diagrams.

A diagram stores a 2^n-entry state vector as a DAG: one node per distinct
sub-vector, complex weights on the edges, and the amplitude of any basis
state recovered by multiplying the weights along its path.  Sub-vectors
equal up to a complex factor share one node, so highly patterned states
collapse to a handful of shared nodes; generic states do not.
"""
import math

from ddqsim.circuit import gen_ghz
from ddqsim.dd import Context
from ddqsim.oracle import random_state
from ddqsim.strategies import simulate_exact


def main() -> None:
    ctx = Context()

    print("== entangled but highly patterned: GHZ on 20 qubits ==")
    state, _ = simulate_exact(gen_ghz(20), context=ctx)
    print(f"dense entries: {1 << 20}")
    print(f"diagram nodes: {state.node_count()}")
    for bits in ("0" * 20, "1" * 20, "01" + "0" * 18):
        amp = state.amplitude(bits)
        print(f"amplitude |{bits}> = {amp.real:+.6f}{amp.imag:+.6f}j")
    state.release()

    print()
    print("== a hand-sized state built from its dense vector ==")
    s = 1 / math.sqrt(10)
    vec = [s, 0, 0, -s, 0, 2 * s, 0, 2 * s]
    small = ctx.from_dense(vec)
    print(f"vector: {[round(x, 4) for x in vec]}")
    print(f"diagram nodes: {small.node_count()} (8 entries share structure; "
          f"(0, -s) and (0, 2s) share one node)")
    amp = small.amplitude("011")
    print(f"amplitude |011> = {amp.real:+.6f} (path product through 3 levels)")
    small.release()

    print()
    print("== no pattern, no compression: a random 10-qubit state ==")
    noisy = ctx.from_dense(random_state(10, seed=7))
    print(f"dense entries: {1 << 10}")
    print(f"diagram nodes: {noisy.node_count()}")
    noisy.release()


if __name__ == "__main__":
    main()
