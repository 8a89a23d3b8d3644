"""Keeping the diagram small on a circuit built to resist compression.

Random grid circuits entangle everything with everything; an exact run
inflates the diagram toward the dense-vector worst case.  The memory-driven
mode watches the node count after every gate and prunes whenever it sits
above a threshold, trading fidelity for a bounded working set.
"""
import time

from ddqsim.circuit import gen_supremacy
from ddqsim.oracle import dense_fidelity, dense_simulate
from ddqsim.strategies import MemoryDrivenConfig, simulate_exact, simulate_memory_driven


def main() -> None:
    circuit = gen_supremacy(3, 4, 10, seed=1)
    print(f"circuit: {circuit.name}, {circuit.num_qubits} qubits, "
          f"{len(circuit.ops)} gates")
    oracle = dense_simulate(circuit)

    started = time.perf_counter()
    state, stats = simulate_exact(circuit)
    elapsed = time.perf_counter() - started
    print(f"\nexact:        max {stats.max_dd_size:5d} nodes, "
          f"{elapsed:5.2f}s, fidelity 1")
    state.release()

    for f_round in (0.98, 0.90):
        config = MemoryDrivenConfig(threshold=256, f_round=f_round)
        started = time.perf_counter()
        state, stats = simulate_memory_driven(circuit, config)
        elapsed = time.perf_counter() - started
        realized = dense_fidelity(oracle, state.to_dense())
        print(f"f_round={f_round}: max {stats.max_dd_size:5d} nodes, "
              f"{elapsed:5.2f}s, fidelity {realized:.4f} "
              f"(round product {stats.fidelity_lower_bound:.4f}, "
              f"{len(stats.rounds)} rounds)")
        state.release()

    print("\nWith gates between rounds, the product of round fidelities is an"
          "\nestimate, not a guaranteed bound; a harsher per-round budget"
          "\nbuys a smaller peak working set.")


if __name__ == "__main__":
    main()
