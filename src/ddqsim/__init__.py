"""Decision-diagram quantum circuit simulation with budgeted approximation.

States live in hash-consed edge-weighted decision diagrams (:mod:`.dd`),
gates apply through matrix diagrams (:mod:`.ops`), and low-contribution
nodes can be pruned in rounds whose exact fidelity cost is tracked
(:mod:`.approx`).  The drivers in :mod:`.strategies` schedule those rounds
by memory pressure or against an overall fidelity target, and
:mod:`.oracle` holds the dense reference implementations everything is
tested against.  numpy loads only with the dense paths: the oracle,
:func:`.circuit.gate_matrix`, ``Context.from_dense`` and
``StateDD.to_dense``.
"""
from .approx import RoundOutcome, approximate_round, node_contributions, remove_nodes
from .circuit import (Circuit, Gate, QasmParseError, gate_entries, gate_matrix,
                      gen_ghz, gen_qft, gen_shor_period, gen_supremacy,
                      parse_qasm, to_qasm)
from .dd import (EPS, CapacityError, Context, StateDD, TERMINAL,
                 levels, squared_norm, subtree_norms)
from .ops import apply, fidelity, gate_dd, inner_product
from .strategies import (FidelityDrivenConfig, MemoryDrivenConfig, RoundRecord,
                         SimStats, even_positions, marker_positions,
                         plan_rounds, simulate_exact, simulate_fidelity_driven,
                         simulate_memory_driven)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "QasmParseError", "gate_entries", "gate_matrix",
    "gen_ghz", "gen_qft",
    "gen_shor_period", "gen_supremacy", "parse_qasm", "to_qasm",
    "EPS", "CapacityError", "Context", "StateDD", "TERMINAL",
    "levels", "squared_norm", "subtree_norms",
    "apply", "fidelity", "gate_dd", "inner_product",
    "RoundOutcome", "approximate_round", "node_contributions", "remove_nodes",
    "FidelityDrivenConfig", "MemoryDrivenConfig", "RoundRecord", "SimStats",
    "even_positions", "marker_positions", "plan_rounds", "simulate_exact",
    "simulate_fidelity_driven", "simulate_memory_driven",
    "__version__",
]
