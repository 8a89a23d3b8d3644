"""Command line front end.

``simulate`` runs one circuit, taken from an OpenQASM file or a built-in
generator, under one of three modes (exact, memory-driven approximation,
fidelity-driven approximation) and reports diagram statistics, optionally as
JSON (--stats), as a CSV row (--csv), as a full amplitude dump, or checked
against a dense simulation (--verify, small circuits only).

Exit codes: 0 success, 1 bad flags or parameters, 2 QASM parse error,
3 resource guard hit (circuit too large for a requested expansion, a
register too deep for recursive gate application, or an allocation the
system refused).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import warnings
from pathlib import Path

from .circuit import (Circuit, QasmParseError, gen_ghz, gen_qft,
                      gen_shor_period, gen_supremacy, parse_qasm)
from .dd import CapacityError
from .strategies import (FidelityDrivenConfig, MemoryDrivenConfig,
                         simulate_exact, simulate_fidelity_driven,
                         simulate_memory_driven)

#: Largest register for which --verify will run a dense cross-check.
VERIFY_LIMIT = 12

STATS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["benchmark", "mode", "num_qubits", "num_gates", "max_dd_size",
                 "final_dd_size", "rounds", "f_round", "fidelity_lower_bound",
                 "node_trace", "trace_after_gate", "planned_rounds", "warnings",
                 "wall_time_seconds", "runtime_seconds", "verify"],
    "properties": {
        "benchmark": {"type": "string"},
        "mode": {"enum": ["exact", "memory", "fidelity"]},
        "num_qubits": {"type": "integer", "minimum": 1},
        "num_gates": {"type": "integer", "minimum": 0},
        "max_dd_size": {
            "type": "integer", "minimum": 0,
            "description": "largest node count of the initial state and of "
                           "the node_trace entries; a peak inside a window "
                           "is not seen"},
        "final_dd_size": {"type": "integer", "minimum": 0},
        "rounds": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["after_gate", "trigger", "nodes_before",
                             "nodes_after", "round_fidelity"],
                "properties": {
                    "after_gate": {"type": "integer", "minimum": 1},
                    "trigger": {"enum": ["threshold", "planned", "marker"]},
                    "nodes_before": {"type": "integer", "minimum": 0},
                    "nodes_after": {"type": "integer", "minimum": 0},
                    "round_fidelity": {"type": "number",
                                       "minimum": 0, "maximum": 1},
                },
            },
        },
        "f_round": {"type": ["number", "null"]},
        "fidelity_lower_bound": {"type": "number", "minimum": 0, "maximum": 1},
        "node_trace": {
            "type": "array", "items": {"type": "integer"},
            "description": "node count at the end of each window of gates "
                           "applied in one pass, after any round fired "
                           "there; exact and fidelity modes fuse runs of "
                           "monomial gates spanning at most four qubits, so "
                           "a peak inside a window is not seen, and memory "
                           "mode counts after every gate"},
        "trace_after_gate": {
            "type": "array", "items": {"type": "integer", "minimum": 1},
            "description": "for each node_trace entry, the number of gates "
                           "done; strictly increasing, ending at num_gates"},
        "planned_rounds": {"type": ["integer", "null"]},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "wall_time_seconds": {"type": "number"},
        "runtime_seconds": {"type": "number"},
        "verify": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "required": ["oracle_fidelity"],
            "properties": {
                "oracle_fidelity": {"type": ["number", "null"]},
            },
        },
    },
}

CSV_FIELDS = ["benchmark", "qubits", "max_dd_size", "rounds", "f_round",
              "runtime_seconds", "fidelity"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # QASM parse errors, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="simulate",
                description="Decision-diagram quantum circuit simulator "
                            "with fidelity-bounded approximation.")
    p.add_argument("qasm", nargs="?", help="OpenQASM 2 file to simulate")
    p.add_argument("--gen", nargs="+", metavar="ARG",
                   help="generate a benchmark instead of reading a file: "
                        "ghz N | qft N [inv] | "
                        "supremacy ROWS COLS DEPTH [SEED] | shor N A")
    p.add_argument("--mode", choices=["exact", "memory", "fidelity"],
                   default="exact")
    p.add_argument("--threshold", type=int, default=4096,
                   help="memory mode: a round fires after any gate that "
                        "leaves the diagram above this node count "
                        "(default 4096)")
    p.add_argument("--f-round", type=float, default=0.99,
                   help="per-round fidelity floor (default 0.99)")
    p.add_argument("--f-final", type=float, default=0.9,
                   help="fidelity mode: overall fidelity target (default 0.9)")
    p.add_argument("--placement", choices=["even", "markers"], default="even",
                   help="fidelity mode: how to place rounds (default even)")
    p.add_argument("--seed", type=int, default=0,
                   help="default seed for generated random circuits")
    p.add_argument("--stats", metavar="PATH", help="write run statistics as JSON")
    p.add_argument("--csv", metavar="PATH", help="append a one-line CSV summary")
    p.add_argument("--dump-amplitudes", action="store_true",
                   help="print nonzero amplitudes (index, re, im); "
                        "refused above 20 qubits")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against dense simulation "
                        f"(skipped above {VERIFY_LIMIT} qubits)")
    return p


def _load_circuit(args) -> tuple[Circuit, list[str]]:
    notes: list[str] = []
    if (args.qasm is None) == (args.gen is None):
        raise _UsageError("provide exactly one of: a QASM file, or --gen")
    if args.qasm is not None:
        text = Path(args.qasm).read_text()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            circuit = parse_qasm(text, name=Path(args.qasm).stem)
        notes.extend(str(w.message) for w in caught)
        return circuit, notes
    kind, *params = args.gen
    inverse = kind == "qft" and len(params) == 2 and params[1] == "inv"
    if inverse:
        params = params[:1]
    try:
        values = [int(x) for x in params]
    except ValueError:
        raise _UsageError(f"--gen {kind} arguments must be integers: {params}")
    if kind == "ghz" and len(values) == 1:
        return gen_ghz(values[0]), notes
    if kind == "qft" and len(values) == 1:
        return gen_qft(values[0], inverse=inverse), notes
    if kind == "supremacy" and len(values) in (3, 4):
        seed = values[3] if len(values) == 4 else args.seed
        return gen_supremacy(values[0], values[1], values[2], seed), notes
    if kind == "shor" and len(values) == 2:
        return gen_shor_period(values[0], values[1]), notes
    raise _UsageError(f"unknown generator arguments: {' '.join(args.gen)}")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"simulate: error: {e}", file=sys.stderr)
        return 1
    # One map from errors to exit codes for everything after parsing; a
    # QasmParseError is a ValueError, so it is caught first.
    try:
        circuit, notes = _load_circuit(args)
        if args.mode == "exact":
            state, stats = simulate_exact(circuit)
        elif args.mode == "memory":
            config = MemoryDrivenConfig(threshold=args.threshold,
                                        f_round=args.f_round)
            state, stats = simulate_memory_driven(circuit, config)
        else:
            config = FidelityDrivenConfig(f_final=args.f_final,
                                          f_round=args.f_round,
                                          placement=args.placement)
            state, stats = simulate_fidelity_driven(circuit, config)
        stats.warnings = notes + stats.warnings

        verify = None
        if args.verify:
            if circuit.num_qubits > VERIFY_LIMIT:
                print(f"simulate: --verify skipped: {circuit.num_qubits} "
                      f"qubits exceeds the dense check limit of "
                      f"{VERIFY_LIMIT}", file=sys.stderr)
                verify = {"oracle_fidelity": None}
            else:
                # The dense oracle needs numpy, which nothing else here loads.
                from . import oracle

                reference = oracle.dense_simulate(circuit)
                verify = {"oracle_fidelity":
                          oracle.dense_fidelity(reference, state.to_dense())}

        dump = state.to_dense() if args.dump_amplitudes else None

        runtime = time.perf_counter() - started
        payload = stats.as_dict()
        payload["f_round"] = None if args.mode == "exact" else args.f_round
        payload["runtime_seconds"] = runtime
        payload["verify"] = verify

        summary = (f"benchmark={stats.benchmark or '-'} mode={stats.mode} "
                   f"qubits={stats.num_qubits} gates={stats.num_gates} "
                   f"max_dd_size={stats.max_dd_size} "
                   f"final_dd_size={stats.final_dd_size} "
                   f"rounds={len(stats.rounds)} "
                   f"fidelity_lower_bound={stats.fidelity_lower_bound:.12g} "
                   f"runtime_seconds={runtime:.3f}")
        if verify is not None and verify["oracle_fidelity"] is not None:
            summary += f" oracle_fidelity={verify['oracle_fidelity']:.12g}"
        print(summary)
        for note in stats.warnings:
            print(f"simulate: note: {note}", file=sys.stderr)

        if dump is not None:
            for index, amp in enumerate(dump):
                if amp != 0:
                    print(f"{index} {amp.real:.17g} {amp.imag:.17g}")

        if args.stats:
            Path(args.stats).write_text(
                json.dumps(payload, indent=2) + "\n")
        if args.csv:
            _append_csv(args.csv, args, stats, verify, runtime)
        return 0
    except QasmParseError as e:
        print(f"{args.qasm}: {e}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as e:
        # A refused allocation usually carries no message.
        print(f"simulate: capacity: {str(e) or 'out of memory'}",
              file=sys.stderr)
        return 3
    except (_UsageError, ValueError, OSError) as e:
        print(f"simulate: error: {e}", file=sys.stderr)
        return 1


def _append_csv(path: str, args, stats, verify, runtime: float) -> None:
    if verify is not None and verify["oracle_fidelity"] is not None:
        fid = verify["oracle_fidelity"]
    else:
        fid = stats.fidelity_lower_bound
    row = {
        "benchmark": stats.benchmark or "-",
        "qubits": stats.num_qubits,
        "max_dd_size": stats.max_dd_size,
        "rounds": len(stats.rounds),
        "f_round": "" if stats.mode == "exact" else args.f_round,
        "runtime_seconds": f"{runtime:.6f}",
        "fidelity": f"{fid:.12g}",
    }
    target = Path(path)
    fresh = not target.exists() or target.stat().st_size == 0
    with target.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if fresh:
            writer.writeheader()
        writer.writerow(row)


if __name__ == "__main__":
    sys.exit(main())
