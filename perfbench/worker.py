"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every timed repetition
begins from a fresh import of ``ddqsim``.  Modes:

* ``run``: set up, simulate, check the outputs, report timings and the
  determinism fingerprint.
* ``setup``: only the set-up part, up to the first simulate call.
* ``prepare``: write the per-seed inputs shared by all repetitions of one
  invocation (reference states for grid_memory, the QASM file for
  structured_cli) into ``--tmp``.

The result is one JSON object on the last line of standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter

# Workload sizes; every simulate call gets a fresh Context, as the CLI does.
# grid_exact is one deep 3x4 grid: past the first few cycles the state sits
# at the 4095-node ceiling, so the work varies little with the seed, and the
# 400k-470k nodes it creates always mean exactly one garbage collection.
# grid_memory must stay shallow for its certified bound to mean anything, and
# a shallow grid's cost swings by tens of percent with its seed, so it runs
# a batch of nine.  ``tiny`` is for the benchmark's own smoke test.
SIZES = {
    "full": {
        "grid_exact": (3, 4, 24, 1),        # rows, cols, depth, circuits
        "grid_memory": (3, 4, 6, 9),
        "memory_threshold": 500,
        "memory_f_rounds": (0.99, 0.95),
        "shor": ((21, 2, "even"), (33, 5, "even"), (35, 2, "even"),
                 (39, 2, "even"), (55, 2, "even"), (35, 2, "markers")),
        "qft": 13,
        "ghz": 500,
    },
    "tiny": {
        "grid_exact": (2, 3, 4, 2),
        "grid_memory": (2, 3, 4, 2),
        "memory_threshold": 8,
        "memory_f_rounds": (0.99, 0.95),
        "shor": ((15, 7, "even"), (15, 7, "markers")),
        "qft": 6,
        "ghz": 8,
    },
}

#: Factor pairs the period-finding runs must recover.
FACTORS = {15: (3, 5), 21: (3, 7), 33: (3, 11), 35: (5, 7), 39: (3, 13),
           55: (5, 11)}
SHOR_F_FINAL = 0.5
SHOR_F_ROUND = 0.9

WORKLOADS = ("grid_exact", "grid_memory", "shor_fidelity", "structured_cli")


class StopBeforeSimulate(Exception):
    """Raised in setup mode at the first simulate call."""


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, broken: bool):
        self.broken = broken
        self.setup_s = 0.0
        self.run_s = 0.0
        self.check_s = 0.0
        self.gates = 0
        self.runs: list[dict] = []
        self.rounds: list[tuple[float, float, int]] = []
        self.checks: list[dict] = []
        self.nodes_created = 0
        self.gate_dds_built = 0
        self.peak_rss_mb = 0.0

    def check(self, name: str, ok: bool, detail) -> None:
        # --break-check inverts the first check of the repetition, so the
        # smoke test can see a failed check reach error_rate.
        if self.broken and not self.checks:
            ok = not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def record(self, stats, f_round: float | None, context) -> None:
        """Take what one simulate call, run on a fresh ``context``, did."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.nodes_created += context._next_uid - 1
        self.gate_dds_built += len(context.gate_dds)
        self.gates += stats.num_gates
        self.runs.append({
            "benchmark": stats.benchmark,
            "max_dd_size": stats.max_dd_size,
            "final_dd_size": stats.final_dd_size,
            "rounds": [[r.after_gate, r.trigger, r.nodes_before,
                        r.nodes_after, r.round_fidelity] for r in stats.rounds],
            "node_trace": list(stats.node_trace),
            "fidelity_lower_bound": stats.fidelity_lower_bound,
        })
        for r in stats.rounds:
            self.rounds.append((1.0 - r.round_fidelity, 1.0 - f_round,
                                r.nodes_before - r.nodes_after))


def grid_circuits(gen_supremacy, size, seed: int):
    rows, cols, depth, count = size
    return [gen_supremacy(rows, cols, depth, seed * count + i)
            for i in range(count)]


def qft_input(num_qubits: int, seed: int) -> int:
    """Seeded random odd basis index for the QFT round trip.

    The lowest bit is fixed to 1: the peak diagram size of the round trip
    depends on the input's trailing zeros, and an odd input makes every seed
    reach the full 2^n - 1 nodes.  At 13 qubits the round trip stays well
    under the garbage-collection watermark for every input; at 14 some inputs
    cross it and some do not, which splits run times by seed.
    """
    return random.Random(seed).randrange(1 << (num_qubits - 1)) * 2 + 1


def counting_distribution(state, num_counting: int):
    """Marginal distribution of the top ``num_counting`` qubits.

    Walks the diagram instead of expanding it, so the check stays small
    next to the run it checks.  Every nonzero edge descends one level.
    """
    import numpy as np
    from ddqsim.dd import subtree_norms

    norms = subtree_norms(state.root)
    dist = np.zeros(1 << num_counting)
    root, w = state.root
    stack = [(root, 0, 0, abs(w) ** 2)]
    while stack:
        node, depth, prefix, mass = stack.pop()
        if depth == num_counting:
            dist[prefix] += mass * (1.0 if node.level < 0 else norms[id(node)])
            continue
        for bit, (child, cw) in enumerate((node.low, node.high)):
            if cw != 0:
                stack.append((child, depth + 1, prefix << 1 | bit,
                              mass * abs(cw) ** 2))
    return dist


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "setup", "prepare"), default="run")
    p.add_argument("--tmp", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--break-check", action="store_true")
    args = p.parse_args(argv)
    size = SIZES["tiny" if args.tiny else "full"]
    tmp = Path(args.tmp)
    rep = Rep(args.break_check)

    started = perf_counter()
    from ddqsim import cli, strategies
    from ddqsim.circuit import gen_shor_period, gen_supremacy
    from ddqsim.dd import Context
    rep.setup_s += perf_counter() - started

    if args.mode == "prepare":
        prepare(args, size, tmp)
        print(json.dumps({"prepared": True}))
        return 0

    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    def timed(fn):
        """Time a simulate entry point; in setup mode stop at its first call."""
        inner = tracer.wrap("strategies.run", fn) if tracer else fn

        def call(*a, **k):
            if args.mode == "setup":
                raise StopBeforeSimulate
            t = perf_counter()
            try:
                return inner(*a, **k)
            finally:
                rep.run_s += perf_counter() - t
        return call

    generate = tracer.wrap("circuit.generate", lambda f: f()) if tracer else (lambda f: f())
    new_context = tracer.new_context if tracer else Context

    if args.workload == "structured_cli":
        run_cli(args, size, tmp, rep, cli, timed)
    else:
        t = perf_counter()
        if args.workload == "shor_fidelity":
            runs = [(generate(lambda: gen_shor_period(N, a)), "fidelity",
                     strategies.FidelityDrivenConfig(SHOR_F_FINAL, SHOR_F_ROUND, placement),
                     (N, a))
                    for N, a, placement in size["shor"]]
        else:
            circuits = generate(lambda: grid_circuits(
                gen_supremacy, size[args.workload], args.seed))
            if args.workload == "grid_exact":
                runs = [(c, "exact", None, i) for i, c in enumerate(circuits)]
            else:
                runs = [(c, "memory", strategies.MemoryDrivenConfig(
                            size["memory_threshold"], f), i)
                        for i, c in enumerate(circuits)
                        for f in size["memory_f_rounds"]]
        ctx = new_context()
        rep.setup_s += perf_counter() - t
        if args.mode == "run":
            run_api(args, runs, ctx, rep, strategies, timed)

    result = {"setup_s": rep.setup_s}
    if args.mode == "run":
        result.update({
            "run_s": rep.run_s,
            "gates": rep.gates,
            "peak_rss_mb": rep.peak_rss_mb,
            "check_s": rep.check_s,
            "checks": rep.checks,
            "runs": rep.runs,
            "nodes_created": rep.nodes_created,
            "gate_dds_built": rep.gate_dds_built,
            "rounds": rep.rounds,
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
        })
        if tracer:
            result["trace"] = trace_summary(tracer)
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


def run_api(args, runs, ctx, rep: Rep, strategies, timed) -> None:
    from ddqsim.dd import Context
    from ddqsim.ops import fidelity
    from ddqsim.oracle import shor_postprocess
    import numpy as np

    simulators = {
        "exact": timed(strategies.simulate_exact),
        "memory": timed(strategies.simulate_memory_driven),
        "fidelity": timed(strategies.simulate_fidelity_driven),
    }
    for circuit, mode, config, key in runs:
        # The first Context is part of set-up; later ones are built inside
        # the simulate call, as ``context=None`` does for any caller.
        if config is None:
            state, stats = simulators[mode](circuit, ctx)
        else:
            state, stats = simulators[mode](circuit, config, ctx)
        ctx = None
        rep.record(stats, getattr(config, "f_round", None), state.context)
        t = perf_counter()
        label = f"{stats.benchmark}#{key}"
        if mode == "exact":
            norm = state.norm()
            rep.check(f"{label} norm", abs(norm - 1.0) <= 1e-9, norm)
        elif mode == "memory":
            ref_ctx = Context(compute_table_size=1)
            vec = np.load(Path(args.tmp) / f"grid_ref_{key}.npy")
            reference = ref_ctx.from_dense(vec)
            realized = fidelity(reference, state)
            bound = stats.fidelity_lower_bound
            rep.check(f"{label} rounds fired", len(stats.rounds) > 0,
                      len(stats.rounds))
            rep.check(f"{label} realized fidelity >= bound",
                      realized >= bound - 1e-9, [realized, bound])
        else:
            N, a = key
            counting = 2 * (N - 1).bit_length()
            dist = counting_distribution(state, counting)
            factors = shor_postprocess(dist, N, a)
            rep.check(f"{label} factors", factors == FACTORS[N], factors)
            rep.check(f"{label} bound >= f_final",
                      stats.fidelity_lower_bound >= SHOR_F_FINAL,
                      stats.fidelity_lower_bound)
        state.release()
        rep.check_s += perf_counter() - t


def run_cli(args, size, tmp: Path, rep: Rep, cli, timed) -> None:
    """Two in-process ``simulate`` invocations with --stats."""
    import jsonschema

    x = qft_input(size["qft"], args.seed)
    simulate = timed(cli.simulate_exact)
    main_started = [0.0]

    def simulate_exact(circuit, *a, **k):
        rep.setup_s += perf_counter() - main_started[0]
        state, stats = simulate(circuit, *a, **k)
        rep.record(stats, None, state.context)
        return state, stats

    cli.simulate_exact = simulate_exact
    calls = [
        ("qft_roundtrip", [str(tmp / "qft_roundtrip.qasm"), "--dump-amplitudes"]),
        ("ghz", ["--gen", "ghz", str(size["ghz"])]),
    ]
    for label, argv in calls:
        stats_path = tmp / f"{label}.{args.mode}.json"
        out = io.StringIO()
        main_started[0] = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--stats", str(stats_path)])
        except StopBeforeSimulate:
            continue
        t = perf_counter()
        rep.check(f"{label} exit code", code == 0, code)
        try:
            payload = json.loads(stats_path.read_text())
            jsonschema.validate(payload, cli.STATS_SCHEMA)
            rep.check(f"{label} stats schema", True, None)
        except (OSError, ValueError, jsonschema.ValidationError) as e:
            payload = {}
            rep.check(f"{label} stats schema", False, str(e)[:200])
        if label == "ghz":
            want = 2 * size["ghz"] - 1
            got = payload.get("final_dd_size")
            rep.check("ghz final nodes", got == want, [got, want])
        else:
            amps = [line.split() for line in out.getvalue().splitlines()[1:]]
            ok = (len(amps) == 1 and int(amps[0][0]) == x
                  and abs(abs(complex(float(amps[0][1]), float(amps[0][2]))) - 1.0) <= 1e-9)
            rep.check("qft round trip returns the input", ok, [x, amps[:3]])
        rep.check_s += perf_counter() - t


def prepare(args, size, tmp: Path) -> None:
    from ddqsim.circuit import Circuit, gen_qft, gen_supremacy, to_qasm
    from ddqsim.oracle import dense_simulate
    import numpy as np

    if args.workload == "grid_memory":
        # Exact reference states from the dense oracle, once per seed.
        for i, c in enumerate(grid_circuits(gen_supremacy, size["grid_memory"], args.seed)):
            np.save(tmp / f"grid_ref_{i}.npy", dense_simulate(c))
    elif args.workload == "structured_cli":
        n = size["qft"]
        bits = format(qft_input(n, args.seed), f"0{n}b")
        circuit = Circuit(n, gen_qft(n).ops + gen_qft(n, inverse=True).ops,
                          initial_state=bits, name="qft_roundtrip")
        (tmp / "qft_roundtrip.qasm").write_text(to_qasm(circuit))


def trace_summary(tracer) -> dict:
    from tracing import self_times

    self_s, calls, mismatch = self_times(tracer.spans)
    return {
        "self_s": self_s,
        "calls": calls,
        "root_mismatch": mismatch,
        "spans": len(tracer.spans),
        "gc_reclaimed": tracer.gc_reclaimed,
        "unique_table_peak": tracer.unique_table_peak,
        "weight_entries_peak": tracer.weight_entries_peak,
        "caches": tracer.caches,
    }


if __name__ == "__main__":
    sys.exit(main())
