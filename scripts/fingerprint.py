"""Fingerprint a fixed corpus of simulations, to compare two checkouts.

Runs every record of the corpus below and prints one line per record: its
name, a few readable sizes, and a SHA-256 over everything observable about
the run.  A refactoring that should not change any result must print the
same hash for every record before and after.  Each record hashes

* ``SimStats.as_dict()`` without ``wall_time_seconds``;
* a SHA-256 of the final ``to_dense()`` vector (for GHZ, too wide to expand,
  its two nonzero amplitudes);
* the return value of every ``collect_garbage()`` call, the number of dead
  nodes it freed from the unique table;
* the final size of the unique table, dead nodes included;
* ``StateDD.norm()`` of the final state, so that a change to how norms are
  computed shows up even where the dense vector does not.

Each line also prints ``created``, the number of vector nodes the run built
(``Context._next_uid - 1``), outside the hash: it measures kernel work, so
two checkouts that agree on every result can still differ there.

Before printing a record, the script runs ``Context.check_invariants()`` on
the record's context, which raises ``AssertionError`` if the unique table
or any live node is unsound.  The check prints nothing and feeds no hash,
so the output still diffs cleanly against checkouts without it.

Corpus (about 15 s): the six fidelity-driven period-finding runs of the
``shor_fidelity`` benchmark workload; exact ``gen_supremacy(3, 4, 24, s)``
for s = 11 and 4243 (64 and 63 sweeps); the 13-qubit QFT round trip; GHZ
300 and GHZ 40; exact ``gen_supremacy(3, 4, 16, s)`` for s = 5 and 6 with
every sqrt(Y) replaced by T, so that long runs of CZ and T gates fuse into
windows of several blocks, as GHZ 40's CX chain does; exact
``cx_up_down_16``, an H on every third of 16 qubits, then a CX chain up the
register, a T on the top qubit and the chain back down, one window whose
block tops rise and then fall; memory-driven ``gen_supremacy(3, 4, 6, s)`` for s = 100..108 at
threshold 100 and ``f_round`` 0.99 and 0.95, with ``GC_WATERMARK`` 3000
so that collections run; 10 random 6-qubit 60-gate circuits with a
garbage collection after every gate; and 10 random 6-qubit 120-gate
circuits applied straight through ``apply(state, *gates)`` in seeded
windows of 1-12 mixed dense and monomial gates, the only windows whose
composed columns sum products per row, with a collection at the end.
The memory-driven records exist to exercise the round path, so the
script raises if one of them fires no round: at threshold 500 some grids
never grow past it.

Only public entry points and ``Context._next_uid`` are used, so the script
runs against older checkouts too.  Compare two checkouts with::

    PYTHONPATH=/path/to/parent/src python3 scripts/fingerprint.py > parent.txt
    PYTHONPATH=src python3 scripts/fingerprint.py > change.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import hashlib
import json
import math
import random

from ddqsim import strategies
from ddqsim.circuit import (Circuit, Gate, gen_ghz, gen_qft, gen_shor_period,
                            gen_supremacy)
from ddqsim.dd import Context
from ddqsim.ops import apply

SHOR = ((21, 2, "even"), (33, 5, "even"), (35, 2, "even"), (39, 2, "even"),
        (55, 2, "even"), (35, 2, "markers"))
#: Node count above which the memory-driven records fire a round.
MEMORY_THRESHOLD = 100


def counted_context() -> tuple[Context, list[int]]:
    """A fresh context whose ``collect_garbage`` results are recorded."""
    ctx = Context()
    reclaimed: list[int] = []
    collect = ctx.collect_garbage

    def recording() -> int:
        got = collect()
        reclaimed.append(got)
        return got

    ctx.collect_garbage = recording
    return ctx, reclaimed


def dense_digest(state) -> str:
    if state.num_qubits > 20:
        n = state.num_qubits
        ends = [state.amplitude("0" * n), state.amplitude("1" * n)]
        return json.dumps([[z.real, z.imag] for z in ends])
    return hashlib.sha256(state.to_dense().tobytes()).hexdigest()


def emit(name: str, state, ctx: Context, reclaimed: list[int], stats=None) -> None:
    ctx.check_invariants()
    record = {
        "stats": None,
        "dense": dense_digest(state),
        "gc": reclaimed,
        "unique_table": ctx.unique_table_size(),
        "norm": state.norm(),
    }
    sizes = f"final={state.node_count()}"
    if stats is not None:
        d = stats.as_dict()
        del d["wall_time_seconds"]
        record["stats"] = d
        sizes = (f"max={stats.max_dd_size} final={stats.final_dd_size} "
                 f"rounds={len(stats.rounds)} "
                 f"bound={stats.fidelity_lower_bound!r}")
    digest = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]
    print(f"{name:28s} {sizes} gcs={len(reclaimed)} "
          f"unique={record['unique_table']} created={ctx._next_uid - 1} "
          f"sha={digest}", flush=True)


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Plain, rotation, controlled and swap gates drawn from one seed."""
    rng = random.Random(seed)
    plain = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG", "SQRTX", "SQRTY")
    ops = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.45:
            ops.append(Gate(rng.choice(plain), (rng.randrange(num_qubits),)))
        elif roll < 0.65:
            ops.append(Gate(rng.choice(("RX", "RY", "RZ", "PHASE")),
                            (rng.randrange(num_qubits),),
                            angle=rng.uniform(-math.pi, math.pi)))
        elif roll < 0.9:
            t, c = rng.sample(range(num_qubits), 2)
            kind = rng.choice(("X", "Z", "PHASE"))
            angle = rng.uniform(-math.pi, math.pi) if kind == "PHASE" else None
            ops.append(Gate(kind, (t,), controls=(c,), angle=angle))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            ops.append(Gate("SWAP", tuple(sorted((a, b)))))
    return Circuit(num_qubits, ops, name=f"random_{num_qubits}q_s{seed}")


def main() -> None:
    for N, a, placement in SHOR:
        ctx, reclaimed = counted_context()
        state, stats = strategies.simulate_fidelity_driven(
            gen_shor_period(N, a),
            strategies.FidelityDrivenConfig(0.5, 0.9, placement), ctx)
        emit(f"shor_{N}_{a}_{placement}", state, ctx, reclaimed, stats)

    for seed in (11, 4243):
        ctx, reclaimed = counted_context()
        state, stats = strategies.simulate_exact(
            gen_supremacy(3, 4, 24, seed), ctx)
        emit(f"grid_exact_s{seed}", state, ctx, reclaimed, stats)

    n = 13
    roundtrip = Circuit(n, gen_qft(n).ops + gen_qft(n, inverse=True).ops,
                        initial_state=format(0b1011001110101, f"0{n}b"),
                        name="qft_roundtrip")
    ctx, reclaimed = counted_context()
    state, stats = strategies.simulate_exact(roundtrip, ctx)
    emit("qft_roundtrip_13", state, ctx, reclaimed, stats)

    ctx, reclaimed = counted_context()
    state, stats = strategies.simulate_exact(gen_ghz(300), ctx)
    emit("ghz_300", state, ctx, reclaimed, stats)

    ctx, reclaimed = counted_context()
    state, stats = strategies.simulate_exact(gen_ghz(40), ctx)
    emit("ghz_40", state, ctx, reclaimed, stats)

    for seed in (5, 6):
        grid = gen_supremacy(3, 4, 16, seed)
        czt = Circuit(grid.num_qubits,
                      [Gate("T", g.targets) if g.kind == "SQRTY" else g
                       for g in grid.ops], name=f"grid_czt_{seed}")
        ctx, reclaimed = counted_context()
        state, stats = strategies.simulate_exact(czt, ctx)
        emit(f"grid_czt_exact_s{seed}", state, ctx, reclaimed, stats)

    n = 16
    up = [Gate("X", (q + 1,), controls=(q,)) for q in range(n - 1)]
    ops = [Gate("H", (q,)) for q in range(0, n, 3)]
    ops += up + [Gate("T", (n - 1,))] + up[::-1]
    ctx, reclaimed = counted_context()
    state, stats = strategies.simulate_exact(
        Circuit(n, ops, name="cx_up_down"), ctx)
    emit(f"cx_up_down_{n}", state, ctx, reclaimed, stats)

    watermark = strategies.GC_WATERMARK
    strategies.GC_WATERMARK = 3000
    try:
        for seed in range(100, 109):
            for f_round in (0.99, 0.95):
                ctx, reclaimed = counted_context()
                state, stats = strategies.simulate_memory_driven(
                    gen_supremacy(3, 4, 6, seed),
                    strategies.MemoryDrivenConfig(MEMORY_THRESHOLD, f_round),
                    ctx)
                if not stats.rounds:
                    raise RuntimeError(
                        f"grid_memory_s{seed}_{f_round} fired no round at "
                        f"threshold {MEMORY_THRESHOLD}")
                emit(f"grid_memory_s{seed}_{f_round}", state, ctx, reclaimed,
                     stats)
    finally:
        strategies.GC_WATERMARK = watermark

    for seed in range(10):
        circuit = random_circuit(6, 60, seed)
        ctx, reclaimed = counted_context()
        state = ctx.make_basis_state(6, "0" * 6)
        for gate in circuit.ops:
            nxt = apply(state, gate)
            state.release()
            state = nxt
            ctx.collect_garbage()
        emit(f"random_6q_s{seed}_gc_each", state, ctx, reclaimed)

    for seed in range(10):
        ops = random_circuit(6, 120, 100 + seed).ops
        rng = random.Random(seed)
        ctx, reclaimed = counted_context()
        state = ctx.make_basis_state(6, "0" * 6)
        done = 0
        while done < len(ops):
            size = rng.randint(1, 12)
            nxt = apply(state, *ops[done:done + size])
            state.release()
            state = nxt
            done += size
        ctx.collect_garbage()
        emit(f"random_6q_s{seed}_windows", state, ctx, reclaimed)


if __name__ == "__main__":
    main()
