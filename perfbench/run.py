"""ddqsim benchmark: four closed-loop workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One caller runs one simulation at a time.  Every repetition runs in a fresh
interpreter (``worker.py``), repeated until ``--seconds`` have passed and at
least twice.  Each repetition's outputs are checked outside its timed
window, and its determinism fingerprint (diagram sizes, round records, node
trace, certified bound, nodes created) must equal every other repetition's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (at least two of each) and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A single workload exits 0 whenever it printed that line, which
carries any failure; ``--workload all`` exits 1 if any repetition failed.
Exit code 2 means nothing could be measured.  ``grid_memory`` fails its
output check on a known program defect (see ``KNOWN_DEFECTS``), so
BENCHMARK.json does not list it.  Full results and the spans of
traced repetitions go to ``.perfbench/`` in the repository.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("grid_exact", "grid_memory", "shor_fidelity", "structured_cli")
#: Workloads that fail their output check because of a known program defect.
#: BENCHMARK.json leaves them out; ``--workload`` still runs and reports them.
KNOWN_DEFECTS = {
    "grid_memory": "the memory-driven fidelity_lower_bound (a product of round "
                   "fidelities) is not a lower bound: the realized fidelity "
                   "falls below it by up to about 0.03",
}
MIN_REPS = 2
#: Untraced/traced repetition pairs in a traced invocation.
MIN_PAIRS = 2
SETUP_SAMPLES = 9
#: Wall-clock budget of one invocation; no repetition starts past it.
DEADLINE_S = 165.0

END_TO_END = (
    ("run_s", "s"), ("gates_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("peak_nodes", "count"),
    ("fidelity_bound", "fraction"),
)
#: Span names, as recorded by tracing.py; each gets a ``.self_s`` metric.
SPANS = ("dd.node_count", "dd.gc", "ops.apply", "ops.gate_dd", "approx.round",
         "approx.contributions", "approx.remove", "strategies.run",
         "circuit.parse", "circuit.generate", "cli.main")
PER_LAYER = (
    ("dd.node_count.self_s", "s"), ("dd.node_count.calls", "count"),
    ("dd.gc.self_s", "s"), ("dd.gc.runs", "count"),
    ("dd.gc.reclaimed", "count"), ("dd.nodes_created", "count"),
    ("dd.unique_table_peak", "count"), ("dd.weight_entries", "count"),
    ("ops.apply.self_s", "s"), ("ops.apply.calls", "count"),
    ("ops.gate_dd.self_s", "s"), ("ops.gate_dd.built", "count"),
    ("ops.apply_cache.lookups", "count"), ("ops.apply_cache.hit_ratio", "ratio"),
    ("ops.apply_cache.lookups.spread", "count"),
    ("ops.apply_cache.hit_ratio.spread", "ratio"),
    ("ops.add_cache.lookups", "count"), ("ops.add_cache.hit_ratio", "ratio"),
    ("ops.add_cache.lookups.spread", "count"),
    ("ops.add_cache.hit_ratio.spread", "ratio"),
    ("approx.round.self_s", "s"), ("approx.contributions.self_s", "s"),
    ("approx.remove.self_s", "s"), ("approx.rounds", "count"),
    ("approx.nodes_removed", "count"), ("approx.mass_removed", "fraction"),
    ("approx.budget_use", "ratio"),
    ("strategies.run.self_s", "s"), ("strategies.gates", "count"),
    ("circuit.parse.self_s", "s"), ("circuit.generate.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("oracle.check_s", "s"), ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run one worker; returns its JSON result (None on failure) and a note."""
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              capture_output=True, text=True, timeout=timeout,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no result line"


def fingerprint(result: dict) -> str:
    return json.dumps([result["runs"], result["nodes_created"]], sort_keys=True)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def bench(workload: str, seed: int, seconds: float, trace: bool,
          tiny: bool, broken: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    spans_dir = OUT / "spans"
    tmp.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    if tiny:
        common.append("--tiny")
    if broken:
        common.append("--break-check")
    notes: list[str] = []
    try:
        # Writes the per-seed inputs and warms the bytecode and file caches.
        prepared, note = spawn(common + ["--mode", "prepare"], deadline)
        if prepared is None:
            raise BenchError(f"preparing {workload} failed: {note}")
        plain: list[dict | None] = []
        traced: list[dict | None] = []
        slowest = 0.0
        min_reps = MIN_PAIRS if trace else MIN_REPS
        while True:
            now = time.monotonic()
            if len(plain) >= min_reps and now - started >= seconds:
                break
            if plain and now + slowest > deadline:
                notes.append(f"stopped after {len(plain)} repetitions: "
                             f"invocation budget of {DEADLINE_S:.0f} s")
                break
            t = time.monotonic()
            result, note = spawn(common, deadline)
            plain.append(result)
            if note:
                notes.append(f"repetition {len(plain)}: {note}")
            if trace:
                out = spans_dir / f"{workload}_seed{seed}_rep{len(traced) + 1}.jsonl"
                result, note = spawn(common + ["--trace-out", str(out)], deadline)
                traced.append(result)
                if note:
                    notes.append(f"traced repetition {len(traced)}: {note}")
            slowest = max(slowest, time.monotonic() - t)
        setups = [r["setup_s"] for r in plain if r is not None]
        while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            result, note = spawn(common + ["--mode", "setup"], deadline)
            if result is None:
                raise BenchError(f"set-up run failed: {note}")
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if workload in KNOWN_DEFECTS:
        notes.append(f"known program defect: {KNOWN_DEFECTS[workload]}")
    return summarize(workload, plain, traced, setups, notes)


def summarize(workload, plain, traced, setups, notes) -> dict:
    reps = plain + traced
    good = [r for r in reps if r is not None]
    reference = fingerprint(good[0]) if good else None
    failed = 0
    for i, r in enumerate(reps):
        if r is None:
            failed += 1
            continue
        bad = [c["name"] for c in r["checks"] if not c["ok"]]
        if fingerprint(r) != reference:
            bad.append("determinism fingerprint differs from repetition 1")
        mismatch = r.get("trace", {}).get("root_mismatch", 0.0)
        if mismatch > 0.01:
            bad.append(f"span self times miss a root's duration by {mismatch:.2%}")
        if bad:
            failed += 1
            notes.append(f"repetition {i + 1} failed: {'; '.join(bad)}")
    ok_plain = [r for r in plain if r is not None]
    ok_traced = [r for r in traced if r is not None]
    if not ok_plain or (traced and not ok_traced):
        raise BenchError(f"no repetition of {workload} completed: {notes}")

    runs = ok_plain[0]["runs"]
    run_s = [r["run_s"] for r in ok_plain]
    e2e = {
        "run_s": statistics.median(run_s),
        "gates_per_s": statistics.median(r["gates"] / r["run_s"] for r in ok_plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_plain),
        "peak_nodes": max(r["max_dd_size"] for r in runs),
        "fidelity_bound": min(r["fidelity_lower_bound"] for r in runs),
    }
    summary = {
        "workload": workload,
        "attempted": len(reps),
        "failed": failed,
        "end_to_end": e2e,
        "run_s_samples": run_s,
        "run_s_tail": tail_percentile(run_s),
        "setup_s_samples": setups,
        "notes": notes,
        "env": {
            "python": ok_plain[0]["python"],
            "numpy": ok_plain[0]["numpy"],
            "nproc": os.cpu_count(),
            "PYTHONHASHSEED": "0",
        },
        "repetitions": reps,
    }
    if ok_traced:
        summary["per_layer"] = per_layer(ok_plain, ok_traced)
    return summary


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    med = statistics.median

    def spread(values):
        return max(values) - min(values)

    out = {}
    for span in SPANS:
        out[f"{span}.self_s"] = med(r["trace"]["self_s"].get(span, 0.0) for r in traced)
    calls = lambda name: med(r["trace"]["calls"].get(name, 0) for r in traced)  # noqa: E731
    out["dd.node_count.calls"] = calls("dd.node_count")
    out["dd.gc.runs"] = calls("dd.gc")
    out["ops.apply.calls"] = calls("ops.apply")
    out["dd.gc.reclaimed"] = med(r["trace"]["gc_reclaimed"] for r in traced)
    out["dd.nodes_created"] = traced[0]["nodes_created"]
    out["dd.unique_table_peak"] = med(r["trace"]["unique_table_peak"] for r in traced)
    out["dd.weight_entries"] = med(r["trace"]["weight_entries_peak"] for r in traced)
    out["ops.gate_dd.built"] = traced[0]["gate_dds_built"]
    for cache in ("apply_cache", "add_cache"):
        lookups = [r["trace"]["caches"][cache][0] for r in traced]
        ratios = [h / n if n else 0.0
                  for n, h in (r["trace"]["caches"][cache] for r in traced)]
        out[f"ops.{cache}.lookups"] = med(lookups)
        out[f"ops.{cache}.hit_ratio"] = med(ratios)
        out[f"ops.{cache}.lookups.spread"] = spread(lookups)
        out[f"ops.{cache}.hit_ratio.spread"] = spread(ratios)
    rounds = traced[0]["rounds"]
    mass = sum(r[0] for r in rounds)
    budget = sum(r[1] for r in rounds)
    out["approx.rounds"] = len(rounds)
    out["approx.nodes_removed"] = sum(r[2] for r in rounds)
    out["approx.mass_removed"] = mass
    out["approx.budget_use"] = mass / budget if budget else 0.0
    out["strategies.gates"] = traced[0]["gates"]
    out["oracle.check_s"] = med(r["check_s"] for r in plain)
    out["trace.overhead"] = (med(r["run_s"] for r in traced)
                             / med(r["run_s"] for r in plain) - 1.0)
    return out


def report(summary: dict, trace: bool) -> None:
    w = summary["workload"]
    env = summary["env"]
    print(f"# {w}: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, PYTHONHASHSEED {env['PYTHONHASHSEED']}, "
          "closed loop, 1 caller")
    n = len(summary["run_s_samples"])
    tail = summary["run_s_tail"]
    tail_text = (f"p{tail[0]} {tail[1]:.6g} s" if tail else
                 f"tail percentile n/a (needs 11 samples)")
    units = dict(END_TO_END)
    for name, value in summary["end_to_end"].items():
        extra = f"  (median of {n}; {tail_text})" if name == "run_s" else ""
        print(f"{w} {name} = {value:.6g} {units[name]}{extra}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{w} error_rate = {failed / attempted:.6g} ({failed} failed of {attempted})")
    if trace and "per_layer" in summary:
        units = dict(PER_LAYER)
        for name, value in summary["per_layer"].items():
            print(f"{w} {name} = {value:.6g} {units[name]}")
    for note in summary["notes"]:
        print(f"{w} note: {note}")


def metric_block(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny instances, for the benchmark's smoke test")
    p.add_argument("--break-check", action="store_true",
                   help="invert each repetition's first output check, "
                        "for the benchmark's smoke test")
    args = p.parse_args(argv)

    if not (SRC / "ddqsim" / "__init__.py").is_file():
        print(f"run.py: no ddqsim sources under {SRC}", file=sys.stderr)
        return 2
    if "DDQSIM_COMPUTE_TABLE_SIZE" in os.environ:
        print("run.py: refusing to run with DDQSIM_COMPUTE_TABLE_SIZE set; "
              "the benchmark measures the default compute-table size",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summary = bench(name, args.seed, args.seconds, bool(args.trace),
                            args.tiny, args.break_check)
            report(summary, bool(args.trace))
            summaries.append(summary)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    for s in summaries:
        path = results / f"{s['workload']}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(s, indent=1) + "\n")

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if args.workload == "all":
        metrics = {}
        for s in summaries:
            for block, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
                if block in s:
                    for name, unit in units:
                        metrics[f"{s['workload']}.{name}"] = {
                            "value": s[block][name], "unit": unit}
    elif args.trace:
        metrics = metric_block(summaries[0]["per_layer"], PER_LAYER)
    else:
        metrics = metric_block(summaries[0]["end_to_end"], END_TO_END)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed and args.workload == "all" else 0


if __name__ == "__main__":
    sys.exit(main())
