"""Smoke test of the benchmark itself, on tiny instances (a few seconds).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json names the metrics run.py reports and its
workloads, less those with a known program defect; that every end-to-end
and per-layer metric is printed, by name and with its unit, for every
workload; that a single-workload run ends with the
contract's JSON line; and that a deliberately broken output check is counted
in error_rate.  Exits nonzero on the first failed assertion.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, KNOWN_DEFECTS, PER_LAYER, WORKLOADS  # noqa: E402


def bench(*args: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "0",
         "--tiny", *args],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr: {proc.stderr}"
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def check_result_line(result: dict, names) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] == (result["failed"] == 0)
    for name, unit in names:
        got = result["metrics"][name]
        assert got["unit"] == unit, (name, got)
        assert isinstance(got["value"], (int, float)), (name, got)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in WORKLOADS if w not in KNOWN_DEFECTS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)

    code, report, result = bench("--workload", "all", "--trace", "1")
    assert code in (0, 1), code
    for w in WORKLOADS:
        for name, unit in END_TO_END + PER_LAYER:
            prefix = f"{w} {name} = "
            line = next((l for l in report if l.startswith(prefix)), None)
            assert line is not None, f"missing {prefix!r}"
            assert line.split("  ")[0].endswith(f" {unit}"), line
        assert any(l.startswith(f"{w} error_rate = ") for l in report), w
    check_result_line(result, [(f"{w}.{n}", u) for w in WORKLOADS
                               for n, u in END_TO_END + PER_LAYER])

    code, _, plain = bench("--workload", "grid_exact", "--trace", "0")
    check_result_line(plain, END_TO_END)
    assert set(plain["metrics"]) == {n for n, _ in END_TO_END}
    assert code == 0 and plain["failed"] == 0, plain

    code, _, traced = bench("--workload", "grid_exact", "--trace", "1")
    check_result_line(traced, PER_LAYER)
    assert set(traced["metrics"]) == {n for n, _ in PER_LAYER}
    assert code == 0 and traced["failed"] == 0, traced

    code, report, broken = bench("--workload", "grid_exact", "--trace", "0",
                                 "--break-check")
    assert code == 0, code
    assert broken["failed"] == broken["attempted"] and not broken["correct"], broken
    assert any(l.startswith("grid_exact error_rate = 1 ") for l in report), report
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
