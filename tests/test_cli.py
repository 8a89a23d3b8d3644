"""The command line front end, driven in process through ``main(argv)``."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import ddqsim
from ddqsim.circuit import gen_ghz, to_qasm
from ddqsim.cli import CSV_FIELDS, STATS_SCHEMA, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_generator_run(capsys):
    code, out, err = run(capsys, "--gen", "ghz", "4")
    assert code == 0
    assert "benchmark=ghz_4" in out
    assert "mode=exact" in out
    assert "rounds=0" in out
    assert "fidelity_lower_bound=1" in out


def test_qasm_file_run(tmp_path, capsys):
    path = tmp_path / "bell.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1],q[0];\n")
    code, out, err = run(capsys, str(path), "--verify")
    assert code == 0
    assert "benchmark=bell" in out
    assert "oracle_fidelity=1" in out



def test_deep_register_is_a_capacity_error(capsys):
    code, _, err = run(capsys, "--gen", "ghz", "1200")
    assert code == 3
    assert err.startswith("simulate: capacity:")
    assert "Traceback" not in err


def test_stats_json_matches_schema(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code, out, _ = run(capsys, "--gen", "supremacy", "2", "3", "4", "7",
                       "--mode", "memory", "--threshold", "10",
                       "--f-round", "0.98",
                       "--stats", str(stats_path), "--verify")
    assert code == 0
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert payload["mode"] == "memory"
    assert payload["f_round"] == 0.98
    assert len(payload["node_trace"]) == payload["num_gates"]
    assert payload["verify"]["oracle_fidelity"] >= \
        payload["fidelity_lower_bound"] - 1e-9
    bound = math.prod(r["round_fidelity"] for r in payload["rounds"])
    assert payload["fidelity_lower_bound"] == pytest.approx(bound, abs=1e-12)


def test_stats_json_trace_after_gate(tmp_path, capsys):
    # Exact mode fuses GHZ 8's CX ladder into windows; memory mode counts
    # after every gate.
    for mode, extra in (("exact", []), ("memory", ["--threshold", "1000"])):
        stats_path = tmp_path / f"{mode}.json"
        code, _, _ = run(capsys, "--gen", "ghz", "8", "--mode", mode, *extra,
                         "--stats", str(stats_path))
        assert code == 0
        payload = json.loads(stats_path.read_text())
        jsonschema.validate(payload, STATS_SCHEMA)
        after = payload["trace_after_gate"]
        assert len(after) == len(payload["node_trace"])
        assert after[-1] == payload["num_gates"] == 8
        assert payload["final_dd_size"] == 15
        if mode == "exact":
            assert after == [1, 4, 7, 8]
        else:
            assert after == list(range(1, 9))


def test_stats_json_exact_mode_nulls(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code, _, _ = run(capsys, "--gen", "qft", "3", "--stats", str(stats_path))
    assert code == 0
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert payload["f_round"] is None
    assert payload["planned_rounds"] is None
    assert payload["verify"] is None


def test_fidelity_mode_with_markers(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code, out, err = run(capsys, "--gen", "shor", "15", "2",
                         "--mode", "fidelity", "--f-final", "0.5",
                         "--f-round", "0.9", "--placement", "markers",
                         "--stats", str(stats_path))
    assert code == 0
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert payload["planned_rounds"] == 6
    assert all(r["trigger"] == "marker" for r in payload["rounds"])
    assert "simulate: note:" in err


def test_qft_inverse_generator(capsys):
    code, out, _ = run(capsys, "--gen", "qft", "4", "inv")
    assert code == 0
    assert "benchmark=qftinv_4" in out


def test_dump_amplitudes_format(capsys):
    code, out, _ = run(capsys, "--gen", "ghz", "3", "--dump-amplitudes")
    assert code == 0
    lines = out.strip().splitlines()
    dump = [ln for ln in lines if ln[0].isdigit()]
    assert len(dump) == 2
    index, re, im = dump[0].split()
    assert index == "0"
    assert float(re) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert float(im) == 0.0
    assert dump[1].split()[0] == "7"


def test_csv_appends_with_single_header(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    assert run(capsys, "--gen", "ghz", "3", "--csv", str(path))[0] == 0
    assert run(capsys, "--gen", "ghz", "4", "--csv", str(path),
               "--mode", "memory", "--threshold", "2",
               "--f-round", "0.9")[0] == 0
    rows = list(csv.reader(path.open()))
    assert rows[0] == CSV_FIELDS
    assert len(rows) == 3
    assert rows[1][0] == "ghz_3"
    assert rows[1][4] == ""          # exact runs leave f_round blank
    assert rows[2][4] == "0.9"


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(capsys, "--gen", "ghz", "4", str(tmp_path / "x.qasm"))[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "--gen", "frob", "3")[0] == 1
    assert run(capsys, "--gen", "ghz", "many")[0] == 1
    assert run(capsys, "--gen", "shor", "16", "3")[0] == 1
    assert run(capsys, str(tmp_path / "missing.qasm"))[0] == 1
    code, _, err = run(capsys, "--gen", "ghz", "3", "--mode", "memory",
                       "--threshold", "0")
    assert code == 1
    assert "threshold" in err


def test_qasm_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n")
    code, _, err = run(capsys, str(path))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("angle", [
    "1/0", "0^-1", "10^400", "1e308*10", "(-8)^(1/3)",
    # Nested too deeply: RecursionError in _eval_node, RecursionError in
    # ast.parse, and MemoryError in ast.parse.
    pytest.param("-" * 2000 + "1", id="2000 unary minuses"),
    pytest.param("+".join(["1"] * 5000), id="5000 terms"),
    pytest.param("-" * 50000 + "1", id="50000 unary minuses")])
def test_bad_angles_exit_2_without_a_traceback(tmp_path, angle):
    path = tmp_path / "angle.qasm"
    path.write_text(f"OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz({angle}) q[0];\n")
    src = str(Path(ddqsim.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ddqsim.cli", str(path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    assert "line 4" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_capacity_guard_exit_3(capsys):
    # GHZ itself stays tiny at any width; the dense dump is what trips the
    # capacity guard past 20 qubits.
    code, _, err = run(capsys, "--gen", "ghz", "21", "--dump-amplitudes")
    assert code == 3
    assert "capacity" in err


def test_memory_error_exits_3_without_a_traceback(monkeypatch, capsys):
    def refuse(circuit):
        raise MemoryError
    monkeypatch.setattr(ddqsim.cli, "simulate_exact", refuse)
    code, out, err = run(capsys, "--gen", "ghz", "4")
    assert code == 3
    assert out == ""
    assert err == "simulate: capacity: out of memory\n"


def test_no_stats_written_on_failure(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    path = tmp_path / "bad.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[1];\nnope q[0];\n")
    code, _, _ = run(capsys, str(path), "--stats", str(stats_path))
    assert code == 2
    assert not stats_path.exists()


@pytest.mark.parametrize("flag", ["--stats", "--csv"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "out"
    code, _, err = run(capsys, "--gen", "ghz", "4", flag, str(target))
    assert code == 1
    assert err.startswith("simulate: error:")
    assert "Traceback" not in err


def test_verify_skipped_above_limit(capsys):
    code, out, err = run(capsys, "--gen", "ghz", "13", "--verify")
    assert code == 0
    assert "skipped" in err
    assert "oracle_fidelity" not in out


def test_measure_warning_becomes_note(tmp_path, capsys):
    path = tmp_path / "meas.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
                    "h q[0];\nmeasure q[0] -> c[0];\n")
    code, _, err = run(capsys, str(path))
    assert code == 0
    assert "measure" in err


def test_roundtrip_qasm_written_by_package(tmp_path, capsys):
    circ = gen_ghz(5)
    path = tmp_path / "ghz5.qasm"
    path.write_text(to_qasm(circ))
    code, out, _ = run(capsys, str(path), "--verify")
    assert code == 0
    assert "oracle_fidelity=1" in out


_NO_NUMPY = """
import sys
import warnings

import ddqsim
import ddqsim.cli
from ddqsim import (Context, FidelityDrivenConfig, MemoryDrivenConfig,
                    gen_ghz, gen_qft, gen_shor_period, gen_supremacy,
                    parse_qasm, simulate_exact, simulate_fidelity_driven,
                    simulate_memory_driven)

qasm = ("OPENQASM 2.0;\\nqreg q[3];\\nh q[0];\\ncx q[0],q[1];\\n"
        "rx(pi/3) q[2];\\nry(-0.2) q[1];\\nrz(0.4) q[0];\\n"
        "cp(pi/8) q[2],q[0];\\nccx q[0],q[1],q[2];\\nswap q[0],q[2];\\n")
circuits = [parse_qasm(qasm), gen_ghz(6), gen_qft(5), gen_qft(5, inverse=True),
            gen_supremacy(2, 3, 6, 1), gen_shor_period(15, 7)]
for circuit in circuits:
    simulate_exact(circuit)
    simulate_memory_driven(circuit, MemoryDrivenConfig(4, 0.95))
    simulate_fidelity_driven(circuit, FidelityDrivenConfig(0.8, 0.95))
path = sys.argv[1]
open(path + ".qasm", "w").write(qasm)
assert ddqsim.cli.main(["--gen", "ghz", "8", "--stats", path + ".json",
                        "--csv", path + ".csv"]) == 0
assert ddqsim.cli.main([path + ".qasm", "--mode", "memory",
                        "--threshold", "3"]) == 0
assert "numpy" not in sys.modules, "simulation loaded numpy"

# The dense paths load it on demand.
assert ddqsim.cli.main(["--gen", "qft", "4", "--verify"]) == 0
assert "numpy" in sys.modules
state = Context().from_dense([0.6, 0, 0, 0.8])
assert abs(state.amplitude("11") - 0.8) < 1e-15
assert len(state.to_dense()) == 4
print("ok")
"""


def test_simulation_never_loads_numpy(tmp_path):
    src = str(Path(ddqsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert "oracle_fidelity=1" in done.stdout
