import json
from pathlib import Path

import numpy as np
import pytest

from rotorvqe.cli import main
from rotorvqe.paulimap import operator_from_text

from oracles import dense_from_labels

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# acceptance criterion 01's pinned eigenvalues, keyed by shipped config file
# (None: the built-in defaults)
PINNED_LAMBDA1 = {
    None: 1.51562,
    "q3.cfg": 1.47537,
    "q4.cfg": 1.47531,
    "barrier3.cfg": 0.33310,
}
SHIPPED = sorted({p.name for p in CONFIG_DIR.glob("*.cfg")} | (PINNED_LAMBDA1.keys() - {None}))


@pytest.fixture
def quick_cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text("kept = 4,2\niterations = 40\nrestarts = 2\nseed = 7\nshots = 400\n")
    return str(path)


def test_reference_stdout_and_json(tmp_path, capsys):
    out = tmp_path / "ref.json"
    assert main(["reference", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "lambda1" in printed and "1.515618" in printed
    payload = json.load(open(out))
    assert payload[0]["qubits"] == 2
    assert payload[0]["lambda1"] == pytest.approx(1.5156183, rel=1e-5)
    assert payload[0]["rate"] == pytest.approx(payload[0]["lambda1"] / 2)


def test_reference_csv(tmp_path):
    out = tmp_path / "ref.csv"
    assert main(["reference", "--out", str(out), "--set", "kept=4,4"]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header.split(",")[:3] == ["kept", "basis_size", "qubits"]
    fields = row.split(",")
    assert fields[0] == "4/4" and fields[2] == "3"
    assert float(fields[3]) == pytest.approx(1.4753736, rel=1e-5)


@pytest.mark.parametrize("name", [None] + SHIPPED)
def test_shipped_configs_reproduce_pinned_eigenvalues(tmp_path, name):
    assert name in PINNED_LAMBDA1, f"configs/{name} has no pinned eigenvalue"
    out = tmp_path / "ref.json"
    argv = ["reference", "--out", str(out)]
    if name is not None:
        argv += ["--config", str(CONFIG_DIR / name)]
    assert main(argv) == 0  # a pinned config missing from configs/ exits 2
    lambda1 = json.loads(out.read_text())[0]["lambda1"]
    assert lambda1 == pytest.approx(PINNED_LAMBDA1[name], rel=5e-4)


def test_map_writes_loadable_operator(tmp_path, capsys):
    out = tmp_path / "op.txt"
    assert main(["map", "--out", str(out)]) == 0
    assert "terms" in capsys.readouterr().out
    operator = operator_from_text(out.read_text())
    dense = dense_from_labels([(s.label, c) for s, c in operator])
    assert dense.shape == (4, 4)
    # the mapped operator must be symmetric with a real spectrum bounded below
    assert np.allclose(dense, dense.conj().T)
    assert np.linalg.eigvalsh(dense)[0] == pytest.approx(1.5156183, rel=1e-6)


def test_vqe_json_csv_and_bitstrings(tmp_path, quick_cfg, capsys):
    run_json = tmp_path / "run.json"
    bits = tmp_path / "bits.txt"
    assert main(["vqe", "--config", quick_cfg, "--out", str(run_json), "--bitstrings", str(bits)]) == 0
    assert "best value" in capsys.readouterr().out
    payload = json.load(open(run_json))
    assert set(payload) == {"value", "reference", "error_percent", "rate", "evaluations", "seed", "params"}
    assert payload["evaluations"] == 2 * 40 + 1
    assert payload["value"] >= payload["reference"] - 1e-9
    lines = bits.read_text().splitlines()
    assert len(lines) == 400
    assert set("".join(lines)) <= {"0", "1"}
    assert all(len(line) == 2 for line in lines)

    trace_csv = tmp_path / "trace.csv"
    assert main(["vqe", "--config", quick_cfg, "--out", str(trace_csv)]) == 0
    rows = trace_csv.read_text().strip().splitlines()
    assert rows[0].startswith("iteration,value,p0")
    assert len(rows) > 40  # one record per iteration plus header and final point


def test_ensemble_outputs(tmp_path, quick_cfg, capsys):
    csv_path = tmp_path / "ens.csv"
    assert main(["ensemble", "--config", quick_cfg, "--out", str(csv_path)]) == 0
    assert "eps_min" in capsys.readouterr().out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "run,value"
    assert len(rows) == 1 + 2

    json_path = tmp_path / "ens.json"
    assert main(["ensemble", "--config", quick_cfg, "--out", str(json_path)]) == 0
    payload = json.load(open(json_path))
    assert len(payload["values"]) == 2
    assert payload["minimum"] == pytest.approx(min(payload["values"]))
    assert payload["eps_min"] <= payload["eps_avg"]


def test_barrier_scan_csv(tmp_path, quick_cfg):
    out = tmp_path / "scan.csv"
    assert main([
        "barrier-scan", "--config", quick_cfg,
        "--set", "barriers=0.5,1.5,3.0", "--set", "iterations=10", "--set", "restarts=1",
        "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "barrier"
    refs = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(refs) == 3
    assert refs[0] > refs[1] > refs[2]


def test_qubit_scan_csv(tmp_path, quick_cfg):
    out = tmp_path / "rungs.csv"
    assert main([
        "qubit-scan", "--config", quick_cfg,
        "--set", "ladder=4,2;4,4", "--set", "iterations=10", "--set", "restarts=1",
        "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows] == ["kept", "4/2", "4/4"]
    assert [r.split(",")[1] for r in rows[1:]] == ["2", "3"]


def test_hierarchical_csv(tmp_path, quick_cfg):
    out = tmp_path / "ladder.csv"
    assert main([
        "hierarchical", "--config", quick_cfg, "--set", "ladder=4,2;4,4", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    best = [float(r.split(",")[3]) for r in rows[1:]]
    assert best[1] <= best[0] + 1e-12


def test_hierarchical_json_is_strict(tmp_path, quick_cfg):
    out = tmp_path / "ladder.json"
    assert main([
        "hierarchical", "--config", quick_cfg, "--set", "ladder=4,2;4,4",
        "--set", "iterations=5", "--out", str(out),
    ]) == 0

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    rungs = json.loads(out.read_text(), parse_constant=reject)
    # the cold rung has no start value
    assert rungs[0]["start_value"] is None
    assert isinstance(rungs[1]["start_value"], float)


def test_dist_study_with_params_file(tmp_path, quick_cfg, capsys):
    params = tmp_path / "angles.json"
    params.write_text(json.dumps([0.3] * 8))
    out = tmp_path / "dist.csv"
    assert main([
        "dist-study", "--config", quick_cfg, "--params", str(params),
        "--set", "repetitions=4", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "sampled" in printed and "noisy" in printed
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "mode,repetition,value"
    assert len(rows) == 1 + 2 * 4


def test_exit_code_config_error(capsys):
    assert main(["vqe", "--set", "bogus=1"]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["vqe", "--config", "/nonexistent.cfg"]) == 2
    assert main(["ensemble", "--set", "mode=warp"]) == 2
    assert main(["dist-study", "--params", "/nonexistent.json"]) == 2
    assert "cannot read params" in capsys.readouterr().err


def test_exit_code_validation_error(tmp_path, capsys):
    assert main(["reference", "--set", "diffusion=1,1"]) == 3
    assert "invalid value" in capsys.readouterr().err
    assert main(["hierarchical", "--set", "ladder=4,4;4,2", "--set", "iterations=1", "--set", "restarts=1"]) == 3
    params = tmp_path / "angles.json"
    params.write_text(json.dumps({"angles": [0.3] * 8}))
    capsys.readouterr()
    assert main(["dist-study", "--params", str(params)]) == 3
    assert "JSON list" in capsys.readouterr().err
    # JSON null loads as NaN and Infinity as inf; neither is an angle
    for text in ("[" + ", ".join(["null"] * 8) + "]", "[Infinity" + ", 0.3" * 7 + "]"):
        params.write_text(text)
        assert main(["dist-study", "--params", str(params)]) == 3
        assert "finite angle" in capsys.readouterr().err


def test_argparse_exits_are_returned(capsys):
    assert main([]) == 2  # missing subcommand
    assert main(["--help"]) == 0
    capsys.readouterr()
