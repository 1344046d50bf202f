import contextlib
import io
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorvqe import cli, driver
from rotorvqe.cli import main
from rotorvqe.config import _SETTINGS, resolve_settings
from rotorvqe.driver import build_problem
from rotorvqe.qsim import format_bitstrings, prepare_state, sample_bitstrings

from conftest import make_chain

from oracles import dense_from_labels, operator_from_text, shot_stream

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


def test_reference_writes_the_problems_lambda1_bit_for_bit(tmp_path):
    # kept 4,6 pads 12 chain states into 4 qubits; lambda1 is the unpadded
    # chain matrix's, for `reference` and the built problem alike
    out = tmp_path / "ref.json"
    assert main(["reference", "--set", "kept=4,6", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())
    assert (row["basis_size"], row["qubits"]) == (12, 4)
    assert row["lambda1"].hex() == build_problem(make_chain(), (4, 6)).reference.hex()


def test_reference_checks_the_ansatz_settings_as_map_does(capsys):
    for command in ("reference", "map"):
        assert main([command, "--set", "depth=-1"]) == 3
        assert "depth must be non-negative" in capsys.readouterr().err


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


def test_bitstrings_draw_from_a_stream_of_their_own(tmp_path, quick_cfg):
    # not default_rng(run seed), which drew the run's start angles, but the
    # run's shot stream keyed 2, past the study modes' keys 0 and 1
    run_json, bits = tmp_path / "run.json", tmp_path / "bits.txt"
    assert main(["vqe", "--config", quick_cfg, "--out", str(run_json), "--bitstrings", str(bits)]) == 0
    payload = json.loads(run_json.read_text())
    _, problem = cli._problem(resolve_settings(quick_cfg))
    state = prepare_state(problem.ansatz, np.asarray(payload["params"]))
    seed = payload["seed"]

    def dump(rng):
        return format_bitstrings(sample_bitstrings(state, 400, seed=rng), problem.qubits)

    assert bits.read_text() == dump(shot_stream(seed, 2))
    for rng in (np.random.default_rng(seed), shot_stream(seed), shot_stream(seed, 0), shot_stream(seed, 1)):
        assert bits.read_text() != dump(rng)


def test_vqe_json_csv_and_bitstrings(tmp_path, quick_cfg, capsys):
    run_json = tmp_path / "run.json"
    bits = tmp_path / "bits.txt"
    assert main(["vqe", "--config", quick_cfg, "--out", str(run_json), "--bitstrings", str(bits)]) == 0
    assert "best value" in capsys.readouterr().out
    payload = json.load(open(run_json))
    assert set(payload) == {
        "value", "reference", "error_percent", "rate", "evaluations", "calibration_evaluations",
        "seed", "params",
    }
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


@pytest.mark.parametrize(
    "settings, calibration",
    [([], 50), (["--set", "gain_policy=fixed"], 0), (["--set", "optimizer=nelder-mead"], 0)],
)
def test_vqe_states_its_calibration_evaluations(tmp_path, capsys, settings, calibration):
    out = tmp_path / "run.json"
    assert main(["vqe", "--set", "iterations=5", *settings, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == ["evaluations : 11", f"calibration : {calibration}"]
    assert json.loads(out.read_text())["calibration_evaluations"] == calibration


# a one-shot sampled estimate that falls below zero: no rate, but a run.
# Seed 0 is the first of the seeds 0, 1, 2, ... whose run comes out negative
NEGATIVE_ESTIMATE = [
    "--set", "dihedrals=Monostable:0.6137712619882808,bistable:0.445618592956778",
    "--set", "diffusion=1.381247950951718,1.8218641676966871,1.9",
    "--set", "kept=2,3", "--set", "harmonics=14", "--set", "depth=2",
    "--set", "mode=sampled", "--set", "shots=1", "--set", "grouping=No",
    "--set", "optimizer=nelder-mead", "--set", "gain_policy=fixed",
    "--set", "iterations=2", "--set", "seed=0",
]


def test_vqe_reports_no_rate_for_a_negative_estimate(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["vqe", *NEGATIVE_ESTIMATE, "--out", str(out)]) == 0
    printed = capsys.readouterr()
    lines = printed.out.splitlines()
    assert "best value  : -34.081375" in lines
    assert lines[-1] == "rate        : -"
    assert printed.err == ""
    payload = json.loads(out.read_text())
    assert payload["value"] < 0.0 and payload["rate"] is None
    # the classical reference of the same chain still has its rate
    assert main(["reference", *NEGATIVE_ESTIMATE, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())[0]
    assert payload["rate"] == 0.5 * payload["lambda1"] > 0.0


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


def test_dist_study_unmitigated_singular_readout(tmp_path, quick_cfg, capsys):
    # a flip probability of 0.5 makes the readout confusion singular, which
    # only matters when mitigation inverts it
    params = tmp_path / "angles.json"
    params.write_text(json.dumps([0.3] * 8))
    assert main([
        "dist-study", "--config", quick_cfg, "--params", str(params), "--set", "repetitions=4",
        "--set", "readout_flip=0.5", "--set", "mitigate=false",
    ]) == 0
    assert "noisy" in capsys.readouterr().out


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
    # the cutoff is named before the kept counts it bounds
    assert main(["reference", "--set", "harmonics=0"]) == 3
    assert "at least one harmonic, got harmonics=0" in capsys.readouterr().err
    # a kept count above the cutoff's 2*harmonics + 1 modes names both keys and the bound
    assert main(["reference", "--set", "kept=8,4", "--set", "harmonics=3"]) == 3
    err = capsys.readouterr().err
    assert "kept must be in [1, 2*harmonics + 1] = [1, 7] at harmonics=3, got kept=8" in err
    # a barrier that overflows its Fourier matrix is named
    assert main(["reference", "--set", "dihedrals=bistable:1e200,monostable:1"]) == 3
    assert "barrier=1e+200) overflows its generator matrix" in capsys.readouterr().err
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


def test_oversized_cutoff_and_out_of_range_seeds_exit_3(capsys):
    tracemalloc.start()
    try:
        assert main(["reference", "--set", "harmonics=100000"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        "invalid value: harmonics=100000 needs a 400001 x 400001 generator at twice the cutoff,"
        " over the limit of 67108864 entries; lower harmonics\n"
    )
    assert peak < 4 * 2**20
    for seed in (-1, 2**64):
        assert main(["vqe", "--set", f"seed={seed}", "--set", "iterations=1"]) == 3
        assert capsys.readouterr().err == f"invalid value: seed must be in [0, 2**64), got {seed}\n"


def test_dist_study_refuses_repetitions_before_its_ensemble(monkeypatch, capsys):
    ensembles = []

    def run_ensemble(*args, **kwargs):
        ensembles.append(args)
        raise AssertionError("the study's ensemble ran before its repetitions were checked")

    monkeypatch.setattr(cli, "run_ensemble", run_ensemble)
    assert main(["dist-study", "--set", "repetitions=1"]) == 3
    assert "need at least two repetitions" in capsys.readouterr().err
    assert ensembles == []


def test_barrier_scan_refuses_a_monostable_first_dihedral(monkeypatch, capsys):
    ensembles = []

    def run_batch(*args, **kwargs):
        ensembles.append(args)
        raise AssertionError("an ensemble ran before the scanned dihedral was checked")

    monkeypatch.setattr(driver, "_run_batch", run_batch)
    assert main([
        "barrier-scan", "--set", "dihedrals=monostable:1,bistable:0.5", "--set", "barriers=0.5,3",
        "--set", "restarts=1", "--set", "iterations=5",
    ]) == 3
    assert "barrier scan needs a bistable first dihedral, got monostable" in capsys.readouterr().err
    assert ensembles == []


def test_argparse_exits_are_returned(capsys):
    assert main([]) == 2  # missing subcommand
    assert main(["--help"]) == 0
    capsys.readouterr()


# --set values for every config key, drawn so that every call stays small:
# at most 3 iterations, 2 restarts, 200 shots, depth 2, 2 workers, 16
# harmonics and 8 kept functions per dihedral.  A call sets valid values,
# and about every other call breaks one of them
def _joined(elements, low=1, high=3, sep=","):
    return st.lists(elements, min_size=low, max_size=high).map(sep.join)


def _ints(low, high):
    return st.integers(low, high).map(str)


def _floats(low, high):
    return st.floats(low, high).map(repr)


_KINDS = st.sampled_from(["bistable", "monostable", "Monostable"])
_SWITCH = st.sampled_from(["true", "off", "1", "No"])
_VALID = {
    "dihedrals": _joined(st.tuples(_KINDS, _floats(0.0, 5.0)).map(":".join), 2, 2),
    "diffusion": _joined(_floats(0.1, 3.0), 3, 3),
    "kept": st.tuples(_ints(2, 8), _ints(1, 8)).map(",".join),
    "ladder": None,  # drawn to end at the call's kept counts
    "harmonics": _ints(12, 16),
    "depth": _ints(0, 2),
    "entangler": st.sampled_from(["linear", "FULL"]),
    "mode": st.sampled_from(["exact", "sampled", "noisy"]),
    "shots": _ints(1, 200),
    "grouping": _SWITCH,
    "mitigate": _SWITCH,
    "p1": _floats(0.0, 0.1),
    "p2": _floats(0.0, 0.1),
    "readout_flip": st.one_of(_floats(0.0, 0.2), st.just("1")),
    "optimizer": st.sampled_from(["spsa", "nelder-mead"]),
    "gain_policy": st.sampled_from(["fixed", "calibrated"]),
    "iterations": _ints(0, 3),
    "restarts": _ints(1, 2),
    "seed": _ints(0, 2**64 - 1),
    "workers": _ints(1, 2),
    "barriers": _joined(_floats(0.0, 5.0)),
    "repetitions": _ints(2, 5),
}
_WILD_FLOATS = st.sampled_from(["nan", "-inf", "1e999", "-1", "1.5", "1e300", "5e-324"])
_INVALID = {
    "dihedrals": st.sampled_from(
        ["planar:1", "bistable", "bistable:nan", "bistable:-1,monostable:1", "bistable:1e300,monostable:1",
         "bistable:0.5", "bistable:0.5,monostable:1,bistable:1.5"]
    ),
    "diffusion": st.one_of(_joined(_WILD_FLOATS, 3, 3), st.sampled_from(["1,1", "1,1,1,1", "1,0,1"])),
    "kept": st.sampled_from(["1,1", "1,2", "0,2", "-1,2", "4", "4,2,2", "4,4,4"]),
    "ladder": st.sampled_from(["4,4", "2,2;4", "8,8;4,2"]),
    "harmonics": _ints(-1, 4),
    "depth": st.just("-1"),
    "entangler": st.just("ring"),
    "mode": st.just("dense"),
    "shots": _ints(-1, 0),
    "grouping": st.just("maybe"),
    "mitigate": st.just("maybe"),
    "p1": _WILD_FLOATS,
    "p2": _WILD_FLOATS,
    "readout_flip": st.one_of(_WILD_FLOATS, st.just("0.5")),
    "optimizer": st.just("adam"),
    "gain_policy": st.just("adaptive"),
    "iterations": st.just("-1"),
    "restarts": st.just("0"),
    "seed": st.sampled_from(["-1", str(2**64)]),
    "workers": _ints(-1, 0),
    "barriers": st.sampled_from(["", "nan", "1,,"]),
    "repetitions": st.sampled_from(["1.5", "two"]),
}
# read by `reference` and `map` too, which build a problem and run nothing
_BUILD_KEYS = ("dihedrals", "diffusion", "kept", "ladder", "harmonics", "depth", "entangler")
# unparsable text, for any key
_JUNK = st.sampled_from(["", " ", "x", "1.5.2", "4;;2", "0x10", "1,,x", "'4'"])


def _ladder(kept: str):
    """The kept counts, after at most one rung below them."""
    top = [int(c) for c in kept.split(",")]
    below = st.tuples(*[st.integers(min(2, c), c) for c in top]).map(lambda r: ",".join(map(str, r)) + ";")
    return st.one_of(st.just(""), below).map(lambda rung: rung + kept)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_any_setting_exits_0_2_or_3_with_one_stderr_line(data):
    # every key is set, so each pair of values meets often; the defaults of
    # iterations (600) and shots (20,000) are production sizes anyway
    command = data.draw(st.sampled_from(["vqe", "vqe", "reference", "map"]))
    keys = list(_VALID) if command == "vqe" else list(_BUILD_KEYS)
    values = {key: data.draw(_VALID[key], label=key) for key in keys if key != "ladder"}
    values["ladder"] = data.draw(_ladder(values["kept"]), label="ladder")
    if data.draw(st.booleans(), label="break one"):
        key = data.draw(st.sampled_from(keys), label="broken")
        values[key] = data.draw(st.one_of(_INVALID[key], _JUNK), label=f"broken {key}")
    argv = [command]
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() and not caught, (argv, err.getvalue(), caught)
    else:
        assert out.getvalue() and not err.getvalue(), (argv, err.getvalue())


def test_setting_strategies_cover_every_config_key():
    assert set(_VALID) == set(_INVALID) == set(_SETTINGS) and len(_SETTINGS) == 22
