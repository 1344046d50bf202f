import dataclasses
import inspect

import pytest

from rotorvqe.config import (
    DEFAULT_SETTINGS,
    ConfigError,
    apply_overrides,
    build_vqe_config,
    load_config,
    parse_assignment,
    parse_config,
    resolve_settings,
)
from rotorvqe.driver import CALIBRATED, NELDER_MEAD, VqeConfig, run_distribution_study
from rotorvqe.potential import BISTABLE, MONOSTABLE, DihedralSpec
from rotorvqe.qsim import NOISY, SAMPLED, NoiseSpec

from conftest import make_chain


def test_defaults_cover_every_key():
    # every parseable key has a default, so resolve_settings(None, None) is complete
    settings = resolve_settings()
    assert settings == DEFAULT_SETTINGS
    for key in DEFAULT_SETTINGS:
        if key == "ladder":
            continue  # optional by design
        assert settings[key] is not None


def test_default_run_is_the_library_default():
    # the CLI's defaults name the library's: the default chain and kept counts,
    # VqeConfig's field defaults, NoiseSpec's rates and the study's repetitions
    config = build_vqe_config(resolve_settings())
    library = VqeConfig(chain=make_chain(), kept_counts=(4, 2))
    for field in dataclasses.fields(VqeConfig):
        assert getattr(config, field.name) == getattr(library, field.name), field.name
    assert config.noise == NoiseSpec()
    repetitions = inspect.signature(run_distribution_study).parameters["repetitions"].default
    assert DEFAULT_SETTINGS["repetitions"] == repetitions


def test_parse_config_basics():
    text = """
    # comment-only line
    kept = 8,4          # trailing comment
    seed=99

    mode = sampled
    """
    settings = parse_config(text)
    assert settings == {"kept": (8, 4), "seed": 99, "mode": SAMPLED}


def test_parse_config_last_assignment_wins():
    settings = parse_config("shots = 100\nshots = 250\n")
    assert settings["shots"] == 250


def test_parse_dihedrals_and_diffusion():
    settings = parse_config("dihedrals = bistable:2.5, monostable:1.0\ndiffusion = 1, 0.5, 2\n")
    assert settings["dihedrals"] == (
        DihedralSpec(BISTABLE, 2.5),
        DihedralSpec(MONOSTABLE, 1.0),
    )
    assert settings["diffusion"] == (1.0, 0.5, 2.0)


def test_parse_ladder():
    settings = parse_config("ladder = 4,2; 4,4; 8,4\n")
    assert settings["ladder"] == ((4, 2), (4, 4), (8, 4))


def test_parse_booleans():
    assert parse_config("grouping = off\n")["grouping"] is False
    assert parse_config("mitigate = Yes\n")["mitigate"] is True
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("grouping = maybe\n")


def test_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("seed = 1\n\nshots = lots\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("sots = 100\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just some words\n")


def test_choice_keys_reject_unknown_values():
    for line in ("mode = warp", "entangler = ring", "optimizer = adam", "gain_policy = magic"):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config(line + "\n")


def test_parse_assignment_labels_overrides():
    with pytest.raises(ConfigError, match="override"):
        parse_assignment("shots=many", "override 'shots=many'")


def test_apply_overrides_and_precedence(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 5\nshots = 111\n")
    settings = resolve_settings(path, ["shots=222", "optimizer=nelder-mead"])
    assert settings["seed"] == 5  # from file
    assert settings["shots"] == 222  # override beats file
    assert settings["optimizer"] == NELDER_MEAD
    assert settings["iterations"] == DEFAULT_SETTINGS["iterations"]  # untouched default


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_apply_overrides_does_not_mutate():
    base = {"seed": 1}
    merged = apply_overrides(base, ["seed=2"])
    assert base["seed"] == 1 and merged["seed"] == 2


def test_build_vqe_config_roundtrip():
    settings = resolve_settings(
        None,
        [
            "dihedrals=bistable:1.5,monostable:0.5",
            "diffusion=2,1,1",
            "kept=4,4",
            "ladder=4,2;4,4",
            "mode=noisy",
            "shots=5000",
            "p1=0.001",
            "p2=0.01",
            "readout_flip=0.05",
            "iterations=10",
            "restarts=2",
            "workers=2",
        ],
    )
    config = build_vqe_config(settings)
    assert config.chain.dihedrals[0] == DihedralSpec(BISTABLE, 1.5)
    assert config.chain.diffusion == (2.0, 1.0, 1.0)
    assert config.kept_counts == (4, 4)
    assert config.ladder == ((4, 2), (4, 4))
    assert config.mode == NOISY
    assert config.shots == 5000
    assert config.noise.p1 == 0.001
    assert config.noise.readout[0][1] == pytest.approx(0.05)
    assert config.gain_policy == CALIBRATED
    assert config.workers == 2


def test_build_vqe_config_semantic_errors_are_value_errors():
    settings = resolve_settings(None, ["diffusion=1,1"])
    with pytest.raises(ValueError):
        build_vqe_config(settings)
    settings = resolve_settings(None, ["restarts=0"])
    with pytest.raises(ValueError):
        build_vqe_config(settings)
