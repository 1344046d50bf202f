"""Plain-text experiment configuration.

Files hold one `key = value` pair per line, with `#` comments and blank
lines ignored.  The same grammar is reused verbatim for command-line
overrides, so `--set shots=5000` and a config line `shots = 5000` are
interchangeable.  Parse problems raise :class:`ConfigError` with the
offending line; semantic problems (say, a diffusion tuple of the wrong
length) surface later as ``ValueError`` when the run config is built.
"""

from __future__ import annotations

import dataclasses
import inspect

from .driver import _DEFAULT_NOISE, CALIBRATED, FIXED, NELDER_MEAD, SPSA, VqeConfig, run_distribution_study
from .potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec
from .qsim import EXACT, FULL, LINEAR, NOISY, SAMPLED, NoiseSpec, symmetric_confusion


class ConfigError(Exception):
    """A config line or override that cannot be parsed."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _parse_floats(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


def _parse_ints(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(_parse_int(p) for p in parts)


def _parse_dihedrals(text: str) -> tuple:
    """`bistable:0.5,monostable:1.0` -> a DihedralSpec per entry."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, barrier = part.partition(":")
        if not sep:
            raise ValueError(f"dihedral {part!r} needs the form kind:barrier")
        kind = kind.strip().lower()
        if kind not in (BISTABLE, MONOSTABLE):
            raise ValueError(f"unknown dihedral kind {kind!r}")
        specs.append(DihedralSpec(kind, _parse_float(barrier)))
    if not specs:
        raise ValueError("expected at least one dihedral")
    return tuple(specs)


def _parse_ladder(text: str) -> tuple:
    """`4,2;4,4;8,4` -> one kept-count tuple per rung."""
    rungs = [r for r in text.split(";") if r.strip()]
    if not rungs:
        raise ValueError("expected semicolon-separated rungs")
    return tuple(_parse_ints(r) for r in rungs)


def _choice(options):
    def parse(text: str) -> str:
        lowered = text.strip().lower()
        if lowered not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {text!r}")
        return lowered

    return parse


_VQE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(VqeConfig)}

# key -> (parser, default); a key named after a VqeConfig field takes its default
_SETTINGS = {
    "dihedrals": (_parse_dihedrals, (DihedralSpec(BISTABLE, 0.5), DihedralSpec(MONOSTABLE, 1.0))),
    "diffusion": (_parse_floats, (1.0, 1.0, 1.0)),
    "kept": (_parse_ints, (4, 2)),
    "ladder": (_parse_ladder, _VQE_DEFAULTS["ladder"]),
    "harmonics": (_parse_int, _VQE_DEFAULTS["harmonics"]),
    "depth": (_parse_int, _VQE_DEFAULTS["depth"]),
    "entangler": (_choice((LINEAR, FULL)), _VQE_DEFAULTS["entangler"]),
    "mode": (_choice((EXACT, SAMPLED, NOISY)), _VQE_DEFAULTS["mode"]),
    "shots": (_parse_int, _VQE_DEFAULTS["shots"]),
    "grouping": (_parse_bool, _VQE_DEFAULTS["grouping"]),
    "mitigate": (_parse_bool, _VQE_DEFAULTS["mitigate"]),
    "p1": (_parse_float, _DEFAULT_NOISE.p1),
    "p2": (_parse_float, _DEFAULT_NOISE.p2),
    "readout_flip": (_parse_float, _DEFAULT_NOISE.readout[0][1]),
    "optimizer": (_choice((SPSA, NELDER_MEAD)), _VQE_DEFAULTS["optimizer"]),
    "gain_policy": (_choice((FIXED, CALIBRATED)), _VQE_DEFAULTS["gain_policy"]),
    "iterations": (_parse_int, _VQE_DEFAULTS["iterations"]),
    "restarts": (_parse_int, _VQE_DEFAULTS["restarts"]),
    "seed": (_parse_int, _VQE_DEFAULTS["seed"]),
    "workers": (_parse_int, _VQE_DEFAULTS["workers"]),
    "barriers": (_parse_floats, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    "repetitions": (
        _parse_int,
        inspect.signature(run_distribution_study).parameters["repetitions"].default,
    ),
}

DEFAULT_SETTINGS = {key: default for key, (_, default) in _SETTINGS.items()}


def parse_assignment(text: str, where: str) -> tuple:
    """Parse one `key=value` pair; `where` labels error messages."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {text.strip()!r}")
    key = key.strip().lower()
    if key not in _SETTINGS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return key, _SETTINGS[key][0](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from None


def parse_config(text: str) -> dict:
    """Parse a whole config file body into a settings dict."""
    settings = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = parse_assignment(line, f"line {number}")
        settings[key] = value
    return settings


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def apply_overrides(settings: dict, pairs) -> dict:
    merged = dict(settings)
    for pair in pairs or ():
        key, value = parse_assignment(pair, f"override {pair.strip()!r}")
        merged[key] = value
    return merged


def resolve_settings(config_path=None, overrides=None) -> dict:
    """Defaults, then the config file, then command-line overrides."""
    settings = dict(DEFAULT_SETTINGS)
    if config_path is not None:
        settings.update(load_config(config_path))
    return apply_overrides(settings, overrides)


def build_vqe_config(settings: dict) -> VqeConfig:
    """Materialize a run config; semantic mistakes raise ValueError here."""
    chain = ChainSpec(
        dihedrals=tuple(settings["dihedrals"]),
        diffusion=tuple(settings["diffusion"]),
    )
    noise = NoiseSpec(
        p1=settings["p1"],
        p2=settings["p2"],
        readout=symmetric_confusion(settings["readout_flip"]),
    )
    return VqeConfig(
        chain=chain,
        kept_counts=settings["kept"],
        noise=noise,
        **{key: settings[key] for key in _SETTINGS if key in _VQE_DEFAULTS},
    )
