"""Run configuration: a single JSON document in physical variables.

Users specify the data for (psi1, psi2, a0, a1); the diagonal change of
variables is applied internally.  Unknown keys are rejected so typos
fail loudly, and every message names the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .lattice import Grid, RealField, is_finite_number, is_integer, make_grid, quoted
from .physics import CouplingKind, DataSpec, ModelParams, diagonalize, generate_data
from .solver import SolverConfig, State

__all__ = ["RunConfig", "ConfigError", "load_config", "build_initial_state"]

DEFAULTS = {
    "run": {"checks": ["charge"], "window_r": None},
    "output": {"directory": "out"},
}

_ALPHA_NAMES = {"gamma0": CouplingKind.NULL_GAMMA0,
                "gamma1": CouplingKind.NULL_GAMMA1,
                "identity": CouplingKind.IDENTITY}

KNOWN_CHECKS = ("charge", "intrinsic", "envelope", "concentration", "bilinear")

_DATA_NUMBERS = ("center", "width", "amplitude", "phase", "wavenumber", "spread")
_DATA_INTEGERS = ("seed", "n_bumps")
# random_bumps adds its bumps one by one, so their count is bounded
_DATA_BOUNDS = {"n_bumps": {"at_least": 0, "at_most": 10_000}}


class ConfigError(ValueError):
    """Schema violation; the message names the key."""


def _require_keys(section: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {path}.{key}")


def _number(section: dict, path: str, integer=False, at_least=None, at_most=None,
            positive=False):
    """The number at path "<section>.<key>": any integer if integer is
    set, else one that converts to a finite float; above 0 if positive,
    else no less than at_least if given; no more than at_most if given.
    ConfigError naming the key otherwise."""
    value = section[path.rsplit(".", 1)[1]]
    if not ((is_integer(value) if integer else is_finite_number(value))
            and (value > 0 if positive else at_least is None or value >= at_least)
            and (at_most is None or value <= at_most)):
        noun = "integer" if integer else "number"
        what = f"a positive {noun}" if positive else ("an " if integer else "a ") + noun
        bound = " and ".join(
            f"{op} {b:g}" for op, b in ((">=", at_least), ("<=", at_most)) if b is not None
        )
        bound = f" {bound}" if bound else ""
        raise ConfigError(f"{path} must be {what}{bound}, got {quoted(value)}")
    return value


def _parse_dataspec(section, path: str) -> DataSpec:
    _require_keys(section, path, (), ("kind",) + _DATA_NUMBERS + _DATA_INTEGERS)
    for key in section:
        if key in _DATA_NUMBERS + _DATA_INTEGERS:
            _number(section, f"{path}.{key}", integer=key in _DATA_INTEGERS,
                    **_DATA_BOUNDS.get(key, {}))
    try:
        return DataSpec(**section)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: ModelParams
    data: dict  # psi1, psi2, a0, a1 -> DataSpec
    solver: SolverConfig
    T_final: float
    checks: tuple
    window_r: float | None
    out_dir: str
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _require_keys(doc, "config", ("grid", "model", "data", "run"),
                      ("solver", "output"))

        g = doc["grid"]
        _require_keys(g, "grid", ("x_min", "x_max", "n_cells"))
        x_min, x_max = _number(g, "grid.x_min"), _number(g, "grid.x_max")
        try:
            grid = make_grid(x_min, x_max, g["n_cells"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid: {exc}") from None

        mdl = doc["model"]
        _require_keys(mdl, "model", ("alpha", "m", "p"))
        if not isinstance(mdl["alpha"], str) or mdl["alpha"] not in _ALPHA_NAMES:
            raise ConfigError(
                f"model.alpha must be one of {sorted(_ALPHA_NAMES)}, got {quoted(mdl['alpha'])}"
            )
        p = mdl["p"]
        if p not in ("inf", "infinity", np.inf):
            p = _number(mdl, "model.p", at_least=1)
        params = ModelParams(
            alpha=_ALPHA_NAMES[mdl["alpha"]], m=float(_number(mdl, "model.m", at_least=0)),
            p=float(p),
        )

        d = doc["data"]
        _require_keys(d, "data", ("psi1", "psi2", "a0", "a1"))
        data = {k: _parse_dataspec(d[k], f"data.{k}") for k in ("psi1", "psi2", "a0", "a1")}

        s = doc.get("solver", {})
        _require_keys(s, "solver", (), tuple(f.name for f in fields(SolverConfig)))
        try:
            solver = SolverConfig(**s)
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from None

        _require_keys(doc["run"], "run", ("T_final",), tuple(DEFAULTS["run"]))
        r = {**DEFAULTS["run"], **doc["run"]}
        T_final = _number(r, "run.T_final", positive=True)
        if not isinstance(r["checks"], list):
            raise ConfigError("run.checks must be a list of check names")
        checks = tuple(r["checks"])
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"run.checks: unknown check {quoted(c)}")
        window_r = r["window_r"]
        if window_r is not None:
            window_r = _number(r, "run.window_r", at_least=grid.dx)

        _require_keys(doc.get("output", {}), "output", (), tuple(DEFAULTS["output"]))
        out_dir = {**DEFAULTS["output"], **doc.get("output", {})}["directory"]
        if not (isinstance(out_dir, str) and out_dir):
            raise ConfigError(f"output.directory must be a non-empty string, got {quoted(out_dir)}")

        return cls(
            grid=grid, params=params, data=data, solver=solver,
            T_final=float(T_final), checks=checks,
            window_r=None if window_r is None else float(window_r),
            out_dir=out_dir, raw=doc,
        )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig.from_dict(doc)


def build_initial_state(cfg: RunConfig) -> State:
    fields = {k: generate_data(spec, cfg.grid) for k, spec in cfg.data.items()}
    a0 = RealField(cfg.grid, fields["a0"].values.real)
    a1 = RealField(cfg.grid, fields["a1"].values.real)
    return diagonalize(fields["psi1"], fields["psi2"], a0, a1, cfg.params)
