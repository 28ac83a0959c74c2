"""Run configuration: a single JSON document in physical variables.

Users specify the data for (psi1, psi2, a0, a1); the diagonal change of
variables is applied internally.  Unknown keys are rejected so typos
fail loudly, and every message names the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lattice import Grid, RealField, make_grid
from .physics import CouplingKind, DataSpec, ModelParams, diagonalize, generate_data
from .solver import SolverConfig, State

__all__ = ["RunConfig", "ConfigError", "load_config", "build_initial_state"]

DEFAULTS = {
    "solver": {
        "backend": "picard",
        "slab_T": 0.25,
        "picard_tol": 1e-12,
        "max_picard_iters": 50,
        "auto_slab": True,
    },
    "run": {"checks": ["charge"], "window_r": None},
    "output": {"directory": "out", "formats": ["csv", "json"]},
}

_ALPHA_NAMES = {"gamma0": CouplingKind.NULL_GAMMA0,
                "gamma1": CouplingKind.NULL_GAMMA1,
                "identity": CouplingKind.IDENTITY}

KNOWN_CHECKS = ("charge", "intrinsic", "envelope", "concentration", "bilinear")


class ConfigError(ValueError):
    """Schema violation; the message names the key."""


def _require_keys(section: dict, path: str, required: tuple, optional: tuple = ()):
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {path}.{key}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_p(value, path: str) -> float:
    if value in ("inf", "infinity"):
        return np.inf
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number >= 1 or 'inf'") from None
    if p < 1:
        raise ConfigError(f"{path} must be >= 1 or 'inf', got {p}")
    return p


def _parse_dataspec(section, path: str) -> DataSpec:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    allowed = ("kind", "center", "width", "amplitude", "phase", "wavenumber",
               "seed", "n_bumps", "spread")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    try:
        return DataSpec(**section)
    except (TypeError, ValueError) as exc:
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
    formats: tuple
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        _require_keys(doc, "config", ("grid", "model", "data", "run"),
                      ("solver", "output"))

        g = doc["grid"]
        _require_keys(g, "grid", ("x_min", "x_max", "n_cells"))
        try:
            grid = make_grid(g["x_min"], g["x_max"], g["n_cells"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid: {exc}") from None

        mdl = doc["model"]
        _require_keys(mdl, "model", ("alpha", "m", "p"))
        if mdl["alpha"] not in _ALPHA_NAMES:
            raise ConfigError(
                f"model.alpha must be one of {sorted(_ALPHA_NAMES)}, got {mdl['alpha']!r}"
            )
        if not _is_number(mdl["m"]) or mdl["m"] < 0:
            raise ConfigError("model.m must be a number >= 0")
        params = ModelParams(
            alpha=_ALPHA_NAMES[mdl["alpha"]], m=float(mdl["m"]),
            p=_parse_p(mdl["p"], "model.p"),
        )

        d = doc["data"]
        _require_keys(d, "data", ("psi1", "psi2", "a0", "a1"))
        data = {k: _parse_dataspec(d[k], f"data.{k}") for k in ("psi1", "psi2", "a0", "a1")}

        s = {**DEFAULTS["solver"], **doc.get("solver", {})}
        _require_keys(s, "solver", (), tuple(DEFAULTS["solver"]))
        try:
            solver = SolverConfig(
                backend=s["backend"], slab_T=float(s["slab_T"]),
                picard_tol=float(s["picard_tol"]),
                max_picard_iters=int(s["max_picard_iters"]),
                auto_slab=bool(s["auto_slab"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"solver: {exc}") from None

        r = {**DEFAULTS["run"], **doc["run"]}
        _require_keys(r, "run", ("T_final",), ("checks", "window_r"))
        if not _is_number(r["T_final"]) or r["T_final"] <= 0:
            raise ConfigError("run.T_final must be a positive number")
        if not isinstance(r["checks"], list):
            raise ConfigError("run.checks must be a list of check names")
        checks = tuple(r["checks"])
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"run.checks: unknown check {c!r}")
        window_r = r["window_r"]
        if window_r is not None and not (_is_number(window_r) and grid.dx <= window_r < np.inf):
            raise ConfigError(
                f"run.window_r must be a number >= dx={grid.dx:g}, got {window_r!r}"
            )

        o = {**DEFAULTS["output"], **doc.get("output", {})}
        _require_keys(o, "output", (), tuple(DEFAULTS["output"]))
        if not isinstance(o["formats"], list):
            raise ConfigError("output.formats must be a list of format names")
        formats = tuple(o["formats"])
        for f in formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"output.formats: unknown format {f!r}")

        return cls(
            grid=grid, params=params, data=data, solver=solver,
            T_final=float(r["T_final"]), checks=checks,
            window_r=None if window_r is None else float(window_r),
            out_dir=str(o["directory"]), formats=formats, raw=doc,
        )


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig.from_dict(doc)


def build_initial_state(cfg: RunConfig) -> State:
    fields = {k: generate_data(spec, cfg.grid) for k, spec in cfg.data.items()}
    a0 = RealField(cfg.grid, fields["a0"].values.real)
    a1 = RealField(cfg.grid, fields["a1"].values.real)
    return diagonalize(fields["psi1"], fields["psi2"], a0, a1, cfg.params)
