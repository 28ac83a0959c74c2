"""Command line front end.

Exit codes partition the failure modes: 2 for schema or usage errors,
3 for iteration failures (a report is still written), 4 for support
leaving the grid, and `verify` exits 1 when any trial row fails.
trajectory.csv and report.json are byte-deterministic for a fixed
config and seed; wall-clock time lives only in meta.json.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, build_initial_state, load_config
from .diagnostics import (
    charge_series,
    concentration_monitor,
    corollary_envelope_report,
    intrinsic_bound_report,
)
from .errors import DomainOverflowError, SlabUnderflowError
from .solver import solve_decomposed, solve_global
from .suites import SUITE_NAMES, run_suite
from .transport import bilinear_bound_check

FIELD_NAMES = ("psi_plus", "psi_minus", "a_plus", "a_minus")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _spell_non_finite(obj):
    """obj with non-finite floats written the way the config spells them
    ("inf", "-inf", "nan"): strict JSON has no token for them."""
    if isinstance(obj, dict):
        return {k: _spell_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spell_non_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _history_doc(history: list) -> dict:
    """Iterate history for report.json: a diverged iteration's non-finite
    differences become null and set history_non_finite."""
    entries = [
        {k: v if math.isfinite(v) else None for k, v in h.items()} for h in history
    ]
    non_finite = any(v is None for h in entries for v in h.values())
    return {"iterate_history": entries, "history_non_finite": non_finite}


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(
        _spell_non_finite(doc), indent=2, sort_keys=True, default=_json_default, allow_nan=False
    )
    _write_text(path, text + "\n")


@click.group()
@click.version_option(__version__)
def main():
    """Solver and estimate checks for the diagonalized
    Chern-Simons-Dirac system on a unit-CFL lattice."""


def _load(config_path: str) -> RunConfig:
    try:
        return load_config(config_path)
    except FileNotFoundError:
        click.echo(f"error: config file not found: {config_path}", err=True)
        sys.exit(2)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _trajectory_rows(traj, p):
    series = {q: traj.lp_series(q) for q in (1.0, 2.0, p, np.inf)}
    charge = traj.charge()
    rows = []
    for i, t in enumerate(traj.times):
        row = [float(t)]
        for name in FIELD_NAMES:
            for q in (1.0, 2.0, p, np.inf):
                row.append(float(series[q][name][i]))
        row.append(float(charge[i]))
        rows.append(row)
    header = ["t"]
    for name in FIELD_NAMES:
        header += [f"{name}_L1", f"{name}_L2", f"{name}_Lp", f"{name}_Linf"]
    header.append("charge")
    return header, rows


def _run_checks(cfg: RunConfig, state, traj) -> dict:
    """Report of each configured check; a ValueError names the check
    that could not be evaluated."""
    p = cfg.params.p
    out = {}
    for check in cfg.checks:
        try:
            if check == "charge":
                _, rep = charge_series(traj)
            elif check == "intrinsic":
                dtraj = solve_decomposed(state, cfg.T_final, cfg.solver)
                rep = intrinsic_bound_report(dtraj, p)
            elif check == "envelope":
                rep = corollary_envelope_report(traj, p)
            elif check == "concentration":
                r = cfg.window_r if cfg.window_r is not None else 16 * cfg.grid.dx
                _, rep = concentration_monitor(traj, float(r), initial=state)
            else:  # bilinear
                f_p, f_m = traj.psi_source_traces()
                rep = bilinear_bound_check(
                    state.psi_plus, state.psi_minus, f_p, f_m, p, cfg.T_final
                )
        except ValueError as exc:
            raise ValueError(f"check {check!r}: {exc}") from None
        out[check] = rep.as_dict()
    return out


def _meta(cfg: RunConfig, wall_s: float) -> dict:
    return {
        "config": cfg.raw,
        "versions": {
            "csd1d": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall_s,
    }


@main.command()
@click.argument("config_path", type=click.Path())
def solve(config_path):
    """Run one configured solve and write trajectory, report and meta
    artifacts into the configured output directory."""
    cfg = _load(config_path)
    out = Path(cfg.out_dir)
    state = build_initial_state(cfg)
    t_start = time.monotonic()
    try:
        traj = solve_global(state, cfg.T_final, cfg.solver)
    except SlabUnderflowError as exc:
        cause = exc.__cause__
        _write_json(out / "report.json", {
            "status": "convergence_failure",
            "message": str(exc),
            "slab_start": exc.slab_start,
            "norms": exc.norms,
            **_history_doc(getattr(cause, "history", [])),
        })
        _write_json(out / "meta.json", _meta(cfg, time.monotonic() - t_start))
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except DomainOverflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    try:
        # an overflow surfaces as a non-finite report value, which is refused
        with np.errstate(over="ignore", invalid="ignore"):
            checks = _run_checks(cfg, state, traj)
    except DomainOverflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    wall = time.monotonic() - t_start

    if "csv" in cfg.formats:
        header, rows = _trajectory_rows(traj, cfg.params.p)
        _write_csv(out / "trajectory.csv", header, rows)
    if "json" in cfg.formats:
        _write_json(out / "report.json", {
            "status": "ok",
            "checks": checks,
            "iterate_history": [h for hist in traj.slab_histories for h in hist],
            "n_slabs": len(traj.slab_histories),
        })
    _write_json(out / "meta.json", _meta(cfg, wall))

    failed = [name for name, rep in checks.items() if not rep["pass"]]
    for name, rep in checks.items():
        status = "pass" if rep["pass"] else "FAIL"
        click.echo(f"{name}: {status} (lhs={rep['lhs']:.6g}, rhs={rep['rhs']:.6g})")
    click.echo(f"wrote artifacts to {out}")
    if failed:
        sys.exit(1)


@main.command()
@click.argument("suite", type=click.Choice(SUITE_NAMES))
@click.option("--seed", default=0, show_default=True, help="Base seed for all trials.")
@click.option("--out", "out_dir", default="verify_out", show_default=True)
@click.option("--large-m", is_flag=True,
              help="Oversized data for the contraction suite, also within "
                   "'all'; expected to fail.")
def verify(suite, seed, out_dir, large_m):
    """Run a seeded verification suite and write one CSV row per trial.

    Exits 1 when any row fails."""
    rows = run_suite(suite, seed, large_m=large_m)
    table = [[r["name"], r["seed"], r["lhs"], r["rhs"], r["margin"], r["pass"]] for r in rows]
    path = Path(out_dir) / f"{suite}.csv"
    _write_csv(path, ["name", "seed", "lhs", "rhs", "margin", "pass"], table)
    n_fail = sum(1 for r in rows if not r["pass"])
    click.echo(f"{suite}: {len(rows)} rows, {n_fail} failed -> {path}")
    if n_fail:
        sys.exit(1)


def _coarsen(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[0::2] + values[1::2])


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--levels", default=3, show_default=True,
              help="Number of grid refinements (>= 3).")
def convergence(config_path, levels):
    """Self-convergence study: re-solve on refined grids, emit pairwise
    sup-differences of the final state and the fitted order per field."""
    if levels < 3:
        click.echo("error: --levels must be >= 3", err=True)
        sys.exit(2)
    cfg = _load(config_path)
    finals = []
    sizes = []
    for k in range(levels):
        doc = json.loads(json.dumps(cfg.raw))
        doc["grid"]["n_cells"] = cfg.grid.n_cells * 2**k
        level_cfg = RunConfig.from_dict(doc)
        state = build_initial_state(level_cfg)
        try:
            traj = solve_global(state, level_cfg.T_final, level_cfg.solver)
        except SlabUnderflowError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except DomainOverflowError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        finals.append(traj.final_state)
        sizes.append(level_cfg.grid.n_cells)

    diffs = {name: [] for name in FIELD_NAMES}
    for k in range(levels - 1):
        coarse = finals[k]
        fine = finals[k + 1]
        for name in FIELD_NAMES:
            c = getattr(coarse, name).values
            f = _coarsen(getattr(fine, name).values)
            diffs[name].append(float(np.abs(f - c).max(initial=0.0)))

    rows = []
    floor = 1e-13
    for name in FIELD_NAMES:
        for k in range(levels - 1):
            d = diffs[name][k]
            if k == 0 or diffs[name][k - 1] <= floor or d <= floor:
                order = ""
            else:
                order = float(np.log2(diffs[name][k - 1] / d))
            rows.append([name, sizes[k], sizes[k + 1], d, order])
    path = Path(cfg.out_dir) / "convergence.csv"
    _write_csv(path, ["field", "n_coarse", "n_fine", "sup_diff", "order"], rows)
    for row in rows:
        click.echo(",".join(_fmt(v) for v in row))
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
