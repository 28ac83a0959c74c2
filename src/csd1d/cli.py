"""Command line front end.

Exit codes partition the failure modes of every command: 2 for schema
or usage errors and for an output path that cannot be written (each
command makes its output directory before it computes), 3 for
iteration failures (`solve` still writes a report), 4 for support
leaving the grid, and 1 when a check or a `verify` trial row fails.
`solve` always writes trajectory.csv, report.json and meta.json; the
first two are byte-deterministic for a fixed config and seed, and
wall-clock time lives only in meta.json.

Each whole-trajectory array is released after its last reader.  A
`solve` forms its CSV rows and runs the checks that read the
trajectory, forms the `bilinear` psi sources and then releases the
trajectory; `bilinear` runs on the sources, and `intrinsic` runs its
decomposed march last, once the sources are released too.  Its peak,
about 2x the trajectory's bytes, is the trajectory beside the sources
as they are formed, or the decomposed march alone.  The transport
behind `bilinear` reads the shifted data through a view, so no
shifted-data trace is held beside its traces.  `convergence` stores no
trajectory: on the Picard backend it holds one slab at a time and
keeps each level's final state.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import RunConfig, build_initial_state, load_config
from .diagnostics import (
    charge_series,
    concentration_monitor,
    corollary_envelope_report,
    intrinsic_bound_report,
)
from .errors import DomainOverflowError, SlabUnderflowError
from .lattice import quoted, row_lp, step_count
from .solver import solve_decomposed, solve_final_state, solve_global
from .suites import SUITE_NAMES, run_suite
from .transport import bilinear_bound_check

FIELD_NAMES = ("psi_plus", "psi_minus", "a_plus", "a_minus")

# ConfigError is a ValueError; the two solver failures are RuntimeErrors
_EXIT_CODES = {ValueError: 2, SlabUnderflowError: 3, DomainOverflowError: 4}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@contextmanager
def _writing(path: Path):
    """Turn an OSError raised while writing path into a ValueError
    naming the path."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {quoted(str(path))}: {exc.strerror or exc}") from None


def _make_dir(path: Path) -> None:
    """Create the directory path and its parents, so that a command
    learns before its computation that it cannot write there."""
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)


def _write_text(path: Path, text: str) -> None:
    """Write text to path, creating its directory; ValueError naming
    the path when that fails."""
    _make_dir(path.parent)
    with _writing(path), open(path, "w", newline="\n") as fh:
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


@contextmanager
def _exit_codes():
    """End a command that meets a documented failure with its exit code
    and a one-line `error:` message instead of a traceback."""
    try:
        yield
    except tuple(_EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)))


def _trajectory_rows(traj, p):
    """CSV header and rows: per time, the L^1, L^2, L^p and L^inf norms
    of each field, then the charge.  Each field's modulus is taken once
    and each distinct exponent evaluated once; the charge is
    Trajectory.charge formed from the same psi moduli."""
    qs = (1.0, 2.0, p, np.inf)
    dx = traj.grid.dx
    series = {}
    psi_sq = []
    for name, trace in traj.field_traces().items():
        mag = np.abs(trace)
        norms = {q: row_lp(mag, dx, q) for q in dict.fromkeys(qs)}
        series[name] = [norms[q] for q in qs]
        if name in ("psi_plus", "psi_minus"):
            psi_sq.append((mag**2).sum(axis=1))
        del mag  # free before the next field's modulus is taken
    charge = (psi_sq[0] + psi_sq[1]) * dx
    rows = []
    for i, t in enumerate(traj.times):
        row = [float(t)]
        for name in FIELD_NAMES:
            row.extend(float(norm[i]) for norm in series[name])
        row.append(float(charge[i]))
        rows.append(row)
    header = ["t"]
    for name in FIELD_NAMES:
        header += [f"{name}_L1", f"{name}_L2", f"{name}_Lp", f"{name}_Linf"]
    header.append("charge")
    return header, rows


# the checks that read the trajectory itself: `bilinear` reads only its
# psi sources and `intrinsic` a decomposed march of its own
_TRAJECTORY_CHECKS = ("charge", "envelope", "concentration")


def _trajectory_check(check: str, cfg: RunConfig, state, traj):
    if check == "charge":
        return charge_series(traj)[1]
    if check == "envelope":
        return corollary_envelope_report(traj, cfg.params.p)
    r = cfg.window_r if cfg.window_r is not None else 16 * cfg.grid.dx
    return concentration_monitor(traj, float(r), initial=state)[1]


def _attempt(check: str, compute, *args):
    """compute(*args), or the one-line error naming check when it raises
    a ValueError.  Only the message is kept: the exception's frames
    would hold their arrays."""
    try:
        return compute(*args)
    except ValueError as exc:
        return f"check {check!r}: {exc}"


def _solve_and_check(cfg: RunConfig, state):
    """(slab histories, CSV header, CSV rows, report of each configured
    check in run.checks order) of the solve of cfg from state.

    The checks run in three phases, so that the trajectory is never
    alive beside a second trajectory-sized working set: the CSV rows and
    the checks that read the trajectory; then `bilinear`, on psi sources
    formed before the trajectory is released; then `intrinsic`, whose
    decomposed march runs once the sources are released too.  A
    ValueError names the first check, in run.checks order, that could
    not be evaluated."""
    p = cfg.params.p
    traj = solve_global(state, cfg.T_final, cfg.solver)
    histories = traj.slab_histories
    header, rows = _trajectory_rows(traj, p)
    order = dict.fromkeys(cfg.checks)  # each check once, in run.checks order
    reports = {}  # a DiagnosticReport, or the error of a check that could not be evaluated
    # an overflow surfaces as a non-finite report value, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        for check in order:
            if check in _TRAJECTORY_CHECKS:
                reports[check] = _attempt(check, _trajectory_check, check, cfg, state, traj)
        sources = _attempt("bilinear", traj.psi_source_traces) if "bilinear" in order else None
        del traj  # bilinear and intrinsic run without it
        if isinstance(sources, tuple):
            reports["bilinear"] = _attempt(
                "bilinear", bilinear_bound_check,
                state.psi_plus, state.psi_minus, *sources, p, cfg.T_final,
            )
        elif sources is not None:  # the error of forming them
            reports["bilinear"] = sources
        del sources
        if "intrinsic" in order:
            reports["intrinsic"] = _attempt(
                "intrinsic",
                # the decomposed march is dropped as soon as the report returns
                lambda: intrinsic_bound_report(solve_decomposed(state, cfg.T_final, cfg.solver), p),
            )
    for check in order:
        if isinstance(reports[check], str):
            raise ValueError(reports[check])
    return histories, header, rows, {check: reports[check].as_dict() for check in order}


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


def _runnable_state(cfg: RunConfig):
    """The initial state of cfg, once the checks that refuse a config
    before its solve have passed: the data resolve on the grid, T_final
    is a multiple of dt and, where Picard slabs will run, so is slab_T.
    A refused config leaves no output directory behind."""
    state = build_initial_state(cfg)
    if step_count("T_final", cfg.T_final, cfg.grid.dt) and cfg.solver.backend == "picard":
        cfg.solver.slab_steps(cfg.grid)
    return state


@main.command()
@click.argument("config_path", type=click.Path())
@_exit_codes()
def solve(config_path):
    """Run one configured solve and write trajectory, report and meta
    artifacts into the configured output directory."""
    cfg = load_config(config_path)
    out = Path(cfg.out_dir)
    state = _runnable_state(cfg)
    _make_dir(out)
    t_start = time.monotonic()
    try:
        histories, header, rows, checks = _solve_and_check(cfg, state)
    except SlabUnderflowError as exc:
        _write_json(out / "report.json", {
            "status": "convergence_failure",
            "message": str(exc),
            "slab_start": exc.slab_start,
            "norms": exc.norms,
            # the ConvergenceFailureError of the failed slab
            **_history_doc(exc.__cause__.history),
        })
        _write_json(out / "meta.json", _meta(cfg, time.monotonic() - t_start))
        raise
    wall = time.monotonic() - t_start

    _write_csv(out / "trajectory.csv", header, rows)
    _write_json(out / "report.json", {
        "status": "ok",
        "checks": checks,
        "iterate_history": [h for hist in histories for h in hist],
        "n_slabs": len(histories),
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Base seed for all trials.")
@click.option("--out", "out_dir", default="verify_out", show_default=True)
@click.option("--large-m", is_flag=True,
              help="Oversized data for the contraction suite, also within "
                   "'all'; expected to fail.")
@_exit_codes()
def verify(suite, seed, out_dir, large_m):
    """Run a seeded verification suite and write one CSV row per trial.

    Exits 1 when any row fails."""
    _make_dir(Path(out_dir))
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
@_exit_codes()
def convergence(config_path, levels):
    """Self-convergence study: re-solve on refined grids, emit pairwise
    sup-differences of the final state and the fitted order per field."""
    if levels < 3:
        raise ValueError("--levels must be >= 3")
    cfg = load_config(config_path)
    level_cfgs = []
    for k in range(levels):
        doc = json.loads(json.dumps(cfg.raw))
        doc["grid"]["n_cells"] = cfg.grid.n_cells * 2**k
        level_cfgs.append(RunConfig.from_dict(doc))
    states = [_runnable_state(level_cfg) for level_cfg in level_cfgs]
    _make_dir(Path(cfg.out_dir))
    finals = [
        solve_final_state(state, level_cfg.T_final, level_cfg.solver)
        for state, level_cfg in zip(states, level_cfgs)
    ]
    sizes = [level_cfg.grid.n_cells for level_cfg in level_cfgs]

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
