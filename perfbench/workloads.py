"""Workload definitions: seeded op lists, op execution through the csd1d
command line, and the correctness check of each op's artifacts.

An op is one ``csd1d`` command run in-process through ``cli.main``.  A
pass runs a workload's op list once, in order; a run repeats passes of
the same list (one closed-loop client).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("picard_convergence", "verify_all", "march_checks")
# Inputs are drawn from the seed modulo this; reference/<workload>.json
# holds the outputs of every input seed below it.
N_INPUT_SEEDS = 32
REL_TOL = 1e-6  # |value - reference| <= REL_TOL * |reference| + ABS_TOL
ABS_TOL = 1e-12
ORDER_TOL = 0.1  # fitted convergence order must lie in 2 +- ORDER_TOL

# size -> workload parameters; "tiny" exists for the self-test
SIZES = {
    "full": {"conv_n": 512, "conv_levels": 4, "march_n": 4096,
             "verify_suites": ("all",)},
    "tiny": {"conv_n": 128, "conv_levels": 3, "march_n": 512,
             "verify_suites": ("scaling", "charge")},
}
COUPLINGS = ("gamma0", "gamma1", "identity")
MARCH_CASES = (("gamma0", 0.0), ("gamma0", 1.0), ("identity", 0.0), ("identity", 1.0))
ALL_CHECKS = ["charge", "intrinsic", "envelope", "concentration", "bilinear"]


@dataclass
class Op:
    kind: str  # "convergence" | "verify" | "solve"
    argv: list
    out_dir: Path
    config: Path | None = None
    artifact: str = ""  # CSV file whose data rows the op delivers


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    outputs: dict
    rows: int
    artifact_bytes: int
    op_id: int = 0  # root span id in a traced pass
    log: str = ""  # what the command printed
    problems: list = field(default_factory=list)  # set by check()
    departs: bool = False  # outputs depart from the reference


def input_seed(seed: int) -> int:
    return seed % N_INPUT_SEEDS


def _seeded_data(base: dict, rng: np.random.Generator) -> dict:
    """Gaussian-null data with centres and phases drawn from rng."""
    data = copy.deepcopy(base["data"])
    data["psi1"]["center"] = float(rng.uniform(-1.5, -0.5))
    data["psi1"]["phase"] = float(rng.uniform(0.0, 2 * math.pi))
    data["psi2"]["center"] = float(rng.uniform(0.5, 1.5))
    data["psi2"]["phase"] = float(rng.uniform(0.0, 2 * math.pi))
    data["a0"]["center"] = float(rng.uniform(-0.5, 0.5))
    return data


def make_ops(root: Path, workload: str, seed: int, size: str, work: Path) -> list[Op]:
    """Write the op list's configs under ``work`` and return the ops."""
    sz = SIZES[size]
    base = json.loads((root / "configs" / "gaussian_null.json").read_text())
    s = input_seed(seed)
    rng = np.random.default_rng([zlib.crc32(workload.encode()), s])
    wdir = work / workload
    if wdir.exists():
        shutil.rmtree(wdir)
    wdir.mkdir(parents=True)
    ops = []
    if workload == "verify_all":
        for suite in sz["verify_suites"]:
            out = wdir / f"verify_{suite}"
            ops.append(Op("verify", ["verify", suite, "--seed", str(s), "--out", str(out)],
                          out, artifact=f"{suite}.csv"))
        return ops
    if workload == "picard_convergence":
        cases = [(alpha, base["model"]["m"]) for alpha in COUPLINGS]
    else:
        cases = list(MARCH_CASES)
    for k, (alpha, m) in enumerate(cases):
        doc = copy.deepcopy(base)
        doc["model"]["alpha"] = alpha
        doc["model"]["m"] = m
        doc["data"] = _seeded_data(base, rng)
        out = wdir / f"op{k}_{alpha}_m{int(m)}"
        doc["output"] = {"directory": str(out)}
        path = wdir / f"op{k}.json"
        if workload == "picard_convergence":
            doc["grid"]["n_cells"] = sz["conv_n"]
            doc["solver"] = {"backend": "picard", "slab_T": 0.25}
            doc["run"] = {"T_final": 1.0, "checks": ["charge"]}
            argv = ["convergence", str(path), "--levels", str(sz["conv_levels"])]
            ops.append(Op("convergence", argv, out, path, "convergence.csv"))
        else:
            doc["grid"]["n_cells"] = sz["march_n"]
            doc["solver"] = {"backend": "march"}
            doc["run"] = {"T_final": 1.0, "checks": ALL_CHECKS, "window_r": 1.0}
            ops.append(Op("solve", ["solve", str(path)], out, path, "trajectory.csv"))
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return ops


def run_op(cli_main, op: Op, tracer=None) -> Outcome:
    """Run one op through the command line, timing only the command.
    With a tracer, the command runs inside the op's root span."""
    if op.out_dir.exists():
        shutil.rmtree(op.out_dir)
    sink = io.StringIO()
    span = tracer.op(f"cli.{op.kind}") if tracer else contextlib.nullcontext(0)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        with span as op_id:
            try:
                cli_main(op.argv, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed op, not a failed benchmark
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - t0
    outputs, rows = _read_outputs(op)
    size = sum(p.stat().st_size for p in op.out_dir.rglob("*") if p.is_file()) \
        if op.out_dir.exists() else 0
    return Outcome(seconds, code, outputs, rows, size, op_id, sink.getvalue())


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _read_outputs(op: Op) -> tuple[dict, int]:
    """The values the correctness check compares, and the number of data
    rows in the op's CSV artifact."""
    path = op.out_dir / op.artifact
    if not path.exists():
        return {}, 0
    rows = _csv_rows(path)
    if op.kind == "verify":
        failed = sum(1 for r in rows if r[-1] != "true")
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "rows_failed": failed}, len(rows)
    if op.kind == "convergence":
        return {"sup_diff": [float(r[3]) for r in rows],
                "order": [float(r[4]) if r[4] else None for r in rows]}, len(rows)
    report = json.loads((op.out_dir / "report.json").read_text())
    checks = {name: [rep["pass"], rep["lhs"], rep["rhs"]]
              for name, rep in sorted(report["checks"].items())}
    samples = [len(rows) // 2, len(rows) - 1]
    traj = [[float(v) for v in rows[i]] for i in samples]
    return {"checks": checks, "rows": len(rows), "trajectory": traj}, len(rows)


def _close(value, ref) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def check(op: Op, outcome: Outcome, ref: dict | None) -> None:
    """Record why the op failed: an unexpected exit code, a failed check
    or row (these the reference may share), or outputs that depart from
    the reference or are not second order (these make the run incorrect)."""
    failures, departures = [], []
    out = outcome.outputs
    if outcome.exit_code == -1:
        failures.append("raised: " + outcome.log.strip().splitlines()[-1])
    elif outcome.exit_code != 0:
        failures.append(f"exit code {outcome.exit_code}, expected 0")
    if not out:
        departures.append(f"no {op.artifact} written")
    elif op.kind == "verify":
        if out["rows_failed"]:
            failures.append(f"{out['rows_failed']} verify rows failed")
        if ref is not None and out["sha256"] != ref["sha256"]:
            departures.append("verify rows differ from the reference digest")
    elif op.kind == "convergence":
        for order in out["order"]:
            if order is not None and abs(order - 2.0) > ORDER_TOL:
                departures.append(f"fitted order {order:.4f} is not 2 +- {ORDER_TOL}")
        if ref is not None and (len(out["sup_diff"]) != len(ref["sup_diff"]) or not all(
                _close(v, r) for v, r in zip(out["sup_diff"], ref["sup_diff"]))):
            departures.append("sup-differences depart from the reference")
    else:
        failed = [name for name, (ok, _, _) in out["checks"].items() if not ok]
        if failed:
            failures.append(f"checks failed: {', '.join(failed)}")
        if ref is not None:
            if out["rows"] != ref["rows"]:
                departures.append(f"{out['rows']} trajectory rows, reference has {ref['rows']}")
            if {k: v[0] for k, v in out["checks"].items()} != \
                    {k: v[0] for k, v in ref["checks"].items()}:
                departures.append("check pass/fail differs from the reference")
            pairs = [(v, r) for name in ref["checks"] if name in out["checks"]
                     for v, r in zip(out["checks"][name][1:], ref["checks"][name][1:])]
            pairs += [(v, r) for row, ref_row in zip(out["trajectory"], ref["trajectory"])
                      for v, r in zip(row, ref_row)]
            if not all(_close(v, r) for v, r in pairs):
                departures.append("check values or trajectory depart from the reference")
    outcome.problems = failures + departures
    outcome.departs = bool(departures)
