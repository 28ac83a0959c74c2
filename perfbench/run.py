"""csd1d benchmark: three closed-loop workloads driven through the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a csd1d checkout; the package is imported from its
``src/``.  The seed picks the generated inputs (configs and verify seeds,
drawn from ``seed mod 32``); the run repeats passes over the op list
until ``--seconds`` have elapsed, checks every op against
``perfbench/reference/<workload>.json`` and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
spends half the time on untraced passes and half on traced ones, and
reports the per-layer metrics of the traced passes (see tracer.py) and
the tracing overhead.  Lines before the last one are notes: machine
info, a metric table with sample counts, and any op failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, layer_metrics, median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_s_p50": "s",
    "cell_steps_per_s": "1/s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import csd1d
csd1d.build_initial_state(csd1d.load_config({config!r}))
print(repr(time.perf_counter() - t0))
"""


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="input size; 'tiny' is for the self-test")
    ap.add_argument("--reference", type=Path, default=HERE / "reference",
                    help="directory of <workload>.json reference outputs")
    return ap.parse_args(argv)


def load_cli():
    """Import csd1d from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "csd1d" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "gaussian_null.json").is_file():
        print(f"error: {ROOT} is not a csd1d checkout (no src/csd1d or configs/)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import csd1d.cli

    if Path(csd1d.__file__).resolve().parent != (src / "csd1d").resolve():
        print(f"error: imported csd1d from {csd1d.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return csd1d.cli.main


def load_reference(ref_dir: Path, workload: str, size: str, seed: int) -> dict | None:
    path = ref_dir / f"{workload}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("size") != size:
        return None
    return doc["seeds"].get(str(workloads.input_seed(seed)))


def probe_setup(config: Path) -> float:
    """Set-up time (import, config load, initial data) of a fresh
    interpreter."""
    code = PROBE.format(src=str(ROOT / "src"), config=str(config))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(cli_main, ops, budget_s: float, ref: dict | None, tracer=None,
               before_pass=None) -> list[dict]:
    """Whole passes over the op list until budget_s has elapsed (at
    least one).  Each op is checked right after it runs."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < budget_s:
        if before_pass is not None:
            before_pass()
        outcomes = []
        wall = 0.0
        for k, op in enumerate(ops):
            outcome = workloads.run_op(cli_main, op, tracer)
            wall += outcome.seconds
            workloads.check(op, outcome, ref["ops"][k] if ref else None)
            outcomes.append(outcome)
        passes.append({"wall": wall, "outcomes": outcomes, "workers": workers()})
    return passes


def workers() -> int:
    """Thread-pool size of the verify runner, as documented for
    CSD1D_THREADS."""
    env = os.environ.get("CSD1D_THREADS", "").strip()
    return max(1, int(env)) if env else min(8, os.cpu_count() or 1)


@contextlib.contextmanager
def run_dir():
    """This process's own directory for configs and artifacts, removed
    afterwards, so that concurrent runs never share files."""
    path = WORK / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def env_var(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def pass_layer_metrics(tracer, p: dict) -> dict:
    op_ids = {o.op_id for o in p["outcomes"]}
    spans = [s for s in tracer.spans if s[3] in op_ids]
    m = layer_metrics(spans, p["wall"], p["workers"])
    m["cli.artifact_bytes"] = sum(o.artifact_bytes for o in p["outcomes"])
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup, ref) -> tuple[dict, dict]:
    walls = [p["wall"] for p in passes]
    ops = [o.seconds for p in passes for o in p["outcomes"]]
    run_s = statistics.median(walls)
    rows = statistics.median(sum(o.rows for o in p["outcomes"]) for p in passes)
    cells = ref["cell_steps"] if ref else 0
    values = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "op_s_p50": statistics.median(ops),
        "cell_steps_per_s": cells / run_s,
        "rows_per_s": rows / run_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setup), "run_s": len(walls), "op_s_p50": len(ops),
               "cell_steps_per_s": len(walls), "rows_per_s": len(walls), "peak_rss_mb": 1}
    return values, samples


def traced_run(cli_main, ops, args, ref, notes):
    """Half the time untraced, half traced; per-layer metrics are the
    medians over traced passes.  verify_all adds one traced pass with
    CSD1D_THREADS=1 as the single-threaded baseline (notes only)."""
    untraced = run_passes(cli_main, ops, args.seconds / 2, ref)
    tracer = Tracer()
    with tracer.installed():
        traced = run_passes(cli_main, ops, args.seconds / 2, ref, tracer)
        serial = []
        if args.workload == "verify_all":
            with env_var("CSD1D_THREADS", "1"):
                serial = run_passes(cli_main, ops, 0.0, ref, tracer)
    per_pass = [pass_layer_metrics(tracer, p) for p in traced]
    values = median_metrics(per_pass)
    traced_s = statistics.median(p["wall"] for p in traced)
    values["trace.overhead_frac"] = (
        traced_s / statistics.median(p["wall"] for p in untraced) - 1.0)
    samples = {k: len(per_pass) for k in values}
    samples["trace.overhead_frac"] = len(untraced) + len(traced)

    cells = sorted({m["solver.cell_steps"] for m in per_pass})
    counts_ok = ref is None or cells == [ref["cell_steps"]]
    if not counts_ok:
        notes.append(f"FAIL: traced cell-steps {cells} != reference {ref['cell_steps']}")
    if serial:
        sm = pass_layer_metrics(tracer, serial[0])
        notes.append(
            f"single-threaded baseline: CSD1D_THREADS=1 traced pass "
            f"{serial[0]['wall']:.4f} s (busy_ratio {sm['suites.busy_ratio']:.3f}) vs "
            f"{traced_s:.4f} s with {traced[0]['workers']} threads "
            f"(busy_ratio {values['suites.busy_ratio']:.3f})")
    spans_path = WORK / f"spans-{args.workload}.csv.gz"
    tracer.write(spans_path)
    notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return untraced + traced + serial, values, samples, counts_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main = load_cli()
    with run_dir() as work:
        ops = workloads.make_ops(ROOT, args.workload, args.seed, args.size, work)
        return measure(cli_main, ops, args)


def measure(cli_main, ops, args) -> int:
    ref = load_reference(args.reference, args.workload, args.size, args.seed)
    notes = [
        f"workload={args.workload} seed={args.seed} input_seed="
        f"{workloads.input_seed(args.seed)} size={args.size} ops_per_pass={len(ops)}",
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} platform={platform.platform()}",
    ]
    if ref is None:
        notes.append(f"no reference outputs for this seed in {args.reference}")

    if args.trace == 0:
        # set-up probes run between passes, so that they sample the same
        # machine conditions as the passes do
        config = ops[0].config or ROOT / "configs" / "gaussian_null.json"
        setup = []
        passes = run_passes(cli_main, ops, args.seconds, ref,
                            before_pass=lambda: setup.append(probe_setup(config)))
        while len(setup) < SETUP_PROBES:
            setup.append(probe_setup(config))
        values, samples = end_to_end(passes, setup, ref)
        units = END_TO_END
        counts_ok = True
    else:
        passes, values, samples, counts_ok = traced_run(cli_main, ops, args, ref, notes)
        units = {k: per_layer_unit(k) for k in values}
        notes.append(f"traced run peak RSS {peak_rss_mb():.1f} MB")

    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = [o for o in outcomes if o.problems]
    correct = ref is not None and counts_ok and not any(o.departs for o in outcomes)
    notes.append(f"ops: {len(outcomes)} attempted, {len(failed)} failed "
                 f"(ops_failed_frac={len(failed) / len(outcomes):.4f})")
    for problem, n in Counter(p for o in failed for p in o.problems).items():
        notes.append(f"  {n} x {problem}")
    if any("verify rows failed" in p for o in failed for p in o.problems):
        notes.append("  known defect: counter-test rows misfire at some verify seeds "
                     "(8, 10, 20, 22 and 26 of 0-31); they count as failed ops")

    for line in notes:
        print(line)
    print(f"{'metric':40s} {'value':>16s} {'unit':>6s} {'samples':>7s}")
    for name in sorted(values):
        print(f"{name:40s} {values[name]:16.6g} {units[name]:>6s} {samples[name]:7d}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
