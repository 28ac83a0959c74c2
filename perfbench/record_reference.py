"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py --workload NAME [--seeds 0-31]
        [--size full] [--out perfbench/reference]

For each input seed, runs one traced pass of the workload's op list and
stores every op's compared outputs, the delivered cell-steps (an exact
count from the trace) and the artifact rows of a pass in
``<out>/<workload>.json``.  Record only from a commit whose outputs are
trusted; a later change that alters outputs on purpose records again.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer, layer_metrics


def record(cli_main, workload: str, seed: int, size: str, work: Path) -> dict:
    ops = workloads.make_ops(run.ROOT, workload, seed, size, work)
    tracer = Tracer()
    with tracer.installed():
        p = run.run_passes(cli_main, ops, 0.0, None, tracer)[0]
    m = layer_metrics(tracer.spans, p["wall"], run.workers())
    for o in p["outcomes"]:
        if o.departs:
            raise RuntimeError(f"{workload} seed {seed}: {'; '.join(o.problems)}")
    return {
        "ops": [o.outputs for o in p["outcomes"]],
        "exit_codes": [o.exit_code for o in p["outcomes"]],
        "cell_steps": m["solver.cell_steps"],
        "rows": sum(o.rows for o in p["outcomes"]),
    }


def dump(doc: dict) -> str:
    """JSON with one line per seed, so that a re-recording diffs by seed."""
    seeds = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                        for k, v in sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    return f'{{"size": {json.dumps(doc["size"])}, "seeds": {{\n{seeds}\n}}}}\n'


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", default=f"0-{workloads.N_INPUT_SEEDS - 1}",
                    help="inclusive range A-B of input seeds")
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--out", type=Path, default=run.HERE / "reference")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    if not 0 <= lo <= hi < workloads.N_INPUT_SEEDS:
        ap.error(f"--seeds must lie in 0-{workloads.N_INPUT_SEEDS - 1}")
    cli_main = run.load_cli()
    doc = {"size": args.size, "seeds": {}}
    with run.run_dir() as work:
        for seed in range(lo, hi + 1):
            doc["seeds"][str(seed)] = record(cli_main, args.workload, seed, args.size, work)
            print(f"{args.workload} seed {seed}: recorded", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}.json"
    path.write_text(dump(doc))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
