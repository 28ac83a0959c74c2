"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For each workload it records tiny reference outputs, then checks that

* an untraced and a traced run print every metric BENCHMARK.json names,
  with its unit, in the table and in the final JSON line, and are correct;
* the correctness check fires when the reference is perturbed;
* the seed changes the generated inputs;

and finally that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work" / "selftest"


def bench(*args, cwd=ROOT, script=HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny_run(workload: str, seed: int, trace: int, ref: Path) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", "--reference", str(ref))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_metrics(result: dict, table: str, expected: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{what}: metrics {sorted(set(got) ^ set(want))} differ "
                             f"from BENCHMARK.json (or their units do)")
    rows = {line.split()[0]: line.split()[2] for line in table.splitlines()
            if line.split() and line.split()[0] in want}
    if rows != want:
        raise AssertionError(f"{what}: table lacks {sorted(set(want) - set(rows))}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: run not correct: {table}")


def perturb(entry: dict, kind: str) -> None:
    op = entry["ops"][0]
    if kind == "verify":
        op["sha256"] = "0" * 64
    elif kind == "convergence":
        op["sup_diff"][0] *= 1.0 + 1e-4
    else:
        op["trajectory"][-1][1] *= 1.0 + 1e-4


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if WORK.exists():
        shutil.rmtree(WORK)
    ref, bad = WORK / "ref", WORK / "bad"
    for workload in workloads.WORKLOADS:
        proc = bench("--workload", workload, "--seeds", "1-1", "--size", "tiny",
                     "--out", str(ref), script=HERE / "record_reference.py")
        if proc.returncode != 0:
            raise AssertionError(f"recording {workload} failed:\n{proc.stderr}")

        result, table = tiny_run(workload, 1, 0, ref)
        check_metrics(result, table, spec["end_to_end"], f"{workload} untraced")
        result, table = tiny_run(workload, 1, 1, ref)
        check_metrics(result, table, spec["per_layer"], f"{workload} traced")

        doc = json.loads((ref / f"{workload}.json").read_text())
        perturb(doc["seeds"]["1"], workloads.make_ops(
            ROOT, workload, 1, "tiny", WORK / "ops")[0].kind)
        bad.mkdir(parents=True, exist_ok=True)
        (bad / f"{workload}.json").write_text(json.dumps(doc))
        result, _ = tiny_run(workload, 1, 0, bad)
        if result["correct"] or not result["failed"]:
            raise AssertionError(f"{workload}: perturbed reference not detected")

        inputs = []
        for seed in (0, 1):
            ops = workloads.make_ops(ROOT, workload, seed, "tiny", WORK / "ops")
            inputs.append([json.loads(op.config.read_text())["data"] if op.config
                           else op.argv for op in ops])
        if inputs[0] == inputs[1]:
            raise AssertionError(f"{workload}: seeds 0 and 1 give the same inputs")
        print(f"{workload}: ok")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work",
                                                                             "__pycache__"))
    proc = bench("--workload", "march_checks", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("the benchmark ran without the package")
    print("bare directory: exits", proc.returncode, "without a result")
    shutil.rmtree(WORK)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
