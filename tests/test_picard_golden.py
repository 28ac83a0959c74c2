"""Golden pin of the Picard backend: solve_global at n=256, T=0.5 for
every coupling and p in {1, 2, inf} must reproduce the recorded
trajectory bytes and iterate histories exactly.

The reference file was recorded before the single-loop Picard rewrite;
regenerate it only for a change that is meant to alter the output:

    PYTHONPATH=src:tests python tests/test_picard_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from csd1d import CouplingKind, ModelParams, SolverConfig, make_grid, solve_global

from conftest import bump_state

GOLDEN = Path(__file__).parent / "data" / "picard_golden.json"
CASES = [(kind, p) for kind in CouplingKind for p in (1.0, 2.0, np.inf)]


def _case_key(kind, p) -> str:
    return f"{kind.value}-p{p}"


def _run_case(kind, p) -> dict:
    grid = make_grid(-8.0, 8.0, 256)
    state = bump_state(grid, ModelParams(alpha=kind, m=1.0, p=p), seed=11)
    traj = solve_global(state, 0.5, SolverConfig(slab_T=0.25))
    return {
        "sha256": {
            name: hashlib.sha256(np.ascontiguousarray(trace).tobytes()).hexdigest()
            for name, trace in traj.field_traces().items()
        },
        "histories": [
            [[h["sup"], h["weighted"]] for h in hist] for hist in traj.slab_histories
        ],
    }


@pytest.mark.parametrize("kind,p", CASES, ids=[_case_key(k, p) for k, p in CASES])
def test_picard_matches_golden(kind, p):
    expected = json.loads(GOLDEN.read_text())[_case_key(kind, p)]
    got = _run_case(kind, p)
    assert got["sha256"] == expected["sha256"]
    # JSON floats round-trip exactly, so this compares bit for bit
    assert got["histories"] == expected["histories"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {_case_key(k, p): _run_case(k, p) for k, p in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
