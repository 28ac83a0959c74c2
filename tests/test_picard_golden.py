"""Golden pins of the solver backends.

* Picard: solve_global at n=256, T=0.5 for every coupling and p in
  {1, 2, inf} must reproduce the recorded trajectory bytes and iterate
  histories exactly.
* March: solve_global on the march backend and solve_decomposed at
  n=256, T=1 for every coupling and m in {0, 1} must reproduce the
  recorded trajectory bytes exactly.

The Picard reference was recorded before the single-loop Picard
rewrite, the march reference before the march kernels were changed to
form each shifted array once.  Regenerate them only for a change that
is meant to alter the output:

    PYTHONPATH=src:tests python tests/test_picard_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from csd1d import (
    CouplingKind,
    ModelParams,
    SolverConfig,
    make_grid,
    solve_decomposed,
    solve_global,
)

from conftest import bump_state

GOLDEN = Path(__file__).parent / "data" / "picard_golden.json"
MARCH_GOLDEN = Path(__file__).parent / "data" / "march_golden.json"
CASES = [(kind, p) for kind in CouplingKind for p in (1.0, 2.0, np.inf)]
MARCH_CASES = [(kind, m) for kind in CouplingKind for m in (0.0, 1.0)]
DECOMPOSED_FIELDS = (
    "psi_l_plus", "psi_l_minus", "psi_n_plus", "psi_n_minus", "a_plus", "a_minus"
)


def _case_key(kind, p) -> str:
    return f"{kind.value}-p{p}"


def _march_key(kind, m) -> str:
    return f"{kind.value}-m{m:g}"


def _sha256(arrays: dict) -> dict:
    return {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in arrays.items()
    }


def _run_case(kind, p) -> dict:
    grid = make_grid(-8.0, 8.0, 256)
    state = bump_state(grid, ModelParams(alpha=kind, m=1.0, p=p), seed=11)
    traj = solve_global(state, 0.5, SolverConfig(slab_T=0.25))
    return {
        "sha256": _sha256(traj.field_traces()),
        "histories": [
            [[h["sup"], h["weighted"]] for h in hist] for hist in traj.slab_histories
        ],
    }


def _run_march_case(kind, m) -> dict:
    grid = make_grid(-8.0, 8.0, 256)
    state = bump_state(grid, ModelParams(alpha=kind, m=m, p=1.0), seed=11)
    traj = solve_global(state, 1.0, SolverConfig(backend="march"))
    dtraj = solve_decomposed(state, 1.0, SolverConfig(backend="march"))
    return {
        "march": _sha256(traj.field_traces()),
        "decomposed": _sha256({name: getattr(dtraj, name) for name in DECOMPOSED_FIELDS}),
    }


@pytest.mark.parametrize("kind,p", CASES, ids=[_case_key(k, p) for k, p in CASES])
def test_picard_matches_golden(kind, p):
    expected = json.loads(GOLDEN.read_text())[_case_key(kind, p)]
    got = _run_case(kind, p)
    assert got["sha256"] == expected["sha256"]
    # JSON floats round-trip exactly, so this compares bit for bit
    assert got["histories"] == expected["histories"]


@pytest.mark.parametrize(
    "kind,m", MARCH_CASES, ids=[_march_key(k, m) for k, m in MARCH_CASES]
)
def test_march_and_decomposed_match_golden(kind, m):
    expected = json.loads(MARCH_GOLDEN.read_text())[_march_key(kind, m)]
    assert _run_march_case(kind, m) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {_case_key(k, p): _run_case(k, p) for k, p in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    doc = {_march_key(k, m): _run_march_case(k, m) for k, m in MARCH_CASES}
    MARCH_GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
