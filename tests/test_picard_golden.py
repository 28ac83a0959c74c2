"""Golden pins of the solver backends.

* Picard: solve_global at n=256, T=0.5 for every coupling and p in
  {1, 2, inf} must reproduce the recorded trajectory bytes and iterate
  histories exactly.
* March: solve_global on the march backend and solve_decomposed at
  n=256, T=1 for every coupling and m in {0, 1} must reproduce the
  recorded trajectory bytes exactly.
* Transport: solve_transport with a source trace, for both signs and
  for real, complex and mixed (real data, complex source) inputs, must
  reproduce the recorded trace bytes (SHA-256 pinned below).
* CLI: `csd1d solve` of configs/gaussian_null.json at n=128 with all
  five checks, on both backends, must write the recorded
  trajectory.csv bytes and the recorded `checks` block of report.json
  (SHA-256 pinned below).

The Picard reference was recorded before the single-loop Picard
rewrite, the march reference before the march kernels were changed to
form each shifted array once, and the transport and CLI pins before the
Lp norms, the characteristic recursion and the march spinor step were
each reduced to one kernel.  Regenerate them only for a change that is
meant to alter the output; this rewrites the two JSON files and prints
the inline pins:

    PYTHONPATH=src:tests python tests/test_picard_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from csd1d import (
    ComplexField,
    CouplingKind,
    DataSpec,
    ModelParams,
    RealField,
    SolverConfig,
    SourceTrace,
    generate_data,
    make_grid,
    solve_decomposed,
    solve_global,
    solve_transport,
)
from csd1d.cli import main

from conftest import bump_state

GOLDEN = Path(__file__).parent / "data" / "picard_golden.json"
MARCH_GOLDEN = Path(__file__).parent / "data" / "march_golden.json"
CASES = [(kind, p) for kind in CouplingKind for p in (1.0, 2.0, np.inf)]
MARCH_CASES = [(kind, m) for kind in CouplingKind for m in (0.0, 1.0)]
CONFIG = Path(__file__).parents[1] / "configs" / "gaussian_null.json"
TRANSPORT_GOLDEN = {
    "plus-real": "14e2d6dc50dddcfc979be7bf6f22c3ffffece46041df29c79bdf377c41a35797",
    "plus-complex": "79a7f3027026bced91014ff77db5cb685768acd1bd2d5f8fc8171b81bf501794",
    "plus-mixed": "5fa096329d6cc60753bab0f75a05a9829fd227271342263f2c0871837dc2f8d6",
    "minus-real": "a638534a9f33d533b1264901fb4e2c71114660ae8250dd4b26a554d3d9da8c97",
    "minus-complex": "de266905f918c7bb791f56cd3be995e8d00abc5aea75e903fee001d20f6ebdc6",
    "minus-mixed": "159db6ab2f7f93b0e93002ef07a283bfc24cf2cb7eee5ba78703632284eed328",
}
# the march run fails its charge check at this resolution (exit 1)
SOLVE_GOLDEN = {
    "picard": {
        "exit_code": 0,
        "trajectory.csv": "e908a8995a3c27ba70d1b384ab0181d8aeda6bb5750ab5b7576ea5a69ea017f3",
        "checks": "7f2695c88009d3ad85c021f90bcf835b04f3e3b2788dd081e7eeb6529c7e9bce",
    },
    "march": {
        "exit_code": 1,
        "trajectory.csv": "112ac20eb73b52f35bc7d5315fd04280557f76345a808cb601f1e80e9b751fd0",
        "checks": "a90bc76b614f394bfbdd323b16755afc205d9a0a76d74ac34cebd2f2e20f970f",
    },
}
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


def _bumps(grid, seed, width):
    spec = DataSpec(kind="random_bumps", width=width, amplitude=1.0, seed=seed, spread=3.0)
    return generate_data(spec, grid).values


def _run_transport_case(key) -> str:
    sign_name, data = key.split("-")
    grid = make_grid(-8.0, 8.0, 256)
    steps = 24
    # negated, so that the data and the source hold negative zeros
    u0 = -_bumps(grid, 21, 0.7)
    g = -_bumps(grid, 22, 0.6)
    h = np.cos(2.5 * np.arange(steps + 1) * grid.dt + 0.3)
    F = h[:, None] * g[None, :]
    u0 = ComplexField(grid, u0) if data == "complex" else RealField(grid, u0.real)
    F = F.real if data == "real" else F
    sign = +1 if sign_name == "plus" else -1
    trace = solve_transport(u0, SourceTrace(grid, F), sign, steps)
    return _sha256({"trace": trace})["trace"]


def _run_solve_case(tmp_path, backend) -> dict:
    doc = json.loads(CONFIG.read_text())
    doc["grid"]["n_cells"] = 128
    doc["solver"]["backend"] = backend
    doc["output"]["directory"] = str(tmp_path / backend)
    path = tmp_path / f"{backend}.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["solve", str(path)])
    out = tmp_path / backend
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert sorted(checks) == ["bilinear", "charge", "concentration", "envelope", "intrinsic"]
    return {
        "exit_code": result.exit_code,
        "trajectory.csv": hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest(),
        "checks": hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest(),
    }


@pytest.mark.parametrize("key", list(TRANSPORT_GOLDEN))
def test_transport_matches_golden(key):
    assert _run_transport_case(key) == TRANSPORT_GOLDEN[key]


@pytest.mark.parametrize("backend", list(SOLVE_GOLDEN))
def test_solve_artifacts_match_golden(tmp_path, backend):
    assert _run_solve_case(tmp_path, backend) == SOLVE_GOLDEN[backend]


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
    print({key: _run_transport_case(key) for key in TRANSPORT_GOLDEN})
    with tempfile.TemporaryDirectory() as tmp:
        print({b: _run_solve_case(Path(tmp), b) for b in SOLVE_GOLDEN})
