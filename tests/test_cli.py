"""Command line interface: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from csd1d.cli import main
from csd1d.config import ConfigError, RunConfig, load_config


def base_config(out_dir, **over):
    doc = {
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 256},
        "model": {"alpha": "gamma0", "m": 1.0, "p": 2.0},
        "data": {
            "psi1": {"kind": "gaussian", "center": -1.0, "width": 0.5, "amplitude": 0.4},
            "psi2": {"kind": "gaussian", "center": 1.0, "width": 0.5, "amplitude": 0.4},
            "a0": {"kind": "gaussian", "center": 0.0, "width": 1.0, "amplitude": 0.2},
            "a1": {"kind": "zero"},
        },
        "run": {"T_final": 0.5, "checks": ["charge", "envelope"]},
        "output": {"directory": str(out_dir)},
    }
    doc.update(over)
    return doc


def strict_json(text):
    """json.loads that rejects the non-standard NaN/Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_unknown_key_is_named():
    with pytest.raises(ConfigError, match="grid.n_cels"):
        RunConfig.from_dict({
            "grid": {"x_min": 0, "x_max": 1, "n_cels": 8},
            "model": {"alpha": "gamma0", "m": 0, "p": 1},
            "data": {}, "run": {"T_final": 1},
        })


def test_config_bad_alpha():
    doc = base_config("out")
    doc["model"]["alpha"] = "gamma2"
    with pytest.raises(ConfigError, match="model.alpha"):
        RunConfig.from_dict(doc)


def test_config_p_inf(tmp_path):
    doc = base_config(tmp_path / "o")
    doc["model"]["p"] = "inf"
    cfg = RunConfig.from_dict(doc)
    assert cfg.params.p == np.inf


def test_config_unknown_check():
    doc = base_config("out")
    doc["run"]["checks"] = ["charge", "entropy"]
    with pytest.raises(ConfigError, match="entropy"):
        RunConfig.from_dict(doc)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    result = CliRunner().invoke(main, ["solve", path])
    assert result.exit_code == 0, result.output
    assert (out / "trajectory.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "meta.json").exists()

    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "charge" in header
    assert len(lines) == 1 + int(round(0.5 / (16.0 / 256))) + 1

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["checks"]["charge"]["pass"] is True
    meta = json.loads((out / "meta.json").read_text())
    assert "wall_time_s" in meta
    assert meta["versions"]["numpy"] == np.__version__


def test_solve_missing_config_exit_2(tmp_path):
    result = CliRunner().invoke(main, ["solve", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_solve_schema_error_exit_2(tmp_path):
    doc = base_config(tmp_path / "o")
    doc["model"].pop("m")
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert "model.m" in result.output


def test_solve_domain_overflow_exit_4(tmp_path):
    doc = base_config(tmp_path / "o")
    doc["data"]["psi1"] = {"kind": "box", "center": -7.5, "width": 0.5, "amplitude": 0.4}
    doc["run"]["T_final"] = 2.0
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 4


def test_solve_convergence_failure_exit_3_writes_report(tmp_path):
    out = tmp_path / "o"
    doc = base_config(out)
    for k in ("psi1", "psi2"):
        doc["data"][k]["amplitude"] = 500.0
    doc["solver"] = {"auto_slab": False}
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 3
    report = strict_json((out / "report.json").read_text())
    assert report["status"] == "convergence_failure"
    assert report["iterate_history"]
    assert report["history_non_finite"] is True
    assert any(v is None for h in report["iterate_history"] for v in h.values())


def test_solve_p_inf_writes_strict_json(tmp_path):
    out = tmp_path / "o"
    doc = base_config(out)
    doc["model"]["p"] = "inf"
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 0, result.output
    report = strict_json((out / "report.json").read_text())
    assert report["checks"]["envelope"]["metadata"]["p"] == "inf"


def test_solve_deterministic_artifacts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = write_config(tmp_path, base_config(out1))
    runner = CliRunner()
    assert runner.invoke(main, ["solve", p1]).exit_code == 0
    doc2 = base_config(out2)
    p2 = tmp_path / "config2.json"
    p2.write_text(json.dumps(doc2))
    assert runner.invoke(main, ["solve", str(p2)]).exit_code == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_verify_unknown_suite_exit_2(tmp_path):
    result = CliRunner().invoke(main, ["verify", "nonsense", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_verify_suite_writes_rows(tmp_path):
    result = CliRunner().invoke(
        main, ["verify", "scaling", "--seed", "3", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[0] == "name,seed,lhs,rhs,margin,pass"
    assert len(lines) > 1
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_contraction_large_m_fails(tmp_path):
    result = CliRunner().invoke(
        main,
        ["verify", "contraction", "--seed", "3", "--large-m", "--out", str(tmp_path)],
    )
    assert result.exit_code == 1
    text = (tmp_path / "contraction.csv").read_text()
    assert "false" in text


def test_verify_all_honors_large_m(tmp_path):
    result = CliRunner().invoke(
        main, ["verify", "all", "--seed", "3", "--large-m", "--out", str(tmp_path)]
    )
    assert result.exit_code == 1
    lines = (tmp_path / "all.csv").read_text().splitlines()
    ratios = [line for line in lines if line.startswith("contraction_ratio,")]
    assert len(ratios) == 10
    assert all(line.endswith(",false") for line in ratios)


@pytest.mark.parametrize("window_r", ["big", 0.01])
def test_solve_bad_window_r_exit_2(tmp_path, window_r):
    out = tmp_path / "o"
    doc = base_config(out)
    doc["run"] = {"T_final": 0.5, "checks": ["concentration"], "window_r": window_r}
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert "run.window_r" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("grid", "n_cells", 128.7, "grid: n_cells must be an integer"),
        ("output", "formats", "csv", "output.formats must be a list"),
        ("model", "m", True, "model.m must be a number"),
        ("run", "T_final", True, "run.T_final must be a positive number"),
        ("run", "seed", "abc", "unknown key run.seed"),
    ],
    ids=["n_cells_float", "formats_string", "m_bool", "T_final_bool", "seed"],
)
def test_solve_bad_config_value_exit_2(tmp_path, section, key, value, message):
    out = tmp_path / "o"
    doc = base_config(out)
    doc[section][key] = value
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert len(result.output.strip().splitlines()) == 1
    assert message in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_solve_unevaluable_check_exit_2(tmp_path):
    # e^{mt} overflows in the intrinsic bound at this mass
    out = tmp_path / "o"
    doc = base_config(out)
    doc["model"]["m"] = 800.0
    doc["solver"] = {"backend": "march"}
    doc["run"] = {"T_final": 1.0, "checks": ["intrinsic"]}
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert result.output.startswith("error: check 'intrinsic': ")
    assert len(result.output.strip().splitlines()) == 1
    assert not (out / "report.json").exists()


def test_solve_string_checks_exit_2(tmp_path):
    doc = base_config(tmp_path / "o")
    doc["run"]["checks"] = "charge"
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert "run.checks must be a list" in result.output


def test_convergence_levels_validation(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "o"))
    result = CliRunner().invoke(main, ["convergence", path, "--levels", "2"])
    assert result.exit_code == 2


def test_convergence_emits_orders(tmp_path):
    out = tmp_path / "o"
    path = write_config(tmp_path, base_config(out))
    result = CliRunner().invoke(main, ["convergence", path, "--levels", "3"])
    assert result.exit_code == 0, result.output
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "field,n_coarse,n_fine,sup_diff,order"
    orders = [float(l.split(",")[4]) for l in lines[1:] if l.split(",")[4]]
    assert orders
    for o in orders:
        assert 1.5 < o < 2.5
