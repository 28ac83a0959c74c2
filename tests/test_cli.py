"""Command line interface: exit codes, artifacts, determinism."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import csd1d.cli
from csd1d.cli import main
from csd1d.config import ConfigError, RunConfig, load_config

GAUSSIAN_NULL = Path(__file__).parents[1] / "configs" / "gaussian_null.json"


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


def set_key(doc, section, key, value):
    """doc[section][key] = value, where section may be a dotted path."""
    node = doc
    for name in section.split("."):
        node = node.setdefault(name, {})
    node[key] = value


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


def test_config_n_bumps_huge():
    # refused before the data are built: generating them would add the
    # bumps one by one without end
    doc = base_config("out")
    doc["data"]["psi1"] = {
        "kind": "random_bumps", "width": 0.5, "amplitude": 0.5, "n_bumps": 10**400
    }
    message = r"^data\.psi1\.n_bumps must be an integer >= 0 and <= 10000, got 1000"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(doc)


def test_solve_huge_n_bumps_error_is_short(tmp_path):
    # the 401 digits of the bad value are cut, not echoed
    doc = base_config(tmp_path / "o")
    doc["data"]["psi1"] = {
        "kind": "random_bumps", "width": 0.5, "amplitude": 0.5, "n_bumps": 10**400
    }
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 120, lines
    assert "data.psi1.n_bumps" in lines[0]


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("solver", "slab_T", 10**400),
        ("solver", "picard_tol", 10**400),
        ("solver", "max_picard_iters", -10**400),
        ("model", "alpha", 10**400),
        ("grid", "n_cells", 10**400),
        # unhashable: a dict lookup of it raises TypeError
        ("model", "alpha", [1]),
        ("model", "alpha", {}),
        ("data.psi1", "kind", "x" * 500),
        ("run", "checks", ["x" * 500]),
        ("output", "formats", ["x" * 500]),
    ],
    ids=[
        "slab_T", "picard_tol", "max_picard_iters", "alpha", "n_cells",
        "alpha_list", "alpha_dict", "kind_long", "checks_long", "formats_long",
    ],
)
def test_solve_huge_value_error_is_short(tmp_path, section, key, value):
    # a bad value exits 2 on one line: a value too large for a float or
    # a long string is cut, not echoed
    doc = base_config(tmp_path / "o")
    set_key(doc, section, key, value)
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 120, lines
    assert lines[0].startswith("error: ") and key in lines[0]


@pytest.mark.parametrize("section", ["grid", "model", "data", "run", "solver", "output"])
def test_config_section_not_object(section):
    doc = base_config("out")
    doc[section] = 5
    with pytest.raises(ConfigError, match=f"^{section} must be an object$"):
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


def test_solve_config_directory_exit_2(tmp_path):
    # an unreadable file takes the same path, but as root it can be read
    result = CliRunner().invoke(main, ["solve", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == f"error: cannot read config file {tmp_path}: Is a directory\n"


def test_solve_picard_report_history_is_sup_only(tmp_path):
    out = tmp_path / "o"
    doc = json.loads((Path(__file__).parents[1] / "configs" / "gaussian_null.json").read_text())
    doc["grid"]["n_cells"] = 128
    doc["output"]["directory"] = str(out)
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 0, result.output
    history = json.loads((out / "report.json").read_text())["iterate_history"]
    assert history
    assert all(list(h) == ["sup"] and math.isfinite(h["sup"]) for h in history)


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
        ("output", "formats", "csv", "unknown key output.formats"),
        ("model", "m", True, "model.m must be a number"),
        ("run", "T_final", True, "run.T_final must be a positive number"),
        ("run", "seed", "abc", "unknown key run.seed"),
        ("solver", "auto_slab", "false", "solver: auto_slab must be true or false"),
        # the Picard stopping rule is fixed, not a config key
        ("solver", "max_picard_iters", 2.7, "unknown key solver.max_picard_iters"),
        ("solver", "max_picard_iters", True, "unknown key solver.max_picard_iters"),
        ("solver", "slab_T", True, "solver: slab_T must be a positive number"),
        ("data.psi1", "amplitude", "big", "data.psi1.amplitude must be a number"),
        ("data.psi1", "seed", "x", "data.psi1.seed must be an integer"),
        ("data.psi1", "n_bumps", "3", "data.psi1.n_bumps must be an integer"),
        ("data.psi1", "n_bumps", -3,
         "data.psi1.n_bumps must be an integer >= 0 and <= 10000, got -3"),
        ("data.psi1", "n_bumps", 10_001,
         "data.psi1.n_bumps must be an integer >= 0 and <= 10000, got 10001"),
        ("model", "p", True, "model.p must be a number >= 1"),
        ("model", "m", float("nan"), "model.m must be a number >= 0"),
        ("grid", "x_min", False, "grid.x_min must be a number"),
        ("grid", "x_max", "8", "grid.x_max must be a number"),
        # integers too large for a float
        ("grid", "n_cells", 10**400, "grid: n_cells is too large for a float"),
        ("grid", "x_max", 10**400, "grid.x_max must be a number"),
        ("model", "m", 10**400, "model.m must be a number >= 0"),
        ("model", "p", 10**400, "model.p must be a number >= 1"),
        ("run", "T_final", 10**400, "run.T_final must be a positive number"),
        ("data.psi1", "amplitude", -10**400, "data.psi1.amplitude must be a number"),
        # not written to a directory named after the value
        ("output", "directory", [1], "output.directory must be a non-empty string, got [1]"),
        ("output", "directory", {}, "output.directory must be a non-empty string, got {}"),
        ("output", "directory", None, "output.directory must be a non-empty string, got None"),
        ("output", "directory", "", "output.directory must be a non-empty string, got ''"),
    ],
    ids=["n_cells_float", "formats_string", "m_bool", "T_final_bool", "seed",
         "auto_slab_string", "max_picard_iters_float", "max_picard_iters_bool",
         "slab_T_bool", "amplitude_string", "data_seed_string", "n_bumps_string",
         "n_bumps_negative", "n_bumps_over",
         "p_bool", "m_nan", "x_min_bool", "x_max_string", "n_cells_huge", "x_max_huge",
         "m_huge", "p_huge", "T_final_huge", "amplitude_huge",
         "directory_list", "directory_dict", "directory_null", "directory_empty"],
)
def test_solve_bad_config_value_exit_2(tmp_path, monkeypatch, section, key, value, message):
    monkeypatch.chdir(tmp_path)  # a relative output directory lands here
    out = tmp_path / "o"
    doc = base_config(out)
    set_key(doc, section, key, value)
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert len(result.output.strip().splitlines()) == 1
    assert message in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "convergence"])
def test_unwritable_output_directory_exit_2(tmp_path, monkeypatch, command):
    # a directory name longer than the file system allows cannot be made,
    # and the command learns it before it computes
    out = tmp_path / ("x" * 300)
    config = write_config(tmp_path, base_config(out))
    args, computation = {
        "solve": (["solve", config], "solve_global"),
        "verify": (["verify", "scaling", "--out", str(out)], "run_suite"),
        "convergence": (["convergence", config], "solve_final_state"),
    }[command]

    def never(*_, **__):
        raise AssertionError(f"{computation} ran before the output directory was made")

    monkeypatch.setattr(csd1d.cli, computation, never)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 120, lines
    assert lines[0].startswith("error: cannot write ")


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "checks,named",
    [
        (["charge", "intrinsic", "concentration"], "intrinsic"),
        (["concentration", "intrinsic"], "concentration"),
        (["intrinsic", "bilinear"], "intrinsic"),
    ],
    ids=["trajectory_check_after", "trajectory_check_before", "bilinear_after"],
)
def test_solve_names_first_unevaluable_check_in_config_order(tmp_path, checks, named):
    # at this mass e^{mt} overflows in the intrinsic, concentration and
    # bilinear bounds; the trajectory's checks run before bilinear, and
    # bilinear before intrinsic, but the error names the first of
    # run.checks that cannot be evaluated
    out = tmp_path / "o"
    doc = base_config(out)
    doc["model"]["m"] = 800.0
    doc["solver"] = {"backend": "march"}
    doc["run"] = {"T_final": 1.0, "checks": checks}
    result = CliRunner().invoke(main, ["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert result.output.startswith(f"error: check {named!r}: ")
    assert len(result.output.strip().splitlines()) == 1
    assert not (out / "report.json").exists()


def test_solve_reports_checks_in_config_order(tmp_path):
    # the checks run in phases (the trajectory's readers, then bilinear,
    # then intrinsic) but print in run.checks order, forward or reversed
    checks = ["charge", "intrinsic", "envelope", "concentration", "bilinear"]
    runs = {}
    for name, order in (("forward", checks), ("reversed", checks[::-1])):
        doc = _gaussian_null(tmp_path, 256, backend="march")
        doc["run"]["checks"] = order
        doc["output"]["directory"] = str(tmp_path / name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["solve", str(path)])
        assert result.exit_code in (0, 1), result.output
        lines = result.output.splitlines()[:-1]  # the last names the directory
        assert [line.split(":")[0] for line in lines] == order
        report = json.loads((tmp_path / name / "report.json").read_text())
        runs[name] = result.exit_code, lines, report["checks"]
    (code, lines, reports), (rev_code, rev_lines, rev_reports) = runs.values()
    assert rev_code == code
    assert rev_lines == lines[::-1]
    assert rev_reports == reports


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("run", "T_final", 0.3, "error: T_final=0.3 is not a multiple of dt=0.125"),
        ("data.psi1", "width", 0.2, "error: feature width 0.2 not resolvable on dx=0.125"),
        ("solver", "slab_T", 0.3, "error: slab_T=0.3 is not a positive multiple of dt=0.125"),
    ],
    ids=["T_final_off_lattice", "data_too_narrow", "slab_T_off_lattice"],
)
def test_unrunnable_config_exit_2(tmp_path, command, section, key, value, message):
    out = tmp_path / "o"
    doc = base_config(out)
    doc["grid"]["n_cells"] = 128
    set_key(doc, section, key, value)
    result = CliRunner().invoke(main, [command, write_config(tmp_path, doc)])
    assert result.exit_code == 2
    assert len(result.output.strip().splitlines()) == 1
    assert result.output.startswith(message)
    assert not out.exists()


def test_verify_negative_seed_exit_2(tmp_path):
    result = CliRunner().invoke(main, ["verify", "scaling", "--seed", "-1", "--out", str(tmp_path)])
    assert result.exit_code == 2
    # click prints its usage lines above the one error line
    errors = [line for line in result.output.splitlines() if line.lower().startswith("error")]
    assert errors == ["Error: Invalid value for '--seed': -1 is not in the range x>=0."]
    assert "Traceback" not in result.output


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


def _gaussian_null(tmp_path, n_cells, **solver):
    """configs/gaussian_null.json at n_cells, writing under tmp_path."""
    doc = json.loads(GAUSSIAN_NULL.read_text())
    doc["grid"]["n_cells"] = n_cells
    doc["solver"].update(solver)
    doc["output"]["directory"] = str(tmp_path / "o")
    return doc


def _trajectory_bytes(doc):
    """(steps + 1) rows of two complex and two real fields: 48 bytes a cell."""
    cfg = RunConfig.from_dict(doc)
    return (round(cfg.T_final / cfg.grid.dt) + 1) * cfg.grid.n_cells * 48


def _traced_peak(argv):
    """(result, traced peak bytes) of one in-process csd1d command;
    tracemalloc counts numpy's data buffers."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = CliRunner().invoke(main, argv)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_cells", [512, 1024])
@pytest.mark.parametrize("backend", ["march", "picard"])
def test_solve_all_checks_peak_memory(tmp_path, backend, n_cells):
    # the trajectory is released before bilinear and intrinsic run: the
    # peak, about 2x, is the trajectory beside the bilinear psi sources
    # (32 bytes a cell) as they are formed, or the intrinsic check's
    # decomposed march (80 bytes a cell) alone, each with temporaries
    doc = _gaussian_null(tmp_path, n_cells, backend=backend)
    result, peak = _traced_peak(["solve", write_config(tmp_path, doc)])
    assert result.exit_code == 0, result.output
    assert peak <= 2.5 * _trajectory_bytes(doc), peak / _trajectory_bytes(doc)


@pytest.mark.parametrize("alpha", ["gamma0", "gamma1", "identity"])
def test_convergence_peak_memory(tmp_path, alpha):
    # no level's trajectory is stored: each level holds one Picard slab
    # at a time and keeps only its final state
    doc = _gaussian_null(tmp_path, 128)
    doc["model"]["alpha"] = alpha
    result, peak = _traced_peak(["convergence", write_config(tmp_path, doc), "--levels", "3"])
    assert result.exit_code == 0, result.output
    finest = _trajectory_bytes(_gaussian_null(tmp_path, 512))
    assert peak <= 1.4 * finest, peak / finest
