import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import photonlab
from photonlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXPERIMENTS,
    ConfigError,
    NonFiniteResultError,
    ResultBundle,
    Table,
    list_experiments,
    load_config,
    main,
    write_bundle,
    _validate_params,
)


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def base_config(experiment, out, **params):
    return {
        "schema_version": 1,
        "experiment": experiment,
        "out": str(out),
        "params": params,
    }


# ---------------------------------------------------------------------------
# catalog


def test_catalog_lists_every_experiment():
    text = list_experiments()
    assert len(EXPERIMENTS) >= 7
    for name in EXPERIMENTS:
        assert name in text
    assert text.count("demonstrates:") == len(EXPERIMENTS)


def test_catalog_prints_each_domain_and_seed_rule():
    text = list_experiments()
    for exp in EXPERIMENTS.values():
        for p in exp.params:
            assert f"{p.name} ({p.kind}, default {p.default!r}; {p.describe()})" in text
    assert "object (str, default 'harmonic'; one of disk, letter, harmonic)" in text
    assert "n_bins (int, default 512; even, >= 2)" in text
    assert "stochastic: when method is monte-carlo (seed required)" in text
    assert "requires: t_min < t_max" in text


def test_catalog_is_stable():
    assert list_experiments() == list_experiments()


def test_list_command_exit_code(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "angular" in out and "dispersion" in out


# ---------------------------------------------------------------------------
# config validation


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "experiment": "angular", "typo": 1},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_unknown_param_rejected(tmp_path):
    cfg = write_config(
        tmp_path, base_config("angular", tmp_path / "out", ell=2)
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_wrong_param_type_rejected(tmp_path):
    cfg = write_config(
        tmp_path, base_config("angular", tmp_path / "out", l="two")
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("written,fixed", [("1e3", "1.0e+3"), ("1.0e3", "1.0e+3"), ("25E-2", "25.0e-2")])
def test_yaml_string_number_explained(tmp_path, capsys, written, fixed):
    # PyYAML follows YAML 1.1: a float needs a decimal point and, with an
    # exponent, a signed one
    out = tmp_path / "out"
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"schema_version: 1\nexperiment: ramsey\nout: {out}\nparams:\n  omega: {written}\n")
    assert main(["run", str(cfg), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'omega'" in err and "as a string" in err and f"write {fixed}" in err
    assert not out.exists()
    cfg.write_text(cfg.read_text().replace(written, fixed))
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK


def test_string_in_float_list_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        f"schema_version: 1\nexperiment: dispersion\nout: {out}\nparams:\n  beta: [0.0, 0.0, 2.2e1, 0.0]\n"
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'beta'" in err and "write 2.2e+1" in err
    assert not out.exists()


def test_non_integral_list_entry_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {**base_config("heisenberg-scaling", out, photon_grid=[1.7, 2, 3, 4]), "seed": 1},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "photon_grid" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_list_entry_accepted(tmp_path):
    out = tmp_path / "out"
    params = dict(photon_grid=[1.0, 2, 3, 4], repetitions=20, shots_per_estimate=16)
    cfg = write_config(tmp_path, {**base_config("heisenberg-scaling", out, **params), "seed": 1})
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["photon_grid"] == [1, 2, 3, 4]


def test_missing_schema_version_rejected(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "angular"})
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_unknown_experiment_rejected(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1, "experiment": "teleport"})
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def _never_run(params, seed):
    raise AssertionError("the runner ran on a malformed config")


@pytest.mark.parametrize(
    "entries, named",
    [
        ({"experiment": ["ramsey"]}, "unknown experiment ['ramsey']"),
        ({"experiment": {"ramsey": 1}}, "unknown experiment {'ramsey': 1}"),
        ({7: "x"}, "unknown top-level key(s): 7"),
        ({"params": {1: 2}}, "unknown parameter(s) for ramsey: 1"),
        ({"params": False}, "params must be a mapping"),
        ({"out": 5}, "out must be a path string, got 5"),
        ({"out": ["a"]}, "out must be a path string, got ['a']"),
        ({"out": True}, "out must be a path string, got True"),
        ({"out": "a\0b"}, "out must be a path string"),
        ({"out": "a\ud800"}, "out must be a path string"),
        ({"schema_version": True}, "schema_version must be the integer 1, got True"),
        ({"schema_version": 1.0}, "schema_version must be the integer 1, got 1.0"),
    ],
    ids=[
        "experiment-list", "experiment-mapping", "int-key", "int-param-key", "params-false",
        "out-int", "out-list", "out-bool", "out-nul", "out-surrogate", "schema-bool", "schema-float",
    ],
)
def test_malformed_top_level_value_exits_2_before_any_compute(tmp_path, capsys, monkeypatch, entries, named):
    monkeypatch.setitem(EXPERIMENTS, "ramsey", dataclasses.replace(EXPERIMENTS["ramsey"], runner=_never_run))
    monkeypatch.setenv("PHOTONLAB_OUT", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"schema_version": 1, "experiment": "ramsey", **entries}, sort_keys=False))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


def test_malformed_yaml_leaves_no_output(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTONLAB_OUT", str(tmp_path / "runs"))
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("experiment: [unclosed")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "runs").exists()


def test_stochastic_experiment_requires_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config("sql-scaling", tmp_path / "out", trial_grid=[16, 32, 64, 128]),
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_seed_validation(tmp_path):
    path = tmp_path / "negative-seed.yaml"
    path.write_text(yaml.safe_dump({"schema_version": 1, "experiment": "angular", "seed": -3}))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "experiment, params",
    [("sql-scaling", {"trial_grid": [16, 32, 64, 128]}), ("ramsey", {})],
)
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, experiment, params):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**base_config(experiment, out, **params), "seed": 4})
    assert main(["run", str(cfg), "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_config_path_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    folder = tmp_path / "configs"
    folder.mkdir()
    assert main(["run", str(folder)]) == EXIT_CONFIG
    assert f"cannot read config file {folder}" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_output_path_that_cannot_be_created_is_a_config_error(tmp_path, capsys, below):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "x" if below else afile
    cfg = write_config(tmp_path, base_config("ramsey", tmp_path / "unused"))
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"cannot create output directory {out}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.yaml"]
    assert afile.read_text() == "keep"


def test_output_name_taken_by_a_directory_is_a_config_error(tmp_path, capsys):
    # no rename can replace a directory: refused before anything is staged
    out = tmp_path / "out"
    taken = out / "summary.json"
    taken.mkdir(parents=True)
    cfg = write_config(tmp_path, base_config("spiral", out, n_radial=32, n_angular=64))
    assert main(["run", str(cfg), "--quiet"]) == EXIT_CONFIG
    assert f"output target {taken} exists and is not a regular file" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert not any(taken.iterdir())
    # a regular file of that name is replaced
    taken.rmdir()
    taken.write_text("old")
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    assert json.loads(taken.read_text())["experiment"] == "spiral"


# ---------------------------------------------------------------------------
# running experiments


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_angular_run_writes_matching_fringe(tmp_path, capsys):
    out = tmp_path / "angular"
    # 160 points per turn sample the cos^2(4 theta) zeros exactly
    cfg = write_config(tmp_path, base_config("angular", out, l=2, theta_points=160))
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    header, rows = read_csv(out / "fringe.csv")
    assert header == ["theta[rad]", "rate_analytic[1]", "rate_simulated[1]"]
    for theta_s, analytic_s, simulated_s in rows:
        theta = float(theta_s)
        assert abs(float(simulated_s) - math.cos(4 * theta) ** 2) < 1e-12
        assert abs(float(simulated_s) - float(analytic_s)) < 1e-12
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["visibility"] >= 0.99


def test_heisenberg_run_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    params = dict(photon_grid=[1, 2, 3, 4], repetitions=60, shots_per_estimate=64)
    cfg_a = write_config(
        tmp_path, {**base_config("heisenberg-scaling", out_a, **params), "seed": 11}, "a.yaml"
    )
    cfg_b = write_config(
        tmp_path, {**base_config("heisenberg-scaling", out_b, **params), "seed": 11}, "b.yaml"
    )
    assert main(["run", str(cfg_a), "--quiet"]) == EXIT_OK
    assert main(["run", str(cfg_b), "--quiet"]) == EXIT_OK
    assert (out_a / "scaling.csv").read_bytes() == (out_b / "scaling.csv").read_bytes()
    header, rows = read_csv(out_a / "scaling.csv")
    for n_s, analytic_s, _ in rows:
        assert abs(float(analytic_s) - 1.0 / int(n_s)) < 1e-15


def test_one_config_and_seed_write_identical_bytes(tmp_path):
    # every file of the bundle, summary.json included, repeats byte for byte
    params = dict(photon_grid=[1, 2, 3, 4], repetitions=60, shots_per_estimate=64)
    cfg = write_config(tmp_path, {**base_config("heisenberg-scaling", tmp_path / "unused", **params), "seed": 11})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", str(cfg), "--quiet", "--out", str(out)]) == EXIT_OK
    files = [sorted(p.name for p in out.iterdir()) for out in outs]
    assert files[0] == files[1] and "summary.json" in files[0]
    for name in files[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_seed_override_changes_tables(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    params = dict(trial_grid=[16, 32, 64, 128], repetitions=40)
    cfg_a = write_config(
        tmp_path, {**base_config("sql-scaling", out_a, **params), "seed": 1}, "a.yaml"
    )
    cfg_b = write_config(
        tmp_path, {**base_config("sql-scaling", out_b, **params), "seed": 1}, "b.yaml"
    )
    assert main(["run", str(cfg_a), "--quiet"]) == EXIT_OK
    assert main(["run", str(cfg_b), "--quiet", "--seed", "2"]) == EXIT_OK
    assert (out_a / "scaling.csv").read_bytes() != (out_b / "scaling.csv").read_bytes()


def test_numerical_failure_exit_code_and_atomicity(tmp_path):
    # interrogation at a fringe extremum: the slope vanishes and the
    # uncertainty formula is singular
    out = tmp_path / "ramsey"
    cfg = write_config(
        tmp_path,
        base_config("ramsey", out, omega=1.0, t_probe=math.pi, t_points=10),
    )
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert not out.exists()


def test_single_monte_carlo_trial_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "ramsey"
    cfg = write_config(
        tmp_path,
        {**base_config("ramsey", out, method="monte-carlo", trials=1), "seed": 4},
    )
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert "one trial in one repetition" in capsys.readouterr().err
    assert not out.exists()


def test_zero_analytic_trials_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "ramsey"
    cfg = write_config(tmp_path, base_config("ramsey", out, trials=0))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "'trials' = 0 is outside its domain: >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_result_fails_before_writing(tmp_path, capsys):
    # one repetition would leave the sample spread undefined (NaN)
    out = tmp_path / "sql"
    cfg = write_config(
        tmp_path,
        {**base_config("sql-scaling", out, trial_grid=[16, 32, 64, 128], repetitions=1), "seed": 1},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "'repetitions' = 1 is outside its domain: >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_summary_value_names_the_key(tmp_path):
    bundle = ResultBundle("demo", {}, (Table("t", ("x[1]",), ((1.0,),)),), {"slope": float("inf")})
    with pytest.raises(NonFiniteResultError, match="'slope'"):
        write_bundle(bundle, tmp_path / "out", None)
    assert not (tmp_path / "out").exists()


def test_non_finite_table_cell_names_the_column(tmp_path):
    bundle = ResultBundle("demo", {}, (Table("t", ("x[1]", "y[1]"), ((1.0, float("nan")),)),), {})
    with pytest.raises(NonFiniteResultError, match="table 't', column 'y\\[1\\]' holds nan"):
        write_bundle(bundle, tmp_path / "out", None)
    assert not (tmp_path / "out").exists()


def test_empty_table_names_the_table(tmp_path):
    bundle = ResultBundle("demo", {}, (Table("t", ("x[1]",), ()),), {})
    with pytest.raises(ValueError, match="table 't' has no rows"):
        write_bundle(bundle, tmp_path / "out", None)
    assert not (tmp_path / "out").exists()


def test_non_finite_config_echo_is_not_written(tmp_path):
    # the summary is strict JSON: a NaN anywhere in it, the echoed config
    # included, is refused before the output directory exists
    bundle = ResultBundle("demo", {"radius": float("nan")}, (Table("t", ("x[1]",), ((1.0,),)),), {})
    with pytest.raises(ValueError, match="JSON compliant"):
        write_bundle(bundle, tmp_path / "out", None)
    assert not (tmp_path / "out").exists()


def test_zero_detuning_bins_exit_numerical(tmp_path, capsys):
    out = tmp_path / "disp"
    cfg = write_config(tmp_path, base_config("dispersion", out, n_bins=0))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "'n_bins' = 0 is outside its domain: even, >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, params, n, phi",
    [
        ("heisenberg-scaling", dict(photon_grid=[1, 2, 3, 4, 5], repetitions=50, working_point=1.0), 4, 1.0),
        ("sql-scaling", dict(trial_grid=[16, 32, 64, 128], repetitions=50, working_point=4.0), 16, 4.0),
    ],
)
def test_working_point_off_the_principal_branch_fails(tmp_path, capsys, experiment, params, n, phi):
    # rate * phi must lie in (0, pi) for every grid entry.  With one photon
    # that is the declared domain of phi (exit 2); N * phi < pi is the
    # kernel's check (exit 3), and N = 4 is the first NOON probe past pi at phi = 1
    expected = {
        "sql-scaling": (EXIT_CONFIG, f"'working_point' = {phi} is outside its domain: finite, in (0, pi)"),
        "heisenberg-scaling": (EXIT_NUMERICAL, f"N = {n}, phi = {phi}"),
    }
    code, message = expected[experiment]
    out = tmp_path / "scaling"
    cfg = write_config(tmp_path, {**base_config(experiment, out, **params), "seed": 3})
    assert main(["run", str(cfg)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, params, table",
    [
        ("spiral", dict(l_max=-1, n_radial=32, n_angular=64), "spectrum"),
        ("spiral", dict(p_max=-1, n_radial=32, n_angular=64), "spectrum"),
        ("ramsey", dict(t_points=0), "fringe"),
    ],
)
def test_empty_table_fails_before_writing(tmp_path, capsys, experiment, params, table):
    # the first parameter would leave the table without rows; its domain
    # refuses it before any compute
    (name, value), *_ = params.items()
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(experiment, out, **params))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"parameter {name!r} = {value} is outside its domain" in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "experiment, params, domain",
    [
        ("spiral", dict(radius=-1.0), "finite, >= 0.0"),
        ("spiral", dict(radius=NAN), "finite, >= 0.0"),
        ("spiral", dict(w0=0.0), "finite, > 0.0"),
        ("spiral", dict(n_radial=0), ">= 2"),
        ("spiral", dict(n_angular=3), ">= 4"),
        ("angular", dict(theta_points=1), ">= 2"),
        ("angular", dict(theta_points=0), ">= 2"),
        ("angular", dict(l=0), "!= 0"),
        ("ramsey", dict(method="foo"), "one of analytic, monte-carlo"),
        ("ramsey", dict(atoms=0), ">= 1"),
        ("ramsey", dict(t_probe=-1.0), "finite, > 0.0"),
        ("ramsey", dict(omega=NAN), "finite"),
        ("dispersion", dict(sigma=-0.3), "finite, > 0.0"),
        ("dispersion", dict(n_bins=511), "even, >= 2"),
        ("dispersion", dict(tau_points=1), ">= 2"),
        ("dispersion", dict(length=-1.0), "finite, >= 0.0"),
        ("dispersion", dict(beta=[0.0, 1.0]), "4 entries, each finite"),
        ("dispersion", dict(tau_span=INF), "finite, > 0.0"),
        ("sql-scaling", dict(repetitions=0), ">= 2"),
        ("sql-scaling", dict(working_point=NAN), "finite, in (0, pi)"),
        ("heisenberg-scaling", dict(shots_per_estimate=0), ">= 1"),
        ("doppler", dict(l_values=[0]), ">= 1 entries, each != 0"),
        ("doppler", dict(sample_rate=-5.0), "finite, > 0.0"),
        ("doppler", dict(rotation_rates=[NAN]), ">= 1 entries, each finite"),
        ("doppler", dict(omega=INF), "finite"),
    ],
)
def test_out_of_domain_value_is_a_config_error(tmp_path, capsys, experiment, params, domain):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {**base_config(experiment, out, **params), "seed": 1})
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    (name, value), = params.items()
    assert f"parameter {name!r} = {value!r} is outside its domain: {domain}\n" in capsys.readouterr().err
    assert not out.exists()


def test_unresolved_delay_scan_fails_before_writing(tmp_path, capsys):
    # a scan far inside one delay sample: the envelope width underflows to 0
    out = tmp_path / "disp"
    cfg = write_config(tmp_path, base_config("dispersion", out, tau_span=1e-208))
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert "zero-width envelope" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params", [dict(l_max=171, n_angular=688), dict(p_max=170)], ids=["l_max", "p_max"])
def test_spiral_family_past_the_factorial_range_is_a_config_error(tmp_path, capsys, monkeypatch, params):
    # the mode normalization holds (p + |l|)!, and 171! overflows a float
    def computed(*args, **kwargs):
        raise AssertionError("projected a config that fails validation")

    monkeypatch.setattr(photonlab.oam_imaging, "project_object", computed)
    out = tmp_path / "spiral"
    cfg = write_config(tmp_path, base_config("spiral", out, **params))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "spiral needs l_max + p_max <= 170" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("w0", [1e-306, 1e200])
def test_waist_beyond_the_float_range_fails_before_writing(tmp_path, capsys, w0):
    # in the domain w0 > 0, but the Rayleigh range pi w0^2 leaves the float range
    out = tmp_path / "spiral"
    cfg = write_config(tmp_path, base_config("spiral", out, w0=w0, n_radial=16, n_angular=32, l_max=4))
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert f"numerical failure in ValueError: w0 = {w0!r}" in capsys.readouterr().err
    assert not out.exists()


def test_ramsey_scan_must_run_forwards(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config("ramsey", out, t_min=5.0, t_max=1.0))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "ramsey needs t_min < t_max" in capsys.readouterr().err
    assert not out.exists()


def test_monte_carlo_ramsey_requires_seed(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config("ramsey", out, method="monte-carlo"))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'ramsey'" in err and "seed is mandatory" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("angular", dict(l=-2, theta_points=12)),
        ("spiral", dict(q=-3, n_radial=32, n_angular=64)),
        ("spiral", dict(object="disk", radius=0.0, n_radial=32, n_angular=64)),
        ("doppler", dict(rotation_rates=[0.0, 0.0])),
        ("ramsey", dict(t_points=1, omega=-1.0)),
    ],
)
def test_edge_values_inside_their_domains_run(tmp_path, experiment, params):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(experiment, out, **params))
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    assert (out / "summary.json").exists()


def test_defaults_and_shipped_configs_pass_validation():
    # the benchmark's cli_suite runs configs/*.yaml; a domain that drifts
    # away from them, or from a default, fails here first
    for exp in EXPERIMENTS.values():
        assert _validate_params(exp, {}) == {p.name: p.default for p in exp.params}
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert configs
    for path in configs:
        config = load_config(path)
        _validate_params(EXPERIMENTS[config["experiment"]], config["params"])


def test_cli_import_loads_no_scipy():
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, photonlab.cli\n"
        "print(photonlab.cli.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    location, loaded = done.stdout.splitlines()
    assert Path(location).resolve().is_relative_to(Path(src))
    assert loaded == "[]"


def test_env_var_default_output(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTONLAB_OUT", str(tmp_path / "envruns"))
    cfg_doc = {
        "schema_version": 1,
        "experiment": "angular",
        "params": {"l": 1, "theta_points": 12},
    }
    cfg = write_config(tmp_path, cfg_doc)
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    assert (tmp_path / "envruns" / "angular" / "fringe.csv").exists()


def test_spiral_run_symmetry(tmp_path):
    out = tmp_path / "spiral"
    cfg = write_config(
        tmp_path,
        base_config(
            "spiral", out, object="harmonic", q=3, l_max=4, p_max=1,
            n_radial=64, n_angular=128,
        ),
    )
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["symmetry_order"] == 3


def test_doppler_run_linearity(tmp_path):
    out = tmp_path / "doppler"
    cfg = write_config(
        tmp_path,
        base_config(
            "doppler", out, l_values=[4, 8], rotation_rates=[0.3, 0.6],
            duration=150.0, sample_rate=60.0,
        ),
    )
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["r_squared"] > 0.999
    assert summary["summary"]["max_bin_error"] <= 1.0


def _beats(tmp_path, omega):
    out = tmp_path / f"doppler-{omega!r}"
    cfg = write_config(tmp_path, base_config("doppler", out, omega=omega), name=f"{omega!r}.yaml")
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    with open(out / "beats.csv", newline="") as fh:
        return np.array([float(row["beat_measured[rad/s]"]) for row in csv.DictReader(fh)])


@pytest.mark.parametrize("omega", [1e15, 1e20])
def test_doppler_beats_do_not_depend_on_the_carrier(tmp_path, omega):
    # in the lab frame omega +/- l Omega rounds towards omega, and the beat is lost
    reference = _beats(tmp_path, 1e3)
    assert np.all(reference > 0)
    assert np.allclose(_beats(tmp_path, omega), reference, rtol=1e-12, atol=0.0)


def test_memory_error_exits_numerical_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def exhausted(params, seed):
        raise MemoryError

    monkeypatch.setitem(EXPERIMENTS, "doppler", dataclasses.replace(EXPERIMENTS["doppler"], runner=exhausted))
    out = tmp_path / "doppler"
    cfg = write_config(tmp_path, base_config("doppler", out))
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert "out of memory running experiment 'doppler'" in capsys.readouterr().err
    assert not out.exists()


def test_dispersion_run_summary(tmp_path):
    out = tmp_path / "disp"
    cfg = write_config(
        tmp_path,
        base_config(
            "dispersion", out, configuration="skc",
            beta=[0.0, 0.0, 22.0, 0.0], tau_points=201,
        ),
    )
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert 0.99 <= summary["width_ratio_vs_empty"] <= 1.01
    assert summary["classical_broadening_same_beta2"] > 2.0


def test_ramsey_run(tmp_path):
    out = tmp_path / "ramsey"
    cfg = write_config(
        tmp_path,
        base_config("ramsey", out, omega=1.0, t_probe=math.pi / 4, atoms=3, trials=4),
    )
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())["summary"]
    # Delta omega = 1 / (atoms sqrt(trials) t)
    assert abs(summary["delta_omega[rad/s]"] - 1 / (3 * 2 * (math.pi / 4))) < 1e-9
