import csv
import dataclasses
import errno
import hashlib
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
        ({"out": ""}, "out is empty"),
        ({"schema_version": True}, "schema_version must be the integer 1, got True"),
        ({"schema_version": 1.0}, "schema_version must be the integer 1, got 1.0"),
    ],
    ids=[
        "experiment-list", "experiment-mapping", "int-key", "int-param-key", "params-false",
        "out-int", "out-list", "out-bool", "out-nul", "out-surrogate", "out-empty", "schema-bool", "schema-float",
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


def test_empty_out_option_exits_2_before_any_compute(tmp_path, capsys, monkeypatch):
    # the config spelling, out: "", is a case of the test above
    monkeypatch.setitem(EXPERIMENTS, "ramsey", dataclasses.replace(EXPERIMENTS["ramsey"], runner=_never_run))
    monkeypatch.setenv("PHOTONLAB_OUT", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"schema_version": 1, "experiment": "ramsey"})
    assert main(["run", str(cfg), "--out", ""]) == EXIT_CONFIG
    assert "--out is empty" in capsys.readouterr().err
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


# sha256 of every file a run writes, recorded under numpy 2.4.6 (Python
# 3.11): the shipped configs at their own seed and at seeds 3 and 5, and
# the runs of ``_UNSHIPPED_RUNS``, of which ramsey, doppler and both
# dispersion runs also at seeds 3 and 5.  A change that moves these bytes on
# purpose records new digests here and says why in CHANGES.md.
_GOLDEN_DIGESTS = {
    "angular": {
        "fringe.csv": "a3f48741cdd40b264b309fabfff0c47a39ed19304e67d051dc5aa7febdff656e",
        "summary.json": "0eb62faba390f9faeab4f9502b9d5fc2dcfb46ab0f72b774c9bc26b4b7ab2573",
    },
    "dispersion-skc": {
        "interferogram.csv": "12434989bae463b06fabc566c65845932c614c117890f13be8258f34a9febff6",
        "summary.json": "3ce2bb2d338af5d4ca2894428085091a9ae960ea45c4ba9578a41c538c7ac3c3",
    },
    "heisenberg-scaling": {
        "scaling.csv": "3aa35374eb9eaf97d2d25627a0a86fcfe1a448c6ca1169b32a61d81cb17b277b",
        "summary.json": "afc41386527797d0542f5fc42219ddcf5bce9e77e6bc77dc804414d653575431",
    },
    "spiral": {
        "spectrum.csv": "b48d6e218059f7e93fea7b884c170417747de23af340500abc71343d4b1e35cc",
        "summary.json": "f90c374f5e81f43fb66c572e169ea178bac9536f3d10cb627d95412aa77554e4",
    },
    "sql-scaling": {
        "scaling.csv": "6c82f2cbea51e731b19190d476e668732a0d2f2cc2b4b4f9a945ed8bcf2b35e5",
        "summary.json": "f66a9cfc544be8e3b91a357618210444569e45fc6bf0e412259ab101462eb7c4",
    },
    "ramsey": {
        "fringe.csv": "b4460c64a351b438383a00d0baa4a9615156e9e57cf4a25215b2cb925fffb25e",
        "summary.json": "f70f312b982f1813b4caa3a0d3562fb6abc2d424be55d166649271b9b1c2c0c8",
    },
    "doppler": {
        "beats.csv": "c2fdd820134221edc19f33dd03dc47acdc42a80733cbd0cef7bd010476694e65",
        "summary.json": "d6675722fa81da4feaab8428ea5eb1db252c31fd3cb06f0ef427d0abffd661fb",
    },
    "dispersion-hom": {
        "interferogram.csv": "78cfbb4a16c43b87aad1a23ea181a07ebe3416711a0564d20ac2d6b0ceaf4952",
        "summary.json": "29b140c5c77075e3045ceb2135e10456bf29e113ba89db67705da72d001b62fb",
    },
    "dispersion-franson": {
        "interferogram.csv": "312fd3e07101297f7145ee438d4e8ca78de0e34b8a7cdb0474f3a57ac0df2ab3",
        "summary.json": "118e80dc38ccd418fea71ceb9f65db84360cac431c8cd4c4bc636ac5cedd3661",
    },
    "angular-l1": {
        "fringe.csv": "32009796b02d5d17cecdd01ba171a11c48f3238e666fe6e562550ee27ff98da6",
        "summary.json": "6798b27c6d2302fba16d73bc509abc3ce3d3eae1514c3957c79d95d1a023dc3e",
    },
    "angular-l3": {
        "fringe.csv": "903d4e8dd463adf17945644a7990321649020662242ceb80061e4d6ef029066a",
        "summary.json": "86dcb1d8f8ef23e766a337c4ba494544efd01d4976dbdc72451ba179ca9eca14",
    },
    "spiral-fk": {
        "spectrum.csv": "1fcf3809dcbbc670273e36db3b6c1987da8f1e4a756677ef79a060aeb49ef573",
        "summary.json": "4b110449acd1f67e664743eb788549cfe41e9ad47f6f525a06ef11610d00e47e",
    },
    "ramsey@seed3": {
        "fringe.csv": "b4460c64a351b438383a00d0baa4a9615156e9e57cf4a25215b2cb925fffb25e",
        "summary.json": "65a8f49b7266a66dbd2d0fbcd0b410375ccdab1238f863791050fb6ec7a0487d",
    },
    "ramsey@seed5": {
        "fringe.csv": "b4460c64a351b438383a00d0baa4a9615156e9e57cf4a25215b2cb925fffb25e",
        "summary.json": "9b07fa8b7395508c9ce2041eeb97ca98180aab6d441f339d8d00299005785955",
    },
    "doppler@seed3": {
        "beats.csv": "c2fdd820134221edc19f33dd03dc47acdc42a80733cbd0cef7bd010476694e65",
        "summary.json": "d473626ba4f488639a4ed644f05dfac25251699d8c26800b3814ab0344b1347e",
    },
    "doppler@seed5": {
        "beats.csv": "c2fdd820134221edc19f33dd03dc47acdc42a80733cbd0cef7bd010476694e65",
        "summary.json": "ecc2de9b7d5ba347046c0d2fdf743ada8a4d97bd55afedbbaeb27b21b9ad2b69",
    },
    "dispersion-hom@seed3": {
        "interferogram.csv": "78cfbb4a16c43b87aad1a23ea181a07ebe3416711a0564d20ac2d6b0ceaf4952",
        "summary.json": "7d682795fe7e52a32ac572d5da3f9930eae510938346c09af7ecbd0e2cdb0cbf",
    },
    "dispersion-hom@seed5": {
        "interferogram.csv": "78cfbb4a16c43b87aad1a23ea181a07ebe3416711a0564d20ac2d6b0ceaf4952",
        "summary.json": "a792e08daf0b5403c2871dd9278af386820751061163066cca3586a05d7a9275",
    },
    "dispersion-franson@seed3": {
        "interferogram.csv": "312fd3e07101297f7145ee438d4e8ca78de0e34b8a7cdb0474f3a57ac0df2ab3",
        "summary.json": "e219bcb67abca1b55a18c97c263b1f408a20b90daa8a2ad19e7f3166057494f7",
    },
    "dispersion-franson@seed5": {
        "interferogram.csv": "312fd3e07101297f7145ee438d4e8ca78de0e34b8a7cdb0474f3a57ac0df2ab3",
        "summary.json": "a46c0c363c5b963887ef84017e9b9c7179ad2f940bbed6d5c9084d7275ca49b2",
    },
    "angular@seed3": {
        "fringe.csv": "a3f48741cdd40b264b309fabfff0c47a39ed19304e67d051dc5aa7febdff656e",
        "summary.json": "a54006c9560fbb926862f1ad7e8ac7e97e4887af84e85385668c6ad9bbf4b764",
    },
    "angular@seed5": {
        "fringe.csv": "a3f48741cdd40b264b309fabfff0c47a39ed19304e67d051dc5aa7febdff656e",
        "summary.json": "be34454d8cfc6621fafb289628de4d8d4f7b3155d1a44bae4049e14c7a5c02ef",
    },
    "dispersion-skc@seed3": {
        "interferogram.csv": "12434989bae463b06fabc566c65845932c614c117890f13be8258f34a9febff6",
        "summary.json": "455489a0a519843ef7e5e5da48ade69d553ced24cff6fe8e3ced972245ebb617",
    },
    "dispersion-skc@seed5": {
        "interferogram.csv": "12434989bae463b06fabc566c65845932c614c117890f13be8258f34a9febff6",
        "summary.json": "0160a4cf13b4a0f03af333bef190b3e770f17f44472153c596ad74083dee0056",
    },
    "heisenberg-scaling@seed3": {
        "scaling.csv": "86ea5cc468b0975eea39a5de3bafdcb75c797f0ee307b9a9a19e3153666ad7a0",
        "summary.json": "44ec807e7c985f16844b16e9b5630a34309dd320c4635e75e4ad5695aeca93d7",
    },
    "heisenberg-scaling@seed5": {
        "scaling.csv": "8adbfa738ce3995aadc7645f3ea0e44b2badc876284b0eacf356ff4e4e9a4adf",
        "summary.json": "57bf49fb18c2e41ff14b35579c6e64e7d25ac017186e8e166edbb68712864002",
    },
    "spiral@seed3": {
        "spectrum.csv": "b48d6e218059f7e93fea7b884c170417747de23af340500abc71343d4b1e35cc",
        "summary.json": "2960ea230ac4ead5a4694efad23f6f0309e165efd029fcf7ff58f241cac068af",
    },
    "spiral@seed5": {
        "spectrum.csv": "b48d6e218059f7e93fea7b884c170417747de23af340500abc71343d4b1e35cc",
        "summary.json": "2c03bf627f82e568124d31e9dad3d3e8c1eaf7336f5326bbc665d0f1e91284d6",
    },
    "sql-scaling@seed3": {
        "scaling.csv": "ba3577f3fea902214008b57f2332eb5e7501bd8608cb10208e21a1d89468238a",
        "summary.json": "4b39d4505f9f73cb29bbecd423c797799b5242eacaf3c6e38c4a67909e363b92",
    },
    "sql-scaling@seed5": {
        "scaling.csv": "b41b03ab4b79b6797495ba3d12d68135cdef27a00f9593579856e7204c3f1b93",
        "summary.json": "971eaf221558b59f87b26d09bbe35e1173fa6359ac32adf0961200dff4a07fea",
    },
}


# the runs that are not a shipped config at its own seed: an experiment
# and its params; a name ending in @seedN is that run with --seed N
_UNSHIPPED_RUNS = {
    "ramsey": ("ramsey", {}),
    "doppler": ("doppler", {}),
    "dispersion-hom": ("dispersion", {"configuration": "hom"}),
    "dispersion-franson": ("dispersion", {"configuration": "franson"}),
    # both grids land on the fringe zeros, where the last splitter prunes
    "angular-l1": ("angular", {"l": 1, "theta_points": 64}),
    "angular-l3": ("angular", {"l": 3, "theta_points": 48}),
    # the projection size of the field_kernels benchmark: five recurrence
    # steps past L_1 at every charge up to 20
    "spiral-fk": ("spiral", {"object": "letter", "l_max": 20, "p_max": 5, "w0": 0.8, "rotation": 0.3}),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
def test_runs_write_the_recorded_bytes(tmp_path, name):
    run, _, seed = name.partition("@seed")
    if run in _UNSHIPPED_RUNS:
        experiment, params = _UNSHIPPED_RUNS[run]
        cfg = write_config(tmp_path, {"schema_version": 1, "experiment": experiment, "params": params})
    else:
        cfg = Path(__file__).resolve().parents[1] / "configs" / f"{run}.yaml"
    out = tmp_path / "out"
    seeded = ["--seed", seed] if seed else []
    assert main(["run", str(cfg), "--quiet", "--out", str(out), *seeded]) == EXIT_OK
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == _GOLDEN_DIGESTS[name]


def test_scaling_runs_write_the_recorded_bytes_on_the_avx2_blas_kernel(tmp_path):
    # OpenBLAS's Haswell (AVX2) kernel, set for the child process only,
    # stands for a host without AVX-512: the Monte Carlo path and the
    # log-log fit must not reach LAPACK, whose bits follow the kernel
    names = [f"{run}{seed}" for run in ("sql-scaling", "heisenberg-scaling") for seed in ("", "@seed3", "@seed5")]
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    configs = Path(__file__).resolve().parents[1] / "configs"
    code = (
        "import hashlib, json, sys\n"
        "from pathlib import Path\n"
        "from photonlab.cli import main\n"
        "configs, root, written = Path(sys.argv[1]), Path(sys.argv[2]), {}\n"
        "for name in sys.argv[3:]:\n"
        "    run, _, seed = name.partition('@seed')\n"
        "    args = ['run', str(configs / f'{run}.yaml'), '--quiet', '--out', str(root / name)]\n"
        "    assert main(args + (['--seed', seed] if seed else [])) == 0\n"
        "    written[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (root / name).iterdir()}\n"
        "print(json.dumps(written))"
    )
    argv = [sys.executable, "-c", code, str(configs), str(tmp_path), *names]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {name: _GOLDEN_DIGESTS[name] for name in names}


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_width_past_float_range_fails_before_any_interferogram(tmp_path, capsys, monkeypatch):
    # sigma**2 underflows to 0, so the Gaussian envelope would be 0/0: the
    # width is refused before its grid is built, with no warning printed
    def computed(*args, **kwargs):
        raise AssertionError("computed an interferogram on a degenerate spectrum")

    for kernel in ("hom_interferogram", "skc_interferogram", "franson_interferogram"):
        monkeypatch.setattr(photonlab.dispersion, kernel, computed)
    out = tmp_path / "disp"
    cfg = write_config(tmp_path, base_config("dispersion", out, sigma=1.0e-200))
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "a spectrum of width 1e-200 (sigma) is outside the range float64 can hold" in err
    assert "rate[1]" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sigma, named", [(1.0e-160, "(detuning span)"), (1.0e200, "(sigma)")])
def test_pulse_width_past_float_range_fails_before_any_interferogram(tmp_path, capsys, monkeypatch, sigma, named):
    # 1e-160: the pair spectrum holds, but the classical pulse's conjugate
    # times overflow when squared; 1e200: sigma ** 2 overflows
    def computed(*args, **kwargs):
        raise AssertionError("computed an interferogram on a spectrum float64 cannot hold")

    for kernel in ("hom_interferogram", "skc_interferogram", "franson_interferogram"):
        monkeypatch.setattr(photonlab.dispersion, kernel, computed)
    out = tmp_path / "disp"
    cfg = write_config(tmp_path, base_config("dispersion", out, sigma=sigma))
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"{named} is outside the range float64 can hold" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "params",
    [
        dict(configuration="hom", beta=[0.0, 0.0, 22.0, 0.0], length=1.0e308),
        dict(configuration="skc", beta=[1.0e308, 0.0, 0.0, 0.0], length=10.0),
        dict(configuration="franson", beta=[0.0, 0.0, 1.0e308, 0.0], length=10.0),
        # each arm's phase is finite, but their difference is not
        dict(configuration="franson", beta=[0.0, 8.0e307, 0.0, 0.0], length=1.0),
    ],
    ids=["hom", "skc", "franson", "franson-joint"],
)
def test_medium_phase_past_float_range_fails_before_any_fourier_sum(tmp_path, capsys, monkeypatch, params):
    def computed(*args, **kwargs):
        raise AssertionError("summed an interferogram through a medium float64 cannot hold")

    monkeypatch.setattr(photonlab.dispersion, "_fourier_sum", computed)
    out = tmp_path / "disp"
    cfg = write_config(tmp_path, base_config("dispersion", out, **params))
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"medium with beta {tuple(params['beta'])} and length {params['length']!r}" in err
    assert "outside the range float64 can hold" in err
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


def test_spiral_run_loads_no_numpy_ma(tmp_path):
    # np.unique without a return flag imports numpy.ma, about half of a
    # first spiral run
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, base_config("spiral", tmp_path / "out", n_radial=32, n_angular=64))
    code = (
        "import sys\n"
        "from photonlab.cli import main\n"
        f"assert main(['run', {str(cfg)!r}, '--quiet']) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize(
    "experiment, params, absent",
    [
        ("ramsey", {}, {"dispersion", "oam_imaging"}),
        ("spiral", dict(n_radial=32, n_angular=64), {"metrology", "elements", "dispersion"}),
        ("dispersion", {}, {"oam_imaging", "metrology", "elements"}),
    ],
)
def test_a_run_loads_only_the_modules_it_uses(tmp_path, experiment, params, absent):
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, base_config(experiment, tmp_path / "out", **params))
    code = (
        "import sys\n"
        "from photonlab.cli import main\n"
        f"assert main(['run', {str(cfg)!r}, '--quiet']) == 0\n"
        "print(' '.join(m.split('.')[1] for m in sys.modules if m.startswith('photonlab.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert {"cli", "fock"} <= loaded and not loaded & absent


def _failing_on_call(real, n, exc):
    """``real``, except that its ``n``-th call raises ``exc``."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise exc
        return real(*args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "phase, owner, name, exc",
    [
        ("stage", Path, "write_bytes", OSError(errno.ENOSPC, "No space left on device")),
        ("rename", os, "replace", PermissionError(errno.EACCES, "Permission denied")),
    ],
)
def test_a_failed_write_exits_2_naming_its_target_and_leaves_no_file(tmp_path, monkeypatch, capsys, phase, owner, name, exc):
    # the second file, summary.json, fails after fringe.csv is staged,
    # or renamed into place
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config("ramsey", tmp_path / "unused"))
    monkeypatch.setattr(owner, name, _failing_on_call(getattr(owner, name), 2, exc))
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert f"cannot write output file {out / 'summary.json'}: {exc.strerror}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_failed_write_over_an_earlier_bundle_leaves_that_bundle_whole(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config("ramsey", out))
    assert main(["run", str(cfg), "--quiet"]) == EXIT_OK
    earlier = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(earlier) == {"fringe.csv", "summary.json"}
    real = os.replace

    def failing(src, dst):
        # the new summary.json fails to land, after the new fringe.csv did
        if Path(src).name.startswith(".tmp-") and Path(dst).name == "summary.json":
            raise PermissionError(errno.EACCES, "Permission denied")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    assert main(["run", str(cfg), "--seed", "4", "--quiet"]) == EXIT_CONFIG
    assert f"cannot write output file {out / 'summary.json'}: Permission denied" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier


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
