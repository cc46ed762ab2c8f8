"""Configs drawn from the declared parameter domains, and from just
outside them, end in exit 0, 2 or 3 and never leave a broken run.

Exit 0 means every CSV cell is a finite number and summary.json is
strict JSON; exit 2 or 3 means no output directory was created.  Any
YAML value in a top-level key ends in exit 0 or 2, never a traceback.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photonlab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXPERIMENTS, main

# draw ranges kept small so that one run takes milliseconds; each one
# straddles the lower edge of its parameter's domain
INT_RANGES = {
    "trial_grid": (-1, 64), "photon_grid": (-1, 5), "repetitions": (-1, 12),
    "shots_per_estimate": (-1, 16), "l": (-3, 3), "theta_points": (-1, 16),
    "q": (-4, 4), "l_max": (-1, 4), "p_max": (-1, 2), "n_radial": (-1, 16),
    "n_angular": (-1, 24), "l_values": (-3, 3), "tau_points": (-1, 48),
    "n_bins": (-1, 64), "t_points": (-1, 12), "atoms": (-1, 4), "trials": (-1, 40),
}
FLOAT_RANGES = {
    "working_point": (-0.5, 3.5), "radius": (-1.0, 3.0), "w0": (-0.5, 2.0),
    "rotation": (-4.0, 4.0), "rotation_rates": (-1.0, 1.0), "omega": (-3.0, 3.0),
    "duration": (-1.0, 30.0), "sample_rate": (-1.0, 30.0), "sigma": (-0.5, 1.0),
    "omega0": (-3.0, 3.0), "beta": (-30.0, 30.0), "length": (-1.0, 2.0),
    "tau_span": (-1.0, 20.0), "t_min": (-1.0, 6.0), "t_max": (-1.0, 6.0),
    "t_probe": (-1.0, 3.0),
}
NAMES = ["disk", "letter", "harmonic", "hom", "skc", "franson", "analytic", "monte-carlo"]


def entries(p):
    sample = p.default[0] if isinstance(p.default, list) else p.default
    if isinstance(sample, str):
        return st.sampled_from([c for c in NAMES if p.domain.test(c)] + ["unknown"])
    if isinstance(sample, int):
        return st.integers(*INT_RANGES[p.name])
    return st.floats(*FLOAT_RANGES[p.name]) | st.sampled_from([math.nan, math.inf, -math.inf])


def value(p):
    if isinstance(p.default, list):
        return st.lists(entries(p), max_size=6)
    return entries(p)


def strict(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_drawn_configs_end_in_a_known_exit(data):
    exp = EXPERIMENTS[data.draw(st.sampled_from(sorted(EXPERIMENTS)), label="experiment")]
    params = {}
    for p in exp.params:
        how = data.draw(st.sampled_from(["default", "inside", "inside", "anywhere"]), label=p.name)
        if how != "default":
            params[p.name] = data.draw(value(p).filter(p.admits) if how == "inside" else value(p))
    seed = data.draw(st.none() | st.integers(0, 2 ** 31), label="seed")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        doc = {"schema_version": 1, "experiment": exp.name, "seed": seed, "out": str(out), "params": params}
        cfg = Path(tmp) / "config.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(cfg), "--quiet"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        if code != EXIT_OK:
            assert not out.exists()
            return
        tables = sorted(out.glob("*.csv"))
        assert tables
        for path in tables:
            with open(path, newline="") as fh:
                _, *rows = csv.reader(fh)
            assert rows
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        strict((out / "summary.json").read_text())


# every YAML scalar type PyYAML's safe loader builds, and its collections;
# strings stay relative names of a few characters (no "/" or "."), so an
# accepted ``out`` lands inside the run's directory, with a NUL and a
# lone surrogate among them
YAML_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.dates() | st.binary(max_size=3)
    | st.text(alphabet="ab1_- \0\ud800", max_size=4)
)
YAML_VALUES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(YAML_SCALARS, inner, max_size=3)
    | st.sets(st.integers() | st.text(alphabet="ab", max_size=2), max_size=3),
    max_leaves=6,
)
TOP_LEVEL = {
    "schema_version": st.just(1),
    "experiment": st.sampled_from(sorted(EXPERIMENTS)),
    "seed": st.none() | st.integers(0, 2 ** 31),
    "out": st.text(alphabet="ab1_-", max_size=4),
}


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_any_yaml_value_at_the_top_level_ends_in_exit_0_or_2(data):
    doc = {}
    for key, valid in TOP_LEVEL.items():
        how = data.draw(st.sampled_from(["absent", "valid", "valid", "any"]), label=key)
        if how != "absent":
            doc[key] = data.draw(valid if how == "valid" else YAML_VALUES, label=key)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        cfg = Path(tmp) / "config.yaml"
        cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
        with mock.patch.dict(os.environ, {"PHOTONLAB_OUT": str(Path(tmp) / "runs")}):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["run", str(cfg), "--quiet"])
        assert code in (EXIT_OK, EXIT_CONFIG)
        written = sorted(p.name for p in Path(tmp).iterdir())
        if code == EXIT_CONFIG:
            assert written == ["config.yaml"]
        else:
            assert len(written) == 2
