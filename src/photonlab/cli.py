"""Experiment-runner command line.

Reads one declarative YAML config per run, dispatches to the library,
and writes one CSV per result table plus a JSON summary.  Configs are
strict: unknown keys, top-level values of the wrong type (an
``experiment`` or ``out`` that is not a string, ``params`` that is not
a mapping, a ``schema_version`` that is not the integer 1), values
outside a parameter's declared domain (``photonlab list`` prints each
one), non-finite floats, and missing or negative seeds are config
errors (exit 2), found before anything is computed.  A config path
that cannot be read, an output directory that cannot be created and an
output file name taken by something other than a regular file are
config errors too; numerical failures exit 3, and so, as a last
resort, does a run that runs out of memory.
Identical (config, seed) pairs reproduce the CSV tables and the summary
byte for byte.  Outputs are staged under temporary names and renamed
only after every file has been written, so failures leave no partial
runs.

    photonlab run config.yaml [--seed N] [--out DIR] [--quiet]
    photonlab list

The default output root is $PHOTONLAB_OUT, falling back to ./runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from . import __version__, dispersion, metrology, oam_imaging
from .fock import FockError, expectation
from .sources import BiphotonSpectrum

SCHEMA_VERSION = 1
ENV_OUT = "PHOTONLAB_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


class NonFiniteResultError(ValueError):
    """A result table or summary holds a NaN or an infinity."""


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]   # headers carry units, e.g. "delta_phi[rad]"
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ResultBundle:
    experiment: str
    config: dict
    tables: tuple[Table, ...]
    summary: dict
    version: str = __version__


@dataclass(frozen=True)
class Domain:
    """Where a parameter is defined: ``text`` names it in messages and the
    catalog, ``test`` checks the value (each entry, for a list), and a
    list's length lies in ``length``.  A float must also be finite."""

    text: str = ""
    test: Callable[[object], bool] = lambda v: True
    length: tuple[int, int | None] = (1, None)


def _above(lo, **kw) -> Domain:
    return Domain(f"> {lo}", lambda v: v > lo, **kw)


def _at_least(lo, **kw) -> Domain:
    return Domain(f">= {lo}", lambda v: v >= lo, **kw)


def _one_of(choices) -> Domain:
    return Domain(f"one of {', '.join(choices)}", choices.__contains__)


_NONZERO = Domain("!= 0", lambda v: v != 0)
_PRINCIPAL = Domain("in (0, pi)", lambda v: 0.0 < v < math.pi)


@dataclass(frozen=True)
class Param:
    name: str
    default: object    # its type is the kind: int, float, str, or a list of ints or floats
    help: str = ""
    domain: Domain = Domain()

    @property
    def kind(self) -> str:
        if isinstance(self.default, list):
            return f"{type(self.default[0]).__name__}-list"
        return type(self.default).__name__

    def describe(self) -> str:
        """The declared domain in words, finiteness and list length included."""
        words = ", ".join(filter(None, ["finite" if "float" in self.kind else "", self.domain.text]))
        if isinstance(self.default, list):
            lo, hi = self.domain.length
            return f"{'' if lo == hi else '>= '}{lo} entries" + (f", each {words}" if words else "")
        return words or "any"

    def admits(self, value) -> bool:
        lo, hi = self.domain.length
        if isinstance(value, list) and not lo <= len(value) <= (hi or len(value)):
            return False
        entries = value if isinstance(value, list) else [value]
        return all((not isinstance(v, float) or math.isfinite(v)) and self.domain.test(v) for v in entries)


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    demonstrates: str
    params: tuple[Param, ...]
    runner: Callable[[dict, int | None], ResultBundle]
    stochastic: bool | tuple[str, str]  # always, never, or when (param, value) is set
    # cross-parameter rules that no kernel checks: (text, test on params)
    rules: tuple[tuple[str, Callable[[dict], bool]], ...] = ()

    def needs_seed(self, params: dict) -> bool:
        if isinstance(self.stochastic, tuple):
            return params[self.stochastic[0]] == self.stochastic[1]
        return self.stochastic

    def seed_text(self) -> str:
        if isinstance(self.stochastic, tuple):
            return "when {} is {} (seed required)".format(*self.stochastic)
        return "yes (seed required)" if self.stochastic else "no"


def _integral(value) -> int:
    """An int, or a float with an integral value; anything else raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    if isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _real(value) -> float:
    """An int or a float; anything else, a bool or a string included, raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return float(value)


_EXPONENT_FORM = re.compile(r"([+-]?)(\d*)(?:\.(\d*))?[eE]([+-]?)(\d+)")


def _string_number_hint(value) -> str:
    """Why a YAML number arrived as a string, if one of the entries did.

    PyYAML follows YAML 1.1, where a float needs a decimal point and,
    with an exponent, a signed one: ``1e3`` and ``1.0e3`` load as
    strings, ``1.0e+3`` as a float.
    """
    for entry in value if isinstance(value, list) else [value]:
        if not isinstance(entry, str):
            continue
        try:
            float(entry)
        except ValueError:
            continue
        match = _EXPONENT_FORM.fullmatch(entry.strip())
        if match is None:
            return f"; YAML read {entry!r} as a string, not a number"
        sign, whole, frac, exp_sign, exp = match.groups()
        fixed = f"{sign}{whole or '0'}.{frac or '0'}e{exp_sign or '+'}{exp}"
        return (
            f"; YAML 1.1 reads {entry!r} as a string: write {fixed}, "
            "with a decimal point and a signed exponent"
        )
    return ""


def _coerce(param: Param, value):
    try:
        if isinstance(param.default, float):
            return _real(value)
        if isinstance(param.default, list) and isinstance(value, list):
            entry = _integral if param.kind == "int-list" else _real
            return [entry(v) for v in value]
        if type(value) is type(param.default):  # an int or a str; a bool is no int
            return value
        raise TypeError
    except (TypeError, ValueError):
        hint = _string_number_hint(value) if "float" in param.kind else ""
        raise ConfigError(f"parameter {param.name!r} expects {param.kind}, got {value!r}{hint}")


def _validate_params(exp: Experiment, raw: dict) -> dict:
    """Coerce each parameter, then check every domain and every rule."""
    known = {p.name: p for p in exp.params}
    unknown = _unknown_keys(raw, known)
    if unknown:
        raise ConfigError(f"unknown parameter(s) for {exp.name}: {unknown}")
    out = {}
    for p in exp.params:
        value = _coerce(p, raw[p.name]) if p.name in raw else p.default
        if not p.admits(value):
            raise ConfigError(f"parameter {p.name!r} = {value!r} is outside its domain: {p.describe()}")
        out[p.name] = value
    for text, holds in exp.rules:
        if not holds(out):
            raise ConfigError(f"{exp.name} needs {text}")
    return out


# ---------------------------------------------------------------------------
# experiment runners


def _run_sql_scaling(params: dict, seed: int | None) -> ResultBundle:
    fit = metrology.scaling_experiment(
        "independent-photons",
        params["trial_grid"],
        params["repetitions"],
        seed,
        working_point=params["working_point"],
    )
    rows = tuple(
        (int(n), 1.0 / math.sqrt(n), d) for (n, d) in fit.points
    )
    table = Table("scaling", ("n_trials[1]", "delta_phi_analytic[rad]", "delta_phi_mc[rad]"), rows)
    summary = {
        "slope": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "expected_slope": -0.5,
    }
    return ResultBundle("sql-scaling", params, (table,), summary)


def _run_heisenberg_scaling(params: dict, seed: int | None) -> ResultBundle:
    fit = metrology.scaling_experiment(
        "noon",
        params["photon_grid"],
        params["repetitions"],
        seed,
        working_point=params["working_point"],
        shots_per_estimate=params["shots_per_estimate"],
    )
    shots = params["shots_per_estimate"]
    rows = tuple((int(n), 1.0 / n, d * math.sqrt(shots)) for (n, d) in fit.points)
    table = Table(
        "scaling",
        ("n_photons[1]", "delta_phi_analytic[rad]", "delta_phi_mc_single_shot[rad]"),
        rows,
    )
    summary = {
        "slope": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "expected_slope": -1.0,
        "shots_per_estimate": shots,
    }
    return ResultBundle("heisenberg-scaling", params, (table,), summary)


def _run_angular(params: dict, seed: int | None) -> ResultBundle:
    l = params["l"]
    proto = metrology.AngularDisplacementProtocol(l)
    thetas = np.linspace(0.0, 2.0 * math.pi, params["theta_points"], endpoint=False)
    rows = []
    max_dev = 0.0
    for theta in thetas:
        simulated = expectation(proto.state(float(theta)), proto.observable)
        analytic = proto.mean(float(theta))
        max_dev = max(max_dev, abs(simulated - analytic))
        rows.append((float(theta), analytic, simulated))
    table = Table("fringe", ("theta[rad]", "rate_analytic[1]", "rate_simulated[1]"), tuple(rows))
    rates = np.array([r[2] for r in rows])
    summary = {
        "l": l,
        "visibility": dispersion.fringe_visibility(rates),
        "max_abs_deviation": max_dev,
        "delta_theta_single_shot[rad]": proto.analytic_uncertainty(math.pi / (8 * proto.n_photons * l)),
    }
    return ResultBundle("angular", params, (table,), summary)


_OBJECTS = {
    "disk": lambda grid, p: oam_imaging.disk_object(grid, radius=p["radius"] * p["w0"]),
    "letter": lambda grid, p: oam_imaging.letter_mask_object(grid, p["w0"]),
    "harmonic": lambda grid, p: oam_imaging.angular_harmonic_object(grid, p["q"], p["w0"]),
}


def _run_spiral(params: dict, seed: int | None) -> ResultBundle:
    # the mode geometry of project_object's default wavelength, checked
    # first, so an out-of-range waist is named before any object is built
    oam_imaging.LGModeSpec(0, 0, params["w0"], 1.0)
    grid = oam_imaging.PolarGrid(params["n_radial"], params["n_angular"], 6.0 * params["w0"])
    profile = _OBJECTS[params["object"]](grid, params)
    if params["rotation"] != 0.0:
        profile = oam_imaging.rotate_object(profile, params["rotation"])
    spectrum = oam_imaging.project_object(
        profile, params["w0"], params["l_max"], params["p_max"]
    )
    rows = tuple(
        (l, p, a.real, a.imag, abs(a) ** 2)
        for (l, p), a in sorted(spectrum.coefficients.items())
    )
    table = Table("spectrum", ("l[1]", "p[1]", "re[1]", "im[1]", "power[1]"), rows)
    summary = {
        "object": params["object"],
        "symmetry_order": oam_imaging.detect_rotational_symmetry(spectrum),
        "residual": spectrum.residual,
        "captured_power": spectrum.total_power(),
    }
    return ResultBundle("spiral", params, (table,), summary)


def _run_doppler(params: dict, seed: int | None) -> ResultBundle:
    rows = []
    expected = []
    measured = []
    for l in params["l_values"]:
        for rate in params["rotation_rates"]:
            meas = oam_imaging.rotational_doppler_beat(
                l, rate, params["omega"], params["duration"], params["sample_rate"]
            )
            rows.append((l, rate, meas.beat, 2.0 * l * rate, meas.resolution))
            expected.append(2.0 * l * rate)
            measured.append(meas.beat)
    table = Table(
        "beats",
        ("l[1]", "rotation_rate[rad/s]", "beat_measured[rad/s]", "beat_expected[rad/s]", "bin[rad/s]"),
        tuple(rows),
    )
    expected_arr = np.array(expected)
    measured_arr = np.array(measured)
    ss_res = float(np.sum((measured_arr - expected_arr) ** 2))
    ss_tot = float(np.sum((expected_arr - expected_arr.mean()) ** 2))
    summary = {
        "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        "max_bin_error": float(np.max(np.abs(measured_arr - expected_arr) / np.array([r[4] for r in rows]))),
    }
    return ResultBundle("doppler", params, (table,), summary)


# each configuration's interferogram through the medium, and without it
_INTERFEROGRAMS = {
    "hom": lambda s, m, taus: (dispersion.hom_interferogram(s, taus, signal=m), dispersion.hom_interferogram(s, taus)),
    "skc": lambda s, m, taus: tuple(
        dispersion.skc_interferogram(s, medium, taus, include_fringes=False) for medium in (m, dispersion.VACUUM_PROFILE)
    ),
    "franson": lambda s, m, taus: (dispersion.franson_interferogram(s, m, taus), dispersion.correlation_envelope(s, taus)),
}


def _run_dispersion(params: dict, seed: int | None) -> ResultBundle:
    spectrum = BiphotonSpectrum.gaussian(
        params["omega0"], params["sigma"], n_bins=params["n_bins"]
    )
    taus = np.linspace(-params["tau_span"], params["tau_span"], params["tau_points"])
    medium = dispersion.DispersionProfile(tuple(params["beta"]), params["length"])
    config = params["configuration"]
    gram, empty = _INTERFEROGRAMS[config](spectrum, medium, taus)
    envelope = np.abs(gram.kernel) ** 2
    rows = tuple(
        (float(t), float(r), float(e))
        for t, r, e in zip(gram.scan, gram.rates, envelope)
    )
    table = Table("interferogram", ("tau[fs]", "rate[1]", "envelope[1]"), rows)
    beta2 = params["beta"][2] * params["length"]
    baseline = dispersion.classical_baseline(
        dispersion.PulseSpectrum.gaussian(params["sigma"]),
        dispersion.DispersionProfile((0.0, 0.0, params["beta"][2], 0.0), params["length"]),
    )
    summary = {
        "configuration": config,
        "envelope_center[fs]": dispersion.envelope_center(gram),
        "envelope_rms_width[fs]": dispersion.envelope_rms_width(gram),
        "width_ratio_vs_empty": dispersion.envelope_rms_width(gram) / dispersion.envelope_rms_width(empty),
        "classical_broadening_same_beta2": baseline.broadening,
        "beta2_L[fs^2]": beta2,
    }
    return ResultBundle("dispersion", params, (table,), summary)


def _run_ramsey(params: dict, seed: int | None) -> ResultBundle:
    times = np.linspace(params["t_min"], params["t_max"], params["t_points"])
    rows = tuple(
        (float(t), metrology.ramsey_fringe(params["omega"], float(t))) for t in times
    )
    table = Table("fringe", ("t[s]", "mean_A[1]"), rows)
    result = metrology.ramsey_frequency_estimate(
        params["omega"],
        params["t_probe"],
        atoms=params["atoms"],
        trials=params["trials"],
        seed=seed,
        method=params["method"],
    )
    summary = {
        "omega_estimate[rad/s]": result.estimate,
        "delta_omega[rad/s]": result.uncertainty,
        "resources": result.resources,
        "method": result.method,
    }
    return ResultBundle("ramsey", params, (table,), summary)


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in [
        Experiment(
            "sql-scaling",
            "Monte Carlo phase estimation with independent single photons",
            "shot-noise 1/sqrt(N) scaling of the interferometric phase uncertainty",
            (
                # the log-log fit needs four grid points, a sample spread two repetitions
                Param("trial_grid", [16, 64, 256, 1024, 4096], "trial counts per estimate", _at_least(1, length=(4, None))),
                Param("repetitions", 400, "independent estimates per grid point", _at_least(2)),
                Param("working_point", math.pi / 2, "true phase", _PRINCIPAL),
            ),
            _run_sql_scaling,
            stochastic=True,
        ),
        Experiment(
            "heisenberg-scaling",
            "Monte Carlo phase estimation with N-photon entangled probes",
            "entangled 1/N scaling and the N-fold fringe compression",
            (
                Param("photon_grid", [1, 2, 3, 4, 5], "entangled photon numbers", _at_least(1, length=(4, None))),
                Param("repetitions", 500, "independent estimates per grid point", _at_least(2)),
                Param("shots_per_estimate", 256, "readout shots per estimate", _at_least(1)),
                Param("working_point", 0.4, "true phase", _PRINCIPAL),
            ),
            _run_heisenberg_scaling,
            stochastic=True,
        ),
        Experiment(
            "angular",
            "entangled-pair angular displacement fringe through the prism interferometer",
            "super-resolved cos^2(2 l theta) coincidence fringe and 1/(2Nl) sensitivity",
            (
                Param("l", 2, "topological charge of the pair", _NONZERO),
                Param("theta_points", 101, "prism angles over one turn", _at_least(2)),
            ),
            _run_angular,
            stochastic=False,
        ),
        Experiment(
            "spiral",
            "digital spiral decomposition of a synthetic object",
            "object identification and rotational-symmetry readout from the charge spectrum",
            (
                Param("object", "harmonic", "synthetic object", _one_of(_OBJECTS)),
                Param("q", 3, "angular harmonic order (harmonic object)"),
                Param("radius", 2.0, "disk radius in waists (disk object)", _at_least(0.0)),
                Param("w0", 1.0, "probe beam waist", _above(0.0)),
                Param("l_max", 6, "charge cutoff", _at_least(0)),
                Param("p_max", 2, "radial cutoff", _at_least(0)),
                Param("rotation", 0.0, "rigid rotation applied to the object"),
                Param("n_radial", 128, "radial quadrature nodes", _at_least(2)),
                Param("n_angular", 256, "angular samples", _at_least(4)),
            ),
            _run_spiral,
            stochastic=False,
            # the mode normalization holds (p + |l|)!, and 171! overflows a float
            rules=(("l_max + p_max <= 170", lambda p: p["l_max"] + p["p_max"] <= 170),),
        ),
        Experiment(
            "doppler",
            "rotational Doppler beat of counter-wound reflected beams",
            "beat frequency 2 l Omega, linear in both charge and rotation rate",
            (
                Param("l_values", [5, 10, 20], "topological charges", _NONZERO),
                Param("rotation_rates", [0.3, 0.5, 0.8], "body rotation rates, rad/s"),
                Param("omega", 1000.0, "optical carrier, rad/s"),
                Param("duration", 200.0, "record length, s", _above(0.0)),
                Param("sample_rate", 100.0, "intensity sampling rate, Hz", _above(0.0)),
            ),
            _run_doppler,
            stochastic=False,
        ),
        Experiment(
            "dispersion",
            "biphoton coincidence interferogram through dispersive media",
            "even-order dispersion cancellation against the classically broadened baseline",
            (
                Param("configuration", "hom", "interferometer", _one_of(_INTERFEROGRAMS)),
                Param("sigma", 0.3, "marginal spectral std, rad/fs", _above(0.0)),
                Param("omega0", 2.35, "center frequency, rad/fs"),
                Param("beta", [0.0, 0.0, 22.0, 0.0], "Taylor coefficients beta_n, fs^n per unit length", Domain(length=(4, 4))),
                Param("length", 1.0, "medium length", _at_least(0.0)),
                Param("tau_span", 12.0, "delay scan half-range, fs", _above(0.0)),
                Param("tau_points", 241, "delay samples", _at_least(2)),
                # even, so the detuning grid is symmetric about zero
                Param("n_bins", 512, "detuning bins", Domain("even, >= 2", lambda v: v >= 2 and v % 2 == 0)),
            ),
            _run_dispersion,
            stochastic=False,
        ),
        Experiment(
            "ramsey",
            "atomic transition-frequency readout by pulse interrogation",
            "the interferometric fringe cos(omega t) and 1/(N t) frequency uncertainty",
            (
                Param("omega", 1.0, "transition frequency, rad/s"),
                Param("t_min", 0.1, "fringe scan start, s", _above(0.0)),
                Param("t_max", 6.0, "fringe scan end, s", _above(0.0)),
                Param("t_points", 60, "fringe samples", _at_least(1)),
                Param("t_probe", math.pi / 3, "interrogation time for the estimate, s", _above(0.0)),
                Param("atoms", 1, "entangled atoms per probe", _at_least(1)),
                Param("trials", 1000, "ensemble repetitions", _at_least(1)),
                Param("method", "analytic", "uncertainty estimate", _one_of(("analytic", "monte-carlo"))),
            ),
            _run_ramsey,
            stochastic=("method", "monte-carlo"),
            rules=(("t_min < t_max", lambda p: p["t_min"] < p["t_max"]),),
        ),
    ]
}


# ---------------------------------------------------------------------------
# config handling and output


def _unknown_keys(raw: dict, known) -> str:
    """The keys of ``raw`` not in ``known``, sorted as text; YAML keys may
    be numbers, bools, dates or null as well as strings."""
    return ", ".join(sorted(str(k) for k in raw if k not in known))


def _is_path_text(value) -> bool:
    """Whether ``value`` is a string the file system takes as a path."""
    if not isinstance(value, str) or "\0" in value:
        return False
    try:
        os.fsencode(value)
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


def load_config(path: Path) -> dict:
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = _unknown_keys(raw, {"schema_version", "experiment", "seed", "out", "params"})
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {unknown}")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be the integer {SCHEMA_VERSION}, got {version!r}")
    name = raw.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; choices: {', '.join(sorted(EXPERIMENTS))}"
        )
    params = raw.get("params")
    if params is None:  # absent, or a bare "params:" line
        params = {}
    elif not isinstance(params, dict):
        raise ConfigError("params must be a mapping")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ConfigError("seed must be a nonnegative integer")
    out = raw.get("out")
    if out is not None and not _is_path_text(out):
        raise ConfigError(f"out must be a path string, got {out!r}")
    return {"experiment": name, "seed": seed, "out": out, "params": params}


def _format_cell(value) -> str:
    if isinstance(value, float):
        # float() first: under numpy 2 a numpy float's repr is "np.float64(...)"
        return repr(float(value))
    return str(value)


def _render_csv(table: Table) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue().encode()


def _render_summary(bundle: ResultBundle, seed: int | None) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "experiment": bundle.experiment,
        "params": bundle.config,
        "seed": seed,
        "summary": bundle.summary,
        "tables": [t.name for t in bundle.tables],
        "version": bundle.version,
    }
    return (json.dumps(doc, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n").encode()


def _nonfinite(value) -> bool:
    return isinstance(value, (float, np.floating)) and not math.isfinite(value)


def _require_complete(bundle: ResultBundle) -> None:
    for table in bundle.tables:
        if not table.rows:
            raise ValueError(f"table {table.name!r} has no rows")
        for row in table.rows:
            for column, value in zip(table.columns, row):
                if _nonfinite(value):
                    raise NonFiniteResultError(
                        f"table {table.name!r}, column {column!r} holds {value!r}"
                    )
    for key, value in bundle.summary.items():
        if _nonfinite(value):
            raise NonFiniteResultError(f"summary key {key!r} holds {value!r}")


def write_bundle(bundle: ResultBundle, out_dir: Path, seed: int | None) -> list[Path]:
    """Two-phase write: render everything, stage it, then rename into place.

    Refuses, before anything is written, a bundle with an empty table or
    with a non-finite number in a table cell or anywhere in the summary,
    and (a ``ConfigError``) an ``out_dir`` that cannot be created or a
    target that exists but is not a regular file, which no rename could
    replace.
    """
    _require_complete(bundle)
    payload: dict[str, bytes] = {f"{t.name}.csv": _render_csv(t) for t in bundle.tables}
    payload["summary.json"] = _render_summary(bundle, seed)
    for fname in payload:
        target = out_dir / fname
        if target.exists() and not target.is_file():
            raise ConfigError(f"output target {target} exists and is not a regular file")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}")
    staged: list[tuple[Path, Path]] = []
    try:
        for fname, blob in payload.items():
            tmp = out_dir / f".tmp-{os.getpid()}-{fname}"
            tmp.write_bytes(blob)
            staged.append((tmp, out_dir / fname))
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    return [final for _, final in staged]


def _resolve_seed(config: dict, seed_override: int | None = None) -> int | None:
    """The seed a run uses: ``seed_override`` when given, else the
    config's; a negative override is refused as a negative config seed is."""
    seed = seed_override if seed_override is not None else config["seed"]
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def run_experiment(config: dict, seed_override: int | None = None, out_override: str | None = None) -> tuple[ResultBundle, Path]:
    exp = EXPERIMENTS[config["experiment"]]
    seed = _resolve_seed(config, seed_override)
    params = _validate_params(exp, config["params"])
    if seed is None and exp.needs_seed(params):
        raise ConfigError(f"experiment {exp.name!r} draws random numbers here; a seed is mandatory")
    bundle = exp.runner(params, seed)
    out_root = out_override or config["out"] or os.environ.get(ENV_OUT, "runs")
    out_dir = Path(out_root)
    if out_override is None and config["out"] is None:
        out_dir = out_dir / exp.name
    return bundle, out_dir


def list_experiments() -> str:
    lines = []
    for name in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[name]
        lines.append(f"{name}")
        lines.append(f"  {exp.description}")
        lines.append(f"  demonstrates: {exp.demonstrates}")
        lines.append(f"  stochastic: {exp.seed_text()}")
        for text, _ in exp.rules:
            lines.append(f"  requires: {text}")
        for p in exp.params:
            lines.append(f"    {p.name} ({p.kind}, default {p.default!r}; {p.describe()}): {p.help}")
        lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="photonlab", description="quantum-optics experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", type=str, default=None, help="override the output directory")
    run_p.add_argument("--quiet", action="store_true")
    sub.add_parser("list", help="print the experiment catalog")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments())
        return EXIT_OK

    config = None
    try:
        config = load_config(args.config)
        bundle, out_dir = run_experiment(config, args.seed, args.out)
        paths = write_bundle(bundle, out_dir, _resolve_seed(config, args.seed))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FockError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure in {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        # last resort: no size parameter is bounded from above yet
        what = f"experiment {config['experiment']!r}" if config else f"config {str(args.config)!r}"
        print(f"out of memory running {what}; reduce its size parameters", file=sys.stderr)
        return EXIT_NUMERICAL
    if not args.quiet:
        for key, value in sorted(bundle.summary.items()):
            print(f"{key}: {value}")
        for p in paths:
            print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
