"""Each parameter domain is declared once, in ``photonlab.domains``: the
CLI's catalog and checks read the declaration, and so do the library
functions the CLI reaches, which refuse the same values."""

import hashlib
import math
import re

import numpy as np
import pytest

from photonlab.cli import EXPERIMENTS, ConfigError, _validate_params, list_experiments
from photonlab.dispersion import DispersionProfile, PulseSpectrum
from photonlab.domains import DOMAINS, require
from photonlab.fock import FockSpace, path
from photonlab.metrology import (
    AngularDisplacementProtocol,
    NoonPhaseProtocol,
    SinglePhotonPhaseProtocol,
    observable_B,
    ramsey_fringe,
    ramsey_frequency_estimate,
    scaling_experiment,
)
from photonlab.oam_imaging import LGModeSpec, PolarGrid, disk_object, project_object, rotational_doppler_beat
from photonlab.sources import BiphotonSpectrum, noon_state

# the choice sets that select a CLI runner's object or interferometer
LOCAL = {"object", "configuration"}


def test_catalog_bytes_are_unchanged():
    digest = hashlib.sha256(list_experiments().encode()).hexdigest()
    assert digest == "09d8466dc3a65f51e2a07388cee65983a637440871d8353d4e5ca2ffa8a479ee"


def test_each_cli_parameter_reads_its_declaration():
    for exp in EXPERIMENTS.values():
        for p in exp.params:
            if p.name in LOCAL:
                assert p.name not in DOMAINS
            else:
                assert p.domain is DOMAINS[p.name], (exp.name, p.name)


def _obj():
    return disk_object(PolarGrid(16, 32, 6.0), 2.0)


# name: (experiment, value just inside, value just outside, the library
# call the CLI parameter reaches)
EDGES = {
    "repetitions": ("sql-scaling", 2, 1, lambda v: scaling_experiment("independent-photons", [16, 64, 256, 1024], v, seed=1)),
    "shots_per_estimate": ("heisenberg-scaling", 1, 0, lambda v: scaling_experiment("noon", [1, 2, 3, 4], 200, seed=1, shots_per_estimate=v)),
    "l": ("angular", 1, 0, AngularDisplacementProtocol),
    "l_values": ("doppler", [1], [0], lambda v: rotational_doppler_beat(v[0], 0.5, 1000.0, 200.0, 100.0)),
    "duration": ("doppler", 0.02, 0.0, lambda v: rotational_doppler_beat(5, 0.0, 1000.0, v, 100.0)),
    "sample_rate": ("doppler", 0.01, 0.0, lambda v: rotational_doppler_beat(5, 0.0, 1000.0, 200.0, v)),
    "w0": ("spiral", 1e-3, 0.0, lambda v: LGModeSpec(0, 0, v, 1.0)),
    "l_max": ("spiral", 0, -1, lambda v: project_object(_obj(), 1.0, v, 0)),
    "p_max": ("spiral", 0, -1, lambda v: project_object(_obj(), 1.0, 0, v)),
    "n_radial": ("spiral", 2, 1, lambda v: PolarGrid(v, 32, 6.0)),
    "n_angular": ("spiral", 4, 3, lambda v: PolarGrid(16, v, 6.0)),
    "sigma": ("dispersion", 1e-3, 0.0, lambda v: (BiphotonSpectrum.gaussian(2.35, v, n_bins=16), PulseSpectrum.gaussian(v))),
    "n_bins": ("dispersion", 2, 0, lambda v: BiphotonSpectrum.gaussian(2.35, 0.3, n_bins=v)),
    "beta": ("dispersion", [0.0] * 4, [0.0] * 3, lambda v: DispersionProfile(tuple(v), 1.0)),
    "length": ("dispersion", 0.0, -5e-324, lambda v: DispersionProfile((0.0, 0.0, 22.0, 0.0), v)),
    "t_min": ("ramsey", 1e-3, 0.0, lambda v: ramsey_fringe(1.0, v)),
    "t_probe": ("ramsey", 1e-3, 0.0, lambda v: ramsey_frequency_estimate(1.0, v)),
    "atoms": ("ramsey", 1, 0, lambda v: ramsey_frequency_estimate(1.0, 1.0, atoms=v)),
    "trials": ("ramsey", 1, 0, lambda v: SinglePhotonPhaseProtocol().analytic_uncertainty(1.0, trials=v)),
    "method": ("ramsey", "analytic", "guess", lambda v: ramsey_frequency_estimate(1.0, 1.0, method=v)),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_library_and_cli_refuse_the_same_edge_values(name):
    experiment, inside, outside, call = EDGES[name]
    exp = EXPERIMENTS[experiment]
    _validate_params(exp, {name: inside})
    call(inside)
    with pytest.raises(ConfigError, match=f"parameter {name!r} = .* is outside its domain"):
        _validate_params(exp, {name: outside})
    with pytest.raises(ValueError, match=" is outside its domain: "):
        call(outside)


@pytest.mark.parametrize("beta", [np.zeros(3), np.zeros(5), [0.0] * 3, (0.0, 0.0, 0.0, math.nan)])
def test_a_medium_takes_four_finite_coefficients_in_any_sequence(beta):
    with pytest.raises(ValueError, match="beta = .* is outside its domain: 4 entries, each finite"):
        DispersionProfile(beta, 1.0)


def test_the_spiral_rule_and_the_library_read_one_mode_order_bound():
    exp = EXPERIMENTS["spiral"]
    _validate_params(exp, {"l_max": 0, "p_max": 170})
    project_object(_obj(), 1.0, 0, 170)
    with pytest.raises(ConfigError, match=r"spiral needs l_max \+ p_max <= 170"):
        _validate_params(exp, {"l_max": 0, "p_max": 171})
    with pytest.raises(ValueError, match=r"l_max \+ p_max = 171 is outside its domain: <= 170"):
        project_object(_obj(), 1.0, 0, 171)


VALUES = [0, 1, -1, 2, 3, 4, 171, 0.0, -0.0, 1e-300, 0.5, 3.5, math.nan, math.inf, -math.inf, [1, 2, 3, 4], [0.0] * 4, [0]]


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_require_admits_exactly_what_the_declaration_admits(name):
    domain = DOMAINS[name]
    for value in VALUES:
        if domain.admits(value):
            require(name, value)
        else:
            with pytest.raises(ValueError, match=f"{re.escape(name)} = .* is outside its domain: "):
                require(name, value)


def test_every_photon_number_reads_one_declaration():
    space = FockSpace([path(0), path(1)], n_max=2)
    for call in (
        lambda n: noon_state(space, path(0), path(1), n),
        lambda n: observable_B(space, path(0), path(1), n),
        NoonPhaseProtocol,
        lambda n: AngularDisplacementProtocol(1, n_photons=n),
    ):
        call(1)
        with pytest.raises(ValueError, match=r"n_photons = 0 is outside its domain: >= 1"):
            call(0)


@pytest.mark.parametrize("value", [np.float32(math.nan), np.float32(math.inf), np.float64(-math.inf), np.asarray(math.nan)])
def test_a_numpy_number_must_be_finite_too(value):
    for call in (lambda v: require("rotation", v), lambda v: rotational_doppler_beat(5, v, 1000.0, 200.0, 100.0)):
        with pytest.raises(ValueError, match=r" = .* is outside its domain: finite"):
            call(value)
