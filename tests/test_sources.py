import math
import re

import numpy as np
import pytest

from photonlab.dispersion import PulseSpectrum
from photonlab.elements import apply_element, phase_shift
from photonlab.fock import (
    PRUNE_EPS,
    FockSpace,
    freq_bin,
    number_expectation,
    oam,
    path,
    schmidt_rank,
)
from photonlab.sources import (
    AsymmetricGridError,
    BiphotonSpectrum,
    InsufficientTruncationError,
    SpdcOamSpectrum,
    biphoton_space,
    coherent_state,
    frequency_entangled_pair,
    noon_state,
    poisson_tail,
    required_nmax,
    single_photon,
    spdc_oam_pair,
    spdc_space,
)


def test_single_photon_in_two_path_space():
    sp = FockSpace([path(0), path(1)], n_max=1)
    st = single_photon(sp, path(0))
    assert abs(st.amplitude(sp.basis_state({path(0): 1})) - 1.0) < 1e-15
    assert abs(st.norm() - 1.0) < 1e-15
    assert abs(number_expectation(st, path(0)) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_zero_is_vacuum():
    sp = FockSpace([path(0)], n_max=4)
    st = coherent_state(sp, path(0), 0.0)
    assert st.num_terms == 1
    assert abs(st.amplitude(sp.basis_state({})) - 1.0) < 1e-15


def test_coherent_mean_photon_number():
    # Poisson mean identity by direct summation happens in test_fock;
    # here the library value against the exact mean
    sp = FockSpace([path(0)], n_max=40)
    st = coherent_state(sp, path(0), 2.0)
    assert abs(number_expectation(st, path(0)) - 4.0) < 1e-9


def test_coherent_photon_number_variance():
    # Poisson variance by direct summation
    sp = FockSpace([path(0)], n_max=40)
    st = coherent_state(sp, path(0), 2.0)
    second = sum(bs.total ** 2 * abs(a) ** 2 for bs, a in st.items())
    mean = number_expectation(st, path(0))
    assert abs((second - mean ** 2) - 4.0) < 1e-9


def test_coherent_is_poissonian_mandel_q():
    sp = FockSpace([path(0)], n_max=40)
    st = coherent_state(sp, path(0), 2.0)
    mean = number_expectation(st, path(0))
    second = sum(bs.total ** 2 * abs(a) ** 2 for bs, a in st.items())
    q = (second - mean ** 2) / mean - 1.0
    assert abs(q) < 1e-9


def test_coherent_truncation_error_names_requirement():
    sp = FockSpace([path(0)], n_max=6)
    with pytest.raises(InsufficientTruncationError) as err:
        coherent_state(sp, path(0), 2.0)
    needed = required_nmax(2.0)
    assert f"n_max >= {needed}" in str(err.value)
    assert poisson_tail(2.0, needed) < 1e-9


def test_complex_amplitude_coherent_state():
    sp = FockSpace([path(0)], n_max=30)
    alpha = 1.2 * np.exp(0.7j)
    st = coherent_state(sp, path(0), alpha)
    assert abs(st.norm() - 1.0) < 1e-12
    assert abs(number_expectation(st, path(0)) - abs(alpha) ** 2) < 1e-9


# ---------------------------------------------------------------------------
# NOON states


def test_noon_one_is_split_single_photon():
    sp = FockSpace([path(0), path(1)], n_max=1)
    st = noon_state(sp, path(0), path(1), 1)
    assert abs(st.amplitude(sp.basis_state({path(0): 1})) - 1 / math.sqrt(2)) < 1e-15
    assert abs(st.amplitude(sp.basis_state({path(1): 1})) - 1 / math.sqrt(2)) < 1e-15


def test_noon_schmidt_rank_two():
    sp = FockSpace([path(0), path(1)], n_max=5)
    st = noon_state(sp, path(0), path(1), 5)
    rank, _ = schmidt_rank(st, ([path(0)], [path(1)]))
    assert rank == 2


def test_noon_collective_phase():
    n, phi = 3, 0.77
    sp = FockSpace([path(0), path(1)], n_max=n)
    st = apply_element(noon_state(sp, path(0), path(1), n), phase_shift(path(0), phi))
    got = st.amplitude(sp.basis_state({path(0): n}))
    assert abs(got - np.exp(1j * n * phi) / math.sqrt(2)) < 1e-12
    assert abs(st.amplitude(sp.basis_state({path(1): n})) - 1 / math.sqrt(2)) < 1e-12


# ---------------------------------------------------------------------------
# OAM-entangled pairs


def test_uniform_spectrum_pair():
    sp = spdc_space(2)
    st = spdc_oam_pair(sp, SpdcOamSpectrum.uniform(2))
    assert st.num_terms == 5
    assert abs(st.norm() - 1.0) < 1e-12
    for bs, a in st.items():
        assert abs(abs(a) - 1 / math.sqrt(5)) < 1e-12


def test_filtered_pair_matches_two_term_state():
    l = 3
    sp = spdc_space(l)
    st = spdc_oam_pair(sp, SpdcOamSpectrum.filtered_pair(l))
    plus = sp.basis_state({oam(l, 0): 1, oam(-l, 1): 1})
    minus = sp.basis_state({oam(-l, 0): 1, oam(l, 1): 1})
    assert abs(st.amplitude(plus) - 1 / math.sqrt(2)) < 1e-12
    assert abs(st.amplitude(minus) - 1 / math.sqrt(2)) < 1e-12


def test_pair_total_charge_vanishes():
    sp = spdc_space(3)
    st = spdc_oam_pair(sp, SpdcOamSpectrum.uniform(3))
    total = sum(m.index * number_expectation(st, m) for m in sp.modes)
    assert abs(total) < 1e-12


def test_signal_measurement_collapses_idler():
    # opposite-charge selection: amplitudes with idler != -signal vanish
    sp = spdc_space(2)
    # Gaussian-weighted charges |l| <= 2, sigma_l = 1.5
    raw = {l: math.exp(-(l ** 2) / (2 * 1.5 ** 2)) for l in range(-2, 3)}
    norm = math.sqrt(sum(v ** 2 for v in raw.values()))
    st = spdc_oam_pair(sp, SpdcOamSpectrum({l: v / norm for l, v in raw.items()}, 2))
    for bs, a in st.items():
        charges = {m.channel: m.index for m, _ in bs.occ}
        assert charges[1] == -charges[0]


def test_pair_needs_modes_in_space():
    from photonlab.fock import ModeNotInSpaceError

    sp = spdc_space(1)
    with pytest.raises(ModeNotInSpaceError):
        spdc_oam_pair(sp, SpdcOamSpectrum.uniform(2))


def test_spectrum_normalization_enforced():
    with pytest.raises(ValueError):
        SpdcOamSpectrum({0: 1.0, 1: 1.0}, 1)


# ---------------------------------------------------------------------------
# frequency-entangled biphotons


def test_two_bin_grid_gives_two_term_state():
    spec = BiphotonSpectrum.two_bin(omega0=10.0, delta=0.5)
    st = frequency_entangled_pair(spec)
    sp = st.space
    hi_lo = sp.basis_state({freq_bin(1, 0): 1, freq_bin(0, 1): 1})
    lo_hi = sp.basis_state({freq_bin(0, 0): 1, freq_bin(1, 1): 1})
    assert abs(st.amplitude(hi_lo) - 1 / math.sqrt(2)) < 1e-12
    assert abs(st.amplitude(lo_hi) - 1 / math.sqrt(2)) < 1e-12
    rank, _ = schmidt_rank(
        st, ([m for m in sp.modes if m.channel == 0], [m for m in sp.modes if m.channel == 1])
    )
    assert rank == 2


def test_pair_is_exchange_symmetric():
    spec = BiphotonSpectrum.gaussian(omega0=5.0, sigma=0.4, n_bins=32)
    st = frequency_entangled_pair(spec)
    sp = st.space
    n = spec.detunings.size
    for bs, a in st.items():
        bins = {m.channel: m.index for m, _ in bs.occ}
        swapped = sp.basis_state(
            {freq_bin(bins[1], 0): 1, freq_bin(bins[0], 1): 1}
        )
        assert abs(st.amplitude(swapped) - a) < 1e-12
        assert bins[1] == n - 1 - bins[0]


def test_gaussian_marginal_width():
    # direct marginal summation: intensity std equals the sigma parameter
    sigma = 0.35
    spec = BiphotonSpectrum.gaussian(omega0=3.0, sigma=sigma, n_bins=1024)
    freqs, intensity = spec.omega0 + spec.detunings, np.abs(spec.amplitude) ** 2
    weights = intensity / intensity.sum()
    mean = float((freqs * weights).sum())
    std = math.sqrt(float(((freqs - mean) ** 2 * weights).sum()))
    assert abs(mean - 3.0) < 1e-9
    assert abs(std - sigma) < 0.01 * sigma


@pytest.mark.parametrize("n_bins", [0, -2])
def test_gaussian_needs_a_positive_bin_count(n_bins):
    with pytest.raises(ValueError, match="n_bins"):
        BiphotonSpectrum.gaussian(omega0=3.0, sigma=0.4, n_bins=n_bins)


def test_asymmetric_amplitude_rejected():
    spec = BiphotonSpectrum.gaussian(omega0=3.0, sigma=0.4, n_bins=16)
    skew = spec.with_amplitude(spec.amplitude * np.exp(1j * spec.detunings))
    with pytest.raises(AsymmetricGridError):
        frequency_entangled_pair(skew)


def test_asymmetric_grid_rejected():
    with pytest.raises(AsymmetricGridError):
        BiphotonSpectrum(1.0, np.array([-0.5, 0.5, 1.5]), np.ones(3))


def test_biphoton_space_layout():
    spec = BiphotonSpectrum.two_bin(omega0=1.0, delta=0.1)
    sp = biphoton_space(spec)
    assert len(sp.modes) == 4
    assert sp.n_max == 2


def test_prepared_states_are_normalized():
    sp = FockSpace([path(0), path(1)], n_max=6)
    states = [
        single_photon(sp, path(0)),
        noon_state(sp, path(0), path(1), 4),
        frequency_entangled_pair(BiphotonSpectrum.gaussian(2.0, 0.3, n_bins=64)),
        spdc_oam_pair(spdc_space(2), SpdcOamSpectrum.uniform(2)),
    ]
    for st in states:
        assert abs(st.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("amplitude", [np.full(4, np.nan), np.array([np.inf, 1.0, 1.0, np.inf])], ids=["nan", "inf"])
def test_spectrum_with_non_finite_power_rejected(amplitude):
    with pytest.raises(ValueError, match="spectrum power .* is not finite: a spectrum of width 3.0"):
        BiphotonSpectrum(0.0, np.array([-1.5, -0.5, 0.5, 1.5]), amplitude)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda d, a: BiphotonSpectrum(2.35, d, a), id="biphoton"),
        pytest.param(lambda d, a: PulseSpectrum(d, a), id="pulse"),
        pytest.param(lambda d, a: BiphotonSpectrum(2.35, d, a.copy()).with_amplitude(a), id="with-amplitude"),
    ],
)
def test_a_spectrum_owns_read_only_copies_of_its_arrays(build):
    reference = BiphotonSpectrum.gaussian(2.35, 0.3, n_bins=512)
    d, a = reference.detunings.copy(), reference.amplitude.copy()
    spectrum = build(d, a)
    d[100] = 7.0
    a[3] = 9.0
    # the caller's arrays stay theirs and writeable; the spectrum's do not move
    assert d.flags.writeable and a.flags.writeable
    assert np.array_equal(spectrum.detunings, reference.detunings)
    assert np.array_equal(spectrum.amplitude, reference.amplitude)
    for array in (spectrum.detunings, spectrum.amplitude):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_with_amplitude_refuses_what_the_constructor_refuses():
    # only the amplitude is checked again, with the constructor's messages
    spec = BiphotonSpectrum.gaussian(2.35, 0.3, n_bins=16)
    for bad, message in (
        (np.ones(15), "detunings and amplitude must be matching 1-D arrays"),
        (np.ones((16, 1)), "detunings and amplitude must be matching 1-D arrays"),
        (np.full(16, np.nan), "spectrum power nan is not finite"),
        (2.0 * spec.amplitude, "spectrum power 4.0000.* != 1; normalize first"),
    ):
        with pytest.raises(ValueError, match=message) as built:
            BiphotonSpectrum(spec.omega0, spec.detunings, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            spec.with_amplitude(bad)


def test_gaussian_width_past_float_range_rejected():
    # sigma ** 2 overflows, which raised an OverflowError naming no parameter
    with pytest.raises(ValueError, match=r"width 1e\+200 \(sigma\) is outside the range float64 can hold"):
        BiphotonSpectrum.gaussian(2.35, 1.0e200, n_bins=16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1.0e-163, 1.0e-170, 1.0e-200, 1.0e-300, 5e-324, 0.0, -0.3])
def test_gaussian_width_whose_square_underflows_is_refused_without_a_warning(sigma):
    # sigma ** 2 underflows to 0, or sigma is 0, which would make the
    # envelope's d^2 / sigma^2 a 0/0; a negative sigma would reverse the
    # grid: the width is refused before any grid is built
    message = (
        f"sigma = {sigma!r} is outside its domain: finite, > 0.0"
        if sigma <= 0
        else f"width {sigma!r} (sigma) is outside the range float64 can hold"
    )
    for build in (lambda: BiphotonSpectrum.gaussian(2.35, sigma, n_bins=16), lambda: PulseSpectrum.gaussian(sigma)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_sources_prune_after_normalizing():
    # the middle pair terms sit a hair above PRUNE_EPS and the spectrum
    # power 9e-10 above 1, inside its tolerance: dividing by the norm
    # takes those terms below PRUNE_EPS, and they go
    tiny = 1e-15 * (1 + 2e-10)
    big = math.sqrt((1 + 9e-10) / 2 - tiny ** 2)
    spec = BiphotonSpectrum(0.0, np.array([-1.5, -0.5, 0.5, 1.5]), np.array([big, tiny, tiny, big]))
    pair = frequency_entangled_pair(spec)
    assert pair.num_terms == 2
    sp = FockSpace([path(0)], n_max=30)
    states = [coherent_state(sp, path(0), a) for a in (0.3, 2.0, 1.2 * np.exp(0.7j))]
    for st in [pair, *states]:
        assert abs(st.norm() - 1.0) < 1e-12
        assert all(abs(a) > PRUNE_EPS for _, a in st.items())
