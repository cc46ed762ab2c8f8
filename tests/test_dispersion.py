import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, curve_fit

from photonlab import dispersion
from photonlab.dispersion import (
    _fourier_sum,
    DelayFit,
    DispersionProfile,
    FitError,
    Interferogram,
    PulseSpectrum,
    VACUUM_PROFILE,
    classical_baseline,
    correlation_envelope,
    envelope_center,
    envelope_kurtosis,
    envelope_rms_width,
    extract_delay,
    franson_interferogram,
    fringe_visibility,
    hom_interferogram,
    opposite_dispersion,
    propagate,
    skc_interferogram,
)
from photonlab.elements import apply_beam_splitter, apply_element, phase_shift
from photonlab.fock import FockSpace, StateVector, freq_bin
from photonlab.oam_imaging import ResolutionError
from photonlab.sources import BiphotonSpectrum, frequency_entangled_pair

SIGMA = 0.3          # rad/fs
OMEGA0 = 2.35        # rad/fs
TAUS = np.linspace(-12.0, 12.0, 241)


def gaussian_pair(n_bins=512):
    return BiphotonSpectrum.gaussian(OMEGA0, SIGMA, n_bins=n_bins)


def beta(b1=0.0, b2=0.0, b3=0.0, length=1.0):
    return DispersionProfile((0.0, b1, b2, b3), length)


# ---------------------------------------------------------------------------
# propagation


def test_empty_media_leave_amplitude_alone():
    spec = gaussian_pair(64)
    out = propagate(spec, signal=VACUUM_PROFILE, idler=VACUUM_PROFILE)
    assert np.allclose(out.amplitude, spec.amplitude)


def test_beta1_is_a_pure_delay():
    # linear-phase shift theorem: the dip translates without reshaping
    spec = gaussian_pair()
    shift = 3.0
    moved = hom_interferogram(spec, TAUS, signal=beta(b1=shift))
    plain_kernel = hom_interferogram(spec, TAUS - shift).kernel
    assert np.max(np.abs(moved.kernel - plain_kernel)) < 1e-12


def test_franson_media_cancel_joint_phase_at_second_order():
    spec = gaussian_pair(128)
    b2 = beta(b2=30.0)
    out = propagate(spec, signal=b2, idler=opposite_dispersion(b2))
    assert np.max(np.abs(np.angle(out.amplitude / spec.amplitude))) < 1e-12


def test_propagation_is_multiplicative_phase():
    spec = gaussian_pair(64)
    out = propagate(spec, signal=beta(b2=10.0), idler=beta(b1=1.0))
    assert np.allclose(np.abs(out.amplitude), np.abs(spec.amplitude))


# ---------------------------------------------------------------------------
# two-input mixing (signal and idler onto one splitter)


def test_dip_reaches_zero_at_balance():
    gram = hom_interferogram(gaussian_pair(), TAUS)
    assert gram.rates.min() < 1e-12
    assert abs(gram.scan[gram.rates.argmin()]) < 1e-12


def test_dip_oracle_from_fock_machinery():
    # independent route: the full state-vector simulation on a small grid
    spec = gaussian_pair(8)
    medium = beta(b1=0.8, b2=5.0)
    n = spec.detunings.size
    for tau in (-1.0, 0.0, 0.7, 2.0):
        st = frequency_entangled_pair(spec)
        for j in range(n):
            st = apply_element(st, phase_shift(freq_bin(j, 0), float(medium.phase(spec.detunings[j]))))
            st = apply_element(st, phase_shift(freq_bin(j, 1), float((spec.omega0 + spec.detunings[j]) * tau)))
        for j in range(n):
            st = apply_beam_splitter(st, freq_bin(j, 0), freq_bin(j, 1))
        coincidence = 0.0
        for bs, amp in st.items():
            channels = sorted(m.channel for m, cnt in bs.occ for _ in range(cnt))
            if channels == [0, 1]:
                coincidence += abs(amp) ** 2
        vectorized = hom_interferogram(spec, np.array([tau, tau + 1.0]), signal=medium).rates[0]
        assert abs(coincidence - vectorized) < 1e-10


def test_equal_arm_gvd_leaves_dip_untouched():
    spec = gaussian_pair()
    plain = hom_interferogram(spec, TAUS)
    both = hom_interferogram(spec, TAUS, signal=beta(b2=22.0), idler=beta(b2=22.0))
    ratio = envelope_rms_width(both) / envelope_rms_width(plain)
    assert 0.99 <= ratio <= 1.01


def test_one_arm_gvd_leaves_dip_untouched():
    spec = gaussian_pair()
    plain = hom_interferogram(spec, TAUS)
    dispersed = hom_interferogram(spec, TAUS, signal=beta(b2=22.0))
    ratio = envelope_rms_width(dispersed) / envelope_rms_width(plain)
    assert 0.99 <= ratio <= 1.01


def test_dip_visibility_beats_classical_bound():
    gram = hom_interferogram(gaussian_pair(), TAUS)
    vis = fringe_visibility(gram.rates)
    assert vis >= 0.99
    assert vis > 1 / math.sqrt(2)


def test_interferogram_symmetric_under_delay_reversal():
    spec = gaussian_pair()
    gram = hom_interferogram(spec, TAUS)
    assert np.max(np.abs(gram.rates - gram.rates[::-1])) < 1e-10


def test_outcome_probabilities_sum_to_one():
    spec = gaussian_pair()
    gram = hom_interferogram(spec, TAUS, signal=beta(b1=1.0, b2=9.0))
    assert np.max(np.abs(gram.rates + gram.extras["bunched"] - 1.0)) < 1e-10


def test_beta1_centers_within_one_grid_step():
    spec = gaussian_pair()
    shift = 3.0
    gram = hom_interferogram(spec, TAUS, signal=beta(b1=shift))
    step = TAUS[1] - TAUS[0]
    assert abs(envelope_center(gram) - shift) < step


def test_beta3_reshapes_envelope():
    spec = gaussian_pair()
    plain = hom_interferogram(spec, TAUS)
    skewed = hom_interferogram(spec, TAUS, signal=beta(b3=40.0))
    change = abs(envelope_kurtosis(skewed) - envelope_kurtosis(plain))
    assert change / envelope_kurtosis(plain) > 0.05


# ---------------------------------------------------------------------------
# one-port-fed interferometer (both photons in one input)


def test_skc_empty_medium_shows_coincidence_fringes():
    spec = gaussian_pair()
    taus = np.linspace(-6.0, 6.0, 4001)
    gram = skc_interferogram(spec, VACUUM_PROFILE, taus)
    # textbook two-photon fringes: oscillation at twice the center
    # frequency under the bandwidth envelope
    rates = gram.rates
    assert fringe_visibility(rates) > 0.9
    fringe = gram.extras["fringe"]
    zero_crossings = np.sum(np.diff(np.sign(fringe.real)) != 0)
    expected = 2 * OMEGA0 * 12.0 / math.pi
    assert abs(zero_crossings - expected) <= 2


def test_skc_oracle_from_fock_machinery():
    spec = gaussian_pair(8)
    medium = beta(b1=0.4, b2=6.0)
    n = spec.detunings.size
    omegas = spec.omega0 + spec.detunings
    root_step = math.sqrt(spec.step)
    for tau in (0.0, 0.35, -0.8):
        space = FockSpace(
            [freq_bin(j, ch) for j in range(n) for ch in (0, 1)], n_max=2
        )
        amp = {}
        for j in range(n):
            key = space.basis_state({freq_bin(j, 0): 1, freq_bin(n - 1 - j, 0): 1})
            amp[key] = amp.get(key, 0) + complex(spec.amplitude[j]) * root_step
        st = StateVector(space, amp).normalized()
        for j in range(n):
            st = apply_beam_splitter(st, freq_bin(j, 0), freq_bin(j, 1))
        for j in range(n):
            phase = float(omegas[j] * tau + medium.phase(spec.detunings[j]))
            st = apply_element(st, phase_shift(freq_bin(j, 0), phase))
        for j in range(n):
            st = apply_beam_splitter(st, freq_bin(j, 0), freq_bin(j, 1))
        coincidence = 0.0
        for bs, a in st.items():
            channels = sorted(m.channel for m, cnt in bs.occ for _ in range(cnt))
            if channels == [0, 1]:
                coincidence += abs(a) ** 2
        vectorized = skc_interferogram(spec, medium, np.array([tau, tau + 0.05])).rates[0]
        assert abs(coincidence - vectorized) < 1e-10


def test_skc_envelope_immune_to_gvd():
    spec = gaussian_pair()
    plain = skc_interferogram(spec, VACUUM_PROFILE, TAUS, include_fringes=False)
    dispersed = skc_interferogram(spec, beta(b2=22.0), TAUS, include_fringes=False)
    ratio = envelope_rms_width(dispersed) / envelope_rms_width(plain)
    assert 0.99 <= ratio <= 1.01


def test_skc_envelope_reshaped_by_third_order():
    spec = gaussian_pair()
    plain = skc_interferogram(spec, VACUUM_PROFILE, TAUS, include_fringes=False)
    skewed = skc_interferogram(spec, beta(b3=40.0), TAUS, include_fringes=False)
    change = abs(envelope_kurtosis(skewed) - envelope_kurtosis(plain))
    assert change / envelope_kurtosis(plain) > 0.05


def test_skc_outcomes_complete():
    spec = gaussian_pair()
    gram = skc_interferogram(spec, beta(b2=9.0), TAUS, include_fringes=False)
    assert np.max(np.abs(gram.rates + gram.extras["bunched"] - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# opposite-dispersion (two-medium) configuration


def test_franson_envelope_immune_to_gvd():
    spec = gaussian_pair()
    plain = correlation_envelope(spec, TAUS)
    dispersed = franson_interferogram(spec, beta(b2=22.0), TAUS)
    ratio = envelope_rms_width(dispersed) / envelope_rms_width(plain)
    assert 0.99 <= ratio <= 1.01


def test_franson_odd_orders_add():
    spec = gaussian_pair()
    plain = correlation_envelope(spec, TAUS)
    skewed = franson_interferogram(spec, beta(b3=20.0), TAUS)
    change = abs(envelope_kurtosis(skewed) - envelope_kurtosis(plain))
    assert change / envelope_kurtosis(plain) > 0.05


def test_same_sign_media_do_broaden_envelope():
    # the contrast case: without the opposite-dispersion pairing the
    # correlation envelope spreads
    spec = gaussian_pair()
    b2 = beta(b2=22.0)
    both_positive = correlation_envelope(propagate(spec, signal=b2, idler=b2), TAUS)
    plain = correlation_envelope(spec, TAUS)
    assert envelope_rms_width(both_positive) / envelope_rms_width(plain) > 2.0


# ---------------------------------------------------------------------------
# classical baseline


def test_transform_limited_width_without_medium():
    pulse = PulseSpectrum.gaussian(1.0)
    widths = classical_baseline(pulse, VACUUM_PROFILE)
    assert abs(widths.broadening - 1.0) < 1e-9
    # amplitude std sigma gives intensity std 1/(sqrt(2) sigma) in time
    assert abs(widths.width - 1 / math.sqrt(2)) < 0.005


def test_gaussian_chirp_closed_form():
    # amplitude std sigma: width grows by sqrt(1 + (beta2 L sigma^2)^2)
    sigma = 1.0
    pulse = PulseSpectrum.gaussian(sigma)
    widths = classical_baseline(pulse, beta(b2=2.0))
    assert abs(widths.broadening - math.sqrt(5.0)) < 0.01


def test_doubling_length_follows_closed_form():
    sigma = 1.0
    pulse = PulseSpectrum.gaussian(sigma)
    single = classical_baseline(pulse, DispersionProfile((0, 0, 2.0, 0), 1.0))
    double = classical_baseline(pulse, DispersionProfile((0, 0, 2.0, 0), 2.0))
    assert abs(single.broadening - math.sqrt(1 + 4)) < 0.01
    assert abs(double.broadening - math.sqrt(1 + 16)) < 0.02


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "sigma, named",
    [(1.0e-160, "(detuning span)"), (1.0e-200, "(sigma)"), (1.0e200, "(sigma)"), (1.7e153, "(sigma)")],
)
def test_pulse_width_past_float_range_rejected(sigma, named):
    # too narrow: the conjugate times squared overflow the baseline's moments,
    # or sigma squared underflows to 0; too wide: the squared detunings overflow
    with pytest.raises(ValueError, match="is outside the range float64 can hold") as info:
        PulseSpectrum.gaussian(sigma)
    assert named in str(info.value)


def test_pulse_with_non_finite_amplitude_rejected():
    d = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="pulse moments are not finite: a spectrum of width 2.0"):
        PulseSpectrum(d, np.full(8, np.nan))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda d: PulseSpectrum(d, np.ones(d.size)), id="pulse"),
        pytest.param(lambda d: BiphotonSpectrum(OMEGA0, d, np.ones(d.size)), id="biphoton"),
    ],
)
@pytest.mark.parametrize(
    "detunings, rule",
    [
        pytest.param(np.cumsum(np.tile([4e-9, -1e-9], 8)), "strictly increasing", id="alternating-steps"),
        pytest.param(np.linspace(1.0, -1.0, 16), "strictly increasing", id="decreasing"),
        pytest.param(np.cumsum(np.tile([4e-9, 1e-9], 8)), "uniform", id="steps-4e-9-and-1e-9"),
    ],
)
def test_a_spectrum_grid_must_be_uniform_and_increasing(build, detunings, rule):
    # steps are compared relative to the first, with no absolute slack
    with pytest.raises(ValueError, match=f"^detuning grid must be {rule}$"):
        build(detunings)


def test_quantum_beats_classical_for_same_medium():
    spec = gaussian_pair()
    plain = hom_interferogram(spec, TAUS)
    dispersed = hom_interferogram(spec, TAUS, signal=beta(b2=22.0))
    quantum_ratio = envelope_rms_width(dispersed) / envelope_rms_width(plain)
    classical = classical_baseline(PulseSpectrum.gaussian(SIGMA), beta(b2=22.0))
    assert 0.99 <= quantum_ratio <= 1.01
    assert classical.broadening > 2.0


def _unshifted_field_width(detunings, amplitude):
    # the width as formed before the time grid and the transform limit
    # were kept: the complex field is shifted, then squared
    n = detunings.size * 16
    step = detunings[1] - detunings[0]
    field_t = np.fft.fftshift(np.fft.fft(amplitude, n=n))
    t = np.fft.fftshift(np.fft.fftfreq(n, d=step / (2 * math.pi)))
    intensity = np.abs(field_t) ** 2
    total = intensity.sum()
    mean = float((t * intensity).sum() / total)
    return math.sqrt(float(((t - mean) ** 2 * intensity).sum() / total))


def _clear_baseline_caches():
    dispersion._pulse_times.cache_clear()
    dispersion._transform_limit.cache_clear()


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 7.0])
@pytest.mark.parametrize("beta2", [22.0, 2.0, 0.0, -5.0])
def test_classical_baseline_warm_equals_cold_bit_for_bit(sigma, beta2):
    medium = beta(b2=beta2)
    _clear_baseline_caches()
    cold = classical_baseline(PulseSpectrum.gaussian(sigma), medium)
    warm = classical_baseline(PulseSpectrum.gaussian(sigma), medium)
    assert dispersion._transform_limit.cache_info().hits == 1
    assert dispersion._pulse_times.cache_info().hits == 2
    assert warm == cold
    pulse = PulseSpectrum.gaussian(sigma)
    chirped = pulse.amplitude * np.exp(1j * medium.phase(pulse.detunings))
    assert cold.width == _unshifted_field_width(pulse.detunings, chirped)
    assert cold.transform_limit == _unshifted_field_width(pulse.detunings, np.abs(pulse.amplitude).astype(complex))


def test_a_pulse_differing_in_one_bin_builds_its_own_transform_limit():
    pulse = PulseSpectrum.gaussian(1.0)
    amplitude = pulse.amplitude.copy()
    amplitude[1024] *= 0.5
    other = PulseSpectrum(pulse.detunings, amplitude)
    _clear_baseline_caches()
    cold_other = classical_baseline(other, VACUUM_PROFILE)
    _clear_baseline_caches()
    classical_baseline(pulse, VACUUM_PROFILE)
    warm_other = classical_baseline(other, VACUUM_PROFILE)
    assert dispersion._transform_limit.cache_info().misses == 2
    assert warm_other == cold_other
    assert warm_other.transform_limit != classical_baseline(pulse, VACUUM_PROFILE).transform_limit


# ---------------------------------------------------------------------------
# delay extraction


def test_recovers_synthetic_group_delay():
    spec = gaussian_pair()
    gram = hom_interferogram(spec, TAUS, signal=beta(b1=3.0))
    fit = extract_delay(gram)
    assert abs(fit.delay - 3.0) <= max(3 * fit.stderr, 1e-6)


def test_gvd_does_not_move_the_recovered_delay():
    spec = gaussian_pair()
    clean = extract_delay(hom_interferogram(spec, TAUS, signal=beta(b1=3.0)))
    mixed = extract_delay(
        hom_interferogram(spec, TAUS, signal=beta(b1=3.0, b2=22.0))
    )
    assert abs(mixed.delay - clean.delay) <= max(3 * clean.stderr, 1e-9)


def test_noiseless_dip_fit_is_conditioning_limited():
    spec = gaussian_pair()
    fit = extract_delay(hom_interferogram(spec, TAUS))
    assert abs(fit.delay) < 1e-6
    assert fit.stderr < 1e-3


def curve_fit_delay(gram):
    # the same dip model and start point, fitted by scipy: (delay, stderr)
    tau, y = gram.scan, gram.rates
    p0 = (
        float(tau[int(np.argmin(y))]),
        max(envelope_rms_width(gram) / math.sqrt(2), float(tau[1] - tau[0])),
        float(y.max() - y.min()),
        float(y.max()),
    )

    def model(x, center, width, depth, base):
        return base - depth * np.exp(-((x - center) ** 2) / (2 * width ** 2))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(model, tau, y, p0=p0, maxfev=20000)
    return float(popt[0]), math.sqrt(pcov[0, 0])


@pytest.mark.parametrize("n_bins", [512, 4096])
@pytest.mark.parametrize("b", [(0.0, 3.0, 22.0, 4.0), (0.0, 3.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.0, -2.0, 22.0, 0.0)])
def test_delay_fit_agrees_with_curve_fit(n_bins, b):
    gram = hom_interferogram(gaussian_pair(n_bins), TAUS, signal=DispersionProfile(b, 1.0))
    fit = extract_delay(gram)
    delay, stderr = curve_fit_delay(gram)
    assert abs(fit.delay - delay) <= fit.stderr
    # with the dip centred at 0 the forward-difference step of curve_fit,
    # 1.5e-8 |center|, is too small for a derivative and its covariance
    # there is no reference
    if b[1] != 0.0:
        assert abs(fit.stderr - stderr) <= 1e-3 * stderr


@pytest.mark.parametrize("b1", [0.0, 3.0])
def test_delay_fit_finds_a_peak(b1):
    # the Franson correlation envelope is a peak, not a dip; the opposite
    # media add their group delays, so it sits at 2 beta_1 L
    taus = np.linspace(-12.0, 12.0, 2001)
    gram = franson_interferogram(gaussian_pair(512), beta(b1=b1), taus)
    fit = extract_delay(gram)
    assert abs(fit.delay - envelope_center(gram)) <= taus[1] - taus[0]
    assert abs(fit.delay - 2.0 * b1) <= taus[1] - taus[0]


@pytest.mark.parametrize("b1", [0.0, 3.0])
def test_delay_fit_finds_a_peak_at_4096_bins(b1):
    taus = np.linspace(-12.0, 12.0, 2001)
    gram = franson_interferogram(gaussian_pair(4096), beta(b1=b1), taus)
    fit = extract_delay(gram)
    assert abs(fit.delay - envelope_center(gram)) <= taus[1] - taus[0]
    assert abs(fit.delay - 2.0 * b1) <= taus[1] - taus[0]


def _counted_fit(monkeypatch, tau, y, start):
    """_fit_dip from ``start``, with the model evaluations and the
    accepted points (the start included) counted."""
    counts = {"evaluations": 0, "accepted": 0}
    point, normal = dispersion._dip_point, dispersion._projected_normal

    def evaluated(*args):
        counts["evaluations"] += 1
        return point(*args)

    def accepted(*args):
        counts["accepted"] += 1
        return normal(*args)

    monkeypatch.setattr(dispersion, "_dip_point", evaluated)
    monkeypatch.setattr(dispersion, "_projected_normal", accepted)
    params, var = dispersion._fit_dip(tau, y, start)
    monkeypatch.undo()
    return params, var, counts


@pytest.mark.parametrize(
    "configuration, sign",
    [
        pytest.param(lambda spec, taus: hom_interferogram(spec, taus, signal=beta(3.0, 22.0, 4.0)), 1.0, id="hom-dip"),
        pytest.param(lambda spec, taus: franson_interferogram(spec, beta(b1=3.0), taus), -1.0, id="franson-peak"),
    ],
)
def test_fit_from_two_widths_off_rejects_steps_and_finds_the_same_feature(monkeypatch, configuration, sign):
    taus = np.linspace(-12.0, 12.0, 2001)
    gram = configuration(gaussian_pair(4096), taus)
    fit = extract_delay(gram)
    y = sign * gram.rates
    guess_w = envelope_rms_width(gram) / math.sqrt(2)
    params, _, usual = _counted_fit(monkeypatch, taus, y, (fit.delay, guess_w))
    moved, var, counts = _counted_fit(monkeypatch, taus, y, (fit.delay - 2.0 * params[1], guess_w))
    assert usual["evaluations"] <= 12
    # the start is evaluated and accepted; every other evaluation is a trial
    assert counts["evaluations"] - counts["accepted"] >= 2
    assert abs(moved[0] - fit.delay) <= 1e-3 * fit.stderr
    assert math.sqrt(var) == pytest.approx(fit.stderr, rel=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "start",
    [(0.0, 1e300), (1e6, 1.0), (0.0, 0.0), (0.0, math.nan)],
    ids=["flat-model", "underflowed-model", "zero-width", "nan-width"],
)
def test_a_singular_linear_system_raises_fit_error_without_a_warning(start):
    # depth and base solve a 2 x 2 system with determinant
    # m sum (g - mean g)^2: 0 when the model is flat on the scan or is 0
    # on all of it, and NaN for a NaN width
    gram = hom_interferogram(gaussian_pair(), TAUS)
    with pytest.raises(FitError, match="depth and base are not determined at the starting point"):
        dispersion._fit_dip(gram.scan, gram.rates, start)


def test_delay_fit_loop_runs_without_lapack(monkeypatch):
    # only the covariance at the optimum takes an SVD; every step is a
    # 2 x 2 system solved in Python floats
    gram = hom_interferogram(gaussian_pair(4096), np.linspace(-12.0, 12.0, 2001), signal=beta(3.0, 22.0, 4.0))
    expected = extract_delay(gram)

    def refused(*args, **kwargs):
        raise AssertionError("the delay fit called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", refused)
    assert extract_delay(gram) == expected


@pytest.mark.parametrize(
    "rates",
    [
        # the mean of the two middle values decides: the lower middle value
        # alone would flip the first, the upper one the second
        pytest.param(np.array([0.55, 1.0, 0.0, 0.45]), id="even-dip"),
        pytest.param(np.array([1.0, 0.3, 0.6, 0.0]), id="even-peak"),
        pytest.param(np.array([1.0, 0.5, 0.0]), id="odd-tie"),
        pytest.param(np.random.default_rng(3).uniform(0.0, 1.0, 2000), id="even-random"),
        pytest.param(np.random.default_rng(3).uniform(0.0, 1.0, 2001), id="odd-random"),
    ],
)
def test_dip_or_peak_median_equals_numpys(rates):
    # equal medians make equal dip-or-peak decisions
    assert dispersion._median(rates) == float(np.median(rates))


@pytest.mark.parametrize("n_delays", [2000, 2001], ids=["even", "odd"])
def test_dip_and_peak_are_told_apart_on_even_and_odd_scans(n_delays):
    taus = np.linspace(-12.0, 12.0, n_delays)
    step = taus[1] - taus[0]
    spec, medium = gaussian_pair(512), beta(3.0, 22.0)
    # the HOM dip sits at beta_1 L and the Franson peak at 2 beta_1 L
    for gram, delay in ((hom_interferogram(spec, taus, signal=medium), 3.0), (franson_interferogram(spec, medium, taus), 6.0)):
        fit = extract_delay(gram)
        assert abs(fit.delay - envelope_center(gram)) <= step
        assert abs(fit.delay - delay) <= step


def test_delay_fit_imports_no_numpy_ma():
    # np.median checks for NaN through numpy.ma, an import of several
    # milliseconds on the first fit in a process
    src = str(Path(dispersion.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from photonlab import dispersion as d\n"
        "from photonlab.sources import BiphotonSpectrum\n"
        "gram = d.hom_interferogram(BiphotonSpectrum.gaussian(2.35, 0.3, 512), np.linspace(-12.0, 12.0, 241))\n"
        "d.extract_delay(gram)\n"
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_too_few_scan_points_raise_fit_error():
    gram = Interferogram(
        scan=np.array([-1.0, 0.0, 1.0]),
        rates=np.array([0.5, 0.1, 0.5]),
        kernel=np.ones(3, dtype=complex),
        configuration="hom",
    )
    with pytest.raises(FitError):
        extract_delay(gram)


def test_flat_data_raises_fit_error():
    gram = Interferogram(
        scan=np.linspace(0, 1, 32),
        rates=np.full(32, 0.5),
        kernel=np.zeros(32, dtype=complex),
        configuration="hom",
    )
    with pytest.raises(FitError):
        extract_delay(gram)


def test_zero_width_envelope_raises_fit_error():
    # a scan far inside one delay sample: the second moment underflows to 0
    gram = hom_interferogram(BiphotonSpectrum.gaussian(2.35, 0.3, n_bins=512), np.linspace(-1e-208, 1e-208, 241))
    with pytest.raises(FitError, match="zero-width envelope"):
        envelope_rms_width(gram)


def test_envelope_kurtosis_is_scale_free():
    # the moments of raw delays underflow below about 1e-78; the ratio of
    # scaled ones reads the same at every scan width
    spectrum = BiphotonSpectrum.gaussian(2.35, 0.3, n_bins=512)

    def kurtosis(s):
        return envelope_kurtosis(hom_interferogram(spectrum, np.linspace(-s, s, 241)))

    reference = kurtosis(1e-60)
    for s in (1e-80, 1e-100, 1e-208):
        assert kurtosis(s) == pytest.approx(reference, rel=1e-12)
    one_delay = Interferogram(np.array([2.0]), np.array([0.5]), np.array([1.0 + 0j]), "hom")
    one_weight = Interferogram(np.arange(4.0), np.full(4, 0.5), np.array([0, 0, 1j, 0]), "hom")
    for gram in (one_delay, one_weight):
        with pytest.raises(FitError, match="zero-width envelope"):
            envelope_kurtosis(gram)


def test_delay_fit_reports_visibility():
    fit = extract_delay(hom_interferogram(gaussian_pair(), TAUS))
    assert isinstance(fit, DelayFit)
    assert fit.visibility >= 0.99


# ---------------------------------------------------------------------------
# Fourier sum: one chirp-z transform, on uniform delay grids only


def _moved_delay_grid(shift):
    delays = np.linspace(-12.0, 12.0, 601)
    delays[300] += shift
    return delays


# the most the uniformity rule admits: 4 ulp of the larger grid end
ADMITTED_SHIFT = 4 * np.spacing(12.0)


@pytest.mark.parametrize(
    "spectrum, delay_grids",
    [
        pytest.param(gaussian_pair(512), None, id="512"),
        pytest.param(gaussian_pair(4096), None, id="4096"),
        pytest.param(gaussian_pair(510), None, id="510-padded"),
        pytest.param(BiphotonSpectrum.two_bin(OMEGA0, 0.2), None, id="two-bin"),
        # one tile over the plane would reach chirp phases of about 1e4 rad here
        pytest.param(BiphotonSpectrum.two_bin(OMEGA0, 0.2), (np.linspace(-12.0, 12.0, 2001),), id="two-bin-2001-delays"),
        pytest.param(
            gaussian_pair(4096),
            tuple(np.linspace(-12.0, 12.0, m) for m in (2, 3, 4097)),
            id="4096-2-3-4097-delays",
        ),
        pytest.param(gaussian_pair(512), (_moved_delay_grid(ADMITTED_SHIFT),), id="512-one-delay-moved"),
    ],
)
@pytest.mark.parametrize("scale", [-2.0, 2.0, -1.0])
def test_fourier_sum_matches_direct_product(spectrum, delay_grids, scale):
    rng = np.random.default_rng(7)
    d = spectrum.detunings
    weights = spectrum.amplitude * spectrum.step * np.exp(1j * rng.uniform(0.0, 2 * math.pi, d.size))
    if delay_grids is None:
        delay_grids = (np.linspace(-12.0, 12.0, 601), np.linspace(-3.0, 11.0, 300))
    for delays in delay_grids:
        direct = np.exp(1j * scale * np.outer(delays, d)) @ weights
        got = _fourier_sum(delays, d, weights, scale)
        assert got.shape == delays.shape
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(weights))


@pytest.mark.parametrize(
    "taus",
    [
        pytest.param(np.sort(np.random.default_rng(7).uniform(-12.0, 12.0, 300)), id="sorted-random"),
        pytest.param(_moved_delay_grid(1e-9), id="one-delay-moved"),
    ],
)
def test_non_uniform_delay_grid_refused_before_any_sum(monkeypatch, taus):
    def refused(*args):
        raise AssertionError("the Fourier sum ran on a non-uniform delay grid")

    monkeypatch.setattr(dispersion, "_fourier_sum", refused)
    spec, medium = gaussian_pair(512), beta(3.0, 22.0, 4.0)
    for kernel in (
        lambda: hom_interferogram(spec, taus, signal=medium),
        lambda: skc_interferogram(spec, medium, taus),
        lambda: correlation_envelope(spec, taus),
        lambda: franson_interferogram(spec, medium, taus),
    ):
        with pytest.raises(ValueError, match="uniform"):
            kernel()


def test_delay_grid_within_four_ulp_accepted():
    spec, medium = gaussian_pair(512), beta(3.0, 22.0, 4.0)
    exact, moved = np.linspace(-12.0, 12.0, 601), _moved_delay_grid(ADMITTED_SHIFT)
    for kernel in (
        lambda taus: hom_interferogram(spec, taus, signal=medium).rates,
        lambda taus: skc_interferogram(spec, medium, taus).rates,
        lambda taus: correlation_envelope(spec, taus).rates,
        lambda taus: franson_interferogram(spec, medium, taus).rates,
    ):
        assert np.max(np.abs(kernel(moved) - kernel(exact))) <= 1e-12


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "kernel",
    [
        lambda spec, taus: hom_interferogram(spec, taus, signal=beta(3.0, 22.0, 4.0)),
        lambda spec, taus: skc_interferogram(spec, beta(3.0, 22.0, 4.0), taus),
        lambda spec, taus: franson_interferogram(spec, beta(3.0, 22.0, 4.0), taus),
    ],
    ids=["hom", "skc", "franson"],
)
def test_interferogram_kernels_hold_no_phase_matrix(kernel):
    # a 2001 x 4096 complex phase matrix alone is 125 MiB; the chirp-z
    # sum holds three tiles of 4096 FFT points
    spec = gaussian_pair(4096)
    taus = np.linspace(-12.0, 12.0, 2001)
    assert _peak_bytes(lambda: kernel(spec, taus)) < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# per-grid caches: a warm call returns the bits of a cold one


def _clear_grid_caches():
    dispersion._fourier_plan.cache_clear()
    _clear_baseline_caches()


_USUAL_DELAYS = (np.linspace(-12.0, 12.0, 601), np.linspace(-3.0, 11.0, 300))


# the tile shapes of test_fourier_sum_matches_direct_product
@pytest.mark.parametrize(
    "spectrum, delay_grids",
    [
        pytest.param(gaussian_pair(512), _USUAL_DELAYS, id="512"),
        pytest.param(gaussian_pair(4096), _USUAL_DELAYS, id="4096"),
        pytest.param(gaussian_pair(510), _USUAL_DELAYS, id="510-padded"),
        pytest.param(BiphotonSpectrum.two_bin(OMEGA0, 0.2), _USUAL_DELAYS, id="two-bin"),
        pytest.param(BiphotonSpectrum.two_bin(OMEGA0, 0.2), (np.linspace(-12.0, 12.0, 2001),), id="two-bin-2001-delays"),
        pytest.param(
            gaussian_pair(4096),
            tuple(np.linspace(-12.0, 12.0, m) for m in (2, 3, 4097)),
            id="4096-2-3-4097-delays",
        ),
        pytest.param(gaussian_pair(512), (_moved_delay_grid(ADMITTED_SHIFT),), id="512-one-delay-moved"),
    ],
)
@pytest.mark.parametrize("scale", [-2.0, 2.0, -1.0])
def test_fourier_sum_warm_equals_cold_bit_for_bit(spectrum, delay_grids, scale):
    rng = np.random.default_rng(11)
    d = spectrum.detunings
    for delays in delay_grids:
        weights = spectrum.amplitude * np.exp(1j * rng.uniform(0.0, 2 * math.pi, d.size))
        _clear_grid_caches()
        cold = _fourier_sum(delays, d, weights, scale)
        warm = _fourier_sum(delays, d, weights, scale)
        assert dispersion._fourier_plan.cache_info().hits == 1
        assert np.array_equal(warm, cold)


def test_delay_grid_moved_by_four_ulp_builds_its_own_plan():
    spec = gaussian_pair(512)
    d, weights = spec.detunings, spec.amplitude * spec.step
    exact, moved = np.linspace(-12.0, 12.0, 601), _moved_delay_grid(ADMITTED_SHIFT)
    _clear_grid_caches()
    cold_moved = _fourier_sum(moved, d, weights, -2.0)
    _clear_grid_caches()
    _fourier_sum(exact, d, weights, -2.0)
    warm_moved = _fourier_sum(moved, d, weights, -2.0)
    assert dispersion._fourier_plan.cache_info().misses == 2
    assert np.array_equal(warm_moved, cold_moved)


@pytest.mark.parametrize(
    "detuning",
    [
        pytest.param(gaussian_pair(512).detunings, id="grid"),
        pytest.param(-gaussian_pair(512).detunings, id="negated-grid"),
        pytest.param(gaussian_pair(8).detunings[5], id="0-d"),
        pytest.param(0.37, id="python-float"),
        pytest.param([-0.5, 0.1, 0.25], id="list"),
    ],
)
def test_medium_phase_warm_equals_cold_bit_for_bit(detuning):
    medium = beta(0.8, 5.0, 4.0)
    _clear_grid_caches()
    cold = medium.phase(detuning)
    warm = medium.phase(detuning)
    assert type(warm) is type(cold) and np.shape(warm) == np.shape(detuning)
    assert np.array_equal(warm, cold)


# the detunings a medium phase meets: the CLI's and the benchmark's pair
# grids (sigma 0.3 over 512 and 4096 bins) and the classical pulse's
_PHASE_GRIDS = [
    pytest.param(gaussian_pair(512).detunings, id="pair-512"),
    pytest.param(gaussian_pair(4096).detunings, id="pair-4096"),
    pytest.param(PulseSpectrum.gaussian(SIGMA).detunings, id="pulse-2048"),
]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["grid", "negated"])
@pytest.mark.parametrize("grid", _PHASE_GRIDS)
@pytest.mark.parametrize(
    "b",
    [(0.7, 0.0, 0.0, 0.0), (0.0, 3.0, 0.0, 0.0), (0.0, 0.0, 22.0, 0.0), (0.7, -3.0, 22.0, 0.0)],
    ids=["beta0", "beta1", "beta2", "beta0-beta1-beta2"],
)
def test_medium_phase_to_second_order_equals_the_pow_formula_bit_for_bit(b, grid, sign):
    # d^0, d^1 and d^2 by multiplication have the bits of d ** n
    d = sign * grid
    reference = np.zeros_like(d)
    for n, b_n in enumerate(b):
        if b_n != 0.0:
            reference = reference + b_n * d ** n / math.factorial(n)
    assert np.array_equal(DispersionProfile(b, 1.3).phase(d), 1.3 * reference)


@pytest.mark.parametrize("grid", _PHASE_GRIDS)
@pytest.mark.parametrize(
    "b",
    [(0.0, 3.0, 0.0, 0.0), (0.0, 0.0, 0.0, 4.0), (0.0, 3.0, 0.0, 4.0)],
    ids=["beta1", "beta3", "beta1-beta3"],
)
def test_odd_medium_phase_is_odd_bit_for_bit(b, grid):
    medium = DispersionProfile(b, 1.3)
    assert np.array_equal(medium.phase(-grid), -medium.phase(grid))


def test_grid_caches_hand_out_read_only_arrays():
    spec, taus = gaussian_pair(512), np.linspace(-12.0, 12.0, 601)
    d = spec.detunings
    plan = dispersion._fourier_plan(d[[0, -1]].tobytes(), d.size, taus.tobytes(), -2.0)
    for array in plan:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_grid_changed_in_place_reads_its_new_values():
    spec, medium = gaussian_pair(512), beta(0.8, 5.0, 4.0)
    d, weights = spec.detunings.copy(), spec.amplitude * spec.step
    taus = np.linspace(-12.0, 12.0, 601)
    medium.phase(d)
    _fourier_sum(taus, d, weights, -2.0)
    d *= 1.25
    taus += 0.5
    warm_phase, warm_sum = medium.phase(d), _fourier_sum(taus, d, weights, -2.0)
    _clear_grid_caches()
    assert np.array_equal(warm_phase, medium.phase(d.copy()))
    assert np.array_equal(warm_sum, _fourier_sum(taus.copy(), d.copy(), weights, -2.0))


def test_grid_caches_retain_a_bounded_footprint():
    """What the caches keep after the HOM, SKC and Franson kernels on
    n = 512 and 4096 bins over m = 2001 delays: three plans per grid.  A
    plan holds fewer than 5 (n + m) complex numbers and keys on its m
    delays, so the plans retain under sum_n 3 (80 (n + m) + 8 m) bytes,
    and no more than 8 plans whatever is asked.  The classical baseline
    of the 2048-bin pulse, asked once per grid, adds one time grid of
    16 x 2048 float64 and one key of 2048 complex numbers: under
    16 (8 + 1) 2048 bytes more, and no more than 2 time grids and 8
    transform limits whatever is asked.  A medium phase keeps nothing."""
    assert dispersion._fourier_plan.cache_info().maxsize == 8
    assert dispersion._pulse_times.cache_info().maxsize == 2
    assert dispersion._transform_limit.cache_info().maxsize == 8
    medium, taus = beta(3.0, 22.0, 4.0), np.linspace(-12.0, 12.0, 2001)
    bins, m = (512, 4096), taus.size
    spectra = [gaussian_pair(n) for n in bins]
    pulse_bins = PulseSpectrum.gaussian(SIGMA).detunings.size
    _clear_grid_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for spec in spectra:
            hom_interferogram(spec, taus, signal=medium)
            skc_interferogram(spec, medium, taus)
            franson_interferogram(spec, medium, taus)
            classical_baseline(PulseSpectrum.gaussian(SIGMA), medium)
        retained = tracemalloc.get_traced_memory()[0] - before
        _clear_grid_caches()
        after_clear = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dispersion._fourier_plan.cache_info().currsize == 0
    assert dispersion._transform_limit.cache_info().currsize == 0
    ceiling = sum(3 * (80 * (n + m) + 8 * m) for n in bins) + 16 * (8 + 1) * pulse_bins
    assert retained < ceiling
    # what stays is the caches' own
    assert after_clear < 0.05 * retained


# ---------------------------------------------------------------------------
# guards


def test_coarse_delay_grid_rejected():
    spec = gaussian_pair()
    with pytest.raises(ResolutionError):
        hom_interferogram(spec, np.linspace(-50.0, 50.0, 5))


def test_excessive_delay_range_rejected():
    spec = gaussian_pair(32)  # coarse detuning grid
    with pytest.raises(ResolutionError):
        hom_interferogram(spec, np.linspace(-400.0, 400.0, 100001))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_medium_phase_past_half_the_float_range_refused():
    # the limit sits at half the float64 range, so that two arm phases add
    # to a finite joint phase; the classical baseline forms its phase the
    # same way
    spec, pulse = gaussian_pair(64), PulseSpectrum.gaussian(SIGMA)
    reaches = [float(np.max(np.abs(d))) for d in (spec.detunings, pulse.detunings)]
    limit = np.finfo(float).max / 2
    assert np.all(np.isfinite(beta(b1=0.99 * limit / max(reaches)).phase(spec.detunings)))
    too_large = (
        beta(b1=float(1.01 * limit / min(reaches))),
        beta(b2=1e308, length=10.0),
        DispersionProfile((1e308, 0.0, 0.0, 0.0), 10.0),
    )
    for medium in too_large:
        for build in (
            lambda: medium.phase(spec.detunings),
            lambda: propagate(spec, idler=medium),
            lambda: classical_baseline(pulse, medium),
        ):
            with pytest.raises(ValueError, match=re.escape(f"medium with beta {medium.beta} and length {medium.length!r}")):
                build()


def test_interferogram_refuses_rates_outside_the_unit_interval():
    kernel = np.zeros(2, dtype=complex)
    for rates in ([math.nan, 0.5], [0.5, math.nan], [-0.1, 0.5], [0.5, 1.1]):
        with pytest.raises(ValueError, match=r"rates must lie in \[0, 1\]"):
            Interferogram(np.array([0.0, 1.0]), np.array(rates), kernel, "hom")


def test_profile_validation():
    with pytest.raises(ValueError):
        DispersionProfile((0.0, 1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        DispersionProfile((0.0, 0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        DispersionProfile((0.0, math.nan, 0.0, 0.0), 1.0)
