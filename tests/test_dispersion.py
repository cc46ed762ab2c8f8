import math
import tracemalloc
import warnings

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
    hom_rates,
    opposite_dispersion,
    propagate,
    skc_interferogram,
    skc_rates,
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
    plain_kernel = hom_rates(spec, TAUS - shift)[2]
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
        vectorized = hom_rates(spec, np.array([tau, tau + 1.0]), signal=medium)[0][0]
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
    coincidence, bunched, _ = hom_rates(spec, TAUS, signal=beta(b1=1.0, b2=9.0))
    assert np.max(np.abs(coincidence + bunched - 1.0)) < 1e-10


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
        vectorized = skc_rates(spec, medium, np.array([tau, tau + 0.05]))[0][0]
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
    coincidence, bunched, _, _ = skc_rates(spec, beta(b2=9.0), TAUS, include_fringes=False)
    assert np.max(np.abs(coincidence + bunched - 1.0)) < 1e-10


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "sigma, named",
    [(1.0e-160, "(detuning span)"), (1.0e-200, "(detuning span)"), (1.0e200, "(sigma)"), (1.7e153, "(sigma)")],
)
def test_pulse_width_past_float_range_rejected(sigma, named):
    # too narrow: the conjugate times squared overflow the baseline's moments;
    # too wide: the squared detunings overflow
    with pytest.raises(ValueError, match="is outside the range float64 can hold") as info:
        PulseSpectrum.gaussian(sigma)
    assert named in str(info.value)


def test_pulse_with_non_finite_amplitude_rejected():
    d = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="pulse moments are not finite: a spectrum of width 2.0"):
        PulseSpectrum(d, np.full(8, np.nan))


def test_quantum_beats_classical_for_same_medium():
    spec = gaussian_pair()
    plain = hom_interferogram(spec, TAUS)
    dispersed = hom_interferogram(spec, TAUS, signal=beta(b2=22.0))
    quantum_ratio = envelope_rms_width(dispersed) / envelope_rms_width(plain)
    classical = classical_baseline(PulseSpectrum.gaussian(SIGMA), beta(b2=22.0))
    assert 0.99 <= quantum_ratio <= 1.01
    assert classical.broadening > 2.0


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
        lambda: hom_rates(spec, taus, signal=medium),
        lambda: skc_rates(spec, medium, taus),
        lambda: correlation_envelope(spec, taus),
        lambda: franson_interferogram(spec, medium, taus),
    ):
        with pytest.raises(ValueError, match="uniform"):
            kernel()


def test_delay_grid_within_four_ulp_accepted():
    spec, medium = gaussian_pair(512), beta(3.0, 22.0, 4.0)
    exact, moved = np.linspace(-12.0, 12.0, 601), _moved_delay_grid(ADMITTED_SHIFT)
    for kernel in (
        lambda taus: hom_rates(spec, taus, signal=medium)[0],
        lambda taus: skc_rates(spec, medium, taus)[0],
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
        lambda spec, taus: hom_rates(spec, taus, signal=beta(3.0, 22.0, 4.0)),
        lambda spec, taus: skc_rates(spec, beta(3.0, 22.0, 4.0), taus),
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
# guards


def test_coarse_delay_grid_rejected():
    spec = gaussian_pair()
    with pytest.raises(ResolutionError):
        hom_interferogram(spec, np.linspace(-50.0, 50.0, 5))


def test_excessive_delay_range_rejected():
    spec = gaussian_pair(32)  # coarse detuning grid
    with pytest.raises(ResolutionError):
        hom_interferogram(spec, np.linspace(-400.0, 400.0, 100001))


def test_profile_validation():
    with pytest.raises(ValueError):
        DispersionProfile((0.0, 1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        DispersionProfile((0.0, 0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        DispersionProfile((0.0, math.nan, 0.0, 0.0), 1.0)
