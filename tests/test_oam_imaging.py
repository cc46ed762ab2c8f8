import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from photonlab.oam_imaging import (
    _beat_record,
    _laguerre_family,
    _hann,
    _legendre,
    _lg_radial,
    _phasors,
    BeatMeasurement,
    LGModeSpec,
    ObjectProfile,
    PolarGrid,
    ResolutionError,
    angular_harmonic_object,
    correlated_phases,
    default_grid,
    detect_rotational_symmetry,
    disk_object,
    letter_mask_object,
    lg_amplitude,
    lg_superposition_object,
    project_object,
    rotate_object,
    rotational_doppler_beat,
)

W0 = 1.0


# ---------------------------------------------------------------------------
# mode function


def test_fundamental_peak_value():
    # l=0, p=0, z=0: Gaussian with on-axis value sqrt(2/pi)/w0
    spec = LGModeSpec(0, 0, W0, 1.0)
    got = lg_amplitude(spec, 0.0, 0.0)
    assert abs(got - math.sqrt(2 / math.pi) / W0) < 1e-14


def test_vortex_modes_vanish_on_axis():
    for l in (-3, -1, 1, 2, 5):
        spec = LGModeSpec(l, 0, W0, 1.0)
        assert abs(lg_amplitude(spec, 0.0, 0.3)) == 0.0


def test_magnitude_is_azimuthally_uniform():
    spec = LGModeSpec(2, 1, W0, 1.0, z=0.4)
    thetas = np.linspace(0, 2 * math.pi, 13)
    mags = np.abs(lg_amplitude(spec, 0.9, thetas))
    assert np.ptp(mags) < 1e-14


def test_azimuthal_phase_sign():
    spec = LGModeSpec(3, 0, W0, 1.0)
    u0 = lg_amplitude(spec, 1.0, 0.0)
    u1 = lg_amplitude(spec, 1.0, 0.2)
    assert abs(u1 / u0 - cmath.exp(-3j * 0.2)) < 1e-12


def test_radial_intensity_node_count():
    # interior zeros of the radial profile: the p positive roots of the
    # generalized Laguerre polynomial (the l != 0 axis zero not counted)
    r = np.linspace(1e-6, 5 * W0, 4000)
    for l, p in [(0, 0), (0, 2), (1, 1), (2, 2), (3, 1)]:
        vals = lg_amplitude(LGModeSpec(l, p, W0, 1.0), r, 0.0).real
        crossings = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
        assert crossings == p


def test_gram_matrix_orthonormal():
    grid = default_grid(W0)
    r, wr, theta = grid.nodes()
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    weight = (wr * r)[:, None] * grid.dtheta
    family = [
        (l, p) for l in range(-3, 4) for p in range(3)
    ]
    fields = [lg_amplitude(LGModeSpec(l, p, W0, 1.0), rr, tt) for l, p in family]
    n = len(family)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gram[i, j] = np.sum(np.conj(fields[i]) * fields[j] * weight)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-6


def test_grid_nodes_are_solved_once_per_order():
    # grids sharing n_r share the Legendre solve; the nodes stay those of
    # a fresh solve, bit for bit, and the shared arrays cannot be written
    for r_max in (6.0, 2.5):
        r, wr, theta = PolarGrid(40, 64, r_max).nodes()
        x, w = np.polynomial.legendre.leggauss(40)
        assert np.array_equal(r, 0.5 * r_max * (x + 1.0))
        assert np.array_equal(wr, 0.5 * r_max * w)
        assert np.array_equal(theta, 2.0 * math.pi * np.arange(64) / 64)
    shared = _legendre(40)
    assert _legendre(40) is shared
    with pytest.raises(ValueError):
        shared[0][0] = 0.0


def test_laguerre_recurrence_matches_scipy_bit_for_bit():
    # the arguments lg_amplitude uses (2 r^2 / w^2 on the quadrature radii)
    # and a dense grid well past the last zero of every polynomial below
    r, _, _ = PolarGrid(128, 256, 6.0 * W0).nodes()
    for x in (2.0 * r ** 2 / W0 ** 2, np.linspace(0.0, 200.0, 4001)):
        for l in range(51):
            for p, got in enumerate(_laguerre_family(10, l, x)):
                assert np.array_equal(got, eval_genlaguerre(p, l, x)), (p, l)


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        LGModeSpec(1, -1, W0, 1.0)
    with pytest.raises(ValueError):
        LGModeSpec(1, 0, -1.0, 1.0)
    with pytest.raises(ValueError):
        lg_amplitude(LGModeSpec(0, 0, W0, 1.0), -0.1, 0.0)


@pytest.mark.parametrize("w0, wavelength", [(1e-306, 1.0), (1e200, 1.0), (1.0, 1e-310)])
def test_mode_spec_refuses_a_rayleigh_range_outside_the_floats(w0, wavelength):
    # pi w0^2 / wavelength underflows to 0 or overflows
    with pytest.raises(ValueError, match=re.escape(f"w0 = {w0!r}")):
        LGModeSpec(1, 0, w0, wavelength)


# ---------------------------------------------------------------------------
# spiral decomposition


def test_pure_mode_projects_to_itself():
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(3, 0): 1.0}, W0)
    spec = project_object(obj, W0, l_max=3, p_max=2)
    assert abs(spec.coefficient(3, 0) - 1.0) < 1e-9
    others = [abs(a) for k, a in spec.coefficients.items() if k != (3, 0)]
    assert max(others) < 1e-6
    assert abs(spec.residual) < 1e-10


def test_balanced_superposition_splits_power():
    grid = default_grid(W0)
    obj = lg_superposition_object(
        grid, {(1, 0): 1 / math.sqrt(2), (-1, 0): 1 / math.sqrt(2)}, W0
    )
    spec = project_object(obj, W0, l_max=2, p_max=1)
    assert abs(abs(spec.coefficient(1, 0)) ** 2 - 0.5) < 1e-9
    assert abs(abs(spec.coefficient(-1, 0)) ** 2 - 0.5) < 1e-9


def test_disk_populates_only_zero_charge():
    grid = default_grid(W0)
    spec = project_object(disk_object(grid, 2.0 * W0), W0, l_max=3, p_max=2)
    for (l, p), a in spec.coefficients.items():
        if l != 0:
            assert abs(a) ** 2 < 1e-10


def test_parseval_inequality_and_completeness():
    grid = default_grid(W0)
    terms = {(1, 0): 0.5, (-2, 1): 0.5j, (0, 2): 0.5, (2, 0): -0.5}
    obj = lg_superposition_object(grid, terms, W0)
    spec = project_object(obj, W0, l_max=3, p_max=2)
    assert spec.total_power() <= obj.power() + 1e-12
    assert abs(spec.residual) < 1e-10
    for key, expected in terms.items():
        assert abs(spec.coefficient(*key) - expected) < 1e-9


def test_nyquist_guard():
    grid = PolarGrid(32, 16, 6.0)
    obj = disk_object(grid, 2.0)
    with pytest.raises(ResolutionError):
        project_object(obj, W0, l_max=5, p_max=0)


def _full_grid_projection(profile, w0, l_max, p_max, z):
    """The direct quadrature: every mode tabulated on the whole polar grid."""
    r, wr, theta = profile.grid.nodes()
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    weighted = profile.samples * (wr * r)[:, None] * profile.grid.dtheta
    return {
        (l, p): complex(np.sum(np.conj(lg_amplitude(LGModeSpec(l, p, w0, 1.0, z), rr, tt)) * weighted))
        for l in range(-l_max, l_max + 1)
        for p in range(p_max + 1)
    }


def _oracle_objects(grid):
    return {
        "disk": disk_object(grid, 2.0 * W0),
        "letter": letter_mask_object(grid, W0),
        "harmonic": angular_harmonic_object(grid, 3, W0),
        "superposition": lg_superposition_object(
            grid, {(2, 1): 0.5, (-3, 0): 0.4j, (0, 2): 0.3}, W0, z=0.7
        ),
    }


@pytest.mark.parametrize("grid", [PolarGrid(64, 128, 6.0 * W0), PolarGrid(48, 80, 6.0 * W0)])  # 80 = 4 l_max
@pytest.mark.parametrize("z", [0.0, 0.7])
def test_projection_matches_full_grid_quadrature(grid, z):
    for name, obj in _oracle_objects(grid).items():
        want = _full_grid_projection(obj, W0, 20, 5, z)
        for l_max, p_max in [(3, 2), (6, 2), (20, 5)]:
            got = project_object(obj, W0, l_max, p_max, z=z).coefficients
            assert len(got) == (2 * l_max + 1) * (p_max + 1)
            worst = max(abs(a - want[k]) for k, a in got.items())
            assert worst <= 1e-13 * math.sqrt(obj.power()), (name, l_max, p_max, worst)


def _reference_radial(spec, r):
    """R_{lp}(r) of one mode by the closed formula, with scipy's Laguerre
    polynomial (bit-identical to the recurrence, see above)."""
    la = abs(spec.l)
    normalization = math.sqrt(2 * math.factorial(spec.p) / (math.pi * math.factorial(spec.p + la)))
    zr = spec.rayleigh_range
    w = spec.w0 * math.sqrt(1.0 + (spec.z / zr) ** 2)
    x = 2.0 * r ** 2 / w ** 2
    radial = (
        (normalization / w)
        * (np.sqrt(2.0) * r / w) ** la
        * np.exp(-(r ** 2) / w ** 2)
        * eval_genlaguerre(spec.p, la, x)
    )
    gouy = (2 * spec.p + la + 1) * math.atan2(spec.z, zr)
    if spec.z == 0.0:
        curvature = 0.0
    else:
        k = 2.0 * math.pi / spec.wavelength
        curvature = -k * r ** 2 * spec.z / (2.0 * (spec.z ** 2 + zr ** 2))
    return radial * np.exp(1j * (curvature + gouy))


@pytest.mark.parametrize("z", [0.0, 0.37])
def test_projection_equals_the_per_mode_sum_bit_for_bit(z):
    # one radial family per |l|, shared by +l and -l, gives every
    # coefficient the per-mode quadrature gives, to the last bit
    grid = PolarGrid(128, 256, 6.0 * W0)
    r, wr, _ = grid.nodes()
    weight = wr * r * grid.dtheta
    for obj in (letter_mask_object(grid, W0), disk_object(grid, 2.0 * W0)):
        harmonics = np.fft.fft(obj.samples, axis=1)
        got = project_object(obj, W0, 20, 5, z=z)
        want = {}
        for l in range(-20, 21):
            weighted = harmonics[:, (-l) % grid.n_theta] * weight
            for p in range(6):
                spec = LGModeSpec(l, p, W0, 1.0, z)
                radial = _reference_radial(spec, r)
                assert np.array_equal(_lg_radial(spec, r), radial), (l, p)
                want[(l, p)] = complex(np.vdot(radial, weighted))
        assert list(got.coefficients) == list(want)
        for key, a in want.items():
            b = got.coefficients[key]
            assert (b.real.hex(), b.imag.hex()) == (a.real.hex(), a.imag.hex()), key
        captured = sum(abs(a) ** 2 for a in want.values())
        assert got.residual.hex() == float(obj.power() - captured).hex()


def test_projection_memory_stays_per_radius():
    # the full-grid quadrature held one 128 x 256 complex array per mode,
    # 246 of them (125 MiB); the angular-DFT projection needs about 1 MiB
    obj = letter_mask_object(PolarGrid(128, 256, 6.0 * W0), W0)
    tracemalloc.start()
    try:
        project_object(obj, W0, l_max=20, p_max=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("w0, wavelength, z", [(0.8, 1.0, -1.1), (1.3, 0.7, -0.3)])
@pytest.mark.parametrize("l_max, p_max", [(0, 0), (0, 10), (40, 1), (40, 10)])
def test_array_pass_equals_the_per_mode_sum_bit_for_bit(w0, wavelength, z, l_max, p_max):
    # every charge runs through one recurrence on a (charges x r) array;
    # each mode still reads the bits of its own closed formula, with no
    # recurrence step (p_max 0), one, or many, and one charge or 41
    grid = PolarGrid(128, 256, 6.0 * w0)
    r, wr, _ = grid.nodes()
    weight = wr * r * grid.dtheta
    obj = letter_mask_object(grid, w0)
    harmonics = np.fft.fft(obj.samples, axis=1)
    got = project_object(obj, w0, l_max, p_max, wavelength, z).coefficients
    assert len(got) == (2 * l_max + 1) * (p_max + 1)
    for l in range(-l_max, l_max + 1):
        weighted = harmonics[:, (-l) % grid.n_theta] * weight
        for p in range(p_max + 1):
            spec = LGModeSpec(l, p, w0, wavelength, z)
            radial = _reference_radial(spec, r)
            assert np.array_equal(_lg_radial(spec, r), radial), (l, p)
            want = complex(np.vdot(radial, weighted))
            assert (got[(l, p)].real.hex(), got[(l, p)].imag.hex()) == (want.real.hex(), want.imag.hex()), (l, p)


def test_mode_on_a_mesh_equals_the_per_mode_formula_bit_for_bit():
    # the charge axis broadcasts over an r of any shape: lg_amplitude on a
    # 2-D (r, theta) mesh reads the closed formula at every sample
    r, _, theta = PolarGrid(40, 64, 6.0 * 0.9).nodes()
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    for l in (-7, 0, 3, 12):
        for p in (0, 1, 4):
            spec = LGModeSpec(l, p, 0.9, 1.2, -0.4)
            want = _reference_radial(spec, rr) * np.exp(-1j * l * tt)
            got = lg_amplitude(spec, rr, tt)
            assert got.shape == rr.shape
            assert np.array_equal(got, want), (l, p)


# ---------------------------------------------------------------------------
# rotation


def test_full_turn_is_identity():
    grid = default_grid(W0, n_r=32, n_theta=64)
    obj = letter_mask_object(grid, W0)
    back = rotate_object(obj, 2 * math.pi)
    assert np.max(np.abs(back.samples - obj.samples)) < 1e-12


def test_rotation_preserves_spectrum_magnitudes():
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(2, 0): 0.6, (-1, 1): 0.4}, W0)
    before = project_object(obj, W0, l_max=3, p_max=2)
    after = project_object(rotate_object(obj, 0.87), W0, l_max=3, p_max=2)
    for key in before.coefficients:
        assert abs(abs(after.coefficient(*key)) ** 2 - abs(before.coefficient(*key)) ** 2) < 1e-9


def test_rotation_phases_channels():
    theta0 = 0.41
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(2, 0): 0.7, (-3, 0): 0.5}, W0)
    before = project_object(obj, W0, l_max=3, p_max=1)
    after = project_object(rotate_object(obj, theta0), W0, l_max=3, p_max=1)
    for l in (2, -3):
        ratio = after.coefficient(l, 0) / before.coefficient(l, 0)
        assert abs(ratio - cmath.exp(-1j * l * theta0)) < 1e-8


def test_rotated_letter_is_clipped_not_rescaled():
    # the letter's edges make the interpolant overshoot (peak |f| 1.112 at
    # theta0 = 0.3); only the overshooting samples are clipped to |f| = 1
    grid = default_grid(W0)
    obj = letter_mask_object(grid, W0)
    before = project_object(obj, W0, l_max=6, p_max=2)
    largest = max(abs(a) for a in before.coefficients.values())
    rotated = rotate_object(obj, 0.3)
    assert np.max(np.abs(rotated.samples)) <= 1.0 + 1e-15
    after = project_object(rotated, W0, l_max=6, p_max=2)
    for key, a in before.coefficients.items():
        assert abs(abs(after.coefficient(*key)) - abs(a)) <= 1.2e-2 * largest
    # a whole grid step is a plain shift: nothing overshoots
    stepped = project_object(rotate_object(obj, 2 * math.pi * 5 / grid.n_theta), W0, l_max=6, p_max=2)
    for key, a in before.coefficients.items():
        assert abs(abs(stepped.coefficient(*key)) - abs(a)) <= 1e-15


# ---------------------------------------------------------------------------
# interferometric phase recovery


def test_phase_of_rotated_pure_mode():
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(2, 0): cmath.exp(1j * math.pi / 5)}, W0)
    spec, flagged = correlated_phases(obj, W0, l_max=2, p_max=1)
    assert (2, 0) not in flagged
    assert abs(cmath.phase(spec.coefficient(2, 0)) - math.pi / 5) < 1e-6


def test_recovery_matches_direct_projection():
    grid = default_grid(W0)
    terms = {(1, 0): 0.5 * cmath.exp(0.3j), (-2, 1): 0.6 * cmath.exp(-1.1j)}
    obj = lg_superposition_object(grid, terms, W0)
    direct = project_object(obj, W0, l_max=2, p_max=1)
    recovered, _ = correlated_phases(obj, W0, l_max=2, p_max=1)
    for key, a in direct.coefficients.items():
        if abs(a) > 1e-8:
            assert abs(recovered.coefficient(*key) - a) < 1e-6


def test_real_object_phases_vanish():
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(0, 0): 0.5, (0, 1): 0.3}, W0)
    spec, _ = correlated_phases(obj, W0, l_max=1, p_max=1)
    for key in ((0, 0), (0, 1)):
        assert abs(cmath.phase(spec.coefficient(*key))) < 1e-6


def test_empty_channel_flagged():
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(1, 0): 1.0}, W0)
    spec, flagged = correlated_phases(obj, W0, l_max=1, p_max=0)
    assert (-1, 0) in flagged
    assert spec.coefficient(-1, 0) == 0j


# ---------------------------------------------------------------------------
# symmetry detection


def test_fourfold_symmetry():
    grid = default_grid(W0)
    obj = lg_superposition_object(grid, {(-4, 0): 0.5, (0, 0): 0.6, (4, 0): 0.5}, W0)
    spec = project_object(obj, W0, l_max=4, p_max=1)
    assert detect_rotational_symmetry(spec) == 4


def test_generic_object_has_trivial_symmetry():
    grid = default_grid(W0, n_r=64, n_theta=128)
    spec = project_object(letter_mask_object(grid, W0), W0, l_max=5, p_max=2)
    assert detect_rotational_symmetry(spec) == 1


def test_angular_harmonic_symmetry():
    grid = default_grid(W0)
    spec = project_object(angular_harmonic_object(grid, 3, W0), W0, l_max=4, p_max=2)
    assert detect_rotational_symmetry(spec) == 3
    # its expansion populates only l = +/-3
    for (l, p), a in spec.coefficients.items():
        if abs(l) != 3:
            assert abs(a) ** 2 < 1e-10 * spec.total_power()


def test_circular_symmetry_sentinel():
    grid = default_grid(W0)
    spec = project_object(disk_object(grid, 1.5), W0, l_max=3, p_max=2)
    assert detect_rotational_symmetry(spec) == 0


# ---------------------------------------------------------------------------
# rotational Doppler


def test_beat_frequency_value():
    meas = rotational_doppler_beat(10, 0.5, omega=500.0, duration=120.0, sample_rate=60.0)
    assert meas.detected
    assert abs(meas.beat - 10.0) < meas.resolution


def test_zero_rotation_flagged():
    meas = rotational_doppler_beat(5, 0.0, omega=100.0, duration=10.0, sample_rate=50.0)
    assert meas == BeatMeasurement(beat=0.0, resolution=meas.resolution, detected=False)


@pytest.mark.parametrize("sample_rate", [40.0, 60.0, 200.0])
def test_beat_record_equals_the_two_row_sum(sample_rate):
    # the oracle sums the two counter-rotating beams as the record once did
    n = 4096
    for rate in (0.1, 0.3, 0.5, 0.8, -1.3):
        for l in range(1, 101):
            theta = l * rate / sample_rate
            two_rows = np.abs(_phasors(theta, n) + _phasors(-theta, n)) ** 2
            assert np.array_equal(_beat_record(theta, n), two_rows), (l, rate)


def test_large_charge_amplifies_beat():
    slow = rotational_doppler_beat(1, 0.5, 100.0, duration=300.0, sample_rate=200.0)
    fast = rotational_doppler_beat(100, 0.5, 100.0, duration=300.0, sample_rate=200.0)
    ratio = fast.beat / slow.beat
    assert abs(ratio - 100.0) * slow.beat < fast.resolution * 100 + slow.resolution * ratio


def test_undersampling_rejected():
    with pytest.raises(ResolutionError):
        rotational_doppler_beat(50, 2.0, 100.0, duration=100.0, sample_rate=10.0)
    with pytest.raises(ResolutionError):
        rotational_doppler_beat(1, 0.01, 100.0, duration=10.0, sample_rate=50.0)


@pytest.mark.parametrize("duration, sample_rate, n", [(1.0, 1.0, 1), (0.1, 1.0, 0)])
def test_record_too_short_to_transform(duration, sample_rate, n):
    # at zero rotation no beat period bounds the record from below
    with pytest.raises(ResolutionError, match=f"record of {n} sample"):
        rotational_doppler_beat(5, 0.0, 100.0, duration=duration, sample_rate=sample_rate)


@pytest.mark.parametrize("count", [1, 2, 5, 22, 24, 64, 141, 20000])
def test_phasors_match_complex_exponentials(count):
    # |theta * m| reaches about 2e5; the reference rounds theta * m too,
    # so both sides carry an error that grows as |theta| m
    m = np.arange(count)
    for theta in (0.0, 1.0, -0.7, math.pi, -2.3e5 / count, 2e5 / count, 1e-9):
        got = _phasors(theta, count)
        assert got.shape == (count,)
        ref = np.exp(1j * (theta * m))
        tol = 4 * np.finfo(float).eps * (1.0 + abs(theta) * m)
        assert np.all(np.abs(got - ref) <= tol), theta
    assert np.array_equal(_phasors(0.0, count), np.ones(count))


@pytest.mark.parametrize("omega, rate", [(math.inf, 0.5), (math.nan, 0.5), (500.0, -math.inf), (500.0, math.nan)])
def test_doppler_refuses_non_finite_carrier_or_rate(omega, rate):
    with pytest.raises(ValueError, match="must be finite"):
        rotational_doppler_beat(10, rate, omega, duration=120.0, sample_rate=60.0)


def test_hann_window_is_shared_read_only():
    window = _hann(20000)
    assert np.array_equal(window, np.hanning(20000))
    assert _hann(20000) is window
    with pytest.raises(ValueError):
        window[0] = 1.0


def test_beat_linear_in_charge_and_rate():
    ls = (4, 8, 16)
    rates = (0.2, 0.4, 0.6)
    measured, expected = [], []
    for l in ls:
        for rate in rates:
            m = rotational_doppler_beat(l, rate, 200.0, duration=400.0, sample_rate=40.0)
            measured.append(m.beat)
            expected.append(2 * l * rate)
    measured = np.array(measured)
    expected = np.array(expected)
    ss_res = float(np.sum((measured - expected) ** 2))
    ss_tot = float(np.sum((expected - expected.mean()) ** 2))
    assert 1 - ss_res / ss_tot > 0.999


# ---------------------------------------------------------------------------
# object profiles


def test_profile_rejects_active_object():
    grid = PolarGrid(8, 8, 2.0)
    with pytest.raises(ValueError):
        ObjectProfile.from_function(grid, lambda r, t: 1.5 * np.ones_like(r))
