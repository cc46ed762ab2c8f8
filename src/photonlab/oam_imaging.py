"""Laguerre-Gauss mode machinery and the measurements built on it:
digital spiral imaging, interferometric phase recovery of the spiral
coefficients, rotational-symmetry detection, and rotational Doppler
rate measurement.

The mode family u_{lp}(r, theta, z) is

    u = (C / w(z)) (sqrt(2) r / w(z))^{|l|} exp(-r^2/w(z)^2)
        * L_p^{|l|}(2 r^2 / w(z)^2)
        * exp(-i k r^2 z / (2 (z^2 + z_R^2)))
        * exp(-i l theta + i (2p + |l| + 1) arctan(z / z_R))

with C = sqrt(2 p! / (pi (p + |l|)!)), beam radius
w(z) = w0 sqrt(1 + (z/z_R)^2) and Rayleigh range z_R = pi w0^2 / lambda.
The azimuthal factor is e^{-i l theta}; all equivariance statements are
made in that sign convention.  Modes with l != 0 vanish on the axis;
|u| never depends on theta.

Objects are sampled on a polar quadrature grid (Gauss-Legendre radial
nodes on [0, R_max], uniform angular nodes).  Because every mode is a
radial profile times e^{-i l theta}, an overlap integral is one angular
DFT of the samples followed by a weighted radial sum, and a projection
never tabulates a mode on the full grid.
"""

from __future__ import annotations

import cmath
import functools
import io
import math
from dataclasses import dataclass
from typing import Mapping, TextIO

import numpy as np

from .fock import FockError

DEFAULT_N_RADIAL = 128
DEFAULT_N_ANGULAR = 256
DEFAULT_RMAX_WAISTS = 6.0
SYMMETRY_POWER_FLOOR = 1e-6


class ResolutionError(FockError):
    """The sampling grid cannot support the requested computation."""


@dataclass(frozen=True)
class LGModeSpec:
    """One Laguerre-Gauss mode: charge l, radial index p, geometry.

    ``w0`` is the waist radius and ``wavelength`` the optical wavelength,
    in the same length unit as ``z`` and the radial coordinate.  The
    Rayleigh range is derived, never stored.
    """

    l: int
    p: int
    w0: float
    wavelength: float
    z: float = 0.0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("radial index p must be >= 0")
        if self.w0 <= 0 or self.wavelength <= 0:
            raise ValueError("w0 and wavelength must be positive")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.w0 ** 2 / self.wavelength

    @property
    def normalization(self) -> float:
        return math.sqrt(
            2 * math.factorial(self.p) / (math.pi * math.factorial(self.p + abs(self.l)))
        )


def _binom(n: int, k: int) -> float:
    """binom(n, k) as a float product, reduced by symmetry to k <= n / 2.

    The running numerator is folded into the result whenever it passes
    1e50, so large arguments do not overflow.
    """
    if k > n / 2 and n > 0:
        k = n - k
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _genlaguerre(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre polynomial L_n^alpha(x) for integers n, alpha >= 0.

    Runs the three-term recurrence on the increments d_k = P_k - P_{k-1}
    of P_k = L_k^alpha / binom(k + alpha, k), starting from P_0 = 1:

        d_1 = -x / (alpha + 1)
        d_{k+1} = -x / (k + alpha + 1) P_k + k / (k + alpha + 1) d_k

    and scales P_n by binom(n + alpha, n) at the end.
    """
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
    return _binom(n + alpha, n) * p


def _lg_radial(spec: LGModeSpec, r: np.ndarray) -> np.ndarray:
    """R_{lp}(r), the mode without its azimuthal factor: u = R e^{-i l theta}.

    Holds the radial envelope, the wavefront curvature and the Gouy
    phase, none of which depends on theta.
    """
    la = abs(spec.l)
    zr = spec.rayleigh_range
    w = spec.w0 * math.sqrt(1.0 + (spec.z / zr) ** 2)
    x = 2.0 * r ** 2 / w ** 2
    radial = (
        (spec.normalization / w)
        * (np.sqrt(2.0) * r / w) ** la
        * np.exp(-(r ** 2) / w ** 2)
        * _genlaguerre(spec.p, la, x)
    )
    gouy = (2 * spec.p + la + 1) * math.atan2(spec.z, zr)
    if spec.z == 0.0:
        curvature = 0.0
    else:
        k = 2.0 * math.pi / spec.wavelength
        curvature = -k * r ** 2 * spec.z / (2.0 * (spec.z ** 2 + zr ** 2))
    return radial * np.exp(1j * (curvature + gouy))


def lg_amplitude(spec: LGModeSpec, r, theta) -> np.ndarray:
    """Evaluate u_{lp}(r, theta) at the spec's propagation distance.

    Broadcasts over array arguments.  r must be nonnegative.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return _lg_radial(spec, r) * np.exp(-1j * spec.l * theta)


# ---------------------------------------------------------------------------
# polar sampling grid and object profiles


@functools.lru_cache(maxsize=16)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per order
    and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class PolarGrid:
    """Gauss-Legendre radial nodes on [0, r_max] times uniform angles."""

    n_r: int
    n_theta: int
    r_max: float

    def __post_init__(self):
        if self.n_r < 2 or self.n_theta < 4:
            raise ValueError("grid too small")
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(radial nodes, radial weights, angular nodes)."""
        x, w = _legendre(self.n_r)
        r = 0.5 * self.r_max * (x + 1.0)
        wr = 0.5 * self.r_max * w
        theta = 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta
        return r, wr, theta

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.n_theta


class ObjectProfile:
    """Complex transmission f(r, theta) sampled on a polar grid.

    A passive object: |f| <= 1 everywhere.  Samples are stored
    row-major, radius first.
    """

    def __init__(self, grid: PolarGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.n_r, grid.n_theta):
            raise ValueError(f"samples must have shape ({grid.n_r}, {grid.n_theta})")
        if np.max(np.abs(samples)) > 1.0 + 1e-9:
            raise ValueError("|f| must not exceed 1 (passive object)")
        self.grid = grid
        self.samples = samples
        self.samples.setflags(write=False)

    @staticmethod
    def from_function(grid: PolarGrid, fn) -> "ObjectProfile":
        r, _, theta = grid.nodes()
        rr, tt = np.meshgrid(r, theta, indexing="ij")
        return ObjectProfile(grid, np.asarray(fn(rr, tt), dtype=complex))

    def power(self) -> float:
        """Quadrature norm integral of |f|^2 r dr dtheta."""
        r, wr, _ = self.grid.nodes()
        return float(
            np.sum(np.abs(self.samples) ** 2 * (wr * r)[:, None]) * self.grid.dtheta
        )

    # -- plain-text import/export ------------------------------------------

    def to_text(self, stream: TextIO) -> None:
        """Header ``n_r n_theta r_max`` then one ``re,im`` row per sample."""
        stream.write(f"{self.grid.n_r} {self.grid.n_theta} {float(self.grid.r_max)!r}\n")
        for row in self.samples:
            for v in row:
                stream.write(f"{float(v.real)!r},{float(v.imag)!r}\n")

    def to_text_str(self) -> str:
        buf = io.StringIO()
        self.to_text(buf)
        return buf.getvalue()

    @staticmethod
    def from_text(stream: TextIO) -> "ObjectProfile":
        header = stream.readline().split()
        if len(header) != 3:
            raise ValueError("header must be 'n_r n_theta r_max'")
        n_r, n_theta, r_max = int(header[0]), int(header[1]), float(header[2])
        grid = PolarGrid(n_r, n_theta, r_max)
        flat = np.empty(n_r * n_theta, dtype=complex)
        for i in range(flat.size):
            line = stream.readline()
            if not line:
                raise ValueError(f"expected {flat.size} sample rows, got {i}")
            re_s, im_s = line.strip().split(",")
            flat[i] = complex(float(re_s), float(im_s))
        return ObjectProfile(grid, flat.reshape(n_r, n_theta))

    @staticmethod
    def from_text_str(text: str) -> "ObjectProfile":
        return ObjectProfile.from_text(io.StringIO(text))


def default_grid(w0: float, n_r: int = DEFAULT_N_RADIAL, n_theta: int = DEFAULT_N_ANGULAR) -> PolarGrid:
    return PolarGrid(n_r, n_theta, DEFAULT_RMAX_WAISTS * w0)


# -- synthetic objects -------------------------------------------------------


def disk_object(grid: PolarGrid, radius: float, transmission: complex = 1.0) -> ObjectProfile:
    """Uniform disk: circularly symmetric, so only l = 0 carries power."""
    if abs(transmission) > 1:
        raise ValueError("|transmission| <= 1")
    return ObjectProfile.from_function(
        grid, lambda r, t: np.where(r <= radius, transmission, 0.0)
    )


def angular_harmonic_object(grid: PolarGrid, q: int, w0: float) -> ObjectProfile:
    """cos(q theta) times a Gaussian: populates charges l = +/-q only."""
    return ObjectProfile.from_function(
        grid, lambda r, t: np.cos(q * t) * np.exp(-(r ** 2) / w0 ** 2)
    )


def letter_mask_object(grid: PolarGrid, w0: float) -> ObjectProfile:
    """An asymmetric 'L'-shaped opening; generic object with q = 1."""

    def mask(r, t):
        vertical = (np.abs(np.cos(t)) < 0.35) & (np.sin(t) > 0) & (r < 2.4 * w0)
        foot = (np.abs(np.sin(t)) < 0.3) & (np.cos(t) > 0) & (r < 1.4 * w0)
        return (vertical | foot).astype(complex)

    return ObjectProfile.from_function(grid, mask)


def lg_superposition_object(
    grid: PolarGrid,
    terms: Mapping[tuple[int, int], complex],
    w0: float,
    wavelength: float = 1.0,
    z: float = 0.0,
) -> ObjectProfile:
    """Band-limited object built inside the mode family itself."""
    r, _, theta = grid.nodes()
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    f = np.zeros_like(rr, dtype=complex)
    for (l, p), coeff in terms.items():
        f += coeff * lg_amplitude(LGModeSpec(l, p, w0, wavelength, z), rr, tt)
    return ObjectProfile(grid, f)


# ---------------------------------------------------------------------------
# spiral spectra


@dataclass(frozen=True)
class SpiralSpectrum:
    """Coefficients a_{lp} of an object over the mode family.

    ``residual`` is the object power not captured by the truncated
    family; total captured power plus residual reproduces the object
    norm up to quadrature tolerance.
    """

    coefficients: Mapping[tuple[int, int], complex]
    residual: float
    l_max: int
    p_max: int

    def coefficient(self, l: int, p: int) -> complex:
        return self.coefficients.get((l, p), 0j)

    def total_power(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.coefficients.values()))

    def charge_power(self, l: int) -> float:
        return float(
            sum(abs(a) ** 2 for (ll, _), a in self.coefficients.items() if ll == l)
        )

    def charges(self) -> list[int]:
        return sorted({l for l, _ in self.coefficients})


def _angular_harmonics(profile: ObjectProfile) -> tuple[np.ndarray, np.ndarray]:
    """Angular DFT of the samples at every radius, and each column's frequency.

    Column j holds sum_theta f(r, theta) e^{-i m_j theta}.  Charge l of
    the e^{-i l theta} convention sits at m = -l, column (-l) % n_theta.
    """
    n = profile.grid.n_theta
    return np.fft.fft(profile.samples, axis=1), np.fft.fftfreq(n, d=1.0 / n)


def project_object(
    profile: ObjectProfile,
    w0: float,
    l_max: int,
    p_max: int,
    wavelength: float = 1.0,
    z: float = 0.0,
) -> SpiralSpectrum:
    """Digital spiral decomposition: a_{lp} = <u_{lp}, f> by quadrature.

    The mode factors as R_{lp}(r) e^{-i l theta}, so the angular sum is
    one DFT of the samples per radius, F_l(r) = sum_theta f e^{i l theta},
    and each coefficient is a radial sum,

        a_{lp} = sum_r w_r r dtheta conj(R_{lp}(r)) F_l(r).

    Requires n_theta >= 4 l_max so the angular harmonics up to l_max are
    unaliased on the grid.
    """
    n_theta = profile.grid.n_theta
    if n_theta < 4 * l_max:
        raise ResolutionError(f"n_theta = {n_theta} < 4 l_max = {4 * l_max}")
    r, wr, _ = profile.grid.nodes()
    weight = wr * r * profile.grid.dtheta
    harmonics, _ = _angular_harmonics(profile)
    coeffs = {}
    for l in range(-l_max, l_max + 1):
        weighted = harmonics[:, (-l) % n_theta] * weight
        for p in range(p_max + 1):
            radial = _lg_radial(LGModeSpec(l, p, w0, wavelength, z), r)
            coeffs[(l, p)] = complex(np.vdot(radial, weighted))
    captured = sum(abs(a) ** 2 for a in coeffs.values())
    return SpiralSpectrum(
        coefficients=coeffs,
        residual=float(profile.power() - captured),
        l_max=l_max,
        p_max=p_max,
    )


def rotate_object(profile: ObjectProfile, theta0: float) -> ObjectProfile:
    """Rigid rotation by theta0 via trigonometric angular interpolation.

    The rotated profile samples f(r, theta + theta0), which multiplies
    each a_{lp} by e^{-i l theta0} in this azimuthal sign convention and
    leaves every |a_{lp}| unchanged.  Exact for profiles band-limited on
    the angular grid; a full turn reproduces the samples identically.

    At sharp edges the interpolant overshoots, and the samples with
    |f| > 1 are clipped back to |f| = 1; by Bessel's inequality each a_{lp}
    moves by at most the quadrature norm of the clipped excess.  For the
    letter mask at theta0 = 0.3 (peak |f| 1.112) every |a_{lp}| stays
    within 1.2e-2 of the largest unrotated |a_{lp}|.
    """
    if theta0 == 0.0:
        return profile
    harmonics, m = _angular_harmonics(profile)
    rotated = np.fft.ifft(harmonics * np.exp(1j * m * theta0)[None, :], axis=1)
    if np.max(np.abs(rotated.imag)) < 1e-12 and np.max(np.abs(profile.samples.imag)) == 0.0:
        rotated = rotated.real.astype(complex)
    # dividing by 1.0 leaves every sample with |f| <= 1 bit for bit
    return ObjectProfile(profile.grid, rotated / np.maximum(np.abs(rotated), 1.0))


def correlated_phases(
    profile: ObjectProfile,
    w0: float,
    l_max: int,
    p_max: int,
    wavelength: float = 1.0,
    z: float = 0.0,
    reference: Mapping[tuple[int, int], complex] | complex = 1.0,
    flag_floor: float = 1e-12,
) -> tuple[SpiralSpectrum, tuple[tuple[int, int], ...]]:
    """Phase-resolved spiral spectrum from simulated interference.

    Intensity-only spiral imaging fixes |a_{lp}| but not arg(a_{lp}).
    Here each channel is interfered with a known reference amplitude in
    a two-port arrangement; detector intensities at four phase offsets

        I(d) = |a + e^{i d} ref|^2,   d in {0, pi/2, pi, 3pi/2}

    give Re and Im of a conj(ref) as intensity differences, from which
    the phase is reconstructed.  The magnitude comes from the direct
    (reference-blocked) intensity |a|^2.  Channels whose direct
    intensity falls below ``flag_floor`` times the object power carry no
    defined phase; they are zeroed and reported in the flagged list.
    """
    direct = project_object(profile, w0, l_max, p_max, wavelength, z)
    total = max(profile.power(), 1e-300)
    refs: dict[tuple[int, int], complex] = {}
    for key in direct.coefficients:
        refs[key] = complex(reference[key] if isinstance(reference, Mapping) else reference)
        if refs[key] == 0:
            raise ValueError(f"zero reference amplitude on channel {key}")
    recovered: dict[tuple[int, int], complex] = {}
    flagged: list[tuple[int, int]] = []
    for key, a in direct.coefficients.items():
        ref = refs[key]
        intensities = [abs(a + cmath.exp(1j * d) * ref) ** 2 for d in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
        direct_intensity = abs(a) ** 2
        if direct_intensity < flag_floor * total:
            recovered[key] = 0j
            flagged.append(key)
            continue
        re = (intensities[0] - intensities[2]) / 4.0
        im = (intensities[1] - intensities[3]) / 4.0
        phase = cmath.phase(complex(re, im)) + cmath.phase(ref)
        recovered[key] = math.sqrt(direct_intensity) * cmath.exp(1j * phase)
    spectrum = SpiralSpectrum(
        coefficients=recovered,
        residual=direct.residual,
        l_max=l_max,
        p_max=p_max,
    )
    return spectrum, tuple(sorted(flagged))


def detect_rotational_symmetry(
    spectrum: SpiralSpectrum, power_floor: float = SYMMETRY_POWER_FLOOR
) -> int:
    """Largest q with all significant charge weight on multiples of q.

    Channels below ``power_floor`` of the total spectral power are
    ignored.  Returns 0 when only l = 0 carries weight (a circularly
    symmetric object satisfies every q); a generic object returns 1.
    """
    total = spectrum.total_power()
    if total == 0:
        return 0
    significant = [
        l for l in spectrum.charges() if spectrum.charge_power(l) > power_floor * total
    ]
    nonzero = [abs(l) for l in significant if l != 0]
    if not nonzero:
        return 0
    return int(math.gcd(*nonzero)) if len(nonzero) > 1 else nonzero[0]


# ---------------------------------------------------------------------------
# rotational Doppler


@dataclass(frozen=True)
class BeatMeasurement:
    """Dominant nonzero spectral peak of the interference intensity."""

    beat: float            # rad/s
    resolution: float      # one DFT bin, rad/s
    detected: bool


def rotational_doppler_beat(
    l: int,
    rotation_rate: float,
    omega: float,
    duration: float,
    sample_rate: float,
) -> BeatMeasurement:
    """Beat frequency between +/-l beams reflected off a rotating body.

    The two reflected photons pick up equal and opposite frequency
    shifts omega +/- l Omega, so their combined intensity beats at
    2 l Omega; a large l converts a slow rotation into a fast, easily
    measured beat.  The intensity record is Hann-windowed, Fourier
    transformed, and the dominant nonzero peak refined by parabolic
    interpolation; the returned resolution is one DFT bin.
    """
    if l == 0:
        raise ValueError("need l != 0")
    if duration <= 0 or sample_rate <= 0:
        raise ValueError("duration and sample_rate must be positive")
    beat_true = 2.0 * abs(l) * abs(rotation_rate)
    if rotation_rate != 0.0:
        if sample_rate <= 2.0 * beat_true / (2.0 * math.pi):
            raise ResolutionError(
                f"sample rate {sample_rate} Hz cannot resolve a "
                f"{beat_true / (2 * math.pi):.3g} Hz beat"
            )
        if duration < 10.0 * (2.0 * math.pi / beat_true):
            raise ResolutionError("record shorter than 10 beat periods")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ResolutionError(f"a record of {n} sample(s) has no spectrum to search: need >= 2")
    t = np.arange(n) / sample_rate
    field = np.exp(1j * (omega + l * rotation_rate) * t) + np.exp(
        1j * (omega - l * rotation_rate) * t
    )
    intensity = np.abs(field) ** 2
    window = np.hanning(n)
    spectrum = np.abs(np.fft.rfft((intensity - intensity.mean()) * window))
    bin_width = 2.0 * math.pi * sample_rate / n
    peak = int(np.argmax(spectrum[1:]) + 1)
    if spectrum[peak] < 1e-9 * n:
        return BeatMeasurement(beat=0.0, resolution=bin_width, detected=False)
    if 1 <= peak < spectrum.size - 1:
        a, b, c = spectrum[peak - 1], spectrum[peak], spectrum[peak + 1]
        denom = a - 2 * b + c
        shift = 0.0 if denom == 0 else 0.5 * (a - c) / denom
    else:
        shift = 0.0
    return BeatMeasurement(
        beat=(peak + shift) * bin_width,
        resolution=bin_width,
        detected=True,
    )
