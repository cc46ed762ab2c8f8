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
never tabulates a mode on the full grid.  The radial profile depends on
l through |l| alone, so a projection builds the radial profiles of
every |l| <= l_max and p <= p_max from one Laguerre recurrence over p,
run on a (charges x r) array, and reads each for +l and -l.  Each
element keeps the float operations of a single mode's formula, and a
single mode is the same pass over one charge, so both paths give the
same bits.

Those radial profiles and the quadrature weights depend on the grid,
the beam and the truncation (l_max, p_max), not on the object.  The
last such basis is kept, read-only, so that projecting many objects at
one geometry (digital spiral imaging's use, and a correlated or rotated
projection) costs one angular DFT plus the radial sums per object.  The
process holds at most that one basis: (l_max + 1)(p_max + 1) n_r
complex numbers, the memory one projection allocates anyway.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .domains import require
from .fock import ResolutionError

DEFAULT_N_RADIAL = 128
DEFAULT_N_ANGULAR = 256
DEFAULT_RMAX_WAISTS = 6.0
SYMMETRY_POWER_FLOOR = 1e-6


@dataclass(frozen=True)
class LGModeSpec:
    """One Laguerre-Gauss mode: charge l, radial index p, geometry.

    ``w0`` is the waist radius and ``wavelength`` the optical wavelength,
    in the same length unit as ``z`` and the radial coordinate.  The
    Rayleigh range is derived, never stored; it must be finite and
    positive, which bounds w0 to about 1e-161 .. 1e154 at unit
    wavelength.
    """

    l: int
    p: int
    w0: float
    wavelength: float
    z: float = 0.0

    def __post_init__(self):
        require("p", self.p)
        require("p + |l|", self.p + abs(self.l))
        require("w0", self.w0)
        require("wavelength", self.wavelength)
        try:
            zr = self.rayleigh_range
        except OverflowError:
            zr = math.inf
        if not 0.0 < zr < math.inf:
            raise ValueError(
                f"w0 = {self.w0!r} at wavelength {self.wavelength!r} puts the Rayleigh range "
                f"pi w0^2 / wavelength outside the float range"
            )

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.w0 ** 2 / self.wavelength


def _normalization(p: int, la: int) -> float:
    """C = sqrt(2 p! / (pi (p + |l|)!)), for p + |l| <= 170 (``MODE_ORDER``)."""
    return math.sqrt(2 * math.factorial(p) / (math.pi * math.factorial(p + la)))


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


def _laguerre_family(n_max: int, alpha: int | np.ndarray, x: np.ndarray) -> Iterator[np.ndarray]:
    """Generalized Laguerre polynomials L_0^alpha(x) ... L_{n_max}^alpha(x)
    for integers n_max, alpha >= 0, from one run of the recurrence.

    ``alpha`` is an integer or an integer array that broadcasts against
    x, such as a column of charges; every element then runs the float
    operations of its scalar alpha, so one pass serves every alpha.

    L_0 = 1 and L_1 = alpha + 1 - x directly.  Past that the recurrence
    runs on the increments d_k = P_k - P_{k-1} of
    P_k = L_k^alpha / binom(k + alpha, k), starting from P_0 = 1:

        d_1 = -x / (alpha + 1)
        d_{k+1} = -x / (k + alpha + 1) P_k + k / (k + alpha + 1) d_k

    and each L_n is P_n scaled by binom(n + alpha, n).
    """
    if n_max < 0:
        return
    yield np.ones(np.broadcast_shapes(np.shape(alpha), np.shape(x)))
    if n_max == 0:
        return
    minus_x = -x
    yield minus_x + alpha + 1
    alphas = np.ravel(alpha).tolist()
    d = minus_x / (alpha + 1)
    p = d + 1
    for k in range(1, n_max):
        d = minus_x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
        binom = np.reshape([_binom(k + 1 + a, k + 1) for a in alphas], np.shape(alpha))
        yield binom * p


def _radial_families(
    w0: float,
    wavelength: float,
    z: float,
    r: np.ndarray,
    charges: Iterable[int],
    p_max: int,
    p_min: int = 0,
) -> list[np.ndarray]:
    """R_{lp}(r), the mode without its azimuthal factor (u = R e^{-i l theta}),
    for each |l| in ``charges`` and p = p_min .. p_max: ``families[p - p_min][i]``
    is R_{lp} of the i-th charge, on r of any shape.

    R holds the radial envelope, the wavefront curvature and the Gouy
    phase, none of which depends on theta, and it depends on l through
    |l| alone.  The beam radius, the Gaussian and the curvature are
    computed once for every mode, and one Laguerre recurrence over p runs
    on a (charges x r) array, the charges' coefficients as a column.
    Each element keeps the float operations of a single mode's R_{lp}, so
    a mode reads the same bits whichever charges it is built with.  The
    Gouy phase depends on (p, |l|) through 2p + |l| + 1 alone, so its
    phasor is evaluated once per value of that sum.

    The recurrence starts at p = 0 whatever ``p_min`` is, but it runs to
    its end, and drops its working arrays, before any product is formed,
    and only the orders from ``p_min`` on are multiplied out.  A single
    mode on a large mesh then holds one order's product, not p + 1 of them.
    """
    zr = LGModeSpec(0, 0, w0, wavelength, z).rayleigh_range
    w = w0 * math.sqrt(1.0 + (z / zr) ** 2)
    charges = list(charges)
    to_column = (-1,) + (1,) * np.ndim(r)
    column = np.reshape(charges, to_column)
    x = 2.0 * r ** 2 / w ** 2
    laguerres = list(itertools.islice(_laguerre_family(p_max, column, x), p_min, None))
    gaussian = np.exp(-(r ** 2) / w ** 2)
    gouy_angle = math.atan2(z, zr)
    if z == 0.0:
        curvature = 0.0
    else:
        k = 2.0 * math.pi / wavelength
        curvature = -k * r ** 2 * z / (2.0 * (z ** 2 + zr ** 2))
    # one ** per charge, as a single mode takes it: ``** 2`` squares where
    # a broadcast power with an exponent array would call pow
    base = np.sqrt(2.0) * r / w
    power = np.stack([base ** la for la in charges])
    # the phasor of each order 2p + |l| + 1 some mode takes, in order;
    # np.unique without a return flag would import numpy.ma
    orders = np.array(sorted({2 * p + 1 + la for p in range(p_min, p_max + 1) for la in charges}))
    phasors = np.exp(1j * (curvature + orders.reshape(to_column) * gouy_angle))
    families = []
    for p, laguerre in enumerate(laguerres, start=p_min):
        normalization = np.reshape([_normalization(p, la) for la in charges], column.shape) / w
        radial = normalization * power * gaussian * laguerre
        families.append(radial * phasors[np.searchsorted(orders, column.ravel() + (2 * p + 1))])
    return families


def _lg_radial(spec: LGModeSpec, r: np.ndarray) -> np.ndarray:
    """R_{lp}(r) of one mode: u = R e^{-i l theta}."""
    return _radial_families(spec.w0, spec.wavelength, spec.z, r, [abs(spec.l)], spec.p, spec.p)[0][0]


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
        require("n_r", self.n_r)
        require("n_theta", self.n_theta)
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
    row-major, radius first, and read-only, so the power is formed once.
    """

    def __init__(self, grid: PolarGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.n_r, grid.n_theta):
            raise ValueError(f"samples must have shape ({grid.n_r}, {grid.n_theta})")
        magnitude = np.abs(samples)
        # written so that a NaN sample fails it too
        if not np.max(magnitude) <= 1.0 + 1e-9:
            raise ValueError("|f| must be finite and must not exceed 1 (passive object)")
        r, wr, _ = grid.nodes()
        self._power = float(np.sum(magnitude ** 2 * (wr * r)[:, None]) * grid.dtheta)
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
        return self._power


def default_grid(w0: float, n_r: int = DEFAULT_N_RADIAL, n_theta: int = DEFAULT_N_ANGULAR) -> PolarGrid:
    return PolarGrid(n_r, n_theta, DEFAULT_RMAX_WAISTS * w0)


# -- synthetic objects -------------------------------------------------------


def disk_object(grid: PolarGrid, radius: float) -> ObjectProfile:
    """Uniform open disk: circularly symmetric, so only l = 0 carries power."""
    return ObjectProfile.from_function(
        grid, lambda r, t: np.where(r <= radius, 1.0, 0.0)
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


@functools.lru_cache(maxsize=1)
def _radial_basis(
    grid: PolarGrid, w0: float, wavelength: float, z: float, l_max: int, p_max: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The object-independent half of a projection on ``grid``: the
    quadrature weight w_r r dtheta and ``_radial_families`` of every
    |l| <= l_max and p <= p_max on the grid's radii.

    Kept for the last geometry asked for and shared read-only, so
    projections of many objects at one geometry build it once.  It holds
    (l_max + 1)(p_max + 1) n_r complex numbers, which a projection
    otherwise allocates for the length of its call.
    """
    r, wr, _ = grid.nodes()
    weight = wr * r * grid.dtheta
    families = tuple(_radial_families(w0, wavelength, z, r, range(l_max + 1), p_max))
    for array in (weight, *families):
        array.setflags(write=False)
    return weight, families


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

    R_{lp} = R_{-l,p}, so the radial factors of every |l| <= l_max and
    p <= p_max come from one recurrence over p on a (charges x r) array,
    with the float operations of a single mode's R_{lp}; every
    coefficient is the per-mode radial sum, bit for bit.  Requires
    l_max, p_max >= 0, and n_theta >= 4 l_max so the angular harmonics
    up to l_max are unaliased on the grid.

    The weights and radial factors do not depend on the object, so they
    are kept for the last (grid, w0, wavelength, z, l_max, p_max) and
    shared read-only (``_radial_basis``): a repeated projection at one
    geometry costs the angular DFT and the radial sums.  The kept basis
    is at most (l_max + 1)(p_max + 1) n_r complex numbers, 258 KB at
    l_max 20, p_max 5 and n_r 128.  Refused arguments are refused before
    the basis is built or looked up.
    """
    require("l_max", l_max)
    require("p_max", p_max)
    require("l_max + p_max", l_max + p_max)
    n_theta = profile.grid.n_theta
    if n_theta < 4 * l_max:
        raise ResolutionError(f"n_theta = {n_theta} < 4 l_max = {4 * l_max}")
    weight, families = _radial_basis(profile.grid, w0, wavelength, z, l_max, p_max)
    harmonics, _ = _angular_harmonics(profile)
    coeffs = {}
    charges = range(-l_max, l_max + 1)
    weighted = harmonics.T[[(-l) % n_theta for l in charges]] * weight
    for l, row in zip(charges, weighted):
        for p, family in enumerate(families):
            coeffs[(l, p)] = complex(np.vdot(family[abs(l)], row))
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
    require("rotation", theta0)
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
) -> tuple[SpiralSpectrum, tuple[tuple[int, int], ...]]:
    """Phase-resolved spiral spectrum from simulated interference.

    Intensity-only spiral imaging fixes |a_{lp}| but not arg(a_{lp}).
    Here each channel is interfered with the unit reference amplitude
    ref = 1 in a two-port arrangement; detector intensities at four
    phase offsets

        I(d) = |a + e^{i d} ref|^2,   d in {0, pi/2, pi, 3pi/2}

    give Re and Im of a conj(ref) as intensity differences, from which
    the phase is reconstructed.  The magnitude comes from the direct
    (reference-blocked) intensity |a|^2.  Channels whose direct
    intensity falls below 1e-12 times the object power carry no defined
    phase; they are zeroed and reported in the flagged list.
    """
    direct = project_object(profile, w0, l_max, p_max, wavelength, z)
    total = max(profile.power(), 1e-300)
    ref = complex(1.0)
    offsets = [cmath.exp(1j * d) * ref for d in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    ref_phase = cmath.phase(ref)
    recovered: dict[tuple[int, int], complex] = {}
    flagged: list[tuple[int, int]] = []
    for key, a in direct.coefficients.items():
        intensities = [abs(a + offset) ** 2 for offset in offsets]
        direct_intensity = abs(a) ** 2
        if direct_intensity < 1e-12 * total:
            recovered[key] = 0j
            flagged.append(key)
            continue
        re = (intensities[0] - intensities[2]) / 4.0
        im = (intensities[1] - intensities[3]) / 4.0
        phase = cmath.phase(complex(re, im)) + ref_phase
        recovered[key] = math.sqrt(direct_intensity) * cmath.exp(1j * phase)
    spectrum = SpiralSpectrum(
        coefficients=recovered,
        residual=direct.residual,
        l_max=l_max,
        p_max=p_max,
    )
    return spectrum, tuple(sorted(flagged))


def detect_rotational_symmetry(spectrum: SpiralSpectrum) -> int:
    """Largest q with all significant charge weight on multiples of q.

    Channels below ``SYMMETRY_POWER_FLOOR`` of the total spectral power
    are ignored.  Returns 0 when only l = 0 carries weight (a circularly
    symmetric object satisfies every q); a generic object returns 1.
    """
    total = spectrum.total_power()
    if total == 0:
        return 0
    significant = [
        l for l in spectrum.charges() if spectrum.charge_power(l) > SYMMETRY_POWER_FLOOR * total
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


def _phasors(theta: float, count: int) -> np.ndarray:
    """The row e^{i theta m} for m = 0 .. count - 1.

    With C = ceil(sqrt(count)) each m is q C + r, and the entry is the
    product of e^{i theta q C} and e^{i theta r}, read from two tables of
    about sqrt(count) entries each.  The tables are filled with cos and
    sin, so the row costs about 2 sqrt(count) trig pairs and count
    complex products instead of count complex exponentials.  An entry
    differs from e^{i theta m} by a few ulp plus the rounding of
    theta m, which grows as |theta| m.
    """
    width = math.isqrt(count - 1) + 1
    steps = (np.arange(width), width * np.arange(-(-count // width)))
    fine, coarse = (np.empty(m.size, dtype=complex) for m in steps)
    for table, m in zip((fine, coarse), steps):
        angle = theta * m
        table.real = np.cos(angle)
        table.imag = np.sin(angle)
    return np.outer(coarse, fine).ravel()[:count]


@functools.lru_cache(maxsize=4)
def _hann(n: int) -> np.ndarray:
    """The n-point Hann window, built once per record length and shared
    read-only; a record can be long, so only a few lengths are kept."""
    window = np.hanning(n)
    window.setflags(write=False)
    return window


def _beat_record(per_sample: float, n: int) -> np.ndarray:
    """|e^{i theta m} + e^{-i theta m}|^2 over m = 0 .. n - 1, from one row.

    ``_phasors`` of -theta is the conjugate of its row at +theta bit for
    bit (cos is even and sin odd), so the sum is 2 Re exactly and its
    squared magnitude is (2 Re)^2.
    """
    return (2.0 * _phasors(per_sample, n).real) ** 2


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

    The beams are built in the frame that rotates at the carrier, as
    e^{+/- i l Omega t}.  A square-law detector's |E|^2 does not depend
    on omega, so omega is checked but does not enter the record, and the
    beat survives any finite carrier; in the lab frame omega +/- l Omega
    rounds to omega once omega is large.
    """
    require("omega", omega)
    require("rotation_rates", rotation_rate)
    require("l", l)
    require("duration", duration)
    require("sample_rate", sample_rate)
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
    intensity = _beat_record(l * rotation_rate / sample_rate, n)
    spectrum = np.abs(np.fft.rfft((intensity - intensity.mean()) * _hann(n)))
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
