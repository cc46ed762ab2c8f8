"""Frequency-domain biphoton propagation and coincidence interferometry.

A dispersive medium multiplies each photon amplitude by e^{i L k(omega)}
with k expanded about the pair's center frequency:

    L k(omega0 + d) = L sum_n beta_n d^n / n!

For a frequency-anticorrelated pair (photons at omega0 +/- d) the
coincidence interferograms depend on k only through sums or differences
of the two arms' phases, which is what separates the even-order terms
from the odd-order ones: configurations below are arranged so that the
even orders (including the group-velocity-dispersion beta_2 that
dominates classical pulse broadening) drop out of the coincidence
envelope, while odd orders survive as a rigid shift (beta_1) or a shape
change (beta_3).

Units are the caller's as long as beta_n L d^n is dimensionless: with
detunings in rad/fs, beta_n L carries fs^n.  Delay scans use the same
time unit.

What depends only on the grids is built once per grid and shared
read-only: the weight-independent half of each chirp-z sum
(``_fourier_plan``), keyed on the bytes of every value it reads, so a
repeated interferogram on one grid pays only for its weights and returns
the same bits as a cold call.  It holds at most 8 plans, each O(n + m)
complex numbers for n bins and m delays.

The classical baseline keeps two more, on the same rule: the sample
times of the zero-padded pulse (``_pulse_times``, keyed on the bin count
and the step, at most 2 grids of 16 n float64) and the transform-limited
width, which reads the pulse and never the medium (``_transform_limit``,
keyed on the bytes of the complex amplitude and the step, at most 8
widths, each keyed on 16 n bytes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .domains import require
from .fock import FockError, ResolutionError
from .sources import BiphotonSpectrum, _require_squarable_width, _uniform_grid


class FitError(FockError):
    """The interferogram has no feature the model can be fitted to."""


# half the float64 range: two arm phases within it always add to a finite one
_PHASE_LIMIT = np.finfo(float).max / 2


@dataclass(frozen=True)
class DispersionProfile:
    """Taylor coefficients beta_0..beta_3 of k(omega) and a length.

    The accumulated phase at detuning d is L sum_n beta_n d^n / n!.
    Every medium phase is formed here.  A phase is refused where its
    magnitude passes half the float64 range on the given detunings, so
    that the sum or difference of two arm phases stays finite.
    """

    beta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    length: float = 0.0

    def __post_init__(self):
        require("beta", tuple(self.beta))  # an array counts as its entries
        require("length", self.length)

    def phase(self, detuning: np.ndarray) -> np.ndarray:
        """The accumulated phase at each detuning, shaped like ``detuning``.

        The powers d^n are formed by repeated multiplication up to the
        highest nonzero order, so (-d)^n is (-1)^n d^n bit for bit.  The
        phase is refused where it passes half the float64 range.
        """
        d = np.asarray(detuning, dtype=float)
        top = max((n for n, b in enumerate(self.beta) if b != 0.0), default=0)
        powers = [np.ones_like(d), d]
        acc = np.zeros_like(d)
        with np.errstate(over="ignore", invalid="ignore"):
            while len(powers) <= top:
                powers.append(powers[-1] * d)
            for n, b in enumerate(self.beta):
                if b != 0.0:
                    acc = acc + b * powers[n] / math.factorial(n)
            phase = self.length * acc
        # NaN fails the comparison too
        if not np.all(np.abs(phase) <= _PHASE_LIMIT):
            raise ValueError(
                f"the phase of the medium with beta {self.beta} and length {self.length!r} "
                f"passes {_PHASE_LIMIT:.4g} rad on this detuning grid: a sum of two such "
                "phases is outside the range float64 can hold"
            )
        return phase


VACUUM_PROFILE = DispersionProfile()


def opposite_dispersion(profile: DispersionProfile) -> DispersionProfile:
    """The matched opposite-dispersion medium: every order negated."""
    return DispersionProfile(tuple(-b for b in profile.beta), profile.length)


def propagate(
    spectrum: BiphotonSpectrum,
    signal: DispersionProfile = VACUUM_PROFILE,
    idler: DispersionProfile = VACUUM_PROFILE,
) -> BiphotonSpectrum:
    """Send the pair through per-arm media.

    The signal photon of the term at detuning d sits at omega0 + d and
    the idler at omega0 - d, so the joint amplitude acquires
    e^{i [phi_s(d) + phi_i(-d)]}.  A beta_1-only medium is a pure delay:
    features translate by beta_1 L without reshaping.  Opposite-
    dispersion media in the two arms cancel the joint phase at second
    (and every even) order, since (-d)^2 = d^2.
    """
    d = spectrum.detunings
    joint = signal.phase(d) + idler.phase(-d)
    return spectrum.with_amplitude(spectrum.amplitude * np.exp(1j * joint))


@dataclass(frozen=True)
class Interferogram:
    """Coincidence (or envelope) rate against a scan parameter.

    ``kernel`` is the complex interference envelope whose squared
    magnitude carries the feature used for width and centroid metrics;
    ``rates`` are normalized probabilities in [0, 1].
    """

    scan: np.ndarray
    rates: np.ndarray
    kernel: np.ndarray
    configuration: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        scan = np.asarray(self.scan, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if scan.ndim != 1 or rates.shape != scan.shape:
            raise ValueError("scan and rates must be matching 1-D arrays")
        if np.any(np.diff(scan) <= 0):
            raise ValueError("scan grid must be strictly increasing")
        # written so that a NaN rate fails it
        if not (rates.min() >= -1e-9 and rates.max() <= 1 + 1e-9):
            raise ValueError("rates must lie in [0, 1]")
        object.__setattr__(self, "scan", scan)
        object.__setattr__(self, "rates", np.clip(rates, 0.0, 1.0))
        object.__setattr__(self, "kernel", np.asarray(self.kernel, dtype=complex))


@functools.lru_cache(maxsize=8)
def _fourier_plan(
    ends: bytes, n: int, delays: bytes, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The weight-independent half of ``_fourier_sum``: the half-chirp,
    the tile shifts, the chirp spectrum and the post-chirp, read-only.

    ``ends`` holds the float64 bytes of the first and last of the n
    detunings, the only detunings the plan reads; ``delays`` holds the
    bytes of every delay, since the post-chirp reads them all (the
    uniformity rule lets them sit 4 ulp off the line through the grid
    ends).  With side t = min(n, m) one tile count is 1, so a plan holds
    t + (m + t) + 4t + (n + t) < 5 (n + m) complex numbers.  Eight plans
    keep the three scales of the interferograms on two grids.
    """
    d0, d1 = np.frombuffer(ends)
    delays = np.frombuffer(delays)
    m = delays.size
    side = min(n, m)
    h = (d1 - d0) / (n - 1)
    dtau = (delays[-1] - delays[0]) / (m - 1)
    alpha = scale * h * dtau
    rows, cols = -(-m // side), -(-n // side)
    centred = np.arange(side) - 0.5 * (side - 1)
    half_chirp = np.exp(0.5j * alpha * centred ** 2)
    tau_centres = delays[0] + dtau * (side * np.arange(rows) + 0.5 * (side - 1))
    d_centres = d0 + h * (side * np.arange(cols) + 0.5 * (side - 1))
    shift = np.exp(1j * scale * h * np.outer(tau_centres, centred))
    length = 1 << (2 * side - 2).bit_length()
    lags = np.fft.fftfreq(length, 1.0 / length)
    chirp = np.fft.fft(np.exp(-0.5j * alpha * lags ** 2))
    taus = np.zeros(rows * side)
    taus[:m] = delays
    post = np.exp(1j * scale * np.outer(d_centres, taus)).reshape(cols, rows, side)
    for array in (half_chirp, shift, chirp, post):
        array.setflags(write=False)
    return half_chirp, shift, chirp, post


def _fourier_sum(delays: np.ndarray, detunings: np.ndarray, weights: np.ndarray, scale: float) -> np.ndarray:
    """sum_k w_k e^{i scale d_k tau_j} for every delay tau_j, as a tiled
    chirp-z transform.

    Both grids are uniform with at least two points, d_k = d_0 + k h and
    tau_j = tau_0 + j dtau, with h and dtau taken from the grid ends
    (``_require_delay_resolution`` refuses any other delay grid).  The
    (delay x detuning) plane is cut into tiles of side t = min(n, m);
    the weights are zero-padded, and the delays extended, to whole tiles.
    Inside a tile with centres D (detuning) and T (delay) and centred
    indices k', j' (d = D + k' h, tau = T + j' dtau), with
    alpha = scale h dtau and Bluestein's k'j' = (k'^2 + j'^2 - (j' - k')^2) / 2,

        e^{i s d tau} = e^{i s D tau} e^{i alpha j'^2 / 2}
                        e^{i s h T k'} e^{i alpha k'^2 / 2} e^{-i alpha (j' - k')^2 / 2},

    so each tile is one linear convolution of the pre-chirped weights
    with the chirp e^{-i alpha r^2 / 2}, |r| < t, done for all tiles as
    one batched FFT convolution of length 2^ceil(log2(2t - 1)).  The
    post-chirp carries e^{i s D tau} at the actual delays, and the tiles
    of one delay row are summed.  The tile side bounds every chirp phase by
    about |alpha| t^2 / 2 <= |scale| n h max|tau|; one tile over the whole
    plane would reach alpha (n + m)^2 / 8 and lose accuracy on long,
    narrow planes.

    Everything but the weights comes from ``_fourier_plan``, built once
    per detuning grid, delay grid and scale and kept for the last eight
    (each under 5 (n + m) complex numbers); a call pays for the padding,
    the pre-chirp, the batched FFT convolution and the tile sums, and
    returns the bits a cold call gives.
    """
    n, m = detunings.size, delays.size
    half_chirp, shift, chirp, post = _fourier_plan(detunings[[0, -1]].tobytes(), n, delays.tobytes(), scale)
    rows, side = shift.shape
    cols = post.shape[0]
    padded = np.zeros(cols * side, dtype=complex)
    padded[:n] = weights
    pre = (padded.reshape(cols, side) * half_chirp)[None, :, :] * shift[:, None, :]
    tiles = np.fft.ifft(np.fft.fft(pre, chirp.size) * chirp)[..., :side]
    return (np.einsum("crj,rcj->rj", post, tiles) * half_chirp).reshape(-1)[:m]


def _require_delay_resolution(spectrum: BiphotonSpectrum, delays: np.ndarray, rate_max: float):
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size < 2:
        raise ValueError("need a 1-D delay grid with at least two points")
    dtau = np.min(np.diff(delays))
    if dtau <= 0:
        raise ValueError("delay grid must be strictly increasing")
    # uniform as np.linspace builds it: every delay within 4 ulp (of the
    # larger end) of the line through the grid ends
    line = delays[0] + (delays[-1] - delays[0]) / (delays.size - 1) * np.arange(delays.size)
    if not np.all(np.abs(delays - line) <= 4 * np.spacing(max(abs(delays[0]), abs(delays[-1])))):
        raise ValueError("delay grid must be uniform: every delay within 4 ulp of the line through its ends")
    if dtau * rate_max >= math.pi:
        raise ResolutionError(
            f"delay step {dtau:.3g} cannot sample oscillations at {rate_max:.3g} rad/unit"
        )
    tau_range = max(abs(delays[0]), abs(delays[-1]))
    if spectrum.step * 2.0 * tau_range >= math.pi:
        raise ResolutionError(
            "detuning grid too coarse for the requested delay range "
            f"(step {spectrum.step:.3g}, range {tau_range:.3g})"
        )
    return delays


def hom_interferogram(
    spectrum: BiphotonSpectrum,
    delays: np.ndarray,
    signal: DispersionProfile = VACUUM_PROFILE,
    idler: DispersionProfile = VACUUM_PROFILE,
) -> Interferogram:
    """Coincidence dip of the two-input mixing geometry against the
    idler-arm delay.

    Signal and idler arms, carrying their media, meet on a 50:50
    splitter; the scanned delay sits in the idler arm.  The coincidence
    rate is (1 - Re K)/2 with the exchange kernel

        K(tau) = sum_d a(d) conj(a(-d)) e^{-2 i d tau} step,

    so only the part of the joint phase that is odd in d survives: a
    medium in one arm contributes its odd orders doubled, and equal
    media in both arms drop out entirely.  For the symmetric entangled
    source the dip reaches zero at the balance point; a beta_1-only
    medium in the signal arm moves the dip center to +beta_1 L, and
    beta_2 leaves the dip untouched whether it sits in one arm or both.
    ``extras["bunched"]`` holds the bunching rate (1 + Re K)/2, so
    coincidence plus bunching is exactly 1.  The sum runs on the uniform
    grids of detunings and delays through ``_fourier_sum``, as one
    chirp-z FFT, never as a delay x detuning matrix; a delay grid that
    is not uniform is refused.
    """
    prop = propagate(spectrum, signal=signal, idler=idler)
    a = prop.amplitude
    weights = a * np.conj(a[::-1]) * prop.step
    delays = _require_delay_resolution(prop, delays, 2 * float(prop.detunings[-1]))
    kernel = _fourier_sum(delays, prop.detunings, weights, -2.0)
    return Interferogram(
        scan=delays,
        rates=0.5 * (1.0 - kernel.real),
        kernel=kernel,
        configuration="hom",
        extras={"bunched": 0.5 * (1.0 + kernel.real)},
    )


def skc_interferogram(
    spectrum: BiphotonSpectrum,
    medium: DispersionProfile,
    delays: np.ndarray,
    include_fringes: bool = True,
) -> Interferogram:
    """Two-port coincidence rate of the one-port-fed interferometer.

    Both photons of the pair enter one input port of a balanced
    two-splitter interferometer whose scanned arm also holds the medium;
    coincidences are counted between the two output ports.  Each photon
    at omega acquires phi(omega) = omega tau + phi_m(omega), giving

        P_cd = 1/2 - (1/4) Re S - (1/4) Re K
        S(tau) = e^{2 i omega0 tau} < e^{i [phi_m(+d) + phi_m(-d)]} >
        K(tau) = < e^{i [2 d tau + phi_m(+d) - phi_m(-d)]} >

    with < . > the average over |a(d)|^2.  The fringes S oscillate at
    twice the center frequency; the coincidence envelope K sees only the
    odd-order part of the medium phase, which is the even-order
    cancellation.  With an empty medium this is the textbook coincidence
    fringe pattern under a bandwidth-limited envelope; a beta_2-only
    medium chirps the fringes but leaves the envelope width untouched,
    while beta_3 reshapes the envelope.  With ``include_fringes=False``
    the fringe term is averaged away (rates then sit on the envelope
    alone).  ``extras`` holds the bunching rate 1 - P_cd as
    ``"bunched"`` and S as ``"fringe"``.  K is summed on the uniform
    grids of detunings and delays through ``_fourier_sum``, as one
    chirp-z FFT; a delay grid that is not uniform is refused.
    """
    d = spectrum.detunings
    intensity = np.abs(spectrum.amplitude) ** 2 * spectrum.step
    phi_plus = medium.phase(d)
    phi_minus = medium.phase(-d)
    rate_max = 2.0 * (abs(spectrum.omega0) + float(d[-1])) if include_fringes else 2.0 * float(d[-1])
    delays = _require_delay_resolution(spectrum, delays, rate_max)
    envelope_weights = intensity * np.exp(1j * (phi_plus - phi_minus))
    kernel = _fourier_sum(delays, d, envelope_weights, 2.0)
    if include_fringes:
        fringe_weights = intensity * np.exp(1j * (phi_plus + phi_minus))
        fringe = np.exp(2j * spectrum.omega0 * delays) * np.sum(fringe_weights)
    else:
        fringe = np.zeros_like(kernel)
    coincidence = 0.5 - 0.25 * fringe.real - 0.25 * kernel.real
    return Interferogram(
        scan=delays,
        rates=coincidence,
        kernel=kernel,
        configuration="skc",
        extras={"bunched": 1.0 - coincidence, "fringe": fringe},
    )


def correlation_envelope(spectrum: BiphotonSpectrum, delays: np.ndarray) -> Interferogram:
    """Arrival-time-difference envelope |psi(tau)|^2, peak-normalized.

    psi is the Fourier transform of the joint amplitude along the
    detuning axis; its squared magnitude is the coincidence envelope a
    start-stop correlator records.  The transform is summed on the
    uniform grids of detunings and delays through ``_fourier_sum``, as
    one chirp-z FFT; a delay grid that is not uniform is refused.
    """
    delays = _require_delay_resolution(spectrum, delays, float(spectrum.detunings[-1]))
    psi = _fourier_sum(delays, spectrum.detunings, spectrum.amplitude * spectrum.step, -1.0)
    intensity = np.abs(psi) ** 2
    peak = intensity.max()
    if peak == 0:
        raise FitError("empty correlation envelope")
    return Interferogram(
        scan=delays,
        rates=intensity / peak,
        kernel=psi,
        configuration="correlation",
    )


def franson_interferogram(
    spectrum: BiphotonSpectrum,
    medium: DispersionProfile,
    delays: np.ndarray,
) -> Interferogram:
    """Coincidence envelope with opposite-dispersion media in the arms.

    The signal propagates through ``medium`` and the idler through its
    negated twin.  Because the photons are frequency-anticorrelated, the
    even-order joint phase cancels between the arms and the correlation
    envelope keeps its width; odd orders add instead.
    """
    prop = propagate(spectrum, signal=medium, idler=opposite_dispersion(medium))
    return replace(correlation_envelope(prop, delays), configuration="franson")


# ---------------------------------------------------------------------------
# classical single-photon baseline


@dataclass(frozen=True)
class PulseSpectrum:
    """Classical (or single-photon) spectral amplitude over detuning.

    The detunings are a uniform, strictly increasing grid of at least 8
    bins.  The pulse keeps read-only copies of both arrays."""

    detunings: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        d, a = _uniform_grid(self.detunings, self.amplitude, 8, "need matching 1-D arrays with >= 8 bins")
        # a medium phase squares the detunings, and classical_baseline weighs
        # squared times, up to the conjugate span 2 pi / step, by the pulse
        # intensity, which stays below (sum |a|)^2
        reach, step = float(np.max(np.abs(d))), float(d[1] - d[0])
        moment = 2 * math.pi / step * float(np.sum(np.abs(a)))
        if not (math.isfinite(reach * reach) and math.isfinite(moment * moment)):
            raise ValueError(
                f"pulse moments are not finite: a spectrum of width {float(d[-1] - d[0])!r} "
                "(detuning span) is outside the range float64 can hold"
            )
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "amplitude", a)

    @staticmethod
    def gaussian(sigma_omega: float) -> "PulseSpectrum":
        """Amplitude exp(-d^2 / (2 sigma^2)); sigma is the amplitude std.
        The grid has 2048 bins over |d| <= 8 sigma."""
        edge = 8.0 * sigma_omega
        _require_squarable_width(sigma_omega, edge)
        d = np.linspace(-edge, edge, 2048, endpoint=False) + edge / 2048
        return PulseSpectrum(d, np.exp(-(d ** 2) / (2 * sigma_omega ** 2)))


@dataclass(frozen=True)
class PulseWidths:
    """Temporal RMS widths before and after a dispersive medium."""

    width: float
    transform_limit: float

    @property
    def broadening(self) -> float:
        return self.width / self.transform_limit


@functools.lru_cache(maxsize=2)
def _pulse_times(bins: int, step: float) -> np.ndarray:
    """The sample times of a pulse of ``bins`` detunings spaced ``step``,
    zero-padded to 16 ``bins`` points, in fftshift order, read-only.  Two
    entries retain at most 2 x 16 bins float64: 512 KB at the 2048 bins
    of ``PulseSpectrum.gaussian``."""
    n = bins * 16
    t = np.fft.fftshift(np.fft.fftfreq(n, d=step / (2 * math.pi)))
    t.setflags(write=False)
    return t


def _temporal_rms_width(amplitude: np.ndarray, step: float) -> float:
    # zero-padded sixteenfold, to sample the pulse finely in time; the
    # square is elementwise, so shifting the intensity instead of the
    # field gives the same bits
    intensity = np.fft.fftshift(np.abs(np.fft.fft(amplitude, n=amplitude.size * 16)) ** 2)
    t = _pulse_times(amplitude.size, step)
    total = intensity.sum()
    mean = float((t * intensity).sum() / total)
    return math.sqrt(float(((t - mean) ** 2 * intensity).sum() / total))


@functools.lru_cache(maxsize=8)
def _transform_limit(amplitude: bytes, step: float) -> float:
    """The RMS width of the unchirped pulse, |a| with every phase
    removed, for the complex amplitude whose bytes are ``amplitude`` (they
    fix the bin count) on detunings spaced ``step``.  It reads nothing of
    a medium.  Eight entries retain at most 8 x 16 bins bytes of keys."""
    return _temporal_rms_width(np.abs(np.frombuffer(amplitude, dtype=complex)).astype(complex), step)


def classical_baseline(
    pulse: PulseSpectrum,
    medium: DispersionProfile,
) -> PulseWidths:
    """Temporal RMS width of a classical pulse after the medium.

    This is the broadening the coincidence schemes avoid: a quadratic
    spectral phase chirps the pulse, and for a Gaussian of amplitude std
    sigma the width grows by sqrt(1 + (beta_2 L sigma^2)^2).  Computed
    by Fourier synthesis on a zero-padded grid.  The transform limit
    depends on the pulse alone and is kept per pulse
    (``_transform_limit``); the dispersed width is formed on every call.
    """
    step = float(pulse.detunings[1] - pulse.detunings[0])
    phase = medium.phase(pulse.detunings)
    width = _temporal_rms_width(pulse.amplitude * np.exp(1j * phase), step)
    limit = _transform_limit(pulse.amplitude.tobytes(), step)
    return PulseWidths(width=width, transform_limit=limit)


# ---------------------------------------------------------------------------
# envelope metrics and delay extraction


def _envelope_distribution(gram: Interferogram) -> tuple[np.ndarray, np.ndarray]:
    weight = np.abs(gram.kernel) ** 2
    total = weight.sum()
    if total <= 0:
        raise FitError("featureless interferogram")
    return gram.scan, weight / total


def envelope_center(gram: Interferogram) -> float:
    """First moment of the squared envelope."""
    tau, w = _envelope_distribution(gram)
    return float((tau * w).sum())


def envelope_rms_width(gram: Interferogram) -> float:
    """Centered second moment of the squared envelope."""
    tau, w = _envelope_distribution(gram)
    mean = float((tau * w).sum())
    width = math.sqrt(float(((tau - mean) ** 2 * w).sum()))
    if width == 0.0:
        raise FitError("zero-width envelope: the scan does not resolve it")
    return width


def envelope_kurtosis(gram: Interferogram) -> float:
    """mu_4 / mu_2^2 of the squared envelope; 3 for a Gaussian.

    The ratio does not depend on the delay unit, so the centred delays
    are divided by their largest magnitude before the moments are taken:
    a scan of any width reads the same value instead of underflowing.
    """
    tau, w = _envelope_distribution(gram)
    d = tau - float((tau * w).sum())
    scale = float(np.abs(d).max())
    if scale == 0.0:
        raise FitError("zero-width envelope: every centred delay is 0")
    d = d / scale
    m2 = float((d ** 2 * w).sum())
    if m2 == 0.0:
        raise FitError("zero-width envelope: its weight sits at one delay")
    return float((d ** 4 * w).sum()) / (m2 * m2)


def fringe_visibility(rates: np.ndarray) -> float:
    """(max - min) / (max + min) of a rate curve."""
    rates = np.asarray(rates, dtype=float)
    hi, lo = float(rates.max()), float(rates.min())
    if hi + lo == 0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class DelayFit:
    """Dip/peak center and its standard error from a model fit."""

    delay: float
    stderr: float
    visibility: float


_FIT_TOL = 1e-12
_FIT_MAX_EVALS = 2000


class _DipPoint(NamedTuple):
    """The dip model at one (center, width), with its depth and base in
    closed form."""

    center: float
    width: float
    u: np.ndarray         # (tau - center) / width
    g: np.ndarray         # exp(-u^2 / 2)
    sg: float             # sum g
    sgg: float            # sum g^2
    det: float            # m sgg - sg^2
    depth: float
    base: float
    residual: np.ndarray  # base - depth g - y
    cost: float           # sum residual^2


def _dip_point(tau: np.ndarray, y: np.ndarray, center: float, width: float) -> _DipPoint | None:
    """Depth v and base b minimizing sum (b - v g - y)^2 at this (center,
    width), from the normal equations in the four sums sum g, sum g^2,
    sum y and sum g y.  None where that 2 x 2 system is singular: its
    determinant m sum (g - mean g)^2 vanishes for a g that is flat on
    the scan or underflows on all of it, and below m eps (m sum g^2),
    the bound on the rounding of m sum g^2 - (sum g)^2, it is noise.  A
    NaN anywhere fails the same test.  The caller holds numpy's floating
    point errors off.
    """
    m = tau.size
    u = tau - center
    u /= width
    g = u * u
    g *= -0.5
    np.exp(g, out=g)
    sg, sgg, sy, sgy = float(g.sum()), float(g @ g), float(y.sum()), float(g @ y)
    det = m * sgg - sg * sg
    if not det > m * np.finfo(float).eps * m * sgg:
        return None
    depth = (sg * sy - m * sgy) / det
    base = (sgg * sy - sg * sgy) / det
    residual = g * -depth
    residual += base
    residual -= y
    return _DipPoint(center, width, u, g, sg, sgg, det, depth, base, residual, float(residual @ residual))


def _dip_derivatives(point: _DipPoint) -> tuple[np.ndarray, np.ndarray]:
    """d residual / d center and d residual / d width at fixed depth and base."""
    by_center = point.g * point.u
    by_center *= -point.depth / point.width
    return by_center, by_center * point.u


def _projected_normal(point: _DipPoint) -> tuple[float, float, float, float, float]:
    """J^T J (its entries 00, 01, 11) and J^T r for the projected residual
    in (center, width), as Python floats.

    J holds Kaufman's columns: the derivatives x_i at fixed depth and
    base, less their part in span{g, 1}.  Their products are formed from
    sums, x_i . x_j - p_i^T M^-1 p_j with p_i = (g . x_i, sum x_i) and
    M = [[sum g^2, sum g], [sum g, m]]; r is orthogonal to g and 1, so
    J^T r is x_i . r.
    """
    m, g, r, sg, sgg, det = point.g.size, point.g, point.residual, point.sg, point.sgg, point.det
    x0, x1 = _dip_derivatives(point)
    p0, q0, p1, q1 = float(g @ x0), float(x0.sum()), float(g @ x1), float(x1.sum())

    def projected(pa, qa, pb, qb):
        return (m * pa * pb - sg * (pa * qb + qa * pb) + sgg * qa * qb) / det

    return (
        float(x0 @ x0) - projected(p0, q0, p0, q0),
        float(x0 @ x1) - projected(p0, q0, p1, q1),
        float(x1 @ x1) - projected(p1, q1, p1, q1),
        float(x0 @ r),
        float(x1 @ r),
    )


def _fit_dip(tau: np.ndarray, y: np.ndarray, p0: tuple[float, float]) -> tuple[np.ndarray, float]:
    """Least squares of the Gaussian dip b - v exp(-(tau - c)^2 / (2 w^2))
    by variable projection (Golub and Pereyra).

    At each (c, w) the linear depth v and base b come in closed form
    (``_dip_point``), so Levenberg-Marquardt runs on (c, w) alone, from
    ``p0``.  Each step solves the 2 x 2 system (J^T J + lam D) step =
    -J^T r by Cramer's rule in Python floats, on Kaufman's projected
    columns (``_projected_normal``), with D the running maximum of
    diag(J^T J) (Marquardt's scaling); the loop calls no LAPACK routine.
    A step whose system is singular, or that lands where v and b are not
    determined, counts as rejected.  The fit stops when a step moves the
    scaled (c, w), or lowers the residual sum of squares, by less than
    _FIT_TOL relative.  Returns (c, w, v, b) and the variance of c: the
    pseudo-inverse of J^T J for the full four-column Jacobian at the
    optimum, from its SVD, discarding singular values below
    eps max(m, 4) s_max, times SSR / (m - 4).
    """
    # a trial width may be 0 or tiny: the model is judged by its cost
    with np.errstate(all="ignore"):
        point = _dip_point(tau, y, *p0)
        if point is None:
            raise FitError("delay fit failed: depth and base are not determined at the starting point")
        if not math.isfinite(point.cost):
            raise FitError("delay fit failed: non-finite model at the starting point")
        n00, n01, n11, r0, r1 = _projected_normal(point)
        s0, s1 = (n00 if n00 > 0 else 1.0), (n11 if n11 > 0 else 1.0)
        lam = 1e-3
        for _ in range(_FIT_MAX_EVALS):
            a00, a11 = n00 + lam * s0, n11 + lam * s1
            det = a00 * a11 - n01 * n01
            if not det > 0:
                lam *= 10.0
                continue
            dc, dw = (n01 * r1 - a11 * r0) / det, (n01 * r0 - a00 * r1) / det
            q0, q1 = math.sqrt(s0), math.sqrt(s1)
            tiny = math.hypot(q0 * dc, q1 * dw) <= _FIT_TOL * (math.hypot(q0 * point.center, q1 * point.width) + _FIT_TOL)
            trial = _dip_point(tau, y, point.center + dc, point.width + dw)
            if trial is not None and trial.cost <= point.cost:
                converged = tiny or point.cost - trial.cost <= _FIT_TOL * point.cost
                point = trial
                n00, n01, n11, r0, r1 = _projected_normal(point)
                s0, s1 = max(s0, n00), max(s1, n11)
                lam *= 0.1
            else:
                converged = tiny
                lam *= 10.0
            if converged:
                break
        else:
            raise FitError(f"delay fit failed: no convergence in {_FIT_MAX_EVALS} evaluations")
        jac = np.column_stack((*_dip_derivatives(point), -point.g, np.ones(tau.size)))
    params = np.array([point.center, point.width, point.depth, point.base])
    m = tau.size
    if m <= 4:
        return params, math.inf
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    vt = vt[keep]
    cov_center = float(np.sum(vt[:, 0] ** 2 / s[keep] ** 2))
    return params, cov_center * point.cost / (m - 4)


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array that holds no NaN, through np.partition:
    the middle value, or the mean of the two middle values.  np.median
    also checks for NaN, and that check imports numpy.ma."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    part = np.partition(values, (half - 1, half))
    return float((part[half - 1] + part[half]) / 2)


def extract_delay(gram: Interferogram) -> DelayFit:
    """Locate the envelope feature by least squares on a Gaussian model.

    Fits rate(tau) = b - v exp(-(tau - tau0)^2 / (2 w^2)) for dip-shaped
    data (peaks are fitted with the sign flipped), starting at the lowest
    sample with w from the envelope width.  The fit is a variable
    projection (``_fit_dip``): depth v and base b are solved in closed
    form at each (tau0, w), and only (tau0, w) are iterated.  Dip or
    peak is decided against the median rate.  The reported error
    is the fit standard error floored at a grid-conditioning level of
    1e-6 scan steps; a noiseless symmetric dip is limited only by that
    conditioning.
    """
    tau = gram.scan
    rates = gram.rates
    if tau.size < 4:
        raise FitError("need at least four scan points for the four-parameter fit")
    span = float(rates.max() - rates.min())
    if span < 1e-12:
        raise FitError("featureless interferogram: nothing to fit")
    # the feature sits on the side farther from the median baseline;
    # Interferogram refuses NaN rates
    median = _median(rates)
    dip = median - float(rates.min()) >= float(rates.max()) - median
    sign = 1.0 if dip else -1.0
    y = sign * rates

    idx = int(np.argmin(y))
    guess_w = max(envelope_rms_width(gram) / math.sqrt(2), float(tau[1] - tau[0]))
    popt, var = _fit_dip(tau, y, (float(tau[idx]), guess_w))
    floor = 1e-6 * float(tau[1] - tau[0])
    # a noiseless perfect fit leaves the residual variance at zero;
    # conditioning floor stands in for it
    stderr = math.sqrt(var) if math.isfinite(var) and var > 0 else floor
    vis = fringe_visibility(rates)
    return DelayFit(delay=float(popt[0]), stderr=max(stderr, floor), visibility=vis)
