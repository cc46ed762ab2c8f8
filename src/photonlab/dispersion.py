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
read-only: the detuning powers d^n behind every medium phase
(``_detuning_power``) and the weight-independent half of each chirp-z
sum (``_fourier_plan``).  Both caches are keyed on the bytes of every
value they read, so a repeated interferogram on one grid pays only for
its weights and returns the same bits as a cold call.  Together they
hold at most 16 powers and 8 plans; each plan is O(n + m) complex
numbers for n bins and m delays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domains import require
from .fock import FockError, ResolutionError
from .sources import BiphotonSpectrum, _require_squarable_width


class FitError(FockError):
    """The interferogram has no feature the model can be fitted to."""


# half the float64 range: two arm phases within it always add to a finite one
_PHASE_LIMIT = np.finfo(float).max / 2


@functools.lru_cache(maxsize=16)
def _detuning_power(grid: bytes, n: int) -> np.ndarray:
    """d^n on the detunings whose float64 bytes are ``grid``, flat and
    read-only.

    ``**`` is numpy's general pow here, the slowest step of a medium
    phase, and its bits depend on the CPU: (-d)^3 is not -(d^3) bit for
    bit, so a grid and its negation are keyed apart.  Sixteen entries
    hold orders 0..3 on a grid and its negation for two grids; they
    retain at most 16 n float64 for the powers and as much again for
    their keys.
    """
    power = np.frombuffer(grid) ** n
    power.setflags(write=False)
    return power


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

        The powers d^n come from ``_detuning_power``, keyed on the
        detunings' contents, so a grid's powers are formed once and a
        0-d input or a Python float reads them as a one-bin grid: the
        phase has the bits a cold call gives.  The range check runs on
        every call.
        """
        d = np.asarray(detuning, dtype=float)
        grid = d.tobytes()
        acc = np.zeros_like(d)
        with np.errstate(over="ignore", invalid="ignore"):
            for n, b in enumerate(self.beta):
                if b != 0.0:
                    acc = acc + b * _detuning_power(grid, n).reshape(d.shape) / math.factorial(n)
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
    """Classical (or single-photon) spectral amplitude over detuning."""

    detunings: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        a = np.asarray(self.amplitude, dtype=complex)
        if d.ndim != 1 or a.shape != d.shape or d.size < 8:
            raise ValueError("need matching 1-D arrays with >= 8 bins")
        if not np.allclose(np.diff(d), d[1] - d[0], rtol=1e-9):
            raise ValueError("detuning grid must be uniform")
        # a medium phase squares the detunings, and classical_baseline weighs
        # squared times, up to the conjugate span 2 pi / step, by the pulse
        # intensity, which stays below (sum |a|)^2
        reach, step = float(np.max(np.abs(d))), float(d[1] - d[0])
        moment = 2 * math.pi / abs(step) * float(np.sum(np.abs(a))) if step else math.inf
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


def _temporal_rms_width(detunings: np.ndarray, amplitude: np.ndarray) -> float:
    # zero-padded sixteenfold, to sample the pulse finely in time
    n = detunings.size * 16
    step = detunings[1] - detunings[0]
    field_t = np.fft.fftshift(np.fft.fft(amplitude, n=n))
    t = np.fft.fftshift(np.fft.fftfreq(n, d=step / (2 * math.pi)))
    intensity = np.abs(field_t) ** 2
    total = intensity.sum()
    mean = float((t * intensity).sum() / total)
    return math.sqrt(float(((t - mean) ** 2 * intensity).sum() / total))


def classical_baseline(
    pulse: PulseSpectrum,
    medium: DispersionProfile,
) -> PulseWidths:
    """Temporal RMS width of a classical pulse after the medium.

    This is the broadening the coincidence schemes avoid: a quadratic
    spectral phase chirps the pulse, and for a Gaussian of amplitude std
    sigma the width grows by sqrt(1 + (beta_2 L sigma^2)^2).  Computed
    by Fourier synthesis on a zero-padded grid.
    """
    phase = medium.phase(pulse.detunings)
    width = _temporal_rms_width(pulse.detunings, pulse.amplitude * np.exp(1j * phase))
    limit = _temporal_rms_width(pulse.detunings, np.abs(pulse.amplitude).astype(complex))
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


def _dip_terms(tau: np.ndarray, y: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and Jacobian of b - v exp(-(tau - c)^2 / (2 w^2)) - y."""
    center, width, depth, base = params
    with np.errstate(all="ignore"):
        u = (tau - center) / width
        g = np.exp(-0.5 * u * u)
        residual = base - depth * g - y
        jac = np.empty((tau.size, 4))
        jac[:, 0] = -depth * g * u / width
        jac[:, 1] = jac[:, 0] * u
        jac[:, 2] = -g
        jac[:, 3] = 1.0
    return residual, jac


def _fit_dip(tau: np.ndarray, y: np.ndarray, p0: tuple[float, float, float, float]) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt least squares of the Gaussian dip model.

    Each step solves (J^T J + lam D) step = -J^T r, with D the running
    maximum of diag(J^T J) (Marquardt's scaling).  The fit stops when a
    step moves the scaled parameters, or lowers the residual sum of
    squares, by less than _FIT_TOL relative.  Returns the parameters and
    the variance of the center: the pseudo-inverse of J^T J from the
    SVD of J, discarding singular values below eps max(m, 4) s_max,
    times SSR / (m - 4).
    """
    params = np.array(p0, dtype=float)
    residual, jac = _dip_terms(tau, y, params)
    cost = float(residual @ residual)
    if not math.isfinite(cost):
        raise FitError("delay fit failed: non-finite model at the starting point")
    normal = jac.T @ jac
    scale = np.where(np.diag(normal) > 0, np.diag(normal), 1.0)
    lam = 1e-3
    for _ in range(_FIT_MAX_EVALS):
        step = np.linalg.solve(normal + lam * np.diag(scale), -(jac.T @ residual))
        trial = params + step
        tiny = np.linalg.norm(np.sqrt(scale) * step) <= _FIT_TOL * (np.linalg.norm(np.sqrt(scale) * params) + _FIT_TOL)
        trial_residual, trial_jac = _dip_terms(tau, y, trial)
        trial_cost = float(trial_residual @ trial_residual)
        if trial_cost <= cost:
            converged = tiny or cost - trial_cost <= _FIT_TOL * cost
            params, residual, jac, cost = trial, trial_residual, trial_jac, trial_cost
            normal = jac.T @ jac
            scale = np.maximum(scale, np.diag(normal))
            lam *= 0.1
        else:
            converged = tiny
            lam *= 10.0
        if converged:
            break
    else:
        raise FitError(f"delay fit failed: no convergence in {_FIT_MAX_EVALS} evaluations")
    m = tau.size
    if m <= 4:
        return params, math.inf
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    vt = vt[keep]
    cov_center = float(np.sum(vt[:, 0] ** 2 / s[keep] ** 2))
    return params, cov_center * cost / (m - 4)


def extract_delay(gram: Interferogram) -> DelayFit:
    """Locate the envelope feature by least squares on a Gaussian model.

    Fits rate(tau) = b - v exp(-(tau - tau0)^2 / (2 w^2)) for dip-shaped
    data (peaks are fitted with the sign flipped).  The reported error
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
    # the feature sits on the side farther from the median baseline
    median = float(np.median(rates))
    dip = median - float(rates.min()) >= float(rates.max()) - median
    sign = 1.0 if dip else -1.0
    y = sign * rates

    idx = int(np.argmin(y))
    guess_w = max(envelope_rms_width(gram) / math.sqrt(2), float(tau[1] - tau[0]))
    p0 = (float(tau[idx]), guess_w, float(y.max() - y.min()), float(y.max()))
    popt, var = _fit_dip(tau, y, p0)
    floor = 1e-6 * float(tau[1] - tau[0])
    # a noiseless perfect fit leaves the residual variance at zero;
    # conditioning floor stands in for it
    stderr = math.sqrt(var) if math.isfinite(var) and var > 0 else floor
    vis = fringe_visibility(rates)
    return DelayFit(delay=float(popt[0]), stderr=max(stderr, floor), visibility=vis)
