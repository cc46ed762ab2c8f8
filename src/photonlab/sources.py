"""Input-state preparation: single photons, truncated coherent states,
NOON states, OAM-entangled down-conversion pairs, and frequency-entangled
biphotons.

All prepared states are normalized to 1e-12.  Coherent states are the
only ones needing a truncation argument; the omitted Poisson mass must
stay below 1e-9 or preparation refuses with the required cutoff in the
message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domains import require
from .fock import (
    FockError,
    FockSpace,
    ModeLabel,
    StateVector,
    freq_bin,
    oam,
)


class InsufficientTruncationError(FockError):
    """Coherent-state truncation would drop more than the allowed tail."""


class AsymmetricGridError(FockError):
    """Biphoton detuning grid or amplitude is not symmetric about zero."""


COHERENT_TAIL_TOL = 1e-9


def single_photon(space: FockSpace, mode: ModeLabel) -> StateVector:
    """|1> in ``mode``, vacuum elsewhere."""
    space.require(mode)
    return StateVector(space, {space.basis_state({mode: 1}): 1.0})


def poisson_tail(alpha: complex, n_max: int) -> float:
    """Probability mass of a Poisson(|alpha|^2) above n_max."""
    mu = abs(alpha) ** 2
    if mu == 0:
        return 0.0
    term = math.exp(-mu)
    cdf = term
    for n in range(1, n_max + 1):
        term *= mu / n
        cdf += term
    return max(0.0, 1.0 - cdf)


def required_nmax(alpha: complex) -> int:
    """Smallest truncation whose Poisson tail is below ``COHERENT_TAIL_TOL``."""
    n = max(1, int(abs(alpha) ** 2))
    while poisson_tail(alpha, n) >= COHERENT_TAIL_TOL:
        n += 1
    return n


def coherent_state(space: FockSpace, mode: ModeLabel, alpha: complex) -> StateVector:
    """Truncated coherent state sum_n e^{-|a|^2/2} a^n/sqrt(n!) |n>.

    The photon number fluctuates about the mean |alpha|^2 with Poisson
    statistics.  The truncated amplitudes are renormalized; the dropped
    tail (and hence the renormalization factor 1/sqrt(1 - tail)) is
    bounded by 1e-9, checkable via ``poisson_tail``.
    """
    space.require(mode)
    tail = poisson_tail(alpha, space.n_max)
    if tail >= COHERENT_TAIL_TOL:
        raise InsufficientTruncationError(
            f"tail {tail:.3e} >= {COHERENT_TAIL_TOL:.0e}; "
            f"need n_max >= {required_nmax(alpha)}"
        )
    amp = {}
    coeff = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(space.n_max + 1):
        amp[space.basis_state({mode: n} if n else {})] = coeff
        coeff = coeff * alpha / math.sqrt(n + 1)
    return StateVector(space, amp).normalized()


def noon_state(space: FockSpace, mode_a: ModeLabel, mode_b: ModeLabel, n: int) -> StateVector:
    """(|N,0> + |0,N>)/sqrt(2) on (mode_a, mode_b).

    Schmidt rank 2 across the two modes for every N >= 1.
    """
    require("n_photons", n)
    space.require(mode_a)
    space.require(mode_b)
    inv = 1 / math.sqrt(2)
    return StateVector(
        space,
        {
            space.basis_state({mode_a: n}): inv,
            space.basis_state({mode_b: n}): inv,
        },
    )


# ---------------------------------------------------------------------------
# OAM-entangled pairs from parametric down-conversion

SIGNAL_CHANNEL = 0
IDLER_CHANNEL = 1


@dataclass(frozen=True)
class SpdcOamSpectrum:
    """Expansion coefficients of a down-converted pair over charge pairs.

    With a zero-OAM pump only opposite charges (l, -l) are populated;
    ``coefficients[l]`` weights signal charge l against idler charge -l.
    Weights are stored normalized: sum |K|^2 = 1.
    """

    coefficients: Mapping[int, complex]
    cutoff: int

    def __post_init__(self):
        for l in self.coefficients:
            if abs(l) > self.cutoff:
                raise ValueError(f"charge {l} beyond cutoff {self.cutoff}")
        total = sum(abs(k) ** 2 for k in self.coefficients.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"spectrum norm {total} != 1")

    @staticmethod
    def uniform(l_max: int) -> "SpdcOamSpectrum":
        """Flat spectrum over |l| <= l_max (the default, injectable choice)."""
        n = 2 * l_max + 1
        w = 1 / math.sqrt(n)
        return SpdcOamSpectrum({l: w for l in range(-l_max, l_max + 1)}, l_max)

    @staticmethod
    def filtered_pair(l: int, relative_phase: float = 0.0) -> "SpdcOamSpectrum":
        """Only the +/-l terms survive the filters: (|l,-l> + e^{i phi}|-l,l>)/sqrt(2)."""
        require("l", l)
        inv = 1 / math.sqrt(2)
        return SpdcOamSpectrum(
            {l: inv, -l: inv * complex(math.cos(relative_phase), math.sin(relative_phase))},
            abs(l),
        )


def spdc_space(l_max: int) -> FockSpace:
    """Two-channel OAM space for signal/idler charges |l| <= l_max,
    truncated at the pair's two photons."""
    modes = [oam(l, ch) for l in range(-l_max, l_max + 1) for ch in (SIGNAL_CHANNEL, IDLER_CHANNEL)]
    return FockSpace(modes, n_max=2)


def spdc_oam_pair(space: FockSpace, spectrum: SpdcOamSpectrum) -> StateVector:
    """Signal-idler pair entangled in topological charge.

    One photon per side, populated only on (l, -l) charge pairs; the
    total OAM of every term vanishes, so measuring signal charge l
    collapses the idler to -l.
    """
    amp = {}
    for l, k in spectrum.coefficients.items():
        s_mode = oam(l, SIGNAL_CHANNEL)
        i_mode = oam(-l, IDLER_CHANNEL)
        space.require(s_mode)
        space.require(i_mode)
        bs = space.basis_state({s_mode: 1, i_mode: 1})
        amp[bs] = amp.get(bs, 0) + k
    return StateVector(space, amp)


# ---------------------------------------------------------------------------
# frequency-entangled biphotons


_MATCHING_ARRAYS = "detunings and amplitude must be matching 1-D arrays"


def _power(detunings: np.ndarray, amplitude: np.ndarray) -> float:
    return float(np.sum(np.abs(amplitude) ** 2) * (detunings[1] - detunings[0]))


@dataclass(frozen=True)
class BiphotonSpectrum:
    """Joint spectral amplitude of a frequency-anticorrelated pair.

    The pair consists of one photon at omega0 + d and one at omega0 - d,
    with ``amplitude[j]`` weighting detuning ``detunings[j]``.  The grid
    is uniform and symmetric about zero; amplitudes are normalized as
    sum |a|^2 * step = 1 (a discrete spectral density).  Down-conversion
    sources give a symmetric amplitude: which photon is the higher one
    is not predetermined, so both assignments are superposed.

    The spectrum keeps read-only copies of both arrays, so a caller that
    edits its own arrays afterwards leaves the validated grid intact.
    """

    omega0: float
    detunings: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        d = np.array(self.detunings, dtype=float)
        a = np.array(self.amplitude, dtype=complex)
        if d.ndim != 1 or d.size < 2 or a.shape != d.shape:
            raise ValueError(_MATCHING_ARRAYS)
        steps = np.diff(d)
        if not np.all(steps > 0):
            raise ValueError("detuning grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("detuning grid must be uniform")
        if not np.allclose(d, -d[::-1], rtol=0.0, atol=1e-9 * float(d[-1] - d[0])):
            raise AsymmetricGridError("detuning grid must be symmetric about zero")
        d.setflags(write=False)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "amplitude", self._admitted(a))

    def _admitted(self, a: np.ndarray) -> np.ndarray:
        """``a``, an array this spectrum owns, checked against the grid
        and made read-only: its shape, a finite power and the
        normalization."""
        d = self.detunings
        if a.shape != d.shape:
            raise ValueError(_MATCHING_ARRAYS)
        total = _power(d, a)
        if not math.isfinite(total):
            # a width whose square under- or overflows float64 makes the
            # Gaussian envelope 0/0 or inf/inf
            raise ValueError(
                f"spectrum power {total} is not finite: a spectrum of width "
                f"{float(d[-1] - d[0])!r} (detuning span) is outside the range float64 can hold"
            )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"spectrum power {total} != 1; normalize first")
        a.setflags(write=False)
        return a

    @property
    def step(self) -> float:
        return float(self.detunings[1] - self.detunings[0])

    def power(self) -> float:
        return _power(self.detunings, self.amplitude)

    def is_symmetric(self) -> bool:
        """Whether the amplitude is even in detuning, to 1e-9."""
        return bool(np.allclose(self.amplitude, self.amplitude[::-1], rtol=0.0, atol=1e-9))

    def with_amplitude(self, amplitude: np.ndarray) -> "BiphotonSpectrum":
        """The same pair on the same grid with a new amplitude.

        The grid was validated when this spectrum was built and cannot
        have changed since, so only the amplitude is checked, with the
        constructor's checks and messages.
        """
        spectrum = object.__new__(BiphotonSpectrum)
        object.__setattr__(spectrum, "omega0", self.omega0)
        object.__setattr__(spectrum, "detunings", self.detunings)
        object.__setattr__(spectrum, "amplitude", self._admitted(np.array(amplitude, dtype=complex)))
        return spectrum

    @staticmethod
    def gaussian(omega0: float, sigma: float, n_bins: int = 1024) -> "BiphotonSpectrum":
        """Gaussian envelope whose marginal intensity has std ``sigma``,
        on a grid over |d| <= 4 sigma.

        Bin centers avoid the exact zero detuning (even ``n_bins``), so
        signal and idler frequencies never coincide on the grid.
        """
        require("n_bins", n_bins)
        edge = 4.0 * sigma
        _require_squarable_width(sigma, edge)
        step = 2 * edge / n_bins
        d = -edge + step * (np.arange(n_bins) + 0.5)
        a = np.exp(-(d ** 2) / (4 * sigma ** 2))
        a = a / math.sqrt(np.sum(np.abs(a) ** 2) * step)
        return BiphotonSpectrum(omega0, d, a)

    @staticmethod
    def two_bin(omega0: float, delta: float) -> "BiphotonSpectrum":
        """The minimal two-term pair at omega0 +/- delta."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        d = np.array([-delta, delta])
        step = 2 * delta
        a = np.full(2, 1 / math.sqrt(2 * step), dtype=complex)
        return BiphotonSpectrum(omega0, d, a)


def _require_squarable_width(sigma: float, edge: float) -> None:
    """Refuse a Gaussian width outside its domain, or whose grid, out to
    |d| = edge, float64 cannot square.

    The Gaussian constructors divide d^2 by a multiple of sigma^2.  A
    width of 0 makes that 0/0, and a negative one a decreasing grid.
    Past about 1e154 the squares overflow: the outer bins would read 0,
    or ``sigma ** 2`` raises an OverflowError that names no parameter.
    Below about 1e-162 sigma^2 underflows to 0, and the division would
    again be 0/0.  Each width is refused before any grid is built, so no
    RuntimeWarning is printed first.
    """
    require("sigma", sigma)
    if not math.isfinite(edge * edge) or sigma * sigma == 0.0:
        raise ValueError(f"a spectrum of width {sigma!r} (sigma) is outside the range float64 can hold")


def biphoton_space(spectrum: BiphotonSpectrum) -> FockSpace:
    """Signal/idler frequency-bin modes for every grid detuning."""
    n = spectrum.detunings.size
    modes = [freq_bin(j, ch) for j in range(n) for ch in (SIGNAL_CHANNEL, IDLER_CHANNEL)]
    return FockSpace(modes, n_max=2)


def frequency_entangled_pair(spectrum: BiphotonSpectrum) -> StateVector:
    """Symmetrized two-photon state over binned frequency modes.

    Bin j carries detuning d_j; the term with the signal in bin j puts
    the idler in the mirror bin holding -d_j.  Requires a symmetric
    amplitude; swapping the signal and idler labels then reproduces the
    same state.
    """
    if not spectrum.is_symmetric():
        raise AsymmetricGridError("entangled-pair amplitude must be symmetric in detuning")
    space = biphoton_space(spectrum)
    n = spectrum.detunings.size
    root_step = math.sqrt(spectrum.step)
    amp = {}
    for j in range(n):
        bs = space.basis_state(
            {freq_bin(j, SIGNAL_CHANNEL): 1, freq_bin(n - 1 - j, IDLER_CHANNEL): 1}
        )
        amp[bs] = complex(spectrum.amplitude[j]) * root_step
    return StateVector(space, amp).normalized()
