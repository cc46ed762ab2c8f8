"""Estimation protocols: interferometric phase, entangled-pair angular
displacement, and Ramsey frequency readout.

Each protocol declares its analytic fringe once, as offset + amplitude
cos(rate x); the uncertainty laws and the estimator follow from it.
Each also declares its circuit, compiled when the protocol is built
against the support of its fixed probe.  The one element x drives is a
diagonal phase, compiled as a ``fock.PhaseStep``: a phase shift is one
already, and a Dove prism is a fixed charge flip, applied to the probe
once, followed by a phase on the flipped modes.  The photon counts of
each probe term are read once, and ``state(x)`` forms only the phases
and the factor of each term.  Each fixed map after it (the angular
splitters) is a ``fock.ModeMapProgram``: a dense stage whose columns
are ``ModeMapPlan.apply`` on each term of the support it receives, so
``state(x)`` sums a few products per output.  Both form the float
operations of ``ModeMapPlan.apply``, so the states equal
element-by-element construction bit for bit; a program handed another
support falls back to ``ModeMapPlan.apply``.
Monte Carlo samples take one path: outcomes are drawn from the Born
probabilities of the readout observable on the simulated probe state,
so the shot-noise 1/sqrt(N) and entangled 1/N scalings are checked
against the simulator as well as the law.  The single-photon and NOON
readouts restrict to two states, whose Born probabilities
``Observable.eigensystem`` forms in closed form, and ``fit_loglog``
fits the log-log line from ordered sums, so those runs and their fits
make no LAPACK call and their bits do not follow the BLAS build; only
the angular readout's four-state restriction goes through
``np.linalg.eigh``.  Estimator inversion uses the
principal branch of arccos with the working point assumed inside the
first fringe; the branch ambiguity is documented, not resolved
adaptively, and the scaling sweeps reject working points outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from . import elements, sources
from .domains import require
from .fock import (
    FockError,
    FockSpace,
    ModeLabel,
    ModeMapPlan,
    ModeMapProgram,
    Observable,
    PhaseStep,
    StateVector,
    dyad_sum,
    expectation,
    level,
    oam,
    path,
)

DERIVATIVE_FLOOR = 1e-8


class StationaryPointError(FockError):
    """The mean curve is flat here; the working point carries no
    first-order information about the parameter."""


class DegenerateGridError(FockError):
    """A scaling fit needs at least four distinct resource counts."""


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one estimation run.

    ``resources`` counts photons (or atoms) consumed; ``clamped`` marks
    a finite-sample mean that fell outside the estimator domain and was
    clipped to the boundary.  A zero uncertainty is legal only for the
    eigenstate (zero-variance) case.
    """

    estimate: float
    uncertainty: float
    resources: int
    method: str
    seed: int | None = None
    clamped: bool = False

    def __post_init__(self):
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be nonnegative")
        if self.resources < 1:
            raise ValueError("resources must be >= 1")
        require("method", self.method)


@dataclass(frozen=True)
class ScalingFit:
    """Log-log fit of uncertainty against resource count."""

    points: tuple[tuple[float, float], ...]
    slope: float
    slope_stderr: float


def fit_loglog(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Least-squares slope of log(delta) vs log(N) with standard error.

    The line is fitted in closed form.  With dx the logs of N less
    their mean, and dy those of delta less theirs, the slope is
    sum(dx dy) / sum(dx^2), and its standard error is
    sqrt(RSS / (n - 2) / sum(dx^2)), the scaling of
    ``np.polyfit(..., cov=True)``.  The logs are taken by ``math.log``
    and every sum by ``math.fsum``, which rounds once, so the fit does
    not depend on the BLAS or LAPACK build or on numpy's SIMD dispatch.
    """
    pts = tuple((float(n), float(d)) for n, d in points)
    if len(pts) < 4:
        raise DegenerateGridError("need at least 4 grid points")
    if not all(math.isfinite(v) and v > 0 for pt in pts for v in pt):
        raise DegenerateGridError("all points must be finite and positive")
    x = [math.log(n) for n, _ in pts]
    y = [math.log(d) for _, d in pts]
    if min(x) == max(x):
        raise DegenerateGridError("resource grid is degenerate")
    mean_x, mean_y = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    sxx = math.fsum(u * u for u in dx)
    slope = math.fsum(u * v for u, v in zip(dx, dy)) / sxx
    residuals = [v - slope * u for u, v in zip(dx, dy)]
    rss = math.fsum(e * e for e in residuals)
    return ScalingFit(pts, slope, math.sqrt(rss / (len(pts) - 2) / sxx))


# ---------------------------------------------------------------------------
# observables


def observable_A(space: FockSpace) -> Observable:
    """sigma_x on the {|0>,|1>} occupation qubit of a single-mode space.

    This is the Hermitian part of the ladder-phase operator truncated to
    one photon; its expectation on (|0> + e^{i phi}|1>)/sqrt(2) is the
    interference fringe cos(phi).
    """
    if len(space.modes) != 1:
        raise ValueError("observable_A lives on a single-mode space")
    if space.n_max < 1:
        raise ValueError("need n_max >= 1")
    mode = space.modes[0]
    zero = space.basis_state({})
    one = space.basis_state({mode: 1})
    return dyad_sum(space, [(zero, one, 1.0), (one, zero, 1.0)])


def observable_B(space: FockSpace, mode_a: ModeLabel, mode_b: ModeLabel, n: int) -> Observable:
    """|0,N><N,0| + |N,0><0,N| on the two-mode NOON subspace.

    Rank 2, zero outside the NOON subspace; its square is the projector
    onto that subspace, so the expectation on a phased NOON state is
    cos(N phi) with second moment 1.
    """
    require("n_photons", n)
    n0 = space.basis_state({mode_a: n})
    on = space.basis_state({mode_b: n})
    return dyad_sum(space, [(n0, on, 1.0), (on, n0, 1.0)])


def observable_R(space: FockSpace, l: int) -> Observable:
    """Opposite-charge coincidence projector for the signal and idler
    detectors.

    Projects onto the two events where charge +l arrives at one detector
    and -l at the other.  It is a projector, so its second moment equals
    its mean on any state.
    """
    require("l", l)
    ch_a, ch_b = sources.SIGNAL_CHANNEL, sources.IDLER_CHANNEL
    ev1 = space.basis_state({oam(l, ch_a): 1, oam(-l, ch_b): 1})
    ev2 = space.basis_state({oam(-l, ch_a): 1, oam(l, ch_b): 1})
    return dyad_sum(space, [(ev1, ev1, 1.0), (ev2, ev2, 1.0)])


# ---------------------------------------------------------------------------
# uncertainty propagation


def propagate_uncertainty(slope: float, spread: float, at: float) -> float:
    """Delta x = Delta O / |d<O>/dx| at the working point ``at``, from the
    spread Delta O and the analytic slope d<O>/dx there.

    Below the derivative floor the working point is stationary and the
    formula is singular; that raises instead of returning a huge value,
    so sweeps cannot be silently poisoned.
    """
    if abs(slope) < DERIVATIVE_FLOOR:
        raise StationaryPointError(
            f"|d<O>/dx| = {abs(slope):.2e} < {DERIVATIVE_FLOOR:.0e} at x = {at}"
        )
    return abs(spread) / abs(slope)


# ---------------------------------------------------------------------------
# protocols


class Protocol:
    """Common estimation-protocol surface.

    A protocol prepares a parameter-dependent probe state and names the
    observable read out on it.  Its analytic fringe is declared once, by
    three numbers: mean(x) = offset + amplitude cos(rate x), with
    single-shot spread amplitude |sin(rate x)|.  The derivative dmean(x)
    and the inverse of the mean curve on the principal branch
    0 <= rate x <= pi follow from the same law.
    """

    name: str = ""
    photons_per_trial: int = 1
    offset: float
    amplitude: float
    rate: float
    # the compiled circuit: the phases of the element x drives, on the
    # x-independent probe, their values at x, and the fixed maps
    # applied after them; no step means the fringe is analytic only
    _step: PhaseStep | None = None
    _coeffs: Callable[[float], list[complex]]
    _tail: tuple[ModeMapProgram, ...] = ()

    def _compile(
        self,
        probe: StateVector,
        modes: Sequence[int],
        coeffs: Callable[[float], list[complex]],
        tail: Sequence[ModeMapPlan] = (),
    ) -> None:
        """Compile the phases on the positions ``modes`` of ``probe``,
        then each tail map for the support the one before it leaves."""
        self._step = PhaseStep(probe, modes)
        self._coeffs = coeffs
        programs = []
        support = self._step.support_out
        for plan in tail:
            programs.append(ModeMapProgram(plan, probe.space, support))
            support = programs[-1].support_out
        self._tail = tuple(programs)

    def state(self, x: float) -> StateVector:
        """The probe state at parameter x, through the compiled circuit.

        Only the coefficients of the element x drives are formed per
        call; the state equals the element-by-element construction bit
        for bit.
        """
        step = self._step
        if step is None:
            raise NotImplementedError(f"{self.name}: no element-level circuit; the fringe is analytic")
        # checked inline, not through domains.require: state runs once per
        # fringe point (2528 times a protocol_sweep pass), and require's
        # lookup and call cost more than the check itself
        if not isfinite(x):
            raise ValueError(f"protocol parameter must be finite, got {x}")
        st = step.apply(self._coeffs(x))
        for program in self._tail:
            st = program.apply(st)
        return st

    @property
    def space(self) -> FockSpace:
        return self._space

    @property
    def observable(self) -> Observable:
        return self._obs

    def mean(self, x: float) -> float:
        return self.offset + self.amplitude * math.cos(self.rate * x)

    def dmean(self, x: float) -> float:
        return -self.amplitude * self.rate * math.sin(self.rate * x)

    def spread(self, x: float) -> float:
        return self.amplitude * abs(math.sin(self.rate * x))

    def invert_mean(self, m: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Principal-branch x for mean value(s) ``m``, elementwise.

        Means outside [offset - amplitude, offset + amplitude] are
        clipped to the nearest end and flagged in the returned mask.
        A scalar ``m`` gives numpy scalars.
        """
        arg = (np.asarray(m, dtype=float) - self.offset) / self.amplitude
        clamped = (arg < -1.0) | (arg > 1.0)
        return np.arccos(np.clip(arg, -1.0, 1.0)) / self.rate, clamped

    def analytic_uncertainty(self, x: float, trials: int = 1) -> float:
        """Error-propagated Delta x after ``trials`` ensemble repetitions."""
        require("trials", trials)
        root = math.sqrt(trials)
        return propagate_uncertainty(self.dmean(x), self.spread(x) / root, x)


class SinglePhotonPhaseProtocol(Protocol):
    """One photon per trial through a balanced interferometer.

    The probe is the upper-branch occupation qubit
    (|0> + e^{i phi}|1>)/sqrt(2) with the sigma_x readout, fringe
    cos(phi).  Repeating N times gives the shot-noise phase uncertainty
    1/sqrt(N): the |sin phi| spread cancels against the slope.
    """

    name = "single-photon-mz"
    photons_per_trial = 1
    offset, amplitude, rate = 0.0, 1.0, 1.0

    def __init__(self, mode: ModeLabel | None = None):
        self._mode = mode if mode is not None else path(0)
        self._space = FockSpace([self._mode], n_max=1)
        self._obs = observable_A(self._space)
        probe = StateVector(
            self._space,
            {
                self._space.basis_state({}): 1 / math.sqrt(2),
                self._space.basis_state({self._mode: 1}): 1 / math.sqrt(2),
            },
        )
        _, coeffs, _ = elements.parametric_moves(self._space, elements.phase_shift(self._mode, 0.0))
        self._compile(probe, [self._space.index(self._mode)], coeffs)


class NoonPhaseProtocol(Protocol):
    """N entangled photons per trial: (|N,0> + |0,N>)/sqrt(2) probe.

    The phase shifts of the N photons act collectively, so one pass
    imprints e^{i N phi} and the readout fringe is cos(N phi).  The
    single-shot uncertainty 1/N saturates the fundamental bound; the
    fringe period 2 pi / N is the matching super-resolution signature.
    """

    name = "noon"
    offset, amplitude = 0.0, 1.0

    def __init__(self, n: int, mode_a: ModeLabel | None = None, mode_b: ModeLabel | None = None):
        require("n_photons", n)
        self.n = n
        self.photons_per_trial = n
        self.rate = n
        self._mode_a = mode_a if mode_a is not None else path(0)
        self._mode_b = mode_b if mode_b is not None else path(1)
        self._space = FockSpace([self._mode_a, self._mode_b], n_max=n)
        self._obs = observable_B(self._space, self._mode_a, self._mode_b, n)
        probe = sources.noon_state(self._space, self._mode_a, self._mode_b, n)
        _, coeffs, _ = elements.parametric_moves(self._space, elements.phase_shift(self._mode_a, 0.0))
        self._compile(probe, [self._space.index(self._mode_a)], coeffs)


class AngularDisplacementProtocol(Protocol):
    """Charge +/-l entangled pair through a prism interferometer.

    The apparatus: the pair enters the two input ports of a balanced
    interferometer whose upper arm holds a Dove prism rotated by theta
    and whose lower arm holds the reference reflection.  Both arms flip
    the topological charge; the prism adds e^{i 2 l theta} per photon.
    With the pair prepared with a relative pi between its two charge
    assignments (the convention under which this element model gives the
    ideal fringe), the opposite-charge coincidence rate is
    cos^2(2 l theta), oscillating 2l times faster than an intensity
    fringe and with visibility 1, beyond the classical 71% bound.

    ``n_photons`` generalizes analytically to the N-photon two-branch
    probe with fringe cos^2(N l theta) and Delta theta = 1/(2 N l); the
    element-level simulation backs the pair case n_photons = 2.
    """

    name = "angular"
    offset, amplitude = 0.5, 0.5

    def __init__(self, l: int, n_photons: int = 2):
        require("l", l)
        require("n_photons", n_photons)
        self.l = abs(l)
        self.n_photons = n_photons
        self.photons_per_trial = n_photons
        self.rate = 2 * n_photons * self.l
        # the four modes the pair and its flips reach, not all 4l + 2
        # of spdc_space(l): the terms and their order are the same
        self._space = FockSpace([oam(c, ch) for c in (self.l, -self.l) for ch in (0, 1)], n_max=2)
        self._obs = observable_R(self._space, self.l)
        if n_photons == 2:
            self._compile_pair()

    def _compile_pair(self) -> None:
        """The pair through splitters, prism and mirror, then splitters.

        The first two splitters act before theta does, so they are
        applied once, to the probe.  The prism is the charge flip of its
        arm followed by a phase per photon on the flipped modes, and the
        mirror is the flip of the other arm, so both flips are applied
        once too, as one map: its moves have coefficient 1 and land on
        modes they empty, so it only relabels the probe's terms, and the
        states stay bit for bit those of the prism and mirror in
        sequence.  The prism's phases are the step; the last two
        splitters are the tail.
        """
        space, l = self._space, self.l
        upper = [oam(l, 0), oam(-l, 0)]
        lower = [oam(l, 1), oam(-l, 1)]
        splitters = tuple(
            ModeMapPlan(elements.element_map(space, elements.beam_splitter(oam(m, 0), oam(m, 1)))[0])
            for m in (l, -l)
        )
        spectrum = sources.SpdcOamSpectrum.filtered_pair(l, relative_phase=math.pi)
        probe = sources.spdc_oam_pair(space, spectrum)
        for plan in splitters:
            probe = plan.apply(probe)
        prism_pairs, prism, _ = elements.parametric_moves(space, elements.dove_prism(upper, 0.0))
        # the space holds +-l on both channels, so no mirror is missing
        flip, _ = elements.element_map(space, elements.mirror(upper + lower))
        self._compile(ModeMapPlan(flip).apply(probe), [i for _, i in prism_pairs], prism, splitters)


# ---------------------------------------------------------------------------
# Monte Carlo sampling


def _sample_estimates(
    protocol: Protocol,
    x: float,
    trials: int,
    repetitions: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates, sample stds and clamp flags of ``repetitions`` runs.

    The protocol observable is measured on the simulated state at ``x``:
    each run draws ``trials`` outcomes from the Born probabilities as one
    row of multinomial counts, and its sample mean is inverted through
    the fringe.
    """
    evals, probs = protocol.observable.eigensystem(protocol.state(x))
    counts = rng.multinomial(trials, probs, size=repetitions)
    means = counts @ evals / trials
    squares = (counts * (evals - means[:, None]) ** 2).sum(axis=1)
    estimates, clamped = protocol.invert_mean(means)
    # a single trial equals its own mean, so its squares are 0 and so is its std
    return estimates, np.sqrt(squares / max(trials - 1, 1)), clamped


def run_monte_carlo(
    protocol: Protocol,
    true_value: float,
    trials: int,
    seed: int,
    repetitions: int = 1,
) -> EstimationResult:
    """Projective-measurement sampling of a protocol at a fixed truth.

    Each repetition draws ``trials`` outcomes from the Born probabilities
    of the protocol observable in the protocol state, inverts the sample
    mean through the fringe (principal branch), and reports:

    * estimate: mean of the per-repetition estimates;
    * uncertainty: standard deviation across repetitions when there are
      several (ensemble spread), otherwise the within-run spread of the
      mean propagated through the fringe slope.  One trial in one
      repetition has neither spread and raises ``ValueError``.

    Out-of-domain sample means are clamped and flagged.  All repetitions
    draw from one generator seeded with ``seed``.
    """
    require("trials", trials)
    if repetitions < 1:
        raise ValueError("need repetitions >= 1")
    if trials == 1 and repetitions == 1:
        # a single outcome's zero spread would read as an eigenstate
        raise ValueError("one trial in one repetition has no spread: need trials >= 2 or repetitions >= 2")
    estimates, stds, clamped = _sample_estimates(
        protocol, true_value, trials, repetitions, np.random.default_rng(seed)
    )
    estimate = float(estimates.mean())
    if repetitions > 1:
        uncertainty = float(estimates.std(ddof=1))
    elif stds[0] == 0.0:
        # eigenstate: every outcome identical, the estimate is exact
        uncertainty = 0.0
    else:
        slope = abs(protocol.dmean(estimate))
        if slope < DERIVATIVE_FLOOR:
            raise StationaryPointError(f"estimate {estimate} sits on a stationary point")
        uncertainty = float(stds[0] / math.sqrt(trials)) / slope
    return EstimationResult(
        estimate=estimate,
        uncertainty=uncertainty,
        resources=trials * protocol.photons_per_trial,
        method="monte-carlo",
        seed=seed,
        clamped=bool(clamped.any()),
    )


# family -> (protocol for grid entry n, trials per estimate from
# (n, shots_per_estimate), default working point)
_FAMILIES: dict[str, tuple[Callable[[int], Protocol], Callable[[int, int], int], float]] = {
    "independent-photons": (lambda n: SinglePhotonPhaseProtocol(), lambda n, shots: n, math.pi / 2),
    "noon": (NoonPhaseProtocol, lambda n, shots: shots, 0.4),
}


def scaling_experiment(
    family: str,
    n_grid: Sequence[int],
    repetitions: int,
    seed: int,
    working_point: float | None = None,
    shots_per_estimate: int = 256,
) -> ScalingFit:
    """Empirical uncertainty against resources, fitted log-log.

    ``independent-photons``: each grid entry N is the trial count of the
    single-photon protocol; one estimate per repetition uses N shots.
    The fitted slope approaches -1/2 (shot noise).  The default working
    point pi/2 sits at the fringe's steepest, best-conditioned spot.

    ``noon``: each grid entry is the photon number N of the entangled
    probe, read out with a fixed number of shots per estimate; the
    per-estimate uncertainty is 1/(N sqrt(shots)), so the slope against
    N approaches -1 (the entangled bound).  The default working point
    0.4 keeps N * phi inside the principal branch for N <= 7.

    Every estimate is sampled from the simulated probe state, through
    the same sampler as ``run_monte_carlo``; per-N seeds are spawned
    from the root seed.  A working point whose fringe phase rate * phi
    leaves the principal branch (0, pi) for any grid entry raises
    ValueError, since the estimator cannot tell the branches apart.
    """
    require("repetitions", repetitions)
    require("shots_per_estimate", shots_per_estimate)
    grid = [int(n) for n in n_grid]
    if any(n < 1 for n in grid):
        raise DegenerateGridError("resource counts must be >= 1")
    if family not in _FAMILIES:
        raise ValueError(f"unknown protocol family {family!r}")
    make, trials_for, default_point = _FAMILIES[family]
    x = default_point if working_point is None else working_point
    protocols = [make(n) for n in grid]
    for n, proto in zip(grid, protocols):
        if not 0.0 < proto.rate * x < math.pi:
            raise ValueError(
                f"N = {n}, phi = {x}: fringe phase {proto.rate * x:.6g} "
                "leaves the principal branch (0, pi)"
            )
    children = np.random.SeedSequence(seed).spawn(len(grid))
    points = []
    for n, proto, child in zip(grid, protocols, children):
        trials = trials_for(n, shots_per_estimate)
        estimates, _, _ = _sample_estimates(proto, x, trials, repetitions, np.random.default_rng(child))
        points.append((n, float(estimates.std(ddof=1))))
    return fit_loglog(points)


# ---------------------------------------------------------------------------
# Ramsey frequency readout

_RAMSEY = SinglePhotonPhaseProtocol(level(0))
_RAMSEY_OBS = _RAMSEY.observable


def ramsey_fringe(omega: float, t: float) -> float:
    """<A> for a two-level atom after free evolution: cos(omega t).

    The pulse-interrogation sequence maps onto the balanced
    interferometer with phi = omega t, so the fringe is read out from
    the same occupation qubit, here on an atomic-level mode.
    """
    require("t", t)
    return expectation(_RAMSEY.state(omega * t), _RAMSEY_OBS)


def ramsey_frequency_estimate(
    omega: float,
    t: float,
    atoms: int = 1,
    trials: int = 1,
    seed: int | None = None,
    method: str = "analytic",
) -> EstimationResult:
    """Transition-frequency estimate from interrogation time t.

    Delegates to the phase machinery with phi = omega t and divides the
    phase uncertainty by t: one entangled bunch of N atoms reaches
    Delta omega = 1/(N t), and doubling t halves Delta omega at fixed N.
    """
    require("t", t)
    require("atoms", atoms)
    require("method", method)
    proto: Protocol
    proto = NoonPhaseProtocol(atoms) if atoms > 1 else SinglePhotonPhaseProtocol(level(0))
    phi = omega * t
    if method == "analytic":
        dphi = proto.analytic_uncertainty(phi, trials=trials)
        return EstimationResult(
            estimate=omega,
            uncertainty=dphi / t,
            resources=atoms * trials,
            method="analytic",
        )
    if seed is None:
        raise ValueError("stochastic estimation needs an explicit seed")
    res = run_monte_carlo(proto, phi, trials, seed)
    return EstimationResult(
        estimate=res.estimate / t,
        uncertainty=res.uncertainty / t,
        resources=res.resources,
        method="monte-carlo",
        seed=seed,
        clamped=res.clamped,
    )
