"""Unitary optical elements acting on Fock-space states.

Every element is a passive linear map of the creation operators,
a_j^dag -> sum_i U_ij a_i^dag, on the modes of the space:

* beam splitter: a 2x2 block on its two modes;
* phase shift: one diagonal entry e^{i phi};
* Dove prism and mirror: the charge flip l -> -l within one arm, a
  permutation with phase e^{i 2 l theta} per photon (1 for a mirror);
* swap: a permutation of two modes.

An ``Interferometer`` composes the maps of its elements into one M x M
unitary and builds its ``fock.ModeMapPlan`` once per mode set, then
applies that plan to every state on those modes; each single-element
function is a fresh interferometer of one element.  Each map is written
once: the beam splitter's in ``element_map``, and every other element's,
a set of moves, in ``parametric_moves``, as fixed (column, row) pairs
plus a function forming their coefficients at a parameter value.
``element_map`` builds its map from those, and a compiled protocol hands
the coefficients to ``fock.PhaseStep`` per point.

Beam splitter convention (symmetric, i on reflection):

    a_A -> cos(kappa) a_A + i sin(kappa) a_B
    a_B -> i sin(kappa) a_A + cos(kappa) a_B

with kappa = pi/4 for the 50:50 case.  Reflection phases are a fixed
convention here; fringe formulas in the tests are stated in it.  The
Dove prism is modeled purely as the charge flip l -> -l with phase
e^{i 2 l theta} per photon; polarization and tight-focus corrections
are ignored.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .fock import (
    PRUNE_EPS,
    FockError,
    FockSpace,
    ModeKind,
    ModeLabel,
    ModeMapPlan,
    StateVector,
    _terms,
)

# column j -> {row i: U_ij}, on positions in FockSpace.modes; absent
# columns are the identity
ModeMap = dict[int, dict[int, complex]]


class MissingMirrorModeError(FockError):
    """A charge flip needs the opposite-charge mode, which is absent."""


class ElementKind(str, Enum):
    BEAM_SPLITTER = "beam-splitter"
    PHASE_SHIFT = "phase-shift"
    DOVE_PRISM = "dove-prism"
    MIRROR = "mirror"
    SWAP = "swap"


@dataclass(frozen=True)
class ElementSpec:
    """Declarative description of one optical element.

    Beam splitters and swaps target exactly two modes; phase shifts
    exactly one; Dove prisms and mirrors target the set of OAM modes in
    the arm they sit in.  Angles are radians and must be finite.
    """

    kind: ElementKind
    targets: tuple[ModeLabel, ...]
    parameter: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.parameter):
            raise ValueError("element parameter must be finite")
        n = len(self.targets)
        if self.kind in (ElementKind.BEAM_SPLITTER, ElementKind.SWAP) and n != 2:
            raise ValueError(f"{self.kind.value} targets exactly two modes")
        if self.kind == ElementKind.PHASE_SHIFT and n != 1:
            raise ValueError("phase-shift targets exactly one mode")
        if self.kind in (ElementKind.DOVE_PRISM, ElementKind.MIRROR) and n == 0:
            raise ValueError(f"{self.kind.value} needs at least one target mode")


def beam_splitter(mode_a: ModeLabel, mode_b: ModeLabel, kappa: float = math.pi / 4) -> ElementSpec:
    return ElementSpec(ElementKind.BEAM_SPLITTER, (mode_a, mode_b), kappa)


def phase_shift(mode: ModeLabel, phi: float) -> ElementSpec:
    return ElementSpec(ElementKind.PHASE_SHIFT, (mode,), phi)


def dove_prism(arm_modes: Iterable[ModeLabel], theta: float) -> ElementSpec:
    """Dove prism rotated by theta on the OAM modes of one arm.

    Amplitude on charge l moves to charge -l with phase e^{i 2 l theta}
    per photon.  The arm must hold both charges of every pair present in
    the space, and the mirror mode -l must exist in the space for every
    populated charge.  Applying the prism twice at the same angle is the
    identity.
    """
    return ElementSpec(ElementKind.DOVE_PRISM, tuple(sorted(arm_modes)), theta)


def mirror(arm_modes: Iterable[ModeLabel]) -> ElementSpec:
    return ElementSpec(ElementKind.MIRROR, tuple(sorted(arm_modes)))


def swap(mode_a: ModeLabel, mode_b: ModeLabel) -> ElementSpec:
    return ElementSpec(ElementKind.SWAP, (mode_a, mode_b))


# ---------------------------------------------------------------------------
# linear mode maps


def _flip_pairs(
    space: FockSpace,
    arm_modes: Sequence[ModeLabel],
) -> tuple[tuple[tuple[int, int, int], ...], dict[int, ModeLabel]]:
    """The x-independent half of the charge flip l -> -l on an arm.

    Returns (column, row, charge) for every flipped arm mode and, for arm
    modes whose mirror charge is absent from the space, the missing
    mirror label by position; those columns stay the identity, and a
    photon reaching one is an error.
    """
    arm = set(arm_modes)
    pairs = []
    missing: dict[int, ModeLabel] = {}
    for mode in sorted(arm):
        j = space.index(mode)
        if mode.kind is not ModeKind.OAM:
            raise ValueError(f"charge flip acts on OAM modes, got {mode}")
        target = ModeLabel(ModeKind.OAM, -mode.index, mode.channel)
        if target not in space:
            missing[j] = target
        elif target not in arm:
            raise ValueError(f"arm holds {mode} but not its mirror {target}")
        elif mode.index != 0:
            pairs.append((j, space.index(target), mode.index))
    return tuple(pairs), missing


def parametric_moves(
    space: FockSpace,
    spec: ElementSpec,
) -> tuple[tuple[tuple[int, int], ...], Callable[[float], list[complex]], dict[int, ModeLabel]]:
    """The moves of a phase shift, Dove prism, mirror or swap.

    Each of these elements sends every column to one row, with one
    coefficient per photon.  Returns the (column, row) pairs, resolved
    once; a function forming only the coefficients, in pair order, at a
    parameter value (a mirror's and a swap's ignore it); and the missing
    mirror modes as for ``element_map``.
    """
    k = spec.kind
    if k is ElementKind.PHASE_SHIFT:
        a = space.index(spec.targets[0])
        return ((a, a),), (lambda phi: [cmath.exp(1j * phi)]), {}
    if k is ElementKind.DOVE_PRISM or k is ElementKind.MIRROR:
        flips, missing = _flip_pairs(space, spec.targets)
        pairs = tuple((j, i) for j, i, _ in flips)
        if k is ElementKind.MIRROR:
            return pairs, (lambda _: [1.0] * len(pairs)), missing
        rates = [2j * l for _, _, l in flips]

        def prism(theta: float) -> list[complex]:
            """Charge l moves with phase e^{i 2 l theta} per photon, exactly 1 at theta = 0."""
            if theta == 0.0:
                return [1.0] * len(rates)
            return [cmath.exp(w * theta) for w in rates]

        return pairs, prism, missing
    if k is ElementKind.SWAP:
        a, b = (space.index(m) for m in spec.targets)
        return ((a, b), (b, a)), (lambda _: [1.0, 1.0]), {}
    if k is ElementKind.BEAM_SPLITTER:
        raise ValueError("a beam splitter spreads its photons; it has no moves")
    raise ValueError(f"unknown element kind {k}")


def element_map(space: FockSpace, spec: ElementSpec) -> tuple[ModeMap, dict[int, ModeLabel]]:
    """The linear mode map of one element on ``space``, at its parameter.

    The second value names, by position, arm modes of a Dove prism or
    mirror whose mirror charge is absent from the space.  Every element
    but the beam splitter is a set of moves, from ``parametric_moves``.
    """
    if spec.kind is ElementKind.BEAM_SPLITTER:
        a, b = (space.index(m) for m in spec.targets)
        if a == b:
            raise ValueError("beam splitter needs two distinct modes")
        c, is_ = math.cos(spec.parameter), 1j * math.sin(spec.parameter)
        return {a: {a: c, b: is_}, b: {a: is_, b: c}}, {}
    pairs, coeffs, missing = parametric_moves(space, spec)
    return {j: {i: c} for (j, i), c in zip(pairs, coeffs(spec.parameter))}, missing


def _column(u: ModeMap, j: int) -> dict[int, complex]:
    return u.get(j, {j: 1.0})


def _compose(step: ModeMap, u: ModeMap) -> ModeMap:
    """The map of ``u`` followed by ``step``: the matrix product step @ u."""
    out: ModeMap = {}
    for j in u.keys() | step.keys():
        col: dict[int, complex] = {}
        for k, x in _column(u, j).items():
            for i, y in _column(step, k).items():
                col[i] = col.get(i, 0) + y * x
        out[j] = col
    return out


def require_mirrors(state: StateVector, missing: Mapping[int, ModeLabel], u: ModeMap | None = None) -> None:
    """Refuse a charge flip when a photon can reach an arm mode without a mirror.

    ``missing`` is the second value of ``element_map``; ``u`` is the map
    applied to ``state`` before the flip, the identity when absent.  A
    photon entering populated mode j reaches arm mode f with amplitude
    U_fj.
    """
    if not missing:
        return
    space = state.space
    # read from the form the state holds, so an engine output builds no dict
    populated = [j for j, col in enumerate(zip(*(occ for occ, _ in _terms(state)))) if any(col)]
    u = u or {}
    for f, target in missing.items():
        if any(abs(_column(u, j).get(f, 0)) > PRUNE_EPS for j in populated):
            raise MissingMirrorModeError(
                f"flip of {space.modes[f]} needs {target}, absent from the space"
            )


# ---------------------------------------------------------------------------
# element actions


def apply_element(state: StateVector, spec: ElementSpec) -> StateVector:
    return Interferometer((spec,)).apply(state)


def apply_beam_splitter(
    state: StateVector,
    mode_a: ModeLabel,
    mode_b: ModeLabel,
    kappa: float = math.pi / 4,
) -> StateVector:
    """Two-mode mixer; kappa = pi/4 gives the 50:50 splitter.

    Total photon number is conserved, so truncation cannot overflow.
    """
    return apply_element(state, beam_splitter(mode_a, mode_b, kappa))


@dataclass(frozen=True)
class Interferometer:
    """Reusable composite transform: sequential element application.

    Immutable and shareable across concurrent sweep workers.  ``apply``
    composes the element maps into one unitary on the state's modes,
    builds its plan once per mode set, and applies it to the state; it
    preserves the norm of any input state to 1e-12.  Only the check
    that no photon reaches a flipped arm mode without its mirror
    (``require_mirrors``) depends on the state, so it runs on every
    call.
    """

    elements: tuple[ElementSpec, ...] = field(default_factory=tuple)
    # (modes, plan, flips) for the last mode set applied to: each flip is
    # a charge flip's missing mirror modes and the map applied before it.
    # Replaced whole and never mutated, so a shared instance stays
    # consistent; the truncation does not enter the map, so it is keyed
    # on the modes alone.
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _compile(self, space: FockSpace) -> tuple:
        u: ModeMap = {}
        flips = []
        for spec in self.elements:
            step, missing = element_map(space, spec)
            if missing:
                flips.append((missing, u))
            u = _compose(step, u) if u else step
        compiled = (space.modes, ModeMapPlan(u), tuple(flips))
        object.__setattr__(self, "_compiled", compiled)
        return compiled

    def apply(self, state: StateVector) -> StateVector:
        if not self.elements:
            return state
        compiled = self._compiled
        if compiled is None or compiled[0] != state.space.modes:
            compiled = self._compile(state.space)
        _, plan, flips = compiled
        for missing, u in flips:
            require_mirrors(state, missing, u)
        return plan.apply(state)


def build_interferometer(elements: Sequence[ElementSpec]) -> Interferometer:
    """Compose an ordered element list; the empty list is the identity."""
    return Interferometer(tuple(elements))


def mach_zehnder(
    mode_a: ModeLabel,
    mode_b: ModeLabel,
    phi: float,
    kappa: float = math.pi / 4,
) -> Interferometer:
    """BS, phase phi on mode_a, BS.

    Single-photon output intensities are (sin^2(phi/2), cos^2(phi/2)) on
    (mode_a, mode_b) in this reflection-phase convention.
    """
    return build_interferometer(
        [
            beam_splitter(mode_a, mode_b, kappa),
            phase_shift(mode_a, phi),
            beam_splitter(mode_a, mode_b, kappa),
        ]
    )
