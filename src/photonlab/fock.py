"""Truncated multimode bosonic Fock space.

States are sparse maps from occupation-number basis states to complex
amplitudes.  A ``FockSpace`` fixes the mode set and a hard truncation
``n_max`` on the *total* photon number; every operation is a pure
function returning a new state, so values can be shared freely across
parameter sweeps.

Inside, a basis state is a tuple of integer occupations, one per mode in
``FockSpace.modes`` order; the space owns the map from mode label to
position.  ``ModeLabel`` and ``BasisState`` appear only at the API edge:
building states and observables, and reading amplitudes back.  Passive
linear optics acts through one routine, ``apply_mode_map``, which takes
the map a_j^dag -> sum_i U_ij a_i^dag of the creation operators;
``ModeMapProgram`` and ``MoveStep`` replay its arithmetic, bit for bit,
on states whose support is fixed in advance.  The plan, the program and
the move step route photons through one move routine, ``_route``.

Conventions:

* ladder action:  a|n> = sqrt(n) |n-1>,  a^dag|n> = sqrt(n+1) |n+1>
* amplitudes with magnitude below ``PRUNE_EPS`` are dropped after each
  operation to keep the maps sparse
* basis states order lexicographically over their canonical occupation
  lists; every state keeps its terms in that order, so serialized
  states, and the sums taken over them, are bit-stable across runs
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PRUNE_EPS = 1e-15
HERMITICITY_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-10
SCHMIDT_TOL = 1e-10


class FockError(Exception):
    """Base class for Fock-space errors."""


class TruncationOverflowError(FockError):
    """A populated component would exceed the space truncation."""


class ModeNotInSpaceError(FockError):
    """An operation addressed a mode the space does not contain."""


class NonHermitianError(FockError):
    """A Hermitian observable was required but not provided."""


class ModeKind(str, Enum):
    """Degree of freedom a mode index refers to."""

    PATH = "path"
    OAM = "oam"
    FREQ = "frequency-bin"
    LEVEL = "two-level"


@dataclass(frozen=True, order=True)
class ModeLabel:
    """A distinguishable optical mode.

    ``index`` identifies the mode within its kind (OAM topological
    charge, path number, frequency bin, atomic level).  ``channel``
    distinguishes parallel copies of the same degree of freedom, e.g.
    the same OAM charge in two interferometer arms, or the signal and
    idler sides of a biphoton.  Labels are totally ordered and hashable;
    two labels are equal iff all three fields agree.
    """

    kind: ModeKind
    index: int
    channel: int = 0

    def __repr__(self) -> str:
        if self.channel:
            return f"{self.kind.value}({self.index};ch{self.channel})"
        return f"{self.kind.value}({self.index})"


def path(index: int) -> ModeLabel:
    return ModeLabel(ModeKind.PATH, index)


def oam(charge: int, channel: int = 0) -> ModeLabel:
    return ModeLabel(ModeKind.OAM, charge, channel)


def freq_bin(index: int, channel: int = 0) -> ModeLabel:
    return ModeLabel(ModeKind.FREQ, index, channel)


def level(index: int) -> ModeLabel:
    return ModeLabel(ModeKind.LEVEL, index)


def _occupation(mode: ModeLabel, n) -> int:
    """An occupation number as an int: ints and integral floats only."""
    if isinstance(n, float):
        if not n.is_integer():
            raise ValueError(f"occupation {n!r} for {mode} is not an integer")
        n = int(n)
    else:
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"occupation {n!r} for {mode} is not an integer") from None
    if n < 0:
        raise ValueError(f"negative occupation {n} for {mode}")
    return n


class BasisState:
    """Occupation-number basis state |n_1, n_2, ...>.

    Canonical form: pairs ``(mode, n)`` sorted by mode, zero counts
    omitted.  Instances are immutable and hashable.  Occupations must be
    nonnegative ints or integral floats.
    """

    __slots__ = ("occ", "_hash")

    def __init__(self, occupations: Mapping[ModeLabel, int] | Iterable[tuple[ModeLabel, int]]):
        items = occupations.items() if isinstance(occupations, Mapping) else occupations
        canon = []
        for mode, n in sorted(items):
            n = _occupation(mode, n)
            if n > 0:
                canon.append((mode, n))
        object.__setattr__(self, "occ", tuple(canon))
        object.__setattr__(self, "_hash", hash(self.occ))

    @classmethod
    def _canonical(cls, occ: tuple[tuple[ModeLabel, int], ...]) -> "BasisState":
        """From pairs already in canonical form; skips sorting and checks."""
        bs = object.__new__(cls)
        object.__setattr__(bs, "occ", occ)
        object.__setattr__(bs, "_hash", hash(occ))
        return bs

    def __setattr__(self, *_):
        raise AttributeError("BasisState is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisState) and self.occ == other.occ

    def __lt__(self, other: "BasisState") -> bool:
        return self.occ < other.occ

    @property
    def total(self) -> int:
        return sum(n for _, n in self.occ)

    def n(self, mode: ModeLabel) -> int:
        for m, cnt in self.occ:
            if m == mode:
                return cnt
        return 0

    def __repr__(self) -> str:
        if not self.occ:
            return "|vac>"
        inner = ", ".join(f"{m}:{n}" for m, n in self.occ)
        return f"|{inner}>"


VACUUM = BasisState({})

Occupations = tuple[int, ...]


def _order(occ: Occupations) -> tuple[tuple[int, int], ...]:
    """Sort key of an occupation tuple: the canonical (position, n) list,
    which orders exactly as the matching ``BasisState`` objects."""
    return tuple(compress(enumerate(occ), occ))


class FockSpace:
    """Mode set plus a hard truncation on the total photon number.

    ``n_max`` bounds the *total* N of any populated basis state.  For
    states prepared with ladder operators, choosing n_max at twice the
    largest prepared photon number keeps every ladder action exact.

    The space owns the map from mode label to position in ``modes``
    (sorted labels); states store occupation tuples in that order.
    """

    def __init__(self, modes: Iterable[ModeLabel], n_max: int):
        modes = tuple(modes)
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        mode_tuple = tuple(sorted(set(modes)))
        if len(mode_tuple) != len(modes):
            raise ValueError("duplicate mode labels")
        self.modes = mode_tuple
        self.n_max = int(n_max)
        self._index = {m: i for i, m in enumerate(mode_tuple)}

    def __contains__(self, mode: ModeLabel) -> bool:
        return mode in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockSpace)
            and self.modes == other.modes
            and self.n_max == other.n_max
        )

    def __hash__(self) -> int:
        return hash((self.modes, self.n_max))

    @property
    def dimension(self) -> int:
        # number of occupation lists with total <= n_max over M modes
        m = len(self.modes)
        return math.comb(self.n_max + m, m)

    def index(self, mode: ModeLabel) -> int:
        """Position of ``mode`` in ``modes``."""
        try:
            return self._index[mode]
        except KeyError:
            raise ModeNotInSpaceError(f"{mode} not in space") from None

    def require(self, mode: ModeLabel) -> None:
        self.index(mode)

    def contains_state(self, bs: BasisState) -> bool:
        return bs.total <= self.n_max and all(m in self._index for m, _ in bs.occ)

    def basis_state(self, occupations: Mapping[ModeLabel, int]) -> BasisState:
        bs = BasisState(occupations)
        if not self.contains_state(bs):
            raise TruncationOverflowError(f"{bs} not in space (n_max={self.n_max})")
        return bs

    def occupations(self, bs: BasisState) -> Occupations:
        """Occupation tuple of ``bs``, one count per mode in ``modes`` order."""
        occ = [0] * len(self.modes)
        total = 0
        for mode, n in bs.occ:
            i = self._index.get(mode)
            total += n
            if i is None or total > self.n_max:
                raise TruncationOverflowError(f"{bs} not in space (n_max={self.n_max})")
            occ[i] = n
        return tuple(occ)

    def label(self, occ: Occupations) -> BasisState:
        """The ``BasisState`` of an occupation tuple in ``modes`` order."""
        return BasisState._canonical(tuple((m, n) for m, n in zip(self.modes, occ) if n))

    def enumerate_basis(self) -> Iterator[BasisState]:
        """All basis states, lexicographic over canonical occupation lists."""

        def gen(i: int, left: int, acc: list[tuple[ModeLabel, int]]):
            if i == len(self.modes):
                yield BasisState(acc)
                return
            for n in range(left + 1):
                yield from gen(i + 1, left - n, acc + [(self.modes[i], n)])

        yield from sorted(gen(0, self.n_max, []))

    def __repr__(self) -> str:
        return f"FockSpace({list(self.modes)}, n_max={self.n_max})"


def _same_modes(a: FockSpace, b: FockSpace) -> bool:
    return a is b or a.modes == b.modes


class StateVector:
    """Complex amplitudes over the occupation basis of one FockSpace.

    Instances are immutable.  Construction prunes at ``PRUNE_EPS`` but
    does not normalize; ``normalized()`` does.  Norm-preserving elements
    keep <psi|psi> = 1 to 1e-12.
    Amplitudes are keyed on occupation tuples and kept in canonical
    order, so every sum over a state runs in the same order.
    """

    __slots__ = ("space", "_amp")

    def __init__(self, space: FockSpace, amplitudes: Mapping[BasisState, complex]):
        amp: dict[Occupations, complex] = {}
        for bs, a in amplitudes.items():
            occ = space.occupations(bs)
            a = complex(a)
            if abs(a) > PRUNE_EPS:
                amp[occ] = amp.get(occ, 0) + a
        _set_space(self, space)
        _set_amp(self, dict(sorted(amp.items(), key=_item_order)))

    def __setattr__(self, *_):
        raise AttributeError("StateVector is immutable")

    def amplitude(self, bs: BasisState) -> complex:
        if not self.space.contains_state(bs):
            return 0j
        return self._amp.get(self.space.occupations(bs), 0j)

    def items(self) -> list[tuple[BasisState, complex]]:
        """Amplitudes in fixed lexicographic order (bit-stable)."""
        label = self.space.label
        return [(label(occ), a) for occ, a in self._amp.items()]

    def support(self) -> list[BasisState]:
        label = self.space.label
        return [label(occ) for occ in self._amp]

    @property
    def num_terms(self) -> int:
        return len(self._amp)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amp.values()))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return _wrap(self.space, {occ: b for occ, a in self._amp.items() if abs(b := a / nrm) > PRUNE_EPS})

    def inner(self, other: "StateVector") -> complex:
        """<self|other> over the smaller support."""
        if not _same_modes(self.space, other.space):
            raise ValueError("states live in different spaces")
        a, b = self._amp, other._amp
        if len(b) < len(a):
            return sum(a[occ].conjugate() * amp for occ, amp in b.items() if occ in a)
        return sum(amp.conjugate() * b[occ] for occ, amp in a.items() if occ in b)

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.inner(other))

    def __add__(self, other: "StateVector") -> "StateVector":
        if other.space != self.space:
            raise ValueError("states live in different spaces")
        amp = dict(self._amp)
        for occ, a in other._amp.items():
            amp[occ] = amp.get(occ, 0) + a
        return _wrap(self.space, _canonical(amp))

    def scaled(self, factor: complex) -> "StateVector":
        return _wrap(self.space, {occ: b for occ, a in self._amp.items() if abs(b := factor * a) > PRUNE_EPS})

    def __repr__(self) -> str:
        terms = ", ".join(f"{a:.4g}*{bs}" for bs, a in self.items()[:6])
        more = "" if self.num_terms <= 6 else f", ... ({self.num_terms} terms)"
        return f"StateVector({terms}{more})"


# the two slots, written through their descriptors: StateVector's own
# __setattr__ refuses every assignment
_set_space = StateVector.space.__set__
_set_amp = StateVector._amp.__set__


def _wrap(space: FockSpace, amp: dict[Occupations, complex]) -> StateVector:
    """The state holding ``amp`` itself, which must already be pruned at
    ``PRUNE_EPS`` and in canonical order."""
    st = object.__new__(StateVector)
    _set_space(st, space)
    _set_amp(st, amp)
    return st


def _item_order(item: tuple[Occupations, complex]) -> tuple[tuple[int, int], ...]:
    return _order(item[0])


def _canonical(amp: Mapping[Occupations, complex]) -> dict[Occupations, complex]:
    """``amp`` pruned at ``PRUNE_EPS`` and sorted into canonical order."""
    return dict(sorted(((occ, a) for occ, a in amp.items() if abs(a) > PRUNE_EPS), key=_item_order))


def basis_vector(space: FockSpace, occupations: Mapping[ModeLabel, int]) -> StateVector:
    return StateVector(space, {space.basis_state(occupations): 1.0})


def vacuum_state(space: FockSpace) -> StateVector:
    return StateVector(space, {VACUUM: 1.0})


# ---------------------------------------------------------------------------
# ladder operators


def create(state: StateVector, mode: ModeLabel) -> StateVector:
    """Apply a^dag on ``mode``:  n -> n+1 with factor sqrt(n+1).

    The result is not renormalized; ladder action is linear, not
    unitary.  Raises TruncationOverflowError if any populated component
    would exceed the space truncation.
    """
    space = state.space
    i = space.index(mode)
    amp: dict[Occupations, complex] = {}
    for occ, a in state._amp.items():
        if sum(occ) + 1 > space.n_max:
            raise TruncationOverflowError(
                f"a^dag on {space.label(occ)} exceeds n_max={space.n_max}"
            )
        n = occ[i]
        amp[occ[:i] + (n + 1,) + occ[i + 1:]] = a * math.sqrt(n + 1)
    return _wrap(space, _canonical(amp))


def annihilate(state: StateVector, mode: ModeLabel) -> StateVector:
    """Apply a on ``mode``:  n -> n-1 with factor sqrt(n).

    The n = 0 component maps to the zero vector; this is not an error.
    """
    i = state.space.index(mode)
    amp: dict[Occupations, complex] = {}
    for occ, a in state._amp.items():
        n = occ[i]
        if n == 0:
            continue
        tgt = occ[:i] + (n - 1,) + occ[i + 1:]
        amp[tgt] = amp.get(tgt, 0) + a * math.sqrt(n)
    return _wrap(state.space, _canonical(amp))


def number_expectation(state: StateVector, mode: ModeLabel) -> float:
    """<N_mode> for a normalized state."""
    i = state.space.index(mode)
    return sum(occ[i] * abs(a) ** 2 for occ, a in state._amp.items())


def total_number_expectation(state: StateVector) -> float:
    return sum(sum(occ) * abs(a) ** 2 for occ, a in state._amp.items())


# ---------------------------------------------------------------------------
# passive linear optics


def _route(
    occ: Occupations,
    cleared: Sequence[int],
    moves: Sequence[tuple[int, int, object]],
) -> tuple[Occupations, list[tuple[object, int, float | None]]]:
    """Land the photons of each move ``(j, i, payload)`` of ``occ`` on row i.

    Every column in ``cleared`` is emptied first, so a row keeps its own
    photons only if no move empties it.  Returns the occupations after
    the moves and, for each move that carried n > 0 photons onto a row
    already holding k, ``(payload, n, sqrt(comb(k + n, n)))``, the root
    None when k = 0.
    """
    base = list(occ)
    for j in cleared:
        base[j] = 0
    steps = []
    for j, i, payload in moves:
        n = occ[j]
        if n:
            k = base[i]
            base[i] = k + n
            steps.append((payload, n, math.sqrt(math.comb(k + n, n)) if k else None))
    return tuple(base), steps


def _factor(steps: Sequence[tuple[complex, int, float | None]]) -> complex:
    """The product of c**n and the root of each step, from the integer 1,
    in step order; a coefficient of exactly 1 is skipped."""
    factor = 1
    for c, n, root in steps:
        if c != 1:
            factor *= c ** n
        if root is not None:
            factor *= root
    return factor


class ModeMapPlan:
    """A passive linear map resolved once for repeated application.

    ``columns[j]`` holds the entries {i: U_ij} of column j, with i and j
    positions in the space's modes; absent columns are the identity.
    The columns are sorted into moves, whose photons all go to one row,
    and spreads, whose photons are distributed over several rows;
    ``apply`` replays them on a state.  Building the plan is the
    state-independent part of ``apply_mode_map``, so a caller applying
    one map to many states builds it once.
    """

    __slots__ = ("_moves", "_spreads", "_cleared", "_ordered", "_rows")

    def __init__(self, columns: Mapping[int, Mapping[int, complex]]):
        moves: list[tuple[int, int, complex]] = []
        spreads = []
        for j in sorted(columns):
            entries = [(i, c) for i, c in sorted(columns[j].items()) if c != 0]
            if len(entries) == 1:
                i, c = entries[0]
                if i != j or c != 1:
                    moves.append((j, i, c))
            else:
                spreads.append((j, entries))
        self._moves = moves
        self._spreads = spreads
        self._cleared = [j for j, _, _ in moves] + [j for j, _ in spreads]
        # a map of phases only keeps the canonical order of the terms
        self._ordered = not spreads and all(i == j for j, i, _ in moves)
        # (table size, spread rows), replaced whole and never mutated, so
        # a plan shared between threads stays consistent
        self._rows: tuple[int, list] = (-1, [])

    def _spread_rows(self, photons: int) -> list:
        """The spread columns as (j, [(i, [c * sqrt(k + 1) for k < size])]),
        c * sqrt(k + 1) being the factor for a row already holding k
        photons; the table grows to ``photons`` entries on demand."""
        size, rows = self._rows
        if size < photons:
            rows = [
                (j, [(i, [c * math.sqrt(k + 1) for k in range(photons)]) for i, c in entries])
                for j, entries in self._spreads
            ]
            self._rows = (photons, rows)
        return rows

    def apply(self, state: StateVector) -> StateVector:
        """The map on every basis state of ``state``; see ``apply_mode_map``."""
        moves = self._moves
        if not moves and not self._spreads:
            return state
        spreads = self._spread_rows(max(map(sum, state._amp), default=0)) if self._spreads else []
        cleared = self._cleared
        out: dict[Occupations, complex] = {}
        for occ, amp in state._amp.items():
            key, steps = _route(occ, cleared, moves)
            factor = _factor(steps)
            if factor != 1:
                amp = amp * factor
            terms = {key: amp}
            for j, rows in spreads:
                for p in range(1, occ[j] + 1):
                    scale = 1 / math.sqrt(p)
                    nxt: dict[Occupations, complex] = {}
                    for t, x in terms.items():
                        if p > 1:
                            x = x * scale
                        for i, cs in rows:
                            k = t[i]
                            key = t[:i] + (k + 1,) + t[i + 1:]
                            nxt[key] = nxt.get(key, 0) + x * cs[k]
                    terms = nxt
            for t, x in terms.items():
                out[t] = out.get(t, 0) + x
        if self._ordered:
            return _wrap(state.space, {t: x for t, x in out.items() if abs(x) > PRUNE_EPS})
        return _wrap(state.space, _canonical(out))


class ModeMapProgram:
    """A ``ModeMapPlan`` compiled against one input support.

    Compilation runs ``apply``'s expansion once on the occupation tuples
    of ``support`` alone.  Every intermediate term becomes an integer
    slot, and every expansion step an instruction: read a slot, scale it
    by the term's moves factor or by 1/sqrt(p), and add x * cs[k] into
    the slots of the next photon; the last instructions add each term
    into its output slot.  ``apply`` replays the instructions on a
    state's amplitudes with the same float operations in the same order,
    every sum starting from the integer 0 as ``apply``'s dict
    accumulation does, then prunes at ``PRUNE_EPS`` and keeps the
    canonical output order found once.  So its states equal
    ``plan.apply`` bit for bit.

    A state whose terms differ from ``support``, say because an upstream
    step cancelled one below ``PRUNE_EPS``, goes through ``plan.apply``.
    ``support_out`` lists the output terms when none is pruned.
    """

    __slots__ = ("_plan", "_support", "_zeros", "_spread", "_gather", "_out", "support_out")

    def __init__(self, plan: ModeMapPlan, support: Sequence[Occupations]):
        support = [tuple(occ) for occ in support]
        spreads = plan._spread_rows(max(map(sum, support), default=0)) if plan._spreads else []
        slots = len(support)
        spread_ops = []  # (source slot, multiplier or None, ((target slot, c), ...))
        gather_ops = []  # (source slot, multiplier or None, output slot)
        out: dict[Occupations, int] = {}
        for s, occ in enumerate(support):
            key, steps = _route(occ, plan._cleared, plan._moves)
            factor = _factor(steps)
            # key -> (slot, multiplier still to apply when the slot is read)
            terms = {key: (s, factor if factor != 1 else None)}
            for j, rows in spreads:
                for p in range(1, occ[j] + 1):
                    scale = 1 / math.sqrt(p)
                    nxt: dict[Occupations, int] = {}
                    for t, (src, mul) in terms.items():
                        dsts = []
                        for i, cs in rows:
                            k = t[i]
                            key = t[:i] + (k + 1,) + t[i + 1:]
                            if key not in nxt:
                                nxt[key] = slots
                                slots += 1
                            dsts.append((nxt[key], cs[k]))
                        spread_ops.append((src, scale if p > 1 else mul, tuple(dsts)))
                    terms = {t: (slot, None) for t, slot in nxt.items()}
            for t, (src, mul) in terms.items():
                if t not in out:
                    out[t] = slots
                    slots += 1
                gather_ops.append((src, mul, out[t]))
        keys = list(out) if plan._ordered else sorted(out, key=_order)
        self._plan = plan
        self._support = support
        self._zeros = [0] * (slots - len(support))
        self._spread = spread_ops
        self._gather = gather_ops
        self._out = [(key, out[key]) for key in keys]
        self.support_out = keys

    def apply(self, state: StateVector) -> StateVector:
        """``plan.apply(state)``, bit for bit."""
        plan = self._plan
        if not plan._moves and not plan._spreads:
            return state
        if list(state._amp) != self._support:
            return plan.apply(state)
        v = [*state._amp.values(), *self._zeros]
        for src, mul, dsts in self._spread:
            x = v[src]
            if mul is not None:
                x = x * mul
            for dst, c in dsts:
                v[dst] += x * c
        for src, mul, dst in self._gather:
            x = v[src]
            if mul is not None:
                x = x * mul
            v[dst] += x
        return _wrap(state.space, {key: a for key, slot in self._out if abs(a := v[slot]) > PRUNE_EPS})


class MoveStep:
    """A map of moves, compiled against one state, its coefficients left free.

    ``pairs[q] = (j, i)`` sends the photons of column j to row i, with
    coefficient ``coeffs[q]`` per photon; columns and rows must each be
    distinct, as in a permutation of modes times phases.  The basis
    state each term of ``state`` goes to, the photon counts and the
    sqrt(comb(k + n, n)) factors are resolved once.  ``apply(coeffs)``
    forms only the factor of each term, with the multiplications of
    ``ModeMapPlan.apply`` in its order, so it equals
    ``ModeMapPlan({j: {i: coeffs[q]}}).apply(state)`` bit for bit for
    nonzero coefficients.  ``support_out`` lists the output terms when none
    is pruned.
    """

    __slots__ = ("_state", "_space", "_diagonal", "_groups", "support_out")

    def __init__(self, state: StateVector, pairs: Sequence[tuple[int, int]]):
        pairs = [(j, i) for j, i in pairs]
        for side in zip(*pairs):
            if len(set(side)) != len(side):
                raise ValueError(f"moves {pairs} repeat a column or a row")
        # the plan's moves run in column order, so the factors multiply in it
        moves = sorted((j, i, q) for q, (j, i) in enumerate(pairs))
        cleared = [j for j, _ in pairs]
        groups: dict[Occupations, list] = {}
        for occ, amp in state._amp.items():
            key, program = _route(occ, cleared, moves)
            groups.setdefault(key, []).append((amp, tuple(program)))
        self._state = state
        self._space = state.space
        self._diagonal = all(j == i for j, i in pairs)
        self.support_out = list(groups) if self._diagonal else sorted(groups, key=_order)
        self._groups = [(key, tuple(groups[key])) for key in self.support_out]

    def apply(self, coeffs: list[complex]) -> StateVector:
        """The moves with coefficients ``coeffs`` on the compiled state."""
        if self._diagonal and coeffs.count(1) == len(coeffs):
            # every column is the identity, which the plan skips
            return self._state
        out: dict[Occupations, complex] = {}
        for key, sources in self._groups:
            a = 0
            for amp, program in sources:
                factor = 1
                for q, n, root in program:
                    c = coeffs[q]
                    if c != 1:
                        factor *= c ** n
                    if root is not None:
                        factor *= root
                if factor != 1:
                    amp = amp * factor
                a += amp
            if abs(a) > PRUNE_EPS:
                out[key] = a
        return _wrap(self._space, out)


def apply_mode_map(
    state: StateVector,
    columns: Mapping[int, Mapping[int, complex]],
) -> StateVector:
    """Passive linear map a_j^dag -> sum_i U_ij a_i^dag on every basis state.

    ``columns[j]`` holds the entries {i: U_ij} of column j, with i and j
    positions in ``state.space.modes``; absent columns are the identity.
    Each basis state is rebuilt one creation operator at a time, as in
    SLOS (Heurtel et al., arXiv:2206.10549):

    * photons in modes the map leaves fixed are copied;
    * the n photons of a column with a single entry c move in one step
      with factor c**n, so a phase shift multiplies by ph**n exactly;
    * every other photon is spread over the rows of its column, gaining
      sqrt(k + 1) on a row already holding k photons.

    The 1/sqrt(s!) of the input occupations is paid one photon at a
    time, so an output amplitude is Perm(U_T,S) / sqrt(prod s! prod t!)
    (Scheel, quant-ph/0406127) with no factorial formed.  Input terms
    are expanded in canonical order and the output is put back into it.
    Photon number is conserved, so the truncation cannot overflow.
    """
    return ModeMapPlan(columns).apply(state)


# ---------------------------------------------------------------------------
# observables


class Observable:
    """Sparse linear operator: map (bra basis state, ket basis state) -> entry.

    If built with ``hermitian=True`` the entries are checked to satisfy
    M[a,b] = conj(M[b,a]) to within 1e-12.  Entries are stored once, on
    occupation tuples of ``space``, as rows: each bra maps to its
    (ket, entry) pairs, bras in order of first appearance and each row in
    entry order.  An amplitude of O|psi> is then one walk along a row.
    """

    __slots__ = ("space", "_rows", "hermitian")

    def __init__(
        self,
        space: FockSpace,
        entries: Mapping[tuple[BasisState, BasisState], complex],
        hermitian: bool = True,
    ):
        ent = {
            (space.occupations(bra), space.occupations(ket)): complex(v)
            for (bra, ket), v in entries.items()
            if v != 0
        }
        if hermitian:
            for (bra, ket), v in ent.items():
                if abs(v - ent.get((ket, bra), 0j).conjugate()) > HERMITICITY_TOL:
                    raise NonHermitianError(
                        f"entry ({space.label(bra)},{space.label(ket)}) breaks "
                        f"Hermiticity by more than {HERMITICITY_TOL}"
                    )
        rows: dict[Occupations, list[tuple[Occupations, complex]]] = {}
        for (bra, ket), v in ent.items():
            rows.setdefault(bra, []).append((ket, v))
        self.space = space
        self._rows = {bra: tuple(row) for bra, row in rows.items()}
        self.hermitian = hermitian

    def _entries(self) -> Iterator[tuple[Occupations, Occupations, complex]]:
        for bra, row in self._rows.items():
            for ket, v in row:
                yield bra, ket, v

    def apply(self, state: StateVector) -> StateVector:
        """O|psi> (unnormalized).

        Each amplitude sums its row's products from the integer 0, in
        entry order.
        """
        if not _same_modes(self.space, state.space):
            raise ValueError("state and observable live in different spaces")
        amp = state._amp
        out: dict[Occupations, complex] = {}
        for bra, row in self._rows.items():
            o = 0
            for ket, v in row:
                a = amp.get(ket)
                if a is not None:
                    o += v * a
            out[bra] = o
        return _wrap(self.space, _canonical(out))

    def _support(self) -> set[Occupations]:
        s = set(self._rows)
        for row in self._rows.values():
            s.update(ket for ket, _ in row)
        return s

    def support(self) -> list[BasisState]:
        return [self.space.label(occ) for occ in sorted(self._support(), key=_order)]

    def _matrix(self, basis: Sequence[Occupations]) -> np.ndarray:
        idx = {occ: i for i, occ in enumerate(basis)}
        m = np.zeros((len(basis), len(basis)), dtype=complex)
        for bra, ket, v in self._entries():
            if bra in idx and ket in idx:
                m[idx[bra], idx[ket]] = v
        return m

    def matrix(self, basis: Sequence[BasisState]) -> np.ndarray:
        return self._matrix([self.space.occupations(bs) for bs in basis])

    def max_hermiticity_defect(self) -> float:
        ent = {(bra, ket): v for bra, ket, v in self._entries()}
        defect = 0.0
        for (bra, ket), v in ent.items():
            defect = max(defect, abs(v - ent.get((ket, bra), 0j).conjugate()))
        return defect

    def eigensystem(self, state: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and Born probabilities of measuring on ``state``.

        The matrix is diagonalized on the span of the operator support
        plus the state support; everything outside the operator support
        lies in its kernel, so the restriction is exact.
        """
        if not self.hermitian:
            raise NonHermitianError("projective measurement needs a Hermitian observable")
        if not _same_modes(self.space, state.space):
            raise ValueError("state and observable live in different spaces")
        basis = sorted(self._support() | set(state._amp), key=_order)
        m = self._matrix(basis)
        evals, evecs = np.linalg.eigh(m)
        psi = np.array([state._amp.get(occ, 0j) for occ in basis])
        probs = np.abs(evecs.conj().T @ psi) ** 2
        total = probs.sum()
        if total > 0:
            probs = probs / total
        return evals, probs


def identity_observable(space: FockSpace, basis: Iterable[BasisState]) -> Observable:
    return Observable(space, {(bs, bs): 1.0 for bs in basis})


def dyad_sum(
    space: FockSpace,
    dyads: Iterable[tuple[BasisState, BasisState, complex]],
    hermitian: bool = True,
) -> Observable:
    """Observable from |bra><ket| terms."""
    ent: dict[tuple[BasisState, BasisState], complex] = {}
    for bra, ket, coeff in dyads:
        key = (bra, ket)
        ent[key] = ent.get(key, 0) + coeff
    return Observable(space, ent, hermitian=hermitian)


def expectation(state: StateVector, obs: Observable) -> float:
    """<psi|O|psi> for a Hermitian O on a normalized state.

    The imaginary residue must be below 1e-10 and is discarded.  The
    value equals ``state.inner(obs.apply(state))`` bit for bit, without
    building O|psi>: the state's terms are walked in canonical order, and
    each one with a row forms its O|psi> amplitude as ``apply`` does,
    keeping it if it is above ``PRUNE_EPS``.
    """
    if not obs.hermitian:
        raise NonHermitianError("expectation requires a Hermitian observable")
    if obs.space is not state.space and obs.space.modes != state.space.modes:
        raise ValueError("state and observable live in different spaces")
    amp = state._amp
    rows = obs._rows
    terms = []
    for occ, a in amp.items():
        row = rows.get(occ)
        if row is not None:
            o = 0
            for ket, v in row:
                b = amp.get(ket)
                if b is not None:
                    o += v * b
            if abs(o) > PRUNE_EPS:
                terms.append(a.conjugate() * o)
    val = sum(terms)
    if abs(val.imag) > IMAG_RESIDUE_TOL:
        raise FockError(f"imaginary residue {val.imag:.2e} exceeds {IMAG_RESIDUE_TOL}")
    return val.real


def variance_and_uncertainty(state: StateVector, obs: Observable) -> tuple[float, float]:
    """(Delta O)^2 and Delta O = sqrt(<O^2> - <O>^2), round-off clamped.

    <O^2> is evaluated as <O psi|O psi>, avoiding an explicit operator
    square.
    """
    mean = expectation(state, obs)
    ophi = obs.apply(state)
    second = ophi.inner(ophi).real
    var = second - mean * mean
    return var, math.sqrt(max(var, 0.0))


def susskind_glogower(space: FockSpace) -> tuple[Observable, Observable]:
    """Ladder-phase operator pair on a single-mode space.

    Returns ``(S, A)`` where S = sum_n |n><n+1| (non-Hermitian) and
    A = S + S^dag (Hermitian).  On the truncated space S coincides
    entrywise with (N+1)^(-1/2) a; truncated to {|0>,|1>} the Hermitian
    A is the first Pauli matrix.
    """
    if len(space.modes) != 1:
        raise ValueError("susskind_glogower expects a single-mode space")
    if space.n_max < 1:
        raise ValueError("need n_max >= 1")
    mode = space.modes[0]
    levels = [space.basis_state({mode: n} if n else {}) for n in range(space.n_max + 1)]
    s_ent = {(levels[n], levels[n + 1]): 1.0 for n in range(space.n_max)}
    s = Observable(space, s_ent, hermitian=False)
    # cross-check the sum form against the ladder form (N+1)^(-1/2) a
    for n in range(1, space.n_max + 1):
        ladder = annihilate(StateVector(space, {levels[n]: 1.0}), mode).scaled(
            1 / math.sqrt(n)
        )
        defect = (s.apply(StateVector(space, {levels[n]: 1.0})) + ladder.scaled(-1)).norm()
        if defect > 1e-12:
            raise FockError(f"ladder-phase identity broken at n={n}: defect {defect:.2e}")
    a_ent = dict(s_ent)
    for n in range(space.n_max):
        a_ent[(levels[n + 1], levels[n])] = 1.0
    a = Observable(space, a_ent, hermitian=True)
    return s, a


def number_observable(space: FockSpace, mode: ModeLabel) -> Observable:
    """N_mode as a diagonal sparse observable (small spaces only)."""
    space.require(mode)
    ent = {}
    for bs in space.enumerate_basis():
        n = bs.n(mode)
        if n:
            ent[(bs, bs)] = float(n)
    return Observable(space, ent)


def truncated_phase_state(space: FockSpace, phi: float) -> StateVector:
    """Normalized partial sum sum_{n<=n_max} e^{i n phi} |n> / sqrt(n_max+1).

    Phase states are non-normalizable; only truncated partial sums are
    representable.  S acts on the partial sum as e^{i phi} times the
    same state up to a truncation tail of norm 1/sqrt(n_max+1).
    """
    if len(space.modes) != 1:
        raise ValueError("phase states are single-mode")
    mode = space.modes[0]
    k = space.n_max
    amp = {
        space.basis_state({mode: n} if n else {}): cmath.exp(1j * n * phi) / math.sqrt(k + 1)
        for n in range(k + 1)
    }
    return StateVector(space, amp)


# ---------------------------------------------------------------------------
# entanglement


def schmidt_values(
    state: StateVector,
    partition: tuple[Sequence[ModeLabel], Sequence[ModeLabel]],
) -> np.ndarray:
    """Singular values of the amplitude matrix under a mode bipartition.

    The state amplitudes are reshaped into a matrix indexed by the
    occupation pattern on each side; the singular values squared are the
    Schmidt coefficients.  Rank 1 (one value above 1e-10) iff the state
    is separable across the partition.
    """
    side_a, side_b = (frozenset(p) for p in partition)
    if not side_a or not side_b:
        raise ValueError("partition sides must be nonempty")
    if side_a & side_b:
        raise ValueError("partition sides overlap")
    space = state.space
    if (side_a | side_b) != frozenset(space.modes):
        raise ValueError("partition must cover all modes of the space")
    # the occupations on each side, as a tuple (or a bare int for one mode)
    key_a = operator.itemgetter(*sorted(space.index(m) for m in side_a))
    key_b = operator.itemgetter(*sorted(space.index(m) for m in side_b))
    rows: dict = {}
    cols: dict = {}
    coords = []
    for occ, a in state._amp.items():
        i = rows.setdefault(key_a(occ), len(rows))
        j = cols.setdefault(key_b(occ), len(cols))
        coords.append((i, j, a))
    m = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, j, a in coords:
        m[i, j] = a
    return np.linalg.svd(m, compute_uv=False)


def schmidt_rank(
    state: StateVector,
    partition: tuple[Sequence[ModeLabel], Sequence[ModeLabel]],
    tol: float = SCHMIDT_TOL,
) -> tuple[int, np.ndarray]:
    """Schmidt rank and singular values; rank 1 iff separable."""
    svals = schmidt_values(state, partition)
    return int(np.sum(svals > tol)), svals
