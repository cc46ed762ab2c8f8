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
linear optics acts through one routine, ``ModeMapPlan.apply``, which
takes the map a_j^dag -> sum_i U_ij a_i^dag of the creation operators
and builds the output of each input term on its own, one photon level
at a time.  A small expansion runs as a dict expansion with one update
per (term, row); a large one runs each level as one numpy step over the
terms of that level, with the float operations and the order of every
sum of that dict expansion (complex products are written in float parts
because numpy's complex multiply rounds differently from CPython's).  A
work bound counted from the input picks the path.
``PhaseStep`` multiplies each term of a fixed state by the factor of a
diagonal phase map; a protocol builds one on its probe and leaves the
phases free.
``ModeMapProgram`` is a plan as a dense linear stage on a support fixed
in advance: its columns are ``ModeMapPlan.apply`` on each support term,
and it sums them as the plan does.
A state holds its terms in one of two forms, both in canonical order:
the amplitude dict, keyed on occupation tuples, and the view, its
occupation matrix (modes x terms, int64) and its amplitudes as arrays.
``ModeMapPlan.apply`` reads its input through the view when the dict
is unset, and sets only the view of its output; every other constructor
sets only the dict.
The other form is derived once, on its first read, and kept: the dict
by ``_ViewedState.__getattr__``, the view by ``_view_of``.  Both forms
are read-only and states are immutable, so neither can go stale.  The
array readouts, ``number_expectation`` and ``schmidt_values``, read the
view; everything else reads the dict.

Conventions:

* ladder action:  a|n> = sqrt(n) |n-1>,  a^dag|n> = sqrt(n+1) |n+1>
* amplitudes with magnitude below ``PRUNE_EPS`` are dropped after each
  operation to keep the maps sparse
* basis states order lexicographically over their canonical occupation
  lists; every state keeps its terms in that order, so serialized
  states, and the sums taken over them, are bit-stable across runs
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import compress, groupby
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PRUNE_EPS = 1e-15
HERMITICITY_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-10
SCHMIDT_TOL = 1e-10
# ``ModeMapPlan.apply`` expands on dicts while the updates number at most
# this many per level of the array engine; above it, on arrays
DICT_UPDATES_PER_LEVEL = 70


class FockError(Exception):
    """Base class for Fock-space errors."""


class TruncationOverflowError(FockError):
    """A populated component would exceed the space truncation."""


class ModeNotInSpaceError(FockError):
    """An operation addressed a mode the space does not contain."""


class NonHermitianError(FockError):
    """A Hermitian observable was required but not provided."""


class ResolutionError(FockError):
    """The sampling grid cannot support the requested computation."""


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
    ``_view`` holds the same terms as arrays for the array readouts: the
    occupation matrix (modes x terms, int64) and the complex amplitudes,
    in canonical order and read-only.  Every constructor but the engine
    sets ``_amp`` only, and ``_view_of`` sets ``_view`` when a readout
    first asks.  ``ModeMapPlan.apply`` sets ``_view`` only, on a
    ``_ViewedState``, which builds ``_amp`` from it on its first read.
    A form derived from the other is built once and kept.
    """

    __slots__ = ("space", "_amp", "_view")

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

    def __reduce__(self):
        try:
            return _wrap, (self.space, _get_amp(self))
        except AttributeError:
            return _viewed, (self.space, *self._view)

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
        try:
            return len(_get_amp(self))
        except AttributeError:
            return self._view[1].size

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


class _ViewedState(StateVector):
    """A state ``ModeMapPlan.apply`` made: it holds only its view until
    its amplitude dict is first read.

    The hook that builds the dict lives on this class alone.  CPython
    reads every attribute of a class with ``__getattr__`` on a slower
    path, which would tax the small dict states of the per-point path.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        # called only for an unset slot, so a set ``_amp`` is read without
        # it; threads that race here build equal dicts
        if name != "_amp":
            raise AttributeError(f"'StateVector' object has no attribute {name!r}")
        built = dict(_view_items(self._view))
        _set_amp(self, built)
        return built


# the slots, written through their descriptors: StateVector's own
# __setattr__ refuses every assignment
_set_space = StateVector.space.__set__
_set_amp = StateVector._amp.__set__
_get_amp = StateVector._amp.__get__
_set_view = StateVector._view.__set__


def _wrap(space: FockSpace, amp: dict[Occupations, complex]) -> StateVector:
    """The state holding ``amp`` itself, which must already be pruned at
    ``PRUNE_EPS`` and in canonical order."""
    st = object.__new__(StateVector)
    _set_space(st, space)
    _set_amp(st, amp)
    return st


def _viewed(space: FockSpace, occ: np.ndarray, amp: np.ndarray) -> StateVector:
    """The state holding only the view ``occ``, ``amp`` (see ``_frozen``)."""
    st = object.__new__(_ViewedState)
    _set_space(st, space)
    _set_view(st, _frozen(occ, amp))
    return st


def _frozen(occ: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A state's view: its occupation matrix ``occ`` (modes x terms,
    int64) and amplitudes ``amp``, in canonical order, made read-only."""
    occ.flags.writeable = False
    amp.flags.writeable = False
    return occ, amp


def _view_items(view: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple[Occupations, complex]]:
    """The terms of a view as (occupations, amplitude) pairs, in its order."""
    occ, amp = view
    return zip(zip(*occ.tolist()), amp.tolist())


def _terms(state: StateVector) -> Iterable[tuple[Occupations, complex]]:
    """The terms of ``state`` as (occupations, amplitude) pairs, in
    canonical order, read from its dict when that is set and from its
    view otherwise, so that neither form is built."""
    try:
        return _get_amp(state).items()
    except AttributeError:
        return _view_items(state._view)


def _view_of(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The view of ``state``, built and kept on first use when the
    engine did not set it; threads that race here build equal views."""
    try:
        return state._view
    except AttributeError:
        amp = state._amp
        occ = np.array(list(zip(*amp)), dtype=np.int64).reshape(len(state.space.modes), len(amp))
        view = _frozen(occ, np.fromiter(amp.values(), complex, len(amp)))
        _set_view(state, view)
        return view


def _item_order(item: tuple[Occupations, complex]) -> tuple[tuple[int, int], ...]:
    return _order(item[0])


def _canonical(amp: Mapping[Occupations, complex]) -> dict[Occupations, complex]:
    """``amp`` pruned at ``PRUNE_EPS`` and sorted into canonical order."""
    return dict(sorted(((occ, a) for occ, a in amp.items() if abs(a) > PRUNE_EPS), key=_item_order))


def basis_vector(space: FockSpace, occupations: Mapping[ModeLabel, int]) -> StateVector:
    return StateVector(space, {space.basis_state(occupations): 1.0})


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
    """<N_mode> for a normalized state.

    One array operation over the state's view: the mode's row of the
    occupation matrix times |a|^2, summed pairwise by numpy, so the value
    does not depend on the BLAS or its threads.
    """
    i = state.space.index(mode)
    occ, amp = _view_of(state)
    return float((occ[i] * np.abs(amp) ** 2).sum())


# ---------------------------------------------------------------------------
# passive linear optics


def _route(
    occ: Occupations,
    cleared: Sequence[int],
    moves: Sequence[tuple[int, int, complex]],
) -> tuple[Occupations, complex]:
    """Land the photons of each move ``(j, i, c)`` of ``occ`` on row i.

    Every column in ``cleared`` is emptied first, so a row keeps its own
    photons only if no move empties it.  Returns the occupations after
    the moves and their factor: from the integer 1, in move order, for
    each move that carried n > 0 photons onto a row already holding k,
    c**n (skipped when c is exactly 1), then sqrt(comb(k + n, n)) when
    k > 0.
    """
    base = list(occ)
    for j in cleared:
        base[j] = 0
    factor = 1
    for j, i, c in moves:
        n = occ[j]
        if n:
            k = base[i]
            base[i] = k + n
            if c != 1:
                factor *= c ** n
            if k:
                factor *= math.sqrt(math.comb(k + n, n))
    return tuple(base), factor


class ModeMapPlan:
    """Passive linear map a_j^dag -> sum_i U_ij a_i^dag, resolved once.

    ``columns[j]`` holds the entries {i: U_ij} of column j, with i and j
    positions in the space's modes; absent columns are the identity.
    The columns are sorted into moves, whose photons all go to one row,
    and spreads, whose photons are distributed over several rows, so a
    caller applying one map to many states builds the plan once.
    ``apply`` rebuilds each basis state one creation operator at a
    time, as in SLOS (Heurtel et al., arXiv:2206.10549):

    * photons in modes the map leaves fixed are copied;
    * the n photons of a column with a single entry c move in one step
      with factor c**n, so a phase shift multiplies by ph**n exactly;
    * every other photon is spread over the rows of its column, gaining
      sqrt(k + 1) on a row already holding k photons; the photons of a
      column with no entry vanish.

    The 1/sqrt(s!) of the input occupations is paid one photon at a
    time, so an output amplitude is Perm(U_T,S) / sqrt(prod s! prod t!)
    (Scheel, quant-ph/0406127) with no factorial formed.  Photon number
    is conserved, so the truncation cannot overflow.

    ``apply`` routes each input term through the moves in Python, then
    spreads the other photons on one of two paths, which do the
    arithmetic of a dict expansion with one update per (term, row).
    Both expand each input term on its own, spread column by spread
    column and one level per photon: each level visits its terms in the
    order they were first reached, scales each by 1/sqrt(p) when p > 1,
    and adds its product with each row's factor into the target term,
    starting from 0.  The output sums each basis state's contributions
    from 0 in input order, prunes at ``PRUNE_EPS`` and sorts into
    canonical order.  So the states are bit-stable, and for finite
    amplitudes and coefficients both paths equal that dict expansion bit
    for bit.

    * ``_by_dict`` is that dict expansion, each term keyed by one
      integer; its cost is about 0.3 us per update.
    * ``_by_arrays`` runs it in numpy (``_Expansion``), one step per
      level; each step costs a few dozen numpy calls whatever its size.

    The rule: the dict path runs when its updates U number at most
    ``DICT_UPDATES_PER_LEVEL`` (K = 70) times the levels L of the array
    path, one per spread photon of each input term (``_dict_fits``).
    Both are counted from the input before any expansion.  K lies
    between the measured crossovers of the two families below, U/L of
    about 45 for meshes and 90 for NOON states (warm plans, interleaved,
    best of 15, on a shared 2-vCPU VM; times in us, the path ``apply``
    takes marked *):

    ================================ ======= ========= ==========
    input                              U/L     dict      arrays
    ================================ ======= ========= ==========
    one photon, 2 x 2                    2      16 *        72
    NOON N = 10, 2 x 2                  11      96 *       461
    NOON N = 40, 2 x 2                  41     964 *      1787
    NOON N = 69, 2 x 2                  70    2541 *      3188
    NOON N = 70, 2 x 2                  71    2682        3244 *
    NOON N = 90, 2 x 2                  91    4463        4421 *
    NOON N = 120, 2 x 2                121    8043        6198 *
    mesh M = 4, one per mode            35     124 *       147
    mesh M = 5, one per mode           126     477         209 *
    mesh M = 7, one per mode          1716    8550        1043 *
    6 terms of 3 photons, M = 5 mesh    35     273 *       515
    6 terms of 5 photons, M = 5 mesh   126    1343        1036 *
    3 photons, 40 x 40               11480  134356       20887 *
    ================================ ======= ========= ==========
    """

    __slots__ = ("_moves", "_spreads", "_cleared", "_blocks", "_expansion", "_factors")

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
        # the blocks, adjacent spread columns that reach the same rows:
        # (first, stop) among the spread columns, and their r rows; the
        # dict path's updates are counted per block (``_dict_fits``)
        self._blocks = []
        q = 0
        for rows, same in groupby([i for i, _ in entries] for _, entries in spreads):
            stop = q + len(list(same))
            self._blocks.append((q, stop, len(rows)))
            q = stop
        # the tables of each path, replaced whole and never mutated, so a
        # plan shared between threads stays consistent
        self._expansion: _Expansion | None = None
        self._factors: tuple | None = None

    def apply(self, state: StateVector) -> StateVector:
        """The map on every basis state of ``state``.

        The input is read through its view when its amplitude dict is
        unset, so an engine output fed to another plan builds no dict.
        The output holds only its view, in canonical order; its amplitude
        dict is built from the view on first read.  Small expansions run
        as a dict expansion and the others on arrays (see the class).
        """
        if not self._moves and not self._spreads:
            return state
        keys, amps, held, size = self._routed(state)
        if not keys:
            return _wrap(state.space, {})
        expand = self._by_dict if self._dict_fits(held) else self._by_arrays
        return _viewed(state.space, *expand(keys, amps, held, size))

    def _routed(self, state: StateVector) -> tuple[list[Occupations], list[complex], list[list[int]], int]:
        """Each input term that keeps its photons, after the moves: its
        occupations, its amplitude times the moves' factor and its photons
        in each spread column; then the most photons in one term.  These
        are the arguments of either path."""
        moves, cleared = self._moves, self._cleared
        spread_cols = [j for j, _ in self._spreads]
        sinks = [j for j, entries in self._spreads if not entries]
        keys, amps, held = [], [], []
        size = 0
        for occ, amp in _terms(state):
            if any(occ[j] for j in sinks):
                continue
            size = max(size, sum(occ))
            key, factor = _route(occ, cleared, moves)
            if factor != 1:
                amp = amp * factor
            keys.append(key)
            amps.append(amp)
            held.append([occ[j] for j in spread_cols])
        return keys, amps, held, size

    def _dict_fits(self, held: list[list[int]]) -> bool:
        """The rule that picks the path: whether the dict expansion's
        (term, row) updates number at most ``DICT_UPDATES_PER_LEVEL``
        times the array engine's levels.

        A term with n photons in a block of r rows makes r * C(n + r - 1, r)
        updates there (C(p + r - 2, r - 1) terms at each level p, summed by
        the hockey-stick identity); its blocks multiply, a term with no
        spread photon makes none, and the terms add.  The engine takes one
        level per spread photon of each term.
        """
        budget = DICT_UPDATES_PER_LEVEL * sum(map(sum, held))
        updates = 0
        for h in held:
            work = 0
            for q, stop, r in self._blocks:
                n = sum(h[q:stop])
                if n:
                    work = (work or 1) * r * math.comb(n + r - 1, r)
            updates += work
            if updates > budget:
                return False
        return True

    def _by_dict(
        self,
        keys: list[Occupations],
        amps: list[complex],
        held: list[list[int]],
        size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The small-input path: the dict expansion, one update per (term,
        row), with each term keyed by the integer sum_i n_i * B**i, where
        B - 1 is the photon count the factor table covers, at least
        ``size``.  A photon on row i adds B**i to the key, and the row
        held t // B**i % B photons before.  Returns the output's
        occupation matrix and amplitudes, pruned at ``PRUNE_EPS`` by
        ``abs`` and in canonical order."""
        factors = self._factors
        if factors is None or factors[0] < size:
            factors = self._factors = (size, [
                [(i, [c * math.sqrt(k + 1) for k in range(size)]) for i, c in entries]
                for _, entries in self._spreads
            ])
        base = factors[0] + 1
        m = len(keys[0])
        powers = [base**i for i in range(m)]
        spreads = [[(powers[i], cs) for i, cs in rows] for rows in factors[1]]
        out: dict[int, complex] = {}
        for key, amp, photons in zip(keys, amps, held):
            terms = {sum(map(operator.mul, key, powers)): amp}
            for rows, n in zip(spreads, photons):
                for p in range(1, n + 1):
                    scale = 1 / math.sqrt(p)
                    nxt: dict[int, complex] = {}
                    for t, x in terms.items():
                        if p > 1:
                            x = x * scale
                        for step, cs in rows:
                            u = t + step
                            nxt[u] = nxt.get(u, 0) + x * cs[t // step % base]
                    terms = nxt
            for t, x in terms.items():
                out[t] = out.get(t, 0) + x
        kept = sorted(
            ((tuple(t // q % base for q in powers), a) for t, a in out.items() if abs(a) > PRUNE_EPS),
            key=_item_order,
        )
        occ = np.array(list(zip(*(o for o, _ in kept))), dtype=np.int64).reshape(m, len(kept))
        return occ, np.array([a for _, a in kept], dtype=complex)

    def _by_arrays(
        self,
        keys: list[Occupations],
        amps: list[complex],
        held: list[list[int]],
        size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The array path, ``_Expansion.run``, with the same result as
        ``_by_dict``."""
        expansion = self._expansion
        if expansion is None or expansion.size < size:
            expansion = self._expansion = _Expansion(self._spreads, size)
        return expansion.run(keys, amps, held)


class _Expansion:
    """The spread columns of a plan as arrays, for terms of up to
    ``size`` photons, and the expansion of routed terms over them: the
    array path of ``ModeMapPlan.apply``, which takes it for expansions
    too large for the dict path (see ``ModeMapPlan``).

    The arrays run over the span, the r rows the spreads reach.  A term
    is a column of 2r integers: its counts on the span, each offset by
    its row's position times ``size``, then its rank indices (see
    ``run``); the terms of a level lie side by side.

    Per spread column, ``columns`` holds:

    * its rows' positions in the span, as a slice when they are adjacent;
    * ``parts``, 2 x 2 planes whose entry i * size + k holds
      [[re, im], [-im, re]] of the column's factor for span row i when
      that row already holds k photons, so that xr times the first plane
      plus xi times the second is their product in CPython's order,
      (xr * cr - xi * ci, xr * ci + xi * cr);
    * ``up``, with up[k, q] = 1 where a photon on the column's row q
      raises the rank step of span row k;
    * ``hot``, whose column q adds that photon to a term.

    The factors are formed in numpy as (re * sqrt(k + 1),
    im * sqrt(k + 1)).  CPython's complex-by-float product differs from
    that in the sign of a zero part at most, which no later product or
    sum from 0.0 can tell.
    """

    __slots__ = ("size", "span", "start", "steps", "columns")

    def __init__(self, spreads: list, size: int):
        span = sorted({i for _, entries in spreads for i, _ in entries})
        r = len(span)
        self.size = size
        self.span = span
        self.start = np.concatenate([np.arange(r) * size, np.arange(r) * (size + 1)])
        # ``run`` reads only binomials up to its ``count``, at most 2**53
        self.steps = np.array(
            [min(math.comb(s + k, k), _EXACT) if k < r - 1 else 0 for k in range(r) for s in range(size + 1)],
            dtype=np.int64,
        )
        up = np.tri(r, dtype=np.int64)
        up[r - 1:] = 0
        hot = np.hstack([np.eye(r, dtype=np.int64), up.T])
        root = np.sqrt(np.arange(1, size + 1))
        self.columns = []
        for _, entries in spreads:
            # the column's coefficient on every span row
            c = np.array([dict(entries).get(i, 0) for i in span], dtype=complex)
            re, im = c.real[:, None] * root, c.imag[:, None] * root
            parts = np.array([[re, im], [-im, re]]).reshape(2, 2, r * size)
            local = [span.index(i) for i, _ in entries]
            adjacent = local and local[-1] - local[0] == len(local) - 1
            rows = slice(local[0], local[-1] + 1) if adjacent else local
            self.columns.append((rows, parts, up[:, local], hot[local].T.copy()))

    def run(
        self,
        keys: list[Occupations],
        amps: list[complex],
        held: list[list[int]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The output terms of ``ModeMapPlan.apply``, in canonical order,
        as their occupation matrix and amplitudes (``_collect``).

        ``keys`` are the occupations of each input term after the moves,
        ``amps`` its amplitude with the moves' factor, and ``held`` its
        photons in each spread column.

        Each input term is expanded on its own, as ``_by_dict`` does: its
        terms are a column of counts and rank indices each, and their
        amplitude parts (xr, xi), kept as two planes.  The term spreads
        its photons column by column, and photon p of a column is one
        level, which scales each term by 1/sqrt(p) when p > 1, forms each
        (term, row) product in float parts as CPython multiplies two
        complex numbers (numpy's complex multiply may round otherwise),
        orders the targets by first touch over the (term, row) pairs,
        and sums each target's products in that order from 0.0: what a
        dict filled with ``nxt.get(key, 0) + x * c`` holds, -0.0 parts
        turned into 0.0 included.  CPython scales by the complex (s, 0.0),
        whose extra products are signed zeros; that changes a finite part
        in the sign of a zero at most, which no later product or sum from
        0.0 can tell.

        A target is keyed by its rank in the combinatorial number system
        over the span, sum_{k < r-1} C(S_k + k, k + 1) with S_k the
        photons spread on span rows 0..k: one to one on the occupations
        of each total, and below ``count``, their number at the input
        term's total.  A photon on row i raises the rank by the sum of
        C(S_k + k, k) over i <= k < r-1; a term's rank indices are the
        S_k + k * (size + 1), where ``steps`` holds these binomials,
        capped at 2**53.  The sums are int64 products, which numpy forms
        without BLAS; a ``count`` above the cap raises ``FockError``.
        """
        span, start, steps, size = self.span, self.start, self.steps, self.size
        r = len(span)
        top = max(map(sum, held))
        occupations = math.comb(top + r - 1, top) if r else 1
        if occupations > _EXACT:
            raise FockError(
                f"{top} photons spread over the {r} modes the map mixes have {occupations} "
                f"occupations, more than the expansion numbers (2**53)"
            )
        base = np.array(keys, dtype=np.int64).T
        done_counts, done_a = [], []
        for g, (photons, amp) in enumerate(zip(held, amps)):
            n_spread = sum(photons)
            count = math.comb(n_spread + r - 1, n_spread) if r else 1
            counts = start[:, None].copy()
            counts[:r, 0] += base[span, g]
            a = np.array([[amp.real], [amp.imag]])
            rank = np.zeros(1, dtype=np.int64)
            for (rows, parts, up, hot), n in zip(self.columns, photons):
                width = hot.shape[1]
                for p in range(1, n + 1):
                    if p > 1:
                        a = a * (1 / math.sqrt(p))
                    # the (term, row) pairs, term by term
                    m = parts.take(counts[rows].T, axis=2).reshape(2, 2, -1)
                    m *= a.repeat(width, axis=1)[:, None]
                    prod = np.add(m[0], m[1], out=m[0])
                    key = steps.take(counts[r:]).T @ up
                    key += rank[:, None]
                    key = key.ravel()
                    first, slot, slots, touched = _first_touch(key, count)
                    a = np.array([np.bincount(slot, prod[0], slots), np.bincount(slot, prod[1], slots)])
                    a = a.take(touched, axis=1)
                    src, row = np.divmod(first, width)
                    counts = counts.take(src, axis=1)
                    counts += hot.take(row, axis=1)
                    rank = key.take(first)
            done_counts.append(counts[:r])
            done_a.append(a)
        term = np.repeat(np.arange(len(keys)), [x.shape[1] for x in done_a])
        occ = base.take(term, axis=1)
        occ[span] = np.concatenate(done_counts, axis=1) - start[:r, None]
        return _collect(occ, term, np.concatenate(done_a, axis=1), size)


_EXACT = 2**53


def _first_touch(key: np.ndarray, extent: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Group the keys, all in [0, ``extent``), in the order each is first met.

    Returns the position of each distinct key's first occurrence, in
    increasing order; a slot per key, shared by equal keys; the number of
    slots; and the slots of the first occurrences.  Keys are their own
    slots when ``extent`` is at most a few thousand more than four times
    their number; otherwise they are sorted.
    """
    n = key.size
    if extent <= 4 * n + 4096:
        first = np.empty(extent, dtype=np.int64)
        first.fill(n)
        seen = np.arange(n)
        np.minimum.at(first, key, seen)
        firsts = (first.take(key) == seen).nonzero()[0]
        return firsts, key, extent, key.take(firsts)
    order = key.argsort(kind="stable")
    ranked = key.take(order)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    slot = np.empty(n, dtype=np.intp)
    slot[order] = head.cumsum() - 1
    mark = np.zeros(n, dtype=bool)
    mark[order[head]] = True
    firsts = mark.nonzero()[0]
    return firsts, slot, len(firsts), slot.take(firsts)


def _packed(digits: np.ndarray, radix: int) -> np.ndarray:
    """The columns of ``digits``, each digit below ``radix``, packed into
    int64 words of base ``radix``, most significant first: columns are
    equal iff their words are, and order as their words do."""
    rows = len(digits)
    per = 62 // radix.bit_length()
    weights = [[radix ** (per - 1 - i % per) * (i // per == w) for i in range(rows)] for w in range(-(-rows // per))]
    return np.array(weights, dtype=np.int64) @ digits


def _collect(occ: np.ndarray, term: np.ndarray, a: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The output terms in canonical order, as their occupation matrix
    and amplitudes, from the final terms of every input term: occupations
    ``occ``, one column per term and none above ``top``, input term
    ``term`` and amplitude planes ``a``.  Each basis state sums its
    contributions from 0.0 in input order and is kept if its ``abs`` (a
    hypot) is above ``PRUNE_EPS``."""
    # canonical order is the order of the (position, n) lists: at the
    # first position where two states differ, a count sorts before a
    # larger one, and a 0 sorts after any count when a photon follows
    # it and before any count when none does
    held = occ.cumsum(axis=0)
    digits = np.where(occ, occ + 1, (held < held[-1]) * (top + 2))
    packed = _packed(digits, top + 3)
    order = np.lexsort((term, *packed[::-1]))
    ranked = packed.take(order, axis=1)
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    np.not_equal(ranked[0, 1:], ranked[0, :-1], out=head[1:])
    for word in ranked[1:]:
        head[1:] |= word[1:] != word[:-1]
    ids = head.cumsum() - 1
    amp = np.empty(ids[-1] + 1, dtype=complex)
    amp.real = np.bincount(ids, a[0].take(order))
    amp.imag = np.bincount(ids, a[1].take(order))
    keep = np.hypot(amp.real, amp.imag) > PRUNE_EPS
    return occ.take(order[head][keep], axis=1), amp[keep]


class ModeMapProgram:
    """A ``ModeMapPlan`` as a dense linear stage on one input support.

    Each term of ``support`` goes through ``plan.apply`` on its own, with
    amplitude 1; its outputs are one column of the stage.  ``apply``
    sums each output's products x_s * c from the integer 0, in support
    order, as the plan sums from 0.0, then prunes at ``PRUNE_EPS`` and
    keeps the canonical output order found once.

    The plan forms exactly these sums when each term meets one
    coefficient per output: it holds at most one photon in the columns
    the plan moves or spreads, and none of its coefficients is pruned
    from its column.  Any other support is refused with ``FockError``:
    there the plan sums products of several photons, or products whose
    coefficient the column lost to pruning, and the states would differ
    in the last bits.  So for finite values ``apply`` equals
    ``plan.apply`` bit for bit.

    A state whose terms differ from ``support``, say because an upstream
    step cancelled one below ``PRUNE_EPS``, goes through ``plan.apply``.
    ``support_out`` lists the output terms when none is pruned.
    """

    __slots__ = ("_plan", "_support", "_rows", "support_out")

    def __init__(self, plan: ModeMapPlan, space: FockSpace, support: Sequence[Occupations]):
        support = [tuple(occ) for occ in support]
        for occ in support:
            if sum(occ[j] for j in plan._cleared) > 1:
                raise FockError(
                    f"{space.label(occ)} holds more than one photon in the columns the map moves or spreads"
                )
        reach = {j: len(entries) for j, entries in plan._spreads}
        rows: dict[Occupations, list[tuple[int, complex]]] = {}
        for s, occ in enumerate(support):
            column = plan.apply(_wrap(space, {occ: 1 + 0j}))._amp
            # one output per row of the column holding the term's photon
            if len(column) != next((reach.get(j, 1) for j in plan._cleared if occ[j]), 1):
                raise FockError(f"{space.label(occ)} meets a coefficient at or below PRUNE_EPS")
            for key, c in column.items():
                rows.setdefault(key, []).append((s, c))
        self._plan = plan
        self._support = support
        self._rows = [(key, rows[key]) for key in sorted(rows, key=_order)]
        self.support_out = [key for key, _ in self._rows]

    def apply(self, state: StateVector) -> StateVector:
        """``plan.apply(state)``, bit for bit."""
        plan = self._plan
        if not plan._moves and not plan._spreads:
            return state
        if list(state._amp) != self._support:
            return plan.apply(state)
        x = list(state._amp.values())
        out = {}
        for key, row in self._rows:
            a = 0
            for s, c in row:
                a += x[s] * c
            if abs(a) > PRUNE_EPS:
                out[key] = a
        return _wrap(state.space, out)


class PhaseStep:
    """A diagonal phase map on one state, its coefficients left free.

    ``coeffs[q]`` multiplies every photon of mode position ``modes[q]``.
    The photon counts of each term of ``state`` are read once, with the
    q's sorted by mode position, the order in which ``ModeMapPlan``
    multiplies the factors of its columns.  ``apply(coeffs)`` forms only
    the factor of each term, and for nonzero coefficients it equals
    ``ModeMapPlan({modes[q]: {modes[q]: coeffs[q]}}).apply(state)`` bit
    for bit.
    The map keeps every term on its basis state, so ``support_out`` is
    the support of ``state``.
    """

    __slots__ = ("_state", "_terms", "support_out")

    def __init__(self, state: StateVector, modes: Sequence[int]):
        order = sorted(range(len(modes)), key=modes.__getitem__)
        self._state = state
        self._terms = [
            (occ, amp, tuple((q, occ[modes[q]]) for q in order if occ[modes[q]]))
            for occ, amp in state._amp.items()
        ]
        self.support_out = list(state._amp)

    def apply(self, coeffs: list[complex]) -> StateVector:
        """The phases ``coeffs`` on the compiled state."""
        if coeffs.count(1) == len(coeffs):
            # every column is the identity, which the plan skips
            return self._state
        out: dict[Occupations, complex] = {}
        for occ, amp, photons in self._terms:
            factor = 1
            for q, n in photons:
                c = coeffs[q]
                if c != 1:
                    factor *= c ** n
            if factor != 1:
                amp = amp * factor
            # the plan sums each output from the integer 0, which turns
            # a -0.0 part into 0.0
            a = 0 + amp
            if abs(a) > PRUNE_EPS:
                out[occ] = a
        return _wrap(self._state.space, out)


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

    def eigensystem(self, state: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and Born probabilities of measuring on
        ``state``.

        The matrix is diagonalized on the span of the operator support
        plus the state support; everything outside the operator support
        lies in its kernel, so the restriction is exact.  A span of at
        most two states, which the single-photon and NOON readouts give,
        is solved in closed form in float operations (``_two_level``),
        whose bits do not depend on the BLAS or LAPACK build; a larger
        one goes through ``np.linalg.eigh``.
        """
        if not self.hermitian:
            raise NonHermitianError("projective measurement needs a Hermitian observable")
        if not _same_modes(self.space, state.space):
            raise ValueError("state and observable live in different spaces")
        basis = sorted(self._support() | set(state._amp), key=_order)
        psi = [state._amp.get(occ, 0j) for occ in basis]
        if len(basis) <= 2:
            evals, probs = _two_level(self._matrix(basis), psi)
        else:
            evals, evecs = np.linalg.eigh(self._matrix(basis))
            probs = np.abs(evecs.conj().T @ np.array(psi)) ** 2
        total = probs.sum()
        if total > 0:
            probs = probs / total
        return evals, probs


def _two_level(m: np.ndarray, psi: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a Hermitian ``m`` of order at most 2, and
    the squared overlap of ``psi`` with each eigenvector.

    For m = [[a, b], [conj(b), d]] with b != 0, let h = (a - d)/2 and
    r = hypot(h, |b|): the eigenvalues are (a + d)/2 -+ r.  With h >= 0
    (else the two states are swapped, which turns b into conj(b)) and
    k = h + r > 0, the eigenvectors are (-b, k) and (k, conj(b)) up to
    the common norm sqrt(2 r k), so the overlaps are |k psi_1 - conj(b)
    psi_0|^2 and |k psi_0 + b psi_1|^2 over 2 r k.  The caller
    normalizes, so the common factor is left out, and k and b enter
    divided by r.  Neither k nor the norm cancels.
    A diagonal m is its own eigenbasis.  Complex products are written in
    float parts, so no BLAS kernel or SIMD dispatch enters.
    """
    if len(psi) < 2:
        evals = [m[0, 0].real.item()] if psi else []
        return np.array(evals), np.array([abs(p) ** 2 for p in psi])
    a, d = m[0, 0].real.item(), m[1, 1].real.item()
    br, bi = m[0, 1].real.item(), m[0, 1].imag.item()
    (x0, y0), (x1, y1) = ((p.real, p.imag) for p in psi)
    if br == 0.0 and bi == 0.0:
        w0, w1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
        return (np.array([a, d]), np.array([w0, w1])) if a <= d else (np.array([d, a]), np.array([w1, w0]))
    h = (a - d) / 2
    if h < 0:
        h, bi = -h, -bi
        (x0, y0), (x1, y1) = (x1, y1), (x0, y0)
    r = math.hypot(h, br, bi)
    # k and b over r, so that a tiny coupling does not underflow
    k, br, bi = h / r + 1.0, br / r, bi / r
    # k psi_0 + b psi_1 and k psi_1 - conj(b) psi_0
    ur, ui = k * x0 + (br * x1 - bi * y1), k * y0 + (br * y1 + bi * x1)
    vr, vi = k * x1 - (br * x0 + bi * y0), k * y1 - (br * y0 - bi * x0)
    mean = (a + d) / 2
    return np.array([mean - r, mean + r]), np.array([vr * vr + vi * vi, ur * ur + ui * ui])


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
    a_ent = dict(s_ent)
    for n in range(space.n_max):
        a_ent[(levels[n + 1], levels[n])] = 1.0
    a = Observable(space, a_ent, hermitian=True)
    return s, a


# ---------------------------------------------------------------------------
# entanglement


def _side_ranks(side: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank the distinct columns of ``side``, one side's occupations per
    term with each below ``radix``, in order of first appearance.
    Returns each term's rank and each rank's photon count."""
    packed = _packed(side, radix)
    if len(packed) == 1:
        _, first, inverse = np.unique(packed[0], return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(packed, axis=1, return_index=True, return_inverse=True)
    by_first = first.argsort()
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    return rank.take(inverse.ravel()), side.sum(axis=0).take(first.take(by_first))


def schmidt_values(
    state: StateVector,
    partition: tuple[Sequence[ModeLabel], Sequence[ModeLabel]],
) -> np.ndarray:
    """Singular values of the amplitude matrix under a mode bipartition,
    in descending order.

    The state amplitudes are reshaped into a matrix indexed by the
    occupation pattern on each side; the singular values squared are the
    Schmidt coefficients.  Rank 1 (one value above 1e-10) iff the state
    is separable across the partition.

    The matrix is read off the state's view: each side's occupations
    are packed into int64 words and ranked in order of first appearance
    over the terms, so its rows and columns run in canonical term order.

    The matrix is block-diagonal under the photon numbers on the two
    sides: a block joins every side-A count and side-B count linked
    through the (n_a, n_b) pairs the state holds, so a state of fixed
    total number splits into one block per n_a, and a mixed-number state
    such as a product of coherent states stays one block.  Each block is
    decomposed on its own; the values are joined and padded with zeros to
    min(rows, columns), the length of a full-matrix SVD.
    """
    side_a, side_b = (frozenset(p) for p in partition)
    if not side_a or not side_b:
        raise ValueError("partition sides must be nonempty")
    if side_a & side_b:
        raise ValueError("partition sides overlap")
    space = state.space
    if (side_a | side_b) != frozenset(space.modes):
        raise ValueError("partition must cover all modes of the space")
    occ, amp = _view_of(state)
    if not amp.size:
        return np.zeros(0)
    i, row_n = _side_ranks(occ[sorted(space.index(m) for m in side_a)], space.n_max + 1)
    j, col_n = _side_ranks(occ[sorted(space.index(m) for m in side_b)], space.n_max + 1)
    # a union-find over the photon counts, n_a for side A and top + n_b
    # for side B, joined by the (n_a, n_b) pairs the terms hold
    top = space.n_max + 1
    parent = list(range(2 * top))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for pair in set((row_n.take(i) * top + col_n.take(j)).tolist()):
        n_a, n_b = divmod(pair, top)
        parent[find(n_a)] = find(top + n_b)
    root = np.array([find(k) for k in range(2 * top)])
    row_root, col_root = root.take(row_n), root.take(col_n + top)
    # the blocks, numbered in order of first appearance over the rows;
    # each side's ranks sorted by block, stably, and cut at each block
    roots, first = np.unique(row_root, return_index=True)
    number = np.empty(2 * top, dtype=np.intp)
    number[roots.take(first.argsort())] = np.arange(roots.size)
    edges = np.arange(roots.size + 1)
    places, cuts = [], []
    for block in (number.take(row_root), number.take(col_root)):
        order = block.argsort(kind="stable")
        places.append(order.argsort())
        cuts.append(np.searchsorted(block.take(order), edges).tolist())
    # the matrix with its rows and columns in that order, so that each
    # block is one slice of it
    m = np.zeros((row_n.size, col_n.size), dtype=complex)
    m[places[0].take(i), places[1].take(j)] = amp
    r, c = cuts
    values = [np.linalg.svd(m[r[b]:r[b + 1], c[b]:c[b + 1]], compute_uv=False) for b in range(roots.size)]
    values.append(np.zeros(min(m.shape) - sum(v.size for v in values)))
    return np.sort(np.concatenate(values))[::-1]


def schmidt_rank(
    state: StateVector,
    partition: tuple[Sequence[ModeLabel], Sequence[ModeLabel]],
) -> tuple[int, np.ndarray]:
    """Schmidt rank (values above ``SCHMIDT_TOL``) and singular values;
    rank 1 iff separable."""
    svals = schmidt_values(state, partition)
    return int(np.sum(svals > SCHMIDT_TOL)), svals
