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
and builds the output one photon level at a time, each level one numpy
step over the terms of every input term.  Its float operations, and the
order of every sum, are those of a dict expansion with one update per
(term, row); complex products are written in float parts because
numpy's complex multiply rounds differently from CPython's.
``PhaseStep`` multiplies each term of a fixed state by the factor of a
diagonal phase map; a protocol builds one on its probe and leaves the
phases free.
``ModeMapProgram`` is a plan as a dense linear stage on a support fixed
in advance: its columns are ``ModeMapPlan.apply`` on each support term,
and it sums them as the plan does.
The array readouts, ``number_expectation`` and ``schmidt_values``, read
a state's view: its occupation matrix (modes x terms, int64) and its
amplitudes, in canonical order.  ``ModeMapPlan.apply`` fills the view of
its output from the arrays it sorts the terms with; a state made any
other way builds it on first use (``_view_of``).  The view is derived
from the amplitudes and read-only, and states are immutable, so it
cannot go stale.  Everything else reads the amplitude dict.

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
    ``_view``, once set, holds the same terms as arrays for the array
    readouts: the occupation matrix (modes x terms, int64) and the
    complex amplitudes, in canonical order and read-only.  The engine
    sets it on the states it builds; ``_view_of`` sets it on any other
    state when a readout first asks.
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


# the slots, written through their descriptors: StateVector's own
# __setattr__ refuses every assignment
_set_space = StateVector.space.__set__
_set_amp = StateVector._amp.__set__
_set_view = StateVector._view.__set__


def _wrap(space: FockSpace, amp: dict[Occupations, complex]) -> StateVector:
    """The state holding ``amp`` itself, which must already be pruned at
    ``PRUNE_EPS`` and in canonical order."""
    st = object.__new__(StateVector)
    _set_space(st, space)
    _set_amp(st, amp)
    return st


def _frozen(occ: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A state's view: its occupation matrix ``occ`` (modes x terms,
    int64) and amplitudes ``amp``, in canonical order, made read-only."""
    occ.flags.writeable = False
    amp.flags.writeable = False
    return occ, amp


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
    spreads the other photons in numpy (``_Expansion``): one step per
    photon level, over the terms of all input terms at once.  A step
    does the arithmetic of a dict expansion with one update per (term,
    row): it visits a level's terms in the order they were first
    reached, scales each by 1/sqrt(p) when p > 1, and adds its product
    with each row's factor into the target term, starting from 0.0.
    The output sums each basis state's contributions from 0.0 in input
    order, prunes at ``PRUNE_EPS`` and sorts into canonical order
    (``_collect``).  So the states are bit-stable, and for finite
    amplitudes and coefficients they equal that dict expansion bit for
    bit.
    """

    __slots__ = ("_moves", "_spreads", "_cleared", "_expansion")

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
        # the arrays for ``apply``, replaced whole and never mutated, so a
        # plan shared between threads stays consistent
        self._expansion: _Expansion | None = None

    def apply(self, state: StateVector) -> StateVector:
        """The map on every basis state of ``state``."""
        moves = self._moves
        if not moves and not self._spreads:
            return state
        cleared = self._cleared
        spread_cols = [j for j, _ in self._spreads]
        sinks = [j for j, entries in self._spreads if not entries]
        keys, re, im, held = [], [], [], []
        for occ, amp in state._amp.items():
            if any(occ[j] for j in sinks):
                continue
            key, factor = _route(occ, cleared, moves)
            if factor != 1:
                amp = amp * factor
            keys.append(key)
            re.append(amp.real)
            im.append(amp.imag)
            held.append([occ[j] for j in spread_cols])
        if not keys:
            return _wrap(state.space, {})
        size = max(map(sum, state._amp))
        expansion = self._expansion
        if expansion is None or expansion.size < size:
            expansion = self._expansion = _Expansion(self._spreads, size)
        occ, amp = expansion.run(keys, re, im, held)
        out = _wrap(state.space, dict(zip(zip(*occ.tolist()), amp.tolist())))
        _set_view(out, _frozen(occ, amp))
        return out


class _Expansion:
    """The spread columns of a plan as arrays, for terms of up to
    ``size`` photons, and the expansion of routed terms over them.

    The arrays run over the span, the r rows the spreads reach.  A term
    is a column of 2r integers: its counts on the span, each offset by
    its row's position times ``size``, then its rank indices (see
    ``run``); the terms of a level lie side by side.

    Adjacent spread columns that reach the same rows form a block, which
    ``run`` expands together.  Per block, ``blocks`` holds:

    * the rows' positions in the span, as a slice when they are adjacent;
    * the positions of its columns among the spread columns;
    * ``parts``, 2 x 2 planes whose entry (q * r + i) * size + k holds
      [[re, im], [-im, re]] of the factor of the block's column q for
      span row i when that row already holds k photons, so that xr times
      the first plane plus xi times the second is their product in
      CPython's order, (xr * cr - xi * ci, xr * ci + xi * cr);
    * ``up``, with up[k, q] = 1 where a photon on the block's row q
      raises the rank step of span row k;
    * ``hot``, whose column q adds that photon to a term.

    The factors are formed in numpy as (re * sqrt(k + 1),
    im * sqrt(k + 1)).  CPython's complex-by-float product differs from
    that in the sign of a zero part at most, which no later product or
    sum from 0.0 can tell.
    """

    __slots__ = ("size", "span", "start", "steps", "blocks")

    def __init__(self, spreads: list, size: int):
        span = sorted({i for _, entries in spreads for i, _ in entries})
        r = len(span)
        self.size = size
        self.span = span
        self.start = np.concatenate([np.arange(r) * size, np.arange(r) * (size + 1)])
        # ``run`` reads only binomials up to its ``count``, at most 2**53
        self.steps = np.array(
            [min(math.comb(s + k, k), _EXACT) if k < r - 1 else 0 for k in range(r) for s in range(size + 1)],
            dtype=float,
        )
        up = np.tri(r, dtype=np.int64)
        up[r - 1:] = 0
        hot = np.hstack([np.eye(r, dtype=np.int64), up.T])
        # every spread column's coefficient on every span row
        c = np.array([[dict(entries).get(i, 0) for i in span] for _, entries in spreads], dtype=complex)
        c = c.reshape(len(spreads), r)
        root = np.sqrt(np.arange(1, size + 1))
        re, im = c.real[..., None] * root, c.imag[..., None] * root
        parts = np.array([[re, im], [-im, re]]).reshape(2, 2, len(spreads), r * size)
        self.blocks = []
        q = 0
        for local, same in groupby([span.index(i) for i, _ in entries] for _, entries in spreads):
            cols = list(range(q, q + len(list(same))))
            q = cols[-1] + 1
            adjacent = local and local[-1] - local[0] == len(local) - 1
            rows = slice(local[0], local[-1] + 1) if adjacent else local
            block = parts[:, :, cols].reshape(2, 2, -1)
            self.blocks.append((rows, cols, block, up[:, local].astype(float), hot[local].T.copy()))

    def run(
        self,
        keys: list[Occupations],
        re: list[float],
        im: list[float],
        held: list[list[int]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The output terms of ``ModeMapPlan.apply``, in canonical order,
        as their occupation matrix and amplitudes (``_collect``).

        ``keys`` are the occupations of each input term after the moves,
        ``re`` and ``im`` the parts of its amplitude with the moves'
        factor, and ``held`` its photons in each spread column.

        The terms of all input terms live in one set of arrays: per term
        a code g * count + rank, g being its input term, its column of
        counts and rank indices, and its amplitude parts (xr, xi), kept
        as two planes.  An input term spreads the photons it holds in a
        block column by column, and photon p of a column is one level of
        its expansion.  Step s of a block takes every input term to its
        level s + 1 there, whatever column and p that is; the input terms
        with fewer photons in the block wait until it is done.

        A step scales each term by 1/sqrt(p), forms each (term, row)
        product in float parts as CPython multiplies two complex numbers
        (numpy's complex multiply may round otherwise), orders the
        targets by first touch over the (term, row) pairs, and sums each
        target's products in that order from 0.0: what a dict filled
        with ``nxt.get(key, 0) + x * c`` holds, -0.0 parts turned into
        0.0 included.  Two differences change a finite part in the sign
        of a zero at most, which no later product or sum from 0.0 can
        tell: CPython scales by the complex (s, 0.0), whose extra
        products are signed zeros, and the step scales a term at p = 1 by
        1.0 when other terms of the step are at p > 1.

        A target is keyed by its code.  The rank is that of the
        combinatorial number system over the span, sum_{k < r-1}
        C(S_k + k, k + 1) with S_k the photons spread on span rows 0..k:
        one to one on the occupations of each total, and below
        ``count``, their number at the largest total ``top``.  So codes
        differ between input terms, and a level shares none with
        another.  A photon on row i raises the rank by the sum of
        C(S_k + k, k) over i <= k < r-1; a term's rank indices are the
        S_k + k * (size + 1), where ``steps`` holds these binomials.  The
        sums are formed in float64, exact for integers below 2**53, so a
        ``count`` above that, or codes past int64, raise ``FockError``.
        """
        span, start, steps, size = self.span, self.start, self.steps, self.size
        r, terms = len(span), len(keys)
        top = max(map(sum, held))
        count = math.comb(top + r - 1, top) if r else 1
        if count > _EXACT or terms * count > _INT64_MAX:
            raise FockError(
                f"{top} photons spread over the {r} modes the map mixes have {count} "
                f"occupations, and {terms} input terms need {terms * count} keys: "
                f"more than the expansion numbers (2**53 occupations, 2**63 keys)"
            )
        base = np.array(keys, dtype=np.int64).T
        counts = np.zeros((2 * r, terms), dtype=np.int64)
        counts[:r] = base[span]
        counts += start[:, None]
        a = np.array([re, im])
        code = np.arange(0, terms * count, count, dtype=np.int64)
        need = np.array(held, dtype=np.int64).reshape(terms, -1)
        for rows, cols, parts, up, hot in self.blocks:
            block = need[:, cols]
            ends = block.cumsum(axis=1)
            length = ends[:, -1]
            lasting = set(length.tolist())
            # per input term and level s + 1: the offset of its column in
            # parts and its scale 1/sqrt(p), read only up to its last level
            level = np.arange(max(lasting))
            passed = ends[:, :, None] <= level
            offset = passed.sum(axis=1) * (r * size)
            p = level + 1 - (block[:, :, None] * passed).sum(axis=1)
            scale = 1 / np.sqrt(p)
            scaled = (p > 1).any(axis=0).tolist()
            width = hot.shape[1]
            waiting = []
            for s in range(len(level)):
                if s in lasting:
                    # the input terms with s photons in the block are done
                    go = length.take(code // count) > s
                    waiting.append((code[~go], counts[:, ~go], a[:, ~go]))
                    code, counts, a = code[go], counts[:, go], a[:, go]
                term = code // count
                if scaled[s]:
                    a = a * scale[:, s].take(term)
                # the (term, row) pairs, term by term
                index = counts[rows].T + offset[:, s].take(term)[:, None]
                m = parts.take(index, axis=2).reshape(2, 2, -1)
                m *= a.repeat(width, axis=1)[:, None]
                prod = np.add(m[0], m[1], out=m[0])
                key = (steps.take(counts[r:]).T @ up).astype(np.int64)
                key += code[:, None]
                key = key.ravel()
                first, slot, slots, touched = _first_touch(key, terms * count)
                a = np.array([np.bincount(slot, prod[0], slots), np.bincount(slot, prod[1], slots)])
                a = a.take(touched, axis=1)
                src, row = np.divmod(first, width)
                counts = counts.take(src, axis=1)
                counts += hot.take(row, axis=1)
                code = key.take(first)
            if waiting:
                code = np.concatenate([code, *(c for c, _, _ in waiting)])
                counts = np.concatenate([counts, *(x for _, x, _ in waiting)], axis=1)
                a = np.concatenate([a, *(z for _, _, z in waiting)], axis=1)
        term = code // count
        occ = base.take(term, axis=1)
        occ[span] = counts[:r] - start[:r, None]
        return _collect(occ, term, a, size)


_EXACT = 2**53
_INT64_MAX = 2**63 - 1


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
        first = np.full(extent, n)
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
    m = np.zeros((row_n.size, col_n.size), dtype=complex)
    m[i, j] = amp
    # a union-find over the labels ("a", n_a) and ("b", n_b), joined by
    # the (n_a, n_b) pairs the terms hold
    root: dict = {}

    def find(label):
        while root.setdefault(label, label) != label:
            label = root[label]
        return label

    base = int(col_n.max()) + 1
    for pair in set((row_n.take(i) * base + col_n.take(j)).tolist()):
        n_a, n_b = divmod(pair, base)
        root[find(("a", n_a))] = find(("b", n_b))
    block_a = {n: find(("a", n)) for n in set(row_n.tolist())}
    block_b = {n: find(("b", n)) for n in set(col_n.tolist())}
    blocks: dict = {}
    for r, n in enumerate(row_n.tolist()):
        blocks.setdefault(block_a[n], ([], []))[0].append(r)
    for c, n in enumerate(col_n.tolist()):
        blocks[block_b[n]][1].append(c)
    values = [np.linalg.svd(m[np.ix_(r, c)], compute_uv=False) for r, c in blocks.values()]
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
