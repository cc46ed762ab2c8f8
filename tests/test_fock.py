import cmath
import hashlib
import itertools
import math
import operator
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab import fock
from photonlab.elements import _compose, beam_splitter, build_interferometer, element_map, mach_zehnder, phase_shift
from photonlab.fock import (
    FockError,
    FockSpace,
    ModeMapPlan,
    ModeMapProgram,
    NonHermitianError,
    Observable,
    StateVector,
    TruncationOverflowError,
    annihilate,
    basis_vector,
    create,
    dyad_sum,
    expectation,
    number_expectation,
    oam,
    path,
    schmidt_rank,
    susskind_glogower,
    variance_and_uncertainty,
)
from photonlab.sources import noon_state
from test_linear_optics import permanent_amplitude, sparse_maps


def single_mode_space(n_max=5):
    return FockSpace([path(0)], n_max=n_max)


def fock_level(space, n):
    return space.basis_state({space.modes[0]: n} if n else {})


# ---------------------------------------------------------------------------
# ladder operators


def test_create_vacuum_gives_one_photon():
    sp = single_mode_space()
    out = create(basis_vector(sp, {}), path(0))
    assert abs(out.amplitude(fock_level(sp, 1)) - 1.0) < 1e-15
    assert out.num_terms == 1


def test_create_two_gives_sqrt3_three():
    sp = single_mode_space()
    out = create(basis_vector(sp, {path(0): 2}), path(0))
    assert abs(out.amplitude(fock_level(sp, 3)) - math.sqrt(3)) < 1e-15


def test_create_is_linear_on_superposition():
    sp = single_mode_space()
    st = StateVector(
        sp, {fock_level(sp, 0): 1 / math.sqrt(2), fock_level(sp, 1): 1 / math.sqrt(2)}
    )
    out = create(st, path(0))
    assert abs(out.amplitude(fock_level(sp, 1)) - 1 / math.sqrt(2)) < 1e-15
    assert abs(out.amplitude(fock_level(sp, 2)) - math.sqrt(2) / math.sqrt(2)) < 1e-15


def test_create_not_renormalized():
    sp = single_mode_space()
    out = create(basis_vector(sp, {path(0): 3}), path(0))
    assert abs(out.norm() - 2.0) < 1e-15  # sqrt(3+1)


def test_normalized_prunes_after_dividing_by_the_norm():
    # |1> is 1e-16 of the norm, below PRUNE_EPS once divided by it
    sp = single_mode_space()
    st = StateVector(sp, {fock_level(sp, 0): 1e6, fock_level(sp, 1): 1e-10}).normalized()
    assert st.num_terms == 1
    assert st.amplitude(fock_level(sp, 0)) == 1.0


def test_create_overflow_raises():
    sp = single_mode_space(n_max=2)
    st = basis_vector(sp, {path(0): 2})
    with pytest.raises(TruncationOverflowError):
        create(st, path(0))


def test_annihilate_one_gives_vacuum():
    sp = single_mode_space()
    out = annihilate(basis_vector(sp, {path(0): 1}), path(0))
    assert abs(out.amplitude(fock_level(sp, 0)) - 1.0) < 1e-15


def test_annihilate_vacuum_gives_zero_vector():
    sp = single_mode_space()
    out = annihilate(basis_vector(sp, {}), path(0))
    assert out.num_terms == 0
    assert out.norm() == 0.0


def test_annihilate_superposition():
    sp = single_mode_space()
    st = StateVector(
        sp, {fock_level(sp, 0): 1 / math.sqrt(2), fock_level(sp, 3): 1 / math.sqrt(2)}
    )
    out = annihilate(st, path(0))
    assert out.num_terms == 1
    assert abs(out.amplitude(fock_level(sp, 2)) - math.sqrt(3) / math.sqrt(2)) < 1e-15


def test_commutator_is_identity_below_truncation():
    # [a, a^dag] |n> = |n> exactly for every n < n_max
    sp = single_mode_space(n_max=6)
    for n in range(sp.n_max):
        st = basis_vector(sp, {path(0): n} if n else {})
        lhs = annihilate(create(st, path(0)), path(0))
        rhs = create(annihilate(st, path(0)), path(0))
        diff = lhs + rhs.scaled(-1)
        assert abs(diff.amplitude(fock_level(sp, n)) - 1.0) < 4e-15
        assert diff.num_terms == 1


# ---------------------------------------------------------------------------
# number expectation


def test_number_on_fock_state():
    sp = FockSpace([path(0)], n_max=5)
    assert number_expectation(basis_vector(sp, {path(0): 5}), path(0)) == 5.0


def test_number_on_superposition():
    sp = single_mode_space()
    st = StateVector(
        sp, {fock_level(sp, 0): 1 / math.sqrt(2), fock_level(sp, 2): 1 / math.sqrt(2)}
    )
    assert abs(number_expectation(st, path(0)) - 1.0) < 1e-15


def test_number_on_truncated_coherent_state():
    # oracle: direct sum of Poisson weights over the truncated basis
    from photonlab.sources import coherent_state

    n_max, mu = 40, 4.0
    weights = [math.exp(-mu) * mu ** n / math.factorial(n) for n in range(n_max + 1)]
    total = sum(weights)
    expected = sum(n * w for n, w in enumerate(weights)) / total
    sp = FockSpace([path(0)], n_max=n_max)
    st = coherent_state(sp, path(0), 2.0)
    assert abs(number_expectation(st, path(0)) - expected) < 1e-12
    assert abs(number_expectation(st, path(0)) - 4.0) < 1e-9


# ---------------------------------------------------------------------------
# ladder-phase operators


def test_sg_lowers_one_to_zero():
    sp = single_mode_space()
    s, _ = susskind_glogower(sp)
    out = s.apply(basis_vector(sp, {path(0): 1}))
    assert abs(out.amplitude(fock_level(sp, 0)) - 1.0) < 1e-15


def test_sg_hermitian_part_is_pauli_x_on_qubit():
    sp = single_mode_space(n_max=1)
    _, a = susskind_glogower(sp)
    basis = [fock_level(sp, 0), fock_level(sp, 1)]
    assert np.allclose(a.matrix(basis), np.array([[0, 1], [1, 0]]))


def test_sg_equals_weighted_annihilation():
    # S = (N+1)^(-1/2) a entrywise: S|n> = |n-1> for every ladder level
    sp = single_mode_space(n_max=7)
    s, _ = susskind_glogower(sp)
    for n in range(1, sp.n_max + 1):
        st = basis_vector(sp, {path(0): n})
        via_s = s.apply(st)
        via_ladder = annihilate(st, path(0)).scaled(1 / math.sqrt(n))
        diff = via_s + via_ladder.scaled(-1)
        assert diff.norm() < 1e-12


def truncated_phase_state(sp, phi):
    """The normalized partial sum sum_{n <= n_max} e^{i n phi} |n> / sqrt(n_max + 1)
    of a phase state, which itself is not normalizable."""
    k = sp.n_max
    return StateVector(sp, {fock_level(sp, n): cmath.exp(1j * n * phi) / math.sqrt(k + 1) for n in range(k + 1)})


def test_sg_phase_state_eigenrelation_with_tail():
    # S |phi_K> = e^{i phi}|phi_K> up to a tail of norm 1/sqrt(n_max + 1)
    sp = single_mode_space(n_max=9)
    phi = 1.234
    st = truncated_phase_state(sp, phi)
    s, _ = susskind_glogower(sp)
    residual = s.apply(st) + st.scaled(-np.exp(1j * phi))
    assert abs(residual.norm() - 1 / math.sqrt(sp.n_max + 1)) < 1e-12


def test_sg_nonhermitian_flagged():
    sp = single_mode_space()
    s, a = susskind_glogower(sp)
    assert not s.hermitian
    assert a.hermitian
    with pytest.raises(NonHermitianError):
        expectation(basis_vector(sp, {}), s)


# ---------------------------------------------------------------------------
# expectation and uncertainty


def qubit_state(sp, phi):
    return StateVector(
        sp,
        {
            fock_level(sp, 0): 1 / math.sqrt(2),
            fock_level(sp, 1): np.exp(1j * phi) / math.sqrt(2),
        },
    )


def test_expectation_of_fringe_observable():
    sp = single_mode_space(n_max=1)
    _, a = susskind_glogower(sp)
    assert abs(expectation(qubit_state(sp, math.pi / 3), a) - 0.5) < 1e-12


def test_second_moment_is_unity_on_qubit():
    sp = single_mode_space(n_max=1)
    _, a = susskind_glogower(sp)
    st = qubit_state(sp, math.pi / 3)
    var, _ = variance_and_uncertainty(st, a)
    second = var + expectation(st, a) ** 2
    assert abs(second - 1.0) < 1e-12


def test_identity_expectation_is_one():
    sp = single_mode_space(n_max=2)
    basis = list(sp.enumerate_basis())
    ident = Observable(sp, {(bs, bs): 1.0 for bs in basis})
    st = StateVector(sp, {b: 1 for b in basis}).normalized()
    assert abs(expectation(st, ident) - 1.0) < 1e-12


def test_uncertainty_at_quadrature_point():
    sp = single_mode_space(n_max=1)
    _, a = susskind_glogower(sp)
    _, da = variance_and_uncertainty(qubit_state(sp, math.pi / 2), a)
    assert abs(da - 1.0) < 1e-12


def test_uncertainty_vanishes_on_eigenstate():
    sp = single_mode_space(n_max=1)
    _, a = susskind_glogower(sp)
    _, da = variance_and_uncertainty(qubit_state(sp, 0.0), a)
    assert da < 1e-7  # round-off of <A^2> - <A>^2 near 1 - 1


def test_noon_observable_uncertainty():
    from photonlab.metrology import observable_B
    from photonlab.sources import noon_state
    from photonlab.elements import apply_element

    n = 4
    sp = FockSpace([path(0), path(1)], n_max=n)
    b = observable_B(sp, path(0), path(1), n)
    st = apply_element(noon_state(sp, path(0), path(1), n), phase_shift(path(0), math.pi / (4 * n)))
    _, db = variance_and_uncertainty(st, b)
    assert abs(db - math.sin(math.pi / 4)) < 1e-12


def test_hermiticity_validated_at_construction():
    sp = single_mode_space(n_max=1)
    with pytest.raises(NonHermitianError):
        Observable(sp, {(fock_level(sp, 0), fock_level(sp, 1)): 1.0}, hermitian=True)


def test_generated_observables_are_hermitian():
    from photonlab.metrology import observable_B

    sp = single_mode_space(n_max=6)
    _, a = susskind_glogower(sp)
    noon_sp = FockSpace([path(0), path(1)], n_max=4)
    for obs, space in ((a, sp), (observable_B(noon_sp, path(0), path(1), 4), noon_sp)):
        m = obs.matrix(list(space.enumerate_basis()))
        assert obs.hermitian
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


THREE_MODES = FockSpace([path(0), path(1), path(2)], n_max=3)
BASIS = list(THREE_MODES.enumerate_basis())
# amplitudes of order one, plus some at and just above the 1e-15 pruning
# threshold, so that some terms of O|psi> are pruned
PART = st.one_of(st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([1e-16, -4e-16, 1e-15, 2e-15]))
COEFF = st.builds(complex, PART, PART)


@st.composite
def states_and_dyads(draw):
    index = st.integers(0, len(BASIS) - 1)
    amps = draw(st.dictionaries(index, COEFF, min_size=1, max_size=8))
    dyads = []
    for bra, ket, c in draw(st.lists(st.tuples(index, index, COEFF), min_size=1, max_size=8)):
        dyads += [(BASIS[bra], BASIS[ket], c), (BASIS[ket], BASIS[bra], c.conjugate())]
    return StateVector(THREE_MODES, {BASIS[i]: a for i, a in amps.items()}), dyad_sum(THREE_MODES, dyads)


def pruning_edge(scale):
    """|0,0,0> + scale |1,0,0> under the dyad 1e-15 (|0><1| + |1><0|): the
    term of O|psi> on |1,0,0> is 1e-15, exactly at PRUNE_EPS, and the
    one on |0,0,0> is 1e-15 * scale."""
    vac, one = BASIS[0], THREE_MODES.basis_state({path(0): 1})
    state = StateVector(THREE_MODES, {vac: 1.0, one: scale})
    return state, dyad_sum(THREE_MODES, [(vac, one, 1e-15), (one, vac, 1e-15)])


def cancelling_row():
    """A row of three entries whose products cancel, on the last basis
    state in canonical order: its O|psi> amplitude, and the sum over the
    state, both depend on the order of the additions."""
    vac, one, two, three = (THREE_MODES.label(occ) for occ in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    state = StateVector(THREE_MODES, {vac: 1.0, one: 5e-15, two: -1.0, three: 1e15})
    return state, dyad_sum(THREE_MODES, [(three, ket, 1.0) for ket in (vac, one, two)] + [(ket, three, 1.0) for ket in (vac, one, two)])


@settings(max_examples=200, deadline=None)
@given(states_and_dyads())
@example(cancelling_row())
@example(pruning_edge(1.0))
@example(pruning_edge(1.0 + 2 ** -52))
@example(pruning_edge(-1.0 - 2 ** -52))
def test_expectation_equals_inner_of_applied_observable(case):
    # by repr, so signed zeros and an int 0 from an empty sum count
    state, obs = case
    assert repr(expectation(state, obs)) == repr(state.inner(obs.apply(state)).real)


def test_pruning_edge_examples_sit_at_and_just_above_the_threshold():
    at = pruning_edge(1.0)
    assert list(at[1].apply(at[0])._amp.values()) == []
    above = pruning_edge(1.0 + 2 ** -52)
    kept = above[1].apply(above[0])._amp
    assert list(kept.values()) == [1e-15 * (1.0 + 2 ** -52)] and 1e-15 * (1.0 + 2 ** -52) > fock.PRUNE_EPS


def test_expectation_keeps_its_guards():
    sp = single_mode_space(n_max=1)
    zero, one = fock_level(sp, 0), fock_level(sp, 1)
    # Hermitian to within the 1e-12 tolerance, but the defect times a
    # large unnormalized state leaves an imaginary residue above 1e-10
    skew = Observable(sp, {(zero, one): 1.0, (one, zero): 1.0 + 0.9e-12j})
    with pytest.raises(FockError, match="imaginary residue"):
        expectation(StateVector(sp, {zero: 100.0, one: 100.0}), skew)
    other = FockSpace([path(1)], n_max=1)
    with pytest.raises(ValueError, match="different spaces"):
        expectation(basis_vector(other, {}), skew)


def test_plan_reused_across_photon_numbers_matches_a_fresh_map():
    # one plan, applied to states of 1, 3 and then 2 photons, grows its
    # sqrt table once and must equal a map built afresh for each state
    sp = FockSpace([path(0), path(1), path(2)], n_max=3)
    c, s = math.cos(0.4), 1j * math.sin(0.4)
    columns = {0: {0: c, 1: s}, 1: {0: s, 1: c}, 2: {2: np.exp(0.3j)}}
    plan = ModeMapPlan(columns)
    inputs = [
        basis_vector(sp, {path(0): 1}),
        StateVector(sp, {sp.basis_state({path(0): 2, path(2): 1}): 0.6, sp.basis_state({path(1): 3}): 0.8}),
        basis_vector(sp, {path(0): 1, path(1): 1}),
    ]
    for state in inputs:
        assert list(plan.apply(state)._amp.items()) == list(ModeMapPlan(columns).apply(state)._amp.items())


# ---------------------------------------------------------------------------
# the closed-form two-level eigensystem against LAPACK

UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def two_level_cases(draw):
    """A Hermitian [[a, b], [conj(b), d]] with entries in [-1, 1], of one
    of five kinds, and a nonzero state on its two levels."""
    a, d, br, bi = (draw(UNIT) for _ in range(4))
    kind = draw(st.sampled_from(["general", "diagonal", "degenerate", "weak coupling", "equal diagonal"]))
    if kind == "diagonal":
        br = bi = 0.0
    elif kind == "degenerate":
        d, br, bi = a, 0.0, 0.0
    elif kind == "weak coupling":
        # |b| <= 1e-9 against |a - d| >= 0.5
        d = a - math.copysign(draw(st.floats(0.5, 1.0)), a)
        br, bi = br * 1e-9, bi * 1e-9
    elif kind == "equal diagonal":
        d = a
    psi = draw(st.tuples(st.builds(complex, UNIT, UNIT), st.builds(complex, UNIT, UNIT)).filter(lambda p: abs(p[0]) + abs(p[1]) > 1e-3))
    return [[a, complex(br, bi)], [complex(br, -bi), d]], psi


def masses(evals, probs, gap):
    """The probability mass of each eigenvalue, eigenvalues closer than
    ``gap`` counted as one."""
    out = [[evals[0], probs[0]]]
    for e, p in zip(evals[1:], probs[1:]):
        if e - out[-1][0] <= gap:
            out[-1][1] += p
        else:
            out.append([e, p])
    return [p for _, p in out]


@settings(max_examples=500, deadline=None)
@given(two_level_cases())
@example(([[1.0, 0j], [0j, -0.5]], (0.6 + 0.2j, -0.3j)))  # diagonal, descending
@example(([[0.25, 0j], [0j, 0.25]], (0.6, 0.8j)))  # degenerate
@example(([[1.0, 1e-12 + 1e-12j], [1e-12 - 1e-12j, -1.0]], (0.6, 0.8j)))  # |b| << |a - d|
@example(([[-1e-9, 1e-9j], [-1e-9j, 1e-9]], (1.0, -1.0)))  # small |b| and |a - d| alike
@example(([[0.0, 1.0], [1.0, 0.0]], (1.0, 1j)))  # the single-photon readout
def test_two_level_eigensystem_equals_lapack(case):
    rows, psi = case
    m = np.array(rows, dtype=complex)
    evals, weights = fock._two_level(m, psi)
    ref_evals, vecs = np.linalg.eigh(m)
    ref = np.abs(vecs.conj().T @ np.array(psi)) ** 2
    assert evals[0] <= evals[1]
    assert np.max(np.abs(evals - ref_evals)) <= 1e-12
    # below a gap of 1e-3 LAPACK's own eigenvectors are not fixed to
    # 1e-12, so such eigenvalues are weighed together
    ours = masses(evals, weights / weights.sum(), 1e-3)
    assert np.max(np.abs(np.subtract(ours, masses(ref_evals, ref / ref.sum(), 1e-3)))) <= 1e-12


def test_eigensystem_solves_small_restrictions_in_closed_form_and_larger_ones_by_eigh(monkeypatch):
    sp = single_mode_space(n_max=2)
    zero, one, two = (fock_level(sp, n) for n in range(3))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    # one state: the restriction is the entry itself
    evals, probs = Observable(sp, {(one, one): 0.7}).eigensystem(basis_vector(sp, {path(0): 1}))
    assert evals.tolist() == [0.7] and probs.tolist() == [1.0]
    # two states, as the single-photon readout gives
    _, a = susskind_glogower(single_mode_space(n_max=1))
    evals, probs = a.eigensystem(qubit_state(a.space, math.pi / 3))
    assert evals.tolist() == [-1.0, 1.0]
    assert np.max(np.abs(probs - [0.25, 0.75])) < 1e-15
    assert calls == []
    # three states go through LAPACK
    ladder = Observable(sp, {(zero, one): 1.0, (one, zero): 1.0, (one, two): 1.0, (two, one): 1.0})
    evals, probs = ladder.eigensystem(StateVector(sp, {one: 1.0}))
    assert calls == [(3, 3)]
    assert np.max(np.abs(evals - [-math.sqrt(2), 0.0, math.sqrt(2)])) < 1e-12
    assert np.max(np.abs(probs - [0.5, 0.0, 0.5])) < 1e-12


# ---------------------------------------------------------------------------
# compiled programs against the generic plan, item for item by repr (so
# signed zeros count)


def same_items(a, b):
    return repr(list(a._amp.items())) == repr(list(b._amp.items()))


# components with signed zeros and exact ones, which the plan treats
# apart, and phases, whose products round differently in another order
PART = st.one_of(st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0]))
COEFF = st.one_of(
    st.sampled_from([1, 1.0, 1 + 0j, -1.0, 1j]),
    st.builds(complex, PART, PART).filter(lambda c: c != 0),
    st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t)),
)


def patterns(m, n_max):
    if m == 0:
        yield ()
        return
    for first in range(n_max + 1):
        for rest in patterns(m - 1, n_max - first):
            yield (first,) + rest


@st.composite
def random_states(draw):
    """A state on up to 4 modes and 4 photons with a random support."""
    m = draw(st.integers(1, 4))
    sp = FockSpace([path(i) for i in range(m)], n_max=4)
    occs = draw(st.lists(st.sampled_from(list(patterns(m, 4))), min_size=1, max_size=6, unique=True))
    amps = {sp.label(occ): complex(draw(PART), draw(PART)) for occ in occs}
    return StateVector(sp, amps)


@st.composite
def phases_and_states(draw):
    """Distinct mode positions in any order, and two sets of phases."""
    state = draw(random_states())
    m = len(state.space.modes)
    modes = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    coeffs = [draw(st.lists(COEFF, min_size=len(modes), max_size=len(modes))) for _ in range(2)]
    return state, modes, coeffs


def phases_out_of_column_order():
    # three phases listed against column order on |1,1,1>: their
    # products must run in column order, as the plan's do (two complex
    # products commute exactly, three need not)
    sp = FockSpace([path(0), path(1), path(2)], n_max=3)
    state = basis_vector(sp, {path(0): 1, path(1): 1, path(2): 1})
    return state, [2, 0, 1], [[cmath.exp(1j), cmath.exp(2j), cmath.exp(0.7j)]]


@settings(max_examples=300, deadline=None)
@given(phases_and_states())
@example(phases_out_of_column_order())
def test_phase_step_equals_the_plan(case):
    state, modes, coeff_sets = case
    step = fock.PhaseStep(state, modes)
    assert step.support_out == list(state._amp)
    for coeffs in coeff_sets:
        plan = ModeMapPlan({m: {m: c} for m, c in zip(modes, coeffs)})
        want = reference_apply(plan, state)
        assert same_items(step.apply(coeffs), want)
        assert same_items(plan.apply(state), want)


@st.composite
def maps_and_states(draw):
    """Two maps of moves and spreads, entries with zeros, and a state."""
    state = draw(random_states())
    m = len(state.space.modes)
    maps = []
    for _ in range(2):
        columns = {}
        for j in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)):
            rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
            columns[j] = {i: draw(COEFF) for i in rows}
        maps.append(ModeMapPlan(columns))
    return state, maps


def program_or_refusal(plan, space, support):
    """``ModeMapProgram(plan, space, support)``, or None once its refusal
    is checked: a term holding more than one photon in the columns the
    plan moves or spreads, or else a coefficient of at most PRUNE_EPS,
    which the plan prunes from a term's column."""
    crowded = [occ for occ in support if sum(occ[j] for j in plan._cleared) > 1]
    if crowded:
        # the first such term is named
        with pytest.raises(FockError, match=re.escape(f"{space.label(crowded[0])} holds more than one photon")):
            ModeMapProgram(plan, space, support)
        return None
    try:
        return ModeMapProgram(plan, space, support)
    except FockError as err:
        coeffs = [c for _, _, c in plan._moves] + [c for _, entries in plan._spreads for _, c in entries]
        assert "PRUNE_EPS" in str(err) and min(map(abs, coeffs)) <= fock.PRUNE_EPS
        return None


@settings(max_examples=300, deadline=None)
@given(maps_and_states())
def test_compiled_programs_equal_the_plans(case):
    # a program is built only where program_or_refusal finds no refusal;
    # the second is compiled for the support the first leaves unpruned,
    # and when the first prunes a term it falls back
    state, (first, second) = case
    sp = state.space
    one = program_or_refusal(first, sp, list(state._amp))
    if one is None:
        return
    mid = one.apply(state)
    assert same_items(mid, first.apply(state))
    two = program_or_refusal(second, sp, one.support_out)
    if two is not None:
        assert same_items(two.apply(mid), second.apply(mid))


def test_program_refuses_a_coefficient_the_plan_prunes():
    # the unit term |1,0> loses its (0, 1) output, 1e-16, to pruning; the
    # plan adds 1e-16 / sqrt(2) to the (0, 1) amplitude of the pair, and
    # that moves its last bit
    sp = FockSpace([path(0), path(1)], n_max=2)
    plan = ModeMapPlan({0: {0: 1.0, 1: 1e-16}})
    a = 1 / math.sqrt(2)
    state = StateVector(sp, {sp.basis_state({path(0): 1}): a, sp.basis_state({path(1): 1}): a})
    assert plan.apply(state).amplitude(sp.basis_state({path(1): 1})) != a
    with pytest.raises(FockError, match=r"\|path\(0\):1> meets a coefficient at or below PRUNE_EPS"):
        ModeMapProgram(plan, sp, list(state._amp))


def test_program_falls_back_after_a_splitter_cancellation():
    # (|1,0> + i|0,1>)/sqrt(2) through a 50:50 splitter: the (1, 0)
    # output cancels to below PRUNE_EPS, so the next program sees one
    # term of the two it was compiled for
    sp = FockSpace([path(0), path(1)], n_max=2)
    c, s = math.cos(math.pi / 4), 1j * math.sin(math.pi / 4)
    splitter = ModeMapPlan({0: {0: c, 1: s}, 1: {0: s, 1: c}})
    phase_and_split = ModeMapPlan({0: {0: c * np.exp(0.3j), 1: s}, 1: {0: s, 1: c}})
    a = 1 / math.sqrt(2)
    state = StateVector(sp, {sp.basis_state({path(0): 1}): a, sp.basis_state({path(1): 1}): 1j * a})
    one = ModeMapProgram(splitter, sp, list(state._amp))
    two = ModeMapProgram(phase_and_split, sp, one.support_out)
    mid = one.apply(state)
    assert (1, 0) in one.support_out and (1, 0) not in mid._amp
    assert same_items(mid, splitter.apply(state))
    assert same_items(two.apply(mid), phase_and_split.apply(mid))


def test_program_falls_back_on_another_support():
    sp = FockSpace([path(0), path(1)], n_max=2)
    c, s = math.cos(0.4), 1j * math.sin(0.4)
    plan = ModeMapPlan({0: {0: c, 1: s}, 1: {0: s, 1: c}})
    program = ModeMapProgram(plan, sp, [(1, 0)])
    both = StateVector(sp, {sp.basis_state({path(0): 1}): 0.6, sp.basis_state({path(1): 1}): -0.8})
    for other in (basis_vector(sp, {path(1): 1}), basis_vector(sp, {path(0): 2}), both):
        assert same_items(program.apply(other), plan.apply(other))


# ---------------------------------------------------------------------------
# the plan's numpy expansion against the dict expansion it replaced, item
# for item by repr


def reference_apply(plan, state):
    """``ModeMapPlan.apply`` as it was before the numpy expansion: one dict
    update per (term, row), kept verbatim as the oracle."""
    moves = plan._moves
    if not moves and not plan._spreads:
        return state
    # c * sqrt(k + 1), the factor of entry c for a row already holding k
    size = max(map(sum, state._amp), default=0)
    spreads = [
        (j, [(i, [c * math.sqrt(k + 1) for k in range(size)]) for i, c in entries])
        for j, entries in plan._spreads
    ]
    cleared = plan._cleared
    out = {}
    for occ, amp in state._amp.items():
        key, factor = fock._route(occ, cleared, moves)
        if factor != 1:
            amp = amp * factor
        terms = {key: amp}
        for j, rows in spreads:
            for p in range(1, occ[j] + 1):
                scale = 1 / math.sqrt(p)
                nxt = {}
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
    return fock._wrap(state.space, fock._canonical(out))


def through_each_path(plan, state):
    """``plan.apply(state)`` forced down the dict path, then down the array
    path, by calling each of the two expansions ``apply`` picks from."""
    if not plan._moves and not plan._spreads:
        return [state, state]
    routed = plan._routed(state)
    if not routed[0]:
        return [fock._wrap(state.space, {})] * 2
    return [fock._viewed(state.space, *expand(*routed)) for expand in (plan._by_dict, plan._by_arrays)]


def every_path_equals(plan, state, want):
    """Whether ``apply`` and both forced paths all give ``want``, by repr."""
    return all(same_items(out, want) for out in [plan.apply(state), *through_each_path(plan, state)])


def composed_map(interferometer, space):
    """The one map ``Interferometer.apply`` builds from its elements."""
    u = {}
    for spec in interferometer.elements:
        step, _ = element_map(space, spec)
        u = _compose(step, u) if u else step
    return u


@pytest.mark.parametrize("m", range(3, 9))
def test_plan_equals_the_dict_expansion_on_brick_meshes(m):
    rng = np.random.default_rng(m)
    modes = [path(i) for i in range(m)]
    specs = []
    for depth in range(m):
        for i in range(depth % 2, m - 1, 2):
            phi, kappa = rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 1.35)
            specs += [phase_shift(modes[i], phi), beam_splitter(modes[i], modes[i + 1], kappa)]
    sp = FockSpace(modes, n_max=m)
    interferometer = build_interferometer(specs)
    plan = ModeMapPlan(composed_map(interferometer, sp))
    state = basis_vector(sp, {mode: 1 for mode in modes})
    out = plan.apply(state)
    assert out.num_terms == math.comb(2 * m - 1, m)
    want = reference_apply(plan, state)
    assert every_path_equals(plan, state, want)
    # the interferometer's own plan, built on the first apply and reused
    for _ in range(2):
        assert same_items(interferometer.apply(state), want)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 20, 40])
def test_plan_equals_the_dict_expansion_on_noon_states(n):
    a, b = path(0), path(1)
    sp = FockSpace([a, b], n_max=n)
    state = noon_state(sp, a, b, n)
    for phi in (0.0, 1.234, math.pi):
        interferometer = mach_zehnder(a, b, phi)
        plan = ModeMapPlan(composed_map(interferometer, sp))
        want = reference_apply(plan, state)
        assert every_path_equals(plan, state, want)
        for _ in range(2):
            assert same_items(interferometer.apply(state), want)


@st.composite
def maps_on_mixed_states(draw):
    """A map drawn by ``sparse_maps`` and a state of several photon
    numbers on its modes, with signed zeros among the parts."""
    u, _ = draw(sparse_maps())
    m = len(u)
    sp = FockSpace([path(i) for i in range(m)], n_max=4)
    occs = draw(st.lists(st.sampled_from(list(patterns(m, 4))), max_size=8, unique=True))
    state = StateVector(sp, {sp.label(occ): complex(draw(PART), draw(PART)) for occ in occs})
    return ModeMapPlan({j: {i: complex(u[i, j]) for i in range(m)} for j in range(m)}), state


@settings(max_examples=300, deadline=None)
@given(maps_on_mixed_states())
def test_plan_equals_the_dict_expansion_on_any_map(case):
    plan, state = case
    assert every_path_equals(plan, state, reference_apply(plan, state))


def test_plan_equals_the_dict_expansion_at_the_edges():
    sp = FockSpace([path(0), path(1), path(2)], n_max=3)
    c, s = math.cos(0.4), 1j * math.sin(0.4)
    splitter = {0: {0: c, 1: s}, 1: {0: s, 1: c}}
    # signed zeros in the parts, and three photon numbers
    mixed = StateVector(
        sp,
        {
            sp.basis_state({}): complex(0.1, -0.0),
            sp.basis_state({path(0): 1}): complex(-0.0, 0.6),
            sp.basis_state({path(1): 2, path(2): 1}): complex(-0.7, -0.0),
            sp.basis_state({path(0): 1, path(1): 1}): complex(0.3, 0.2),
        },
    )
    cases = [
        # a column with no entry: its photons vanish, the other terms stay
        (ModeMapPlan({0: {0: 0, 1: 0j}, 1: {0: s, 1: c}}), mixed),
        # the zero map on one photon
        (ModeMapPlan({0: {0: 0j, 1: 0j}, 1: {0: 0j, 1: 0j}}), basis_vector(sp, {path(0): 1})),
        (ModeMapPlan(splitter), StateVector(sp, {})),
        # moves only: a swap with a phase, then phases only
        (ModeMapPlan({0: {1: 1.0}, 1: {0: cmath.exp(0.3j)}}), mixed),
        (ModeMapPlan({2: {2: cmath.exp(0.3j)}, 0: {0: -1.0}}), mixed),
        (ModeMapPlan(splitter), mixed),
        # a spread landing on a row a move fills
        (ModeMapPlan({0: {0: c, 1: s}, 2: {1: 1j}}), mixed),
    ]
    for plan, state in cases:
        assert every_path_equals(plan, state, reference_apply(plan, state))


def test_wide_map_on_three_photons_keeps_its_keys_exact():
    # 3 photons over 40 modes reach all C(42, 3) = 11 480 occupations; a
    # key counting (n_max + 1)**40 = 4**40 of them would wrap an int64
    m = 40
    rng = np.random.default_rng(40)
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    u = q * (np.diag(r) / abs(np.diag(r)))
    sp = FockSpace([path(i) for i in range(m)], n_max=3)
    s = tuple(int(i in (3, 17, 31)) for i in range(m))
    state = basis_vector(sp, {path(i): 1 for i in (3, 17, 31)})
    plan = ModeMapPlan({j: {i: complex(u[i, j]) for i in range(m)} for j in range(m)})
    out = plan.apply(state)
    assert out.num_terms == 11480
    assert every_path_equals(plan, state, reference_apply(plan, state))
    items = list(out._amp.items())
    for k in [0, len(items) - 1, *rng.choice(len(items), size=14, replace=False)]:
        t, amp = items[k]
        assert abs(amp - permanent_amplitude(u, s, t)) <= 1e-12, t


def test_expansion_too_large_to_number_raises_naming_its_size():
    # 30 photons spread over 64 modes have C(93, 30) ~ 1.5e24 occupations
    sp = FockSpace([path(i) for i in range(64)], n_max=30)
    plan = ModeMapPlan({0: {i: 0.125 for i in range(64)}})
    with pytest.raises(FockError, match=str(math.comb(93, 30))):
        plan.apply(basis_vector(sp, {path(0): 30}))


def test_small_expansions_run_on_dicts_and_large_ones_on_arrays(monkeypatch):
    # a NOON state of N photons through a Mach-Zehnder makes 2 N (N + 1)
    # updates over 2 N levels, so N = 69 sits on the bound and N = 70 past it
    taken = []
    for name in ("_by_dict", "_by_arrays"):
        real = getattr(ModeMapPlan, name)

        def spy(self, *routed, real=real, name=name):
            taken.append(name)
            return real(self, *routed)

        monkeypatch.setattr(ModeMapPlan, name, spy)
    sides = {}
    # the benchmark's shapes, each made by one apply
    for name, _, _ in _readout_cases():
        if name.startswith(("mesh_m", "noon_mz")):
            (sides[name],) = taken
        taken.clear()
    a, b = path(0), path(1)
    inputs = {"one photon": (mach_zehnder(a, b, 0.7).apply, basis_vector(FockSpace([a, b], n_max=1), {a: 1}))}
    for n in (69, 70):
        inputs[f"noon_mz_n{n}"] = (mach_zehnder(a, b, 1.1).apply, noon_state(FockSpace([a, b], n_max=n), a, b, n))
    # six terms of n photons through a dense 5-mode map: 5 C(n + 4, 5) / n
    # updates per level, 35 for n = 3 and 126 for n = 5
    dense = ModeMapPlan({j: {i: 0.4 + 0.1j * (i - j) for i in range(5)} for j in range(5)})
    for n in (3, 5):
        sp = FockSpace([path(i) for i in range(5)], n_max=n)
        occs = [occ for occ in patterns(5, n) if sum(occ) == n][:6]
        inputs[f"six_terms_n{n}"] = (dense.apply, StateVector(sp, {sp.label(occ): 0.4 - 0.1j * k for k, occ in enumerate(occs)}))
    # the shape of test_wide_map_on_three_photons_keeps_its_keys_exact
    sp = FockSpace([path(i) for i in range(40)], n_max=3)
    wide = ModeMapPlan({j: {i: 0.15 for i in range(40)} for j in range(40)})
    inputs["wide"] = (wide.apply, basis_vector(sp, {path(i): 1 for i in (3, 17, 31)}))
    for name, (apply, state) in inputs.items():
        apply(state)
        (sides[name],) = taken
        taken.clear()
    on_dicts = {"one photon", "mesh_m3", "mesh_m4", "noon_mz_n10", "noon_mz_n20", "noon_mz_n40", "noon_mz_n69", "six_terms_n3"}
    assert set(sides) == on_dicts | {"mesh_m5", "mesh_m6", "mesh_m7", "noon_mz_n70", "six_terms_n5", "wide"}
    assert sides == {name: "_by_dict" if name in on_dicts else "_by_arrays" for name in sides}


@st.composite
def every_construction(draw):
    """One state from each way a StateVector is made, on a random state."""
    state, modes, (coeffs, _) = draw(phases_and_states())
    sp = state.space
    m = len(sp.modes)
    columns = {}
    for j in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)):
        rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        columns[j] = {i: draw(COEFF) for i in rows}
    plan = ModeMapPlan(columns)
    occs = list(patterns(m, 4))
    dyads = []
    for _ in range(draw(st.integers(1, 4))):
        bra, ket = (sp.label(draw(st.sampled_from(occs))) for _ in range(2))
        c = draw(COEFF)
        dyads += [(bra, ket, c), (ket, bra, c.conjugate())]
    made = [
        ("constructor", StateVector(sp, dict(reversed(state.items())))),
        ("wrap", fock._wrap(sp, dict(state._amp))),
        ("phase step", fock.PhaseStep(state, modes).apply(coeffs)),
        ("plan", plan.apply(state)),
        ("scaled", state.scaled(draw(COEFF))),
        ("sum", state + plan.apply(state)),
        ("observable", dyad_sum(sp, dyads).apply(state)),
    ]
    program = program_or_refusal(plan, sp, list(state._amp))
    if program is not None:
        made.append(("program", program.apply(state)))
    if state.norm() > 0:
        made.append(("normalized", state.normalized()))
    return made


@settings(max_examples=100, deadline=None)
@given(every_construction())
def test_every_construction_path_is_immutable_and_canonical(made):
    # every ModeMapProgram's support check compares a state's keys, in
    # order, with its compiled support, so the canonical order is part
    # of the contract
    for name, state in made:
        assert list(state._amp) == sorted(state._amp, key=fock._order), name
        for attr in ("space", "_amp", "_view", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(state, attr, None)


# ---------------------------------------------------------------------------
# Schmidt decomposition


def two_mode_space(n_max=5):
    return FockSpace([path(0), path(1)], n_max=n_max)


def test_product_state_has_rank_one():
    sp = two_mode_space()
    st = basis_vector(sp, {path(0): 1})
    rank, _ = schmidt_rank(st, ([path(0)], [path(1)]))
    assert rank == 1


def test_noon_state_rank_and_singular_values():
    # 2x2 amplitude matrix diag(1/sqrt2, 1/sqrt2); SVD by hand
    from photonlab.sources import noon_state

    sp = two_mode_space()
    st = noon_state(sp, path(0), path(1), 5)
    rank, svals = schmidt_rank(st, ([path(0)], [path(1)]))
    assert rank == 2
    assert np.allclose(sorted(svals), [1 / math.sqrt(2)] * 2, atol=1e-12)


def _full_matrix_schmidt(state, partition):
    """The singular values of the whole amplitude matrix, in one SVD."""
    rows, cols, entries = {}, {}, {}
    for bs in state.support():
        i = rows.setdefault(tuple(bs.n(m) for m in partition[0]), len(rows))
        j = cols.setdefault(tuple(bs.n(m) for m in partition[1]), len(cols))
        entries[i, j] = state.amplitude(bs)
    dense = np.zeros((len(rows), len(cols)), dtype=complex)
    for (i, j), a in entries.items():
        dense[i, j] = a
    return np.linalg.svd(dense, compute_uv=False)


def _schmidt_cases():
    from photonlab.elements import beam_splitter, build_interferometer, phase_shift
    from photonlab.sources import coherent_state, noon_state

    rng = np.random.default_rng(7)
    modes = [path(i) for i in range(7)]
    mesh = build_interferometer([
        spec
        for depth in range(7)
        for i in range(depth % 2, 6, 2)
        for spec in (phase_shift(modes[i], rng.uniform(0, 2 * math.pi)), beam_splitter(modes[i], modes[i + 1], rng.uniform(0.2, 1.35)))
    ])
    space7 = FockSpace(modes, n_max=7)
    yield "mesh", mesh.apply(basis_vector(space7, {m: 1 for m in modes})), (modes[:3], modes[3:])
    sp = two_mode_space(n_max=6)
    yield "noon", noon_state(sp, path(0), path(1), 6), ([path(0)], [path(1)])
    space4 = FockSpace(modes[:4], n_max=4)
    yield "product", basis_vector(space4, {modes[0]: 2, modes[3]: 1}), (modes[:2], modes[2:4])
    # a coherent state split in two is a product of coherent states, up to
    # the truncation of the total number: every photon number on one side
    # meets every one on the other, so the matrix is one block
    space2 = FockSpace(modes[:2], n_max=14)
    split = build_interferometer([beam_splitter(modes[0], modes[1])])
    yield "coherent", split.apply(coherent_state(space2, modes[0], 1.1 + 0.4j)), ([modes[0]], [modes[1]])


def test_schmidt_blocks_match_the_full_matrix_svd():
    for name, st, partition in _schmidt_cases():
        want = _full_matrix_schmidt(st, partition)
        got = fock.schmidt_values(st, partition)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12, name
        assert schmidt_rank(st, partition)[0] == int(np.sum(want > fock.SCHMIDT_TOL)), name
    ranks = {name: schmidt_rank(st, partition)[0] for name, st, partition in _schmidt_cases()}
    assert (ranks["noon"], ranks["product"]) == (2, 1)
    assert ranks["mesh"] > 1


def reference_number_expectation(state, mode):
    """``number_expectation`` as a dict loop, as it was before the array
    readout, kept verbatim as the oracle."""
    i = state.space.index(mode)
    return sum(occ[i] * abs(a) ** 2 for occ, a in state._amp.items())


def reference_schmidt_values(state, partition):
    """``schmidt_values`` with its dict loops, as it was before the array
    readout, kept verbatim as the oracle (partition checks dropped)."""
    side_a, side_b = (frozenset(p) for p in partition)
    space = state.space
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
    root: dict = {}

    def find(label):
        while root.setdefault(label, label) != label:
            label = root[label]
        return label

    row_n = [sum(k) if isinstance(k, tuple) else k for k in rows]
    col_n = [sum(k) if isinstance(k, tuple) else k for k in cols]
    for n_a, n_b in {(row_n[i], col_n[j]) for i, j, _ in coords}:
        root[find(("a", n_a))] = find(("b", n_b))
    blocks: dict = {}
    for i, n in enumerate(row_n):
        blocks.setdefault(find(("a", n)), ([], []))[0].append(i)
    for j, n in enumerate(col_n):
        blocks[find(("b", n))][1].append(j)
    values = [np.linalg.svd(m[np.ix_(r, c)], compute_uv=False) for r, c in blocks.values()]
    values.append(np.zeros(min(m.shape) - sum(v.size for v in values)))
    return np.sort(np.concatenate(values))[::-1]


def _readout_cases():
    """Brick-mesh outputs, M = 3..7 with one photon per mode, and NOON
    states through a Mach-Zehnder, N = 10, 20 and 40, with the splits the
    benchmark reads them under; then the Schmidt cases above."""
    rng = np.random.default_rng(16)
    for m in range(3, 8):
        modes = [path(i) for i in range(m)]
        mesh = build_interferometer([
            spec
            for depth in range(m)
            for i in range(depth % 2, m - 1, 2)
            for spec in (phase_shift(modes[i], rng.uniform(0, 2 * math.pi)), beam_splitter(modes[i], modes[i + 1], rng.uniform(0.2, 1.35)))
        ])
        out = mesh.apply(basis_vector(FockSpace(modes, n_max=m), {mode: 1 for mode in modes}))
        yield f"mesh_m{m}", out, (modes[: m // 2], modes[m // 2:])
    a, b = path(0), path(1)
    for n in (10, 20, 40):
        sp = FockSpace([a, b], n_max=n)
        yield f"noon_mz_n{n}", mach_zehnder(a, b, rng.uniform(0, 2 * math.pi)).apply(noon_state(sp, a, b, n)), ([a], [b])
    yield from _schmidt_cases()


def test_array_readouts_equal_the_dict_loops():
    for name, st, partition in _readout_cases():
        for mode in st.space.modes:
            want = reference_number_expectation(st, mode)
            assert math.isclose(number_expectation(st, mode), want, rel_tol=1e-14, abs_tol=1e-14), (name, mode)
        # the same matrix and blocks, so the same SVDs
        assert np.array_equal(fock.schmidt_values(st, partition), reference_schmidt_values(st, partition)), name
    empty = StateVector(two_mode_space(), {})
    assert number_expectation(empty, path(0)) == 0
    assert fock.schmidt_values(empty, ([path(0)], [path(1)])).size == 0


# the sha256 of the repr of every number_expectation value and the bytes
# of every schmidt_values array on _readout_cases(), recorded while both
# readouts still converted the amplitude dict on every call
READOUT_DIGEST = "a5efa5fe728dfde2c4e723af448565287b8c3f3f377d665dd7ee67989a39494f"


def _readouts(st, partition):
    return [repr(number_expectation(st, mode)) for mode in st.space.modes], fock.schmidt_values(st, partition).tobytes()


def test_readouts_keep_their_recorded_bits():
    digest = hashlib.sha256()
    for _, st, partition in _readout_cases():
        numbers, svals = _readouts(st, partition)
        for value in numbers:
            digest.update(value.encode())
        digest.update(svals)
    assert digest.hexdigest() == READOUT_DIGEST


def _engine_cases():
    """Engine outputs whose readouts a view taken from another state would
    change: one mesh on two inputs whose outputs hold the same 35 terms,
    a splitter that keeps the support of its input, and a pair whose
    sides of 40 modes each pack into two int64 words."""
    from photonlab.sources import BiphotonSpectrum, frequency_entangled_pair

    modes = [path(i) for i in range(4)]
    sp = FockSpace(modes, n_max=4)
    rng = np.random.default_rng(22)
    mesh = build_interferometer([
        spec
        for depth in range(4)
        for i in range(depth % 2, 3, 2)
        for spec in (phase_shift(modes[i], rng.uniform(0, 2 * math.pi)), beam_splitter(modes[i], modes[i + 1], rng.uniform(0.2, 1.35)))
    ])
    halves = (modes[:2], modes[2:])
    for name, occ in (("ones", {m: 1 for m in modes}), ("two", {modes[0]: 2, modes[2]: 1, modes[3]: 1})):
        out = mesh.apply(basis_vector(sp, occ))
        yield f"mesh_{name}", out, halves
    yield "mesh_two_split", build_interferometer([beam_splitter(modes[0], modes[1], 0.5)]).apply(out), halves
    pair = frequency_entangled_pair(BiphotonSpectrum.gaussian(2.35, 0.3, n_bins=40))
    signal = [m for m in pair.space.modes if m.channel == 0]
    idler = [m for m in pair.space.modes if m.channel == 1]
    yield "wide_pair", build_interferometer([beam_splitter(signal[3], signal[30], 0.4)]).apply(pair), (signal, idler)


def test_engine_views_give_the_readouts_of_the_rebuilt_state():
    engine = set()
    for name, st, partition in [*_readout_cases(), *_engine_cases()]:
        if hasattr(st, "_view"):
            engine.add(name)
        rebuilt = StateVector(st.space, dict(st.items()))
        assert not hasattr(rebuilt, "_view"), name
        assert _readouts(st, partition) == _readouts(rebuilt, partition), name
        assert np.array_equal(fock.schmidt_values(st, partition), reference_schmidt_values(st, partition)), name
    assert {f"mesh_m{m}" for m in range(3, 8)} | {f"noon_mz_n{n}" for n in (10, 20, 40)} <= engine
    assert {name for name, _, _ in _engine_cases()} <= engine


def test_views_are_read_only():
    _, out, _ = next(_readout_cases())
    rebuilt = StateVector(out.space, dict(out.items()))
    for st in (out, rebuilt):
        occ, amp = fock._view_of(st)
        assert occ.shape == (len(st.space.modes), st.num_terms) and occ.dtype == np.int64
        assert list(zip(*occ.tolist())) == list(st._amp) and amp.tolist() == list(st._amp.values())
        with pytest.raises(ValueError, match="read-only"):
            occ[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            amp[0] = 0
        assert fock._view_of(st) is st._view


def _has_amp(st):
    """Whether the ``_amp`` slot is set, read past ``__getattr__``."""
    try:
        StateVector._amp.__get__(st)
    except AttributeError:
        return False
    return True


def test_timed_readouts_leave_engine_outputs_without_a_dict():
    # the benchmark times apply, num_terms and both readouts on each
    # output; each state is checked as it is made, because a later case
    # may take it as its input, which reads its dict
    engine = {}
    for name, st, partition in itertools.chain(_readout_cases(), _engine_cases()):
        if not hasattr(st, "_view"):
            continue
        assert not _has_amp(st), name
        st.num_terms
        for mode in st.space.modes:
            number_expectation(st, mode)
        schmidt_rank(st, partition)
        assert not _has_amp(st), name
        engine[name] = st
    assert {f"mesh_m{m}" for m in range(3, 8)} | {f"noon_mz_n{n}" for n in (10, 20, 40)} <= engine.keys()
    assert {name for name, _, _ in _engine_cases()} <= engine.keys()
    # a plan reads an engine output through its view, on either path:
    # mesh_two_split was made from mesh_two
    two = engine["mesh_two"]
    assert not _has_amp(two)
    split = ModeMapPlan(composed_map(build_interferometer([beam_splitter(path(0), path(1), 0.5)]), two.space))
    outs = through_each_path(split, two)
    assert not _has_amp(two)
    want = reference_apply(split, two)
    assert all(same_items(out, want) for out in [engine["mesh_two_split"], *outs])
    # counted once every output exists, so a count read off any other
    # state's view shows
    for name, st in engine.items():
        assert st.num_terms == StateVector(st.space, dict(st.items())).num_terms, name


def test_the_dict_built_from_a_view_is_the_rebuilt_state():
    for name, st, _ in itertools.chain(_readout_cases(), _engine_cases()):
        if _has_amp(st):
            continue
        built = st._amp
        assert StateVector._amp.__get__(st) is built and st._amp is built, name
        rebuilt = StateVector(st.space, dict(st.items()))
        assert repr(list(built.items())) == repr(list(rebuilt._amp.items())), name
        with pytest.raises(AttributeError, match="immutable"):
            st._amp = {}
        assert st._amp is built
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        st.other


def test_states_survive_a_pickle_round_trip():
    sp = two_mode_space()
    one = basis_vector(sp, {path(0): 1})
    _, mesh, partition = next(_readout_cases())
    for st in (one, mach_zehnder(path(0), path(1), 0.7).apply(one), mesh):
        viewed = not _has_amp(st)
        back = pickle.loads(pickle.dumps(st))
        assert _has_amp(back) != viewed
        if viewed:
            occ, amp = back._view
            assert not occ.flags.writeable and not amp.flags.writeable
            assert np.array_equal(occ, st._view[0]) and np.array_equal(amp, st._view[1])
        assert back.space == st.space
        assert repr(back.items()) == repr(st.items())
    assert _readouts(pickle.loads(pickle.dumps(mesh)), partition) == _readouts(mesh, partition)


def test_spdc_uniform_rank_counts_terms():
    from photonlab.sources import SpdcOamSpectrum, spdc_oam_pair, spdc_space

    sp = spdc_space(2)
    st = spdc_oam_pair(sp, SpdcOamSpectrum.uniform(2))
    signal = [m for m in sp.modes if m.channel == 0]
    idler = [m for m in sp.modes if m.channel == 1]
    rank, _ = schmidt_rank(st, (signal, idler))
    assert rank == 5


def test_empty_partition_rejected():
    sp = two_mode_space()
    st = basis_vector(sp, {path(0): 1})
    with pytest.raises(ValueError):
        schmidt_rank(st, ([], [path(0), path(1)]))


def _product_observable(sp, mode_a, mode_b, mat_a, mat_b):
    # joint operator O_A (x) O_B on a two-mode space with per-mode count <= 1
    ent = {}
    for ia in range(2):
        for ja in range(2):
            for ib in range(2):
                for jb in range(2):
                    v = mat_a[ia, ja] * mat_b[ib, jb]
                    if v == 0:
                        continue
                    bra = sp.basis_state({mode_a: ia, mode_b: ib})
                    ket = sp.basis_state({mode_a: ja, mode_b: jb})
                    ent[(bra, ket)] = ent.get((bra, ket), 0) + v
    return Observable(sp, ent)


def _random_hermitian(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m + m.conj().T


def test_rank_one_iff_product_expectations_factorize():
    rng = np.random.default_rng(42)
    sp = FockSpace([path(0), path(1)], n_max=2)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    prod = StateVector(
        sp,
        {
            sp.basis_state({path(0): i, path(1): j}): amps[i] * amps[j]
            for i in range(2)
            for j in range(2)
        },
    ).normalized()
    bell = StateVector(
        sp,
        {
            sp.basis_state({path(0): 1}): 1 / math.sqrt(2),
            sp.basis_state({path(1): 1}): 1 / math.sqrt(2),
        },
    )
    ident = np.eye(2, dtype=complex)
    worst_product, worst_bell = 0.0, 0.0
    for _ in range(20):
        ma, mb = _random_hermitian(rng), _random_hermitian(rng)
        joint = _product_observable(sp, path(0), path(1), ma, mb)
        left = _product_observable(sp, path(0), path(1), ma, ident)
        right = _product_observable(sp, path(0), path(1), ident, mb)
        gap_p = abs(
            expectation(prod, joint) - expectation(prod, left) * expectation(prod, right)
        )
        gap_b = abs(
            expectation(bell, joint) - expectation(bell, left) * expectation(bell, right)
        )
        worst_product = max(worst_product, gap_p)
        worst_bell = max(worst_bell, gap_b)
    assert worst_product < 1e-9          # rank 1: always factorizes
    assert worst_bell > 1e-3             # rank 2: some product observable refuses


# ---------------------------------------------------------------------------
# space bookkeeping


def test_basis_enumeration_is_lexicographic_and_complete():
    sp = FockSpace([path(0), path(1)], n_max=2)
    basis = list(sp.enumerate_basis())
    assert len(basis) == math.comb(2 + 2, 2) == 6
    assert basis == sorted(basis)


def test_mode_requires_membership():
    sp = single_mode_space()
    with pytest.raises(fock.ModeNotInSpaceError):
        number_expectation(basis_vector(sp, {}), path(9))


def test_items_order_is_stable():
    sp = FockSpace([oam(-1), oam(0), oam(1)], n_max=2)
    st = StateVector(
        sp,
        {
            sp.basis_state({oam(1): 1}): 0.5,
            sp.basis_state({oam(-1): 1}): 0.5,
            sp.basis_state({oam(0): 2}): math.sqrt(0.5),
        },
    )
    keys = [bs for bs, _ in st.items()]
    assert keys == sorted(keys)


def test_tiny_amplitudes_pruned():
    sp = single_mode_space()
    st = StateVector(sp, {fock_level(sp, 0): 1.0, fock_level(sp, 1): 1e-16})
    assert st.num_terms == 1


def test_non_integral_occupation_rejected():
    sp = single_mode_space()
    with pytest.raises(ValueError):
        sp.basis_state({path(0): 1.7})
    with pytest.raises(ValueError):
        sp.basis_state({path(0): math.nan})
    with pytest.raises(ValueError):
        sp.basis_state({path(0): "2"})
    assert sp.basis_state({path(0): 2.0}) == sp.basis_state({path(0): 2})
    assert sp.basis_state({path(0): np.int64(3)}).occ == ((path(0), 3),)


def test_space_from_a_one_shot_iterable():
    sp = FockSpace((path(i) for i in (2, 0, 1)), n_max=2)
    assert sp.modes == (path(0), path(1), path(2))
    with pytest.raises(ValueError):
        FockSpace((path(i) for i in (0, 1, 0)), n_max=2)


def test_states_of_spaces_with_other_modes_do_not_mix():
    a = basis_vector(FockSpace([path(0), path(1)], n_max=1), {path(0): 1})
    b = basis_vector(FockSpace([oam(0), oam(1)], n_max=1), {oam(0): 1})
    with pytest.raises(ValueError):
        a.inner(b)
