import cmath
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import elements
from photonlab.elements import (
    ElementKind,
    ElementSpec,
    MissingMirrorModeError,
    apply_beam_splitter,
    apply_element,
    beam_splitter,
    build_interferometer,
    dove_prism,
    mach_zehnder,
    mirror,
    phase_shift,
    swap,
)
from photonlab.fock import (
    FockSpace,
    ModeKind,
    StateVector,
    basis_vector,
    number_expectation,
    oam,
    path,
)
from photonlab.sources import noon_state

A, B = path(0), path(1)


def total_photons(state):
    return sum(number_expectation(state, m) for m in state.space.modes)


def two_path_space(n_max=2):
    return FockSpace([A, B], n_max=n_max)


def oam_space(l, n_max=2):
    return FockSpace([oam(-l), oam(l)] if l else [oam(0)], n_max=n_max)


# ---------------------------------------------------------------------------
# beam splitter


def test_single_photon_splits_evenly_with_i_on_reflection():
    sp = two_path_space()
    out = apply_beam_splitter(basis_vector(sp, {A: 1}), A, B)
    assert abs(out.amplitude(sp.basis_state({A: 1})) - 1 / math.sqrt(2)) < 1e-15
    assert abs(out.amplitude(sp.basis_state({B: 1})) - 1j / math.sqrt(2)) < 1e-15


def test_two_photon_interference_null():
    # oracle: the four two-photon paths summed by hand with t = 1/sqrt2,
    # r = i/sqrt2: coincidence t*t + r*r = 0, bunched sqrt2 * t * r
    t, r = 1 / math.sqrt(2), 1j / math.sqrt(2)
    coincidence_oracle = t * t + r * r
    bunched_oracle = math.sqrt(2) * t * r
    assert coincidence_oracle == 0

    sp = two_path_space()
    out = apply_beam_splitter(basis_vector(sp, {A: 1, B: 1}), A, B)
    assert abs(out.amplitude(sp.basis_state({A: 1, B: 1}))) < 1e-14
    assert abs(out.amplitude(sp.basis_state({A: 2})) - bunched_oracle) < 1e-15
    assert abs(out.amplitude(sp.basis_state({B: 2})) - bunched_oracle) < 1e-15


def test_zero_mixing_angle_is_identity():
    sp = two_path_space(n_max=3)
    st = StateVector(
        sp,
        {
            sp.basis_state({A: 2, B: 1}): 0.6,
            sp.basis_state({B: 1}): 0.8,
        },
    )
    out = apply_beam_splitter(st, A, B, kappa=0.0)
    assert (out + st.scaled(-1)).norm() < 1e-15


def test_beam_splitter_preserves_norm_and_photon_number():
    rng = np.random.default_rng(7)
    sp = two_path_space(n_max=4)
    basis = list(sp.enumerate_basis())
    for _ in range(10):
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        st = StateVector(sp, dict(zip(basis, amps))).normalized()
        out = apply_beam_splitter(st, A, B, kappa=rng.uniform(0, math.pi))
        assert abs(out.norm() - 1.0) < 1e-12
        assert abs(total_photons(out) - total_photons(st)) < 1e-12


def test_inner_products_preserved():
    rng = np.random.default_rng(11)
    sp = two_path_space(n_max=3)
    basis = list(sp.enumerate_basis())

    def random_state():
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        return StateVector(sp, dict(zip(basis, amps))).normalized()

    for _ in range(5):
        u, v = random_state(), random_state()
        before = u.inner(v)
        after = apply_beam_splitter(u, A, B).inner(apply_beam_splitter(v, A, B))
        assert abs(before - after) < 1e-11


# ---------------------------------------------------------------------------
# phase shift


def test_phase_shift_on_upper_mode():
    sp = two_path_space()
    st = StateVector(
        sp,
        {
            sp.basis_state({B: 1}): 1 / math.sqrt(2),
            sp.basis_state({A: 1}): 1 / math.sqrt(2),
        },
    )
    phi = 0.9
    out = apply_element(st, phase_shift(A, phi))
    assert abs(out.amplitude(sp.basis_state({B: 1})) - 1 / math.sqrt(2)) < 1e-15
    assert abs(
        out.amplitude(sp.basis_state({A: 1})) - cmath.exp(1j * phi) / math.sqrt(2)
    ) < 1e-15


def test_collective_phase_of_four_photons():
    sp = two_path_space(n_max=4)
    st = basis_vector(sp, {A: 4})
    out = apply_element(st, phase_shift(A, math.pi / 4))
    # four photons each gain pi/4: total phase pi
    assert abs(out.amplitude(sp.basis_state({A: 4})) - (-1.0)) < 1e-12


def test_zero_phase_is_identity():
    sp = two_path_space()
    st = basis_vector(sp, {A: 1})
    assert apply_element(st, phase_shift(A, 0.0)) is st


# ---------------------------------------------------------------------------
# Dove prism and mirror


def test_prism_flips_charge_with_rotation_phase():
    sp = oam_space(2)
    theta = 0.3
    out = apply_element(basis_vector(sp, {oam(2): 1}), dove_prism([oam(2), oam(-2)], theta))
    expected = cmath.exp(4j * theta)
    assert abs(out.amplitude(sp.basis_state({oam(-2): 1})) - expected) < 1e-15


def test_prism_leaves_zero_charge_alone():
    sp = oam_space(0)
    st = basis_vector(sp, {oam(0): 1})
    out = apply_element(st, dove_prism([oam(0)], 1.2345))
    assert (out + st.scaled(-1)).norm() < 1e-15


def test_prism_at_zero_angle_is_plain_flip():
    sp = oam_space(3)
    st = StateVector(
        sp,
        {
            sp.basis_state({oam(3): 1}): 1 / math.sqrt(2),
            sp.basis_state({oam(-3): 1}): 1 / math.sqrt(2),
        },
    )
    out = apply_element(st, dove_prism([oam(3), oam(-3)], 0.0))
    assert abs(out.inner(st)) > 1 - 1e-15


def test_prism_is_involution():
    sp = oam_space(2, n_max=3)
    rng = np.random.default_rng(3)
    basis = list(sp.enumerate_basis())
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    st = StateVector(sp, dict(zip(basis, amps))).normalized()
    arm = [oam(2), oam(-2)]
    twice = apply_element(apply_element(st, dove_prism(arm, 0.7)), dove_prism(arm, 0.7))
    assert abs(abs(twice.inner(st)) - 1.0) < 1e-12


def test_prism_missing_mirror_mode():
    sp = FockSpace([oam(1)], n_max=1)
    with pytest.raises(MissingMirrorModeError):
        apply_element(basis_vector(sp, {oam(1): 1}), dove_prism([oam(1)], 0.1))


def test_mirror_is_phase_free_flip():
    sp = oam_space(1)
    out = apply_element(basis_vector(sp, {oam(1): 1}), mirror([oam(1), oam(-1)]))
    assert abs(out.amplitude(sp.basis_state({oam(-1): 1})) - 1.0) < 1e-15


def test_swap_exchanges_occupations():
    sp = two_path_space(n_max=3)
    out = apply_element(basis_vector(sp, {A: 2, B: 1}), swap(A, B))
    assert abs(out.amplitude(sp.basis_state({A: 1, B: 2})) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# composition


def mz_matrix_oracle(phi):
    # 2x2 single-photon matrix product: BS * phase * BS
    c = 1 / math.sqrt(2)
    bs = np.array([[c, 1j * c], [1j * c, c]])
    ph = np.diag([np.exp(1j * phi), 1.0])
    return bs @ ph @ bs


@pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2, 2.5])
def test_mach_zehnder_matches_matrix_oracle(phi):
    sp = two_path_space(n_max=1)
    out = mach_zehnder(A, B, phi).apply(basis_vector(sp, {A: 1}))
    column = mz_matrix_oracle(phi)[:, 0]
    assert abs(out.amplitude(sp.basis_state({A: 1})) - column[0]) < 1e-12
    assert abs(out.amplitude(sp.basis_state({B: 1})) - column[1]) < 1e-12
    intensities = (
        abs(out.amplitude(sp.basis_state({A: 1}))) ** 2,
        abs(out.amplitude(sp.basis_state({B: 1}))) ** 2,
    )
    assert abs(intensities[0] - math.sin(phi / 2) ** 2) < 1e-12
    assert abs(intensities[1] - math.cos(phi / 2) ** 2) < 1e-12


def test_empty_interferometer_is_identity():
    sp = two_path_space()
    st = basis_vector(sp, {A: 1})
    assert build_interferometer([]).apply(st) is st


def test_double_splitter_routes_deterministically():
    # two balanced splitters compose to a pure swap up to phase
    sp = two_path_space(n_max=1)
    out = build_interferometer([beam_splitter(A, B), beam_splitter(A, B)]).apply(
        basis_vector(sp, {A: 1})
    )
    assert abs(out.amplitude(sp.basis_state({B: 1}))) > 1 - 1e-12
    assert abs(out.amplitude(sp.basis_state({A: 1}))) < 1e-12


def test_composite_preserves_norm():
    rng = np.random.default_rng(5)
    sp = two_path_space(n_max=3)
    basis = list(sp.enumerate_basis())
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    st = StateVector(sp, dict(zip(basis, amps))).normalized()
    circuit = build_interferometer(
        [beam_splitter(A, B), phase_shift(A, 0.7), beam_splitter(A, B, 0.3)]
    )
    assert abs(circuit.apply(st).norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# element specs


def test_spec_validation():
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.BEAM_SPLITTER, (A,), 0.5)
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.PHASE_SHIFT, (A, B), 0.5)
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.PHASE_SHIFT, (A,), math.inf)
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.DOVE_PRISM, (), 0.1)


def test_noon_forty_mach_zehnder_keeps_the_norm():
    # the Interferometer docstring promises a norm drift below 1e-12
    n = 40
    sp = two_path_space(n_max=n)
    probe = noon_state(sp, A, B, n)
    worst = max(
        abs(mach_zehnder(A, B, float(phi)).apply(probe).norm() - 1.0)
        for phi in np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    )
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# one composed map against element-by-element application


def random_state(sp, rng, terms):
    basis = list(sp.enumerate_basis())
    picks = rng.choice(len(basis), size=min(terms, len(basis)), replace=False)
    amps = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
    return StateVector(sp, {basis[i]: a for i, a in zip(picks, amps)}).normalized()


def random_chain(sp, rng, length):
    """Splitters, phases, swaps and, on OAM spaces, whole-arm prisms and mirrors."""
    modes = list(sp.modes)
    arms = {}
    for m in modes:
        arms.setdefault(m.channel, []).append(m)
    kinds = ["bs", "phase", "swap"] + (["prism", "mirror"] if modes[0].kind is ModeKind.OAM else [])
    chain = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        a, b = (modes[i] for i in rng.choice(len(modes), size=2, replace=False))
        if kind == "bs":
            chain.append(beam_splitter(a, b, float(rng.uniform(0.1, 1.4))))
        elif kind == "phase":
            chain.append(phase_shift(a, float(rng.uniform(0.0, 2 * math.pi))))
        elif kind == "swap":
            chain.append(swap(a, b))
        elif kind == "prism":
            chain.append(dove_prism(arms[a.channel], float(rng.uniform(0.0, math.pi))))
        else:
            chain.append(mirror(arms[a.channel]))
    return chain


@pytest.mark.parametrize(
    "modes, n_max",
    [
        ([A, B, path(2)], 3),
        ([oam(l, ch) for l in (-2, -1, 0, 1, 2) for ch in (0, 1)], 2),
        ([oam(l, ch) for l in (-1, 1) for ch in (0, 1)], 3),
    ],
)
def test_composed_map_matches_element_by_element(modes, n_max):
    rng = np.random.default_rng(len(modes) * 10 + n_max)
    sp = FockSpace(modes, n_max=n_max)
    for _ in range(8):
        st = random_state(sp, rng, terms=6)
        chain = random_chain(sp, rng, length=int(rng.integers(2, 9)))
        stepwise = st
        for spec in chain:
            stepwise = apply_element(stepwise, spec)
        composed = build_interferometer(chain).apply(st)
        assert (composed + stepwise.scaled(-1)).norm() <= 1e-12
        assert abs(composed.norm() - 1.0) <= 1e-12


def test_missing_mirror_raises_when_a_photon_can_reach_the_arm_mode():
    # oam(1) in channel 1 has no mirror charge; a splitter feeds it from channel 0
    sp = FockSpace([oam(-1, 0), oam(1, 0), oam(1, 1)], n_max=1)
    circuit = build_interferometer([beam_splitter(oam(1, 0), oam(1, 1)), mirror([oam(1, 1)])])
    with pytest.raises(MissingMirrorModeError):
        circuit.apply(basis_vector(sp, {oam(1, 0): 1}))


def test_missing_mirror_ignored_when_no_photon_can_reach_the_arm_mode():
    sp = FockSpace([oam(-1, 0), oam(1, 0), oam(1, 1)], n_max=1)
    st = basis_vector(sp, {oam(1, 0): 1})
    # nothing couples channel 0 to oam(1) in channel 1
    out = build_interferometer([mirror([oam(-1, 0), oam(1, 0)]), mirror([oam(1, 1)])]).apply(st)
    assert abs(out.amplitude(sp.basis_state({oam(-1, 0): 1})) - 1.0) < 1e-15
    # a populated arm mode raises, an empty one does not
    with pytest.raises(MissingMirrorModeError):
        apply_element(basis_vector(sp, {oam(1, 1): 1}), mirror([oam(1, 1)]))
    assert abs(apply_element(st, mirror([oam(1, 1)])).inner(st)) > 1 - 1e-15


def test_arm_without_its_mirror_charge_rejected():
    # oam(-1) exists in the same channel, so an arm holding only oam(1) is not a flip
    sp = oam_space(1)
    with pytest.raises(ValueError):
        apply_element(basis_vector(sp, {oam(1): 1}), dove_prism([oam(1)], 0.3))


def test_swap_and_prism_on_multiphoton_terms():
    sp = FockSpace([oam(-1), oam(0), oam(1)], n_max=3)
    st = basis_vector(sp, {oam(1): 2, oam(0): 1})
    out = apply_element(st, dove_prism([oam(-1), oam(0), oam(1)], 0.2))
    # two photons at charge 1 each gain e^{i 0.4}; the charge-0 photon stays
    expected = cmath.exp(2j * 0.4)
    assert abs(out.amplitude(sp.basis_state({oam(-1): 2, oam(0): 1})) - expected) < 1e-15
    swapped = apply_element(st, swap(oam(0), oam(1)))
    assert abs(swapped.amplitude(sp.basis_state({oam(0): 2, oam(1): 1})) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# the composed map and its plan, built once per mode set


def same_items(a, b):
    return repr(list(a._amp.items())) == repr(list(b._amp.items()))


def test_one_interferometer_on_two_mode_sets_equals_a_fresh_one_each_time():
    rng = np.random.default_rng(16)
    chain = [beam_splitter(A, B, 0.3), phase_shift(B, 0.7), beam_splitter(B, path(2), 1.1), swap(A, path(2))]
    small = FockSpace([A, B, path(2)], n_max=3)
    # path(-1) sorts first, so every mode of the chain sits one position later
    large = FockSpace([path(-1), A, B, path(2)], n_max=3)
    reused = build_interferometer(chain)
    for sp in (small, large, small, FockSpace(small.modes, n_max=5), large):
        st = random_state(sp, rng, terms=6)
        assert same_items(reused.apply(st), build_interferometer(chain).apply(st))
        assert reused._compiled[0] == sp.modes


def test_reused_prism_still_refuses_a_photon_without_its_mirror():
    # oam(1) in channel 1 has no mirror charge, and nothing feeds it from channel 0
    sp = FockSpace([oam(-1, 0), oam(1, 0), oam(1, 1)], n_max=1)
    circuit = build_interferometer([beam_splitter(oam(-1, 0), oam(1, 0)), dove_prism([oam(1, 1)], 0.4)])
    fed = basis_vector(sp, {oam(-1, 0): 1})
    first = circuit.apply(fed)
    with pytest.raises(MissingMirrorModeError):
        circuit.apply(basis_vector(sp, {oam(1, 1): 1}))
    assert same_items(circuit.apply(fed), first)


def test_equality_hash_and_repr_ignore_the_compiled_map():
    chain = [beam_splitter(A, B, 0.3), phase_shift(A, 1.2)]
    used, fresh = build_interferometer(chain), build_interferometer(chain)
    before = (repr(used), hash(used))
    used.apply(basis_vector(two_path_space(), {A: 1}))
    assert used._compiled is not None and fresh._compiled is None
    assert used == fresh and hash(used) == hash(fresh) == before[1]
    assert repr(used) == repr(fresh) == before[0]


def test_threads_sharing_one_interferometer_across_mode_sets_agree_with_fresh_ones():
    # more threads than cores and a short switch interval, so a thread
    # often resumes after another has replaced the compiled map
    rng = np.random.default_rng(17)
    chain = [beam_splitter(A, B, 0.3), phase_shift(B, 0.7), beam_splitter(B, path(2), 1.1)]
    spaces = [FockSpace([A, B, path(2)], n_max=3), FockSpace([path(-1), A, B, path(2)], n_max=3)]
    states = [random_state(sp, rng, terms=6) for sp in spaces]
    want = [build_interferometer(chain).apply(st) for st in states]
    shared = build_interferometer(chain)
    wrong = []

    def worker(k):
        try:
            for n in range(500):
                i = (n + k) % 2
                if not same_items(shared.apply(states[i]), want[i]):
                    wrong.append((k, n))
        except Exception as exc:  # a plan applied to the other mode set
            wrong.append((k, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_repeated_applies_compose_only_once(monkeypatch):
    calls = []
    compose = elements._compose

    def counted(step, u):
        calls.append(step)
        return compose(step, u)

    monkeypatch.setattr(elements, "_compose", counted)
    circuit = mach_zehnder(A, B, 0.3)
    st = noon_state(two_path_space(4), A, B, 4)
    first = circuit.apply(st)
    assert len(calls) == 2
    for _ in range(3):
        assert same_items(circuit.apply(st), first)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# element invariants on random inputs

OAM_SPACES = [
    FockSpace([oam(l, ch) for l in (-2, -1, 0, 1, 2) for ch in (0, 1)], n_max=3),
    FockSpace([oam(l) for l in (-3, -1, 1, 3)], n_max=4),
]
CHAIN_SPACES = [FockSpace([A, B, path(2)], n_max=4)] + OAM_SPACES


def sector_weights(state):
    weights = {}
    for bs, a in state.items():
        weights[bs.total] = weights.get(bs.total, 0.0) + abs(a) ** 2
    return weights


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(CHAIN_SPACES), st.integers(1, 10))
def test_random_element_lists_conserve_photon_number(seed, sp, length):
    rng = np.random.default_rng(seed)
    state = random_state(sp, rng, terms=8)
    out = build_interferometer(random_chain(sp, rng, length)).apply(state)
    before, after = sector_weights(state), sector_weights(out)
    # no weight leaves its photon-number sector, and none appears in a new one
    assert after.keys() <= before.keys()
    for n, w in before.items():
        assert abs(after.get(n, 0.0) - w) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(OAM_SPACES), st.floats(-10.0, 10.0, allow_nan=False))
def test_prism_twice_at_one_angle_is_the_identity(seed, sp, theta):
    rng = np.random.default_rng(seed)
    state = random_state(sp, rng, terms=12)
    arm = [m for m in sp.modes if m.channel == sp.modes[0].channel]
    twice = apply_element(apply_element(state, dove_prism(arm, theta)), dove_prism(arm, theta))
    assert (twice + state.scaled(-1)).norm() <= 1e-12
