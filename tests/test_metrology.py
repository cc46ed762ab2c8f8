import math

import numpy as np
import pytest

from photonlab.elements import apply_beam_splitter, apply_element, dove_prism, mirror, phase_shift
from photonlab.fock import (
    FockSpace,
    ModeMapPlan,
    StateVector,
    basis_vector,
    expectation,
    level,
    oam,
    path,
    variance_and_uncertainty,
)
from photonlab.metrology import (
    AngularDisplacementProtocol,
    DegenerateGridError,
    EstimationResult,
    NoonPhaseProtocol,
    SinglePhotonPhaseProtocol,
    StationaryPointError,
    fit_loglog,
    observable_A,
    observable_B,
    observable_R,
    propagate_uncertainty,
    ramsey_fringe,
    ramsey_frequency_estimate,
    run_monte_carlo,
    scaling_experiment,
)
from photonlab.sources import SpdcOamSpectrum, noon_state, spdc_oam_pair

A, B = path(0), path(1)


# ---------------------------------------------------------------------------
# observables


def test_observable_A_is_pauli_x():
    sp = FockSpace([A], n_max=1)
    obs = observable_A(sp)
    basis = [sp.basis_state({}), sp.basis_state({A: 1})]
    m = obs.matrix(basis)
    assert np.allclose(m, [[0, 1], [1, 0]])
    assert np.allclose(m @ m, np.eye(2))
    assert np.allclose(sorted(np.linalg.eigvalsh(m)), [-1.0, 1.0])


def test_observable_B_fringe_and_projector():
    n = 3
    proto = NoonPhaseProtocol(n)
    phi = 0.61
    st = proto.state(phi)
    assert abs(expectation(st, proto.observable) - math.cos(n * phi)) < 1e-12
    var, _ = variance_and_uncertainty(st, proto.observable)
    assert abs((var + math.cos(n * phi) ** 2) - 1.0) < 1e-12  # <B^2> = 1


def test_observable_B_vanishes_outside_noon_subspace():
    sp = FockSpace([A, B], n_max=2)
    obs = observable_B(sp, A, B, 2)
    assert expectation(basis_vector(sp, {}), obs) == 0.0


def test_angular_fringe_through_apparatus():
    proto = AngularDisplacementProtocol(2)
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        got = expectation(proto.state(float(theta)), proto.observable)
        assert abs(got - math.cos(4 * theta) ** 2) < 1e-12


def test_angular_fringe_equals_per_call_construction():
    # the input pair is built once per protocol; building it afresh for
    # every angle gives the same fringe bit for bit, signed zeros included
    for l in (1, 2, 3):
        proto = AngularDisplacementProtocol(l)
        obs = observable_R(proto.space, l)
        for theta in [*np.linspace(0.0, 2.0 * math.pi, 160, endpoint=False), -0.0, math.pi / 2]:
            st = spdc_oam_pair(proto.space, SpdcOamSpectrum.filtered_pair(l, relative_phase=math.pi))
            for m in (l, -l):
                st = apply_beam_splitter(st, oam(m, 0), oam(m, 1))
            st = apply_element(st, dove_prism([oam(l, 0), oam(-l, 0)], float(theta)))
            st = apply_element(st, mirror([oam(l, 1), oam(-l, 1)]))
            for m in (l, -l):
                st = apply_beam_splitter(st, oam(m, 0), oam(m, 1))
            assert repr(expectation(proto.state(float(theta)), proto.observable)) == repr(expectation(st, obs))


def test_angular_fringe_at_zero_is_unity():
    proto = AngularDisplacementProtocol(1)
    assert abs(expectation(proto.state(0.0), proto.observable) - 1.0) < 1e-12


def test_angular_space_holds_only_the_four_modes_of_the_pair():
    # the pair and its flips reach oam(+-l, 0 and 1) alone; a space over
    # all 4l + 2 charges took seconds to build at l = 30000
    l = 30000
    proto = AngularDisplacementProtocol(l)
    assert len(proto.space.modes) == 4
    for theta in (0.0, 1e-6, 3.3e-6, 1.234e-5, -2.5e-5):
        got = expectation(proto.state(theta), proto.observable)
        assert abs(got - math.cos(2 * l * theta) ** 2) < 1e-12


def test_angular_observable_is_projector_on_output():
    # <R^2> = <R> through the apparatus, and Delta R = sin(4 l theta)/2
    l = 1
    proto = AngularDisplacementProtocol(l)
    theta = math.pi / (8 * l)  # 4 l theta = pi/2
    st = proto.state(theta)
    mean = expectation(st, proto.observable)
    var, spread = variance_and_uncertainty(st, proto.observable)
    assert abs((var + mean ** 2) - mean) < 1e-12
    assert abs(spread - 0.5) < 1e-12


def test_fringe_identity_grids():
    grid = np.linspace(0.0, 2 * math.pi, 101, endpoint=False)
    mz = SinglePhotonPhaseProtocol()
    worst = max(
        abs(expectation(mz.state(float(p)), mz.observable) - math.cos(p)) for p in grid
    )
    assert worst < 1e-12
    noon = NoonPhaseProtocol(3)
    worst = max(
        abs(expectation(noon.state(float(p)), noon.observable) - math.cos(3 * p))
        for p in grid
    )
    assert worst < 1e-12
    ang = AngularDisplacementProtocol(2)
    worst = max(
        abs(expectation(ang.state(float(t)), ang.observable) - math.cos(4 * t) ** 2)
        for t in grid
    )
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# uncertainty propagation


def test_sql_uncertainty_is_shot_noise():
    proto = SinglePhotonPhaseProtocol()
    for trials in (1, 2, 3, 4, 5):
        for phi in (0.3, 0.9, 1.5, 2.1, 2.8):
            got = proto.analytic_uncertainty(phi, trials=trials)
            assert abs(got - 1 / math.sqrt(trials)) < 1e-10


def test_noon_uncertainty_is_heisenberg():
    for n in (1, 2, 3, 4, 5):
        proto = NoonPhaseProtocol(n)
        phi = 0.5 * math.pi / n
        assert abs(proto.analytic_uncertainty(phi) - 1 / n) < 1e-10


def test_angular_uncertainty_law():
    for n in (1, 2, 3, 4, 5):
        for l in (1, 2, 3, 4):
            proto = AngularDisplacementProtocol(l, n_photons=n)
            theta = 0.3 * math.pi / (2 * n * l)
            assert abs(proto.analytic_uncertainty(theta) - 1 / (2 * n * l)) < 1e-10


def test_angular_sql_scaling():
    # N = 9 independent photons, each a one-photon angular probe: 1 / (2 sqrt(N) l)
    proto = AngularDisplacementProtocol(2, n_photons=1)
    assert abs(proto.analytic_uncertainty(math.pi / 16, trials=9) - 1 / (2 * 3 * 2)) < 1e-10


def test_uncertainty_independent_of_working_point():
    proto = NoonPhaseProtocol(4)
    pts = [0.15, 0.3, 0.5, 0.7, 0.85]
    values = [proto.analytic_uncertainty(p * math.pi / 4) for p in pts]
    assert max(values) - min(values) < 1e-10


def test_stationary_point_raises():
    proto = SinglePhotonPhaseProtocol()
    with pytest.raises(StationaryPointError):
        proto.analytic_uncertainty(0.0)


def test_propagated_uncertainty_is_spread_over_slope():
    assert propagate_uncertainty(-2.0 * math.sin(1.1), math.sin(1.1), 1.1) == 0.5
    with pytest.raises(StationaryPointError):
        propagate_uncertainty(1e-9, 1.0, 0.3)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_recovers_phase():
    proto = SinglePhotonPhaseProtocol()
    n = 10 ** 6
    res = run_monte_carlo(proto, math.pi / 3, trials=n, seed=123)
    assert abs(res.estimate - math.pi / 3) < 3 / math.sqrt(n)
    assert res.method == "monte-carlo"
    assert res.resources == n
    assert not res.clamped


def test_monte_carlo_reproducible_for_fixed_seed():
    proto = SinglePhotonPhaseProtocol()
    a = run_monte_carlo(proto, 1.0, trials=5000, seed=99, repetitions=4)
    b = run_monte_carlo(proto, 1.0, trials=5000, seed=99, repetitions=4)
    assert a == b


def test_outcome_frequencies_match_born_rule():
    # 4 sigma binomial bound on 1e6 samples
    proto = SinglePhotonPhaseProtocol()
    phi = 1.0
    evals, probs = proto.observable.eigensystem(proto.state(phi))
    p_plus = float(probs[np.argmax(evals)])
    assert abs(p_plus - 0.5 * (1 + math.cos(phi))) < 1e-12
    n = 10 ** 6
    rng = np.random.default_rng(np.random.SeedSequence(2024).spawn(1)[0])
    outcomes = rng.choice(evals, size=n, p=probs)
    freq = float(np.mean(outcomes > 0))
    assert abs(freq - p_plus) < 4 * math.sqrt(p_plus * (1 - p_plus) / n)


def test_noon_ensemble_uncertainty_tracks_heisenberg():
    # std over 200 repeated ensembles, scaled back to one shot, sits
    # within 10% of the single-shot bound 1/N
    n, shots = 4, 256
    proto = NoonPhaseProtocol(n)
    res = run_monte_carlo(proto, 0.3, trials=shots, seed=31, repetitions=200)
    per_shot = res.uncertainty * math.sqrt(shots)
    assert abs(per_shot - 1 / n) < 0.1 / n


def test_zero_variance_case():
    proto = SinglePhotonPhaseProtocol()
    res = run_monte_carlo(proto, 0.0, trials=100, seed=5)
    assert res.uncertainty == 0.0
    assert res.estimate == 0.0


def test_single_outcome_has_no_uncertainty():
    # one outcome's zero sample spread must not pass for an eigenstate
    proto = SinglePhotonPhaseProtocol()
    with pytest.raises(ValueError, match="one trial in one repetition"):
        run_monte_carlo(proto, 1.0, trials=1, seed=1)
    with pytest.raises(ValueError):
        ramsey_frequency_estimate(1.0, 1.0, trials=1, seed=4, method="monte-carlo")
    # a true eigenstate keeps its exact zero from two trials on
    assert run_monte_carlo(proto, 0.0, trials=2, seed=1).uncertainty == 0.0
    assert run_monte_carlo(proto, 1.0, trials=1, seed=1, repetitions=5).uncertainty > 0.0


def test_estimator_clamp_flag():
    proto = SinglePhotonPhaseProtocol()
    est, clamped = proto.invert_mean(1.2)
    assert clamped and est == 0.0
    est, clamped = proto.invert_mean(-1.000001)
    assert clamped and abs(est - math.pi) < 1e-12


@pytest.mark.parametrize(
    "proto, lo, hi",
    [
        (SinglePhotonPhaseProtocol(), -1.0, 1.0),
        (NoonPhaseProtocol(3), -1.0, 1.0),
        (AngularDisplacementProtocol(2), 0.0, 1.0),
    ],
)
def test_invert_mean_is_elementwise(proto, lo, hi):
    means = np.array([lo - 0.2, lo, lo + 0.3 * (hi - lo), 0.5 * (lo + hi), hi - 1e-9, hi, hi + 1e-6])
    estimates, clamped = proto.invert_mean(means)
    assert estimates.shape == clamped.shape == means.shape
    for m, est, flag in zip(means, estimates, clamped):
        one, one_flag = proto.invert_mean(float(m))
        assert est == one and flag == one_flag
    assert clamped.tolist() == [True, False, False, False, False, False, True]


def test_scaling_samples_the_simulated_state(monkeypatch):
    # a probe stuck at phi = 0 is an eigenstate of the readout: every
    # estimate comes out the same, so no grid point has a spread to fit
    state = NoonPhaseProtocol.state
    monkeypatch.setattr(NoonPhaseProtocol, "state", lambda self, phi: state(self, 0.0))
    with pytest.raises(DegenerateGridError):
        scaling_experiment("noon", [1, 2, 3, 4, 5], repetitions=50, seed=7)


def test_angular_monte_carlo():
    proto = AngularDisplacementProtocol(2)
    theta = 0.1
    res = run_monte_carlo(proto, theta, trials=20000, seed=8)
    assert abs(res.estimate - theta) < 0.01
    assert res.resources == 40000  # two photons per trial


# ---------------------------------------------------------------------------
# scaling fits


def test_constant_uncertainty_fits_zero_slope():
    fit = fit_loglog([(2 ** k, 0.37) for k in range(1, 7)])
    assert abs(fit.slope) < 1e-12


def test_fit_needs_four_points():
    with pytest.raises(DegenerateGridError):
        fit_loglog([(1, 1.0), (2, 0.5), (4, 0.25)])


def test_fit_rejects_nonpositive():
    with pytest.raises(DegenerateGridError):
        fit_loglog([(1, 1.0), (2, 0.5), (4, 0.0), (8, 0.1)])


def test_sql_family_slope():
    fit = scaling_experiment(
        "independent-photons", [16, 64, 256, 1024], repetitions=300, seed=7
    )
    assert abs(fit.slope + 0.5) < 0.05


def test_noon_family_slope():
    fit = scaling_experiment("noon", [1, 2, 3, 4, 5], repetitions=300, seed=7)
    assert abs(fit.slope + 1.0) < 0.05


@pytest.mark.parametrize("family, grid, phi", [("noon", [1, 2, 3, 4, 5], 0.7), ("independent-photons", [16, 64, 256, 1024], -0.1)])
def test_scaling_rejects_working_point_off_the_principal_branch(family, grid, phi):
    with pytest.raises(ValueError, match="principal branch"):
        scaling_experiment(family, grid, repetitions=10, seed=1, working_point=phi)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        scaling_experiment("squeezed", [1, 2, 3, 4], repetitions=10, seed=1)


# ---------------------------------------------------------------------------
# Ramsey readout


def test_ramsey_fringe_value():
    assert abs(ramsey_fringe(1.0, math.pi / 3) - 0.5) < 1e-12


def test_ramsey_fringe_equals_per_point_construction():
    # the space, ground state and observable are built once; rebuilding
    # them for every point gives the same values bit for bit
    for t in [*np.linspace(0.1, 6.0, 600), math.pi / 2 / 1.3]:
        space = FockSpace([level(0)], n_max=1)
        ground = StateVector(
            space,
            {
                space.basis_state({}): 1 / math.sqrt(2),
                space.basis_state({level(0): 1}): 1 / math.sqrt(2),
            },
        )
        st = apply_element(ground, phase_shift(level(0), 1.3 * float(t)))
        assert repr(ramsey_fringe(1.3, float(t))) == repr(expectation(st, observable_A(space)))


def test_ramsey_entangled_uncertainty():
    t = 2.0
    for atoms in (1, 2, 4):
        res = ramsey_frequency_estimate(1.0, t, atoms=atoms)
        assert abs(res.uncertainty - 1 / (atoms * t)) < 1e-10


def test_ramsey_doubling_time_halves_uncertainty():
    a = ramsey_frequency_estimate(1.0, 1.0, atoms=2)
    b = ramsey_frequency_estimate(1.0, 2.0, atoms=2)
    assert abs(a.uncertainty / b.uncertainty - 2.0) < 1e-10


def test_ramsey_rejects_bad_time():
    with pytest.raises(ValueError):
        ramsey_frequency_estimate(1.0, 0.0)
    with pytest.raises(ValueError):
        ramsey_fringe(1.0, -1.0)


def test_ramsey_monte_carlo_matches():
    res = ramsey_frequency_estimate(
        1.0, 1.3, trials=200000, seed=77, method="monte-carlo"
    )
    assert abs(res.estimate - 1.0) < 0.01
    assert res.seed == 77


def test_ramsey_needs_seed_for_sampling():
    with pytest.raises(ValueError):
        ramsey_frequency_estimate(1.0, 1.0, method="monte-carlo")


# ---------------------------------------------------------------------------
# result validation


def test_result_invariants():
    with pytest.raises(ValueError):
        EstimationResult(estimate=1.0, uncertainty=-0.1, resources=1, method="analytic")
    with pytest.raises(ValueError):
        EstimationResult(estimate=1.0, uncertainty=0.1, resources=0, method="analytic")
    with pytest.raises(ValueError):
        EstimationResult(estimate=1.0, uncertainty=0.1, resources=1, method="guess")


# ---------------------------------------------------------------------------
# the compiled circuit against element-by-element construction


def one_photon_ground(space, mode):
    return StateVector(
        space,
        {space.basis_state({}): 1 / math.sqrt(2), space.basis_state({mode: 1}): 1 / math.sqrt(2)},
    )


def rebuilt_single_photon(mode, phi):
    space = FockSpace([mode], n_max=1)
    return apply_element(one_photon_ground(space, mode), phase_shift(mode, phi)), observable_A(space)


def rebuilt_noon(n, phi):
    space = FockSpace([A, B], n_max=n)
    return apply_element(noon_state(space, A, B, n), phase_shift(A, phi)), observable_B(space, A, B, n)


def rebuilt_angular(l, theta):
    space = AngularDisplacementProtocol(l).space
    st = spdc_oam_pair(space, SpdcOamSpectrum.filtered_pair(l, relative_phase=math.pi))
    for m in (l, -l):
        st = apply_beam_splitter(st, oam(m, 0), oam(m, 1))
    st = apply_element(st, dove_prism([oam(l, 0), oam(-l, 0)], theta))
    st = apply_element(st, mirror([oam(l, 1), oam(-l, 1)]))
    for m in (l, -l):
        st = apply_beam_splitter(st, oam(m, 0), oam(m, 1))
    return st, observable_R(space, l)


@pytest.mark.parametrize(
    "proto, rebuild, points",
    [(NoonPhaseProtocol(n), lambda x, n=n: rebuilt_noon(n, x), 256) for n in range(1, 9)]
    + [
        (SinglePhotonPhaseProtocol(), lambda x: rebuilt_single_photon(A, x), 256),
        # the Ramsey circuit: one atom on an atomic-level mode
        (SinglePhotonPhaseProtocol(level(0)), lambda x: rebuilt_single_photon(level(0), x), 600),
    ]
    + [(AngularDisplacementProtocol(l), lambda x, l=l: rebuilt_angular(l, x), 160) for l in (1, 2, 3)],
)
def test_compiled_state_equals_element_rebuild_bit_for_bit(proto, rebuild, points):
    for x in [*np.linspace(-3.0, 9.0, points), 0.0, -0.0, math.pi / 2]:
        got = proto.state(float(x))
        want, obs = rebuild(float(x))
        # same terms in the same order with the same amplitudes; repr
        # tells the signed zeros apart, which == does not
        assert repr(list(got._amp.items())) == repr(list(want._amp.items()))
        assert repr(expectation(got, proto.observable)) == repr(expectation(want, obs))


def test_sweeps_never_fall_back_to_the_generic_plan(monkeypatch):
    # every point of these sweeps must go through the compiled phase step
    # and programs; the fringe zeros at the odd k pi / (4 l) prune the
    # last program's output, which no later program reads
    angular = [AngularDisplacementProtocol(l) for l in range(1, 5)]
    noon = [NoonPhaseProtocol(n) for n in range(1, 9)]

    def refuse(plan, state):
        raise AssertionError("fell back to ModeMapPlan.apply")

    monkeypatch.setattr(ModeMapPlan, "apply", refuse)
    for proto in angular:
        thetas = [*np.linspace(0.0, 2 * math.pi, 160, endpoint=False)]
        thetas += [k * math.pi / (4 * proto.l) for k in range(-8 * proto.l, 8 * proto.l + 1)]
        for theta in thetas:
            assert 0.0 <= expectation(proto.state(float(theta)), proto.observable) <= 1.0 + 1e-12
    for proto in noon:
        for phi in np.linspace(-math.pi, math.pi, 256):
            assert abs(expectation(proto.state(float(phi)), proto.observable)) <= 1.0 + 1e-12
    for t in np.linspace(0.05, 10.0, 600):
        assert abs(ramsey_fringe(1.3, float(t))) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "proto",
    [SinglePhotonPhaseProtocol(), NoonPhaseProtocol(3), AngularDisplacementProtocol(2)],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_state_rejects_non_finite_parameter(proto, x):
    with pytest.raises(ValueError, match="finite"):
        proto.state(x)


def test_ramsey_fringe_rejects_non_finite_phase():
    with pytest.raises(ValueError, match="finite"):
        ramsey_fringe(math.nan, 1.0)


def test_analytic_only_protocol_has_no_state():
    proto = AngularDisplacementProtocol(1, n_photons=1)
    with pytest.raises(NotImplementedError):
        proto.state(0.1)
    assert proto.analytic_uncertainty(math.pi / 8) > 0


@pytest.mark.parametrize("trials", [0, -3])
def test_analytic_uncertainty_needs_a_trial(trials):
    with pytest.raises(ValueError, match="need trials >= 1"):
        SinglePhotonPhaseProtocol().analytic_uncertainty(1.0, trials=trials)
    with pytest.raises(ValueError, match="need trials >= 1"):
        ramsey_frequency_estimate(1.0, 1.0, trials=trials)
