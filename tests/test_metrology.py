import math

import numpy as np
import pytest

from photonlab.elements import apply_beam_splitter, apply_dove_prism, apply_mirror, apply_phase_shift
from photonlab.fock import FockSpace, StateVector, expectation, level, oam, path, variance_and_uncertainty
from photonlab.metrology import (
    AngularDisplacementProtocol,
    DegenerateGridError,
    EstimationResult,
    NoonPhaseProtocol,
    SinglePhotonPhaseProtocol,
    StationaryPointError,
    angular_sql_uncertainty,
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
from photonlab.sources import SpdcOamSpectrum, spdc_oam_pair

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
    from photonlab.fock import vacuum_state

    assert expectation(vacuum_state(sp), obs) == 0.0


def test_angular_fringe_through_apparatus():
    proto = AngularDisplacementProtocol(2)
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        got = expectation(proto.state(float(theta)), proto.observable)
        assert abs(got - math.cos(4 * theta) ** 2) < 1e-12


def test_angular_fringe_equals_per_call_construction():
    # the input pair is built once per protocol; building it afresh for
    # every angle gives the same fringe bit for bit
    for l in (1, 2, 3):
        proto = AngularDisplacementProtocol(l)
        obs = observable_R(proto.space, l)
        for theta in np.linspace(0.0, 2.0 * math.pi, 160, endpoint=False):
            st = spdc_oam_pair(proto.space, SpdcOamSpectrum.filtered_pair(l, relative_phase=math.pi))
            for m in (l, -l):
                st = apply_beam_splitter(st, oam(m, 0), oam(m, 1))
            st = apply_dove_prism(st, [oam(l, 0), oam(-l, 0)], float(theta))
            st = apply_mirror(st, [oam(l, 1), oam(-l, 1)])
            for m in (l, -l):
                st = apply_beam_splitter(st, oam(m, 0), oam(m, 1))
            assert expectation(proto.state(float(theta)), proto.observable) == expectation(st, obs)


def test_angular_fringe_at_zero_is_unity():
    proto = AngularDisplacementProtocol(1)
    assert abs(expectation(proto.state(0.0), proto.observable) - 1.0) < 1e-12


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
    assert abs(angular_sql_uncertainty(2, 9) - 1 / (2 * 3 * 2)) < 1e-10


def test_uncertainty_independent_of_working_point():
    proto = NoonPhaseProtocol(4)
    pts = [0.15, 0.3, 0.5, 0.7, 0.85]
    values = [proto.analytic_uncertainty(p * math.pi / 4) for p in pts]
    assert max(values) - min(values) < 1e-10


def test_stationary_point_raises():
    proto = SinglePhotonPhaseProtocol()
    with pytest.raises(StationaryPointError):
        proto.analytic_uncertainty(0.0)


def test_numeric_derivative_fallback():
    got = propagate_uncertainty(math.cos, lambda x: abs(math.sin(x)), 1.1)
    assert abs(got - 1.0) < 1e-6


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


def test_estimator_clamp_flag():
    proto = SinglePhotonPhaseProtocol()
    est, clamped = proto.invert_mean(1.2)
    assert clamped and est == 0.0
    est, clamped = proto.invert_mean(-1.000001)
    assert clamped and abs(est - math.pi) < 1e-12


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
    for t in np.linspace(0.1, 6.0, 600):
        space = FockSpace([level(0)], n_max=1)
        ground = StateVector(
            space,
            {
                space.basis_state({}): 1 / math.sqrt(2),
                space.basis_state({level(0): 1}): 1 / math.sqrt(2),
            },
        )
        st = apply_phase_shift(ground, level(0), 1.3 * float(t))
        assert ramsey_fringe(1.3, float(t)) == expectation(st, observable_A(space))


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
