"""The three in-process workloads: operation lists, inputs and oracles.

Each workload is a fixed list of operations built from the seed.  Every
call into photonlab sits in a span named after the layer it enters.  Why
each workload exists is written up in bench/README.md.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from photonlab import dispersion as disp
from photonlab import metrology as met
from photonlab import oam_imaging as oam
from photonlab import sources
from photonlab.elements import beam_splitter, build_interferometer, mach_zehnder, phase_shift
from photonlab.fock import FockSpace, basis_vector, expectation, number_expectation, path, schmidt_rank
from photonlab.sources import BiphotonSpectrum

import oracles
from harness import Op, Workload, expect

FRINGE_TOL = 1e-12
AMPLITUDE_TOL = 1e-10
# Interferometer.apply documents a norm drift below 1e-12, but the binomial
# expansion of a NOON N = 40 state drifts up to about 5e-12 at some phases.
# Drift past the documented figure is printed as a note; the gate is the
# amplitude tolerance.
DOCUMENTED_NORM_TOL = 1e-12
NORM_TOL = AMPLITUDE_TOL
PERMANENT_SAMPLES = 16


# ---------------------------------------------------------------------------
# fock_mesh: large multimode states through Interferometer.apply


def _mesh(m: int, rng: np.random.Generator):
    """Brick-wall mesh of depth m: a random phase then a random splitter per pair."""
    modes = [path(i) for i in range(m)]
    specs = []
    u = np.eye(m, dtype=complex)
    for depth in range(m):
        for i in range(depth % 2, m - 1, 2):
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            kappa = float(rng.uniform(0.2, 1.35))
            specs += [phase_shift(modes[i], phi), beam_splitter(modes[i], modes[i + 1], kappa)]
            step = np.eye(m, dtype=complex)
            step[i:i + 2, i:i + 2] = oracles.beam_splitter_matrix(kappa) @ oracles.phase_matrix(phi)
            u = step @ u
    return modes, build_interferometer(specs), u


def _norm_check(op_name: str, state) -> list[str]:
    drift = abs(state.norm() - 1.0)
    if drift > DOCUMENTED_NORM_TOL:
        print(f"note: {op_name} norm drift {drift:.2e} exceeds the documented {DOCUMENTED_NORM_TOL:.0e}", file=sys.stderr)
    return expect(drift <= NORM_TOL, f"norm drift {drift:.2e}")


def _occupation_patterns(m: int, n: int):
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _occupation_patterns(m - 1, n - first):
            yield (first,) + rest


def _mesh_op(m: int, rng: np.random.Generator) -> Op:
    modes, interferometer, u = _mesh(m, rng)
    space = FockSpace(modes, n_max=m)
    state_in = basis_vector(space, {mode: 1 for mode in modes})
    patterns = list(_occupation_patterns(m, m))
    picks = rng.choice(len(patterns), size=min(PERMANENT_SAMPLES, len(patterns)), replace=False)
    sample = [patterns[i] for i in sorted(picks)]
    expected_n = np.sum(np.abs(u) ** 2, axis=1)
    halves = (modes[: m // 2], modes[m // 2:])

    def run(tr):
        with tr.span("elements.interferometer_apply_s"):
            out = interferometer.apply(state_in)
        tr.count("elements.elements_applied", len(interferometer.elements))
        tr.count("elements.terms_out", out.num_terms)
        with tr.span("fock.number_expectation_s"):
            n_k = [number_expectation(out, mode) for mode in modes]
        with tr.span("fock.schmidt_s"):
            rank, svals = schmidt_rank(out, halves)
        tr.count("fock.state_terms", 2 * out.num_terms)
        return out, n_k, rank, svals

    def check(result, _):
        out, n_k, rank, svals = result
        fails = _norm_check(f"mesh_m{m}", out)
        fails += expect(all(bs.total == m for bs in out.support()), "photon number not conserved")
        worst = max(
            abs(out.amplitude(space.basis_state(dict(zip(modes, t)))) - oracles.linear_optics_amplitude(u, [1] * m, list(t)))
            for t in sample
        )
        fails += expect(worst <= AMPLITUDE_TOL, f"amplitude off the permanent formula by {worst:.2e}")
        n_dev = float(np.max(np.abs(np.array(n_k) - expected_n)))
        fails += expect(n_dev <= AMPLITUDE_TOL, f"<n_k> off sum_j |U_kj|^2 by {n_dev:.2e}")
        s_dev = abs(float(np.sum(svals ** 2)) - out.norm() ** 2)
        fails += expect(rank >= 1 and s_dev <= AMPLITUDE_TOL, f"Schmidt weights off the norm by {s_dev:.2e}")
        return fails

    return Op(f"mesh_m{m}", run, check)


def _noon_mz_op(n: int, rng: np.random.Generator) -> Op:
    a, b = path(0), path(1)
    space = FockSpace([a, b], n_max=n)
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    interferometer = mach_zehnder(a, b, phi)
    bs = oracles.beam_splitter_matrix(math.pi / 4)
    expected = oracles.two_mode_amplitudes(bs @ oracles.phase_matrix(phi) @ bs, n)

    def run(tr):
        with tr.span("sources.prepare_s"):
            probe = sources.noon_state(space, a, b, n)
        tr.count("sources.states")
        with tr.span("elements.interferometer_apply_s"):
            out = interferometer.apply(probe)
        tr.count("elements.elements_applied", len(interferometer.elements))
        tr.count("elements.terms_out", out.num_terms)
        with tr.span("fock.number_expectation_s"):
            n_a = number_expectation(out, a)
        tr.count("fock.state_terms", out.num_terms)
        return out, n_a

    def check(result, _):
        out, n_a = result
        got = np.array([out.amplitude(space.basis_state({a: k, b: n - k})) for k in range(n + 1)])
        worst = float(np.max(np.abs(got - expected)))
        fails = _norm_check(f"noon_mz_n{n}", out)
        fails += expect(all(s.total == n for s in out.support()), "photon number not conserved")
        fails += expect(worst <= AMPLITUDE_TOL, f"amplitude off the binomial expansion by {worst:.2e}")
        n_ref = float(np.sum(np.arange(n + 1) * np.abs(expected) ** 2))
        fails += expect(abs(n_a - n_ref) <= AMPLITUDE_TOL * n, f"<n_a> off by {abs(n_a - n_ref):.2e}")
        return fails

    return Op(f"noon_mz_n{n}", run, check)


def fock_mesh(rng: np.random.Generator, tiny: bool) -> Workload:
    mesh_sizes, noon_sizes = ((3, 4), (4, 6)) if tiny else ((4, 5, 6, 7), (10, 20, 40))
    ops = [_mesh_op(m, rng) for m in mesh_sizes] + [_noon_mz_op(n, rng) for n in noon_sizes]
    return Workload(ops, warmup=_noon_mz_op(noon_sizes[0], rng))


# ---------------------------------------------------------------------------
# protocol_sweep: many calls on states of at most four terms


def _fringe_op(name: str, proto: met.Protocol, points: np.ndarray, analytic: Callable[[float], float]) -> Op:
    obs = proto.observable

    def run(tr):
        values = []
        for x in points:
            with tr.span("metrology.state_s"):
                st = proto.state(float(x))
            with tr.span("fock.expectation_s"):
                values.append(expectation(st, obs))
            tr.count("fock.state_terms", st.num_terms)
        tr.count("metrology.state_calls", len(points))
        tr.count("fock.expectation_calls", len(points))
        return np.array(values)

    def check(values, _):
        dev = float(np.max(np.abs(values - np.array([analytic(float(x)) for x in points]))))
        return expect(dev <= FRINGE_TOL, f"fringe off by {dev:.2e}")

    return Op(name, run, check)


def _ramsey_op(omega: float, times: np.ndarray) -> Op:
    def run(tr):
        with tr.span("metrology.ramsey_s"):
            values = np.array([met.ramsey_fringe(omega, float(t)) for t in times])
        tr.count("metrology.state_calls", len(times))
        return values

    def check(values, _):
        dev = float(np.max(np.abs(values - np.cos(omega * times))))
        return expect(dev <= FRINGE_TOL, f"Ramsey fringe off cos(omega t) by {dev:.2e}")

    return Op("ramsey_fringe", run, check)


def _monte_carlo_op(n: int, trials: int, repetitions: int, rng: np.random.Generator) -> Op:
    proto = met.NoonPhaseProtocol(n)
    # N phi inside [1.0, 2.1] keeps the sample mean far from the arccos branch ends
    truth = float(rng.uniform(1.0, 2.1)) / n
    seed = int(rng.integers(2 ** 31))
    analytic = proto.analytic_uncertainty(truth, trials=trials)

    def run(tr):
        with tr.span("metrology.run_monte_carlo_s"):
            result = met.run_monte_carlo(proto, truth, trials, seed, repetitions=repetitions)
        tr.count("metrology.samples", trials * repetitions)
        tr.count("metrology.mc_results")
        tr.count("metrology.clamped", int(result.clamped))
        return result

    def check(result, _):
        # the estimate's spread is `analytic`, its mean's spread analytic/sqrt(reps)
        bias = abs(result.estimate - truth)
        spread = abs(result.uncertainty / analytic - 1.0)
        fails = expect(
            bias <= oracles.MC_SIGMAS * analytic / math.sqrt(repetitions),
            f"estimate {result.estimate:.6f} vs truth {truth:.6f}",
        )
        # the 5% allows for the curvature of arccos, which the analytic law ignores
        fails += expect(
            spread <= oracles.MC_SIGMAS / math.sqrt(2.0 * (repetitions - 1)) + 0.05,
            f"spread {result.uncertainty:.3e} vs analytic {analytic:.3e}",
        )
        return fails

    return Op(f"monte_carlo_n{n}", run, check)


def _scaling_op(family: str, grid: list[int], repetitions: int, expected: float, rng: np.random.Generator, **kw) -> Op:
    seed = int(rng.integers(2 ** 31))

    def run(tr):
        with tr.span("metrology.scaling_s"):
            fit = met.scaling_experiment(family, grid, repetitions, seed, **kw)
        shots = kw.get("shots_per_estimate")
        tr.count("metrology.samples", repetitions * (shots * len(grid) if shots else sum(grid)))
        return fit

    def check(fit, _):
        return oracles.check_slope(fit.slope, expected, grid, repetitions)

    return Op(f"scaling_{family}", run, check)


def protocol_sweep(rng: np.random.Generator, tiny: bool) -> Workload:
    if tiny:
        noon_ns, charges, n_phase, n_angle, n_ramsey = (1, 2, 3), (1,), 16, 16, 20
        mc_ns, trials, reps = (1, 2), 64, 50
        sql_grid, noon_grid, sql_reps, noon_reps = [16, 64, 256, 1024], [1, 2, 3, 4], 60, 60
    else:
        noon_ns, charges, n_phase, n_angle, n_ramsey = range(1, 9), (1, 2, 3), 256, 160, 600
        mc_ns, trials, reps = range(1, 6), 256, 1000
        sql_grid, noon_grid, sql_reps, noon_reps = [16, 64, 256, 1024, 4096], [1, 2, 3, 4, 5], 400, 500
    offset = float(rng.uniform(0.0, 2.0 * math.pi))
    phases = offset + np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
    angles = offset + np.linspace(0.0, 2.0 * math.pi, n_angle, endpoint=False)
    ops = [
        _fringe_op(f"noon_fringe_n{n}", met.NoonPhaseProtocol(n), phases, lambda x, n=n: math.cos(n * x))
        for n in noon_ns
    ]
    ops += [
        _fringe_op(f"angular_fringe_l{l}", met.AngularDisplacementProtocol(l), angles, lambda x, l=l: math.cos(2 * l * x) ** 2)
        for l in charges
    ]
    omega = float(rng.uniform(0.5, 2.0))
    ops.append(_ramsey_op(omega, np.sort(rng.uniform(0.05, 10.0, n_ramsey))))
    ops += [_monte_carlo_op(n, trials, reps, rng) for n in mc_ns]
    ops.append(_scaling_op("independent-photons", sql_grid, sql_reps, -0.5, rng))
    ops.append(_scaling_op("noon", noon_grid, noon_reps, -1.0, rng, shots_per_estimate=256))
    warmup = _fringe_op("warmup", met.NoonPhaseProtocol(2), phases[:8], lambda x: math.cos(2 * x))
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# field_kernels: numpy array kernels, no Fock work


def _projection_op(name: str, make_profile: Callable, w0: float, l_max: int, p_max: int, symmetry: int, same_as: str | None = None) -> Op:
    def run(tr):
        profile = make_profile(tr)
        with tr.span("oam_imaging.project_s"):
            spectrum = oam.project_object(profile, w0, l_max, p_max)
        tr.count("oam_imaging.coefficients", len(spectrum.coefficients))
        return profile, spectrum

    def check(result, prior):
        profile, spectrum = result
        power = profile.power()
        balance = abs(spectrum.total_power() + spectrum.residual - power)
        fails = expect(balance <= 1e-12 * power, f"captured + residual off the object power by {balance:.2e}")
        fails += expect(spectrum.residual >= -1e-6 * power, f"captured power exceeds the object by {-spectrum.residual:.2e}")
        order = oam.detect_rotational_symmetry(spectrum)
        fails += expect(order == symmetry, f"symmetry order {order}, expected {symmetry}")
        if same_as is not None:
            # a rigid rotation multiplies each a_lp by a phase only
            base = prior[same_as][1].coefficients
            worst = max(abs(abs(spectrum.coefficient(l, p)) - abs(a)) for (l, p), a in base.items())
            fails += expect(worst <= 1e-9 * math.sqrt(power), f"rotation changed |a_lp| by {worst:.2e}")
        return fails

    return Op(name, run, check)


def _correlated_op(profile: oam.ObjectProfile, w0: float, l_max: int, p_max: int, reference: str) -> Op:
    def run(tr):
        with tr.span("oam_imaging.correlated_phases_s"):
            return oam.correlated_phases(profile, w0, l_max, p_max)

    def check(result, prior):
        spectrum, flagged = result
        direct = prior[reference][1].coefficients
        floor = 1e-12 * profile.power()
        worst = max(abs(spectrum.coefficient(*key) - a) for key, a in direct.items() if key not in flagged)
        fails = expect(worst <= 1e-9 * math.sqrt(profile.power()), f"recovered phases off by {worst:.2e}")
        fails += expect(all(abs(direct[k]) ** 2 < floor for k in flagged), "flagged a channel above the floor")
        return fails

    return Op("correlated_phases_letter", run, check)


def _doppler_op(charges, rates, omega: float, duration: float, sample_rate: float) -> Op:
    def run(tr):
        out = []
        for l in charges:
            for rate in rates:
                with tr.span("oam_imaging.doppler_s"):
                    out.append((l, rate, oam.rotational_doppler_beat(l, rate, omega, duration, sample_rate)))
        return out

    def check(result, _):
        fails = []
        for l, rate, m in result:
            fails += expect(m.detected and abs(m.beat - 2 * l * rate) <= m.resolution, f"l={l} rate={rate}: beat {m.beat:.4f}")
        return fails

    return Op("doppler_beats", run, check)


def _dispersion_op(n_bins: int, omega0: float, sigma: float, taus: np.ndarray, beta, with_ratio: bool) -> Op:
    medium = disp.DispersionProfile(tuple(beta), 1.0)
    beta2_only = disp.DispersionProfile((0.0, 0.0, beta[2], 0.0), 1.0)
    points = taus.size * n_bins

    def run(tr):
        with tr.span("sources.prepare_s"):
            spectrum = BiphotonSpectrum.gaussian(omega0, sigma, n_bins=n_bins)
        tr.count("sources.states")
        with tr.span("dispersion.hom_s"):
            hom = disp.hom_interferogram(spectrum, taus, signal=medium)
        with tr.span("dispersion.extract_delay_s"):
            fit = disp.extract_delay(hom)
        with tr.span("dispersion.skc_s"):
            skc = disp.skc_interferogram(spectrum, medium, taus)
        with tr.span("dispersion.franson_s"):
            franson = disp.franson_interferogram(spectrum, medium, taus)
        tr.count("dispersion.kernel_points", 3 * points)
        ratio = None
        if with_ratio:
            with tr.span("dispersion.skc_s"):
                chirped = disp.skc_interferogram(spectrum, beta2_only, taus, include_fringes=False)
                empty = disp.skc_interferogram(spectrum, disp.VACUUM_PROFILE, taus, include_fringes=False)
            tr.count("dispersion.kernel_points", 2 * points)
            ratio = disp.envelope_rms_width(chirped) / disp.envelope_rms_width(empty)
        return hom, fit, skc, franson, ratio

    def check(result, _):
        hom, fit, skc, franson, ratio = result
        fails = []
        for gram in (hom, skc):
            dev = float(np.max(np.abs(gram.rates + gram.extras["bunched"] - 1.0)))
            fails += expect(dev <= 1e-12, f"{gram.configuration}: coincidence + bunched off 1 by {dev:.2e}")
        # the fit and the envelope centroid locate the same dip two independent ways
        centroid = disp.envelope_center(hom)
        fails += expect(abs(fit.delay - centroid) <= taus[1] - taus[0], f"fitted delay {fit.delay:.5f} vs centroid {centroid:.5f}")
        fails += expect(abs(float(franson.rates.max()) - 1.0) <= 1e-12, "Franson envelope not peak-normalized")
        if ratio is not None:
            fails += expect(abs(ratio - 1.0) <= 0.01, f"beta2-only width ratio {ratio:.5f}")
        return fails

    return Op(f"dispersion_{n_bins}bins", run, check)


def _baseline_op(sigma: float, beta2: float) -> Op:
    medium = disp.DispersionProfile((0.0, 0.0, beta2, 0.0), 1.0)

    def run(tr):
        with tr.span("dispersion.baseline_s"):
            return disp.classical_baseline(disp.PulseSpectrum.gaussian(sigma), medium)

    def check(widths, _):
        expected = oracles.classical_broadening(beta2, sigma)
        return expect(abs(widths.broadening / expected - 1.0) <= 0.01, f"broadening {widths.broadening:.4f} vs {expected:.4f}")

    return Op("classical_baseline", run, check)


def field_kernels(rng: np.random.Generator, tiny: bool) -> Workload:
    w0 = 1.0
    if tiny:
        grid, l_max, p_max = oam.PolarGrid(32, 64, 6.0 * w0), 4, 1
        charges, rates, bins, n_taus = (5,), (0.3, 0.8), (128, 256), 201
    else:
        grid, l_max, p_max = oam.PolarGrid(128, 256, 6.0 * w0), 20, 5
        charges, rates, bins, n_taus = (5, 10, 20, 40), (0.3, 0.5, 0.8), (512, 4096), 2001
    disk = oam.disk_object(grid, radius=float(rng.uniform(1.5, 2.5)) * w0)
    letter = oam.letter_mask_object(grid, w0)
    harmonic = oam.angular_harmonic_object(grid, 3, w0)
    # a whole number of angular steps: the letter is not band-limited, and
    # rotate_object rescales by the interpolation overshoot at other angles
    turn = int(rng.integers(1, grid.n_theta)) * grid.dtheta

    def rotated(tr):
        with tr.span("oam_imaging.rotate_s"):
            return oam.rotate_object(letter, turn)

    ops = [
        _projection_op("project_disk", lambda tr: disk, w0, l_max, p_max, symmetry=0),
        _projection_op("project_letter", lambda tr: letter, w0, l_max, p_max, symmetry=1),
        _projection_op("project_harmonic", lambda tr: harmonic, w0, l_max, p_max, symmetry=3),
        _projection_op("project_rotated_letter", rotated, w0, l_max, p_max, symmetry=1, same_as="project_letter"),
        _correlated_op(letter, w0, l_max, p_max, reference="project_letter"),
    ]
    omega = float(rng.uniform(500.0, 1500.0))
    ops.append(_doppler_op(charges, rates, omega, duration=200.0, sample_rate=100.0))
    taus = np.linspace(-12.0, 12.0, n_taus)
    omega0 = float(rng.uniform(2.0, 2.7))
    beta = (0.0, 3.0, 22.0, 4.0)
    ops += [_dispersion_op(b, omega0, 0.3, taus, beta, with_ratio=(b == bins[0])) for b in bins]
    ops.append(_baseline_op(0.3, beta[2]))
    return Workload(ops, warmup=_doppler_op((5,), (0.5,), omega, 200.0, 100.0), reference="array")


BUILDERS = {
    "fock_mesh": fock_mesh,
    "protocol_sweep": protocol_sweep,
    "field_kernels": field_kernels,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed), tiny)
