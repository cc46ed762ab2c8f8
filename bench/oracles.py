"""Independent references the benchmark checks photonlab's outputs against.

Nothing here imports photonlab: the permanent formula, the two-mode
binomial expansion and the slope tolerances are derived from first
principles, so a defect in the library cannot also shift its oracle.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from harness import expect

# the +/-0.05 band of acceptance criterion 03, stated there for one fixed seed
ACCEPTANCE_SLOPE_TOL = 0.05
# standard errors allowed before a Monte Carlo estimate counts as wrong
MC_SIGMAS = 5.0


def permanent(a: np.ndarray) -> complex:
    """Ryser's formula with Gray-code column updates, O(2^n n)."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev
        j = changed.bit_length() - 1
        if gray & changed:
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        prev = gray
        sign = -1 if bin(gray).count("1") % 2 else 1
        total += sign * np.prod(row_sums)
    return (-1) ** n * total


def linear_optics_amplitude(u: np.ndarray, s: list[int], t: list[int]) -> complex:
    """<T| U |S> = Perm(U_{T,S}) / sqrt(prod s! prod t!) (Scheel 2004).

    ``u[k, j]`` is the amplitude for a photon entering mode j to leave by
    mode k; rows of U are repeated t_k times and columns s_j times.
    """
    if sum(s) != sum(t):
        return 0j
    rows = [k for k, n in enumerate(t) for _ in range(n)]
    cols = [j for j, n in enumerate(s) for _ in range(n)]
    norm = math.sqrt(math.prod(math.factorial(n) for n in s) * math.prod(math.factorial(n) for n in t))
    return permanent(u[np.ix_(rows, cols)]) / norm


def beam_splitter_matrix(kappa: float) -> np.ndarray:
    """Mode map of a† -> cos k a† + i sin k b†, b† -> i sin k a† + cos k b†."""
    c, s = math.cos(kappa), math.sin(kappa)
    return np.array([[c, 1j * s], [1j * s, c]])


def phase_matrix(phi: float) -> np.ndarray:
    return np.diag([cmath.exp(1j * phi), 1.0])


def two_mode_amplitudes(u: np.ndarray, n: int) -> np.ndarray:
    """Amplitudes of |k, n-k>, k = 0..n, for the NOON input (|n,0> + |0,n>)/sqrt 2.

    |n,0> maps to (U00 a† + U10 b†)^n / sqrt(n!) |0>, so the coefficient
    of |k, n-k> is sqrt(C(n, k)) U00^k U10^(n-k); likewise for |0,n>.
    """
    k = np.arange(n + 1)
    root_binom = np.sqrt([math.comb(n, int(i)) for i in k])
    from_a = root_binom * u[0, 0] ** k * u[1, 0] ** (n - k)
    from_b = root_binom * u[0, 1] ** k * u[1, 1] ** (n - k)
    return (from_a + from_b) / math.sqrt(2.0)


def slope_tolerance(grid: list[int], repetitions: int) -> float:
    """Allowed |slope - expected| for a log-log fit of sample spreads.

    Each point's spread comes from ``repetitions`` estimates, so its log
    carries a standard error of about 1/sqrt(2 (repetitions - 1)); least
    squares over log(grid) turns that into the slope's standard error.
    The acceptance band holds for its own seed only, so the oracle for an
    arbitrary seed is the wider of that band and MC_SIGMAS standard errors.
    """
    x = np.log(np.asarray(grid, dtype=float))
    point_se = 1.0 / math.sqrt(2.0 * (repetitions - 1))
    slope_se = point_se / math.sqrt(float(np.sum((x - x.mean()) ** 2)))
    return max(ACCEPTANCE_SLOPE_TOL, MC_SIGMAS * slope_se)


def check_slope(slope: float, expected: float, grid: list[int], repetitions: int) -> list[str]:
    """Gate on slope_tolerance; a slope outside the acceptance band alone is noted."""
    tol = slope_tolerance(grid, repetitions)
    if abs(slope - expected) > ACCEPTANCE_SLOPE_TOL:
        print(f"note: slope {slope:+.4f} outside the fixed-seed band {expected} +/- "
              f"{ACCEPTANCE_SLOPE_TOL} (oracle band +/- {tol:.3f})", file=sys.stderr)
    return expect(abs(slope - expected) <= tol, f"slope {slope:+.4f} vs {expected} +/- {tol:.3f}")


def classical_broadening(beta2_l: float, sigma: float) -> float:
    """RMS width growth of a Gaussian pulse of amplitude std sigma."""
    return math.sqrt(1.0 + (beta2_l * sigma ** 2) ** 2)
