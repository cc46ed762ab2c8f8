"""Property test: interferometer amplitudes against the permanent formula.

For a linear-optics network with mode matrix U (a_j^dag -> sum_i U_ij
a_i^dag), the amplitude from input occupations s to output occupations
t is Perm(U_T,S) / sqrt(prod s! prod t!), where U_T,S repeats row i
t_i times and column j s_j times (Scheel, quant-ph/0406127).
"""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.elements import beam_splitter, build_interferometer, phase_shift
from photonlab.fock import FockSpace, ModeMapPlan, basis_vector, path


def ryser_permanent(a: np.ndarray) -> complex:
    """Perm(A) = (-1)^n sum_{S} (-1)^|S| prod_i sum_{j in S} a_ij."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    total = 0j
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** size * np.prod(a[:, cols].sum(axis=1))
    return (-1) ** n * total


def permanent_amplitude(u: np.ndarray, s, t) -> complex:
    rows = [i for i, k in enumerate(t) for _ in range(k)]
    cols = [j for j, k in enumerate(s) for _ in range(k)]
    norm = math.prod(math.factorial(k) for k in (*s, *t))
    return ryser_permanent(u[np.ix_(rows, cols)]) / math.sqrt(norm)


def occupations(m: int, n: int):
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in occupations(m - 1, n - first):
            yield (first,) + rest


@st.composite
def meshes(draw):
    """A brick-wall mesh of phases and splitters, its matrix, and an input."""
    m = draw(st.integers(2, 5))
    depth = draw(st.integers(1, m))
    angle = st.floats(0.0, 2 * math.pi, allow_nan=False)
    specs = []
    u = np.eye(m, dtype=complex)
    for layer in range(depth):
        for i in range(layer % 2, m - 1, 2):
            phi, kappa = draw(angle), draw(angle)
            specs += [phase_shift(path(i), phi), beam_splitter(path(i), path(i + 1), kappa)]
            step = np.eye(m, dtype=complex)
            c, s = math.cos(kappa), math.sin(kappa)
            step[i:i + 2, i:i + 2] = np.array([[c, 1j * s], [1j * s, c]]) @ np.diag([np.exp(1j * phi), 1.0])
            u = step @ u
    photons = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
    s = tuple(photons.count(i) for i in range(m))
    return m, specs, u, s


@settings(max_examples=60, deadline=None)
@given(meshes())
def test_mesh_amplitudes_match_the_permanent(mesh):
    m, specs, u, s = mesh
    modes = [path(i) for i in range(m)]
    n = sum(s)
    sp = FockSpace(modes, n_max=n)
    out = build_interferometer(specs).apply(basis_vector(sp, dict(zip(modes, s))))
    for t in occupations(m, n):
        got = out.amplitude(sp.basis_state(dict(zip(modes, t))))
        assert abs(got - permanent_amplitude(u, s, t)) <= 1e-12


@st.composite
def sparse_maps(draw):
    """Any complex matrix, with zeros, so some columns have a single entry
    and some photons land on rows already holding others."""
    m = draw(st.integers(2, 4))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    u = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if draw(st.booleans()):
                u[i, j] = complex(draw(part), draw(part))
    photons = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
    return u, tuple(photons.count(i) for i in range(m))


@settings(max_examples=60, deadline=None)
@given(sparse_maps())
def test_any_mode_map_matches_the_permanent(case):
    u, s = case
    m, n = len(s), sum(s)
    modes = [path(i) for i in range(m)]
    sp = FockSpace(modes, n_max=n)
    columns = {j: {i: complex(u[i, j]) for i in range(m)} for j in range(m)}
    out = ModeMapPlan(columns).apply(basis_vector(sp, dict(zip(modes, s))))
    for t in occupations(m, n):
        got = out.amplitude(sp.basis_state(dict(zip(modes, t))))
        assert abs(got - permanent_amplitude(u, s, t)) <= 1e-12
