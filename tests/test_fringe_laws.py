"""Property test: each protocol's declared fringe law against the simulator.

A protocol declares its fringe by three numbers, mean(x) = offset +
amplitude cos(rate x) with spread amplitude |sin(rate x)|.  Here the law,
its spread and its derivative are checked against the observable
measured on the simulated probe state.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.fock import expectation, variance_and_uncertainty
from photonlab.metrology import (
    AngularDisplacementProtocol,
    NoonPhaseProtocol,
    SinglePhotonPhaseProtocol,
)

# central-difference step for the slope check
FD_STEP = 1e-6

PROTOCOLS = (
    [SinglePhotonPhaseProtocol()]
    + [NoonPhaseProtocol(n) for n in range(1, 7)]
    + [AngularDisplacementProtocol(l) for l in (1, 2, 3)]
)


def simulated_mean(proto, x):
    return expectation(proto.state(x), proto.observable)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(PROTOCOLS),
    st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi, allow_nan=False),
)
def test_declared_fringe_matches_simulation(proto, x):
    assert abs(proto.mean(x) - simulated_mean(proto, x)) < 1e-12
    # the variance, not its root: sqrt turns 1e-16 round-off near the
    # fringe extrema into 1e-8
    var, _ = variance_and_uncertainty(proto.state(x), proto.observable)
    assert abs(proto.spread(x) ** 2 - var) < 1e-12
    slope = (simulated_mean(proto, x + FD_STEP) - simulated_mean(proto, x - FD_STEP)) / (2 * FD_STEP)
    assert abs(proto.dmean(x) - slope) < 1e-6
