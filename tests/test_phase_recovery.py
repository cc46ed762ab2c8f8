"""correlated_phases against its per-channel loop, the reference form."""

import cmath
import math

import numpy as np
import pytest

from photonlab.oam_imaging import (
    PolarGrid,
    angular_harmonic_object,
    correlated_phases,
    disk_object,
    letter_mask_object,
    project_object,
)

W0 = 1.0


def loop_phases(profile, l_max, p_max):
    """One channel at a time: four interference intensities, the phase
    from their differences and the magnitude from the direct intensity."""
    direct = project_object(profile, W0, l_max, p_max)
    total = max(profile.power(), 1e-300)
    offsets = [cmath.exp(1j * d) for d in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    recovered, flagged = {}, []
    for key, a in direct.coefficients.items():
        intensities = [abs(a + offset) ** 2 for offset in offsets]
        direct_intensity = abs(a) ** 2
        if direct_intensity < 1e-12 * total:
            recovered[key] = 0j
            flagged.append(key)
            continue
        phase = cmath.phase(complex((intensities[0] - intensities[2]) / 4.0, (intensities[1] - intensities[3]) / 4.0))
        recovered[key] = math.sqrt(direct_intensity) * cmath.exp(1j * phase)
    return recovered, tuple(sorted(flagged))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda grid: letter_mask_object(grid, W0), id="letter"),
        pytest.param(lambda grid: disk_object(grid, 2.0), id="disk-flags-odd-charges"),
        pytest.param(lambda grid: angular_harmonic_object(grid, 3, W0), id="harmonic"),
    ],
)
def test_array_recovery_matches_the_channel_loop(make):
    profile = make(PolarGrid(64, 128, 6.0 * W0))
    spectrum, flagged = correlated_phases(profile, W0, 8, 2)
    reference, reference_flagged = loop_phases(profile, 8, 2)
    assert flagged == reference_flagged
    assert all(spectrum.coefficients[key] == 0j for key in flagged)
    assert list(spectrum.coefficients) == list(reference)
    assert all(type(a) is complex for a in spectrum.coefficients.values())
    # the array forms sum and take the phase in another order: a few ulp
    # of the largest coefficient
    scale = max(abs(a) for a in reference.values())
    worst = max(abs(spectrum.coefficients[key] - a) for key, a in reference.items())
    assert worst <= 8 * np.finfo(float).eps * scale
