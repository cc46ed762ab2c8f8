"""Parameter domains, declared once: ``DOMAINS`` holds one entry per CLI
parameter, and ``n_photons`` for the library alone.  A library argument
that a CLI parameter reaches under another name (``PolarGrid.n_r`` for
``n_radial``, the Ramsey time ``t`` for ``t_probe``) is keyed to the same
``Domain``, so the CLI's ``Param`` and the library's ``require`` read one
declaration.  Standard library only.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Domain:
    """Where a parameter is defined: ``text`` names it in messages and the
    catalog, ``test`` checks the value (each entry, for a list), and a
    list's length lies in ``length``.  A number must also be finite."""

    text: str = ""
    test: Callable[[object], bool] = lambda v: True
    length: tuple[int, int | None] = (1, None)

    def admits(self, value) -> bool:
        many = isinstance(value, (list, tuple))
        lo, hi = self.length
        if many and not lo <= len(value) <= (hi or len(value)):
            return False
        return all(_finite(v) and self.test(v) for v in (value if many else [value]))

    def describe(self, like) -> str:
        """In words, for values like ``like``: finite for a float, and for a list its length."""
        many = isinstance(like, (list, tuple))
        floats = any(isinstance(v, float) or not _finite(v) for v in (like if many else [like]))
        words = ", ".join(filter(None, ["finite" if floats else "", self.text]))
        if many:
            lo, hi = self.length
            return f"{'' if lo == hi else '>= '}{lo} entries" + (f", each {words}" if words else "")
        return words or "any"


def _finite(value) -> bool:
    """False for a NaN or an infinity, as a float, a numpy scalar or a 0-d
    array; an integer, however large, and a value that is no number pass."""
    try:
        return isinstance(value, numbers.Integral) or math.isfinite(value)
    except TypeError:
        return True


def _at_least(lo, **kw) -> Domain:
    return Domain(f">= {lo}", lambda v: v >= lo, **kw)


def one_of(choices) -> Domain:
    return Domain(f"one of {', '.join(choices)}", choices.__contains__)


_ANY, _NONZERO, _POSITIVE = Domain(), Domain("!= 0", lambda v: v != 0), Domain("> 0.0", lambda v: v > 0.0)
_COUNT, _SIZE, _N_RADIAL, _N_ANGULAR = _at_least(1), _at_least(0), _at_least(2), _at_least(4)
_GRID = _at_least(1, length=(4, None))  # the log-log fit needs four grid points
MODE_ORDER = Domain("<= 170", lambda v: v <= 170)  # the LG normalization holds (p + |l|)!; 171! overflows

DOMAINS: dict[str, Domain] = {
    # scaling; a sample spread needs two repetitions
    "trial_grid": _GRID, "photon_grid": _GRID, "repetitions": _at_least(2), "shots_per_estimate": _COUNT,
    "working_point": Domain("in (0, pi)", lambda v: 0.0 < v < math.pi),
    # angular and doppler; the library's charge is l
    "l": _NONZERO, "l_values": _NONZERO, "theta_points": _at_least(2),
    "rotation_rates": _ANY, "omega": _ANY, "duration": _POSITIVE, "sample_rate": _POSITIVE,
    # spiral; PolarGrid's sizes are n_r and n_theta, LGModeSpec's orders p and p + |l|
    "q": _ANY, "radius": _at_least(0.0), "w0": _POSITIVE, "wavelength": _POSITIVE,
    "rotation": _ANY, "l_max": _SIZE, "p_max": _SIZE, "p": _SIZE,
    "l_max + p_max": MODE_ORDER, "p + |l|": MODE_ORDER,
    "n_radial": _N_RADIAL, "n_r": _N_RADIAL, "n_angular": _N_ANGULAR, "n_theta": _N_ANGULAR,
    # dispersion; n_bins is even, so the detuning grid is symmetric about zero
    "sigma": _POSITIVE, "omega0": _ANY, "beta": Domain(length=(4, 4)),
    "length": _at_least(0.0), "tau_span": _POSITIVE, "tau_points": _at_least(2),
    "n_bins": Domain("even, >= 2", lambda v: v >= 2 and v % 2 == 0),
    # ramsey; the library's time is t
    "t_min": _POSITIVE, "t_max": _POSITIVE, "t_probe": _POSITIVE, "t": _POSITIVE,
    "t_points": _COUNT, "atoms": _COUNT, "trials": _COUNT, "method": one_of(("analytic", "monte-carlo")),
    # library only: the photon number N of a NOON state or an N-photon probe
    "n_photons": _COUNT,
}


def require(name: str, value) -> None:
    """Raise a ValueError naming the parameter, its value and its domain
    unless ``DOMAINS[name]`` admits ``value``; a finite float or an int that
    passes the test is admitted without ``admits``, the hot path."""
    domain = DOMAINS[name]
    if (type(value) is int or type(value) is float and math.isfinite(value)) and domain.test(value):
        return
    if not domain.admits(value):
        raise ValueError(f"{name} = {value!r} is outside its domain: {domain.describe(value)}")
