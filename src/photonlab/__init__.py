"""Multimode Fock-space quantum optics simulator.

Subpackages cover the truncated Fock algebra (``fock``), unitary optical
elements (``elements``), source preparation (``sources``), estimation
protocols (``metrology``), Laguerre-Gauss imaging (``oam_imaging``),
biphoton dispersion interferometry (``dispersion``), and the experiment
runner (``cli``).

``fock`` and ``sources`` load with the package.  ``dispersion``,
``elements``, ``metrology`` and ``oam_imaging`` load on first access
(PEP 562), so a program loads only the ones it uses.
"""

import importlib

# fock loads numpy before anything else does; a CLI process whose own
# imports came first peaked about 1.5 MB higher
from . import fock, sources
from .fock import (
    BasisState,
    FockSpace,
    ModeKind,
    ModeLabel,
    Observable,
    StateVector,
    annihilate,
    create,
    expectation,
    freq_bin,
    level,
    number_expectation,
    oam,
    path,
    schmidt_rank,
    susskind_glogower,
    variance_and_uncertainty,
)
from .sources import (
    BiphotonSpectrum,
    SpdcOamSpectrum,
    coherent_state,
    frequency_entangled_pair,
    noon_state,
    single_photon,
    spdc_oam_pair,
)

__version__ = "0.1.0"

_LAZY = ("dispersion", "elements", "metrology", "oam_imaging")

__all__ = [
    "BasisState",
    "BiphotonSpectrum",
    "FockSpace",
    "ModeKind",
    "ModeLabel",
    "Observable",
    "SpdcOamSpectrum",
    "StateVector",
    "annihilate",
    "coherent_state",
    "create",
    "dispersion",
    "elements",
    "expectation",
    "fock",
    "freq_bin",
    "frequency_entangled_pair",
    "level",
    "metrology",
    "noon_state",
    "number_expectation",
    "oam",
    "oam_imaging",
    "path",
    "schmidt_rank",
    "single_photon",
    "sources",
    "spdc_oam_pair",
    "susskind_glogower",
    "variance_and_uncertainty",
]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
