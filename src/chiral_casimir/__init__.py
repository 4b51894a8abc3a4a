"""Casimir free energy and pressure across a polarization-rotating gap.

The gap between two ideal metal plates rotates the polarization plane by an
angle theta per traversal (Faraday medium: rotations add over the round trip;
optically active medium: they cancel).  The package evaluates the resulting
free energy per unit area and the pressure at arbitrary temperature through
rapidly converging reduced series, cross-checked by an independent
brute-force quadrature oracle.  The oracle's names load it, and numpy with
it, on first use.

Negative energy/pressure means attraction; theta = pi/2 reproduces the
repulsive perfect-conductor/infinitely-permeable pairing with the famous
-7/8 ratio.
"""

import importlib

from .engine import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    CavityConfig,
    EvalResult,
    ReducedPoint,
    SeriesControl,
    ZeroModePolicy,
    classical_limit_reduced,
    effective_theta,
    matsubara_term,
    physical_free_energy,
    physical_pressure,
    reduced_free_energy,
    reduced_free_energy_T0,
    reduced_pressure,
    reduced_pressure_T0,
    reduced_temperature,
)
from .kernel import MediumKind, log_det_kernel
from .special_functions import clausen_cos, clausen_sin, re_polylog_damped

__version__ = "0.1.0"

_ORACLE_NAMES = (
    "CompareReport",
    "QuadControl",
    "compare",
    "oracle_free_energy",
    "oracle_free_energy_T0",
    "oracle_matsubara_term",
    "oracle_pressure",
)


def __getattr__(name: str):
    # checked before importing anything: `from chiral_casimir import x` looks
    # up every submodule x here first, which must neither load the oracle
    # (and numpy) nor, through `from . import oracle`, recurse
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".oracle", __name__), name)


__all__ = [
    "C_LIGHT",
    "HBAR",
    "K_BOLTZMANN",
    "CavityConfig",
    "CompareReport",
    "EvalResult",
    "MediumKind",
    "QuadControl",
    "ReducedPoint",
    "SeriesControl",
    "ZeroModePolicy",
    "classical_limit_reduced",
    "clausen_cos",
    "clausen_sin",
    "compare",
    "effective_theta",
    "log_det_kernel",
    "matsubara_term",
    "oracle_free_energy",
    "oracle_free_energy_T0",
    "oracle_matsubara_term",
    "oracle_pressure",
    "physical_free_energy",
    "physical_pressure",
    "re_polylog_damped",
    "reduced_free_energy",
    "reduced_free_energy_T0",
    "reduced_pressure",
    "reduced_pressure_T0",
    "reduced_temperature",
]
