"""Desk-scale numerical laboratory for the classical Dirac particle.

The package builds Dirac spinors from eight hydrodynamic parameters,
evaluates their bilinear covariants both by matrix algebra and by closed
forms, splits the covariant Lagrangian into classical and quantum pieces,
solves the classical particle's helix worldline, and integrates the
relativistic rotator that reproduces the same observables.  Every closed
form ships with an independent numeric oracle; the ``verification`` module
and the ``dirac-disquant`` CLI run the full check suites.
"""

from .algebra import (
    Bilinears,
    GammaBasis,
    SpinorParams,
    bilinears_closed_form,
    bilinears_matrix,
    build_gamma_basis,
    spinor_from_params,
    xi_from_bilinears,
)
from .particle import (
    DcParams,
    HelixSolution,
    WorldlineState,
    helix_solution,
    momentum,
    observables,
    relativize,
)
from .rotator import (
    RotatorClosedForm,
    RotatorParams,
    dcr_to_rr,
    integrate_rotator,
    mass_increase,
    rigidity,
    rr_to_dcr,
)

__version__ = "0.1.0"

__all__ = [
    "Bilinears",
    "GammaBasis",
    "SpinorParams",
    "bilinears_closed_form",
    "bilinears_matrix",
    "build_gamma_basis",
    "spinor_from_params",
    "xi_from_bilinears",
    "DcParams",
    "HelixSolution",
    "WorldlineState",
    "helix_solution",
    "momentum",
    "observables",
    "relativize",
    "RotatorClosedForm",
    "RotatorParams",
    "dcr_to_rr",
    "integrate_rotator",
    "mass_increase",
    "rigidity",
    "rr_to_dcr",
]
