"""Finite-difference solver for the coupled incompressible Navier-Stokes/
Allen-Cahn system on a staggered (MAC) grid, together with diagnostics that
numerically certify its analytic structure: the energy inequality, the weak
maximum principle for the concentration, the relative entropy functional and
its inequality, and the Gronwall-type weak-strong stability bound."""

from .grid import (
    Grid,
    ScalarField,
    FaceVectorField,
    make_grid,
    gradient,
    divergence,
)
from .potential import DoubleWell
from .solver import FluidParams, State, StepReport, step

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ScalarField",
    "FaceVectorField",
    "make_grid",
    "gradient",
    "divergence",
    "DoubleWell",
    "FluidParams",
    "State",
    "StepReport",
    "step",
]
