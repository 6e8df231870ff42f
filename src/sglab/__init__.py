"""Pseudo-spectral simulation and verification lab for 2D semigeostrophic
(SG) and incompressible Euler dynamics on the unit torus.

Submodules
----------
spectral      periodic grid, FFT-based operators, norm kit
fieldio       binary field dumps and checkpoints
elliptic      Monge-Ampere-corrected Poisson solver, corrector solver,
              determinant algebra, bootstrap monitor
transport     RK4 time integration of Euler / SG / corrector systems
lagrangian    particle flow maps, flow gaps, pushforwards
wasserstein   torus W2 distances (Sinkhorn + exact LP oracle), Gronwall bound
inequalities  randomized checkers for every supporting functional estimate
config        run/experiment configuration parsing
experiments   experiment drivers (stability, wasserstein, corrector,
              lifespan, inequalities) and report emission
cli           command-line entry point
"""

from .spectral import (
    TorusGrid,
    ScalarField,
    NormKind,
    derivative,
    inv_laplacian,
    perp_gradient,
    norm,
    dealias,
)

__all__ = [
    "TorusGrid",
    "ScalarField",
    "NormKind",
    "derivative",
    "inv_laplacian",
    "perp_gradient",
    "norm",
    "dealias",
]

__version__ = "0.1.0"
