"""Guaranteed polytopic underapproximations of stochastic reach sets for
linear time-varying Gaussian systems, with open-loop controller synthesis
and cross-threshold interpolation."""

from .geometry import (DirectionSet, HPolytope, VPolytope, box_polytope,
                       minkowski_interpolate, spread_directions)
from .sysmodel import GaussianDisturbance, StochasticLTVSystem, TargetTube
from .gaussian import (PwaQuantile, build_pwa_quantile, normal_cdf,
                       normal_quantile)
from .chance import AnchorResult, BoundaryPoint, RiskLP
from .lpsolve import LinearProgram, LpSolution, solve_lp

__version__ = "0.1.0"

__all__ = [
    "DirectionSet", "HPolytope", "VPolytope", "box_polytope",
    "minkowski_interpolate", "spread_directions",
    "GaussianDisturbance", "StochasticLTVSystem", "TargetTube",
    "PwaQuantile", "build_pwa_quantile", "normal_cdf", "normal_quantile",
    "AnchorResult", "BoundaryPoint", "RiskLP",
    "LinearProgram", "LpSolution", "solve_lp",
    "__version__",
]
