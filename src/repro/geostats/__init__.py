"""Geospatial statistics layer (ExaGeoStat-like application driver)."""

from . import dataplane
from .covariance import (
    CovarianceModel,
    Matern,
    SquaredExponential,
    get_model,
)
from .generator import Dataset, SyntheticField, build_tiled_covariance
from .likelihood import LikelihoodEval, log_likelihood
from .locations import cross_distances, generate_locations, morton_order, pairwise_distances
from .mle import MLEResult, default_tile_size, fit_mle
from .montecarlo import BoxStats, MonteCarloStudy, ReplicaEstimate, run_monte_carlo
from .optimizer import OptimizeResult, maximize_bounded, nelder_mead_bounded
from .prediction import KrigingResult, krige
from .profile import fit_mle_profile, profile_log_likelihood
from .trends import TrendModel, detrend, polynomial_design
from .variogram import (
    EmpiricalVariogram,
    empirical_variogram,
    fit_variogram,
    theoretical_variogram,
)

__all__ = [
    "BoxStats",
    "CovarianceModel",
    "Dataset",
    "EmpiricalVariogram",
    "KrigingResult",
    "LikelihoodEval",
    "Matern",
    "MLEResult",
    "MonteCarloStudy",
    "OptimizeResult",
    "ReplicaEstimate",
    "SquaredExponential",
    "SyntheticField",
    "build_tiled_covariance",
    "TrendModel",
    "cross_distances",
    "dataplane",
    "detrend",
    "default_tile_size",
    "empirical_variogram",
    "fit_mle",
    "fit_mle_profile",
    "fit_variogram",
    "generate_locations",
    "get_model",
    "krige",
    "log_likelihood",
    "maximize_bounded",
    "morton_order",
    "nelder_mead_bounded",
    "pairwise_distances",
    "polynomial_design",
    "profile_log_likelihood",
    "run_monte_carlo",
    "theoretical_variogram",
]
