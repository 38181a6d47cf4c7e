"""Exploration-free budget allocation for multi-group mean estimation.

The package namespace holds the entry points a user script needs; every other
name lives in its submodule (allocation, arms, concentration, estimation,
harness, policies, selftest).
"""

from .allocation import VarianceProfile, objective_rp, optimal_allocation
from .arms import NoiseRegime, Regime, gaussian_arm
from .concentration import radius_gaussian, radius_gsg, radius_ssg
from .estimation import conditional_mse
from .harness import (
    ExperimentConfig,
    bound_value,
    run_experiment,
    slope_estimate,
    summarize,
)
from .policies import PolicyConfig, run_adaptive
from .selftest import run_selftest

__all__ = [
    # allocation
    "VarianceProfile",
    "objective_rp",
    "optimal_allocation",
    # arms
    "NoiseRegime",
    "Regime",
    "gaussian_arm",
    # concentration
    "radius_gaussian",
    "radius_gsg",
    "radius_ssg",
    # estimation
    "conditional_mse",
    # harness
    "ExperimentConfig",
    "bound_value",
    "run_experiment",
    "slope_estimate",
    "summarize",
    # policies
    "PolicyConfig",
    "run_adaptive",
    # selftest
    "run_selftest",
]

__version__ = "0.1.0"
