"""Solution-manifold navigation for piecewise-constant quantum control."""

from .control import ControlField, FrequencySpec
from .landscape import (FdConfig, HessianSpectrum, classify_null, eig_sym, eigvec_error,
                        fd_hessian, pointwise_stencil, rank2_ritz)
from .models import LzProblem, QhoProblem
from .navigation import (FixedVector, NullFollow, SecondaryGradient, Trajectory,
                         calibrate_epsilon, navigate, null_direction, project)
from .objectives import FourierObjective, compress
from .optimizer import OptimizationReport, SeedSpec, minimize, sample_seeds

__all__ = [
    "ControlField", "FrequencySpec",
    "FdConfig", "HessianSpectrum", "calibrate_epsilon", "classify_null",
    "eig_sym", "eigvec_error", "fd_hessian", "pointwise_stencil", "rank2_ritz",
    "LzProblem", "QhoProblem",
    "FixedVector", "NullFollow", "SecondaryGradient", "Trajectory",
    "navigate", "null_direction", "project",
    "FourierObjective", "compress",
    "OptimizationReport", "SeedSpec", "minimize", "sample_seeds",
]

__version__ = "0.1.0"
