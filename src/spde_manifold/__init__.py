"""Tangency verification and coupled simulation for stochastic evolution
equations restricted to finite-dimensional solution families.

The package exports the library surface: loading a config, building its
model and chart, the tangency sweep and the coupled simulation, and the
errors a caller can catch.  Everything else is imported from its module.
"""

from .config import (
    ConfigError,
    build_manifold,
    build_model,
    build_sim_config,
    load_config,
    sweep_config,
)
from .manifold import DegenerateChartError, Parametrization, linear_span_chart, translation_chart
from .simulate import SimConfig, coupled_compare
from .tangency import FormDisagreementError, InvalidSamplingError, SamplingSpec, sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "load_config",
    "build_model",
    "build_manifold",
    "sweep_config",
    "build_sim_config",
    "sweep",
    "coupled_compare",
    "Parametrization",
    "translation_chart",
    "linear_span_chart",
    "SamplingSpec",
    "SimConfig",
    "ConfigError",
    "InvalidSamplingError",
    "FormDisagreementError",
    "DegenerateChartError",
]
