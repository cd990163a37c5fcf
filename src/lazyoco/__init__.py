"""Online convex optimization with long-term constraints and untrusted predictions.

The package splits into six layers: the box feasible set (`sets`), rounds
in closed form and the scenarios that emit them (`problems`), forecast
sources (`predictors`), the inner minimization (`solver`), the learners
themselves (`learners`), and offline evaluation (`analysis`).  `runner`
and `cli` wire them into reproducible experiments.
"""

from .analysis import (
    BENCHMARK_KINDS,
    BenchmarkResult,
    ComparatorFold,
    ExponentFit,
    compute_benchmark,
    fit_growth_exponent,
)
from .learners import VARIANTS, LearnerConfig, make_learner
from .predictors import (
    PREDICTOR_KINDS,
    PredictionBundle,
    make_predictor,
    zero_bundle,
)
from .problems import SCENARIO_KINDS, ProblemBounds, RoundOracle, make_scenario
from .runner import (
    RunConfig,
    RunResult,
    SweepConfig,
    bench,
    compare,
    execute_run,
    parse_run_config,
    parse_sweep_config,
    sweep,
    write_trace,
)
from .sets import Box, ConfigurationError, positive_part
from .solver import FtrlObjective, SolveResult, SolverSettings, dual_closed_form, minimize

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Box", "positive_part", "ConfigurationError",
    "ProblemBounds", "RoundOracle", "SCENARIO_KINDS", "make_scenario",
    "PredictionBundle", "PREDICTOR_KINDS", "make_predictor", "zero_bundle",
    "SolverSettings", "SolveResult", "FtrlObjective", "minimize", "dual_closed_form",
    "LearnerConfig", "VARIANTS", "make_learner",
    "BENCHMARK_KINDS", "BenchmarkResult", "ExponentFit",
    "ComparatorFold", "compute_benchmark", "fit_growth_exponent",
    "RunConfig", "SweepConfig", "RunResult", "parse_run_config", "parse_sweep_config",
    "execute_run", "write_trace", "sweep", "compare", "bench",
]
