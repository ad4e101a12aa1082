"""probleak: audit Bayesian predictive models for probability leakage.

Probability leakage is the mass a predictive distribution assigns to values
that declared evidence says cannot happen, such as a regression model for a
percentage giving 10% probability to negative outcomes. The package fits
flat-prior normal linear regressions (whose predictive is Student t), scores
their leakage against evidence declarations, applies strict falsification
semantics, and shows what leakage does to forecast calibration and scoring.

The package logs under the ``probleak`` logger, which carries a
``NullHandler``: nothing is printed unless the application configures
logging.
"""

import logging

from .calibration import (
    CalibrationReport,
    ForecastCase,
    GridDensity,
    ProbabilityCalibration,
    calibration_report,
    crps,
    exceedance_calibration,
    kl_distance,
    ks_uniform,
    marginal_calibration,
    pit,
    probability_calibration,
)
from .exceptions import DataError, ModelError, ProbleakError
from .falsification import (
    FalsificationVerdict,
    Observation,
    is_falsified,
    never_falsifiable,
)
from .leakage import (
    Evidence,
    LeakageProfile,
    LeakageReport,
    MCLeakage,
    leakage,
    leakage_profile,
    mc_leakage,
    parse_support,
)
from .predictive import (
    Empirical,
    Mixture,
    Normal,
    Poisson,
    PredictiveDistribution,
    StudentT,
    TruncatedNormal,
)
from .regression import (
    ColumnCoding,
    Dataset,
    FitResult,
    ModelSpec,
    build_design,
    fit,
    fit_model,
    load_dataset,
    load_dataset_text,
    predictive_at,
    predictive_rows,
)
from .simulation import (
    DEFAULT_CONTROL_CONFIG,
    DEFAULT_TRUNCATED_CONFIG,
    CallCenterConfig,
    ImpossibilityReport,
    SimConfig,
    gen_callcenter_like,
    gen_truncated_regression,
    impossibility_experiment,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # exceptions
    "ProbleakError",
    "DataError",
    "ModelError",
    # predictive distributions
    "PredictiveDistribution",
    "Normal",
    "StudentT",
    "TruncatedNormal",
    "Poisson",
    "Mixture",
    "Empirical",
    # regression
    "Dataset",
    "ModelSpec",
    "ColumnCoding",
    "FitResult",
    "load_dataset",
    "load_dataset_text",
    "build_design",
    "fit",
    "fit_model",
    "predictive_at",
    "predictive_rows",
    # evidence and leakage
    "Evidence",
    "LeakageProfile",
    "LeakageReport",
    "MCLeakage",
    "leakage",
    "leakage_profile",
    "mc_leakage",
    "parse_support",
    # falsification
    "Observation",
    "FalsificationVerdict",
    "is_falsified",
    "never_falsifiable",
    # calibration and scoring
    "ForecastCase",
    "CalibrationReport",
    "ProbabilityCalibration",
    "GridDensity",
    "pit",
    "probability_calibration",
    "exceedance_calibration",
    "marginal_calibration",
    "calibration_report",
    "crps",
    "kl_distance",
    "ks_uniform",
    # simulation
    "SimConfig",
    "CallCenterConfig",
    "ImpossibilityReport",
    "gen_truncated_regression",
    "gen_callcenter_like",
    "impossibility_experiment",
    "DEFAULT_TRUNCATED_CONFIG",
    "DEFAULT_CONTROL_CONFIG",
]
