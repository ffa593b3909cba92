"""Verification of probabilistic weather forecasts with event weighting.

The package covers proper scoring rules and their threshold-, outcome-
and vertically re-scaled weighted variants (univariate and multivariate),
conditional calibration diagnostics, regression-based post-processing
with ensemble copula coupling, archive scoring, and seeded synthetic
experiments.  The command line lives in ``wverif.cli``.  The top level
holds the common scores, forecasts and weights and the exceptions;
everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .archive import skill_score, write_archive_csv
from .calibration import reliability_index
from .exceptions import (
    ContractViolation,
    DataError,
    DegenerateConditional,
    DimensionMismatch,
    InsufficientData,
    NumericalError,
    UnsupportedInput,
    VerifError,
    WeightedMassZero,
)
from .forecasts import Ensemble, Normal
from .mvscores import (
    MvEnsemble,
    VariogramSpec,
    energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
)
from .postprocess import StationMeta, ecc_reorder, fit_emos, predict_emos
from .uniscores import (
    crps,
    crps_ensemble,
    crps_normal,
    crps_numeric,
    owcrps,
    twcrps,
    twcrps_decomposition_check,
    vrcrps,
)
from .weights import (
    CensorAbove,
    HeatLevelIndicator,
    Identity,
    IndicatorAbove,
    classify_heat_level,
)

__all__ = [
    "CensorAbove",
    "ContractViolation",
    "DataError",
    "DegenerateConditional",
    "DimensionMismatch",
    "Ensemble",
    "HeatLevelIndicator",
    "Identity",
    "IndicatorAbove",
    "InsufficientData",
    "MvEnsemble",
    "Normal",
    "NumericalError",
    "StationMeta",
    "UnsupportedInput",
    "VariogramSpec",
    "VerifError",
    "WeightedMassZero",
    "classify_heat_level",
    "crps",
    "crps_ensemble",
    "crps_normal",
    "crps_numeric",
    "ecc_reorder",
    "energy_score",
    "fit_emos",
    "owcrps",
    "predict_emos",
    "reliability_index",
    "skill_score",
    "tw_energy_score",
    "tw_variogram_score",
    "twcrps",
    "twcrps_decomposition_check",
    "variogram_score",
    "vrcrps",
    "write_archive_csv",
]
