"""Verification of probabilistic weather forecasts with event weighting.

The package covers proper scoring rules and their threshold-, outcome-
and vertically re-scaled weighted variants (univariate and multivariate),
conditional calibration diagnostics, regression-based post-processing
with ensemble copula coupling, archive scoring, and seeded synthetic
experiments.  The command line lives in ``wverif.cli``.
"""

__version__ = "0.1.0"

from .archive import (
    Archive,
    ArchiveRecord,
    MultivariateCase,
    RejectedRow,
    ScoredCase,
    SkillRow,
    group_multivariate,
    read_archive,
    read_archive_csv,
    read_archive_jsonl,
    score_archive,
    skill_score,
    skill_table,
    write_archive_csv,
    write_archive_jsonl,
)
from .calibration import (
    HistogramSummary,
    ReliabilityFit,
    corp_reliability,
    cpit,
    histogram_summary,
    pit,
    pit_ecdf,
    prerank_cpit,
    rank,
    rank_histogram,
    reliability_index,
)
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
from .forecasts import (
    Ensemble,
    Forecast,
    IndependentProduct,
    Logistic,
    Normal,
    Parametric,
    StudentT,
)
from .mvscores import (
    MvEnsemble,
    VariogramSpec,
    energy_score,
    ow_energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
    vr_energy_score,
    vr_variogram_score,
)
from .postprocess import (
    EmosParams,
    StationMeta,
    TrainingWindow,
    ecc_reorder,
    fit_climatology,
    fit_emos,
    lapse_rate_correct,
    predict_emos,
    smooth_ensemble,
)
from .synthlab import (
    ExperimentSpec,
    run_experiment,
    run_ideal_forecaster,
    run_impropriety_demo,
    run_propriety_mc,
    run_score_curves,
    run_tail_forecasters,
)
from .uniscores import (
    ScoreValue,
    brier,
    crps,
    crps_ensemble,
    crps_normal,
    crps_numeric,
    normal_crps_values,
    owcrps,
    owcrps_bs,
    twcrps,
    twcrps_decomposition_check,
    vrcrps,
    weighted_cdf,
)
from .weights import (
    MASS_FLOOR,
    BoxIndicator,
    CensorAbove,
    CensorBelow,
    ChainingFunction,
    CollapseOutside,
    Constant,
    GaussCdf,
    GaussCdfChain,
    GaussCdfComplementChain,
    GaussPdf,
    GaussPdfChain,
    GaussPdfRatioComplementChain,
    HeatLevelIndicator,
    Identity,
    IndicatorAbove,
    IndicatorBelow,
    MvGaussCdf,
    MvGaussPdf,
    OneMinusGaussCdf,
    OneMinusGaussPdfRatio,
    OneMinusMvGaussCdf,
    OneMinusMvGaussPdfRatio,
    WeightFunction,
    canonical_chaining,
    classify_heat_level,
    heat_levels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
