"""driftlab: simulation harness for prediction under drift with dependent data.

Generates drifting binary-label streams (independent or Markov-modulated),
runs windowed/subsampled ERM learners on them, accounts cumulative excess risk
exactly, and verifies the supporting facts (blocking, uniform deviation,
discrepancy bounds, mixing rates) by exact computation.
"""

__version__ = "0.1.0"
SCHEMA_VERSION = 1

from .distributions import (
    ConceptPath,
    DriftSchedule,
    FiniteSupport,
    Marginal,
    Observation,
    ThresholdConcept,
    concept_path,
    discrepancy,
    make_drift_schedule,
    tv_distance,
)
from .evaluation import (
    BlockingReport,
    DegenerateCurveError,
    RateFit,
    RegretCurve,
    UniformDeviationReport,
    default_checkpoints,
    fit_growth_exponent,
    geometric_checkpoints,
    run_experiment,
    run_single,
    theoretical_exponent,
    verify_blocking,
    verify_uniform_deviation,
)
from .hypotheses import (
    FiniteExplicitClass,
    FiniteHypothesis,
    FunctionClass,
    Hypothesis,
    ThresholdClass,
    ThresholdHypothesis,
    erm,
    inf_risk,
    initial_hypothesis,
    loss,
    risk,
    threshold_erm,
    threshold_erm_rows,
)
from .learners import (
    AdaptiveWindowLearner,
    BaselineLearner,
    ConstantWindowLearner,
    Learner,
    SubsampledErmLearner,
    best_window,
    constant_window_size,
    erm_step,
    subsample_schedule,
    subsample_times,
)
from .processes import (
    MarkovModulatedProcess,
    MixingRateReport,
    ProcessModel,
    ProductProcess,
    SamplePath,
    beta_coefficient,
    sample_path,
    symmetric_chain,
    verify_mixing_rate,
)
from .harness import (
    ConfigError,
    RunRecord,
    SweepRecord,
    build_learner,
    build_model,
    config_hash,
    refit_rates,
    resolve_config,
    run_config,
    run_sweep,
    run_verify,
)
