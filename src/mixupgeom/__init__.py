"""Numerical toolkit for the geometry of last-layer features under
mixup training: simplex-ETF classifiers, closed-form optimal features
of the unconstrained-features objective, 2-D simplex projections, a
desk-scale MLP trainer, and calibration metrics."""

__version__ = "0.1.0"

from .etf import (
    EtfMetrics,
    SimplexEtf,
    build_simplex_etf,
    etf_deviation_metrics,
)
from .mixup import (
    DIFFERENT_CLASS,
    SAME_CLASS,
    BetaSpec,
    MixupBatch,
    make_mixup_batch,
    mix,
    sample_lambdas,
)
from .theory import (
    DifferentClassSolution,
    FeatureRecord,
    SameClassSolution,
    TheoryParams,
    amplify,
    assemble_feature,
    epsilon_amplification,
    generate_configuration,
    solve_different_class,
    solve_same_class,
)
from .ufm import (
    ConvergenceError,
    MinimizeOptions,
    ObjectiveReport,
    UfmConfig,
    minimize_per_sample,
    per_sample_grad,
    per_sample_loss,
    softmax_probs,
    total_objective,
)

__all__ = [
    "BetaSpec",
    "ConvergenceError",
    "DIFFERENT_CLASS",
    "DifferentClassSolution",
    "EtfMetrics",
    "FeatureRecord",
    "MinimizeOptions",
    "MixupBatch",
    "ObjectiveReport",
    "SAME_CLASS",
    "SameClassSolution",
    "SimplexEtf",
    "TheoryParams",
    "UfmConfig",
    "amplify",
    "assemble_feature",
    "build_simplex_etf",
    "epsilon_amplification",
    "etf_deviation_metrics",
    "generate_configuration",
    "make_mixup_batch",
    "minimize_per_sample",
    "mix",
    "per_sample_grad",
    "per_sample_loss",
    "sample_lambdas",
    "softmax_probs",
    "solve_different_class",
    "solve_same_class",
    "total_objective",
]
