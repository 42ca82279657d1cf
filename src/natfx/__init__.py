"""Decompositions of total causal effects with natural counterfactual interaction effects.

The workhorse names from each module are re-exported here; the modules
themselves carry the full surface (error types, catalog builders, report
helpers).
"""
from __future__ import annotations

from natfx.cfexpr import (
    CfExpr,
    Counterfactual,
    Fixed,
    IdentifiabilityVerdict,
    Scenario,
    check_identifiability,
    format_cf,
    parse_cf,
    validate_cf,
)
from natfx.decomp import (
    ComponentValue,
    DecompositionResult,
    Query,
    components_for,
    decompose,
    evaluate_decomposition,
)
from natfx.estimate import (
    AssumptionLedger,
    CovariateProfile,
    LinearFit,
    LinearParams,
    fit_linear_system,
    fit_ols,
    linear_components,
    plugin_seq2,
)
from natfx.infer import BootstrapConfig, LinearEstimator, PluginEstimator, bootstrap
from natfx.scm import (
    Dataset,
    DiscreteScm,
    eval_expectation,
    from_dataset,
    load_model,
    save_model,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionLedger",
    "BootstrapConfig",
    "CfExpr",
    "ComponentValue",
    "CovariateProfile",
    "Counterfactual",
    "Dataset",
    "DecompositionResult",
    "DiscreteScm",
    "Fixed",
    "IdentifiabilityVerdict",
    "LinearEstimator",
    "LinearFit",
    "LinearParams",
    "PluginEstimator",
    "Query",
    "Scenario",
    "bootstrap",
    "check_identifiability",
    "components_for",
    "decompose",
    "eval_expectation",
    "evaluate_decomposition",
    "fit_linear_system",
    "fit_ols",
    "format_cf",
    "from_dataset",
    "linear_components",
    "load_model",
    "parse_cf",
    "plugin_seq2",
    "save_model",
    "simulate",
    "validate_cf",
]
