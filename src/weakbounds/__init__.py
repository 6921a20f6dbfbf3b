"""Partial-identification bounds on classifier metrics from weak labels.

Given only weak-label signatures and a conditional label model P(Y | Z), the
exact value of a metric such as accuracy is not identified; this package
computes the sharp lower and upper bounds consistent with the observed
marginals, with normal-approximation confidence intervals, an exact
small-instance oracle, and diagnostics for label-model quality.
"""

from importlib import import_module

# the public names of each submodule; a name is imported on first access
# (PEP 562), so ``import weakbounds.cli`` loads only the modules a command runs
_EXPORTS = {
    "bounds": (
        "BoundEstimate",
        "ConfidenceInterval",
        "Side",
        "check_gamma",
        "estimate_bounds",
        "plugin_std",
    ),
    "diagnostics": (
        "MisspecReport",
        "SelectionResult",
        "SelectionStrategy",
        "conditional_entropy_y",
        "empirical_z_weights",
        "informativeness_bound",
        "label_model_score",
        "misspecification_report",
        "select_model",
        "tv_distance",
    ),
    "domain": (
        "ABSTAIN",
        "CellTable",
        "DatasetView",
        "GMatrix",
        "LabelModel",
        "LabelSpace",
        "cell_table",
        "cells_from_counts",
        "check_covers",
        "encode_signatures",
    ),
    "errors": (
        "CoverageError",
        "FormatError",
        "InsufficientSampleError",
        "NumericalError",
        "WeakBoundsError",
    ),
    "fileio": (
        "count_label_model",
        "dump_result_json",
        "read_dataset_csv",
        "read_label_model_json",
        "write_dataset_csv",
        "write_label_model_json",
        "write_sweep_csv",
    ),
    "metrics": (
        "MetricKind",
        "MetricSpec",
        "SweepRow",
        "SweepTable",
        "bound_rows",
        "build_g",
        "positive_margins",
        "threshold_sweep",
    ),
    "objective": (
        "check_epsilon",
        "default_epsilon",
        "gradient",
        "hessian",
        "minimized_value",
    ),
    "oracle": (
        "OracleResult",
        "TooLargeError",
        "exact_bounds",
    ),
    "solver": (
        "ColumnReport",
        "SolveReport",
        "minimize",
    ),
    "synth": (
        "CoverageReport",
        "SynthResult",
        "SynthSpec",
        "coverage_experiment",
        "generate_synthetic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    # looked up on every access and never cached here, so that a name always
    # is its defining module's attribute
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
