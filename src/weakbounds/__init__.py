"""Partial-identification bounds on classifier metrics from weak labels.

Given only weak-label signatures and a conditional label model P(Y | Z), the
exact value of a metric such as accuracy is not identified; this package
computes the sharp lower and upper bounds consistent with the observed
marginals, with normal-approximation confidence intervals, an exact
small-instance oracle, and diagnostics for label-model quality.
"""

from .bounds import (
    BoundEstimate,
    ConfidenceInterval,
    check_gamma,
    ci_half_width,
    confidence_interval,
    estimate_bounds,
    estimate_class_prior,
    plugin_std,
)
from .diagnostics import (
    MisspecReport,
    SelectionResult,
    SelectionStrategy,
    conditional_entropy_y,
    empirical_z_weights,
    informativeness_bound,
    label_model_score,
    misspecification_report,
    select_model,
    tv_distance,
)
from .domain import (
    ABSTAIN,
    CellTable,
    DatasetView,
    GMatrix,
    LabelModel,
    LabelSpace,
    SignatureTable,
    cell_table,
    center_columns,
    check_covers,
    encode_signatures,
)
from .errors import (
    CoverageError,
    FormatError,
    InsufficientSampleError,
    NumericalError,
    WeakBoundsError,
)
from .fileio import (
    count_label_model,
    dump_result_json,
    read_dataset_csv,
    read_label_model_json,
    write_dataset_csv,
    write_label_model_json,
    write_sweep_csv,
)
from .metrics import (
    MetricInterval,
    MetricKind,
    MetricSpec,
    PRFBounds,
    SweepRow,
    SweepTable,
    bound_rows,
    build_g,
    estimate_h1,
    prf_from_joint,
    threshold_sweep,
)
from .objective import (
    Side,
    check_epsilon,
    default_epsilon,
    eval_objective,
    gradient,
    hessian,
    minimized_value,
    per_cell_objective,
)
from .oracle import (
    OracleResult,
    TooLargeError,
    TransportInstance,
    exact_bounds,
    transport_binary,
    transport_general,
)
from .solver import SolveReport, minimize
from .synth import (
    CoverageReport,
    SynthResult,
    SynthSpec,
    coverage_experiment,
    exact_posterior_y1,
    generate_synthetic,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
