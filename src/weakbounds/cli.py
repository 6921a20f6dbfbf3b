"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical failure.
Only synth and coverage draw random numbers, all behind a single --seed flag, so
re-running any command with identical inputs reproduces its output files byte
for byte.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

from .bounds import check_gamma, estimate_bounds
from .domain import LabelSpace, cell_table
from .errors import FormatError, NumericalError, WeakBoundsError
from .fileio import (
    SIG_DIGITS,
    dump_result_json,
    read_candidates,
    read_dataset_csv,
    read_label_model_json,
    read_loss_table,
    result_json,
    write_dataset_csv,
    write_label_model_json,
    write_sweep_csv,
)
from .metrics import (
    PRF_KINDS,
    PRIOR_Y1_KINDS,
    SWEEP_KINDS,
    MetricKind,
    MetricSpec,
    bound_rows,
    build_g,
    positive_margins,
    threshold_sweep,
)
from .objective import check_epsilon

# A command imports what it runs of the oracle, synth and diagnostics modules
# when it runs, so no process compiles or loads the others. Those names are
# imported inside each command and never cached in this module, so a tracer that
# patches module attributes sees every call.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: ``sweep --threshold`` would silently replace --thresholds
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the --metric of estimate, oracle and diagnose; select also takes PRF_KINDS
METRIC_NAMES = tuple(kind.value for kind in MetricKind)


def _metric(choices):
    """An argparse type: the name in ``choices`` of a --metric, with - read as _."""

    def parse(text: str) -> str:
        name = text.replace("-", "_")
        if name not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown metric {text!r}; choose from {', '.join(choices)}"
            )
        return name

    return parse


def _sweep_kinds(text: str) -> list[str]:
    """The comma-separated --metric of a sweep, as names in ``SWEEP_KINDS``."""
    kinds = [_metric(SWEEP_KINDS)(k.strip()) for k in text.split(",") if k.strip()]
    if not kinds:
        raise argparse.ArgumentTypeError(f"no metric named; choose from {', '.join(SWEEP_KINDS)}")
    return kinds


def _finite(text: str) -> float:
    """A --threshold value: nan or inf would classify every sample alike."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"threshold must be finite, got {text!r}")
    return value


def _thresholds(text: str) -> list[float]:
    """The comma-separated --thresholds of a sweep."""
    thresholds = [_finite(t) for t in text.split(",") if t]
    if not thresholds:
        raise argparse.ArgumentTypeError("no threshold named")
    return thresholds


def _prior(text: str) -> float:
    """A --prior-y1 value of estimate or sweep: recall and F1 divide by it."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"prior must lie in (0, 1], got {text!r}")
    return value


def _checked(check):
    """An argparse type: a float that ``check`` accepts, checked before any work."""

    def parse(text: str) -> float:
        try:
            return check(float(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _load_inputs(args):
    data, table = read_dataset_csv(args.data)
    model = read_label_model_json(args.label_model, table)
    return data, table, model


def _metric_inputs(args):
    """The dataset, its distinct vote tuples, the label model and the cost matrix G
    of the --metric. An option that the --metric does not read, or lacks, is
    rejected before any file is read."""
    kind = MetricKind(args.metric)
    if args.loss_table is None and kind is MetricKind.RISK:
        raise ValueError("--metric risk needs --loss-table")
    if args.loss_table is not None and kind is not MetricKind.RISK:
        raise ValueError("--loss-table is read only with --metric risk")
    if getattr(args, "prior_y1", None) is not None and kind is not MetricKind.JOINT_POSITIVE:
        raise ValueError("--prior-y1 is read only with --metric joint-positive")
    data, table, model = _load_inputs(args)
    k = model.num_classes
    loss_table = None if args.loss_table is None else read_loss_table(args.loss_table, k)
    g = build_g(data, MetricSpec(kind, loss_table, args.threshold), LabelSpace(num_classes=k))
    return data, table, model, g


def _warn_unconverged(solves) -> None:
    """One stderr line per solved bound whose solver stopped short of its tolerance."""
    for label, est in solves:
        r = est.report
        if not r.converged:
            print(
                f"warning: {label}, {est.side.value} bound: the solver did not converge "
                f"({r.iterations} iterations, gradient sup-norm {r.final_gradient_norm:.3g})",
                file=sys.stderr,
            )


def _entry(row, lo, hi) -> dict:
    """The result-file entry of one reported row of the solved pair ``lo``, ``hi``."""
    return {
        "lower": row.lower,
        "upper": row.upper,
        "lower_std": row.lower_std,
        "upper_std": row.upper_std,
        "ci_level": row.ci_lower.level,
        "ci_lower": [row.ci_lower.low, row.ci_lower.high],
        "ci_upper": [row.ci_upper.low, row.ci_upper.high],
        "epsilon": lo.epsilon,
        "n": lo.n,
        "clamped": row.clamped,
        "solver": {
            "lower": lo.report._asdict(),
            "upper": hi.report._asdict(),
        },
    }


def cmd_estimate(args) -> int:
    from .diagnostics import label_model_score

    data, table, model, g = _metric_inputs(args)
    cells = cell_table(data, model, g)
    lo, hi = estimate_bounds(cells, args.epsilon)
    _warn_unconverged([(args.metric, lo), (args.metric, hi)])

    metadata = {
        "n": data.n,
        "num_signatures": len(table),
        "epsilon": lo.epsilon,
        "seed": args.seed,
        "label_model_score": label_model_score(cells),
        "note": "plugin std substitutes the fitted optimizer and estimated label model",
    }
    p_h1 = p_y1 = None
    if args.metric == "joint_positive":
        p_h1, p_y1 = positive_margins(cells)
        p_y1 = args.prior_y1 if args.prior_y1 is not None else p_y1
        metadata.update(p_h1=p_h1, p_y1=p_y1)
    kinds = (args.metric, *PRF_KINDS)
    rows = bound_rows(lo, hi, args.metric, kinds, args.gamma, p_h1, p_y1, args.threshold)
    metrics = {row.metric: _entry(row, lo, hi) for row in rows}
    payload = {"metrics": metrics, "metadata": metadata}
    if args.out:
        dump_result_json(payload, args.out)
    else:
        sys.stdout.write(result_json(payload))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.prior_y1 is not None and not set(PRIOR_Y1_KINDS) & set(args.metric):
        raise ValueError(f"--prior-y1 is read only with --metric {', '.join(PRIOR_Y1_KINDS)}")
    data, table, model = _load_inputs(args)
    sweep = threshold_sweep(
        data, model, args.thresholds, args.metric, args.epsilon, gamma=args.gamma,
        p_y1=args.prior_y1,
    )
    _warn_unconverged(sweep.solves)
    write_sweep_csv(args.out, sweep)  # stdout without --out
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import exact_bounds

    data, table, model, g = _metric_inputs(args)
    result = exact_bounds(data, model, g)
    payload = {
        "lower": result.lower,
        "upper": result.upper,
        "per_signature": [
            {"z": list(table[z]), "lower": lo, "upper": hi}
            for z, lo, hi in result.per_signature
        ],
    }
    if args.out:
        dump_result_json(payload, args.out)
    print(f"L={result.lower:.{SIG_DIGITS}g}, U={result.upper:.{SIG_DIGITS}g}")
    return EXIT_OK


def cmd_select(args) -> int:
    from .diagnostics import SelectionStrategy, select_model

    names, candidates = read_candidates(args.candidates, args.metric)
    strategy = SelectionStrategy(args.strategy)
    # a missing score reads as NaN, which np.argmax would choose
    if strategy is SelectionStrategy.LABEL_MODEL:
        for name, (_, _, score) in zip(names, candidates):
            if math.isnan(score):
                path = Path(args.candidates) / name
                raise FormatError(f"{path}: no metadata.label_model_score to select by")
    result = select_model(candidates, strategy)
    payload = {
        "strategy": result.strategy.value,
        "chosen_index": result.chosen_index,
        "chosen_file": names[result.chosen_index],
        "scores": list(result.scores),
    }
    if args.out:
        dump_result_json(payload, args.out)
    print(f"chosen: {names[result.chosen_index]} (index {result.chosen_index})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    from .diagnostics import (
        conditional_entropy_y,
        informativeness_bound,
        label_model_score,
        misspecification_report,
    )

    if args.epsilon is not None and args.label_model_alt is None:
        raise ValueError("--epsilon is read only with --label-model-alt")
    data, table, model, g = _metric_inputs(args)
    cells = cell_table(data, model, g)
    h_cond = conditional_entropy_y(model, cells.z_mass)
    payload = {
        "conditional_entropy_y_nats": h_cond,
        "informativeness_bound": informativeness_bound(cells.sup_norm, h_cond),
        "label_model_score": label_model_score(cells),
    }
    if args.label_model_alt:
        alt = read_label_model_json(args.label_model_alt, table)
        report = misspecification_report(cells, alt, args.epsilon)
        _warn_unconverged((f"{args.metric} under the {label}", est) for label, est in report.solves)
        fields = report._asdict()
        del fields["solves"]
        payload["misspecification"] = {
            **fields,
            "within_certificate": report.within_certificate,
            "note": "certificate assumes uniformly bounded optimizers; not verifiable from data",
        }
    if args.out:
        dump_result_json(payload, args.out)
    sys.stdout.write(result_json(payload))
    return EXIT_OK


def _synth_spec(args):
    from .synth import SynthSpec

    return SynthSpec(
        n=args.n,
        num_labelers=args.num_labelers,
        labeler_accuracies=tuple(float(v) for v in args.accuracies.split(",")),
        abstain_rates=tuple(float(v) for v in args.abstain_rates.split(",")),
        prior_y1=args.prior_y1,
        score_separation=args.separation,
        seed=args.seed,
        threshold=args.threshold,
    )


def cmd_synth(args) -> int:
    from .synth import generate_synthetic

    result = generate_synthetic(_synth_spec(args))
    write_dataset_csv(args.out, result.data, result.table)
    if args.model_out:
        write_label_model_json(args.model_out, result.model, result.table)
    if args.metrics_out:
        dump_result_json(result.true_metrics, args.metrics_out)
    return EXIT_OK


def cmd_coverage(args) -> int:
    from .synth import coverage_experiment

    report = coverage_experiment(_synth_spec(args), args.replications, args.gamma)
    _warn_unconverged(report.solves)
    payload = report._asdict()
    del payload["solves"]
    if args.out:
        dump_result_json(payload, args.out)
    sys.stdout.write(result_json(payload))
    return EXIT_OK


def _add_common(p, cost=True, epsilon=True, gamma=True, metric_type=_metric(METRIC_NAMES),
                metric_help="accuracy, risk, or joint-positive"):
    """The options of a command that bounds one dataset, less those it would ignore."""
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--label-model", required=True, help="label model JSON")
    p.add_argument("--metric", type=metric_type, default="accuracy", help=metric_help)
    if cost:
        p.add_argument("--loss-table", default=None,
                       help="JSON |Y|x|Y| loss matrix (read only with --metric risk)")
        p.add_argument("--threshold", type=_finite, default=None,
                       help="classify by score >= threshold, even if the data has a pred column")
    if epsilon:
        p.add_argument("--epsilon", type=_checked(check_epsilon), default=None,
                       help="smoothing temperature (default 0.01 / ln|Y|)")
    if gamma:
        p.add_argument("--gamma", type=_checked(check_gamma), default=0.05,
                       help="CI miscoverage level")
    p.add_argument("--out", default=None, help="output file")


def _add_generator(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--num-labelers", type=int, default=3)
    p.add_argument("--accuracies", default="0.8,0.7,0.65")
    p.add_argument("--abstain-rates", default="0.1,0.1,0.1")
    p.add_argument("--prior-y1", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=0.5)
    p.add_argument("--threshold", type=_finite, default=0.5)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weakbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="smoothed bound estimates with CIs")
    _add_common(p)
    p.add_argument("--prior-y1", type=_prior, default=None,
                   help="known P(Y=1) override (read only with --metric joint-positive)")
    p.add_argument("--seed", type=int, default=0, help="recorded as metadata.seed")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("sweep", help="bounds across score thresholds (CSV out)")
    _add_common(p, cost=False, metric_type=_sweep_kinds, metric_help=(
        "comma-separated list of accuracy, joint-positive, precision, recall and f1"
    ))
    p.add_argument(
        "--thresholds", type=_thresholds, required=True, help="comma-separated thresholds"
    )
    p.add_argument("--prior-y1", type=_prior, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("oracle", help="exact bounds by per-signature transport")
    _add_common(p, epsilon=False, gamma=False)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("select", help="pick a candidate from result files")
    p.add_argument("--candidates", required=True, help="directory of result JSON files")
    p.add_argument(
        "--strategy",
        default="lower",
        choices=("lower", "upper", "average", "label_model"),  # SelectionStrategy's values
    )
    p.add_argument("--metric", type=_metric((*METRIC_NAMES, *PRF_KINDS)), default="accuracy")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("diagnose", help="informativeness and misspecification checks")
    _add_common(p, gamma=False)
    p.add_argument("--label-model-alt", default=None, help="alternative label model JSON")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("synth", help="generate synthetic data with exact label model")
    _add_generator(p)
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--model-out", default=None, help="exact label model JSON to write")
    p.add_argument("--metrics-out", default=None, help="realized true metrics JSON")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("coverage", help="Monte-Carlo CI coverage experiment")
    _add_generator(p)
    p.add_argument("--replications", type=int, default=500)
    p.add_argument("--gamma", type=_checked(check_gamma), default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (WeakBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry of ``python -m weakbounds.cli`` and the ``weakbounds``
    script: exit with the code of ``main`` on the command line.

    The process ends right after, so the objects numpy and the standard library
    left tracked are frozen first: the interpreter's shutdown collections then
    walk none of them. atexit handlers still run and the interpreter still
    flushes stdout and stderr. ``main`` itself never freezes the collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
