"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical failure.
All randomness sits behind a single --seed flag, so re-running any command with
identical inputs reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    confidence_interval,
    estimate_bounds,
    estimate_class_prior,
    subsample_for_bounds,
)
from .diagnostics import (
    SelectionStrategy,
    conditional_entropy_y,
    empirical_z_weights,
    informativeness_bound,
    label_model_score,
    misspecification_report,
    select_model,
)
from .domain import LabelSpace
from .errors import FormatError, NumericalError, WeakBoundsError
from .fileio import (
    dump_result_json,
    read_dataset_csv,
    read_label_model_json,
    write_dataset_csv,
    write_label_model_json,
    write_sweep_csv,
)
from .metrics import (
    MetricKind,
    MetricSpec,
    build_g,
    estimate_h1,
    prf_from_joint,
    threshold_sweep,
)
from .objective import SmoothingConfig
from .oracle import exact_bounds
from .solver import SolverConfig
from .synth import SynthSpec, coverage_experiment, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _metric_kind(name: str) -> MetricKind:
    return {
        "accuracy": MetricKind.ACCURACY,
        "risk": MetricKind.RISK,
        "joint-positive": MetricKind.JOINT_POSITIVE,
        "joint_positive": MetricKind.JOINT_POSITIVE,
    }[name]


def _load_loss_table(path: str | None):
    if path is None:
        return None
    try:
        return np.asarray(json.loads(Path(path).read_text()), dtype=np.float64)
    except (json.JSONDecodeError, ValueError) as exc:
        raise FormatError(f"{path}: bad loss table ({exc})") from None


def _smoothing(args, num_classes: int) -> SmoothingConfig:
    if args.epsilon is not None:
        return SmoothingConfig(epsilon=args.epsilon)
    return SmoothingConfig.for_classes(num_classes)


def _load_inputs(args):
    data, table = read_dataset_csv(args.data)
    model = read_label_model_json(args.label_model, table)
    if getattr(args, "n", None):
        data = subsample_for_bounds(data, args.n, args.seed)
    return data, table, model


def _solver_report_dict(report) -> dict:
    return dataclasses.asdict(report)


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


def _bound_entry(lo, hi, gamma, clamped=False) -> dict:
    ci_lo = confidence_interval(lo, gamma)
    ci_hi = confidence_interval(hi, gamma)
    return {
        "lower": lo.value,
        "upper": hi.value,
        "lower_std": lo.plugin_std,
        "upper_std": hi.plugin_std,
        "ci_level": 1.0 - gamma,
        "ci_lower": [ci_lo.low, ci_lo.high],
        "ci_upper": [ci_hi.low, ci_hi.high],
        "epsilon": lo.epsilon,
        "n": lo.n,
        "clamped": clamped,
        "solver": {
            "lower": _solver_report_dict(lo.report),
            "upper": _solver_report_dict(hi.report),
        },
    }


def _prf_entry(interval, base_entry, n, gamma) -> dict:
    from .metrics import MetricInterval  # noqa: F401  (type only)
    from scipy.stats import norm

    tau = float(norm.ppf(1.0 - gamma / 2.0))
    half_lo = tau * interval.lower_std / np.sqrt(n)
    half_hi = tau * interval.upper_std / np.sqrt(n)
    entry = dict(base_entry)
    entry.update(
        lower=interval.lower,
        upper=interval.upper,
        lower_std=interval.lower_std,
        upper_std=interval.upper_std,
        ci_lower=[interval.lower - half_lo, interval.lower + half_lo],
        ci_upper=[interval.upper - half_hi, interval.upper + half_hi],
        clamped=interval.clamped,
    )
    return entry


def cmd_estimate(args) -> int:
    data, table, model = _load_inputs(args)
    kind = _metric_kind(args.metric)
    spec = MetricSpec(
        kind=kind, loss_table=_load_loss_table(args.loss_table), threshold=args.threshold
    )
    space = LabelSpace(num_classes=model.num_classes)
    g = build_g(data, spec, space)
    cfg = _smoothing(args, model.num_classes)
    lo, hi = estimate_bounds(data, model, g, cfg, SolverConfig())
    _warn_unconverged([(args.metric, lo), (args.metric, hi)])

    metrics = {args.metric.replace("-", "_"): _bound_entry(lo, hi, args.gamma)}
    metadata = {
        "n": data.n,
        "num_signatures": table.num_signatures,
        "epsilon": cfg.epsilon,
        "seed": args.seed,
        "label_model_score": label_model_score(data, model, g),
        "note": "plugin std substitutes the fitted optimizer and estimated label model",
    }
    if kind is MetricKind.JOINT_POSITIVE:
        p_h1 = estimate_h1(data, threshold=args.threshold)
        p_y1 = args.prior_y1 if args.prior_y1 is not None else estimate_class_prior(data, model, 1)
        metadata.update(p_h1=p_h1, p_y1=p_y1)
        if p_h1 > 0.0 and p_y1 > 0.0:
            base = _bound_entry(lo, hi, args.gamma)
            prf = prf_from_joint(lo, hi, p_h1, p_y1)
            for name in ("precision", "recall", "f1"):
                metrics[name] = _prf_entry(getattr(prf, name), base, data.n, args.gamma)

    payload = {"metrics": metrics, "metadata": metadata}
    if args.out:
        dump_result_json(payload, args.out)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return EXIT_OK


def cmd_sweep(args) -> int:
    data, table, model = _load_inputs(args)
    thresholds = [float(t) for t in args.thresholds.split(",") if t]
    kinds = [k.strip().replace("-", "_") for k in args.metric.split(",") if k.strip()]
    cfg = _smoothing(args, model.num_classes)
    sweep = threshold_sweep(
        data,
        model,
        thresholds,
        kinds,
        cfg,
        SolverConfig(),
        gamma=args.gamma,
        p_y1=args.prior_y1,
    )
    _warn_unconverged(sweep.solves)
    write_sweep_csv(args.out, sweep)
    return EXIT_OK


def cmd_oracle(args) -> int:
    data, table, model = _load_inputs(args)
    spec = MetricSpec(
        kind=_metric_kind(args.metric),
        loss_table=_load_loss_table(args.loss_table),
        threshold=args.threshold,
    )
    g = build_g(data, spec, LabelSpace(num_classes=model.num_classes))
    result = exact_bounds(data, model, g)
    payload = {
        "lower": result.lower,
        "upper": result.upper,
        "per_signature": [
            {"z": list(table.decode(z)), "lower": lo, "upper": hi}
            for z, lo, hi in result.per_signature
        ],
    }
    if args.out:
        dump_result_json(payload, args.out)
    print(f"L={result.lower:.9g}, U={result.upper:.9g}")
    return EXIT_OK


def cmd_select(args) -> int:
    files = sorted(Path(args.candidates).glob("*.json"))
    if not files:
        raise FormatError(f"no candidate result files in {args.candidates}")
    metric = args.metric.replace("-", "_")
    candidates = []
    for f in files:
        payload = json.loads(f.read_text())
        try:
            entry = payload["metrics"][metric]
        except KeyError:
            raise FormatError(f"{f}: no entry for metric {metric}") from None
        lm = payload.get("metadata", {}).get("label_model_score", float("nan"))
        candidates.append((entry["lower"], entry["upper"], lm))
    result = select_model(candidates, SelectionStrategy(args.strategy))
    payload = {
        "strategy": result.strategy.value,
        "chosen_index": result.chosen_index,
        "chosen_file": files[result.chosen_index].name,
        "scores": list(result.scores),
    }
    if args.out:
        dump_result_json(payload, args.out)
    print(f"chosen: {files[result.chosen_index].name} (index {result.chosen_index})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    data, table, model = _load_inputs(args)
    spec = MetricSpec(
        kind=_metric_kind(args.metric),
        loss_table=_load_loss_table(args.loss_table),
        threshold=args.threshold,
    )
    g = build_g(data, spec, LabelSpace(num_classes=model.num_classes))
    weights = empirical_z_weights(data, model.num_signatures)
    h_cond = conditional_entropy_y(model, weights)
    payload = {
        "conditional_entropy_y_nats": h_cond,
        "informativeness_bound": informativeness_bound(g.sup_norm, h_cond),
        "label_model_score": label_model_score(data, model, g),
    }
    if args.label_model_alt:
        alt = read_label_model_json(args.label_model_alt, table)
        cfg = _smoothing(args, model.num_classes)
        report = misspecification_report(data, model, alt, g, cfg, SolverConfig())
        _warn_unconverged((f"{args.metric} under the {label}", est) for label, est in report.solves)
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
        del fields["solves"]
        payload["misspecification"] = {
            **fields,
            "within_certificate": report.within_certificate,
            "note": "certificate assumes uniformly bounded optimizers; not verifiable from data",
        }
    if args.out:
        dump_result_json(payload, args.out)
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n=args.n,
        num_labelers=args.num_labelers,
        labeler_accuracies=tuple(float(v) for v in args.accuracies.split(",")),
        abstain_rates=tuple(float(v) for v in args.abstain_rates.split(",")),
        prior_y1=args.prior_y1,
        score_separation=args.separation,
        seed=args.seed,
        threshold=args.threshold,
    )
    result = generate_synthetic(spec)
    write_dataset_csv(args.out, result.data, result.table)
    if args.model_out:
        write_label_model_json(args.model_out, result.model, result.table)
    if args.metrics_out:
        dump_result_json(result.true_metrics, args.metrics_out)
    return EXIT_OK


def cmd_coverage(args) -> int:
    spec = SynthSpec(
        n=args.n,
        num_labelers=args.num_labelers,
        labeler_accuracies=tuple(float(v) for v in args.accuracies.split(",")),
        abstain_rates=tuple(float(v) for v in args.abstain_rates.split(",")),
        prior_y1=args.prior_y1,
        score_separation=args.separation,
        seed=args.seed,
        threshold=args.threshold,
    )
    report = coverage_experiment(spec, args.replications, args.gamma)
    payload = dataclasses.asdict(report)
    if args.out:
        dump_result_json(payload, args.out)
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return EXIT_OK


def _add_common(p, with_model=True):
    p.add_argument("--data", required=True, help="dataset CSV")
    if with_model:
        p.add_argument("--label-model", required=True, help="label model JSON")
    p.add_argument(
        "--metric",
        default="accuracy",
        help="accuracy, risk, or joint-positive",
    )
    p.add_argument("--loss-table", default=None, help="JSON |Y|x|Y| loss matrix (risk)")
    p.add_argument("--threshold", type=float, default=None, help="score threshold for h")
    p.add_argument("--epsilon", type=float, default=None, help="smoothing temperature")
    p.add_argument("--gamma", type=float, default=0.05, help="CI miscoverage level")
    p.add_argument("--n", type=int, default=None, help="subsample size for the bound sum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file")


def _add_generator(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--num-labelers", type=int, default=3)
    p.add_argument("--accuracies", default="0.8,0.7,0.65")
    p.add_argument("--abstain-rates", default="0.1,0.1,0.1")
    p.add_argument("--prior-y1", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weakbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="smoothed bound estimates with CIs")
    _add_common(p)
    p.add_argument("--prior-y1", type=float, default=None, help="known P(Y=1) override")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("sweep", help="bounds across score thresholds (CSV out)")
    _add_common(p)
    p.add_argument("--thresholds", required=True, help="comma-separated thresholds")
    p.add_argument("--prior-y1", type=float, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("oracle", help="exact bounds on small instances")
    _add_common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("select", help="pick a candidate from result files")
    p.add_argument("--candidates", required=True, help="directory of result JSON files")
    p.add_argument(
        "--strategy",
        default="lower",
        choices=[s.value for s in SelectionStrategy],
    )
    p.add_argument("--metric", default="accuracy")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("diagnose", help="informativeness and misspecification checks")
    _add_common(p)
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
    p.add_argument("--gamma", type=float, default=0.05)
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
    except (FormatError, WeakBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
