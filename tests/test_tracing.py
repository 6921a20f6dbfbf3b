"""The benchmark's tracer still finds every layer it times, and reads its results.

``perfbench/tracing.py`` wraps named functions of the package; a layer that is
renamed or removed makes ``Tracer.install`` raise, here as in a benchmark run.
"""

import importlib.util
from pathlib import Path

import weakbounds.cli  # noqa: F401  (loads the modules whose names the tracer patches)
from weakbounds import metrics

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_layer():
    original = metrics.build_g
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        assert metrics.build_g is not original
    finally:
        tracer.uninstall()
    assert metrics.build_g is original


def test_traced_estimate_reads_the_solver_report(tmp_path):
    # the tracer reads each solve's report from what ``minimize`` returns, so a
    # change to its return shape fails here, not only in a benchmark run
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    assert weakbounds.cli.main(["synth", "--n", "300", "--seed", "2",
                                "--out", str(data), "--model-out", str(model)]) == 0
    tracer = _tracing().Tracer()
    tracer.job = "estimate"
    try:
        tracer.install()
        main = tracer.wrap("cli.main", weakbounds.cli.main)
        argv = ["estimate", "--data", str(data), "--label-model", str(model),
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    metrics_of_job = tracer.job_metrics("estimate")
    assert metrics_of_job["solver.minimize.calls"] >= 1
    assert isinstance(metrics_of_job["solver.iterations"], int)
