"""The benchmark's tracer still finds every layer it times.

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
