"""The benchmark's exact reference agrees with weakbounds.oracle on small instances.

Run with: PYTHONPATH=src python -m pytest -q perfbench/test_reference.py
"""

import numpy as np
import pytest

from reference import cell_masses, conditional_entropy, exact_interval, posterior
from weakbounds import (
    DatasetView,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    build_g,
    conditional_entropy_y,
    empirical_z_weights,
    exact_bounds,
)


def _instance(rng, num_classes):
    n = int(rng.integers(5, 80))
    num_z = int(rng.integers(1, 6))
    z_ids = rng.integers(0, num_z, n)
    z_ids[:num_z] = np.arange(num_z)  # every signature occurs
    preds = rng.integers(0, num_classes, n)
    q = rng.dirichlet(np.ones(num_classes), num_z)
    q[rng.random(num_z) < 0.2, 0] = 0.0  # some classes carry no mass
    q /= q.sum(axis=1, keepdims=True)
    data = DatasetView(n=n, z_ids=z_ids, predictions=preds)
    return data, LabelModel(table=q), q


@pytest.mark.parametrize("num_classes", [2, 3])
def test_reference_matches_oracle(num_classes):
    rng = np.random.default_rng(20231207 + num_classes)
    loss = rng.uniform(-1.0, 1.0, (num_classes, num_classes))
    specs = [
        (MetricSpec(MetricKind.ACCURACY), np.eye(num_classes)),
        (MetricSpec(MetricKind.RISK, loss_table=loss), loss),
    ]
    if num_classes == 2:
        specs.append((MetricSpec(MetricKind.JOINT_POSITIVE), np.array([[0.0, 0.0], [0.0, 1.0]])))
    for _ in range(40):
        data, model, q = _instance(rng, num_classes)
        cells = cell_masses(data.z_ids, data.predictions, q.shape[0], num_classes)
        for spec, cost in specs:
            g = build_g(data, spec, LabelSpace(num_classes=num_classes))
            oracle = exact_bounds(data, model, g)
            lower, upper = exact_interval(cells, model.table, cost)
            assert abs(lower - oracle.lower) <= 1e-9
            assert abs(upper - oracle.upper) <= 1e-9
        weights = empirical_z_weights(data, q.shape[0])
        assert conditional_entropy(cells, model.table) == pytest.approx(
            conditional_entropy_y(model, weights), abs=1e-12
        )


def test_posterior_matches_bayes_rule_by_enumeration():
    accuracies, prior = (0.8, 0.6), np.array([0.5, 0.3, 0.2])
    sig = (2, -1)
    joint = [prior[y] * (0.8 if y == 2 else 0.1) for y in range(3)]
    expected = np.array(joint) / sum(joint)
    np.testing.assert_allclose(posterior([sig], accuracies, prior)[0], expected, rtol=1e-15)
