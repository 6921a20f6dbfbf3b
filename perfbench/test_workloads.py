"""Every seed poses the same bound problem, in different rows.

Run with: PYTHONPATH=src python -m pytest -q perfbench/test_workloads.py
"""

import numpy as np
import pytest

from workloads import PARTS, Inputs, _stratified


def test_stratified_counts_are_exact_and_seed_free():
    p_extra = np.array([[0.6, 0.4], [0.3, 0.7]])
    draws = [_stratified(np.random.default_rng(s), 997, 2, (0.8, 0.6), (0.1, 0.2), p_extra)
             for s in (0, 1)]
    for y, votes, extra in draws:
        assert len(y) == len(votes) == len(extra) == 997
    cells = [sorted(zip(y, map(tuple, votes), extra)) for y, votes, extra in draws]
    assert cells[0] == cells[1]
    assert not np.array_equal(draws[0][0], draws[1][0])  # the row order differs


@pytest.mark.parametrize("name", ["estimate-binary", "sweep-wide", "multiclass-estimate"])
def test_seeds_change_rows_not_the_exact_bounds(name, tmp_path):
    made = []
    for seed in (0, 7919):
        inp = Inputs(dir=tmp_path / str(seed), seed=seed)
        inp.dir.mkdir()
        PARTS[name].make(inp)
        made.append(inp)
    assert (made[0].dir / "data.csv").read_bytes() != (made[1].dir / "data.csv").read_bytes()
    first, second = (_flat(inp.refs) for inp in made)
    assert first.keys() == second.keys()
    # every exact interval and share, up to the order of a floating-point sum
    assert first == pytest.approx(second, rel=1e-12, abs=1e-15)


def _flat(value, key=()):
    if isinstance(value, dict):
        return {k: v for name, item in value.items() for k, v in _flat(item, key + (name,)).items()}
    if isinstance(value, tuple):
        return {k: v for i, item in enumerate(value) for k, v in _flat(item, key + (i,)).items()}
    return {key: value}
