import numpy as np
import pytest
from hypothesis import given, strategies as st

from sweepsolve.geometry import RefinementSchedule, TimeGrid, norm, norms


def test_vector_basics():
    assert norm(np.array([3.0, 4.0])) == 5.0
    assert norm(np.array([0.0, 0.0])) == 0.0
    # Only the zero vector has norm 0, also where every square underflows.
    assert norm(np.array([1e-200, 0.0])) == 1e-200
    assert norm(np.array([-3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
    assert norm(np.array([5e-324])) == 5e-324
    # A subnormal sum of squares has lost digits: the norm is still exact here.
    assert norm(np.array([0.0, 1e-158])) == 1e-158
    assert norms(np.array([[0.0, 1e-158], [3.0, 4.0]])).tolist() == [1e-158, 5.0]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_norm_nonnegative_and_zero_iff_zero(coords):
    v = np.array(coords)
    n = norm(v)
    assert n >= 0.0 and (n == 0.0) == (not v.any())
    scale = max(abs(c) for c in coords)
    if n <= 1e-14 * max(scale, 1.0):
        assert np.allclose(v, 0.0, atol=1e-8 * max(scale, 1.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid([0.0])
    with pytest.raises(ValueError):
        TimeGrid([0.0, 1.0, 1.0])
    g = TimeGrid([0.0, 0.25, 1.0])
    assert g.t_first == 0.0 and g.t_last == 1.0
    assert g.mesh == 0.75
    assert g.n_intervals == 2


@given(st.floats(0.25, 10.0), st.integers(0, 10))
def test_dyadic_nestedness_exact(horizon, k):
    coarse = TimeGrid.dyadic(horizon, k)
    fine = TimeGrid.dyadic(horizon, k + 1)
    assert fine.refines(coarse)
    assert coarse.t_last == horizon
    assert fine.t_last == horizon


def _schedule(eps0=0.1, ratio=0.5, levels=3, horizon=1.0, r=1.0):
    eps = tuple(eps0 * ratio**n for n in range(levels))
    delta = tuple(e / 2 for e in eps)
    grids = tuple(TimeGrid.dyadic(horizon, 5 + n) for n in range(levels))
    return RefinementSchedule(eps=eps, delta=delta, grids=grids, r=r)


def test_schedule_valid():
    s = _schedule()
    assert s.levels == 3
    assert s.horizon == 1.0


def test_schedule_rejects_coarse_mesh():
    eps = (0.1, 0.05)
    grids = (TimeGrid.dyadic(1.0, 1), TimeGrid.dyadic(1.0, 2))
    with pytest.raises(ValueError):
        RefinementSchedule(eps=eps, delta=(0.05, 0.025), grids=grids, r=1.0)


def test_schedule_rejects_non_nested():
    eps = (0.1, 0.05)
    grids = (TimeGrid.uniform(1.0, 3), TimeGrid.uniform(1.0, 4))
    with pytest.raises(ValueError):
        RefinementSchedule(eps=eps, delta=(0.5, 0.3), grids=grids, r=1.0)

