"""Direct-search solver: budget handling, determinism, convergence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint.dsearch import SearchBudget, minimize


def sphere(x):
    return float(np.dot(x, x))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_evals=0, seed=1)
    with pytest.raises(ValueError):
        SearchBudget(max_evals=10, seed=1, initial_mesh=0.1, min_mesh=0.2)


def test_single_eval_returns_start():
    x0 = np.array([0.4, -0.3])
    x, f, used = minimize(sphere, x0, (-np.ones(2), np.ones(2)),
                          SearchBudget(max_evals=1, seed=0))
    assert np.array_equal(x, x0)
    assert f == sphere(x0)
    assert used == 1


def test_start_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        minimize(sphere, np.array([2.0]), (np.array([-1.0]), np.array([1.0])),
                 SearchBudget(max_evals=10, seed=0))
    with pytest.raises(ValueError):
        minimize(sphere, np.array([0.0]), (np.array([1.0]), np.array([-1.0])),
                 SearchBudget(max_evals=10, seed=0))


def test_sphere_40d_within_budget():
    rng = np.random.default_rng(123)
    x0 = rng.uniform(-1, 1, 40)
    lo, hi = -np.ones(40), np.ones(40)
    x, f, used = minimize(sphere, x0, (lo, hi),
                          SearchBudget(max_evals=10_000, seed=7))
    assert used <= 10_000
    assert f <= 1e-3
    assert np.all((x >= lo) & (x <= hi))


def test_deterministic_given_seed():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, 10)
    args = (sphere, x0, (-np.ones(10), np.ones(10)))
    out1 = minimize(*args, SearchBudget(max_evals=500, seed=99))
    out2 = minimize(*args, SearchBudget(max_evals=500, seed=99))
    assert np.array_equal(out1[0], out2[0])
    assert out1[1] == out2[1] and out1[2] == out2[2]


def test_monotone_incumbent():
    history = []

    def tracked(x):
        f = sphere(x)
        history.append(f)
        return f

    x0 = np.full(5, 0.8)
    _, f, _ = minimize(tracked, x0, (-np.ones(5), np.ones(5)),
                       SearchBudget(max_evals=300, seed=3))
    assert f <= history[0]
    assert f == min(history)


def test_all_trials_stay_in_box():
    seen = []

    def tracked(x):
        seen.append(x.copy())
        return sphere(x - 2.0)     # optimum outside the box

    lo, hi = -np.ones(3), np.ones(3)
    x, _, _ = minimize(tracked, np.zeros(3), (lo, hi),
                       SearchBudget(max_evals=400, seed=1))
    for pt in seen:
        assert np.all((pt >= lo) & (pt <= hi))
    # should push against the active bound
    assert np.all(x > 0.9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_never_worse_than_start(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    x0 = rng.uniform(-1, 1, d)

    def bumpy(x):
        return float(np.sum(x ** 2) + 0.3 * np.sum(np.sin(5 * x)))

    _, f, used = minimize(bumpy, x0, (-np.ones(d), np.ones(d)),
                          SearchBudget(max_evals=200, seed=seed))
    assert f <= bumpy(x0)
    assert used <= 200
