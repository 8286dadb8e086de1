"""Hand-traced cases for the reference simulator.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref


def system(n, T, s_init, D=2):
    return SimpleNamespace(n=n, T=T, D=D, s_init=s_init, C_F=10000.0,
                           C_P=np.full(n, 50.0), C_C=np.full(n, 200.0),
                           weibull_shape=np.full(n, 3.0),
                           weibull_scale=np.full(n, 10.0),
                           dt=1.0, tau=0.08, nu=0.9)


def beta(t):
    return 1.08 ** -t


def test_forced_outage_without_spares():
    # w = 0 fails a healthy component at once; with no spare it waits
    # until the spare ordered on its failure arrives D = 2 steps later.
    cfg = system(n=1, T=4, s_init=0)
    cost, hist = ref.simulate(np.zeros((1, 4)), np.zeros((1, 1, 4)), cfg,
                              record=True)
    assert [bool(h["healthy"][0, 0]) for h in hist] == \
        [True, False, False, False, True]
    assert [h["age"][0, 0] for h in hist] == [0.0, 0.0, 1.0, 2.0, 1.0]
    assert [h["stock"][0] for h in hist] == [0.0, 0.0, 0.0, 1.0, 0.0]
    expected = beta(1) * 200.0 + (beta(2) + beta(3)) * 10000.0
    assert cost[0] == pytest.approx(expected, rel=1e-12)


def test_broken_components_served_in_index_order():
    cfg = system(n=2, T=2, s_init=1)
    cost, hist = ref.simulate(np.zeros((2, 2)), np.zeros((1, 2, 2)), cfg,
                              record=True)
    assert not hist[1]["healthy"][:, 0].any()
    # one spare: component 1 is repaired, component 2 keeps waiting
    assert hist[2]["healthy"][:, 0].tolist() == [True, False]
    assert hist[2]["age"][:, 0].tolist() == [1.0, 1.0]
    assert hist[2]["stock"][0] == 0.0
    expected = beta(1) * 2 * 200.0 + beta(2) * 10000.0
    assert cost[0] == pytest.approx(expected, rel=1e-12)


def test_full_failure_record_discards_oldest_entry():
    # failures at steps 1, 3 and 5; the third finds the record (D = 2) full
    cfg = system(n=1, T=5, s_init=5)
    _, hist = ref.simulate(np.zeros((1, 5)), np.zeros((1, 1, 5)), cfg,
                           record=True)
    records = [h["record"][0][0].tolist() for h in hist]
    assert records[1] == [0.0, pytest.approx(np.nan, nan_ok=True)]
    assert records[3] == [2.0, 0.0]
    assert records[4] == [3.0, 1.0]
    assert records[5] == [2.0, 0.0]
    # each order arrives D steps after its failure, one step after the
    # repair that consumed a spare
    assert [h["stock"][0] for h in hist] == [5.0, 5.0, 4.0, 5.0, 4.0, 5.0]


def test_pm_rejuvenates_and_is_charged_in_closed_form():
    cfg = system(n=1, T=3, s_init=0)
    u = np.array([[0.0, 0.0, 0.95]])
    cost, hist = ref.simulate(u, np.full((1, 1, 3), 0.999), cfg, record=True)
    assert [h["age"][0, 0] for h in hist] == \
        [0.0, 1.0, 2.0, pytest.approx(0.05 * 2.0 + 1.0)]
    assert cost[0] == pytest.approx(beta(2) * 50.0 * 0.95 ** 2, rel=1e-12)
    assert ref.pm_cost(u, cfg) == pytest.approx(cost[0], rel=1e-12)


def test_scenario_q_does_not_depend_on_set_size():
    assert np.array_equal(ref.scenarios(3, 5, 4, seed=9)[:2],
                          ref.scenarios(3, 5, 2, seed=9))
