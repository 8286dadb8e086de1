"""Direct-search solver: budget handling, determinism, convergence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint import dsearch
from fleetmaint.dsearch import minimize


def sphere(X):
    """Lockstep objective: one squared norm per row and trial of X."""
    return np.sum(X * X, axis=-1)


def _replay(chunks):
    """Apply the charging rule to the value chunks a search was handed,
    the start point's value first in the first chunk: returns (charged
    values in order, best charged value, values charged from each chunk,
    the start point's included)."""
    best = chunks[0][0]
    charged, stops = [best], []
    for k, f in enumerate(chunks):
        lead = int(k == 0)
        better = np.flatnonzero(f[lead:] < best)
        used = int(better[0]) + 1 if better.size else len(f) - lead
        charged += list(f[lead:lead + used])
        stops.append(lead + used)
        if better.size:
            best = f[lead + used - 1]
    return charged, best, stops


def test_budget_validation():
    x0 = np.zeros((2, 3))
    box = (-np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        minimize(sphere, x0, box, 0, [1, 2])
    for seeds in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            minimize(sphere, x0, box, 10, seeds)


def test_single_eval_returns_start():
    x0 = np.array([[0.4, -0.3]])
    x, f, used = minimize(sphere, x0, (-np.ones(2), np.ones(2)), 1, [0])
    assert np.array_equal(x, x0)
    assert np.array_equal(f, sphere(x0))
    assert used == 1


def test_start_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        minimize(sphere, np.array([[2.0]]),
                 (np.array([-1.0]), np.array([1.0])), 10, [0])
    with pytest.raises(ValueError):
        minimize(sphere, np.array([[0.0]]),
                 (np.array([1.0]), np.array([-1.0])), 10, [0])


def test_sphere_40d_within_budget():
    rng = np.random.default_rng(123)
    x0 = rng.uniform(-1, 1, (1, 40))
    lo, hi = -np.ones(40), np.ones(40)
    x, f, used = minimize(sphere, x0, (lo, hi), 10_000, [7])
    assert used <= 10_000
    assert f[0] <= 1e-3
    assert np.all((x >= lo) & (x <= hi))


def test_deterministic_given_seed():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, (1, 10))
    args = (sphere, x0, (-np.ones(10), np.ones(10)), 500, [99])
    out1 = minimize(*args)
    out2 = minimize(*args)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1]) and out1[2] == out2[2]


def test_monotone_incumbent():
    chunks = []

    def tracked(X):
        f = sphere(X)
        chunks.append(f[0])
        return f

    x0 = np.full((1, 5), 0.8)
    _, f, used = minimize(tracked, x0, (-np.ones(5), np.ones(5)), 300, [3])
    charged, best, _ = _replay(chunks)
    assert f[0] <= chunks[0][0]
    assert used == len(charged) == 300
    assert f[0] == best == min(charged)


def test_all_trials_stay_in_box():
    seen = []

    def tracked(X):
        seen.extend(X[0].copy())
        return sphere(X - 2.0)     # optimum outside the box

    lo, hi = -np.ones(3), np.ones(3)
    x, _, _ = minimize(tracked, np.zeros((1, 3)), (lo, hi), 400, [1])
    for pt in seen:
        assert np.all((pt >= lo) & (pt <= hi))
    # should push against the active bound
    assert np.all(x > 0.9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_never_worse_than_start(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    x0 = rng.uniform(-1, 1, (1, d))

    def bumpy(X):
        return np.sum(X ** 2, axis=-1) + 0.3 * np.sum(np.sin(5 * X), axis=-1)

    _, f, used = minimize(bumpy, x0, (-np.ones(d), np.ones(d)), 200, [seed])
    assert f[0] <= bumpy(x0)[0]
    assert used <= 200


# ---------------------------------------------------------------------------
# row-wise lockstep


def _reference_search(objective, x0, lo, hi, max_evals, seed):
    """The poll loop written out plainly, one scalar evaluation per trial:
    the reference every lockstep row is checked against."""
    d = x0.size
    scale = hi - lo
    rng = np.random.default_rng(seed)
    best_x, best_f, evals = x0.copy(), float(objective(x0)), 1
    mesh = dsearch.INITIAL_MESH
    while evals < max_evals and mesh >= dsearch.MIN_MESH:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        success = False
        for k in rng.permutation(2 * d):
            if evals >= max_evals:
                break
            direction = basis[:, k % d] * (1.0 if k < d else -1.0)
            trial = np.clip(best_x + mesh * scale * direction, lo, hi)
            f = float(objective(trial))
            evals += 1
            if f < best_f:
                best_x, best_f, success = trial, f, True
                break
        if not success:
            mesh *= 0.5
    return best_x, best_f, evals


def _bumpy_bowls(centres, flat):
    """Row r of a lockstep stack (m, K, d) is scored against centres[r],
    and a row in ``flat`` by the constant 1; each trial is reduced on its
    own, so it gets the value of the single-row function."""
    def stack(X):
        f = (np.sum((X - centres[:, None]) ** 2, axis=-1)
             + 0.3 * np.sum(np.sin(5 * X), axis=-1))
        f[list(flat)] = 1.0
        return f

    def row(r):
        if r in flat:
            return lambda x: 1.0
        return lambda x: float(np.sum((x - centres[r]) ** 2)
                               + 0.3 * np.sum(np.sin(5 * x)))
    return stack, row


def _logged(scalar):
    """One-row lockstep objective evaluating ``scalar`` trial by trial, so
    its values are those the reference sees; records the chunks of trials
    it is handed and the values it returns."""
    trials, values = [], []

    def batch(X):
        trials.append(X[0].copy())
        values.append(np.array([scalar(x) for x in X[0]]))
        return values[-1][None]
    return batch, trials, values


def test_lockstep_rows_equal_separate_searches():
    rng = np.random.default_rng(11)
    d = 3
    centres = rng.uniform(-1, 1, (5, d))
    x0 = rng.uniform(-1, 1, (5, d))
    lo, hi = -np.ones(d), np.ones(d)
    # the flat row 3 never improves and stops when its mesh falls below
    # MIN_MESH, after 28 polls of 6 trials; the other rows spend the budget
    budget, seeds, flat = 300, [1, 2, 3, 4, 5], (3,)
    stack, row = _bumpy_bowls(centres, flat)
    for cap in (None, 1, 3, 10):
        rounds = []

        def tracked(X):
            rounds.append(X.copy())
            return stack(X)

        X, F, total = minimize(tracked, x0, (lo, hi), budget, seeds,
                               max_chunk=cap)
        assert all(R.shape[::2] == (5, d) and R.shape[1] <= (cap or 2 * d)
                   for R in rounds)
        used, own, padded, cut = [], [], False, False
        for r, seed in enumerate(seeds):
            x, f, evals = _reference_search(row(r), x0[r], lo, hi, budget,
                                            seed)
            assert np.array_equal(X[r], x) and F[r] == f, (cap, r)
            used.append(evals)
            # the row is handed the chunks of its own capped search, padded
            # with copies of the last trial, then its final incumbent
            batch, chunks, values = _logged(row(r))
            assert minimize(batch, x0[r:r + 1], (lo, hi), budget, [seed],
                            max_chunk=cap)[2] == evals
            for j, R in enumerate(rounds):
                if j < len(chunks):
                    c = len(chunks[j])
                    assert np.array_equal(R[r, :c], chunks[j]), (cap, r, j)
                    assert np.all(R[r, c:] == chunks[j][-1])
                    padded |= c < R.shape[1]
                else:
                    assert np.all(R[r] == X[r]), (cap, r, j)
            own.append([len(c) for c in chunks])
            _, _, stops = _replay(values)
            cut |= any(stop < len(f) for f, stop in zip(values, stops))
        assert used == [300, 300, 300, 1 + 28 * 2 * d, 300]
        assert total == sum(used) and type(total) is int
        # a round is as wide as the longest chunk of a live row
        assert len(rounds) == max(map(len, own))
        assert [R.shape[1] for R in rounds] == [
            max(sizes[j] for sizes in own if j < len(sizes))
            for j in range(len(rounds))]
        if cap == 1:
            assert all(R.shape[1] == 1 for R in rounds)
        else:
            # a shorter chunk was padded, and a success cut a chunk
            # before its last trial
            assert padded and cut


@pytest.mark.parametrize("budget, cap", [(1, None), (7, 7), (300, None),
                                         (300, 1), (300, 3)])
def test_objective_with_states_returns_incumbents_states(budget, cap):
    """An objective that also returns per-trial states gets the same
    search, and back the states of each row's incumbent: the start point's
    on the flat row 2 and at budget 1, an accepted trial's elsewhere (at
    budget 7, one of the first chunk, behind the start point)."""
    rng = np.random.default_rng(21)
    d, seeds = 3, [1, 2, 3, 4]
    centres = rng.uniform(-1, 1, (4, d))
    x0 = rng.uniform(-1, 1, (4, d))
    box = (-np.ones(d), np.ones(d))
    stack, _ = _bumpy_bowls(centres, (2,))

    def states_of(X):
        return np.stack((X, X * X), axis=-2)    # (..., 2, d)

    plain = minimize(stack, x0, box, budget, seeds, max_chunk=cap)
    x, f, evals, states = minimize(lambda X: (stack(X), states_of(X)), x0,
                                   box, budget, seeds, max_chunk=cap)
    assert len(plain) == 3
    assert np.array_equal(x, plain[0]) and np.array_equal(f, plain[1])
    assert evals == plain[2]
    assert np.array_equal(states, states_of(x))
    moved = np.any(x != x0, axis=1)
    assert not moved[2] and moved.any() == (budget > 1)


def test_lockstep_shape_checks():
    x0 = np.zeros((2, 3))
    box = (-np.ones(3), np.ones(3))
    # starts are an (m, d) stack: a single (d,) start is rejected
    for bad in (np.zeros(3), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            minimize(sphere, bad, box, 5, [0, 1])
    # the objective returns one value per row and trial
    for wrong in (lambda X: np.zeros(len(X)), lambda X: np.zeros(3),
                  lambda X: np.zeros(X.shape[1:2])):
        with pytest.raises(ValueError):
            minimize(wrong, x0, box, 5, [0, 1])
    with pytest.raises(ValueError):
        minimize(sphere, x0, box, 5, [0, 1], max_chunk=0)


# ---------------------------------------------------------------------------
# chunked poll of one row


def _bumpy(centre):
    return lambda x: float(np.sum((x - centre) ** 2)
                           + 0.3 * np.sum(np.sin(5 * x)))


def _check_against_reference(scalar, x0, lo, hi, max_evals, seed,
                             max_chunk=None):
    """Run a one-row search from the start ``x0`` (d,), check it against
    the reference, and return the value chunks it was handed."""
    batch, _, chunks = _logged(scalar)
    x, f, evals = minimize(batch, x0[None], (lo, hi), max_evals, [seed],
                           max_chunk=max_chunk)
    ref = _reference_search(scalar, x0, lo, hi, max_evals, seed)
    assert np.array_equal(x[0], ref[0]) and f[0] == ref[1]
    assert evals == ref[2] and type(evals) is int
    charged, best, stops = _replay(chunks)
    assert len(charged) == evals and best == f[0]
    # no chunk holds more trials than the budget left or a poll, nor more
    # values than the cap; the first holds the start point besides
    for k, f in enumerate(chunks):
        lead = int(k == 0)
        assert len(f) - lead <= min(max_evals - sum(stops[:k]) - lead,
                                    2 * x0.size)
        assert len(f) <= (max_chunk or np.inf)
    return chunks


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9),
       st.integers(1, 400), st.sampled_from([None, 1, 3, 10]))
def test_chunked_search_equals_reference(seed, d, max_evals, max_chunk):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, d)
    lo, hi = -np.ones(d), np.ones(d)
    _check_against_reference(_bumpy(rng.uniform(-1, 1, d)), x0, lo, hi,
                             max_evals, seed, max_chunk)


def test_chunked_search_mid_chunk_success_and_budget_end():
    rng = np.random.default_rng(31)
    d = 8
    x0 = rng.uniform(-1, 1, d)
    chunks = _check_against_reference(_bumpy(rng.uniform(-1, 1, d)), x0,
                                      -np.ones(d), np.ones(d), 157, 4)
    charged, _, stops = _replay(chunks)
    # some chunk was cut by a success before its last trial, whose value
    # was discarded
    assert any(stop < len(f) for f, stop in zip(chunks, stops))
    assert len(charged) == 157


def test_chunk_sizes_double_within_a_poll():
    """A flat objective never improves, so every poll runs all 2d trials.
    Uncapped chunks hold 1, 2, 4, ... trials, capped ones the cap; the
    start point takes the first slot of the first chunk, and every chunk
    is cut by the poll's end and by the budget."""
    def flat(x):
        return 1.0

    box = (-np.ones(3), np.ones(3))
    for budget, sizes in (
            (30, [1, 2, 4] + [1, 2, 3] * 3 + [1, 2, 2]),
            (1, [1]),
            (2, [1, 1]),
            # the mesh falls below MIN_MESH after 28 polls, 169 trials
            (200, [1, 2, 4] + [1, 2, 3] * 27)):
        chunks = _check_against_reference(flat, np.zeros(3), *box, budget, 0)
        assert [len(f) for f in chunks] == sizes
    # a poll of 800 trials against a budget of 500: nine objective calls,
    # the start point alone in the first
    chunks = _check_against_reference(flat, np.zeros(400), np.zeros(400),
                                      np.ones(400), 500, 1)
    assert [len(f) for f in chunks] == [1, 2, 4, 8, 16, 32, 64, 128, 245]
    # a capped chunk holds the cap from a poll's first trial: the start
    # point and cap - 1 trials, then the cap; a cap of one polls trial by
    # trial after the start point
    for cap, sizes in ((3, [3, 3, 1] + [3, 3] * 3 + [3, 2]),
                       (2, [2, 2, 2, 1] + [2, 2, 2] * 3 + [2, 2, 1]),
                       (1, [1] * 30)):
        chunks = _check_against_reference(flat, np.zeros(3), *box, 30, 0,
                                          cap)
        assert [len(f) for f in chunks] == sizes


def test_capped_rows_fill_their_cap():
    """On an objective that improves mid-chunk, a capped row's first chunk
    is the start point and cap - 1 trials and every later one cap trials,
    cut only by the poll's end and by the budget."""
    rng = np.random.default_rng(5)
    d = 8
    box = (-np.ones(d), np.ones(d))
    for cap in (1, 3, 10, 16, 40):
        for budget in (1, 2, 9, 157):
            chunks = _check_against_reference(
                _bumpy(rng.uniform(-1, 1, d)), rng.uniform(-1, 1, d), *box,
                budget, cap, cap)
            best, polled, left = chunks[0][0], 0, budget - 1
            for k, f in enumerate(chunks):
                lead = int(k == 0)
                trials = f[lead:]
                assert len(trials) == min(cap - lead, 2 * d - polled, left)
                better = np.flatnonzero(trials < best)
                if better.size:
                    best, polled = trials[better[0]], 0
                    left -= int(better[0]) + 1
                else:
                    polled = (polled + len(trials)) % (2 * d)
                    left -= len(trials)
            assert left == 0
    # a budget of one is a single round of the start points alone
    rounds = []

    def tracked(X):
        rounds.append(X.copy())
        return sphere(X)

    x0 = rng.uniform(-1, 1, (4, d))
    x, f, used = minimize(tracked, x0, box, 1, [1, 2, 3, 4], max_chunk=10)
    assert len(rounds) == 1 and np.array_equal(rounds[0], x0[:, None])
    assert np.array_equal(x, x0) and used == 4
