from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mrnet import _edges
from mrnet._edges import (EdgeIndexError, check_indices, check_keyable,
                          decode, distinct_uniform, edge_key, loss_edges)
from mrnet.estimation import ObservationSet
from mrnet.models import ModelParams, NetworkShape, ScoreModel, Triple, score

INT64_MAX = np.iinfo(np.int64).max


@st.composite
def edges_in_shapes(draw):
    """Index arrays inside an (N, K) universe whose N^2 K keys fit int64."""
    n = draw(st.integers(1, 3_037_000_499))  # N^2 <= 2^63 - 1
    k = draw(st.integers(1, INT64_MAX // (n * n)))
    size = draw(st.integers(0, 8))
    col = lambda hi: np.array(draw(st.lists(st.integers(0, hi - 1),
                                            min_size=size, max_size=size)),
                              dtype=np.int64)
    return n, k, col(n), col(n), col(k)


@settings(max_examples=300, deadline=None)
@given(edges_in_shapes())
def test_decode_inverts_edge_key(case):
    n, k, heads, tails, rels = case
    keys = edge_key(heads, tails, rels, n, k)
    assert keys.dtype == np.int64 and (keys >= 0).all()
    for got, want in zip(decode(keys, n, k), (heads, tails, rels)):
        np.testing.assert_array_equal(got, want)


def test_edge_key_orders_slots_like_the_universe():
    n, k = 4, 3
    h, t, r = np.meshgrid(np.arange(n), np.arange(n), np.arange(k),
                          indexing="ij")
    keys = edge_key(h.ravel(), t.ravel(), r.ravel(), n, k)
    np.testing.assert_array_equal(keys, np.arange(n * n * k))


@pytest.mark.parametrize("n, k", [(7, INT64_MAX // 49), (3_037_000_499, 1),
                                  (1, INT64_MAX)])
def test_int64_rule_at_its_boundary(n, k):
    # N^2 K fits int64 here (for 7 and 1 entities it is int64's largest
    # value), and the next relation (or entity) is one too many.  With
    # 1 entity the rule used to let K = 2^63 through, a radix that no
    # key and no draw bound can hold.
    check_keyable(n, k)
    last = edge_key(n - 1, n - 1, k - 1, n, k)
    assert int(last) == n * n * k - 1 <= INT64_MAX
    assert [int(c) for c in decode(last, n, k)] == [n - 1, n - 1, k - 1]
    draw = np.random.default_rng(0).integers(0, n * n * k, size=3)
    assert (draw >= 0).all()
    for bigger in ((n, k + 1), (n + 1, k)):
        with pytest.raises(ValueError, match="overflow int64 edge keys"):
            check_keyable(*bigger)


def test_observation_set_refuses_keys_that_would_wrap():
    # in 2^33 entities, (0, 0, 0) and (2^31, 0, 0) have keys 0 and 2^64,
    # which wrapped to 0 and made two distinct edges "duplicates"
    with pytest.raises(ValueError, match="overflow int64 edge keys"):
        ObservationSet(NetworkShape(2 ** 33, 1), [0, 2 ** 31], [0, 0],
                       [0, 0], [1, 1])
    # the most entities two relations can key
    ObservationSet(NetworkShape(2 ** 31 - 1, 2), [0, 2 ** 31 - 2], [0, 0],
                   [0, 1], [1, 1])
    with pytest.raises(ValueError, match="overflow int64 edge keys"):
        ObservationSet(NetworkShape(2 ** 31, 2), [0], [0], [0], [1])


def test_loss_edges_scan_all_or_a_seeded_subsample():
    assert loss_edges(4, 3, 48, seed=0) is None  # N^2 K = 48 slots
    edges = loss_edges(4, 3, 10, seed=0)
    keys = edge_key(*edges, 4, 3)
    assert len(np.unique(keys)) == 10 and keys.min() >= 0 and keys.max() < 48
    again = loss_edges(4, 3, 10, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(edges, again))
    other = loss_edges(4, 3, 10, seed=1)
    assert not all(np.array_equal(a, b) for a, b in zip(edges, other))


def test_index_error_is_both_index_and_value_error():
    assert issubclass(EdgeIndexError, IndexError)
    assert issubclass(EdgeIndexError, ValueError)
    check_indices(3, 2, [0, 2], [1, 2], [0, 1])  # inside: no error
    for exc in (IndexError, ValueError):
        with pytest.raises(exc, match=r"tail index out of range \[0, 3\)"):
            check_indices(3, 2, [0], [3], [0])
    # scoring and observation sets raise the same error
    model = ScoreModel("bilinear", 2)
    params = ModelParams(np.zeros((3, 2)), np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError, match="relation index"):
        score(model, params, Triple(0, 0, 2))
    with pytest.raises(IndexError, match="head index"):
        ObservationSet(NetworkShape(3, 2), [-1], [0], [0], [1])


def test_triple_is_a_row():
    edge = Triple(2, 0, 1)
    assert edge == (2, 0, 1)
    assert (edge.head, edge.tail, edge.rel) == (2, 0, 1)
    np.testing.assert_array_equal(np.array([edge, (0, 1, 0)]),
                                  [[2, 0, 1], [0, 1, 0]])


def _two_branch_draw(rng, total, count, avoid, dense_max):
    """``distinct_uniform``'s draw as two permutation branches, as it was
    written before they became one; ``None`` where it draws by rejection."""
    free = total if avoid is None else total - len(avoid)
    if count == free or (avoid is not None and total <= dense_max):
        pool = np.arange(total, dtype=np.int64)
        if avoid is not None:
            pool = np.setdiff1d(pool, avoid, assume_unique=True)
        return pool if count == free else np.sort(rng.permutation(pool)[:count])
    if avoid is None and (total <= dense_max or 3 * count >= total):
        return np.sort(rng.permutation(total)[:count].astype(np.int64))
    return None


@pytest.mark.parametrize("dense_max", [_edges.DENSE_MAX, 64],
                         ids=["below DENSE_MAX", "above DENSE_MAX"])
@pytest.mark.parametrize("with_avoid", [False, True],
                         ids=["no avoid", "avoid"])
@pytest.mark.parametrize("count", [1, 10, 333, 334, 500, None],
                         ids=lambda c: "all" if c is None else str(c))
def test_one_permutation_branch_draws_as_the_two_did(monkeypatch, dense_max,
                                                     with_avoid, count):
    total = 1000
    avoid = np.arange(0, total, 10) if with_avoid else None
    if count is None:  # every allowed value
        count = total - (len(avoid) if with_avoid else 0)
    monkeypatch.setattr(_edges, "DENSE_MAX", dense_max)
    for seed in range(3):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        want = _two_branch_draw(ref_rng, total, count, avoid, dense_max)
        if want is None:  # the rejection branch, which did not change
            continue
        got = distinct_uniform(rng, total, count, avoid)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        # and the generators are left in the same state
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)


@pytest.mark.parametrize("total, count, avoid", [
    (7, 2, None),               # 21 subsets; count < total / 3
    (9, 3, [1, 4, 6]),          # 20 subsets of the 6 allowed values
], ids=["no avoid", "avoid"])
def test_rejection_draws_are_uniform_over_subsets(monkeypatch, total, count,
                                                  avoid):
    monkeypatch.setattr(_edges, "DENSE_MAX", 0)  # every draw by rejection
    allowed = sorted(set(range(total)) - set(avoid or ()))
    subsets = {s: 0 for s in combinations(allowed, count)}
    avoid = None if avoid is None else np.array(avoid, dtype=np.int64)
    rng = np.random.default_rng(11)
    for _ in range(100 * len(subsets)):
        # a KeyError here is a draw that is no subset of allowed values
        subsets[tuple(distinct_uniform(rng, total, count, avoid).tolist())] += 1
    assert stats.chisquare(list(subsets.values())).pvalue > 1e-3


@pytest.mark.parametrize("with_avoid", [False, True],
                         ids=["no avoid", "avoid"])
def test_rejection_draws_span_the_largest_keyable_universe(with_avoid):
    n, k = 2 ** 31 - 1, 2  # about 9.2e18 slots, just inside int64
    check_keyable(n, k)
    total = n * n * k
    avoid = None
    if with_avoid:  # both ends and a run, so the shifts stack
        avoid = np.array([0, 1, 2, 5, 1 << 40, total - 2, total - 1],
                         dtype=np.int64)
    got = distinct_uniform(np.random.default_rng(3), total, 1000, avoid)
    assert got.dtype == np.int64 and len(got) == 1000
    assert (np.diff(got) > 0).all()  # sorted and distinct
    assert got[0] >= 0 and got[-1] < total
    if with_avoid:
        assert not np.isin(got, avoid).any()
