"""The one index contract.

Every public entry that takes edge indices converts them with
``_edges.index_columns`` and range-checks them with ``check_indices``
once, where they enter: a non-integral or NaN index is a ``ValueError``
naming its column, and one outside the network an ``EdgeIndexError``,
never a truncated or wrapped index that scores another slot.
"""

from unittest import mock

import numpy as np
import pytest

from mrnet import _kernel, evaluation
from mrnet._edges import EdgeIndexError
from mrnet.estimation import ObservationSet
from mrnet.evaluation import as_validity, evaluate_losses, rank_edge, rank_report
from mrnet.models import (
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    edge_probabilities,
    score,
    score_gradient,
    score_gradients,
    scores,
)
from mrnet.simulation import LabelSampler

N, K = 4, 3
MODEL = ScoreModel("combined", 2)
SHAPE = NetworkShape(N, K)
_rng = np.random.default_rng(31)
PARAMS = ModelParams(_rng.normal(size=(N, 2)), _rng.normal(size=(K, 4)), 50.0)
# every slot is a known triple, so any in-range target is in the filter
KNOWN = np.array([(h, t, r) for h in range(N) for t in range(N)
                  for r in range(K)], dtype=np.int64)


def _one(h, t, r):
    return (h[0], t[0], r[0])


# entry name -> (call on one-element head, tail and relation columns,
# whether the entry runs an engine)
ENTRIES = {
    "scores": (lambda h, t, r: scores(MODEL, PARAMS, h, t, r), False),
    "scores of scalars": (
        lambda h, t, r: scores(MODEL, PARAMS, *_one(h, t, r)), False),
    "ObservationSet of scalars": (
        lambda h, t, r: ObservationSet(SHAPE, *_one(h, t, r), 1), False),
    "score_gradients": (
        lambda h, t, r: score_gradients(MODEL, PARAMS, h, t, r), False),
    "edge_probabilities": (
        lambda h, t, r: edge_probabilities(MODEL, PARAMS, h, t, r), False),
    "score": (lambda h, t, r: score(MODEL, PARAMS, _one(h, t, r)), False),
    "score_gradient": (
        lambda h, t, r: score_gradient(MODEL, PARAMS, _one(h, t, r)), False),
    "LabelSampler.labels": (
        lambda h, t, r: LabelSampler(MODEL, PARAMS, SHAPE, 0).labels(h, t, r),
        False),
    "ObservationSet": (
        lambda h, t, r: ObservationSet(SHAPE, h, t, r, [1]), False),
    "evaluate_losses": (
        lambda h, t, r: evaluate_losses(MODEL, PARAMS, PARAMS, edges=(h, t, r)),
        True),
    "rank_report test triples": (
        lambda h, t, r: rank_report(MODEL, PARAMS, [_one(h, t, r)], KNOWN,
                                    SHAPE), True),
    "rank_report known triples": (
        lambda h, t, r: rank_report(MODEL, PARAMS, KNOWN[:2],
                                    [*map(tuple, KNOWN), _one(h, t, r)],
                                    SHAPE), True),
    "rank_edge": (
        lambda h, t, r: rank_edge(MODEL, PARAMS, _one(h, t, r), "tail", KNOWN,
                                  SHAPE), True),
}

CASES = [(entry, engine) for entry, (_, uses_engine) in ENTRIES.items()
         for engine in (("kernel", "numpy") if uses_engine else ("none",))]


@pytest.mark.parametrize("bad, error, match", [
    (0.6, ValueError, "is not an integer"),
    (np.nan, ValueError, "is not an integer"),
    (-1, EdgeIndexError, "out of range"),
    (None, EdgeIndexError, "out of range"),  # N, or K for relations
])
@pytest.mark.parametrize("entry, engine", CASES)
def test_every_entry_refuses_bad_indices(entry, engine, bad, error, match,
                                         monkeypatch):
    if engine == "kernel" and _kernel.load() is None:
        pytest.skip("no compiled kernel")
    if engine == "numpy":
        monkeypatch.setattr(_kernel, "_loaded", None)
    call = ENTRIES[entry][0]
    call([0], [1], [2])  # a valid edge passes
    for column, name in enumerate(("head", "tail", "relation")):
        cols = [[0], [1], [2]]
        cols[column] = [(N, N, K)[column] if bad is None else bad]
        with pytest.raises(error, match=f"{name} index .*{match}"):
            call(*cols)


@pytest.mark.parametrize("engine", ["kernel", "numpy"])
def test_an_edge_collection_is_one_dimensional(engine, monkeypatch):
    # len() of a 2x2 column counts 2 of its 4 edges: evaluate_losses
    # scored 2 of them, and the kernel trained on the first 2 raw entries
    # of such an ObservationSet where the numpy engine took all 4
    if engine == "kernel" and _kernel.load() is None:
        pytest.skip("no compiled kernel")
    if engine == "numpy":
        monkeypatch.setattr(_kernel, "_loaded", None)
    square = np.array([[0, 0], [1, 1]])
    with pytest.raises(ShapeError, match=r"1-d .* got shapes \(2, 2\)"):
        evaluate_losses(MODEL, PARAMS, PARAMS, edges=(square,) * 3)
    with pytest.raises(ShapeError, match="1-d"):
        ObservationSet(SHAPE, square, square.T, square, np.eye(2))
    with pytest.raises(ShapeError, match="1-d"):  # labels too
        ObservationSet(SHAPE, [0, 1], [1, 2], [0, 0], [[1], [0]])
    with pytest.raises(ShapeError, match="one length"):
        evaluate_losses(MODEL, PARAMS, PARAMS, edges=([0, 1], [1], [0, 1]))
    with pytest.raises(ShapeError, match="one length"):
        ObservationSet(SHAPE, [0, 1], [1, 2], [0, 0], [1, 0, 1])
    # the same edges as 1-d columns are all scored
    flat = square.ravel()
    report = evaluate_losses(MODEL, PARAMS, PARAMS, edges=(flat,) * 3)
    assert report.n_evaluated == 4


def test_scores_shapes_are_unchanged():
    h = np.arange(N)
    # a scalar edge gives a 0-d score and a float probability
    assert np.ndim(scores(MODEL, PARAMS, 1, 2, 0)) == 0
    assert isinstance(edge_probabilities(MODEL, PARAMS, 1, 2, 0), float)
    assert scores(MODEL, PARAMS, 1, 2, 0) == score(MODEL, PARAMS, (1, 2, 0))
    # the columnar entries still read scalars as one edge
    assert len(ObservationSet(SHAPE, 1, 2, 0, 1)) == 1
    assert evaluate_losses(MODEL, PARAMS, PARAMS, edges=(1, 2, 0)).n_evaluated == 1
    # broadcast index shapes give the broadcast shape, each score equal to
    # the parallel 1-d call's
    grid = scores(MODEL, PARAMS, h[:, None, None], h[:, None], np.arange(K))
    assert grid.shape == (N, N, K)
    flat = scores(MODEL, PARAMS, *KNOWN.T)
    assert grid.ravel().tobytes() == flat.tobytes()
    assert scores(MODEL, PARAMS, h[:, None], h, 1).shape == (N, N)


def test_scores_are_the_same_for_every_index_dtype():
    # the parent's scores: rows gathered, then the three-operand einsum
    th, tt = PARAMS.entities[KNOWN[:, 0]], PARAMS.entities[KNOWN[:, 1]]
    w = PARAMS.relations[KNOWN[:, 2]]
    v = th + w[:, :2] - tt
    want = np.einsum("...j,...j,...j->...", w[:, 2:], v, v)
    for dtype in (np.int32, np.int64, np.float64):
        got = scores(MODEL, PARAMS, *KNOWN.T.astype(dtype))
        assert got.tobytes() == want.tobytes()
        for a, b in zip(score_gradients(MODEL, PARAMS, *KNOWN.T.astype(dtype)),
                        score_gradients(MODEL, PARAMS, *KNOWN.T)):
            assert a.tobytes() == b.tobytes()


def test_a_flat_list_is_not_triples():
    # a reshape to (-1, 3) read this as the triples (0, 1, 0), (2, 1, 0)
    flat = [0, 1, 0, 2, 1, 0]
    match = r"an \(n, 3\) array or a collection .* got shape \(6,\)"
    with pytest.raises(ShapeError, match=match):
        rank_report(MODEL, PARAMS, flat, KNOWN, SHAPE)
    with pytest.raises(ShapeError, match=match):
        rank_report(MODEL, PARAMS, KNOWN[:2], flat, SHAPE)
    with pytest.raises(ShapeError, match=match):
        rank_edge(MODEL, PARAMS, (0, 1, 0), "head", flat, SHAPE)
    with pytest.raises(ShapeError, match=match):
        as_validity(flat)
    with pytest.raises(ShapeError, match=r"got shape \(1, 2\)"):
        rank_report(MODEL, PARAMS, [(0, 1)], KNOWN, SHAPE)


@pytest.mark.parametrize("empty", [[], set(), (), np.empty((0, 3), int),
                                   np.empty(0)])
def test_an_empty_collection_is_an_empty_filter(empty):
    lookup = as_validity(empty)
    mask = lookup(1, np.array([0, 2]), np.array([1, 0]), SHAPE)
    assert mask.shape == (2, N) and not mask.any()
    # so no target is marked true in it
    with pytest.raises(ValueError, match="not marked true in the filter"):
        rank_edge(MODEL, PARAMS, (0, 1, 0), "tail", empty, SHAPE)


def test_rank_report_checks_its_test_triples_once():
    calls = []
    real = evaluation.check_indices

    def counting(n, k, heads, tails, rels):
        calls.append(np.size(heads))
        return real(n, k, heads, tails, rels)

    tests = KNOWN[::5]
    with mock.patch.object(evaluation, "check_indices", counting), \
            mock.patch.object(evaluation, "_RANK_BLOCK", N):
        blocked = rank_report(MODEL, PARAMS, tests, KNOWN, SHAPE)
    # one check of the test triples, one of the shape against the params
    # and one per slot of the known triples, however many blocks there are
    assert sorted(calls) == sorted([len(tests), 1, *[len(KNOWN)] * 3])
    assert blocked == rank_report(MODEL, PARAMS, tests, KNOWN, SHAPE)
