import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import rel_entr

import mrnet.evaluation as evaluation
from mrnet import _kernel
from mrnet._edges import EdgeIndexError
from mrnet.evaluation import (
    KL_CLAMP,
    _kl,
    _kl_into,
    as_validity,
    bernoulli_kl,
    evaluate_losses,
    rank_edge,
    rank_report,
)
from mrnet.models import (
    MODEL_KINDS,
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    Triple,
    _sigmoid_into,
    score,
    scores,
    sigmoid,
)


def scoring_paths():
    """The compiled kernel, when one loads, and None (the numpy engine):
    the values of ``_kernel._loaded`` that select them."""
    kernel = _kernel.load()
    return [None] if kernel is None else [kernel, None]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def make_params(model, n, k, rng, scale=1.0):
    return ModelParams(rng.normal(0, scale, (n, model.latent_dim)),
                       rng.normal(0, scale, (k, model.relation_dim)), 50.0)


def test_bernoulli_kl_known_values():
    assert bernoulli_kl(0.5, 0.5) == 0.0
    assert bernoulli_kl(0.1, 0.9) == pytest.approx(0.8 * math.log(9),
                                                   rel=1e-14)
    assert bernoulli_kl(0.5, sigmoid(1.0)) == pytest.approx(
        0.1201145069582775, rel=1e-12)
    # degenerate reference: D(1||q) = -log q
    assert bernoulli_kl(1.0, 0.25) == pytest.approx(math.log(4), rel=1e-14)
    assert bernoulli_kl(0.0, 0.25) == pytest.approx(-math.log(0.75),
                                                    rel=1e-14)


def test_bernoulli_kl_clamps_estimate():
    v = bernoulli_kl(0.5, 0.0)
    assert math.isfinite(v)
    assert v == pytest.approx(bernoulli_kl(0.5, KL_CLAMP), rel=1e-14)
    assert math.isfinite(bernoulli_kl(0.5, 1.0))
    with pytest.raises(ValueError):
        bernoulli_kl(1.0001, 0.5)
    with pytest.raises(ValueError):
        bernoulli_kl(-0.1, 0.5)


@pytest.mark.parametrize("p, q", [(math.nan, 0.5), (0.5, math.nan),
                                  ([0.2, math.nan], [0.5, 0.5]),
                                  ([0.2, 0.3], [math.nan, 0.5])])
def test_bernoulli_kl_refuses_nan(p, q):
    # NaN fails neither p < 0 nor p > 1, so it used to come back as NaN
    with pytest.raises(ValueError, match="must not be NaN"):
        bernoulli_kl(p, q)


def test_bernoulli_kl_vectorized_and_nonnegative():
    rng = np.random.default_rng(0)
    p = rng.random(500)
    q = rng.random(500)
    v = bernoulli_kl(p, q)
    assert v.shape == (500,)
    assert np.all(v >= 0)
    assert v[3] == bernoulli_kl(float(p[3]), float(q[3]))


def test_rel_entr_matches_scipy():
    rng = np.random.default_rng(11)
    p = rng.random(20_000)
    p[::7] = 0.0
    p[3::7] = 1.0
    p[5::97] = np.nan
    q = rng.random(20_000)
    q[::11] = 0.0
    q[4::11] = 1.0
    qc = np.clip(q, KL_CLAMP, 1.0 - KL_CLAMP)  # as bernoulli_kl clamps it
    eps = np.finfo(float).eps
    for x, y in ((p, qc), (1.0 - p, 1.0 - qc)):
        ours, want = evaluation._rel_entr(x, y), rel_entr(x, y)
        assert np.array_equal(np.isnan(ours), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.all(np.abs(ours[ok] - want[ok])
                      <= 4 * eps * (np.abs(want[ok]) + x[ok]))
    # the boundary cases: 0 log 0 = 0, and x > 0 against y = 0 is +inf
    edge_x, edge_y = np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.5, 0.0])
    assert_allclose(evaluation._rel_entr(edge_x, edge_y),
                    rel_entr(edge_x, edge_y))
    assert evaluation._rel_entr(edge_x, edge_y)[2] == np.inf


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(evaluation.__file__))
    code = ("import sys, mrnet, mrnet.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_evaluate_losses_matches_brute_force():
    rng = np.random.default_rng(7)
    model = ScoreModel("distance", 2)
    shape = NetworkShape(5, 2)
    truth = make_params(model, 5, 2, rng)
    fitted = make_params(model, 5, 2, rng)
    report = evaluate_losses(model, fitted, truth, shape=shape)
    kl = mse = err = 0.0
    count = 0
    for h in range(5):
        for t in range(5):
            for r in range(2):
                e = Triple(h, t, r)
                pt = sigmoid(score(model, truth, e))
                pf = sigmoid(score(model, fitted, e))
                kl += bernoulli_kl(pt, pf)
                mse += (score(model, fitted, e) - score(model, truth, e)) ** 2
                err += (pt >= 0.5) != (pf >= 0.5)
                count += 1
    assert report.n_evaluated == count == 50
    assert report.avg_kl == pytest.approx(kl / count, rel=1e-12)
    assert report.mse_phi == pytest.approx(mse / count, rel=1e-12)
    assert report.link_err == pytest.approx(err / count, rel=1e-12)


def test_evaluate_losses_perfect_fit_is_zero():
    rng = np.random.default_rng(8)
    model = ScoreModel("bilinear", 3)
    truth = make_params(model, 6, 2, rng)
    report = evaluate_losses(model, truth, truth, shape=NetworkShape(6, 2))
    assert report.avg_kl == 0.0
    assert report.mse_phi == 0.0
    assert report.link_err == 0.0


def test_evaluate_losses_sign_flip_maximizes_link_error():
    rng = np.random.default_rng(9)
    model = ScoreModel("bilinear", 3)
    truth = make_params(model, 6, 2, rng)
    flipped = ModelParams(truth.entities.copy(), -truth.relations,
                          truth.radius)
    report = evaluate_losses(model, flipped, truth, shape=NetworkShape(6, 2))
    assert report.link_err == 1.0  # every slot's sign disagrees


def test_evaluate_losses_edge_subset():
    rng = np.random.default_rng(10)
    model = ScoreModel("combined", 2)
    truth = make_params(model, 6, 2, rng)
    fitted = make_params(model, 6, 2, rng)
    edges = (np.array([0, 1]), np.array([2, 3]), np.array([0, 1]))
    rep = evaluate_losses(model, fitted, truth, edges=edges)
    assert rep.n_evaluated == 2
    full = evaluate_losses(model, fitted, truth, shape=NetworkShape(6, 2))
    assert full.n_evaluated == 72
    with pytest.raises(ValueError):
        evaluate_losses(model, fitted, truth)  # neither edges nor shape
    other = make_params(model, 7, 2, rng)
    with pytest.raises(ShapeError):
        evaluate_losses(model, fitted, other, shape=NetworkShape(6, 2))


def brute_rank(model, params, target, slot, valid, shape):
    """Literal transcription: pool = target + false corruptions."""
    n, k = shape.n_entities, shape.n_relations
    if slot == "head":
        pool = [Triple(i, target.tail, target.rel) for i in range(n)]
        mine = target.head
    elif slot == "tail":
        pool = [Triple(target.head, i, target.rel) for i in range(n)]
        mine = target.tail
    else:
        pool = [Triple(target.head, target.tail, i) for i in range(k)]
        mine = target.rel
    sc = [score(model, params, tr) for tr in pool]
    others = [s for tr, s in zip(pool, sc)
              if (tr.head, tr.tail, tr.rel) not in valid]
    rank = 1.0
    for s in others:
        if s > sc[mine]:
            rank += 1.0
        elif s == sc[mine]:
            rank += 0.5
    return rank


def random_kb(seed, n=7, k=3, d=2):
    rng = np.random.default_rng(seed)
    model = ScoreModel("combined", d)
    shape = NetworkShape(n, k)
    params = make_params(model, n, k, rng)
    valid = set()
    for h in range(n):
        for t in range(n):
            for r in range(k):
                if rng.random() < 0.25:
                    valid.add((h, t, r))
    if not valid:
        valid.add((0, 1, 0))
    return model, shape, params, valid


@pytest.mark.parametrize("slot", ["head", "tail", "relation"])
def test_rank_edge_matches_brute_force(slot):
    model, shape, params, valid = random_kb(3)
    for h, t, r in sorted(valid)[:12]:
        target = Triple(h, t, r)
        got = rank_edge(model, params, target, slot, valid, shape)
        want = brute_rank(model, params, target, slot, valid, shape)
        assert got == want


def test_rank_edge_interface_errors():
    model, shape, params, valid = random_kb(4)
    target = Triple(*sorted(valid)[0])
    with pytest.raises(ValueError):
        rank_edge(model, params, target, "column", valid, shape)
    invalid = None
    for h in range(shape.n_entities):
        for t in range(shape.n_entities):
            for r in range(shape.n_relations):
                if (h, t, r) not in valid:
                    invalid = Triple(h, t, r)
                    break
    with pytest.raises(ValueError):
        rank_edge(model, params, invalid, "head", valid, shape)


def test_rank_edge_tie_handling():
    # constant scores: every candidate ties; rank = 1 + (#others)/2
    model = ScoreModel("bilinear", 2)
    shape = NetworkShape(5, 1)
    params = ModelParams(np.zeros((5, 2)), np.zeros((1, 2)), 1.0)
    valid = {(0, 1, 0)}
    rank = rank_edge(model, params, Triple(0, 1, 0), "head", valid, shape)
    assert rank == 1.0 + 0.5 * 4


def test_rank_edge_best_candidate_is_rank_one():
    model, shape, params, valid = random_kb(5)
    # give the target an overwhelming score by placing it at the argmax
    hs, ts, rs = np.meshgrid(np.arange(shape.n_entities),
                             np.arange(shape.n_entities),
                             np.arange(shape.n_relations), indexing="ij")
    s = scores(model, params, hs.ravel(), ts.ravel(), rs.ravel())
    best = np.argmax(s)
    target = Triple(int(hs.ravel()[best]), int(ts.ravel()[best]),
                    int(rs.ravel()[best]))
    valid.add((target.head, target.tail, target.rel))
    assert rank_edge(model, params, target, "head", valid, shape) == 1.0


def test_rank_filtering_excludes_true_corruptions():
    # two valid triples share a (tail, rel) slice; the other valid head
    # must not count against the target even if it scores higher
    model = ScoreModel("bilinear", 1)
    shape = NetworkShape(3, 1)
    params = ModelParams(np.array([[1.0], [2.0], [3.0]]), np.array([[1.0]]),
                         10.0)
    # scores for heads 0,1,2 against tail 0: 1,2,3 times entity[0]=1
    valid = {(1, 0, 0), (2, 0, 0)}
    # head 2 scores highest but is valid, so filtered out
    assert rank_edge(model, params, Triple(1, 0, 0), "head", valid,
                     shape) == 1.0


def test_rank_report_aggregates_rank_edge():
    model, shape, params, valid = random_kb(6)
    test_triples = [Triple(h, t, r) for h, t, r in sorted(valid)[:8]]
    report = rank_report(model, params, test_triples, valid, shape,
                         entity_hits=(1, 10), relation_hits=(1,))
    ent, rel = [], []
    for tr in test_triples:
        ent.append(rank_edge(model, params, tr, "head", valid, shape))
        ent.append(rank_edge(model, params, tr, "tail", valid, shape))
        rel.append(rank_edge(model, params, tr, "relation", valid, shape))
    ent, rel = np.array(ent), np.array(rel)
    assert report.n_triples == 8
    assert report.mr_entity == pytest.approx(ent.mean())
    assert report.mrr_entity == pytest.approx((1 / ent).mean())
    assert report.hits_entity == {1: float((ent <= 1).mean()),
                                  10: float((ent <= 10).mean())}
    assert report.mr_relation == pytest.approx(rel.mean())
    assert report.mrr_relation == pytest.approx((1 / rel).mean())
    assert report.hits_relation == {1: float((rel <= 1).mean())}
    with pytest.raises(ValueError):
        rank_report(model, params, [], valid, shape)


def test_validity_forms_agree():
    model, shape, params, valid = random_kb(7)
    array = np.array(sorted(valid), dtype=np.int64)
    test_triples = [Triple(h, t, r) for h, t, r in sorted(valid)[:5]]
    reports = [rank_report(model, params, test_triples, v, shape)
               for v in (valid, [Triple(*tr) for tr in sorted(valid)],
                         array, array.astype(np.int32))]
    for rep in reports[1:]:
        assert rep == reports[0]


# ---------------------------------------------------------------------------
# batched ranking over the sorted known-key filter

FILTER_FORMS = ("tuples", "triples", "array")


def filter_form(form, known):
    """``known`` (a set of (h, t, r) tuples) in one of the accepted forms."""
    if form == "tuples":
        return set(known)
    if form == "triples":
        return [Triple(*tr) for tr in sorted(known)]
    return np.array(sorted(known), dtype=np.int64).reshape(-1, 3)


def expected_report(ranker, model, params, tests, known, shape, ent_q, rel_q):
    """What rank_report must give, from per-triple oracle ranks."""
    ent = np.array([ranker(model, params, tr, slot, known, shape)
                    for tr in tests for slot in ("head", "tail")])
    rel = np.array([ranker(model, params, tr, "relation", known, shape)
                    for tr in tests])
    return (float(ent.mean()), float((1.0 / ent).mean()),
            {q: float((ent <= q).mean()) for q in ent_q},
            float(rel.mean()), float((1.0 / rel).mean()),
            {q: float((rel <= q).mean()) for q in rel_q}, len(tests))


def report_fields(rep):
    return (rep.mr_entity, rep.mrr_entity, rep.hits_entity, rep.mr_relation,
            rep.mrr_relation, rep.hits_relation, rep.n_triples)


@st.composite
def ranking_cases(draw):
    model = ScoreModel(draw(st.sampled_from(MODEL_KINDS)),
                       draw(st.integers(1, 3)))
    n, k = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    # coordinates in {-1, 0, 1} make exact score ties common
    coords = lambda size: np.array(draw(st.lists(
        st.integers(-1, 1), min_size=size, max_size=size)), dtype=float)
    params = ModelParams(coords(n * model.latent_dim).reshape(n, -1),
                         coords(k * model.relation_dim).reshape(k, -1), 50.0)
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(0, k - 1))
    known = draw(st.sets(edge, min_size=1, max_size=n * n * k))
    tests = [Triple(*tr) for tr in draw(st.lists(
        st.sampled_from(sorted(known)), min_size=1, max_size=25))]
    block = draw(st.integers(1, 3 * n))  # 1 to 3 rows per entity block
    return (model, NetworkShape(n, k), params, known, tests,
            draw(st.sampled_from(FILTER_FORMS)), block)


@settings(max_examples=80, deadline=None)
@given(ranking_cases())
def test_batched_rank_report_matches_per_triple_oracle(case):
    model, shape, params, known, tests, form, block = case
    ent_q = tuple(range(1, shape.n_entities + 1))
    rel_q = tuple(range(1, shape.n_relations + 1))
    want = expected_report(brute_rank, model, params, tests, known, shape,
                           ent_q, rel_q)
    for loaded in scoring_paths():
        with mock.patch.object(evaluation, "_RANK_BLOCK", block), \
                mock.patch.object(_kernel, "_loaded", loaded):
            got = rank_report(model, params, tests,
                              filter_form(form, known), shape,
                              entity_hits=ent_q, relation_hits=rel_q)
        assert report_fields(got) == want


def pool_rank(model, params, target, slot, known, shape):
    """Per-triple oracle: one ``scores`` call per pool, a Python-set filter."""
    width = shape.n_relations if slot == "relation" else shape.n_entities
    col = {"head": 0, "tail": 1, "relation": 2}[slot]
    mine = (target.head, target.tail, target.rel)
    pool = [mine[:col] + (i,) + mine[col + 1:] for i in range(width)]
    s = scores(model, params, *np.array(pool).T)
    rank = 1.0
    for tr, v in zip(pool, s):
        if tr not in known:
            rank += (v > s[mine[col]]) + 0.5 * (v == s[mine[col]])
    return rank


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rank_report_spans_default_blocks(kind):
    rng = np.random.default_rng(11)
    n, k = 700, 2
    model = ScoreModel(kind, 3)
    shape = NetworkShape(n, k)
    params = make_params(model, n, k, rng)
    lin = rng.choice(n * n * k, size=3000, replace=False)
    known = {(int(x // k // n), int(x // k % n), int(x % k)) for x in lin}
    tests = [Triple(*tr) for tr in sorted(known)[::12]]
    # more test triples than one block of entity candidates holds
    assert len(tests) > evaluation._RANK_BLOCK // n
    got = rank_report(model, params, tests, known, shape,
                      entity_hits=(1, 10, 100), relation_hits=(1,))
    want = expected_report(pool_rank, model, params, tests, known, shape,
                           (1, 10, 100), (1,))
    assert report_fields(got) == want


@pytest.mark.parametrize("form", FILTER_FORMS)
def test_unfiltered_target_raises_inside_a_block(form):
    model, shape, params, valid = random_kb(12)
    known = sorted(valid)
    outside = next((h, t, r) for h in range(shape.n_entities)
                   for t in range(shape.n_entities)
                   for r in range(shape.n_relations)
                   if (h, t, r) not in valid)
    tests = [Triple(*tr) for tr in known[:6] + [outside] + known[6:10]]
    # four rows per entity block: the bad triple is row 3 of block 2
    with mock.patch.object(evaluation, "_RANK_BLOCK", 4 * shape.n_entities):
        with pytest.raises(ValueError, match="not marked true"):
            rank_report(model, params, tests,
                        filter_form(form, valid), shape)


def test_as_validity_rejects_callables_and_dense_tables():
    forms = re.escape("an (n, 3) array or a collection of (head, tail, rel) "
                      "tuples or Triples")
    with pytest.raises(TypeError, match=forms):
        as_validity(lambda hs, ts, rs: np.ones(len(hs), dtype=bool))
    with pytest.raises(ShapeError, match=forms):
        as_validity(np.ones((3, 3, 2), dtype=bool))
    model, shape, params, valid = random_kb(13)
    with pytest.raises(ShapeError, match=forms):
        rank_report(model, params, [Triple(*min(valid))],
                    np.ones((7, 7, 3), dtype=bool), shape)


@pytest.mark.parametrize("form", FILTER_FORMS)
def test_as_validity_exact_beyond_known_indices(form):
    # keys come in the shape's radix, not the known triples' ranges
    # (2, 2, 2): over those, the candidates (0, 3, 1) and (0, 0, 2) of a
    # 5 x 5 x 9 network would share the keys of the known (1, 1, 1) and
    # (0, 1, 0)
    known = {(1, 1, 1), (0, 1, 0)}
    lookup = as_validity(filter_form(form, known))
    fixed = [(h, t) for h in range(5) for t in range(5)]
    got = grid_call(lookup, 2, list(zip(*fixed)), NetworkShape(5, 9))
    assert got.dtype == bool
    assert got.tolist() == [[(h, t, r) in known for r in range(9)]
                            for h, t in fixed]


def test_as_validity_rejects_negative_known_indices():
    # the known triples are checked against the shape at the first lookup
    lookup = as_validity({(0, -1, 0)})
    for slot in range(3):
        with pytest.raises(EdgeIndexError, match="tail index out of range"):
            grid_call(lookup, slot, [[0], [0]], NetworkShape(3, 2))
    # an empty filter marks nothing true
    empty = as_validity(set())
    for slot in range(3):
        got = grid_call(empty, slot, [np.arange(3), np.arange(3)],
                        NetworkShape(3, 3))
        assert got.shape == (3, 3) and not got.any()


@pytest.mark.parametrize("which", ["test", "known"])
@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [-1, "end", "past"])
def test_ranking_rejects_out_of_range_triples(which, column, bad,
                                             monkeypatch):
    # a known triple past the shape used to be ignored and a test triple
    # past it to end in a bare mask IndexError; negative test indices
    # wrapped to the last row.  The check comes before any kernel call.
    kernel = _kernel.load()
    if kernel is not None:
        monkeypatch.setattr(kernel, "_ranks", mock.Mock(
            side_effect=AssertionError("an unchecked index reached C")))
    model, shape, params, valid = random_kb(21)
    size = (shape.n_entities, shape.n_entities, shape.n_relations)[column]
    outside = list(sorted(valid)[0])
    outside[column] = {-1: -1, "end": size, "past": size + 5}[bad]
    outside = Triple(*outside)
    if which == "test":
        target, known = outside, valid
    else:
        target, known = Triple(*sorted(valid)[1]), valid | {outside}
    name = ("head", "tail", "relation")[column]
    match = f"{name} index out of range"
    with pytest.raises(EdgeIndexError, match=match):
        rank_report(model, params, [target], known, shape)
    for slot in ("head", "tail", "relation"):
        with pytest.raises(EdgeIndexError, match=match):
            rank_edge(model, params, target, slot, known, shape)


def test_filter_keys_the_largest_int64_network():
    # 7 entities and (2^63 - 1) / 49 relations: N^2 K is int64's largest
    # value, and the last tail run ends at key N^2 K - 1
    k = (2 ** 63 - 1) // 49
    shape = NetworkShape(7, k)
    known = {(6, 6, k - 1), (6, 5, k - 1), (0, 6, k - 1)}
    lookup = as_validity(known)
    got = grid_call(lookup, 1, [[6, 0], [k - 1, k - 1]], shape)
    assert got.tolist() == [[False] * 5 + [True, True], [False] * 6 + [True]]
    with pytest.raises(ValueError, match="overflow int64 edge keys"):
        grid_call(lookup, 1, [[0], [0]], NetworkShape(7, k + 1))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_duplicate_entities_tie_exactly_in_rank_report(kind):
    # entity N-1 is a copy of entity 0 with non-integer coordinates, so a
    # target at entity 0 ties that candidate exactly and must get half
    # credit for it.  Scoring the two columns by different summation
    # paths (as a blocked BLAS matmul does) breaks such ties.
    rng = np.random.default_rng(14)
    n, k = 1001, 2
    model = ScoreModel(kind, 4)
    shape = NetworkShape(n, k)
    params = make_params(model, n, k, rng)
    params.entities[n - 1] = params.entities[0]
    inner = rng.integers(1, n - 1, size=(200, 2))  # never 0 or N-1
    rels = rng.integers(0, k, size=200)
    tests = [Triple(0, int(t), int(r))
             for (_, t), r in zip(inner[:100], rels[:100])]
    tests += [Triple(int(h), 0, int(r))
              for (h, _), r in zip(inner[100:], rels[100:])]
    known = {(tr.head, tr.tail, tr.rel) for tr in tests}
    for tr in tests[:100]:
        assert pool_rank(model, params, tr, "head", known, shape) % 1 == 0.5
    for tr in tests[100:]:
        assert pool_rank(model, params, tr, "tail", known, shape) % 1 == 0.5
    want = expected_report(pool_rank, model, params, tests, known, shape,
                           (1, 10, 100), (1,))
    for loaded in scoring_paths():
        with mock.patch.object(_kernel, "_loaded", loaded):
            got = rank_report(model, params, tests, known, shape,
                              entity_hits=(1, 10, 100), relation_hits=(1,))
        assert report_fields(got) == want


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_kernel_and_numpy_evaluation_agree_exactly(kind, request):
    # losses over the universe and over explicit edges, and ranks, from
    # the compiled kernel and then under the numpy_loop fixture
    kernel = _kernel.load()
    if kernel is None:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng(24)
    n, k = 60, 3
    model = ScoreModel(kind, 5)
    shape = NetworkShape(n, k)
    truth = make_params(model, n, k, rng)
    fitted = make_params(model, n, k, rng)
    fitted.entities[n - 1] = fitted.entities[0]  # exact rank ties
    edges = tuple(rng.integers(0, size, 2000) for size in (n, n, k))
    lin = rng.choice(n * n * k, size=900, replace=False)
    known = np.column_stack([lin // k // n, lin // k % n, lin % k])
    known[:30, 0] = 0  # test rows whose head ties entity N - 1

    def run():
        # 1000-slot chunks start and end inside a head's block of 180
        with mock.patch.object(evaluation, "_CHUNK", 1000), \
                mock.patch.object(evaluation, "_RANK_BLOCK", 7 * n):
            return (evaluate_losses(model, fitted, truth, shape=shape),
                    evaluate_losses(model, fitted, truth, edges=edges),
                    rank_report(model, fitted, known[:200], known, shape,
                                entity_hits=(1, 10), relation_hits=(1,)))

    fast = run()
    request.getfixturevalue("numpy_loop")
    assert _kernel.load() is None
    assert run() == fast


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_full_scan_matches_decoded_scan(kind):
    rng = np.random.default_rng(15)
    n, k = 5, 3
    model = ScoreModel(kind, 2)
    shape = NetworkShape(n, k)
    truth = make_params(model, n, k, rng)
    fitted = make_params(model, n, k, rng)
    # 7-slot chunks against 15 slots per head: chunks start and end
    # inside a head's block
    with mock.patch.object(evaluation, "_CHUNK", 7):
        got = evaluate_losses(model, fitted, truth, shape=shape)
    kl_sum = mse_sum = err_sum = 0.0
    total = n * n * k
    for s in range(0, total, 7):
        lin = np.arange(s, min(s + 7, total))
        hs, ts, rs = lin // k // n, lin // k % n, lin % k
        phi_true = scores(model, truth, hs, ts, rs)
        phi_fit = scores(model, fitted, hs, ts, rs)
        m_true, m_fit = sigmoid(phi_true), sigmoid(phi_fit)
        kl_sum += bernoulli_kl(m_true, m_fit).sum()
        mse_sum += ((phi_fit - phi_true) ** 2).sum()
        err_sum += np.count_nonzero((m_fit >= 0.5) != (m_true >= 0.5))
    assert got == evaluation.EvalReport(kl_sum / total, mse_sum / total,
                                        err_sum / total, total)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_explicit_edges_are_scored_in_chunks(kind, monkeypatch):
    # explicit edges used to be scored in one block, whatever their
    # count; both engines score 7 at a time here
    rng = np.random.default_rng(16)
    n, k = 9, 3
    model = ScoreModel(kind, 2)
    truth = make_params(model, n, k, rng)
    fitted = make_params(model, n, k, rng)
    edges = tuple(rng.integers(0, size, 100) for size in (n, n, k))
    whole = evaluate_losses(model, fitted, truth, edges=edges)
    sizes = []
    for loaded in scoring_paths():
        monkeypatch.setattr(_kernel, "_loaded", loaded)
        engine = _kernel.engine()
        real = engine.edge_scores

        def spy(model, params, heads, tails, rels, out, real=real):
            sizes.append(len(out))
            return real(model, params, heads, tails, rels, out)

        monkeypatch.setattr(engine, "edge_scores", spy)
        sizes.clear()
        with mock.patch.object(evaluation, "_CHUNK", 7):
            got = evaluate_losses(model, fitted, truth, edges=edges)
        assert max(sizes) == 7 and sum(sizes) == 200  # truth and fit
        assert got.avg_kl == pytest.approx(whole.avg_kl, rel=1e-12)
        assert got.mse_phi == pytest.approx(whole.mse_phi, rel=1e-12)
        assert (got.link_err, got.n_evaluated) == (whole.link_err, 100)


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [-1, "end", "past"])
def test_evaluate_losses_range_checks_edges(column, bad):
    # numpy wraps -1 to the last row, so before this check
    # edges=([-1], [0], [0]) silently scored entity 3 of 4
    rng = np.random.default_rng(23)
    model = ScoreModel("combined", 2)
    truth = make_params(model, 4, 3, rng)
    fitted = make_params(model, 4, 3, rng)
    size = (4, 4, 3)[column]
    edges = [np.array([0, 1]), np.array([2, 3]), np.array([0, 2])]
    edges[column][1] = {-1: -1, "end": size, "past": size + 5}[bad]
    name = ("head", "tail", "relation")[column]
    with pytest.raises(IndexError, match=f"{name} index out of range"):
        evaluate_losses(model, fitted, truth, edges=tuple(edges))


def test_evaluate_losses_refuses_non_integral_edges():
    # an int64 cast would score edge (0, 1, 0) for (0.6, 1.7, 0.2)
    rng = np.random.default_rng(25)
    model = ScoreModel("distance", 2)
    truth = make_params(model, 3, 2, rng)
    fitted = make_params(model, 3, 2, rng)
    for column, name in enumerate(("head", "tail", "relation")):
        edges = [[0], [1], [0]]
        edges[column] = [0.6]
        with pytest.raises(ValueError, match=f"{name} index 0.6 is not an"):
            evaluate_losses(model, fitted, truth, edges=tuple(edges))
    with pytest.raises(ValueError, match="head index nan"):
        evaluate_losses(model, fitted, truth, edges=([np.nan], [1], [0]))
    # integral floats are the edges they name
    assert evaluate_losses(model, fitted, truth, edges=([0.0], [1.0], [1.0])) \
        == evaluate_losses(model, fitted, truth, edges=([0], [1], [1]))


def test_ranking_refuses_non_integral_triples():
    model, shape, params, valid = random_kb(26)
    known = np.array(sorted(valid), dtype=float)
    target = tuple(known[0])
    bad = known.copy()
    bad[0, 1] += 0.5
    with pytest.raises(ValueError, match="tail index .* is not an integer"):
        rank_report(model, params, bad[:1], known, shape)
    with pytest.raises(ValueError, match="tail index .* is not an integer"):
        rank_report(model, params, known[:1], bad, shape)
    with pytest.raises(ValueError, match="tail index .* is not an integer"):
        rank_edge(model, params, tuple(bad[0]), "head", known, shape)
    # integral floats are the triples they name
    assert rank_report(model, params, known[:5], known, shape) == \
        rank_report(model, params, sorted(valid)[:5], valid, shape)
    assert rank_edge(model, params, target, "tail", known, shape) == \
        rank_edge(model, params, Triple(*sorted(valid)[0]), "tail", valid,
                  shape)


@pytest.mark.parametrize("which", ["entities", "relations"])
def test_shape_past_the_params_is_an_index_error(which):
    # the loss scan and the ranking index params rows by the shape's
    # slots, so a shape larger than the fit stops before any scoring
    model, shape, params, valid = random_kb(22)
    bigger = NetworkShape(shape.n_entities + (which == "entities"),
                          shape.n_relations + (which == "relations"))
    name = "head" if which == "entities" else "relation"
    with pytest.raises(EdgeIndexError, match=f"{name} index out of range"):
        evaluate_losses(model, params, params, shape=bigger)
    with pytest.raises(EdgeIndexError, match=f"{name} index out of range"):
        rank_report(model, params, [Triple(*min(valid))], valid, bigger)


@pytest.mark.parametrize("array", ["entities", "relations"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ranking_rejects_non_finite_params(array, bad):
    model, shape, params, valid = random_kb(16)
    getattr(params, array)[1, 0] = bad
    target = Triple(*sorted(valid)[0])
    with pytest.raises(ValueError, match=f"params {array} hold NaN or inf"):
        rank_report(model, params, [target], valid, shape)
    with pytest.raises(ValueError, match=f"params {array} hold NaN or inf"):
        rank_edge(model, params, target, "tail", valid, shape)


@pytest.mark.parametrize("which", ["fitted", "truth"])
@pytest.mark.parametrize("array", ["entities", "relations"])
def test_evaluate_losses_rejects_non_finite_params(which, array):
    rng = np.random.default_rng(17)
    model = ScoreModel("distance", 2)
    params = {"fitted": make_params(model, 4, 2, rng),
              "truth": make_params(model, 4, 2, rng)}
    getattr(params[which], array)[0, 1] = np.nan
    edges = (np.array([0, 1]), np.array([2, 3]), np.array([0, 1]))
    for kwargs in ({"shape": NetworkShape(4, 2)}, {"edges": edges}):
        with pytest.raises(ValueError, match=f"{which} {array} hold NaN"):
            evaluate_losses(model, params["fitted"], params["truth"],
                            **kwargs)


# ---------------------------------------------------------------------------
# the per-slot key runs behind as_validity's grid call


def grid_call(lookup, slot, fixed, shape):
    """``lookup``'s block call: rows of the two ``fixed`` columns against
    every candidate of ``slot`` in ``shape``."""
    return lookup(slot, *(np.array(c, dtype=np.int64) for c in fixed), shape)


@pytest.mark.parametrize("form", FILTER_FORMS)
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_grid_lookup_has_no_key_aliasing(form, slot):
    # known ranges (3, 2, 2) inside a 6 x 6 x 4 network: over the known
    # ranges, tail keys (h*2 + r)*2 + t would let a row (h, r=2) start
    # where row (h+1, r=0) does; in the shape's radix no row's run
    # spills into another's
    known = {(1, 0, 0), (0, 1, 1), (2, 1, 0), (2, 0, 1)}
    lookup = as_validity(filter_form(form, known))
    for shape in (NetworkShape(3, 2), NetworkShape(6, 4)):
        spans = [range(shape.n_entities), range(shape.n_entities),
                 range(shape.n_relations)]
        width = len(spans.pop(slot))
        fixed = [(a, b) for a in spans[0] for b in spans[1]]
        got = grid_call(lookup, slot, list(zip(*fixed)), shape)
        assert got.shape == (len(fixed), width) and got.dtype == bool
        for (a, b), row in zip(fixed, got):
            want = []
            for i in range(width):
                tr = [a, b]
                tr.insert(slot, i)
                want.append(tuple(tr) in known)
            assert row.tolist() == want, (a, b, shape)


@st.composite
def flat_probe_cases(draw):
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(0, k - 1))
    known = draw(st.sets(edge, max_size=40))
    rows = draw(st.lists(edge, min_size=1, max_size=12))
    return NetworkShape(n, k), known, rows, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(flat_probe_cases())
def test_grid_lookup_matches_flat_probe(case):
    # the block mask against Python-set membership, candidate by candidate
    shape, known, rows, slot = case
    width = shape.n_relations if slot == 2 else shape.n_entities
    lookup = as_validity(known)
    fixed = [[row[i] for row in rows] for i in range(3) if i != slot]
    got = grid_call(lookup, slot, fixed, shape)
    assert got.tolist() == [[row[:slot] + (i,) + row[slot + 1:] in known
                             for i in range(width)] for row in rows]


def test_rank_report_row_whose_every_corruption_is_true():
    model, shape, params, valid = random_kb(18)
    n, k = shape.n_entities, shape.n_relations
    valid |= {(2, t, 1) for t in range(n)}  # every tail of (2, ., 1)
    valid |= {(h, 4, 0) for h in range(n)}  # every head of (., 4, 0)
    valid |= {(5, 3, r) for r in range(k)}  # every relation of (5, 3, .)
    tests = [Triple(2, 6, 1), Triple(1, 4, 0), Triple(5, 3, 2)]
    assert rank_edge(model, params, tests[0], "tail", valid, shape) == 1.0
    assert rank_edge(model, params, tests[1], "head", valid, shape) == 1.0
    assert rank_edge(model, params, tests[2], "relation", valid, shape) == 1.0
    got = rank_report(model, params, tests, valid, shape,
                      entity_hits=(1, 3), relation_hits=(1,))
    want = expected_report(brute_rank, model, params, tests, valid, shape,
                           (1, 3), (1,))
    assert report_fields(got) == want


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rank_report_takes_triple_arrays(kind):
    rng = np.random.default_rng(19)
    n, k = 40, 3
    model = ScoreModel(kind, 3)
    shape = NetworkShape(n, k)
    params = make_params(model, n, k, rng)
    lin = rng.choice(n * n * k, size=900, replace=False)
    known = np.column_stack([lin // k // n, lin // k % n, lin % k])
    tests = known[::7]
    as_triples = [Triple(*map(int, tr)) for tr in tests]
    want = rank_report(model, params, as_triples, set(map(tuple, known.tolist())),
                       shape, entity_hits=(1, 10), relation_hits=(1,))
    as_tuples = [tuple(tr) for tr in tests.tolist()]
    for test_form in (tests, tests.astype(np.int32), as_triples, as_tuples):
        for known_form in (known, [Triple(*map(int, tr)) for tr in known]):
            got = rank_report(model, params, test_form, known_form, shape,
                              entity_hits=(1, 10), relation_hits=(1,))
            assert got == want
    with pytest.raises(ShapeError):
        rank_report(model, params, tests[:, :2], known, shape)
    with pytest.raises(ValueError, match="empty"):
        rank_report(model, params, tests[:0], known, shape)


def test_wrapped_lookup_keeps_the_grid_call():
    # a functools.wraps ``*args`` wrapper (as a tracer installs) is called
    # once per block and slot, and the ranks stay the same
    import functools

    model, shape, params, valid = random_kb(20)
    tests = [Triple(*tr) for tr in sorted(valid)[::3]]
    calls = []
    real = evaluation.as_validity

    def as_validity_wrapped(truth):
        lookup = real(truth)

        @functools.wraps(lookup)
        def wrapper(*args, **kwargs):
            slot, a, b, net = args
            calls.append((slot, len(a), len(b), net))
            return lookup(*args, **kwargs)

        return wrapper

    want = rank_report(model, params, tests, valid, shape)
    with mock.patch.object(evaluation, "as_validity", as_validity_wrapped):
        got = rank_report(model, params, tests, valid, shape)
    assert got == want
    rows = len(tests)
    assert calls == [(0, rows, rows, shape), (1, rows, rows, shape),
                     (2, rows, rows, shape)]


def sequential_losses(model, fitted, truth, heads, tails, rels, chunk):
    """``evaluate_losses``' totals with no reused buffers: scores,
    ``sigmoid`` and ``_kl`` of each whole chunk, each total adding the
    chunks' sums."""
    total = len(heads)
    kl = mse = err = 0.0
    for s in range(0, total, chunk):
        cols = heads[s:s + chunk], tails[s:s + chunk], rels[s:s + chunk]
        phi_true, phi_fit = (scores(model, p, *cols) for p in (truth, fitted))
        m_true, m_fit = sigmoid(phi_true), sigmoid(phi_fit)
        kl += _kl(m_true, m_fit).sum()
        diff = phi_fit - phi_true
        mse += (diff * diff).sum()
        err += np.count_nonzero((m_fit >= 0.5) != (m_true >= 0.5))
    return kl / total, mse / total, err / total


@pytest.mark.parametrize("chunk", [evaluation._CHUNK, 101, 64])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_chunked_scan_is_bit_identical(monkeypatch, kind, chunk):
    # 7 * 7 * 3 = 147 slots: below the default chunk, in chunks of the
    # odd length 101, and in chunks of 64 with an odd remainder of 19
    rng = np.random.default_rng(30)
    n, k = 7, 3
    model = ScoreModel(kind, 3)
    truth = make_params(model, n, k, rng, scale=1.5)
    fitted = make_params(model, n, k, rng, scale=1.5)
    hs, ts, rs = (c.ravel() for c in np.meshgrid(
        np.arange(n), np.arange(n), np.arange(k), indexing="ij"))
    order = rng.permutation(len(hs))
    monkeypatch.setattr(evaluation, "_CHUNK", chunk)
    for heads, tails, rels, shape in (
            (hs, ts, rs, NetworkShape(n, k)),  # the universe, in slot order
            (hs[order], ts[order], rs[order], None)):  # explicit edges
        want = sequential_losses(model, fitted, truth, heads, tails, rels,
                                 chunk)
        for loaded in scoring_paths():
            monkeypatch.setattr(_kernel, "_loaded", loaded)
            if shape is None:
                got = evaluate_losses(model, fitted, truth,
                                      edges=(heads, tails, rels))
            else:
                got = evaluate_losses(model, fitted, truth, shape=shape)
            assert [v.hex() for v in want] == [
                float(got.avg_kl).hex(), float(got.mse_phi).hex(),
                float(got.link_err).hex()]
            assert got.n_evaluated == len(heads)


def test_sigmoid_into_is_sigmoid_bit_for_bit():
    x = np.concatenate([np.linspace(-800, 800, 4001),
                        np.random.default_rng(3).normal(0, 10, 1001),
                        [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]])
    want = sigmoid(x)
    got = x.copy()
    _sigmoid_into(got, np.empty_like(x), np.empty(len(x), dtype=bool))
    assert_same_bits(got, want)


def test_kl_into_is_kl_bit_for_bit():
    rng = np.random.default_rng(4)
    p = sigmoid(np.concatenate([rng.normal(0, 8, 2000), [-800.0, 800.0]]))
    q = sigmoid(np.concatenate([rng.normal(0, 8, 2000), [800.0, -800.0]]))
    q[:3] = [0.0, 1.0, 0.5]  # outside sigmoid's range: the clamp applies
    want = _kl(p, q)
    out = np.empty_like(p)
    _kl_into(p.copy(), q.copy(), out, np.empty_like(p))
    assert_same_bits(out, want)
    assert_array_equal(np.isfinite(out), True)
