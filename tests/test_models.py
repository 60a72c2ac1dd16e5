import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mrnet.models import (
    MODEL_KINDS,
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    Triple,
    edge_probability,
    lipschitz_bound,
    score,
    score_gradient,
    score_gradients,
    score_sup_bound,
    scores,
    sigmoid,
)


def random_params(model, n, k, rng, scale=1.0, radius=100.0):
    ent = rng.normal(0, scale, size=(n, model.latent_dim))
    rel = rng.normal(0, scale, size=(k, model.relation_dim))
    return ModelParams(ent, rel, radius)


def test_relation_dims():
    assert ScoreModel("distance", 4).relation_dim == 5
    assert ScoreModel("bilinear", 4).relation_dim == 4
    assert ScoreModel("combined", 4).relation_dim == 8


def test_param_count():
    shape = NetworkShape(10, 3)
    assert ScoreModel("distance", 4).param_count(shape) == 10 * 4 + 3 * 5
    assert ScoreModel("combined", 2).param_count(shape) == 10 * 2 + 3 * 4


def test_network_shape_validation():
    with pytest.raises(ValueError):
        NetworkShape(0, 1)
    with pytest.raises(ValueError):
        NetworkShape(1, 0)
    with pytest.raises(ValueError):
        NetworkShape(1, 1, obs_rate=1.5)
    shape = NetworkShape(7, 3, 0.25)
    assert shape.n_edges == 7 * 7 * 3
    assert shape.expected_observations == pytest.approx(0.25 * 147)


@pytest.mark.parametrize("field, sizes", [("n_entities", (2.5, 1)),
                                          ("n_entities", (3.0, 1)),
                                          ("n_relations", (3, 1.5)),
                                          ("n_relations", (3, "2"))])
def test_network_shape_refuses_non_integral_sizes(field, sizes):
    # NetworkShape(2.5, 1) had n_edges == 6.25
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        NetworkShape(*sizes)
    shape = NetworkShape(np.int64(3), np.int32(2))  # numpy integers are
    assert shape.n_edges == 18


def test_score_model_validation():
    with pytest.raises(ValueError):
        ScoreModel("euclidean", 3)
    with pytest.raises(ValueError):
        ScoreModel("distance", 0)
    # latent_dim 2.5 was accepted, with relation_dim 3.5
    with pytest.raises(ValueError, match="latent_dim must be an integer"):
        ScoreModel("distance", 2.5)
    assert ScoreModel("distance", np.int64(2)).relation_dim == 3


def test_distance_score_by_hand():
    model = ScoreModel("distance", 2)
    ent = np.array([[1.0, 0.0], [0.0, 1.0]])
    rel = np.array([[0.5, 0.5, 2.0]])  # shift (0.5, 0.5), offset 2
    params = ModelParams(ent, rel, 10.0)
    # head + shift - tail = (1.5, -0.5), squared norm 2.5
    assert score(model, params, Triple(0, 1, 0)) == pytest.approx(2.0 - 2.5)


def test_bilinear_score_by_hand():
    model = ScoreModel("bilinear", 2)
    ent = np.array([[1.0, 2.0], [3.0, -1.0]])
    rel = np.array([[0.5, 0.25]])
    params = ModelParams(ent, rel, 10.0)
    assert score(model, params, Triple(0, 1, 0)) == pytest.approx(
        0.5 * 1 * 3 + 0.25 * 2 * -1)


def test_combined_score_by_hand():
    model = ScoreModel("combined", 2)
    ent = np.array([[1.0, 0.0], [0.0, 1.0]])
    rel = np.array([[0.5, 0.5, 2.0, -1.0]])  # shift (0.5, 0.5), weights (2, -1)
    params = ModelParams(ent, rel, 10.0)
    # v = (1.5, -0.5); sum b_r v_r^2 = 2*2.25 + (-1)*0.25
    assert score(model, params, Triple(0, 1, 0)) == pytest.approx(4.5 - 0.25)


def test_scalar_matches_vectorized_bitwise():
    rng = np.random.default_rng(11)
    for kind in MODEL_KINDS:
        model = ScoreModel(kind, 3)
        params = random_params(model, 6, 2, rng)
        hs = rng.integers(0, 6, size=40)
        ts = rng.integers(0, 6, size=40)
        rs = rng.integers(0, 2, size=40)
        vec = scores(model, params, hs, ts, rs)
        one = [score(model, params, Triple(int(h), int(t), int(r)))
               for h, t, r in zip(hs, ts, rs)]
        assert_array_equal(vec, np.array(one))


def gathered_scores(model, params, heads, tails, rels):
    """The 1-d scoring formula as it stood before broadcasting, with the
    distance norm summed in order like the other two forms."""
    th, tt = params.entities[heads], params.entities[tails]
    w = params.relations[rels]
    d = model.latent_dim
    if model.kind == "distance":
        v = th + w[:, :d] - tt
        return w[:, d] - np.einsum("ij,ij,j->i", v, v, np.ones(d))
    if model.kind == "bilinear":
        return np.einsum("ij,ij,ij->i", th, w, tt)
    v = th + w[:, :d] - tt
    return np.einsum("ij,ij,ij->i", w[:, d:], v, v)


@pytest.mark.parametrize("dim", [1, 3, 10])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_scores_matches_gathered_formula_bitwise(kind, dim):
    rng = np.random.default_rng(12)
    model = ScoreModel(kind, dim)
    params = random_params(model, 50, 4, rng)
    hs, ts, rs = (rng.integers(0, m, size=500) for m in (50, 50, 4))
    assert_array_equal(scores(model, params, hs, ts, rs),
                       gathered_scores(model, params, hs, ts, rs))


@pytest.mark.parametrize("slot", ["head", "tail", "relation", "universe"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_broadcast_scores_match_stacked_1d_calls(kind, slot):
    rng = np.random.default_rng(13)
    n, k, rows = 301, 5, 23
    model = ScoreModel(kind, 7)
    params = random_params(model, n, k, rng)
    hs, ts, rs = (rng.integers(0, m, size=(rows, 1)) for m in (n, n, k))
    cols = {"head": (np.arange(n)[None, :], ts, rs),
            "tail": (hs, np.arange(n)[None, :], rs),
            "relation": (hs, ts, np.arange(k)[None, :]),
            "universe": (np.arange(4, 9)[:, None, None],
                         np.arange(n)[None, :, None],
                         np.arange(k)[None, None, :])}[slot]
    got = scores(model, params, *cols)
    full = np.broadcast_arrays(*cols)
    assert got.shape == full[0].shape
    # one 1-d call per row of the last axis
    flat = [c.reshape(-1, c.shape[-1]) for c in full]
    want = np.stack([scores(model, params, *(f[i] for f in flat))
                     for i in range(len(flat[0]))]).reshape(got.shape)
    assert_array_equal(got, want)


def test_distance_translation_invariance():
    # shifting every entity by the same vector leaves all scores unchanged
    rng = np.random.default_rng(5)
    model = ScoreModel("distance", 4)
    params = random_params(model, 8, 3, rng)
    shifted = ModelParams(params.entities + rng.normal(size=4),
                          params.relations, params.radius)
    hs, ts, rs = rng.integers(0, 8, 30), rng.integers(0, 8, 30), \
        rng.integers(0, 3, 30)
    assert_allclose(scores(model, params, hs, ts, rs),
                    scores(model, shifted, hs, ts, rs), rtol=1e-12)


def test_dimension_mismatch_raises():
    model = ScoreModel("bilinear", 3)
    params = ModelParams(np.zeros((4, 2)), np.zeros((2, 3)), 1.0)
    with pytest.raises(ShapeError):
        score(model, params, Triple(0, 1, 0))
    params2 = ModelParams(np.zeros((4, 3)), np.zeros((2, 5)), 1.0)
    with pytest.raises(ShapeError):
        score(model, params2, Triple(0, 1, 0))


def test_index_out_of_range():
    model = ScoreModel("bilinear", 2)
    params = ModelParams(np.zeros((3, 2)), np.zeros((2, 2)), 1.0)
    with pytest.raises(IndexError):
        score(model, params, Triple(3, 0, 0))
    with pytest.raises(IndexError):
        score(model, params, Triple(0, -1, 0))
    with pytest.raises(IndexError):
        score(model, params, Triple(0, 0, 2))


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.6, np.nan])
def test_score_refuses_non_integral_indices(column, bad):
    # a cast to int64 would score (0, 1, 0) for (0.6, 1, 0)
    model = ScoreModel("bilinear", 2)
    params = random_params(model, 3, 2, np.random.default_rng(4))
    edge = [0, 1, 0]
    edge[column] = bad
    name = ("head", "tail", "relation")[column]
    for fn in (score, score_gradient):
        with pytest.raises(ValueError, match=f"{name} index .* not an integer"):
            fn(model, params, tuple(edge))
    # an integral float is the edge it names
    assert score(model, params, (0.0, 1.0, 1.0)) == \
        score(model, params, Triple(0, 1, 1))


def test_params_validate():
    params = ModelParams(np.ones((2, 2)), np.ones((1, 2)), radius=10.0)
    params.validate()
    small = ModelParams(np.ones((2, 2)) * 10, np.ones((1, 2)), radius=1.0)
    with pytest.raises(ValueError):
        small.validate()
    bad = ModelParams(np.array([[np.nan, 0.0]]), np.ones((1, 2)), radius=1.0)
    with pytest.raises(ValueError):
        bad.validate()


def test_sigmoid_values_and_range():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(3.0) == pytest.approx(0.9525741268224331, rel=1e-15)
    # saturation stays strictly inside (0, 1) even far out
    for x in (700.0, 5000.0):
        assert 0.0 < sigmoid(-x) < sigmoid(x) < 1.0
    grid = np.linspace(-30, 30, 201)
    vals = sigmoid(grid)
    assert np.all(np.diff(vals) > 0)
    assert_allclose(vals + sigmoid(-grid), 1.0, atol=1e-15)


def test_sigmoid_matches_two_branch_form():
    def two_branch(x):  # the masked form sigmoid replaced
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(arr)
        pos = arr >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
        ex = np.exp(arr[~pos])
        out[~pos] = ex / (1.0 + ex)
        return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 30, 100_000),
                        [np.nan, np.inf, -np.inf, 0.0, -0.0,
                         710.0, -710.0, 746.0, -746.0]])
    assert np.array_equal(sigmoid(x), two_branch(x), equal_nan=True)
    assert np.array_equal(sigmoid(x.reshape(-1, 1)),
                          two_branch(x).reshape(-1, 1), equal_nan=True)
    for v in (-746.0, -1.5, -0.0, 0.0, 2.0, 710.0):
        out = sigmoid(v)
        assert type(out) is float and out == two_branch(v)[0]


def test_edge_probability_matches_sigmoid_of_score():
    rng = np.random.default_rng(2)
    model = ScoreModel("combined", 2)
    params = random_params(model, 5, 2, rng)
    e = Triple(1, 3, 0)
    assert edge_probability(model, params, e) == pytest.approx(
        sigmoid(score(model, params, e)), rel=1e-15)


def fd_gradient(model, params, edge, h=1e-6):
    """Central finite differences of score in every touched coordinate."""
    blocks = []
    for attr, row in (("entities", edge.head), ("entities", edge.tail),
                      ("relations", edge.rel)):
        base = getattr(params, attr)
        g = np.zeros(base.shape[1])
        for j in range(base.shape[1]):
            for sign in (+1, -1):
                bumped = ModelParams(params.entities.copy(),
                                     params.relations.copy(), params.radius)
                getattr(bumped, attr)[row, j] += sign * h
                g[j] += sign * score(model, bumped, edge)
        blocks.append(g / (2 * h))
    return blocks


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    model = ScoreModel(kind, 3)
    for _ in range(10):
        params = random_params(model, 6, 3, rng)
        h, t = rng.choice(6, size=2, replace=False)
        edge = Triple(int(h), int(t), int(rng.integers(0, 3)))
        gh, gt, gr = score_gradient(model, params, edge)
        fh, ft, fr = fd_gradient(model, params, edge)
        assert_allclose(gh, fh, rtol=1e-5, atol=1e-7)
        assert_allclose(gt, ft, rtol=1e-5, atol=1e-7)
        assert_allclose(gr, fr, rtol=1e-5, atol=1e-7)


def test_gradient_self_loop_consistency():
    # head == tail is allowed; each returned block is still the partial
    # derivative with respect to that argument slot
    model = ScoreModel("distance", 2)
    rng = np.random.default_rng(8)
    params = random_params(model, 3, 2, rng)
    gh, gt, gr = score_gradient(model, params, Triple(1, 1, 0))
    assert_allclose(gh + gt, 0.0, atol=1e-12)
    assert gr[-1] == 1.0


def test_sup_bound_values():
    assert score_sup_bound(ScoreModel("distance", 3), 1.0) == 10.0
    assert score_sup_bound(ScoreModel("bilinear", 3), 1.0) == 2.0
    assert score_sup_bound(ScoreModel("bilinear", 3), 2.0) == 8.0
    assert score_sup_bound(ScoreModel("combined", 3), 2.0) == 72.0
    with pytest.raises(ValueError):
        score_sup_bound(ScoreModel("distance", 3), 0.0)


def test_lipschitz_values():
    assert lipschitz_bound(ScoreModel("distance", 3), 1.0) == pytest.approx(
        np.sqrt(109.0))
    assert lipschitz_bound(ScoreModel("bilinear", 3), 1.0) == pytest.approx(
        np.sqrt(3.0))
    assert lipschitz_bound(ScoreModel("combined", 3), 2.0) == pytest.approx(
        np.sqrt(189.0) * 4)
    # zero radius is allowed here (degenerate ball)
    assert lipschitz_bound(ScoreModel("bilinear", 3), 0.0) == 0.0
    with pytest.raises(ValueError):
        lipschitz_bound(ScoreModel("bilinear", 3), -1.0)


def sample_in_ball(rng, rows, dim, radius):
    x = rng.normal(size=(rows, dim))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    # random norms in (0, radius], dense near the boundary
    target = radius * rng.uniform(0.5, 1.0, size=(rows, 1)) ** 0.25
    return x / norms * target


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("radius", [0.7, 1.0, 2.5])
def test_sup_bound_dominates_sampled_scores(kind, radius):
    rng = np.random.default_rng(21)
    model = ScoreModel(kind, 4)
    c = score_sup_bound(model, radius)
    for _ in range(40):
        params = ModelParams(
            sample_in_ball(rng, 5, model.latent_dim, radius),
            sample_in_ball(rng, 2, model.relation_dim, radius), radius)
        s = scores(model, params, rng.integers(0, 5, 20),
                   rng.integers(0, 5, 20), rng.integers(0, 2, 20))
        assert np.all(np.abs(s) <= c + 1e-9)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("radius", [0.7, 1.0, 2.5])
def test_lipschitz_dominates_sampled_gradients(kind, radius):
    rng = np.random.default_rng(22)
    model = ScoreModel(kind, 4)
    alpha = lipschitz_bound(model, radius)
    for _ in range(40):
        params = ModelParams(
            sample_in_ball(rng, 5, model.latent_dim, radius),
            sample_in_ball(rng, 2, model.relation_dim, radius), radius)
        hs = rng.integers(0, 5, 20)
        ts = (hs + 1 + rng.integers(0, 4, 20)) % 5  # distinct head/tail
        gh, gt, gr = score_gradients(model, params, hs, ts,
                                     rng.integers(0, 2, 20))
        norms = np.sqrt((gh * gh).sum(1) + (gt * gt).sum(1) + (gr * gr).sum(1))
        assert np.all(norms <= alpha + 1e-9)
