import dataclasses
import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mrnet import _kernel
from mrnet.estimation import (
    ObservationSet,
    TrainConfig,
    _init_params,
    _nnz,
    log_likelihood,
    objective_gradient,
    penalized_objective,
    project_ball,
    project_l0,
    train,
)
from mrnet.evaluation import evaluate_losses
from mrnet.models import (
    MODEL_KINDS,
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    Triple,
    score,
    sigmoid,
)

from test_evaluation import assert_same_bits, scoring_paths


def make_params(model, n, k, rng, scale=1.0, radius=50.0):
    return ModelParams(rng.normal(0, scale, (n, model.latent_dim)),
                       rng.normal(0, scale, (k, model.relation_dim)), radius)


def full_observation_set(shape, rng):
    """Every edge of the universe once, with random labels."""
    n, k = shape.n_entities, shape.n_relations
    hs, ts, rs = np.meshgrid(np.arange(n), np.arange(n), np.arange(k),
                             indexing="ij")
    labels = rng.integers(0, 2, size=n * n * k)
    return ObservationSet(shape, hs.ravel(), ts.ravel(), rs.ravel(), labels)


def test_observation_set_validation():
    shape = NetworkShape(3, 2)
    ObservationSet(shape, [0, 1], [1, 2], [0, 1], [1, 0])
    with pytest.raises(ValueError):
        ObservationSet(shape, [0, 0], [1, 1], [0, 0], [1, 0])  # duplicate edge
    with pytest.raises(ValueError):
        ObservationSet(shape, [0], [1], [0], [2])  # label not binary
    with pytest.raises(ValueError):
        ObservationSet(shape, [3], [0], [0], [1])  # head out of range
    with pytest.raises(ShapeError):
        ObservationSet(shape, [0, 1], [1], [0], [1])


def test_observation_set_is_always_checked():
    # a set made with validate=False used to train on a duplicate edge, a
    # label 2, or a label 257 wrapped to 1
    shape = NetworkShape(3, 2)
    with pytest.raises(TypeError):
        ObservationSet(shape, [0], [1], [0], [1], validate=False)
    # the duplicate check sorts a copy of the keys: a duplicate far from
    # its twin is found, and the columns keep their order
    with pytest.raises(ValueError, match="duplicate edges"):
        ObservationSet(shape, [0, 2, 1, 0], [1, 0, 2, 1], [0, 1, 0, 0],
                       [1, 0, 1, 1])
    oset = ObservationSet(shape, [2, 0, 1], [0, 1, 2], [1, 0, 0], [0, 1, 1])
    assert [oset.heads.tolist(), oset.tails.tolist(), oset.rels.tolist()] \
        == [[2, 0, 1], [0, 1, 2], [1, 0, 0]]


def test_observation_set_refuses_non_integral_values():
    # an int64 / int8 cast would keep heads 0, 1, tail 2 and labels 1, 0
    shape = NetworkShape(3, 2)
    with pytest.raises(ValueError, match="head index 0.9 is not an integer"):
        ObservationSet(shape, [0.9, 1], [1, 2], [0, 1], [1, 0])
    with pytest.raises(ValueError, match="tail index 2.5 is not an integer"):
        ObservationSet(shape, [0, 1], [1, 2.5], [0, 1], [1, 0])
    with pytest.raises(ValueError, match="relation index nan"):
        ObservationSet(shape, [0, 1], [1, 2], [0, np.nan], [1, 0])
    for labels in (np.array([257, 256]), [0.7, 1], [np.nan, 1]):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ObservationSet(shape, [0, 1], [1, 2], [0, 1], labels)
    # integral floats, bools and empty lists keep working
    floats = ObservationSet(shape, [0.0, 1.0], [1.0, 2.0], [0.0, 1.0],
                            [True, False])
    assert floats.heads.dtype == np.int64 and floats.labels.dtype == np.int8
    assert [c.tolist() for c in (floats.heads, floats.tails, floats.rels,
                                 floats.labels)] == [[0, 1], [1, 2], [0, 1],
                                                     [1, 0]]
    assert len(ObservationSet(shape, [], [], [], [])) == 0


def test_observation_set_round_trip():
    shape = NetworkShape(4, 2)
    oset = ObservationSet(shape, [0, 2], [1, 3], [0, 1], [1, 0])
    assert len(oset) == 2
    columns = (oset.heads, oset.tails, oset.rels, oset.labels)
    assert [c.tolist() for c in columns] == [[0, 2], [1, 3], [0, 1], [1, 0]]
    assert [c.dtype for c in columns] == [np.int64] * 3 + [np.int8]
    assert oset.positive_rate() == pytest.approx(0.5)
    assert math.isnan(ObservationSet(shape, [], [], [], []).positive_rate())


def test_log_likelihood_matches_brute_force():
    rng = np.random.default_rng(3)
    model = ScoreModel("combined", 2)
    shape = NetworkShape(4, 2)
    params = make_params(model, 4, 2, rng)
    oset = full_observation_set(shape, rng)
    expected = 0.0
    for h, t, r, y in zip(oset.heads, oset.tails, oset.rels, oset.labels):
        p = sigmoid(score(model, params, Triple(int(h), int(t), int(r))))
        expected += math.log(p) if y else math.log1p(-p)
    assert log_likelihood(model, params, oset) == pytest.approx(expected,
                                                                rel=1e-12)


def test_log_likelihood_empty_is_zero():
    model = ScoreModel("bilinear", 2)
    shape = NetworkShape(3, 1)
    params = make_params(model, 3, 1, np.random.default_rng(0))
    empty = ObservationSet(shape, [], [], [], [])
    assert log_likelihood(model, params, empty) == 0.0


def test_log_likelihood_stable_at_extreme_scores():
    # scores around +-700 must not produce -inf or nan
    model = ScoreModel("bilinear", 1)
    shape = NetworkShape(2, 1)
    params = ModelParams(np.array([[30.0], [30.0]]), np.array([[0.8]]), 100.0)
    oset = ObservationSet(shape, [0, 0], [1, 0], [0, 0], [0, 1])
    val = log_likelihood(model, params, oset)
    assert math.isfinite(val)
    assert val == pytest.approx(-720.0, rel=1e-6)  # the mislabeled edge


def test_penalized_objective_penalty_terms():
    rng = np.random.default_rng(4)
    model = ScoreModel("distance", 2)
    shape = NetworkShape(3, 1)
    params = make_params(model, 3, 1, rng)
    oset = full_observation_set(shape, rng)
    base = log_likelihood(model, params, oset)
    l1 = np.abs(params.entities).sum() + np.abs(params.relations).sum()
    sq = (params.entities ** 2).sum() + (params.relations ** 2).sum()
    got = penalized_objective(model, params, oset, rho1=0.3, rho2=0.7)
    assert got == pytest.approx(base - 0.3 * l1 - 0.7 * sq, rel=1e-12)
    with pytest.raises(ValueError):
        penalized_objective(model, params, oset, rho1=-1.0)


@pytest.mark.parametrize("kind", ["distance", "bilinear", "combined"])
def test_objective_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(9)
    model = ScoreModel(kind, 2)
    shape = NetworkShape(4, 2)
    params = make_params(model, 4, 2, rng)
    oset = full_observation_set(shape, rng)  # touches every row
    rho1, rho2 = 0.05, 0.02
    grad = objective_gradient(model, params, oset, rho1, rho2)
    assert_array_equal(grad.entity_rows, np.arange(4))
    assert_array_equal(grad.relation_rows, np.arange(2))

    h = 1e-6
    for attr, rows, got in (("entities", grad.entity_rows, grad.entity_grad),
                            ("relations", grad.relation_rows,
                             grad.relation_grad)):
        block = getattr(params, attr)
        fd = np.zeros_like(got)
        for i, row in enumerate(rows):
            for j in range(block.shape[1]):
                vals = []
                for sign in (+1, -1):
                    bumped = params.copy()
                    getattr(bumped, attr)[row, j] += sign * h
                    vals.append(penalized_objective(model, bumped, oset,
                                                    rho1, rho2))
                fd[i, j] = (vals[0] - vals[1]) / (2 * h)
        assert_allclose(got, fd, rtol=1e-5, atol=1e-6)


def test_objective_gradient_batch_scale():
    rng = np.random.default_rng(10)
    model = ScoreModel("bilinear", 2)
    shape = NetworkShape(4, 2)
    params = make_params(model, 4, 2, rng)
    batch = full_observation_set(shape, rng)
    g1 = objective_gradient(model, params, batch, batch_scale=1.0)
    g2 = objective_gradient(model, params, batch, batch_scale=2.0)
    assert_allclose(g2.entity_grad, 2 * g1.entity_grad, rtol=1e-12)
    assert_allclose(g2.relation_grad, 2 * g1.relation_grad, rtol=1e-12)
    with pytest.raises(ValueError):
        objective_gradient(model, params, batch, batch_scale=0.0)
    empty = ObservationSet(shape, [], [], [], [])
    with pytest.raises(ValueError):
        objective_gradient(model, params, empty)


def test_objective_gradient_touches_only_batch_rows():
    rng = np.random.default_rng(12)
    model = ScoreModel("combined", 2)
    shape = NetworkShape(6, 3)
    params = make_params(model, 6, 3, rng)
    batch = ObservationSet(shape, [0, 2], [1, 2], [0, 2], [1, 0])
    grad = objective_gradient(model, params, batch, rho1=0.1, rho2=0.1)
    assert_array_equal(grad.entity_rows, [0, 1, 2])
    assert_array_equal(grad.relation_rows, [0, 2])


def test_project_ball():
    params = ModelParams(np.array([[3.0, 4.0], [0.1, 0.0]]),
                         np.array([[6.0, 8.0]]), radius=1.0)
    out = project_ball(params, 1.0)
    assert_allclose(np.linalg.norm(out.entities[0]), 1.0, rtol=1e-12)
    assert_array_equal(out.entities[1], params.entities[1])  # untouched
    assert_allclose(np.linalg.norm(out.relations[0]), 1.0, rtol=1e-12)
    # directions preserved
    assert_allclose(out.entities[0], np.array([0.6, 0.8]), rtol=1e-12)
    again = project_ball(out, 1.0)
    assert_allclose(again.entities, out.entities, rtol=1e-15)
    with pytest.raises(ValueError):
        project_ball(params, 0.0)


def test_project_l0_keeps_largest():
    params = ModelParams(np.array([[1.0, -3.0], [0.5, 2.0]]),
                         np.array([[-2.5, 0.25]]), radius=10.0)
    out = project_l0(params, 3)
    assert_array_equal(out.entities, np.array([[0.0, -3.0], [0.0, 2.0]]))
    assert_array_equal(out.relations, np.array([[-2.5, 0.0]]))
    assert np.count_nonzero(out.entities) + np.count_nonzero(out.relations) == 3


def test_project_l0_tie_break_prefers_earlier_position():
    # two entries share the cutoff magnitude; the earlier flattened
    # position (entities before relations, row-major) must win
    params = ModelParams(np.array([[2.0, -1.0]]), np.array([[1.0, 0.5]]),
                         radius=10.0)
    out = project_l0(params, 2)
    assert_array_equal(out.entities, np.array([[2.0, -1.0]]))
    assert_array_equal(out.relations, np.array([[0.0, 0.0]]))


def test_project_l0_cap_edge_cases():
    params = ModelParams(np.ones((2, 2)), np.ones((1, 2)), radius=10.0)
    full = project_l0(params, 6)
    assert_array_equal(full.entities, params.entities)
    none = project_l0(params, 0)
    assert np.count_nonzero(none.entities) == 0
    with pytest.raises(ValueError):
        project_l0(params, -1)


def small_problem(seed=0, n=12, k=2, d=2):
    rng = np.random.default_rng(seed)
    model = ScoreModel("combined", d)
    shape = NetworkShape(n, k)
    truth = make_params(model, n, k, rng, scale=0.6, radius=50.0)
    hs, ts, rs = np.meshgrid(np.arange(n), np.arange(n), np.arange(k),
                             indexing="ij")
    hs, ts, rs = hs.ravel(), ts.ravel(), rs.ravel()
    from mrnet.models import scores
    probs = sigmoid(scores(model, truth, hs, ts, rs))
    labels = (rng.random(len(probs)) < probs).astype(np.int8)
    return model, shape, ObservationSet(shape, hs, ts, rs, labels)


def test_train_improves_objective_and_respects_radius():
    model, shape, obs = small_problem()
    config = TrainConfig(epochs=30, learning_rate=0.3, batch_size=64,
                         radius=5.0, seed=1)
    result = train(model, shape, obs, config, trace=True)
    assert len(result.objective_trace) == 31
    assert len(result.nnz_trace) == 31
    recomputed = penalized_objective(model, result.params, obs)
    assert result.objective_trace[-1] > result.objective_trace[0]
    assert result.objective_trace[-1] == recomputed
    assert result.objective == result.objective_trace[-1]
    # without the trace: the same fit and final objective, and no trace
    plain = train(model, shape, obs, config)
    assert plain.objective_trace is None
    assert plain.objective == result.objective
    assert_array_equal(plain.params.entities, result.params.entities)
    assert_array_equal(plain.nnz_trace, result.nnz_trace)
    result.params.validate()  # all rows inside the radius ball


def test_train_trace_starts_at_init_objective():
    model, shape, obs = small_problem(seed=3)
    config = TrainConfig(epochs=1, learning_rate=1e-12, batch_size=1 << 20,
                         radius=5.0, seed=7, adagrad_eps=1.0)
    result = train(model, shape, obs, config, trace=True)
    # a vanishing learning rate keeps the final objective at the initial one
    assert result.objective_trace[0] == pytest.approx(
        result.objective_trace[-1], rel=1e-9)


def test_train_deterministic_per_seed():
    model, shape, obs = small_problem(seed=5)
    config = TrainConfig(epochs=5, learning_rate=0.2, batch_size=32,
                         radius=5.0, seed=42)
    a = train(model, shape, obs, config, trace=True)
    b = train(model, shape, obs, config, trace=True)
    assert_array_equal(a.params.entities, b.params.entities)
    assert_array_equal(a.params.relations, b.params.relations)
    assert_array_equal(a.objective_trace, b.objective_trace)
    other = train(model, shape, obs,
                  TrainConfig(epochs=5, learning_rate=0.2, batch_size=32,
                              radius=5.0, seed=43))
    assert not np.array_equal(a.params.entities, other.params.entities)


def test_train_sparsity_cap_enforced():
    model, shape, obs = small_problem(seed=6)
    m = model.param_count(shape)
    cap = int(0.3 * m)
    config = TrainConfig(epochs=8, learning_rate=0.3, batch_size=64,
                         radius=5.0, seed=2, sparsity_cap=cap)
    result = train(model, shape, obs, config)
    assert np.all(result.nnz_trace <= cap)
    final_nnz = (np.count_nonzero(result.params.entities)
                 + np.count_nonzero(result.params.relations))
    assert final_nnz <= cap
    with pytest.raises(ValueError):
        train(model, shape, obs,
              TrainConfig(epochs=1, sparsity_cap=m + 1))


def test_train_rejects_bad_inputs():
    model, shape, obs = small_problem(seed=7)
    empty = ObservationSet(shape, [], [], [], [])
    with pytest.raises(ValueError):
        train(model, shape, empty, TrainConfig(epochs=1))
    with pytest.raises(ShapeError):
        train(model, NetworkShape(shape.n_entities + 1, shape.n_relations),
              obs, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, radius=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["learning_rate", "adagrad_eps", "rho1", "rho2",
                                 "radius", "init_scale"])
def test_train_config_rejects_non_finite_values(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        TrainConfig(epochs=1, **{key: value})


@pytest.mark.parametrize("key, value", [
    ("epochs", 0), ("epochs", 2.5), ("epochs", "3"), ("batch_size", 0),
    ("batch_size", 1.5), ("sparsity_cap", -1), ("sparsity_cap", 2.5)])
def test_train_config_refuses_counts_when_made(key, value):
    # epochs = 2.5 used to fail in train with range()'s TypeError, and
    # batch_size = 1.5 with a ctypes ArgumentError
    low = 0 if key == "sparsity_cap" else 1
    with pytest.raises(ValueError, match=rf"^{key} must be an integer >= "
                                         rf"{low}, got {value!r}$"):
        TrainConfig(**{"epochs": 1, key: value})


def test_train_config_is_frozen():
    # a setting changed after the checks would go unchecked
    config = TrainConfig(epochs=1, batch_size=np.int64(4), sparsity_cap=0)
    with pytest.raises(AttributeError):
        config.epochs = 0
    assert dataclasses.replace(config, seed=3).seed == 3


def test_train_l1_penalty_shrinks_parameters():
    model, shape, obs = small_problem(seed=8)
    free = train(model, shape, obs,
                 TrainConfig(epochs=15, learning_rate=0.3, batch_size=64,
                             radius=5.0, seed=3))
    shrunk = train(model, shape, obs,
                   TrainConfig(epochs=15, learning_rate=0.3, batch_size=64,
                               radius=5.0, seed=3, rho1=2.0, rho2=1.0))
    def l1(p):
        return np.abs(p.entities).sum() + np.abs(p.relations).sum()
    assert l1(shrunk.params) < l1(free.params)


def test_train_rejects_out_of_range_indices():
    # a set's columns stay writable after it is made; numpy would wrap -1
    # to the last row, and the kernel reads raw memory
    model, shape, _ = small_problem(seed=9)
    n, k = shape.n_entities, shape.n_relations
    config = TrainConfig(epochs=1, radius=5.0)
    for column, bad in (("heads", -1), ("tails", n), ("rels", k),
                        ("rels", -1)):
        _, _, broken = small_problem(seed=9)
        getattr(broken, column)[len(broken) // 2] = bad
        with pytest.raises(ValueError, match="index out of range"):
            train(model, shape, broken, config)


def test_train_raises_on_non_finite_objective():
    from mrnet.simulation import ExperimentGrid, GenSpec, run_grid

    model, shape, obs = small_problem(seed=10)
    # a finite radius no row reaches: coordinates of about 1e150 (or steps
    # of 1e140) stay inside it, while scores, products of three such
    # coordinates, overflow
    huge = 1e300
    with np.errstate(all="ignore"):
        # non-finite at the initial point ...
        with pytest.raises(ValueError, match="objective is nan after 0 epochs"):
            train(model, shape, obs, TrainConfig(
                epochs=2, radius=huge, init_scale=1e150))
        # ... and after a step that leaves the representable range
        with pytest.raises(ValueError, match="after 1 epochs"):
            train(model, shape, obs, TrainConfig(
                epochs=2, radius=huge, learning_rate=1e140))
        # a grid cell still records the failure instead of raising
        grid = ExperimentGrid(
            gen=GenSpec(model, NetworkShape(6, 2), seed=3),
            train=TrainConfig(epochs=2, radius=huge, init_scale=1e150),
            entity_counts=(6,), obs_rates=(1.0,), fit_radius_from_truth=False)
        (row,) = run_grid(grid)
    assert row.error == "ValueError: objective is nan after 0 epochs"
    assert math.isnan(row.avg_kl)


TRAIN_TESTS = [
    test_train_improves_objective_and_respects_radius,
    test_train_trace_starts_at_init_objective,
    test_train_deterministic_per_seed,
    test_train_sparsity_cap_enforced,
    test_train_rejects_bad_inputs,
    test_train_l1_penalty_shrinks_parameters,
    test_train_rejects_out_of_range_indices,
    test_train_raises_on_non_finite_objective,
]


@pytest.mark.parametrize("check", TRAIN_TESTS, ids=lambda f: f.__name__[5:])
def test_numpy_loop(numpy_loop, check):
    """The train tests above, on the numpy fallback instead of the kernel."""
    check()


def sequential_train(model, shape, obs, config):
    """``train``'s loop one epoch per call, each drawing its order from
    the generator just before it, with the cap, the nonzero count and
    the objective in numpy."""
    rng = np.random.default_rng(config.seed)
    params = _init_params(model, shape, config, rng)
    g2 = (np.zeros_like(params.entities), np.zeros_like(params.relations))
    uncapped = dataclasses.replace(config, sparsity_cap=None)
    fit = _kernel.engine().fit(model, params, *g2, obs, uncapped)

    def objective():
        return penalized_objective(model, params, obs, config.rho1,
                                   config.rho2)

    trace, nnz = [objective()], [_nnz(params)]
    for _ in range(config.epochs):
        fit.run(rng, 1)
        if config.sparsity_cap is not None:
            capped = project_l0(params, config.sparsity_cap)
            params.entities[...] = capped.entities
            params.relations[...] = capped.relations
        trace.append(objective())
        nnz.append(_nnz(params))
    return params, np.asarray(trace), np.asarray(nnz, dtype=np.int64)


def call_on(path, fn, *args, **kwargs):
    """Call ``fn`` on this thread ("inline") or on a thread started for
    it ("thread") with this thread's numpy error state, and return
    what it returns or raise what it raises."""
    if path == "inline":
        return fn(*args, **kwargs)
    return run_on_threads(lambda: fn(*args, **kwargs), 1)[0]


def run_on_threads(fn, count):
    """Call ``fn`` on ``count`` new threads at once, each with this
    thread's numpy error state; return their results or raise the first
    error."""
    errstate, results = np.geterr(), [None] * count

    def target(i):
        try:
            with np.errstate(**errstate):
                results[i] = ("value", fn())
        except BaseException as exc:  # re-raised on the calling thread
            results[i] = ("error", exc)

    workers = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for kind, value in results:
        if kind == "error":
            raise value
    return [value for _, value in results]


def assert_same_fit(got, params, trace, nnz, traced):
    """``got`` holds ``params`` and ``nnz``, the final objective
    ``trace[-1]`` and, when ``traced``, the whole ``trace``."""
    assert_same_bits(got.params.entities, params.entities)
    assert_same_bits(got.params.relations, params.relations)
    assert_same_bits(got.nnz_trace, nnz)
    assert float(got.objective).hex() == float(trace[-1]).hex()
    if traced:
        assert_same_bits(got.objective_trace, trace)
    else:
        assert got.objective_trace is None


def spy_on_fits(monkeypatch):
    """Record each ``run`` of the engine's fits as ("run", epochs), with
    the thread count seen inside it."""
    engine, calls = _kernel.engine(), []

    class Spy:
        def __init__(self, fit):
            self.fit = fit

        def run(self, rng, epochs):
            calls.append(("run", epochs, threading.active_count()))
            return self.fit.run(rng, epochs)

        def scores(self):
            return self.fit.scores()

    def fit(*args, real=engine.fit):
        return Spy(real(*args))

    monkeypatch.setattr(engine, "fit", fit)
    return calls


@pytest.mark.parametrize("rho", [(0.0, 0.0), (0.01, 0.02)],
                         ids=["plain", "penalty"])
@pytest.mark.parametrize("cap", [None, 9], ids=["nocap", "cap9"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("loaded", scoring_paths(),
                         ids=lambda loaded: "numpy" if loaded is None
                         else "kernel")
def test_train_matches_one_epoch_per_call(monkeypatch, loaded, kind, cap,
                                          rho):
    # an untraced fit runs all its epochs in one call, which draws each
    # epoch's order just before it: the same fit, bit for bit, as one
    # epoch per call
    monkeypatch.setattr(_kernel, "_loaded", loaded)
    _, shape, obs = small_problem(seed=15)
    model = ScoreModel(kind, 2)
    config = TrainConfig(epochs=7, learning_rate=0.3, batch_size=50,
                         rho1=rho[0], rho2=rho[1], radius=0.8, seed=3,
                         sparsity_cap=cap)
    params, trace, nnz = sequential_train(model, shape, obs, config)
    if cap is not None:  # the cap binds
        assert nnz.max() == cap
    calls = spy_on_fits(monkeypatch)
    for traced in (True, False):
        calls.clear()
        got = train(model, shape, obs, config, trace=traced)
        assert_same_fit(got, params, trace, nnz, traced)
        # traced: one epoch per run; else one run of all 7 epochs
        assert [c[:-1] for c in calls] == (
            [("run", 1)] * 7 if traced else [("run", 7)])


@pytest.mark.parametrize("cap", [None, 20])
@pytest.mark.parametrize("loaded", scoring_paths())
def test_train_is_bit_identical_inline_and_on_other_threads(monkeypatch,
                                                            loaded, cap):
    # on two threads the caller starts, two fits at once: the compiled
    # kernel runs without the GIL, so they overlap and would show any
    # state they shared
    monkeypatch.setattr(_kernel, "_loaded", loaded)
    model, shape, obs = small_problem(seed=12)
    config = TrainConfig(epochs=4, learning_rate=0.3, batch_size=50,
                         rho1=0.01, rho2=0.02, radius=0.8, seed=9,
                         sparsity_cap=cap)
    params, trace, nnz = sequential_train(model, shape, obs, config)
    calls = spy_on_fits(monkeypatch)
    for traced in (True, False):
        calls.clear()
        got = train(model, shape, obs, config, trace=traced)
        assert_same_fit(got, params, trace, nnz, traced)
        # traced: a run of 1 epoch per epoch; else one run of 4 epochs
        per_fit = 4 if traced else 1
        assert len(calls) == per_fit
        for got in run_on_threads(
                lambda: train(model, shape, obs, config, trace=traced), 2):
            assert_same_fit(got, params, trace, nnz, traced)
        assert len(calls) == 3 * per_fit


# plain gradient steps, one per epoch: an adagrad_eps far above every
# sqrt(g2) leaves a step of learning_rate / adagrad_eps times the full
# gradient, under which the scores grow until they overflow; each rate
# sits at least a factor 10^3 inside the span of rates that make the
# given epoch the first with a NaN objective, on both engines
OVERFLOW_RATES = {2: 1e242, 4: 1e210}


@pytest.mark.parametrize("path", ["inline", "thread"])
@pytest.mark.parametrize("bad_epoch", [2, 4])  # a middle and the last
def test_non_finite_objective_names_its_epoch(monkeypatch, path, bad_epoch):
    model, shape, obs = small_problem(seed=13)
    config = TrainConfig(epochs=4, batch_size=len(obs), radius=1e300,
                         adagrad_eps=1e200,
                         learning_rate=OVERFLOW_RATES[bad_epoch])
    for loaded in scoring_paths():
        monkeypatch.setattr(_kernel, "_loaded", loaded)
        # the bad epoch in the middle or at the end of an untraced fit's
        # one run: 0, 2 or 6 epochs after it, whose parameters the final
        # check finds; a traced fit runs one epoch per call
        for epochs in {4, bad_epoch, bad_epoch + 6}:
            for traced in (True, False):
                with np.errstate(all="ignore"), pytest.raises(
                        ValueError, match=f"^objective is nan after "
                                          f"{bad_epoch} epochs$"):
                    call_on(path, train, model, shape, obs,
                            dataclasses.replace(config, epochs=epochs),
                            trace=traced)
    # one epoch fewer is finite
    finite = call_on(path, train, model, shape, obs,
                     dataclasses.replace(config, epochs=bad_epoch - 1),
                     trace=True)
    assert np.isfinite(finite.objective_trace).all()


@pytest.mark.parametrize("path", ["inline", "thread"])
def test_overflowed_adagrad_state_is_an_error(monkeypatch, path):
    # a squared gradient past the float range makes g2 inf, so every
    # later step of its entry is 0: the fit used to stall with a finite
    # objective trace (-1.2e308 from epoch 1 on) and no error
    _, shape, obs = small_problem(seed=13)
    model = ScoreModel("distance", 2)
    config = TrainConfig(epochs=6, learning_rate=10 ** 152.5, radius=1e300)
    for loaded in scoring_paths():
        monkeypatch.setattr(_kernel, "_loaded", loaded)
        # the state overflows in the first epoch: at the end of a run of
        # one epoch, and with five more after it in the same run
        for epochs in (1, 6):
            for traced in (True, False):
                with np.errstate(all="ignore"), pytest.raises(
                        ValueError, match="squared-gradient sums overflowed"):
                    call_on(path, train, model, shape, obs,
                            dataclasses.replace(config, epochs=epochs),
                            trace=traced)
        # a rate 10^6 times smaller keeps the state finite
        result = call_on(path, train, model, shape, obs, dataclasses.replace(
            config, learning_rate=10 ** 146.5), trace=True)
        assert np.isfinite(result.objective_trace).all()


@pytest.mark.parametrize("path", ["inline", "thread"])
def test_train_leaves_no_thread_behind(monkeypatch, path):
    # not even where two cores are usable: each checks the thread count
    # from inside the engine's calls, not only once it has returned; on
    # a thread the test starts, that thread is the only one added
    monkeypatch.setattr(_kernel, "_cores", lambda: 2)
    model, shape, obs = small_problem(seed=14)
    before = threading.active_count()
    inside = before + (path == "thread")
    for loaded in scoring_paths():
        monkeypatch.setattr(_kernel, "_loaded", loaded)
        calls = spy_on_fits(monkeypatch)
        for traced in (True, False):
            result = call_on(path, train, model, shape, obs,
                             TrainConfig(epochs=3, batch_size=50),
                             trace=traced)
        assert calls and all(c[-1] == inside for c in calls)
        engine, seen = _kernel.engine(), []
        for name in ("slot_scores", "edge_scores"):
            def spy(*args, real=getattr(engine, name)):
                seen.append(threading.active_count())
                return real(*args)
            monkeypatch.setattr(engine, name, spy)
        call_on(path, evaluate_losses, model, result.params, result.params,
                shape=shape)
        call_on(path, evaluate_losses, model, result.params, result.params,
                edges=(obs.heads, obs.tails, obs.rels))
        assert len(seen) == 4 and set(seen) == {inside}
        assert threading.active_count() == before
