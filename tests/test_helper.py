"""The training loop and the loss scan, both on the calling thread:
``train``, with its objective trace and without, in blocks of any size,
gives what one epoch at a time gives, bit for bit, called inline or on a
helper thread of the caller's; a failure names its epoch; and neither
``train`` nor ``evaluate_losses`` starts a thread."""

import dataclasses
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mrnet import _kernel, evaluation, estimation
from mrnet.estimation import (TrainConfig, _init_params, _nnz, _orders,
                              _penalty, log_likelihood, project_l0, train)
from mrnet.evaluation import _kl, _kl_into, evaluate_losses
from mrnet.models import (MODEL_KINDS, NetworkShape, ScoreModel,
                          _sigmoid_into, scores, sigmoid)

from test_estimation import make_params, small_problem
from test_evaluation import scoring_paths


def sequential_train(model, shape, obs, config):
    """``train``'s loop one epoch per call: every epoch's order drawn
    just before it by ``rng.permutation``, and the cap, the nonzero count
    and the objective in numpy."""
    rng = np.random.default_rng(config.seed)
    params = _init_params(model, shape, config, rng)
    g2 = (np.zeros_like(params.entities), np.zeros_like(params.relations))
    uncapped = dataclasses.replace(config, sparsity_cap=None)
    fit = _kernel.engine().fit(model, params, *g2, obs, uncapped)

    def objective():
        return (log_likelihood(model, params, obs)
                - _penalty(params, config.rho1, config.rho2))

    trace, nnz = [objective()], [_nnz(params)]
    for _ in range(config.epochs):
        fit.run(rng.permutation(len(obs))[None], np.empty(1, dtype=np.int64))
        if config.sparsity_cap is not None:
            capped = project_l0(params, config.sparsity_cap)
            params.entities[...] = capped.entities
            params.relations[...] = capped.relations
        trace.append(objective())
        nnz.append(_nnz(params))
    return params, np.asarray(trace), np.asarray(nnz, dtype=np.int64)


def call_on(path, fn, *args, **kwargs):
    """Call ``fn`` on this thread ("inline") or on a helper thread started
    for it ("thread") with this thread's numpy error state, and return
    what it returns or raise what it raises."""
    if path == "inline":
        return fn(*args, **kwargs)
    return run_on_threads(lambda: fn(*args, **kwargs), 1)[0]


def run_on_threads(fn, count):
    """Call ``fn`` on ``count`` helper threads at once, each with this
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


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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
    """Record each call of the engine's fits, ("run", epochs, whether it
    writes objectives) or ("objective",), with the thread count seen
    inside it."""
    engine, calls = _kernel.engine(), []

    class Spy:
        def __init__(self, fit):
            self.fit = fit

        def run(self, perms, nnz_out, obj_out=None):
            calls.append(("run", len(perms), obj_out is not None,
                          threading.active_count()))
            return self.fit.run(perms, nnz_out, obj_out)

        def objective(self):
            calls.append(("objective", threading.active_count()))
            return self.fit.objective()

    def fit(*args, real=engine.fit):
        return Spy(real(*args))

    monkeypatch.setattr(engine, "fit", fit)
    return calls


@pytest.mark.parametrize("cap", [None, 20])
@pytest.mark.parametrize("loaded", scoring_paths())
def test_train_is_bit_identical_inline_and_on_the_helper(monkeypatch, loaded,
                                                         cap):
    # on a helper thread of the caller's, two fits at once: the compiled
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
        assert len(calls) == 2  # one run of 4 epochs and one objective
        for got in run_on_threads(
                lambda: train(model, shape, obs, config, trace=traced), 2):
            assert_same_fit(got, params, trace, nnz, traced)
        assert len(calls) == 6


@pytest.mark.parametrize("rho", [(0.0, 0.0), (0.01, 0.02)])
@pytest.mark.parametrize("cap", [None, 9])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("loaded", scoring_paths())
def test_blocks_of_epochs_are_bit_identical_to_one_at_a_time(
        monkeypatch, loaded, kind, cap, rho):
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
    order_bytes = 8 * len(obs)
    for block, runs in ((1, [1] * 7), (3, [3, 3, 1]), (7, [7]), (100, [7])):
        monkeypatch.setattr(estimation, "_ORDER_BYTES", block * order_bytes)
        for traced in (True, False):
            calls.clear()
            got = train(model, shape, obs, config, trace=traced)
            assert_same_fit(got, params, trace, nnz, traced)
            # the objective once: at init before the runs, which write the
            # rest of the trace, or only at the end, after runs that
            # write none
            assert [c[:-1] for c in calls] == (
                [("objective",)] * traced
                + [("run", epochs, traced) for epochs in runs]
                + [("objective",)] * (not traced))
    # the budget in bytes: a block never holds fewer than one order
    monkeypatch.setattr(estimation, "_ORDER_BYTES", order_bytes - 1)
    calls.clear()
    assert_same_fit(train(model, shape, obs, config), params, trace, nnz,
                    False)
    assert [c[1] for c in calls if c[0] == "run"] == [1] * 7


@pytest.mark.parametrize("n", [1, 2, 72, 1000, 63612])
def test_block_orders_are_sequential_permutations(n):
    for count in (1, 3):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        orders = _orders(rng, n, count)
        assert orders.dtype == np.int64 and orders.flags.c_contiguous
        want = np.stack([ref.permutation(n) for _ in range(count)])
        assert_array_equal(orders, want)
        assert rng.bit_generator.state == ref.bit_generator.state


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
        # blocks of 1, 3, 4 and 100 epochs: the bad epoch alone in its
        # block, or in the middle or at the end of one; and 0, 2 or 6
        # epochs after it, whose parameters the final check finds
        for block in (1, 3, 4, 100):
            monkeypatch.setattr(estimation, "_ORDER_BYTES",
                                block * 8 * len(obs))
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
        for block in (1, 3, 6, 100):
            monkeypatch.setattr(estimation, "_ORDER_BYTES",
                                block * 8 * len(obs))
            for traced in (True, False):
                with np.errstate(all="ignore"), pytest.raises(
                        ValueError, match="squared-gradient sums overflowed"):
                    call_on(path, train, model, shape, obs, config,
                            trace=traced)
        # a rate 10^6 times smaller keeps the state finite
        result = call_on(path, train, model, shape, obs, dataclasses.replace(
            config, learning_rate=10 ** 146.5), trace=True)
        assert np.isfinite(result.objective_trace).all()


@pytest.mark.parametrize("path", ["inline", "thread"])
def test_train_leaves_no_thread_behind(monkeypatch, path):
    # not even where two cores are usable: each checks the thread count
    # from inside the engine's calls, not only once it has returned; on
    # a helper thread, that thread is the only one added
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
def test_split_scan_is_bit_identical(monkeypatch, kind, chunk):
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
