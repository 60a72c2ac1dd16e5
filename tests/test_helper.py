"""The helper thread of ``_kernel.helper``: ``train`` and the loss scan give
the same results bit for bit on one core and on two, and no thread
outlives them."""

import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mrnet import _kernel, evaluation, estimation
from mrnet.estimation import (TrainConfig, _init_params, _nnz, _penalty,
                              log_likelihood, project_l0, train)
from mrnet.evaluation import _kl, _kl_into, evaluate_losses
from mrnet.models import (MODEL_KINDS, NetworkShape, ScoreModel,
                          _sigmoid_into, scores, sigmoid)

from test_estimation import make_params, small_problem
from test_evaluation import scoring_paths


@pytest.fixture(autouse=True)
def fast_switching():
    """Switch threads every 10 us, so a missed wait shows as a race."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def take_path(monkeypatch, path):
    """Make ``_kernel.helper`` run its tasks inline, as on one core, or on
    its thread whatever their size, as on two cores."""
    monkeypatch.setattr(_kernel, "_cores", lambda: 1 if path == "inline" else 2)
    monkeypatch.setattr(_kernel, "_HELPER_WORK", 1)


def sequential_train(model, shape, obs, config):
    """``train``'s loop on one thread, with no snapshot: every epoch's
    order drawn just before it, every objective at the live parameters."""
    rng = np.random.default_rng(config.seed)
    params = _init_params(model, shape, config, rng)
    g2 = (np.zeros_like(params.entities), np.zeros_like(params.relations))
    fit = _kernel.engine().fit(model, params, *g2, obs, config)

    def objective():
        return (log_likelihood(model, params, obs)
                - _penalty(params, config.rho1, config.rho2))

    trace, nnz = [objective()], [_nnz(params)]
    for _ in range(config.epochs):
        fit.epoch(rng.permutation(len(obs)))
        if config.sparsity_cap is not None:
            capped = project_l0(params, config.sparsity_cap)
            params.entities[...] = capped.entities
            params.relations[...] = capped.relations
        trace.append(objective())
        nnz.append(_nnz(params))
    return params, np.asarray(trace), np.asarray(nnz, dtype=np.int64)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cap", [None, 20])
@pytest.mark.parametrize("loaded", scoring_paths())
def test_train_is_bit_identical_inline_and_on_the_helper(monkeypatch, loaded,
                                                         cap):
    monkeypatch.setattr(_kernel, "_loaded", loaded)
    model, shape, obs = small_problem(seed=12)
    config = TrainConfig(epochs=4, learning_rate=0.3, batch_size=50,
                         rho1=0.01, rho2=0.02, radius=0.8, seed=9,
                         sparsity_cap=cap)
    params, trace, nnz = sequential_train(model, shape, obs, config)
    threads = {}
    real_penalty = estimation._penalty

    def spy(params, rho1, rho2):  # where each objective is computed
        threads.setdefault(path, set()).add(threading.current_thread().name)
        return real_penalty(params, rho1, rho2)

    monkeypatch.setattr(estimation, "_penalty", spy)
    for path in ("inline", "thread"):
        take_path(monkeypatch, path)
        got = train(model, shape, obs, config)
        assert_same_bits(got.params.entities, params.entities)
        assert_same_bits(got.params.relations, params.relations)
        assert_same_bits(got.objective_trace, trace)
        assert_same_bits(got.nnz_trace, nnz)
    assert threads["inline"] == {threading.current_thread().name}
    assert all(name.startswith("mrnet-helper") for name in threads["thread"])


@pytest.mark.parametrize("path", ["inline", "thread"])
@pytest.mark.parametrize("bad_epoch", [2, 4])  # a middle and the last
def test_non_finite_objective_names_its_epoch(monkeypatch, path, bad_epoch):
    take_path(monkeypatch, path)
    model, shape, obs = small_problem(seed=13)
    calls = []

    def penalty(params, rho1, rho2):  # called once per epoch, in order
        calls.append(len(calls))
        return np.nan if calls[-1] == bad_epoch else 0.0

    monkeypatch.setattr(estimation, "_penalty", penalty)
    before = threading.active_count()
    with pytest.raises(ValueError,
                       match=f"objective is nan after {bad_epoch} epochs$"):
        train(model, shape, obs, TrainConfig(epochs=4, batch_size=50))
    assert threading.active_count() == before


@pytest.mark.parametrize("path", ["inline", "thread"])
def test_train_leaves_no_thread_behind(monkeypatch, path):
    take_path(monkeypatch, path)
    model, shape, obs = small_problem(seed=14)
    before = threading.active_count()
    train(model, shape, obs, TrainConfig(epochs=3, batch_size=50))
    assert threading.active_count() == before


def test_helper_runs_inline_below_the_size_rule_or_on_one_core(monkeypatch):
    monkeypatch.setattr(_kernel, "_cores", lambda: 2)
    with _kernel.helper(_kernel._HELPER_WORK - 1) as pool:
        assert pool is _kernel._Inline
    with _kernel.helper(_kernel._HELPER_WORK) as pool:
        assert pool is not _kernel._Inline
        assert pool.submit(threading.current_thread).result(timeout=10) \
            is not threading.current_thread()
    monkeypatch.setattr(_kernel, "_cores", lambda: 1)
    with _kernel.helper(10 * _kernel._HELPER_WORK) as pool:
        assert pool is _kernel._Inline


@pytest.mark.parametrize("path", ["inline", "thread"])
def test_helper_tasks_run_in_order_and_raise(monkeypatch, path):
    take_path(monkeypatch, path)
    before = threading.active_count()
    seen = []
    with pytest.raises(KeyError):
        with _kernel.helper(1) as pool:
            futures = [pool.submit(seen.append, i) for i in range(50)]
            with np.errstate(over="ignore"):  # the submitter's errstate holds
                quiet = pool.submit(np.exp, np.float64(1e3))
            assert quiet.result(timeout=10) == np.inf
            assert [f.result(timeout=10) for f in futures] == [None] * 50
            assert seen == list(range(50))
            # raised by submit inline, by result on the thread
            pool.submit({}.__getitem__, "missing").result(timeout=10)
    assert threading.active_count() == before


def sequential_losses(model, fitted, truth, heads, tails, rels, chunk):
    """``evaluate_losses``' totals on one thread: scores, ``sigmoid`` and
    ``_kl`` of each whole chunk, each total adding the chunks' sums."""
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
            for path in ("inline", "thread"):
                take_path(monkeypatch, path)
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
