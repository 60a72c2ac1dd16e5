"""``train`` in blocks of epochs: any block size gives what one epoch at
a time gives, bit for bit, and a block's orders are the permutations
that one ``rng.permutation`` per epoch draws."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mrnet import _kernel, estimation
from mrnet.estimation import TrainConfig, _orders, train
from mrnet.models import MODEL_KINDS, ScoreModel

from test_estimation import (assert_same_fit, sequential_train, small_problem,
                             spy_on_fits)
from test_evaluation import scoring_paths


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
            # traced: the objective at init, then one epoch per run and
            # the objective after each; else runs of the block size and
            # the objective once, at the end
            assert [c[:-1] for c in calls] == (
                [("objective",)] + [("run", 1), ("objective",)] * 7
                if traced else
                [("run", epochs) for epochs in runs] + [("objective",)])
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
