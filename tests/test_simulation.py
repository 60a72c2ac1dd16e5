import concurrent.futures
import contextlib
import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import given, settings, strategies as st
from scipy import stats

from mrnet import _kernel
from mrnet._rng import counter_uniforms, derive_seed
from mrnet._edges import edge_key
from mrnet.models import NetworkShape, ScoreModel
from mrnet.simulation import (
    _binomial,
    _flip,
    ExperimentGrid,
    GenSpec,
    GridRow,
    generate_truth,
    run_grid,
    sample_network,
    sample_observations,
    write_grid_csv,
    GRID_CSV_HEADER,
)
from mrnet.estimation import TrainConfig


def linear(obs):
    """Linear edge indices (h*N + t)*K + r of an ObservationSet."""
    return edge_key(obs.heads, obs.tails, obs.rels, obs.shape.n_entities,
                    obs.shape.n_relations)


def tiny_spec(kind="combined", n=10, k=2, d=2, rate=1.0, seed=0, **kw):
    model = ScoreModel(kind, d)
    return GenSpec(model, NetworkShape(n, k, rate), seed=seed, **kw)


def test_derive_seed_is_order_sensitive_and_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
    assert derive_seed(0) != derive_seed(0, 0)
    assert 0 <= derive_seed(12345) < 2 ** 64


def test_counter_uniforms_basics():
    u = counter_uniforms(99, np.arange(10_000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert_array_equal(u, counter_uniforms(99, np.arange(10_000)))
    # order independence: value depends only on the counter
    idx = np.array([17, 3, 17, 900])
    v = counter_uniforms(99, idx)
    assert v[0] == v[2] == u[17]
    assert v[1] == u[3]
    # rough uniformity at a fixed seed
    hist, _ = np.histogram(u, bins=20, range=(0, 1))
    assert stats.chisquare(hist).pvalue > 1e-3


@settings(max_examples=100, deadline=None)
@given(key=st.integers(-2 ** 70, 2 ** 70),
       counters=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                         max_size=40),
       data=st.data())
def test_counter_uniforms_order_independent(key, counters, data):
    perm = np.array(data.draw(st.permutations(range(len(counters)))))
    arr = np.array(counters, dtype=np.uint64)
    u = counter_uniforms(key, arr)
    assert_array_equal(counter_uniforms(key, arr[perm]), u[perm])
    for c, value in zip(counters, u):
        assert counter_uniforms(key, c)[0] == value
    assert ((0.0 <= u) & (u < 1.0)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["entity_sd", "shift_sd", "weight_sd",
                                   "truncation"])
def test_gen_spec_rejects_non_finite(field, bad):
    # weight_sd = inf made _truncated_normal redraw inf forever, and
    # entity_sd or truncation = nan gave NaN truths or a NaN radius
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        tiny_spec(**{field: bad})


def test_generate_truth_shapes_and_radius():
    for kind, rdim in (("distance", 3), ("bilinear", 2), ("combined", 4)):
        spec = tiny_spec(kind=kind)
        truth = generate_truth(spec)
        assert truth.entities.shape == (10, 2)
        assert truth.relations.shape == (2, rdim)
        assert truth.radius == pytest.approx(20.0 * np.sqrt(max(2, rdim)))
        truth.validate()


def test_generate_truth_deterministic_and_seed_sensitive():
    a = generate_truth(tiny_spec(seed=5))
    b = generate_truth(tiny_spec(seed=5))
    c = generate_truth(tiny_spec(seed=6))
    assert_array_equal(a.entities, b.entities)
    assert_array_equal(a.relations, b.relations)
    assert not np.array_equal(a.entities, c.entities)


def test_generate_truth_truncation_respected():
    spec = tiny_spec(n=200, entity_sd=3.0, shift_sd=3.0, weight_sd=3.0,
                     truncation=1.0)
    truth = generate_truth(spec)
    assert np.abs(truth.entities).max() <= 1.0
    assert np.abs(truth.relations).max() <= 1.0


def test_generate_truth_coordinate_scales():
    # with a wide truncation the coordinate sds are what was asked for
    spec = tiny_spec(kind="distance", n=400, k=50, d=4,
                     entity_sd=1.0, shift_sd=2.0, weight_sd=0.5)
    truth = generate_truth(spec)
    assert truth.entities.std() == pytest.approx(1.0, rel=0.1)
    assert truth.relations[:, :4].std() == pytest.approx(2.0, rel=0.1)
    assert truth.relations[:, 4].std() == pytest.approx(0.5, rel=0.2)


def test_label_sampler_deterministic_and_order_free():
    spec = tiny_spec(seed=3)
    truth = generate_truth(spec)
    s1 = sample_network(spec.model, truth, spec.shape, seed=11)
    s2 = sample_network(spec.model, truth, spec.shape, seed=11)
    hs = np.array([0, 3, 7, 0]); ts = np.array([1, 2, 9, 1])
    rs = np.array([0, 1, 1, 0])
    assert_array_equal(s1.labels(hs, ts, rs), s2.labels(hs, ts, rs))
    # querying a permutation returns the permuted labels
    perm = np.array([2, 0, 3, 1])
    assert_array_equal(s1.labels(hs[perm], ts[perm], rs[perm]),
                       s1.labels(hs, ts, rs)[perm])
    s3 = sample_network(spec.model, truth, spec.shape, seed=12)
    all_h, all_t, all_r = np.meshgrid(np.arange(10), np.arange(10),
                                      np.arange(2), indexing="ij")
    flat = (all_h.ravel(), all_t.ravel(), all_r.ravel())
    assert not np.array_equal(s1.labels(*flat), s3.labels(*flat))


def test_label_sampler_frequency_tracks_probability():
    # across the whole universe, label frequency ~ mean edge probability
    spec = tiny_spec(n=40, k=3, entity_sd=0.5, shift_sd=0.5, weight_sd=0.5)
    truth = generate_truth(spec)
    sampler = sample_network(spec.model, truth, spec.shape, seed=0)
    hs, ts, rs = np.meshgrid(np.arange(40), np.arange(40), np.arange(3),
                             indexing="ij")
    hs, ts, rs = hs.ravel(), ts.ravel(), rs.ravel()
    probs = sampler.probabilities(hs, ts, rs)
    freq = sampler.labels(hs, ts, rs).mean()
    sd = np.sqrt((probs * (1 - probs)).sum()) / len(probs)
    assert abs(freq - probs.mean()) < 5 * sd


def test_sample_observations_rate_edges():
    spec = tiny_spec(rate=1.0)
    truth = generate_truth(spec)
    sampler = sample_network(spec.model, truth, spec.shape, seed=1)
    full = sample_observations(spec.shape, sampler, seed=1)
    assert len(full) == spec.shape.n_edges
    lin = linear(full)
    assert_array_equal(np.sort(lin), np.arange(spec.shape.n_edges))
    assert_array_equal(full.labels,
                       sampler.labels(full.heads, full.tails, full.rels))

    none = sample_observations(NetworkShape(10, 2, 0.0), sampler, seed=1)
    assert len(none) == 0
    assert [c.dtype for c in (none.heads, none.tails, none.rels,
                              none.labels)] == [np.int64] * 3 + [np.int8]


@pytest.mark.parametrize("draw", [_flip, _binomial],
                         ids=["flip", "binomial"])
def test_rates_0_and_1_draw_no_slot_and_every_slot(draw):
    # sample_observations has no special case for these rates
    total = NetworkShape(20, 3).n_edges
    none = draw(np.random.default_rng(9), total, 0.0)
    every = draw(np.random.default_rng(9), total, 1.0)
    assert none.dtype == every.dtype == np.int64
    assert len(none) == 0
    assert_array_equal(every, np.arange(total))


@pytest.mark.parametrize("draw", [_flip, _binomial],
                         ids=["flip", "binomial"])
def test_sample_observations_count_and_distinctness(draw):
    total = NetworkShape(20, 3, 0.3).n_edges
    lin = draw(np.random.default_rng(9), total, 0.3)
    assert lin.dtype == np.int64
    assert len(np.unique(lin)) == len(lin)
    assert lin.min() >= 0 and lin.max() < total
    sd = np.sqrt(total * 0.3 * 0.7)
    assert abs(len(lin) - 0.3 * total) < 5 * sd
    assert_array_equal(lin, draw(np.random.default_rng(9), total, 0.3))


def test_sample_observations_methods_agree_in_distribution():
    # the two subset samplers induce the same distribution: compare the
    # per-edge inclusion counts over many seeds with a chi-square test
    total = NetworkShape(5, 2, 0.4).n_edges
    reps = 300
    counts = {}
    sizes = {}
    for draw in (_flip, _binomial):
        inc = np.zeros(total)
        size = np.empty(reps)
        for s in range(reps):
            lin = draw(np.random.default_rng(s), total, 0.4)
            inc[lin] += 1
            size[s] = len(lin)
        counts[draw] = inc
        sizes[draw] = size
    # inclusion frequency per edge: Binomial(reps, 0.4) either way
    for draw in (_flip, _binomial):
        z = (counts[draw] - reps * 0.4) / np.sqrt(reps * 0.4 * 0.6)
        assert np.abs(z).max() < 5
    assert stats.ks_2samp(sizes[_flip], sizes[_binomial]).pvalue > 1e-3


def grid_for_test(**overrides):
    spec = tiny_spec(n=8, k=2, d=2, entity_sd=0.5, shift_sd=0.5,
                     weight_sd=0.5, seed=13)
    train = TrainConfig(epochs=3, learning_rate=0.3, batch_size=32, seed=0)
    defaults = dict(gen=spec, train=train, entity_counts=(6, 8),
                    obs_rates=(1.0,), replicates=2)
    defaults.update(overrides)
    return ExperimentGrid(**defaults)


@pytest.mark.parametrize("key, value, message", [pytest.param(
    *case, id=f"{case[0]}={case[1]!r}") for case in [
    ("replicates", 0, "replicates must be an integer >= 1, got 0"),
    ("replicates", 1.5, "replicates must be an integer >= 1, got 1.5"),
    ("eval_cap", 0, "eval_cap must be an integer >= 1, got 0"),
    ("entity_counts", [], "entity_counts must list at least one value"),
    ("entity_counts", [6, 6.5],
     "entity_counts[1] must be an integer >= 1, got 6.5"),
    ("entity_counts", [0], "entity_counts[0] must be an integer >= 1, got 0"),
    ("obs_rates", (), "obs_rates must list at least one value"),
    ("obs_rates", [1.5], "obs_rates[0] must be finite and in [0, 1], got 1.5"),
    ("obs_rates", [0.5, float("nan")],
     "obs_rates[1] must be finite and in [0, 1], got nan"),
]])
def test_grid_refuses_bad_settings_when_made(key, value, message):
    # these used to give no rows (a header-only CSV), NaN rows for every
    # cell, or, for 6.5, cells of N = 6
    with pytest.raises(ValueError) as err:
        grid_for_test(**{key: value})
    assert str(err.value) == message


def test_grid_is_frozen():
    # replicates = 0 set after the checks made run_grid return no rows
    grid = grid_for_test(obs_rates=[1.0])
    for name, value in (("replicates", 0), ("obs_rates", [2.0])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, name, value)
    # the lists are kept as tuples, so no entry changes in place either
    with pytest.raises(TypeError):
        grid.obs_rates[0] = 2.0
    assert dataclasses.replace(grid, replicates=1).replicates == 1


def test_grid_takes_numpy_counts():
    grid = grid_for_test(entity_counts=np.array([6, 8]),
                         replicates=np.int64(1), obs_rates=np.array([0.5]))
    assert grid.cells() == [(6, 0.5), (8, 0.5)]


def test_run_grid_rows_and_determinism():
    grid = grid_for_test()
    rows = run_grid(grid)
    assert [(r.n_entities, r.obs_rate, r.replicate) for r in rows] == \
        [(6, 1.0, 0), (6, 1.0, 1), (8, 1.0, 0), (8, 1.0, 1)]
    assert all(r.error is None for r in rows)
    assert all(np.isfinite(r.avg_kl) and r.avg_kl >= 0 for r in rows)
    assert all(r.eval_exact for r in rows)
    assert all(r.n_evaluated == r.n_entities ** 2 * 2 for r in rows)
    # replicates use different seeds
    assert rows[0].avg_kl != rows[1].avg_kl
    rerun = run_grid(grid)
    for a, b in zip(rows, rerun):
        assert (a.avg_kl, a.mse_phi, a.link_err) == (b.avg_kl, b.mse_phi,
                                                     b.link_err)


@pytest.mark.parametrize("n_workers", [0, -2])
def test_run_grid_refuses_fewer_than_one_worker(n_workers):
    # min(-2, jobs) used to run the grid on one worker
    with pytest.raises(ValueError, match=f"n_workers must be an integer "
                                         f">= 1, got {n_workers}"):
        run_grid(grid_for_test(), n_workers=n_workers)


def _fields(row):
    return {k: v for k, v in dataclasses.asdict(row).items() if k != "seconds"}


def _pools(monkeypatch, executor):
    """The keyword arguments of every pool that ``run_grid`` builds from
    ``executor``, put where ``run_grid`` looks its pool class up."""
    built = []

    class Spy(executor):
        def __init__(self, **kwargs):
            built.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return built


class _InlinePool:
    """A process pool that starts no process: ``map`` runs in the caller."""

    def __init__(self, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@contextlib.contextmanager
def _other_thread():
    """A second Python thread in this process while the block runs."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


@pytest.mark.parametrize("cores, n_workers, pools", [
    (2, 64, [2]), (1, 2, []), (8, 3, [3])])
def test_run_grid_workers_capped_by_cores(monkeypatch, cores, n_workers, pools):
    # 64 workers on 2 cores used to start 64 interpreters
    grid = grid_for_test(replicates=4)  # 8 jobs
    serial = run_grid(grid)
    built = _pools(monkeypatch, _InlinePool)
    monkeypatch.setattr(_kernel, "_cores", lambda: cores)
    methods = []
    for threaded in (False, True):
        with _other_thread() if threaded else contextlib.nullcontext():
            # a fork would copy another thread's held locks into the workers
            fork = sys.platform == "linux" and threading.active_count() == 1
            methods += ["fork" if fork else "spawn"] * len(pools)
            rows = run_grid(grid, n_workers=n_workers)
        assert [_fields(r) for r in rows] == [_fields(r) for r in serial]
    assert [kw["max_workers"] for kw in built] == pools * 2
    assert [kw["mp_context"].get_start_method() for kw in built] == methods


@pytest.mark.skipif(_kernel._cores() < 2, reason="one usable core: "
                    "run_grid runs inline, so there is no pool to compare")
def test_run_grid_parallel_matches_serial(monkeypatch):
    grid = grid_for_test()
    serial = run_grid(grid, n_workers=1)
    built = _pools(monkeypatch, concurrent.futures.ProcessPoolExecutor)
    # 5 workers is more than the 4 jobs
    for n_workers in (2, 5):
        parallel = run_grid(grid, n_workers=n_workers)
        assert [_fields(r) for r in parallel] == [_fields(r) for r in serial]
    assert len(built) == 2 and all(kw["max_workers"] >= 2 for kw in built)


@pytest.mark.skipif(_kernel._cores() < 2, reason="one usable core: "
                    "run_grid runs inline, so there is no pool to compare")
def test_run_grid_spawns_beside_another_thread(monkeypatch):
    grid = grid_for_test()
    serial = run_grid(grid)
    built = _pools(monkeypatch, concurrent.futures.ProcessPoolExecutor)
    with _other_thread():
        rows = run_grid(grid, n_workers=2)
    assert [kw["mp_context"].get_start_method() for kw in built] == ["spawn"]
    assert [_fields(r) for r in rows] == [_fields(r) for r in serial]


@pytest.mark.skipif(_kernel._cores() < 2, reason="one usable core: "
                    "run_grid runs inline, so there are no workers")
def test_run_grid_workers_run_the_callers_mrnet(tmp_path):
    # the caller imports copy "a" from a path it adds at run time, while
    # PYTHONPATH names another copy.  A forked worker keeps the caller's
    # modules; a spawned one (beside a second thread) imports mrnet and
    # the main module again, on the caller's sys.path.  Both run copy "a"
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    copy = tmp_path / "a" / "mrnet"
    shutil.copytree(os.path.join(src, "mrnet"), copy)
    with open(copy / "simulation.py", "a", encoding="utf-8") as fh:
        fh.write("\nimport sys\n"
                 "_run_replicate = run_replicate\n"
                 "def run_replicate(*args):\n"
                 "    main = sys.modules['__main__'].__name__\n"
                 "    return dataclasses.replace(\n"
                 "        _run_replicate(*args), error=f'{__file__} {main}')\n")
    grid_file = tmp_path / "grid.pkl"
    grid_file.write_bytes(pickle.dumps(grid_for_test(entity_counts=(6,))))
    code = ("import json, pickle, sys, threading\n"
            f"sys.path.insert(0, {str(tmp_path / 'a')!r})\n"
            "from mrnet.simulation import run_grid\n"
            "if __name__ == '__main__':\n"
            f"    grid = pickle.loads(open({str(grid_file)!r}, 'rb').read())\n"
            "    done = threading.Event()\n"
            "    if sys.argv[1:] == ['threaded']:\n"
            "        threading.Thread(target=done.wait).start()\n"
            "    rows = run_grid(grid, 2)\n"
            "    done.set()\n"
            "    print(json.dumps([r.error for r in rows]))\n")
    script = tmp_path / "caller.py"
    script.write_text(code, encoding="utf-8")
    for threaded in (False, True):
        out = subprocess.run(
            [sys.executable, str(script)] + ["threaded"] * threaded,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, check=True,
            capture_output=True, text=True).stdout
        main = ("__main__" if sys.platform == "linux" and not threaded
                else "__mp_main__")
        assert json.loads(out) == [f"{copy / 'simulation.py'} {main}"] * 2


@pytest.mark.skipif(_kernel._cores() < 2, reason="one usable core: "
                    "run_grid runs inline, so there are no workers")
def test_run_grid_refuses_to_spawn_for_a_script_from_stdin(tmp_path):
    # a spawned worker re-imports the main module from its __file__,
    # "<stdin>" for a script piped to python: each worker used to die with
    # FileNotFoundError, and the grid raised BrokenProcessPool
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    grid_file = tmp_path / "grid.pkl"
    grid_file.write_bytes(pickle.dumps(grid_for_test(entity_counts=(6,))))
    code = ("import pickle, threading\n"
            "from mrnet.simulation import run_grid\n"
            f"grid = pickle.loads(open({str(grid_file)!r}, 'rb').read())\n"
            "done = threading.Event()\n"
            "threading.Thread(target=done.wait).start()\n"
            "try:\n"
            "    print(len(run_grid(grid, 1)))\n"
            "    run_grid(grid, 2)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "finally:\n"
            "    done.set()\n")
    out = subprocess.run([sys.executable, "-"], input=code, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines() == [
        "2", "run_grid cannot spawn workers: they re-import the main module "
        "from '<stdin>', which is not a file (a script read from stdin?); "
        "run the caller from a file, or pass n_workers=1"]


class _ExitOnUnpickle:
    """Unpickles as a call that ends the process doing the unpickling."""

    def __reduce__(self):
        return os._exit, (70,)


def test_run_grid_marks_failed_cells(monkeypatch):
    # two workers even on one usable core: the rows do not depend on it
    monkeypatch.setattr(_kernel, "_cores", lambda: 2)
    # a zero observation rate gives an empty training set -> failure row
    grid = grid_for_test(obs_rates=(0.0,), replicates=1)
    serial = run_grid(grid)
    assert len(serial) == 2
    for r in serial:
        assert r.error is not None
        assert np.isnan(r.avg_kl)
    # error rows come back from worker processes with the same text
    parallel = run_grid(grid, n_workers=2)
    assert [r.error for r in parallel] == [r.error for r in serial]
    assert all(np.isnan(r.avg_kl) for r in parallel)
    # a worker process that dies is not a failed cell: the pool error
    # propagates instead of becoming NaN rows
    poisoned = grid_for_test(replicates=1,
                             fit_radius_from_truth=_ExitOnUnpickle())
    with pytest.raises(BrokenProcessPool):
        run_grid(poisoned, n_workers=2)
    # a dead worker breaks only its own pool: the next one runs
    grid = grid_for_test()
    assert [_fields(r) for r in run_grid(grid, n_workers=2)] == \
        [_fields(r) for r in run_grid(grid)]


def test_run_grid_eval_subsample():
    grid = grid_for_test(eval_cap=50, replicates=1)
    rows = run_grid(grid)
    assert all(not r.eval_exact for r in rows)
    assert all(r.n_evaluated == 50 for r in rows)


def test_write_grid_csv_format(tmp_path):
    rows = [GridRow(10, 0.25, 0, 0.123456789123, 1.5, 0.0625, 2.5),
            GridRow(10, 0.25, 1, float("nan"), float("nan"), float("nan"),
                    float("nan"), error="boom")]
    path = tmp_path / "out.csv"
    write_grid_csv(rows, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == GRID_CSV_HEADER
    assert lines[1] == "10,0.25,0,0.123456789,1.5,0.0625,0"
    assert lines[2].startswith("10,0.25,1,nan,nan,nan,")
    # timing off by default -> byte-identical rewrite
    path2 = tmp_path / "out2.csv"
    write_grid_csv(rows, path2)
    assert path2.read_bytes() == path.read_bytes()
    timed = tmp_path / "timed.csv"
    write_grid_csv(rows, timed, include_timing=True)
    assert timed.read_text().strip().split("\n")[1].endswith(",2.5")
