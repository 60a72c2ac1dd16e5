"""The compiled epoch kernel against the numpy reference, and its loader."""

import ctypes
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal, assert_equal

from mrnet import _kernel, estimation
from mrnet.estimation import (ObservationSet, TrainConfig,
                              penalized_objective, project_l0, train)
from mrnet.models import (_P_HI, _P_LO, MODEL_KINDS, ModelParams,
                          NetworkShape, ScoreModel, ShapeError, scores)

from test_estimation import full_observation_set, make_params, small_problem
from test_evaluation import scoring_paths

# Fixed before any measurement.  The kernel's sigmoid uses libm's exp
# where numpy uses its own SIMD exp (they differ in the last bit for a
# few percent of inputs), so trajectories agree to rounding, not bit for
# bit.
RTOL, ATOL = 1e-10, 1e-12

# latent sizes around the 2- to 8-wide SIMD blocks numpy sums in
DIMS = [1, 2, 3, 5, 8, 16, 33]

SRC = os.path.dirname(os.path.dirname(_kernel.__file__))


@pytest.fixture(scope="module")
def kernel():
    if shutil.which(_kernel._compiler()[0]) is None:
        pytest.skip("no C compiler")
    loaded = _kernel.load()
    assert loaded is not None, "a C compiler is present but the kernel failed"
    return loaded


VARIANTS = {"plain": {}, "rho1": {"rho1": 0.3}, "rho2": {"rho2": 0.5},
            "sparsity_cap": {"sparsity_cap": 20}}


def libm_sigmoid(x):
    """``models.sigmoid`` of a 1-d array with libm's exp, as the kernel's
    sigmoid takes it, in place of numpy's SIMD exp."""
    e = np.array([math.exp(-abs(v)) for v in x.tolist()])
    return np.clip(np.where(x >= 0, 1.0, e) / (1.0 + e), _P_LO, _P_HI)


# every kind and variant at latent sizes 1, 2, 3, 5 and 8; the d = 2
# cases keep the short ids "<kind>-<variant>", the others end in "-d<d>"
TRAJECTORY_CASES = [(kind, variant, d) for kind in MODEL_KINDS
                    for variant in sorted(VARIANTS) for d in (1, 2, 3, 5, 8)]


@pytest.mark.parametrize(
    "kind, variant, d", TRAJECTORY_CASES,
    ids=[f"{kind}-{variant}" + (f"-d{d}" if d != 2 else "")
         for kind, variant, d in TRAJECTORY_CASES])
def test_kernel_trajectory_matches_numpy_loop(kernel, monkeypatch, kind,
                                              variant, d):
    # the row update takes entries two at a time: odd widths end on one
    # entry alone, and rows of 8 or more (d = 8, or combined relation
    # rows of 2d at d >= 5) take their norms through pairwise_sum
    _, shape, obs = small_problem(seed=11)
    model = ScoreModel(kind, d)
    # 288 observations in batches of 50: the last batch is short
    assert len(obs) % 50
    # some observations have one entity as both head and tail, so a
    # batch adds a head and a tail term to the same gradient row
    assert np.any(obs.heads == obs.tails)
    settings = dict(VARIANTS[variant])
    if "sparsity_cap" in settings:  # a cap below the parameter count
        total = shape.n_entities * d + shape.n_relations * model.relation_dim
        settings["sparsity_cap"] = min(settings["sparsity_cap"],
                                       3 * total // 4)
    config = TrainConfig(epochs=20, learning_rate=0.3, batch_size=50,
                         radius=0.5, seed=4, **settings)
    monkeypatch.setattr(_kernel, "_loaded", kernel)
    fast = train(model, shape, obs, config, trace=True)
    monkeypatch.setattr(_kernel, "_loaded", None)
    if d == 2:
        # numpy's own exp: equal to rounding.  At d = 5 and 8 the distance
        # kind's L1 steps turn those last-bit differences into drift
        # beyond RTOL, so the bits are checked against libm's exp below.
        ref = train(model, shape, obs, config, trace=True)
        assert_allclose(fast.params.entities, ref.params.entities, RTOL, ATOL)
        assert_allclose(fast.params.relations, ref.params.relations, RTOL,
                        ATOL)
        assert_allclose(fast.objective_trace, ref.objective_trace, RTOL, ATOL)
        assert_array_equal(fast.nnz_trace, ref.nnz_trace)
    # with the exp the kernel takes, the numpy loop's every step is the
    # kernel's, bit for bit
    monkeypatch.setattr(estimation, "sigmoid", libm_sigmoid)
    ref = train(model, shape, obs, config, trace=True)
    assert_array_equal(fast.params.entities, ref.params.entities)
    assert_array_equal(fast.params.relations, ref.params.relations)
    assert_array_equal(fast.objective_trace, ref.objective_trace)
    assert_array_equal(fast.nnz_trace, ref.nnz_trace)
    # the radius binds, so the ball projection shaped the trajectory
    monkeypatch.setattr(_kernel, "_loaded", kernel)
    free = train(model, shape, obs, dataclasses.replace(config, radius=50.0),
                 trace=True)
    assert not np.allclose(free.objective_trace, fast.objective_trace)


@pytest.mark.parametrize("cap", [None, 20])
def test_train_binds_one_fit_per_call(monkeypatch, cap):
    # the sparsity cap writes into the bound arrays, so neither engine
    # is bound again after an epoch
    _, shape, obs = small_problem(seed=11)
    model = ScoreModel("combined", 2)
    config = TrainConfig(epochs=5, learning_rate=0.3, batch_size=50,
                         radius=0.5, seed=4, sparsity_cap=cap)
    for loaded in dict.fromkeys([_kernel.load(), None]):
        monkeypatch.setattr(_kernel, "_loaded", loaded)
        engine, bound = _kernel.engine(), []

        def spy(model, params, *rest, real=engine.fit):
            bound.append(params)
            return real(model, params, *rest)

        monkeypatch.setattr(engine, "fit", spy)
        result = train(model, shape, obs, config)
        assert len(bound) == 1 and bound[0] is result.params
        if cap is not None:
            assert result.nnz_trace.max() == cap


@pytest.mark.parametrize("rho", [(0.0, 0.0), (0.3, 0.7)],
                         ids=["plain", "penalty"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("loaded", scoring_paths(),
                         ids=lambda loaded: "numpy" if loaded is None
                         else "kernel")
def test_train_objective_is_penalized_objective(monkeypatch, loaded, kind,
                                                rho):
    # bit for bit: train scores the observations with the engine's
    # scorer, whose scores are models.scores', and takes the same numpy
    # formula as penalized_objective
    monkeypatch.setattr(_kernel, "_loaded", loaded)
    model = ScoreModel(kind, 3)
    shape = NetworkShape(5, 2)
    obs = full_observation_set(shape, np.random.default_rng(21))
    for scale in (0.5, 30.0):  # the second drives scores far past +-700
        config = TrainConfig(epochs=2, learning_rate=0.05, rho1=rho[0],
                             rho2=rho[1], radius=1e3, init_scale=scale,
                             seed=4)
        for traced in (True, False):
            result = train(model, shape, obs, config, trace=traced)
            want = penalized_objective(model, result.params, obs, *rho)
            assert float(result.objective).hex() == float(want).hex()
        phi = scores(model, result.params, obs.heads, obs.tails, obs.rels)
        assert (np.abs(phi).max() > 700) == (scale == 30.0)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_kernel_scores_match_numpy_bitwise(kernel, kind, d):
    rng = np.random.default_rng(d)
    model = ScoreModel(kind, d)
    n, k = 7, 3
    shape = NetworkShape(n, k)
    params = make_params(model, n, k, rng)
    lin = np.arange(shape.n_edges)
    want = scores(model, params, lin // k // n, lin // k % n, lin % k)
    # the universe in chunks that start and end inside a head's block
    for start, stop in ((0, shape.n_edges), (5, 40), (130, shape.n_edges)):
        out, ref = np.empty((2, stop - start))
        kernel.slot_scores(model, params, shape, start, out)
        _kernel.Numpy.slot_scores(model, params, shape, start, ref)
        assert_array_equal(out, ref)
        assert_array_equal(ref, want[start:stop])
    edges = tuple(rng.integers(0, m, 300) for m in (n, n, k))
    out, ref = np.empty((2, 300))
    kernel.edge_scores(model, params, *edges, out)
    _kernel.Numpy.edge_scores(model, params, *edges, ref)
    assert_array_equal(out, ref)
    assert_array_equal(ref, scores(model, params, *edges))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_kernel_rank_counts_match_numpy(kernel, kind, d):
    rng = np.random.default_rng(100 + d)
    model = ScoreModel(kind, d)
    n, k, rows = 30, 4, 50
    # half-integer coordinates and two copies of entity 0: exact ties
    params = ModelParams(rng.integers(-2, 3, (n, d)) / 2.0,
                         rng.integers(-2, 3, (k, model.relation_dim)) / 2.0,
                         50.0)
    params.entities[n - 1] = params.entities[0]
    edges = [rng.integers(0, m, rows) for m in (n, n, k)]
    edges[0][:10] = 0
    for slot, width in enumerate((n, n, k)):
        mask = rng.random((rows, width)) < 0.2
        mask[np.arange(rows), edges[slot]] = True  # the target is filtered
        above, tied = kernel.rank_counts(model, params, slot, *edges, mask)
        ref = _kernel.Numpy.rank_counts(model, params, slot, *edges, mask)
        assert_array_equal(above, ref[0])
        assert_array_equal(tied, ref[1])
        # and the numpy twin against a per-row count
        for i in range(rows):
            row = [np.full(width, c[i]) for c in edges]
            row[slot] = np.arange(width)
            s = scores(model, params, *row)
            target = s[edges[slot][i]]
            assert ref[0][i] == np.count_nonzero((s > target) & ~mask[i])
            assert ref[1][i] == np.count_nonzero((s == target) & ~mask[i])
        if slot == 0:  # the rows at head 0 tie its copy, entity N - 1
            assert tied[:10].any()


def test_kernel_refuses_arrays_it_cannot_read(kernel):
    model = ScoreModel("bilinear", 2)
    shape = NetworkShape(3, 1)
    obs = ObservationSet(shape, [0, 1], [1, 2], [0, 0], [1, 0])
    params = ModelParams(np.ones((2, 3)).T, np.ones((1, 2)), 5.0)
    g2 = (np.zeros((3, 2)), np.zeros((1, 2)))
    with pytest.raises(TypeError):  # column-major entity rows
        kernel.fit(model, params, *g2, obs, TrainConfig(epochs=1))
    narrow = ModelParams(np.ones((3, 2)), np.ones((1, 2)), 5.0)
    with pytest.raises(ShapeError):  # combined rows need 2d relation entries
        kernel.fit(ScoreModel("combined", 2), narrow, *g2, obs,
                   TrainConfig(epochs=1))
    fit = kernel.fit(model, narrow, *g2, obs, TrainConfig(epochs=1))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    twin = _kernel.Numpy.fit(model, narrow, np.zeros((3, 2)),
                             np.zeros((1, 2)), obs, TrainConfig(epochs=1))
    # the orders come from a numpy Generator, on both engines: not a
    # seed, a bare bit generator or the legacy RandomState
    for not_a_generator in (5, None, np.random.PCG64(5),
                            np.random.RandomState(5)):
        for engine_fit in (fit, twin):
            with pytest.raises(TypeError, match="numpy Generator"):
                engine_fit.run(not_a_generator, 1)
    # and both refuse a negative epoch count
    for engine_fit in (fit, twin):
        with pytest.raises(ValueError):
            engine_fit.run(rng, -1)
    assert_array_equal(narrow.entities, 1.0)  # no refused call ran
    assert rng.bit_generator.state == state  # nor drew an order
    with pytest.raises(ShapeError):  # AdaGrad state of another shape
        kernel.fit(model, narrow, np.zeros((2, 2)), np.zeros((1, 2)), obs,
                   TrainConfig(epochs=1))
    # the scorer and the rank counter refuse the same way
    edges = np.array([[0, 1, 2], [1, 2, 0], [0, 0, 0]])
    with pytest.raises(TypeError):  # strided columns
        kernel.edge_scores(model, narrow, *edges[:, ::2], np.empty(2))
    with pytest.raises(TypeError):  # int32 columns
        kernel.edge_scores(model, narrow, *edges.astype(np.int32),
                           np.empty(3))
    with pytest.raises(ShapeError):
        kernel.edge_scores(model, narrow, *edges, np.empty(2))
    square = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ShapeError, match="1-d"):  # 4 edges, len() of 2
        kernel.edge_scores(model, narrow, square, square, square, np.empty(2))
    with pytest.raises(ShapeError):  # 4 slots past a 3-entity fit
        kernel.slot_scores(model, narrow, NetworkShape(3, 1), 6, np.empty(4))
    with pytest.raises(ShapeError):
        kernel.slot_scores(model, narrow, NetworkShape(4, 1), 0, np.empty(1))
    mask = np.zeros((3, 3), dtype=bool)
    with pytest.raises(TypeError):  # column-major mask
        kernel.rank_counts(model, narrow, 1, *edges, np.asfortranarray(mask))
    with pytest.raises(TypeError):  # not a bool mask
        kernel.rank_counts(model, narrow, 1, *edges, mask.astype(np.int8))
    with pytest.raises(ShapeError):  # candidates past the fit's entities
        kernel.rank_counts(model, narrow, 1, *edges, np.zeros((3, 4), bool))
    with pytest.raises(ShapeError):  # no fourth column
        kernel.rank_counts(model, narrow, 3, *edges, mask)


def test_record_matches_the_library_layout(kernel):
    # every export takes one struct fit; its mirror has the same size and
    # each field at the same offset, by name
    assert kernel._layout(b"") == ctypes.sizeof(_kernel._Fit)
    for name, _ in _kernel._Fit._fields_:
        assert kernel._layout(name.encode()) == \
            getattr(_kernel._Fit, name).offset, name
    assert kernel._layout(b"rho3") == -1


def test_records_pack_the_columns_and_refuse_counts_past_int32():
    # Fit packs the observations once into int32 (head, tail, relation,
    # label) rows, which index at most 2^31 - 1 entities or relations
    columns = ([0, 5, 2], [1, 0, 5], [2, 1, 0], [1, 0, 1])
    heads, tails, rels = (np.array(c, dtype=np.int64) for c in columns[:3])
    labels = np.array(columns[3], dtype=np.int8)
    records = _kernel._records(heads, tails, rels, labels, 6, 3)
    assert records.dtype == np.int32 and records.flags.c_contiguous
    assert_array_equal(records, np.array(columns).T)
    top = 2 ** 31 - 1
    last = np.array([top - 1])
    assert_array_equal(
        _kernel._records(last, last, last, np.array([1], np.int8), top, top),
        [[top - 1, top - 1, top - 1, 1]])
    for counts, name in (((top + 1, 3), "n_entities"),
                         ((6, top + 1), "n_relations")):
        with pytest.raises(ValueError, match=f"{name} = {top + 1} does not "
                                             "fit the kernel's int32"):
            _kernel._records(heads, tails, rels, labels, *counts)


def test_misordered_record_falls_back_with_one_warning(kernel, monkeypatch):
    # rho1 and rho2 swapped: same size and types, so only the check by
    # name sees that the kernel would read one for the other
    fields = list(_kernel._Fit._fields_)
    names = [name for name, _ in fields]
    i, j = names.index("rho1"), names.index("rho2")
    fields[i], fields[j] = fields[j], fields[i]
    monkeypatch.setattr(_kernel, "_Fit", type(
        "_Fit", (ctypes.Structure,), {"_fields_": fields}))
    monkeypatch.setattr(_kernel, "_loaded", _kernel._UNSET)
    assert _kernel._library_path().exists()  # loaded, not built again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _kernel.load() is None
        assert _kernel.load() is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "struct fit is not laid out as _Fit (at rho2)" in \
        str(caught[0].message)
    assert _kernel.engine() is _kernel.Numpy


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_failing_compiler_falls_back_with_one_warning(tmp_path, monkeypatch,
                                                      compiler):
    command = {"missing": [str(tmp_path / "no-such-cc")],
               "failing": [sys.executable, "-c", "raise SystemExit(1)"]}
    monkeypatch.setattr(_kernel, "_compiler", lambda: command[compiler])
    monkeypatch.setattr(_kernel, "_CACHE", tmp_path)  # empty: nothing built
    monkeypatch.setattr(_kernel, "_loaded", _kernel._UNSET)
    model, shape, obs = small_problem(seed=2)
    config = TrainConfig(epochs=2, learning_rate=0.3, batch_size=64,
                         radius=5.0, seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = train(model, shape, obs, config)
        second = train(model, shape, obs, config)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy loop" in str(caught[0].message)
    assert _kernel._loaded is None
    assert_array_equal(first.params.entities, second.params.entities)
    assert os.listdir(tmp_path) == []  # no library, no temporary file


def test_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch):
    if shutil.which(_kernel._compiler()[0]) is None:
        pytest.skip("no C compiler")
    # a cache path below a regular file cannot be created, even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "_CACHE", blocker / "__pycache__")
    monkeypatch.setattr(_kernel, "_loaded", _kernel._UNSET)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    made, mkdtemp = [], tempfile.mkdtemp

    def recording_mkdtemp(**kwargs):
        made.append(mkdtemp(**kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = _kernel.load()
    assert kernel is not None
    assert len(made) == 1  # one fresh directory, made by this process
    assert os.listdir(scratch) == []  # and removed once the library loaded
    obs = ObservationSet(NetworkShape(2, 1), [0, 1], [1, 0], [0, 0], [1, 0])
    params = ModelParams(np.arange(4.0).reshape(2, 2), np.ones((1, 2)), 9.0)
    got = np.empty(2)
    kernel.edge_scores(ScoreModel("bilinear", 2), params, obs.heads,
                       obs.tails, obs.rels, got)
    assert_array_equal(got, [3.0, 3.0])  # 0 * 2 + 1 * 3, both ways


def test_build_deletes_only_stale_libraries(tmp_path, monkeypatch):
    if shutil.which(_kernel._compiler()[0]) is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(_kernel, "_CACHE", tmp_path)
    monkeypatch.setattr(_kernel, "_loaded", _kernel._UNSET)
    stale = tmp_path / f"_epoch.{'0' * 16}{_kernel._SUFFIX}"
    stale.write_bytes(b"an older build")
    kept = [stale.name + ".a1b2c3.tmp",  # another process's build in progress
            f"_epoch.{'0' * 16}.cpython-99-other.so",  # another interpreter's
            f"_epoch.{'1' * 16}{_kernel._SUFFIX}"]  # cannot be unlinked
    (tmp_path / kept[0]).write_bytes(b"")
    (tmp_path / kept[1]).write_bytes(b"")
    (tmp_path / kept[2]).mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernel.load() is not None
    built = _kernel._library_path().name
    assert sorted(os.listdir(tmp_path)) == sorted(kept + [built])


BUILD_AND_USE = """
import sys, time
from pathlib import Path
import numpy as np
from mrnet import _kernel
from mrnet.estimation import ObservationSet
from mrnet.models import ModelParams, NetworkShape, ScoreModel

cache, me = Path(sys.argv[1]), sys.argv[2]
(cache.parent / me).touch()
while len(list(cache.parent.glob("ready-*"))) < 2:  # start both builds at once
    time.sleep(0.001)
_kernel._CACHE = cache
kernel = _kernel.load()
obs = ObservationSet(NetworkShape(2, 1), [0, 1], [1, 0], [0, 0], [1, 0])
params = ModelParams(np.arange(4.0).reshape(2, 2), np.ones((1, 2)), 9.0)
out = np.empty(2)
kernel.edge_scores(ScoreModel("bilinear", 2), params, obs.heads, obs.tails,
                   obs.rels, out)
print(out.sum())
"""


def test_concurrent_builds_both_load_a_working_library(tmp_path):
    if shutil.which(_kernel._compiler()[0]) is None:
        pytest.skip("no C compiler")
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": SRC}
    procs = [subprocess.Popen(
        [sys.executable, "-c", BUILD_AND_USE, str(cache), f"ready-{i}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for i in range(2)]
    outs = [p.communicate(timeout=300) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert float(out) == 6.0  # two edges scoring 0 * 2 + 1 * 3
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].endswith(_kernel._SUFFIX)


def test_cache_key_follows_source_and_flags(tmp_path, monkeypatch):
    source = tmp_path / "_epoch.c"
    shutil.copyfile(_kernel._SOURCE, source)
    monkeypatch.setattr(_kernel, "_SOURCE", source)
    original = _kernel._library_path()
    assert original.parent == _kernel._CACHE
    assert original.name.endswith(_kernel._SUFFIX)
    assert _kernel._library_path() == original  # stable
    source.write_text(source.read_text() + "/* edited */\n")
    edited = _kernel._library_path()
    assert edited != original
    monkeypatch.setattr(_kernel, "_FLAGS", _kernel._FLAGS + ("-g",))
    assert _kernel._library_path() not in (original, edited)


def test_import_builds_nothing():
    code = ("import sys, mrnet, mrnet.cli, mrnet.evaluation; "
            "print('mrnet._kernel' in sys.modules, 'subprocess' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": SRC}, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


def test_import_loads_no_openssl():
    # run_grid's parent counts cores here and builds nothing: hashlib's
    # OpenSSL was 3.5 MB of its peak resident memory
    code = ("import sys, mrnet.simulation, mrnet._kernel; "
            "print('_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": SRC}, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def order_fit(kernel, n):
    """A fit whose epoch leaves its order readable, and how to read it.

    Observation i is (i + 1, 0, 0) with label 1, under the bilinear kind
    at d = 1.  AdaGrad state of 2^200 (entities) and 2^1000 (relation)
    with a rate of 2^100 turns each step into plain gradient ascent by
    exactly the gradient, the relation's step into none, and the
    residual of every step into exactly n (scores stay below -100, so
    1 - sigmoid rounds to 1; one observation per batch).  Entity 0 then
    drops by n per step, and the row of the observation taken at step k
    ends at -1 + n * (s0 - k * n), all in exact integers.  Returns the
    fit and ``epoch(rng)``, which resets the arrays, runs one epoch with
    orders from ``rng`` and returns that epoch's order."""
    shape = NetworkShape(n + 1, 1)
    obs = ObservationSet(shape, np.arange(1, n + 1), np.zeros(n, np.int64),
                         np.zeros(n, np.int64), np.ones(n))
    params = ModelParams(np.empty((n + 1, 1)), np.empty((1, 1)), 1e300)
    g2 = (np.empty((n + 1, 1)), np.empty((1, 1)))
    config = TrainConfig(epochs=1, learning_rate=2.0 ** 100, batch_size=1,
                         radius=1e300)
    fit = kernel.fit(ScoreModel("bilinear", 1), params, *g2, obs, config)
    s0 = float(n * n + 100)

    def epoch(rng):
        params.entities[0], params.entities[1:] = s0, -1.0
        params.relations[...] = 1.0
        g2[0][...], g2[1][...] = 2.0 ** 200, 2.0 ** 1000
        fit.run(rng, 1)
        step = (s0 - (params.entities[1:, 0] + 1) / n) / n
        assert_array_equal(np.sort(step), np.arange(n))  # exact steps
        order = np.empty(n, dtype=np.int64)
        order[step.astype(np.int64)] = np.arange(n)
        return order

    return fit, epoch


def generators(seed):
    """Generators on numpy's four bit generators, and a PCG64 whose next
    32-bit draw is the buffered half of a 64-bit one."""
    made = [np.random.Generator(bits(seed)) for bits in (
        np.random.PCG64, np.random.MT19937, np.random.Philox,
        np.random.SFC64)]
    half = np.random.default_rng(seed)
    state = half.bit_generator.state
    state.update(has_uint32=1, uinteger=0x9E3779B9)
    half.bit_generator.state = state
    assert half.bit_generator.state["has_uint32"] == 1
    return made + [half]


@pytest.mark.parametrize("n", [1, 2, 72, 1000, 63612])
def test_kernel_orders_are_sequential_permutations(kernel, n):
    # the kernel draws each epoch's order from the generator's bitgen_t
    # as rng.permutation does: the same orders, epoch after epoch, and
    # the generator left in the same state, whatever the bit generator
    fit, epoch = order_fit(kernel, n)
    for rng, ref in zip(generators(n), generators(n)):
        for _ in range(3):
            assert_array_equal(epoch(rng), ref.permutation(n))
            assert_equal(rng.bit_generator.state, ref.bit_generator.state)
        # one run of one to three epochs draws as many orders
        for epochs in (1, 2, 3):
            fit.run(rng, epochs)
            for _ in range(epochs):
                ref.permutation(n)
            assert_equal(rng.bit_generator.state, ref.bit_generator.state)
        # and a run of no epochs draws none
        fit.run(rng, 0)
        assert_equal(rng.bit_generator.state, ref.bit_generator.state)


def kernel_cap(kernel, model, params, obs, cap):
    """``params`` after one kernel epoch over ``obs`` with the sparsity
    cap ``cap``, and the nonzero count the kernel wrote."""
    g2 = (np.zeros_like(params.entities), np.zeros_like(params.relations))
    config = TrainConfig(epochs=1, radius=1e3, sparsity_cap=cap)
    fit = kernel.fit(model, params, *g2, obs, config)
    (nnz,) = fit.run(np.random.default_rng(0), 1)
    return params, nnz


def test_kernel_cap_keeps_what_project_l0_keeps(kernel):
    # one observation touches entity 0 and relation 0 only; every other
    # row reaches the cap as made: ties, signed zeros, NaNs and infinities
    model = ScoreModel("combined", 3)
    obs = ObservationSet(NetworkShape(9, 3), [0], [0], [0], [1])
    rng = np.random.default_rng(8)
    params = ModelParams(rng.integers(-3, 4, (9, 3)) / 2.0,
                         rng.integers(-3, 4, (3, 6)) / 2.0, 1e3)
    flat = params.entities.reshape(-1)
    flat[[3, 7, 20]] = -0.0
    flat[[4, 11, 25]] = np.nan
    flat[[5, 12]] = [np.inf, -np.inf]
    params.relations[2, [0, 4]] = [np.nan, -0.0]
    total = params.entities.size + params.relations.size
    not_nan = int(np.count_nonzero(~np.isnan(params.entities))
                 + np.count_nonzero(~np.isnan(params.relations)))
    # the cap cuts above, inside and below each run of ties, the zeros,
    # and the NaNs, which rank last
    caps = [0, 1, 2, 3, 7, 20, 33, 40, not_nan - 1, not_nan, not_nan + 1,
            total - 1, total, total + 5]
    # and a larger network, coarsely rounded: long runs of ties
    big = ModelParams(np.round(rng.normal(0, 2, (400, 3))),
                      np.round(rng.normal(0, 2, (3, 6))), 1e3)
    big_caps = rng.integers(0, big.entities.size + big.relations.size, 20)
    for start, caps in ((params, caps), (big, big_caps)):
        total = start.entities.size + start.relations.size
        epoch, _ = kernel_cap(kernel, model, start.copy(), obs, None)
        for cap in caps:
            got, nnz = kernel_cap(kernel, model, start.copy(), obs, int(cap))
            want = project_l0(epoch, min(int(cap), total))
            assert got.entities.tobytes() == want.entities.tobytes(), cap
            assert got.relations.tobytes() == want.relations.tobytes(), cap
            assert nnz == (np.count_nonzero(want.entities)
                           + np.count_nonzero(want.relations))
