"""The compiled kernel in ``_epoch.c``, and its numpy twin ``Numpy``.

``engine()`` gives the kernel, or ``Numpy`` if none loads.  The two have
the same methods and the same scores bit for bit, so callers never branch.
A fit bound by ``fit`` has two methods: ``run`` runs any number of
training epochs, drawing each order as ``rng.permutation`` would (the
kernel through numpy's C interface ``bitgen_t``), imposing the sparsity
cap after each and returning the nonzero counts, so an untraced fit is
one call; ``scores`` scores the fit's observations, for the objective.
Everything runs on the calling thread.

``load()`` compiles the C source on first use with the C compiler that
Python was built with (``sysconfig``'s ``CC``) and opens it with
``ctypes``.  The shared library is cached next to the package's ``.pyc``
files, in its ``__pycache__``, under a name keyed by a hash of the
source, the compile command and the extension suffix, so an edited
source or another interpreter gets a build of its own.  A build writes
a unique temporary file and moves it into place with ``os.replace``, so
processes that build at the same moment each load a complete library,
and then deletes this interpreter's older builds.  Where ``__pycache__``
cannot be written (a read-only install), each process builds into a
fresh directory of its own from ``tempfile.mkdtemp`` and deletes it
once the library is loaded.

Every export takes one argument record, ``struct fit``, mirrored here by
``_Fit`` and filled by ``_record``.  If the compiler is missing or
fails, or the compiled record's size and field offsets (by name, from
``mrnet_fit_layout``) differ from ``_Fit``'s, ``load()`` warns once and
returns ``None``, and ``engine()`` gives ``Numpy``, as it does after
``_loaded = None``.  The callers import this module when they are
called, never at import time, so ``import mrnet`` runs no compiler.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np

from ._edges import check_columns
from .models import MODEL_KINDS, ModelParams, ShapeError, _scores

_SOURCE = Path(__file__).with_name("_epoch.c")
_CACHE = _SOURCE.parent / "__pycache__"
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

_PTR, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_UNSET = object()
_loaded = _UNSET  # a Kernel, or None when no build could be loaded


def _compiler() -> list:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _library_path() -> Path:
    # hashlib loads OpenSSL (about 3.5 MB resident), which a process
    # that only counts cores here, as a pool's parent does, never needs
    import hashlib
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join([*_compiler(), *_FLAGS, _SUFFIX]).encode())
    return _CACHE / f"{_SOURCE.stem}.{key.hexdigest()[:16]}{_SUFFIX}"


def _build(path: Path) -> Path:
    """Compile the library to ``path``, or privately if that cannot be.

    When ``path``'s directory cannot be written (a read-only install),
    the build goes to a fresh directory that only this process created
    and that the caller removes after loading.  Returns where it built.
    """
    private = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                                   dir=path.parent)
    except OSError:
        # never a shared directory: a library planted there would be loaded
        private = True
        path = Path(tempfile.mkdtemp(prefix="mrnet-kernel-")) / path.name
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*_compiler(), *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                       check=True, capture_output=True, text=True, timeout=300)
        os.replace(tmp, path)
    except BaseException:
        if private:
            shutil.rmtree(path.parent, ignore_errors=True)
        raise
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # older builds for this suffix; never a *.tmp, which may be another
    # process's build in progress, nor another interpreter's build
    for stale in set(path.parent.glob(f"{_SOURCE.stem}.*{_SUFFIX}")) - {path}:
        with contextlib.suppress(OSError):
            stale.unlink()
    return path


def _addr(arr: np.ndarray, dtype) -> int:
    # the kernel reads and writes raw memory: refuse anything but a
    # C-contiguous array of exactly the expected type
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(f"kernel needs a C-contiguous {np.dtype(dtype)} array")
    return arr.ctypes.data


def _readable(params: ModelParams) -> ModelParams:
    """``params`` with C-contiguous float64 arrays, copied only where they
    are not.  ``models.scores`` takes any real arrays in any memory order,
    and so does every scorer of both engines, by scoring this copy, so the
    two agree bit for bit on any parameters.  A fit writes its arrays in
    place, so ``Fit`` takes them only as they are."""
    return ModelParams(np.ascontiguousarray(params.entities, np.float64),
                       np.ascontiguousarray(params.relations, np.float64),
                       params.radius)


class _Fit(ctypes.Structure):
    """``struct fit`` of ``_epoch.c``, the argument record of every export."""

    __slots__ = ()  # a misspelled field raises rather than set nothing
    _fields_ = [("kind", ctypes.c_int)] + [
        (name, ctype) for ctype, names in (
            (_I64, "n_ent n_rel d rd"),
            (_PTR, "ent rel g2_ent g2_rel heads tails rels records"),
            (_I64, "n_obs batch_size"), (_F64, "lr eps rho1 rho2 radius"),
            (_I64, "cap")) for name in names.split()]


def _record(model, params, heads=None, tails=None, rels=None, **settings):
    """The ``_Fit`` of ``model`` and ``params``, the edge columns (NULL when
    not given) and the further fields in ``settings``."""
    params.check_model(model)  # the kernel derives row widths from kind
    record = _Fit(kind=MODEL_KINDS.index(model.kind),
                  n_ent=params.n_entities, n_rel=params.n_relations,
                  d=params.entities.shape[1], rd=params.relations.shape[1],
                  ent=_addr(params.entities, np.float64),
                  rel=_addr(params.relations, np.float64), **settings)
    if heads is not None:
        check_columns(heads, tails, rels)  # the kernel reads raw memory
        record.heads, record.tails, record.rels = (
            _addr(c, np.int64) for c in (heads, tails, rels))
        record.n_obs = len(heads)
    return record


def _records(heads, tails, rels, labels, n_entities, n_relations):
    """The observations as ``struct record``s, one (head, tail, relation,
    label) row of int32 each.  Raises ``ValueError`` naming ``n_entities``
    or ``n_relations`` when int32 cannot index that many, before it packs
    anything.  The caller has checked that every index is in range."""
    for name, count in (("n_entities", n_entities),
                        ("n_relations", n_relations)):
        if count > np.iinfo(np.int32).max:
            raise ValueError(f"{name} = {count} does not fit the kernel's "
                             "int32 observation records (at most 2^31 - 1)")
    check_columns(heads, tails, rels, labels)
    records = np.empty((len(heads), 4), dtype=np.int32)
    for column, values in enumerate((heads, tails, rels, labels)):
        records[:, column] = values
    return records


def _generator(rng) -> np.random.Generator:
    """``rng``, or ``TypeError`` if it is not a numpy ``Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError("epoch orders are drawn from a numpy Generator, "
                        f"not {type(rng).__name__}")
    return rng


def _bind(fn, restype, *argtypes):
    fn.argtypes, fn.restype = argtypes, restype
    return fn


class Kernel:
    """The exported functions of ``_epoch.c``, on numpy arrays; raises
    ``OSError`` if the library's ``struct fit`` is not laid out as ``_Fit``."""

    def __init__(self, lib: ctypes.CDLL):
        self._layout = _bind(lib.mrnet_fit_layout, _I64, ctypes.c_char_p)
        for name, _ in [("", None), *_Fit._fields_]:
            want = getattr(_Fit, name).offset if name else ctypes.sizeof(_Fit)
            if self._layout(name.encode()) != want:
                raise OSError("the kernel's struct fit is not laid out as "
                              f"_Fit (at {name or 'its size'})")
        record = ctypes.POINTER(_Fit)
        self._epochs = _bind(lib.mrnet_epochs, ctypes.c_int, record, _PTR,
                             _I64, _PTR)
        self._scores = _bind(lib.mrnet_scores, None, record, _I64, _I64, _I64,
                             _I64, _PTR)
        self._ranks = _bind(lib.mrnet_rank_counts, None, record, ctypes.c_int,
                            _I64, _PTR, _PTR, _PTR)

    def slot_scores(self, model, params, shape, start, out) -> None:
        """Scores of the slots ``start``, ..., ``start + len(out) - 1`` of
        ``shape``'s universe, in linear order, written to ``out``."""
        if shape.n_entities > params.n_entities or \
                shape.n_relations > params.n_relations or start < 0 or \
                start + len(out) > shape.n_edges:
            raise ShapeError("slots outside the parameters' network")
        params = _readable(params)  # held until the call returns
        self._scores(_record(model, params), shape.n_entities,
                     shape.n_relations, start, len(out),
                     _addr(out, np.float64))

    def edge_scores(self, model, params, heads, tails, rels, out) -> None:
        """Scores of the edges (heads, tails, rels), written to ``out``.

        The caller has checked that every index is in range.
        """
        if len(out) != len(heads):
            raise ShapeError("need one output per edge")
        params = _readable(params)
        self._scores(_record(model, params, heads, tails, rels), 0, 0, 0,
                     len(out), _addr(out, np.float64))

    def rank_counts(self, model, params, slot, heads, tails, rels, mask):
        """Per test edge, the unfiltered candidates above and tied with it.

        Row i's candidates put 0, ..., width - 1 into column ``slot``
        (0 head, 1 tail, 2 relation) of edge (heads[i], tails[i],
        rels[i]); ``mask``, (rows, width) bool, marks the filtered ones.
        Returns the int64 counts (above, tied) of the others that score
        above and equal to the edge.  The caller has checked that every
        index is in range.
        """
        rows, width = mask.shape
        size = params.n_relations if slot == 2 else params.n_entities
        if slot not in (0, 1, 2) or len(heads) != rows or width > size:
            raise ShapeError("rank mask does not fit the edges and params")
        above = np.empty(rows, dtype=np.int64)
        tied = np.empty(rows, dtype=np.int64)
        params = _readable(params)
        self._ranks(_record(model, params, heads, tails, rels), slot, width,
                    _addr(mask, np.bool_), _addr(above, np.int64),
                    _addr(tied, np.int64))
        return above, tied

    def fit(self, model, params, g2_ent, g2_rel, obs, config) -> "Fit":
        return Fit(self, model, params, g2_ent, g2_rel, obs, config)


class Fit:
    """The kernel bound to one fit's arrays, their record filled once.

    The observations are packed once, when the fit is bound, into 16-byte
    records (``_records``) that every ``run`` reads, so a fit keeps 16
    bytes per observation beside ``obs``.  Raises ``ValueError`` if int32
    cannot index the network's entities or relations.  The record also
    points at ``obs``' edge columns, which ``scores`` reads.

    ``run(rng, epochs)`` runs ``epochs`` AdaGrad epochs over ``obs``,
    updating the parameters and ``g2_ent`` / ``g2_rel`` in place, each in
    the order that one more ``rng.permutation(len(obs))`` would draw
    (``rng``'s lock held, as numpy's own methods hold it).  After each
    epoch it imposes ``config.sparsity_cap`` as ``estimation.project_l0``
    does.  It returns the nonzero count after each epoch, int64.
    ``scores()`` returns the scores of ``obs``' edges at the parameters
    as they are now.  The caller has checked that every index in ``obs``
    is in range.
    """

    def __init__(self, kernel, model, params, g2_ent, g2_rel, obs, config):
        if g2_ent.shape != params.entities.shape or \
                g2_rel.shape != params.relations.shape:
            raise ShapeError("epoch kernel arguments disagree in shape")
        cap = config.sparsity_cap
        records = _records(obs.heads, obs.tails, obs.rels, obs.labels,
                           params.n_entities, params.n_relations)
        self._record = _record(
            model, params, obs.heads, obs.tails, obs.rels,
            g2_ent=_addr(g2_ent, np.float64),
            g2_rel=_addr(g2_rel, np.float64),
            records=_addr(records, np.int32), batch_size=config.batch_size,
            lr=config.learning_rate,
            eps=config.adagrad_eps, rho1=config.rho1, rho2=config.rho2,
            radius=config.radius, cap=-1 if cap is None else cap)
        self._kernel = kernel
        # the kernel reads and writes these by address
        self._arrays = (params.entities, params.relations, g2_ent, g2_rel,
                        records, obs.heads, obs.tails, obs.rels)

    def run(self, rng, epochs) -> np.ndarray:
        bits = _generator(rng).bit_generator
        nnz = np.empty(epochs, dtype=np.int64)
        with bits.lock:
            failed = self._kernel._epochs(self._record,
                                          bits.ctypes.bit_generator,
                                          len(nnz), nnz.ctypes.data)
        if failed:
            raise MemoryError("epoch kernel could not allocate its work space")
        return nnz

    def scores(self) -> np.ndarray:
        out = np.empty(self._record.n_obs)
        self._kernel._scores(self._record, 0, 0, 0, len(out), out.ctypes.data)
        return out


class Numpy:
    """``Kernel``'s methods in numpy: the engine when no kernel loads, and
    the reference the kernel is tested against."""

    @staticmethod
    def slot_scores(model, params, shape, start, out) -> None:
        params = _readable(params)
        # one broadcast (heads, N, K) grid over the heads the slots span
        per_head = shape.n_entities * shape.n_relations
        h0, first = divmod(start, per_head)
        h1 = -(-(start + len(out)) // per_head)  # rounded up
        grid = _scores(model, params, np.arange(h0, h1)[:, None, None],
                       np.arange(shape.n_entities)[:, None],
                       np.arange(shape.n_relations))
        out[:] = grid.ravel()[first:first + len(out)]

    @staticmethod
    def edge_scores(model, params, heads, tails, rels, out) -> None:
        out[:] = _scores(model, _readable(params), heads, tails, rels)

    @staticmethod
    def rank_counts(model, params, slot, heads, tails, rels, mask):
        params = _readable(params)
        # one broadcast (rows, width) score array
        cols = [heads[:, None], tails[:, None], rels[:, None]]
        target, cols[slot] = cols[slot], np.arange(mask.shape[1])
        s = _scores(model, params, *cols)
        target = np.take_along_axis(s, target, axis=1)
        return (np.count_nonzero((s > target) & ~mask, axis=1),
                np.count_nonzero((s == target) & ~mask, axis=1))

    @staticmethod
    def fit(model, params, g2_ent, g2_rel, obs, config):
        from .estimation import _numpy_epochs  # no import cycle

        def run(rng, epochs):
            return _numpy_epochs(model, params, g2_ent, g2_rel, obs, config,
                                 _generator(rng), epochs)

        return types.SimpleNamespace(
            run=run,
            scores=lambda: _scores(model, params, obs.heads, obs.tails,
                                   obs.rels))


def engine():
    """The compiled kernel when one loads, else ``Numpy``."""
    return load() or Numpy


def _cores() -> int:
    """The cores this process may run on (``run_grid``'s worker cap): not
    the ones free, and a cgroup CPU quota does not lower it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def load():
    """The compiled kernel, built on first use; None if it cannot be."""
    global _loaded
    if _loaded is _UNSET:
        try:
            path = _library_path()
            if not path.exists():
                path = _build(path)
            try:
                _loaded = Kernel(ctypes.CDLL(str(path)))
            finally:
                if path.parent != _CACHE:  # a loaded library needs no file
                    shutil.rmtree(path.parent, ignore_errors=True)
        except (OSError, subprocess.SubprocessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            warnings.warn(f"mrnet: no compiled kernel ({detail}); "
                          "training and evaluation run the slower numpy loops",
                          RuntimeWarning, stacklevel=4)
            _loaded = None
    return _loaded
