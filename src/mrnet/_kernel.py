"""Build, cache and load the compiled training kernel in ``_epoch.c``.

``load()`` compiles the C source on first use with the C compiler that
Python was built with (``sysconfig``'s ``CC``) and opens it with
``ctypes``.  The shared library is cached next to the package's ``.pyc``
files, in its ``__pycache__``, under a name keyed by a hash of the
source, the compile command and the extension suffix, so an edited
source or another interpreter gets a build of its own.  A build writes
a unique temporary file and moves it into place with ``os.replace``, so
processes that build at the same moment each load a complete library.
Where ``__pycache__`` cannot be written (a read-only install), each
process builds into a fresh directory of its own from
``tempfile.mkdtemp`` and deletes it once the library is loaded.

If the compiler is missing or fails, ``load()`` warns once and returns
``None``, and ``estimation.train`` runs its numpy loop instead.  Only
``train`` imports this module, so ``import mrnet`` runs no compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .models import MODEL_KINDS, ShapeError

_SOURCE = Path(__file__).with_name("_epoch.c")
_CACHE = _SOURCE.parent / "__pycache__"
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

_PTR, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_UNSET = object()
_loaded = _UNSET  # an EpochKernel, or None when no build could be loaded


def _compiler() -> list:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _library_path() -> Path:
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
    return path


def _addr(arr: np.ndarray, dtype) -> int:
    # the kernel reads and writes raw memory: refuse anything but a
    # C-contiguous array of exactly the expected type
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(f"kernel needs a C-contiguous {np.dtype(dtype)} array")
    return arr.ctypes.data


class EpochKernel:
    """The two exported functions of ``_epoch.c``, on numpy arrays."""

    def __init__(self, lib: ctypes.CDLL):
        self._epoch = lib.mrnet_epoch
        self._epoch.argtypes = [ctypes.c_int] + [_I64] * 4 + [_PTR] * 9 \
            + [_I64] * 2 + [_F64] * 5
        self._epoch.restype = ctypes.c_int
        self._loglik = lib.mrnet_log_likelihood
        self._loglik.argtypes = [ctypes.c_int, _I64, _I64] + [_PTR] * 6 \
            + [_I64, ctypes.POINTER(_F64)]
        self._loglik.restype = ctypes.c_int

    @staticmethod
    def _columns(model, params, obs):
        params.check_model(model)  # the kernel derives row widths from kind
        return (MODEL_KINDS.index(model.kind), params.entities.shape[1],
                params.relations.shape[1],
                _addr(params.entities, np.float64),
                _addr(params.relations, np.float64),
                _addr(obs.heads, np.int64), _addr(obs.tails, np.int64),
                _addr(obs.rels, np.int64), _addr(obs.labels, np.int8))

    def epoch(self, model, params, g2_ent, g2_rel, obs, perm, config) -> None:
        """One AdaGrad epoch over ``obs`` in the order ``perm``, in place.

        The caller has checked that every index in ``obs`` is in range.
        """
        if g2_ent.shape != params.entities.shape or \
                g2_rel.shape != params.relations.shape or len(perm) != len(obs):
            raise ShapeError("epoch kernel arguments disagree in shape")
        kind, d, rd, ent, rel, *columns = self._columns(model, params, obs)
        status = self._epoch(
            kind, params.n_entities, params.n_relations, d, rd, ent, rel,
            _addr(g2_ent, np.float64), _addr(g2_rel, np.float64), *columns,
            _addr(perm, np.int64), len(perm), config.batch_size,
            config.learning_rate, config.adagrad_eps, config.rho1,
            config.rho2, config.radius)
        if status:
            raise MemoryError("epoch kernel could not allocate its work space")

    def log_likelihood(self, model, params, obs) -> float:
        out = _F64()
        status = self._loglik(*self._columns(model, params, obs), len(obs),
                              ctypes.byref(out))
        if status:
            raise MemoryError("log-likelihood kernel could not allocate")
        return out.value


def load():
    """The compiled kernel, built on first use; None if it cannot be."""
    global _loaded
    if _loaded is _UNSET:
        try:
            path = _library_path()
            if not path.exists():
                path = _build(path)
            try:
                _loaded = EpochKernel(ctypes.CDLL(str(path)))
            finally:
                if path.parent != _CACHE:  # a loaded library needs no file
                    shutil.rmtree(path.parent, ignore_errors=True)
        except (OSError, subprocess.SubprocessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            warnings.warn(f"mrnet: no compiled training kernel ({detail}); "
                          "training runs the slower numpy loop",
                          RuntimeWarning, stacklevel=3)
            _loaded = None
    return _loaded
