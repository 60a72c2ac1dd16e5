"""The edge index: one int64 key per (head, tail, relation) slot.

An edge's key is its linear index (h*N + t)*K + r in the N^2 K
universe.  Every module that linearizes, decodes, draws, range-checks
or shape-checks edge indices does it here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._rng import TAG_EVAL, derive_seed

# Up to this many slots the samplers take a permutation of the allowed
# values (or flip one coin per slot); beyond, they draw random indices.
DENSE_MAX = 1 << 22

# A loss scan covers every slot of a universe up to this size, else a
# uniform subsample of this many slots.
EVAL_CAP = 1_000_000

# The samplers flip, label and decode at most this many slots at a time,
# so their temporaries stay bounded however large the universe.
BLOCK = 1 << 14


class ShapeError(ValueError):
    """Array dimensions disagree with the declared model or network."""


class EdgeIndexError(IndexError, ValueError):
    """An edge index outside the network; an ``IndexError`` to scoring's
    callers and a ``ValueError`` to training's, as numpy's ``AxisError``
    is both."""


def check_indices(n_entities: int, n_relations: int, heads, tails,
                  rels) -> None:
    """Raise ``EdgeIndexError`` unless every index lies inside the network."""
    for name, idx, hi in (("head", heads, n_entities),
                          ("tail", tails, n_entities),
                          ("relation", rels, n_relations)):
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= hi):
            raise EdgeIndexError(f"{name} index out of range [0, {hi})")


def index_columns(heads, tails, rels) -> tuple:
    """The columns as C-contiguous int64 arrays.  A non-integral or NaN
    index, which a cast would truncate to another edge, raises
    ``ValueError`` naming its column; integral floats convert."""
    out = []
    for name, col in zip(("head", "tail", "relation"), (heads, tails, rels)):
        col = np.atleast_1d(col)  # as the cast below makes a scalar (1,)
        with np.errstate(invalid="ignore"):  # NaN fails the check below
            ints = np.ascontiguousarray(col, dtype=np.int64)
        if col.dtype.kind not in "biu" and np.any(ints != col):
            raise ValueError(f"{name} index {col[ints != col][0]} is not "
                             "an integer")
        out.append(ints)
    return tuple(out)


def check_columns(*columns) -> None:
    """Raise ``ShapeError`` unless ``columns``, those of one edge
    collection, are 1-d and of one length: ``len`` of a 2-d column
    counts its rows, not its edges."""
    if any(np.ndim(c) != 1 for c in columns) or \
            len({len(c) for c in columns}) > 1:
        shapes = ", ".join(str(np.shape(c)) for c in columns)
        raise ShapeError(f"edge columns must be 1-d and of one length, "
                         f"got shapes {shapes}")


def check_keyable(n: int, k: int, error: type = ValueError,
                  where: str = "") -> None:
    """Raise ``error`` unless the slot count N^2 K fits int64.

    Then every key fits, and so do the radix K that ``edge_key`` takes
    and the bound ``rng.integers(0, N^2 K)`` draws below.
    """
    if n * n * k > np.iinfo(np.int64).max:
        raise error(f"{where}{n}^2 x {k} edge slots overflow int64 edge keys")


def edge_key(a, b, c, nb: int, nc: int) -> np.ndarray:
    """Mixed-radix int64 key (a*nb + b)*nc + c of three index arrays.

    ``edge_key(heads, tails, rels, N, K)`` is an edge's linear index
    (h*N + t)*K + r, the order in which ``decode`` reads it back.  Keys
    sort by ``a``, then ``b``, then ``c``; the ranking filter puts the
    corrupted slot in ``c`` so that each test row's true corruptions
    form one contiguous run of its sorted keys.
    """
    return (np.asarray(a, dtype=np.int64) * nb
            + np.asarray(b, dtype=np.int64)) * nc + np.asarray(c, dtype=np.int64)


def decode(keys: np.ndarray, nb: int, nc: int):
    """The (a, b, c) index arrays of ``edge_key(a, b, c, nb, nc)``."""
    c = keys % nc
    ab = keys // nc
    return ab // nb, ab % nb, c


def distinct_uniform(rng: np.random.Generator, total: int, count: int,
                     avoid: Optional[np.ndarray] = None) -> np.ndarray:
    """``count`` distinct integers from [0, total), sorted, uniform over
    subsets; with ``avoid`` (a sorted array of distinct integers in that
    range) the subsets exclude its values.

    A draw of every allowed value returns them as they are.  Else, up
    to ``DENSE_MAX`` (and, without ``avoid``, for dense draws) it takes
    the first ``count`` of a permutation of the allowed values; beyond,
    a uniform ``count`` of distinct random indices into them.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    free = total if avoid is None else total - len(avoid)
    if count > free:
        raise ValueError("count exceeds population size")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count == free or total <= DENSE_MAX or \
            (avoid is None and 3 * count >= total):
        pool = np.arange(total, dtype=np.int64)  # the allowed values
        if avoid is not None:
            pool = np.setdiff1d(pool, avoid, assume_unique=True)
        if count == free:
            return pool
        rng.shuffle(pool)  # in place: one array of the universe at most
        return np.sort(pool[:count])
    # Rounds of `count` indices into the allowed values until `count` are
    # distinct.  The stopping rule sees only how many, so the set is
    # exchangeable, and a uniform `count` of it is a uniform subset.
    idx = np.empty(0, dtype=np.int64)
    while len(idx) < count:
        idx = np.concatenate([idx, rng.integers(0, free, size=count)])
        idx.sort()
        idx = idx[np.append(True, idx[1:] != idx[:-1])]
    idx = np.sort(rng.choice(idx, count, replace=False, shuffle=False))
    if avoid is not None:  # index i is value i + #{j: avoid[j] - j <= i}
        shift = np.arange(len(avoid), dtype=np.int64)
        np.subtract(avoid, shift, out=shift)
        idx += np.searchsorted(shift, idx, side="right")
    return idx


def loss_edges(n: int, k: int, cap: int, seed: int):
    """The slots a loss scan covers: ``None`` (every slot) when the N^2 K
    universe has at most ``cap``, else the (heads, tails, rels) of a
    uniform subsample of ``cap`` slots drawn from ``seed``."""
    total = n * n * k
    if total <= cap:
        return None
    rng = np.random.default_rng(derive_seed(seed, TAG_EVAL))
    return decode(distinct_uniform(rng, total, cap), n, k)
