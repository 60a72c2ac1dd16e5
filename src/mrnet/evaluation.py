"""Loss metrics against a known truth, and filtered ranking metrics.

Two evaluation regimes:

* simulation studies, where the ground-truth parameters are known and
  we measure average Bernoulli KL, mean squared score error, and the
  link (sign) error over a set of edge slots;
* knowledge-base completion, where only a set of true triples is known
  and we rank each test triple against corrupted versions of itself,
  filtering out corruptions that are themselves true.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from ._edges import (check_columns, check_indices, check_keyable, edge_key,
                     index_columns)
from .models import (
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    Triple,
    _sigmoid_into,
)

__all__ = [
    "KL_CLAMP",
    "EvalReport",
    "RankReport",
    "bernoulli_kl",
    "evaluate_losses",
    "rank_edge",
    "rank_report",
]

# Estimated probabilities are clamped into [KL_CLAMP, 1 - KL_CLAMP]
# before entering KL, so a saturated fit scores a large finite loss
# instead of infinity.
KL_CLAMP = 1e-12

_CHUNK = 1 << 18


def _rel_entr(x, y):
    """Elementwise x*log(x/y), 0 where x == 0 (scipy.special.rel_entr).

    NaN in gives NaN out, and x > 0 with y == 0 gives +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(x / y))


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``bernoulli_kl`` of float arrays, unchecked."""
    qc = np.clip(q, KL_CLAMP, 1.0 - KL_CLAMP)
    return _rel_entr(p, qc) + _rel_entr(1.0 - p, 1.0 - qc)


def _rel_entr_into(x, y, out) -> None:
    np.divide(x, y, out=out)
    np.log(out, out=out)
    np.multiply(x, out, out=out)


def _kl_into(p, q, out, work) -> None:
    """``_kl(p, q)`` into ``out``, bit for bit, for ``p`` strictly inside
    (0, 1), as ``sigmoid`` gives, so ``_rel_entr``'s zero branch never
    applies.  Overwrites ``p`` with 1 - p and ``q`` with 1 - its clamp,
    and uses ``work``; no temporaries."""
    np.clip(q, KL_CLAMP, 1.0 - KL_CLAMP, out=q)
    _rel_entr_into(p, q, out)
    np.subtract(1.0, p, out=p)
    np.subtract(1.0, q, out=q)
    _rel_entr_into(p, q, work)
    np.add(out, work, out=out)


def bernoulli_kl(p, q):
    """KL divergence between Bernoulli(p) and Bernoulli(q), elementwise.

    ``p`` is the reference and must lie in [0, 1]; ``q`` is the
    estimate and gets clamped away from the boundary by ``KL_CLAMP``.
    NaN in either raises ``ValueError``, as does a ``p`` outside [0, 1].
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.isnan(p).any() or np.isnan(q).any():
        raise ValueError("probabilities must not be NaN")
    if p.size and (p.min() < 0 or p.max() > 1):
        raise ValueError("reference probabilities must lie in [0, 1]")
    out = _kl(p, q)
    return float(out) if p.ndim == 0 and q.ndim == 0 else out


@dataclasses.dataclass
class EvalReport:
    avg_kl: float
    mse_phi: float
    link_err: float
    n_evaluated: int


def _check_fits(params: ModelParams, shape: NetworkShape) -> None:
    """Raise ``EdgeIndexError`` unless every slot of ``shape`` indexes
    ``params``' rows."""
    n, k = [shape.n_entities - 1], [shape.n_relations - 1]
    check_indices(params.n_entities, params.n_relations, n, n, k)


def evaluate_losses(model: ScoreModel, fitted: ModelParams,
                    truth: ModelParams, edges=None,
                    shape: Optional[NetworkShape] = None) -> EvalReport:
    """Average KL / squared score error / sign error of a fit vs truth.

    ``edges`` is a (heads, tails, rels) triple of index arrays; pass
    ``None`` with a ``shape`` to scan every slot of the edge universe.
    Either way the engine that ``_kernel.engine()`` gives scores the
    slots ``_CHUNK`` at a time, on the calling thread, and each chunk's
    terms go to four float rows and two flag rows allocated once per
    scan, so memory stays bounded; both engines give the same scores bit
    for bit.  Each total adds the pairwise sums of whole chunks' terms,
    in chunk order.
    The link prediction for a slot is "present" iff the fitted
    probability is >= 1/2, and the link error is the fraction of slots
    where that disagrees with the truth.
    Non-finite parameters raise ``ValueError``; an edge index (or a
    ``shape``) outside the fit's entities or relations raises
    ``IndexError``.
    """
    fitted.check_model(model)
    truth.check_model(model)
    if fitted.entities.shape != truth.entities.shape or \
            fitted.relations.shape != truth.relations.shape:
        raise ShapeError("fitted and truth parameter shapes differ")
    fitted.check_finite("fitted")
    truth.check_finite("truth")
    if edges is None:
        if shape is None:
            raise ValueError("need a network shape to scan all edges")
        _check_fits(fitted, shape)
        total = shape.n_edges
    else:
        edges = index_columns(*edges)
        check_columns(*edges)
        total = len(edges[0])
        if not total:
            raise ValueError("no edges to evaluate")
        check_indices(fitted.n_entities, fitted.n_relations, *edges)

    from . import _kernel  # builds the C kernel on first use
    engine = _kernel.engine()
    size = min(total, _CHUNK)
    # per slot of a chunk: the two scores, which become the true and the
    # fitted probabilities, a work value, and the squared error, summed
    # before the KL term overwrites it; then a work flag and the link
    # mismatch
    real = np.empty((4, size))
    flags = np.empty((2, size), dtype=bool)

    def score(params: ModelParams, out: np.ndarray, s: int, e: int) -> None:
        if edges is None:
            engine.slot_scores(model, params, shape, s, out)
        else:
            engine.edge_scores(model, params, *(c[s:e] for c in edges), out)

    kl_sum = mse_sum = err_sum = 0.0
    for s in range(0, total, _CHUNK):
        e = min(s + _CHUNK, total)
        p, q, work, kl = real[:, :e - s]
        flag, mismatch = flags[:, :e - s]
        score(truth, p, s, e)
        score(fitted, q, s, e)
        np.subtract(q, p, out=kl)
        np.multiply(kl, kl, out=kl)
        mse_sum += kl.sum()
        _sigmoid_into(p, work, flag)
        _sigmoid_into(q, work, flag)
        np.greater_equal(q, 0.5, out=mismatch)
        np.greater_equal(p, 0.5, out=flag)
        np.not_equal(mismatch, flag, out=mismatch)
        _kl_into(p, q, kl, work)  # sigmoids of checked params
        kl_sum += kl.sum()
        err_sum += np.count_nonzero(mismatch)
    return EvalReport(kl_sum / total, mse_sum / total, err_sum / total, total)


# The filter lookup ``as_validity`` builds from known triples:
# ``lookup(slot, a, b, shape)`` with ``slot`` a column (0 head, 1 tail,
# 2 relation) and ``a``, ``b`` the block's other two index columns in
# column order gives the (rows, width) mask of which candidates
# 0..width-1 in ``slot`` make a known triple, width being its size in
# ``shape``.
Validity = Callable[[int, np.ndarray, np.ndarray, NetworkShape], np.ndarray]

# Ranking filters (and, in the numpy engine, scores) at most about this
# many candidates per block, so memory stays flat however large the test
# set is.
_RANK_BLOCK = 1 << 16

_SLOT_COLUMN = {"head": 0, "tail": 1, "relation": 2}

_TRIPLE_FORMS = ("an (n, 3) array or a collection of (head, tail, rel) "
                 "tuples or Triples")


def _triple_columns(triples) -> np.ndarray:
    """The (3, n) int64 head, tail and relation columns of triples in
    ``_TRIPLE_FORMS``, each contiguous, in a new array; an empty
    collection is (0, 3), and a non-integral index raises ``ValueError``."""
    if callable(triples):
        raise TypeError(f"triples must be {_TRIPLE_FORMS}, got a callable")
    rows = triples if isinstance(triples, np.ndarray) else np.array(list(triples))
    rows = rows.reshape(0, 3) if rows.shape == (0,) else rows
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ShapeError(f"triples must be {_TRIPLE_FORMS}, got shape "
                         f"{rows.shape}")
    return np.stack(index_columns(*rows.T))


def as_validity(truth_labels) -> Validity:
    """The ranking filter over known triples, in one of ``_TRIPLE_FORMS``.

    Returns ``lookup(slot, a, b, shape)`` (see ``Validity``).  It keeps
    sorted int64 keys of the known triples per slot, in the shape's
    (N, N, K) radix with that slot's index as the least significant
    digit: (h*K + r)*N + t for tails, (t*K + r)*N + h for heads,
    (h*N + t)*K + r for relations, so memory is O(known triples).  Each
    row's true corruptions are one run of that slot's keys, found by
    two ``searchsorted`` calls.  A slot's first lookup range-checks the
    known triples against the shape (``EdgeIndexError``) and the shape
    against int64 keys (``check_keyable``).
    """
    # a new array: the keys are built from it on first use
    known = _triple_columns(truth_labels)
    keys = {}  # (slot, sizes) -> that slot's sorted keys

    def lookup(slot, a, b, shape):
        sizes = (shape.n_entities, shape.n_entities, shape.n_relations)
        pa, pb = (i for i in range(3) if i != slot)  # key order
        nb, ns = sizes[pb], sizes[slot]
        if (slot, sizes) not in keys:
            check_indices(shape.n_entities, shape.n_relations, *known)
            check_keyable(shape.n_entities, shape.n_relations)
            keys[slot, sizes] = np.unique(edge_key(
                known[pa], known[pb], known[slot], nb, ns))
        sorted_keys = keys[slot, sizes]
        first = edge_key(a, b, 0, nb, ns)  # the row's smallest key
        lo = np.searchsorted(sorted_keys, first)
        # side="right" of the row's largest key: first + ns may overflow
        hi = np.searchsorted(sorted_keys, first + (ns - 1), side="right")
        run = hi - lo
        row = np.repeat(np.arange(len(first)), run)
        # position of each true key in sorted_keys: lo of its row plus
        # its place within the row's run
        at = np.arange(len(row)) + np.repeat(lo - (np.cumsum(run) - run), run)
        mask = np.zeros((len(first), ns), dtype=bool)
        mask[row, sorted_keys[at] - first[row]] = True
        return mask

    return lookup


def _filtered_ranks(model: ScoreModel, params: ModelParams, heads, tails,
                    rels, col: int, valid: Validity,
                    shape: NetworkShape) -> np.ndarray:
    """Filtered ranks of a block of checked test triples in slot ``col``.

    ``heads``/``tails``/``rels`` are parallel contiguous int64 arrays,
    one row per test triple.  All rows' candidates are filtered with one
    ``valid`` call, then scored and counted with one ``rank_counts`` call
    of the engine that ``_kernel.engine()`` gives: the compiled kernel
    goes row by row, with no (rows, width) score array, and its numpy
    twin scores the block with one broadcast score call.
    """
    fixed = [heads, tails, rels]
    pos = fixed.pop(col)
    is_true = valid(col, *fixed, shape)
    row = np.arange(len(pos))
    if not is_true[row, pos].all():
        raise ValueError("target triple is not marked true in the filter")
    from . import _kernel  # builds the C kernel on first use
    above, tied = _kernel.engine().rank_counts(
        model, params, col, heads, tails, rels, np.ascontiguousarray(is_true))
    return 1.0 + above + 0.5 * tied


def _ranks(model: ScoreModel, params: ModelParams, test_triples,
           truth_labels, shape: NetworkShape, slots) -> dict:
    """Per slot in ``slots``, the filtered ranks of ``test_triples``: the
    triples are converted and range-checked and the parameters checked
    once, then ranked in blocks of about ``_RANK_BLOCK`` candidates."""
    cols = _triple_columns(test_triples)
    if not cols.shape[1]:
        raise ValueError("empty test set")
    params.check_finite()
    valid = as_validity(truth_labels)
    check_indices(shape.n_entities, shape.n_relations, *cols)
    _check_fits(params, shape)
    ranks = {}
    for slot in slots:
        width = shape.n_relations if slot == "relation" else shape.n_entities
        step = max(1, _RANK_BLOCK // width)
        ranks[slot] = np.concatenate([
            _filtered_ranks(model, params, *cols[:, i:i + step],
                            _SLOT_COLUMN[slot], valid, shape)
            for i in range(0, cols.shape[1], step)])
    return ranks


def rank_edge(model: ScoreModel, params: ModelParams, target: Triple,
              slot: str, truth_labels, shape: NetworkShape) -> float:
    """Filtered rank of a true triple against corruptions in one slot.

    ``slot`` is "head", "tail", or "relation"; the candidate pool is
    the target itself plus every corruption of that slot that is NOT a
    true triple (true corruptions are filtered out).  ``truth_labels``
    holds the true triples in one of ``_TRIPLE_FORMS``.  Rank is 1 plus
    the number of candidates scoring strictly above the target, plus
    half the number of non-target candidates tying it.  Parameters
    holding NaN or inf raise ``ValueError``.
    """
    if slot not in _SLOT_COLUMN:
        raise ValueError(f"unknown slot {slot!r}")
    return float(_ranks(model, params, [target], truth_labels, shape,
                        (slot,))[slot][0])


@dataclasses.dataclass
class RankReport:
    """Filtered ranking summary over a test set.

    Entity metrics average head and tail corruptions (2 ranks per test
    triple); relation metrics use relation corruptions (1 rank each).
    """

    mr_entity: float
    mrr_entity: float
    hits_entity: Dict[int, float]
    mr_relation: float
    mrr_relation: float
    hits_relation: Dict[int, float]
    n_triples: int


def rank_report(model: ScoreModel, params: ModelParams, test_triples,
                truth_labels, shape: NetworkShape,
                entity_hits: Iterable[int] = (10,),
                relation_hits: Iterable[int] = (1,)) -> RankReport:
    """Mean rank / mean reciprocal rank / hits@q over a test set.

    ``test_triples`` and the known triples ``truth_labels`` each come in
    one of ``_TRIPLE_FORMS``.  Works through the test set in blocks of
    about ``_RANK_BLOCK`` candidates per slot; each rank equals
    ``rank_edge``'s.  Parameters holding NaN or inf raise
    ``ValueError``, as in ``rank_edge``: a NaN score compares false with
    everything, so it would still get a rank.
    """
    ranks = _ranks(model, params, test_triples, truth_labels, shape,
                   _SLOT_COLUMN)
    # head and tail ranks interleave per triple, as rank_edge would list them
    ent_ranks = np.stack([ranks["head"], ranks["tail"]], axis=1).ravel()
    rel_ranks = ranks["relation"]

    def summarize(ranks, qs):
        hits = {int(q): float((ranks <= q).mean()) for q in qs}
        return float(ranks.mean()), float((1.0 / ranks).mean()), hits

    mr_e, mrr_e, hits_e = summarize(ent_ranks, entity_hits)
    mr_r, mrr_r, hits_r = summarize(rel_ranks, relation_hits)
    return RankReport(mr_e, mrr_e, hits_e, mr_r, mrr_r, hits_r, len(rel_ranks))
