"""Penalized maximum-likelihood fitting from partially observed edges.

The data are Bernoulli labels on a subset S of edge slots.  We maximize

    sum_{(edge, y) in S} [ y*log(sigmoid(score)) + (1-y)*log(1-sigmoid(score)) ]
        - rho1 * ||params||_1 - rho2 * ||params||_2^2

over parameters whose rows are confined to the radius-U ball, with an
optional hard cap on the number of nonzero entries.  Optimization is
projected stochastic ascent with AdaGrad step sizes; only rows touched
by a minibatch are updated, so cost per step is independent of N.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ._edges import (check_columns, check_indices, check_keyable, edge_key,
                     index_columns)
from ._rng import check_seed
from .models import (
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    _require_int,
    _require_real,
    _score_gradients,
    _scores,
    scores,
    sigmoid,
)

__all__ = [
    "ObservationSet",
    "TrainConfig",
    "TrainResult",
    "log_likelihood",
    "penalized_objective",
    "objective_gradient",
    "project_ball",
    "project_l0",
    "train",
]


class ObservationSet:
    """Columnar store of distinct labeled edges for one network.

    Every set is checked when made: indices inside ``shape``, labels
    0 or 1, and no edge twice.
    """

    def __init__(self, shape: NetworkShape, heads, tails, rels, labels):
        self.shape = shape
        self.heads, self.tails, self.rels = index_columns(heads, tails, rels)
        labels = np.ascontiguousarray(labels)
        check_columns(self.heads, self.tails, self.rels, labels)
        n, k = shape.n_entities, shape.n_relations
        check_indices(n, k, self.heads, self.tails, self.rels)
        # before the int8 cast, which would wrap 257 to 1 and cut 0.7 to 0
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        check_keyable(n, k)
        lin = edge_key(self.heads, self.tails, self.rels, n, k)
        lin.sort()  # a fresh array; far cheaper than np.unique
        if np.any(lin[1:] == lin[:-1]):
            raise ValueError("observations contain duplicate edges")
        self.labels = np.ascontiguousarray(labels, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.heads)

    def positive_rate(self) -> float:
        return float(self.labels.mean()) if len(self) else float("nan")


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings, checked when made.

    ``sparsity_cap`` (if set) keeps at most that many nonzero scalars
    across all parameters, re-imposed by hard thresholding once per
    epoch.  ``radius`` is the row-norm budget U for the fitted model.
    ``epochs`` and ``batch_size`` are integers >= 1, ``sparsity_cap``
    one >= 0; the step settings, ``radius`` and ``init_scale`` are
    finite and positive, the penalty weights finite and nonnegative;
    ``seed`` is an integer of any sign, by ``_rng.check_seed``.  Any
    other value raises ``ValueError`` naming the field.  ``train`` wraps
    a negative seed modulo 2**64, as ``derive_seed`` does, so seed -1
    draws what seed 2**64 - 1 draws.
    """

    epochs: int
    learning_rate: float = 0.1
    adagrad_eps: float = 1e-8
    batch_size: int = 128
    rho1: float = 0.0
    rho2: float = 0.0
    sparsity_cap: Optional[int] = None
    radius: float = 20.0
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            _require_int(name, getattr(self, name), 1)
        if self.sparsity_cap is not None:
            _require_int("sparsity_cap", self.sparsity_cap, 0)
        for name in ("learning_rate", "adagrad_eps", "radius", "init_scale"):
            _require_real(name, getattr(self, name), 0, strict=True)
        for name in ("rho1", "rho2"):
            _require_real(name, getattr(self, name), 0)
        check_seed(self.seed)


@dataclasses.dataclass
class TrainResult:
    """What ``train`` gives: the fitted parameters, the penalized
    objective at them, the nonzero count at init and after each epoch,
    and the objective at the same points when ``train`` was asked for
    the trace (else None)."""

    params: ModelParams
    objective: float
    nnz_trace: np.ndarray  # epochs + 1 entries; [0] is at init
    objective_trace: Optional[np.ndarray] = None  # as nnz_trace


@dataclasses.dataclass
class SparseGradient:
    """Objective gradient restricted to the rows a batch touches."""

    entity_rows: np.ndarray
    entity_grad: np.ndarray
    relation_rows: np.ndarray
    relation_grad: np.ndarray


def log_likelihood(model: ScoreModel, params: ModelParams,
                   obs: ObservationSet) -> float:
    """Bernoulli log-likelihood of the labels; 0.0 for no observations."""
    if len(obs) == 0:
        return 0.0
    # checked: perfbench's tracer test follows this call
    phi = scores(model, params, obs.heads, obs.tails, obs.rels)
    return _log_likelihood(phi, obs.labels)


def _log_likelihood(phi: np.ndarray, labels: np.ndarray) -> float:
    """``log_likelihood`` of the 0/1 int8 labels from their edges' float64
    scores ``phi``, computed in ``phi``, which it overwrites: callers pass
    scores they own, and no temporary of their size is made."""
    # y=1 -> -log(1+e^-phi), y=0 -> -log(1+e^phi); stable via logaddexp
    np.negative(phi, out=phi, where=labels.view(np.bool_))
    np.logaddexp(0.0, phi, out=phi)
    return float(-phi.sum())


def _penalty(params: ModelParams, rho1: float, rho2: float) -> float:
    if rho1 == 0.0 and rho2 == 0.0:
        return 0.0
    e, r = params.entities, params.relations
    l1 = np.abs(e).sum() + np.abs(r).sum()
    sq = (e * e).sum() + (r * r).sum()
    return rho1 * l1 + rho2 * sq


def penalized_objective(model: ScoreModel, params: ModelParams,
                        obs: ObservationSet, rho1: float = 0.0,
                        rho2: float = 0.0) -> float:
    """Log-likelihood minus elastic-net penalty (to be maximized)."""
    for name, value in (("rho1", rho1), ("rho2", rho2)):
        _require_real(name, value, 0)
    return log_likelihood(model, params, obs) - _penalty(params, rho1, rho2)


def objective_gradient(model: ScoreModel, params: ModelParams,
                       batch: ObservationSet, rho1: float = 0.0,
                       rho2: float = 0.0, batch_scale: float = 1.0) -> SparseGradient:
    """Ascent gradient over a batch, as dense blocks on the touched rows.

    ``batch_scale`` multiplies the data term only (set it to
    |S| / |batch| for an unbiased minibatch estimate); the penalty term
    enters at full strength on every touched row.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    for name, value in (("rho1", rho1), ("rho2", rho2)):
        _require_real(name, value, 0)
    _require_real("batch_scale", batch_scale, 0, strict=True)
    return _gradient(model, params, batch.heads, batch.tails, batch.rels,
                     batch.labels, rho1, rho2, batch_scale)


def _gradient(model: ScoreModel, params: ModelParams, heads, tails, rels,
              labels, rho1: float, rho2: float,
              batch_scale: float) -> SparseGradient:
    """``objective_gradient`` of checked, nonempty columns."""
    p = sigmoid(_scores(model, params, heads, tails, rels))
    resid = (labels - p) * batch_scale
    gh, gt, gr = _score_gradients(model, params, heads, tails, rels)

    nb = len(heads)
    ent_rows, ent_inv = np.unique(
        np.concatenate([heads, tails]), return_inverse=True)
    ent_grad = np.zeros((len(ent_rows), model.latent_dim))
    np.add.at(ent_grad, ent_inv[:nb], resid[:, None] * gh)
    np.add.at(ent_grad, ent_inv[nb:], resid[:, None] * gt)

    rel_rows, rel_inv = np.unique(rels, return_inverse=True)
    rel_grad = np.zeros((len(rel_rows), model.relation_dim))
    np.add.at(rel_grad, rel_inv, resid[:, None] * gr)

    if rho1 or rho2:
        for rows, grad, block in ((ent_rows, ent_grad, params.entities),
                                  (rel_rows, rel_grad, params.relations)):
            vals = block[rows]
            grad -= rho1 * np.sign(vals) + 2.0 * rho2 * vals
    return SparseGradient(ent_rows, ent_grad, rel_rows, rel_grad)


def _scale_rows(arr: np.ndarray, rows: np.ndarray, radius: float) -> None:
    norms = np.linalg.norm(arr[rows], axis=1)
    over = norms > radius
    if np.any(over):
        arr[rows[over]] *= (radius / norms[over])[:, None]


def project_ball(params: ModelParams, radius: float) -> ModelParams:
    """Rescale rows with norm above ``radius`` back onto the sphere."""
    _require_real("radius", radius, 0, strict=True)
    out = ModelParams(params.entities.copy(), params.relations.copy(), radius)
    _scale_rows(out.entities, np.arange(len(out.entities)), radius)
    _scale_rows(out.relations, np.arange(len(out.relations)), radius)
    return out


def project_l0(params: ModelParams, cap: int) -> ModelParams:
    """Keep the ``cap`` largest-magnitude scalars, zero the rest.

    Ties are broken toward the earlier position in the flattened
    (entities, relations) order, so the result is deterministic.
    """
    ne = params.entities.size
    total = ne + params.relations.size
    _require_int("cap", cap, 0)
    if cap >= total:
        return params.copy()
    flat = np.concatenate([params.entities.ravel(), params.relations.ravel()])
    order = np.argsort(-np.abs(flat), kind="stable")
    kept = np.zeros(total)
    kept[order[:cap]] = flat[order[:cap]]
    return ModelParams(
        kept[:ne].reshape(params.entities.shape),
        kept[ne:].reshape(params.relations.shape),
        params.radius,
    )


def _init_params(model: ScoreModel, shape: NetworkShape,
                 config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    s = config.init_scale
    ent = rng.uniform(-s, s, size=(shape.n_entities, model.latent_dim))
    rel = rng.uniform(-s, s, size=(shape.n_relations, model.relation_dim))
    params = project_ball(ModelParams(ent, rel, config.radius), config.radius)
    if config.sparsity_cap is not None:
        params = project_l0(params, config.sparsity_cap)
    return params


def _nnz(params: ModelParams) -> int:
    return int(np.count_nonzero(params.entities)
               + np.count_nonzero(params.relations))


def _numpy_epoch(model: ScoreModel, params: ModelParams, g2_ent: np.ndarray,
                 g2_rel: np.ndarray, obs: ObservationSet, perm: np.ndarray,
                 config: TrainConfig) -> None:
    """One epoch of AdaGrad steps in numpy, in place."""
    n_obs = len(obs)
    lr, eps = config.learning_rate, config.adagrad_eps
    for start in range(0, n_obs, config.batch_size):
        idx = perm[start:start + config.batch_size]
        grad = _gradient(model, params, obs.heads[idx], obs.tails[idx],
                         obs.rels[idx], obs.labels[idx], config.rho1,
                         config.rho2, n_obs / len(idx))
        for rows, g, block, g2 in (
            (grad.entity_rows, grad.entity_grad, params.entities, g2_ent),
            (grad.relation_rows, grad.relation_grad, params.relations, g2_rel),
        ):
            g2[rows] += g * g
            block[rows] += lr * g / (np.sqrt(g2[rows]) + eps)
            _scale_rows(block, rows, config.radius)


def _numpy_epochs(model: ScoreModel, params: ModelParams, g2_ent: np.ndarray,
                  g2_rel: np.ndarray, obs: ObservationSet,
                  config: TrainConfig, rng: np.random.Generator,
                  epochs: int) -> np.ndarray:
    """``_kernel.Fit.run`` in numpy: the reference the compiled kernel's
    epochs are tested against, and the fallback when no kernel can be
    built."""
    nnz = np.empty(epochs, dtype=np.int64)
    for epoch in range(len(nnz)):
        _numpy_epoch(model, params, g2_ent, g2_rel, obs,
                     rng.permutation(len(obs)), config)
        if config.sparsity_cap is not None:
            capped = project_l0(params, config.sparsity_cap)
            params.entities[...] = capped.entities
            params.relations[...] = capped.relations
        nnz[epoch] = _nnz(params)
    return nnz


def _checked(value: float, epoch: int) -> float:
    if not np.isfinite(value):
        raise ValueError(f"objective is {value} after {epoch} epochs")
    return value


def _fit(model: ScoreModel, shape: NetworkShape, obs: ObservationSet,
         config: TrainConfig, trace: bool):
    """``train``'s epochs on checked inputs: the parameters, the AdaGrad
    state, the nonzero counts, the objective trace (None unless
    ``trace``) and the final objective.  With ``trace``, raises at the
    first objective that is not finite."""
    from . import _kernel  # builds the C kernel on first use
    seed = config.seed
    rng = np.random.default_rng(seed if seed >= 0 else int(seed) % 2 ** 64)
    params = _init_params(model, shape, config, rng)
    g2 = (np.zeros_like(params.entities), np.zeros_like(params.relations))
    fit = _kernel.engine().fit(model, params, *g2, obs, config)

    def objective():  # one formula for both engines
        return (_log_likelihood(fit.scores(), obs.labels)
                - _penalty(params, config.rho1, config.rho2))

    epochs = config.epochs
    nnz = np.empty(epochs + 1, dtype=np.int64)
    nnz[0] = _nnz(params)
    # every draw from rng after _init_params is an epoch order
    if not trace:
        nnz[1:] = fit.run(rng, epochs)
        return params, g2, nnz, None, objective()
    objectives = np.empty(epochs + 1)
    objectives[0] = _checked(objective(), 0)
    for done in range(1, epochs + 1):
        nnz[done:done + 1] = fit.run(rng, 1)
        objectives[done] = _checked(objective(), done)
    return params, g2, nnz, objectives, objectives[-1]


def train(model: ScoreModel, shape: NetworkShape, obs: ObservationSet,
          config: TrainConfig, *, trace: bool = False) -> TrainResult:
    """Projected AdaGrad ascent on the penalized log-likelihood.

    Deterministic given ``config.seed``.  Ball projection runs on the
    touched rows after every step (projection is idempotent, so
    untouched rows stay feasible); the sparsity cap, if any, is
    re-imposed once per epoch and at the end.

    The epochs run in the engine that ``_kernel.engine()`` gives: the
    compiled kernel, or its numpy twin if no kernel could be built; the
    two agree to rounding.  The fit is bound once and runs on the
    calling thread.  An untraced fit runs all its epochs in one call,
    which imposes the cap and counts the nonzeros after each epoch.
    Each epoch's order is drawn just before it from the fit's generator,
    as ``rng.permutation`` draws it; the compiled kernel draws it in C
    through numpy's ``bitgen_t``, so the orders do not depend on the
    engine or on how many epochs a call runs.

    The result always holds the final objective and the nonzero count
    after each epoch.  The penalized objective after each epoch, which
    costs a pass over the observations per epoch, is computed only with
    ``trace=True``: a traced fit runs one epoch per call and computes
    the objective after each.  Otherwise ``objective_trace`` is None and
    the objective is computed once, at the final parameters.  The two
    give the same parameters, counts and final objective bit for bit.
    Both engines compute the objective the same way: the bound fit
    scores the observations, bit for bit as ``models.scores`` does, and
    numpy turns the scores and the parameters into the log-likelihood
    less the penalty.

    Raises ValueError for an index outside ``shape``, for an objective
    that is not finite and for AdaGrad state that is not finite (a
    squared gradient overflowed, so every later step of its entry is 0),
    rather than fit on a wrapped index or return a NaN or stalled fit.
    After the fit the parameters, the AdaGrad state and the final
    objective are checked; if one is not finite, the fit is run again
    with the trace, which is deterministic, to name the first epoch
    whose objective is not finite (``objective is nan after 3 epochs``).
    Without the trace, an objective that is not finite after some epoch
    but finite again at the end (a sparsity cap can zero a NaN entry)
    raises nothing.
    """
    if len(obs) == 0:
        raise ValueError("cannot train on an empty observation set")
    if obs.shape.n_entities != shape.n_entities or \
            obs.shape.n_relations != shape.n_relations:
        raise ShapeError("observation set does not match the network shape")
    check_indices(shape.n_entities, shape.n_relations, obs.heads, obs.tails,
                  obs.rels)
    cap = config.sparsity_cap
    if cap is not None and cap > model.param_count(shape):
        raise ValueError("sparsity_cap exceeds the total parameter count")

    params, g2, nnz, objectives, final = _fit(model, shape, obs, config,
                                              trace)
    g2_finite = all(np.isfinite(block).all() for block in g2)
    if not (g2_finite and np.isfinite(final) and
            np.isfinite(params.entities).all() and
            np.isfinite(params.relations).all()):
        if not trace:  # the replay raises at the first bad objective
            _fit(model, shape, obs, config, True)
        if not g2_finite:
            raise ValueError("AdaGrad's squared-gradient sums overflowed, so "
                             "the fit stalled; lower learning_rate")
        params.check_finite("fitted")
    return TrainResult(params, float(final), nnz, objectives)
