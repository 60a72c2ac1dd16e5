"""Score models for multi-relational networks.

A network has N entities and K relation types; every directed pair
(head, tail) together with a relation type is an edge that is either
present or absent.  A score model assigns each edge a real score from
latent entity vectors (one length-d row per entity) and relation
vectors (length depends on the model), and the probability of the edge
being present is the logistic function of that score.

Three score forms are supported:

``distance``
    b - ||head + shift - tail||^2, relation vector (shift, b), length d+1.
``bilinear``
    sum_r w_r * head_r * tail_r, relation vector w, length d.
``combined``
    sum_r b_r * (head_r + shift_r - tail_r)^2, relation vector
    (shift, b), length 2d.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from ._edges import ShapeError, check_indices, index_columns

__all__ = [
    "MODEL_KINDS",
    "ShapeError",
    "Triple",
    "NetworkShape",
    "ScoreModel",
    "ModelParams",
    "sigmoid",
    "score",
    "scores",
    "score_gradient",
    "score_gradients",
    "edge_probability",
    "edge_probabilities",
    "score_sup_bound",
    "lipschitz_bound",
]

MODEL_KINDS = ("distance", "bilinear", "combined")

# Smallest/largest doubles strictly inside (0, 1); sigmoid output is
# clamped here so downstream logs and KL terms never hit 0 or 1.
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


class Triple(NamedTuple):
    """One edge slot: (head entity, tail entity, relation type), a row."""

    head: int
    tail: int
    rel: int


def _require_int(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= ``low``: a
    count of 2.5 would be cut to 2, or fail far from where it was set."""
    if not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_real(name: str, value, low: float, high: float = math.inf,
                  strict: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and in [low, high],
    or (low, high) if ``strict``: NaN passes a bare ``<= 0`` test, and
    ``max(2.0, nan)`` is 2.0."""
    inside = low < value < high if strict else low <= value <= high
    if not (inside and math.isfinite(value)):
        if high < math.inf:
            left, right = "()" if strict else "[]"
            rule = f"in {left}{low:g}, {high:g}{right}"
        else:
            rule = f"{'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be finite and {rule}, got {value!r}")


@dataclasses.dataclass(frozen=True)
class NetworkShape:
    """Size of the edge universe plus the observation rate."""

    n_entities: int
    n_relations: int
    obs_rate: float = 1.0

    def __post_init__(self):
        for name in ("n_entities", "n_relations"):
            _require_int(name, getattr(self, name), 1)
        _require_real("obs_rate", self.obs_rate, 0, 1)

    @property
    def n_edges(self) -> int:
        return self.n_entities * self.n_entities * self.n_relations

    @property
    def expected_observations(self) -> float:
        return self.obs_rate * self.n_edges


@dataclasses.dataclass(frozen=True)
class ScoreModel:
    """Model kind plus latent dimension; fixes all parameter shapes."""

    kind: str
    latent_dim: int

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        _require_int("latent_dim", self.latent_dim, 1)

    @property
    def relation_dim(self) -> int:
        d = self.latent_dim
        if self.kind == "distance":
            return d + 1
        if self.kind == "bilinear":
            return d
        return 2 * d

    def param_count(self, shape: NetworkShape) -> int:
        """Total number of scalar parameters m for a given network."""
        return (
            shape.n_entities * self.latent_dim
            + shape.n_relations * self.relation_dim
        )


@dataclasses.dataclass
class ModelParams:
    """Latent vectors: entities (N, d), relations (K, relation_dim).

    ``radius`` is the row-norm budget U: every entity row and every
    relation row is supposed to satisfy ||row||_2 <= U.  Training and
    generation enforce this by projection; ``validate`` checks it.
    """

    entities: np.ndarray
    relations: np.ndarray
    radius: float

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relations.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.entities.copy(), self.relations.copy(), self.radius)

    def check_model(self, model: ScoreModel) -> None:
        if self.entities.ndim != 2 or self.relations.ndim != 2:
            raise ShapeError("entities and relations must be 2-d arrays")
        if self.entities.shape[1] != model.latent_dim:
            raise ShapeError(
                f"entity dim {self.entities.shape[1]} != model dim {model.latent_dim}"
            )
        if self.relations.shape[1] != model.relation_dim:
            raise ShapeError(
                f"relation dim {self.relations.shape[1]} != expected {model.relation_dim}"
            )

    def check_finite(self, label: str = "params") -> None:
        """Raise ``ValueError`` naming the array if any entry is NaN or inf."""
        for name, arr in (("entities", self.entities), ("relations", self.relations)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{label} {name} hold NaN or inf")

    def validate(self) -> None:
        _require_real("radius", self.radius, 0, strict=True)
        self.check_finite()
        for name, arr in (("entities", self.entities), ("relations", self.relations)):
            if arr.ndim != 2:
                raise ShapeError(f"{name} must be a 2-d array")
            norms = np.linalg.norm(arr, axis=1)
            # tiny tolerance: projection scaling can overshoot by an ulp
            if norms.size and norms.max() > self.radius * (1 + 1e-12) + 1e-12:
                raise ValueError(
                    f"{name} row norm {norms.max():g} exceeds radius {self.radius:g}"
                )


def sigmoid(x):
    """Overflow-safe logistic, clamped strictly inside (0, 1)."""
    arr = np.asarray(x, dtype=float)
    # one exp per element: e = exp(-|x|) never overflows, and the two
    # branches 1/(1+e) and e/(1+e) are the usual stable forms
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e)
    out /= 1.0 + e
    np.clip(out, _P_LO, _P_HI, out=out)
    return float(out) if arr.ndim == 0 else out


def _sigmoid_into(x: np.ndarray, work: np.ndarray, flag: np.ndarray) -> None:
    """``sigmoid`` of a float64 array, in place, bit for bit: the same
    operations in the same order, through the caller's ``work`` (float64)
    and ``flag`` (bool) arrays of ``x``'s shape instead of temporaries."""
    np.greater_equal(x, 0, out=flag)
    np.abs(x, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)
    np.copyto(x, work)
    np.copyto(x, 1.0, where=flag)
    np.add(1.0, work, out=work)
    np.divide(x, work, out=x)
    np.clip(x, _P_LO, _P_HI, out=x)


def _rows(model: ScoreModel, params: ModelParams, heads, tails, rels):
    """The head, tail and relation parameter rows of int64 index arrays."""
    params.check_model(model)
    return params.entities[heads], params.entities[tails], params.relations[rels]


def _scores(model: ScoreModel, params: ModelParams, heads, tails, rels):
    """``scores`` of checked int64 indices.  Every form is a three-operand
    ``einsum``, which sums the latent axis sequentially, j = 0, ..., d - 1
    (the two-operand form sums in SIMD order), so the compiled kernel's
    scores match these bit for bit."""
    th, tt, w = _rows(model, params, heads, tails, rels)
    d = model.latent_dim
    if model.kind == "distance":
        v = th + w[..., :d] - tt
        return w[..., d] - np.einsum("...j,...j,...j->...", v, v,
                                     np.ones(d))
    if model.kind == "bilinear":
        return np.einsum("...j,...j,...j->...", th, w, tt)
    v = th + w[..., :d] - tt
    return np.einsum("...j,...j,...j->...", w[..., d:], v, v)


def scores(model: ScoreModel, params: ModelParams, heads, tails, rels) -> np.ndarray:
    """Vectorized edge scores for index arrays that broadcast together.

    The result has the broadcast shape of ``heads``, ``tails`` and
    ``rels`` (0-d for scalars): parallel 1-d arrays give one score per
    edge, while e.g. ``(rows, 1)``, ``(1, N)`` and ``(rows, 1)`` score
    every row against all N tails without building the (rows, N) index
    arrays.  Rows are gathered at the unbroadcast shapes and each score
    is summed along the latent axis exactly as for 1-d input, so every
    score is bit-identical to the one the parallel 1-d call gives for
    that edge.  A non-integral index raises ``ValueError`` naming its
    column, and one outside ``params`` ``EdgeIndexError``, an ``IndexError``.
    """
    cols = index_columns(heads, tails, rels)  # makes 0-d columns (1,)
    check_indices(params.n_entities, params.n_relations, *cols)
    out = _scores(model, params, *cols)
    return out if any(map(np.ndim, (heads, tails, rels))) else out[0]


def score(model: ScoreModel, params: ModelParams, edge: Triple) -> float:
    """Score of a single edge; exact match with the vectorized path."""
    return float(scores(model, params, *edge))


def _score_gradients(model: ScoreModel, params: ModelParams, heads, tails, rels):
    """``score_gradients`` of checked int64 index columns."""
    th, tt, w = _rows(model, params, heads, tails, rels)
    d = model.latent_dim
    if model.kind == "distance":
        v = th + w[:, :d] - tt
        g_head = -2.0 * v
        g_rel = np.concatenate([g_head, np.ones((len(v), 1))], axis=1)
        return g_head, 2.0 * v, g_rel
    if model.kind == "bilinear":
        return w * tt, w * th, th * tt
    b = w[:, d:]
    v = th + w[:, :d] - tt
    bv = 2.0 * b * v
    return bv, -bv, np.concatenate([bv, v * v], axis=1)


def score_gradients(model: ScoreModel, params: ModelParams, heads, tails, rels):
    """Per-edge score gradients w.r.t. (head row, tail row, relation row).

    Returns arrays of shape (B, d), (B, d), (B, relation_dim) for 1-d
    index arrays of length B, checked as in ``scores``.
    """
    cols = index_columns(heads, tails, rels)
    check_indices(params.n_entities, params.n_relations, *cols)
    return _score_gradients(model, params, *cols)


def score_gradient(model: ScoreModel, params: ModelParams, edge: Triple):
    """Gradient of one edge's score: (d_head, d_tail, d_relation)."""
    return tuple(g[0] for g in score_gradients(model, params, *edge))


def edge_probabilities(model: ScoreModel, params: ModelParams, heads, tails, rels):
    """``sigmoid`` of ``scores``; a float for scalar indices."""
    return sigmoid(scores(model, params, heads, tails, rels))


def edge_probability(model: ScoreModel, params: ModelParams, edge: Triple) -> float:
    return float(sigmoid(score(model, params, edge)))


def score_sup_bound(model: ScoreModel, radius: float) -> float:
    """Bound C >= 2 with |score| <= C whenever all rows have norm <= radius.

    distance: max(2, U + 9U^2); bilinear: max(2, U^3); combined:
    max(2, 9U^3).  The 9U^2 / 9U^3 terms come from ||head + shift -
    tail|| <= 3U.
    """
    _require_real("radius", radius, 0, strict=True)
    u = float(radius)
    if model.kind == "distance":
        return max(2.0, u + 9.0 * u * u)
    if model.kind == "bilinear":
        return max(2.0, u**3)
    return max(2.0, 9.0 * u**3)


def lipschitz_bound(model: ScoreModel, radius: float) -> float:
    """Bound on the full-gradient norm of the score over the radius ball.

    distance: sqrt(1 + 108 U^2) (three blocks of norm <= 6U plus the
    constant-1 offset slot); bilinear: sqrt(3) U^2; combined:
    sqrt(189) U^2 (shift/entity blocks <= 6U^2 each, quadratic block
    <= 9U^2, so 3*(6U^2)^2 + (9U^2)^2 = 189 U^4).
    """
    _require_real("radius", radius, 0)
    u = float(radius)
    if model.kind == "distance":
        return float(np.sqrt(1.0 + 108.0 * u * u))
    if model.kind == "bilinear":
        return float(np.sqrt(3.0) * u * u)
    return float(np.sqrt(189.0) * u * u)
