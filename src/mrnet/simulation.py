"""Synthetic networks: ground-truth parameters, labels, observations.

The generator draws truth parameters from truncated normals, realizes
edge labels as independent Bernoulli draws with the model-implied
probabilities, and reveals each edge independently with probability
``obs_rate``.  Labels come from a counter-based stream keyed by the
edge's linear index, so any sub-collection of edges can be realized
without touching the rest — a network with 10^9 edge slots costs only
as much as the slots actually examined.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._edges import (DENSE_MAX, EVAL_CAP, decode, distinct_uniform,
                     edge_key, loss_edges)
from ._rng import (TAG_EVAL, TAG_LABELS, TAG_MASK, TAG_TRAIN, TAG_TRUTH,
                   counter_uniforms, derive_seed)
from .estimation import ObservationSet, TrainConfig, train
from .evaluation import evaluate_losses
from .models import (ModelParams, NetworkShape, ScoreModel, _require_int,
                     _require_real, edge_probabilities)

__all__ = [
    "GenSpec",
    "ExperimentGrid",
    "GridRow",
    "generate_truth",
    "sample_network",
    "sample_observations",
    "run_grid",
    "write_grid_csv",
    "GRID_CSV_HEADER",
]


@dataclasses.dataclass(frozen=True)
class GenSpec:
    """Ground-truth generator settings.

    Entity coordinates ~ N(0, entity_sd^2), relation shift coordinates
    ~ N(0, shift_sd^2), relation weight coordinates ~ N(0, weight_sd^2),
    every coordinate rejected outside [-truncation, truncation].  The
    implied row-norm radius is truncation * sqrt(max row length).
    """

    model: ScoreModel
    shape: NetworkShape
    entity_sd: float = 1.0
    shift_sd: float = 1.0
    weight_sd: float = 0.5
    truncation: float = 20.0
    seed: int = 0

    def __post_init__(self):
        for name in ("entity_sd", "shift_sd", "weight_sd", "truncation"):
            _require_real(name, getattr(self, name), 0, strict=True)

    @property
    def radius(self) -> float:
        d = max(self.model.latent_dim, self.model.relation_dim)
        return self.truncation * float(np.sqrt(d))


def _truncated_normal(rng: np.random.Generator, shape, sd: float,
                      bound: float) -> np.ndarray:
    out = rng.normal(0.0, sd, size=shape)
    bad = np.abs(out) > bound
    while np.any(bad):  # rejection; redraw only the offending coordinates
        out[bad] = rng.normal(0.0, sd, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def generate_truth(spec: GenSpec) -> ModelParams:
    """Draw ground-truth parameters; deterministic in ``spec.seed``."""
    rng = np.random.default_rng(derive_seed(spec.seed, TAG_TRUTH))
    model, shape = spec.model, spec.shape
    d = model.latent_dim
    ent = _truncated_normal(rng, (shape.n_entities, d), spec.entity_sd,
                            spec.truncation)
    k = shape.n_relations
    if model.kind == "distance":
        shift = _truncated_normal(rng, (k, d), spec.shift_sd, spec.truncation)
        offs = _truncated_normal(rng, (k, 1), spec.weight_sd, spec.truncation)
        rel = np.concatenate([shift, offs], axis=1)
    elif model.kind == "bilinear":
        rel = _truncated_normal(rng, (k, d), spec.weight_sd, spec.truncation)
    else:
        shift = _truncated_normal(rng, (k, d), spec.shift_sd, spec.truncation)
        wt = _truncated_normal(rng, (k, d), spec.weight_sd, spec.truncation)
        rel = np.concatenate([shift, wt], axis=1)
    return ModelParams(ent, rel, spec.radius)


class LabelSampler:
    """Lazy Bernoulli edge labels for one realized network.

    The label of edge (h, t, r) is a pure function of the sampler's
    seed and the edge's linear index (h*N + t)*K + r, so queries are
    independent of order and of which other edges get realized.
    """

    def __init__(self, model: ScoreModel, truth: ModelParams,
                 shape: NetworkShape, seed: int):
        truth.check_model(model)
        if truth.n_entities != shape.n_entities or \
                truth.n_relations != shape.n_relations:
            raise ValueError("truth parameters do not match the network shape")
        self.model = model
        self.truth = truth
        self.shape = shape
        self._key = derive_seed(seed, TAG_LABELS)

    def probabilities(self, heads, tails, rels) -> np.ndarray:
        return edge_probabilities(self.model, self.truth, heads, tails, rels)

    def labels(self, heads, tails, rels) -> np.ndarray:
        p = self.probabilities(heads, tails, rels)  # checks the indices
        n, k = self.shape.n_entities, self.shape.n_relations
        u = counter_uniforms(self._key, edge_key(heads, tails, rels, n, k))
        return (u < p).astype(np.int8)


def sample_network(model: ScoreModel, truth: ModelParams,
                   shape: NetworkShape, seed: int) -> LabelSampler:
    """Realize one network's labels (lazily) from the ground truth."""
    return LabelSampler(model, truth, shape, seed)


def _flip(rng: np.random.Generator, total: int, rate: float) -> np.ndarray:
    """The slots whose uniform falls below ``rate``; cost grows with ``total``."""
    return np.nonzero(rng.random(total) < rate)[0].astype(np.int64)


def _binomial(rng: np.random.Generator, total: int, rate: float) -> np.ndarray:
    """A Binomial(total, rate) count, then a uniform subset of that size:
    ``_flip``'s distribution at a cost that grows with the count."""
    return distinct_uniform(rng, total, int(rng.binomial(total, rate)))


def sample_observations(shape: NetworkShape, labels: LabelSampler,
                        seed: int) -> ObservationSet:
    """Reveal each edge independently with probability ``shape.obs_rate``:
    by ``_flip`` up to ``DENSE_MAX`` slots, by ``_binomial`` beyond."""
    total = shape.n_edges
    rate = shape.obs_rate
    rng = np.random.default_rng(derive_seed(seed, TAG_MASK))
    chosen = (_flip if total <= DENSE_MAX else _binomial)(rng, total, rate)
    heads, tails, rels = decode(chosen, shape.n_entities, shape.n_relations)
    ys = labels.labels(heads, tails, rels)
    return ObservationSet(shape, heads, tails, rels, ys)


@dataclasses.dataclass(frozen=True)
class ExperimentGrid:
    """A sweep over network sizes and observation rates.

    ``gen`` is the template generator (its shape's size fields are
    overridden per cell; its seed is the master seed for the whole
    grid).  Evaluation covers every edge slot when the universe has at
    most ``eval_cap`` slots, else a uniform subsample of that size.

    A grid has at least one cell and one replicate: ``entity_counts``
    lists integers >= 1, ``obs_rates`` rates in [0, 1], and
    ``replicates`` and ``eval_cap`` are integers >= 1; else
    ``ValueError`` names the field.  The grid is frozen, its lists kept
    as tuples, so what it checks when made still holds when it runs,
    and ``GridRow.error`` records a failed cell, never a bad setting.
    """

    gen: GenSpec
    train: TrainConfig
    entity_counts: Sequence[int]
    obs_rates: Sequence[float]
    replicates: int = 1
    eval_cap: int = EVAL_CAP
    fit_radius_from_truth: bool = True

    def __post_init__(self):
        for name in ("replicates", "eval_cap"):
            _require_int(name, getattr(self, name), 1)
        for name in ("entity_counts", "obs_rates"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must list at least one value")
        for i, n in enumerate(self.entity_counts):
            _require_int(f"entity_counts[{i}]", n, 1)
        for i, rate in enumerate(self.obs_rates):
            _require_real(f"obs_rates[{i}]", rate, 0, 1)

    def cells(self) -> List[Tuple[int, float]]:
        return [(int(n), float(g)) for n in self.entity_counts
                for g in self.obs_rates]


@dataclasses.dataclass
class GridRow:
    """One (cell, replicate) outcome; metrics are NaN on failure."""

    n_entities: int
    obs_rate: float
    replicate: int
    avg_kl: float
    mse_phi: float
    link_err: float
    seconds: float
    n_evaluated: int = 0
    eval_exact: bool = True
    error: Optional[str] = None


def run_replicate(grid: ExperimentGrid, n_entities: int, obs_rate: float,
                  cell_index: int, replicate: int) -> GridRow:
    def seed(tag: int) -> int:
        return derive_seed(grid.gen.seed, cell_index, replicate, tag)

    shape = NetworkShape(n_entities, grid.gen.shape.n_relations, obs_rate)
    spec = dataclasses.replace(grid.gen, shape=shape, seed=seed(TAG_TRUTH))
    t0 = time.perf_counter()
    truth = generate_truth(spec)
    sampler = sample_network(spec.model, truth, shape, seed(TAG_LABELS))
    obs = sample_observations(shape, sampler, seed(TAG_MASK))
    config = dataclasses.replace(grid.train, seed=seed(TAG_TRAIN))
    if grid.fit_radius_from_truth:
        config = dataclasses.replace(config, radius=spec.radius)
    fitted = train(spec.model, shape, obs, config).params
    edges = loss_edges(n_entities, shape.n_relations, grid.eval_cap,
                       seed(TAG_EVAL))
    report = evaluate_losses(spec.model, fitted, truth, edges=edges,
                             shape=shape)
    seconds = time.perf_counter() - t0
    return GridRow(n_entities, obs_rate, replicate, report.avg_kl,
                   report.mse_phi, report.link_err, seconds,
                   n_evaluated=report.n_evaluated, eval_exact=edges is None)


def _run_job(job) -> GridRow:
    """One grid replicate; an exception becomes a NaN row with its text."""
    grid, ci, n, rate, rep = job
    try:
        return run_replicate(grid, n, rate, ci, rep)
    except Exception as exc:  # noqa: BLE001 - record and continue
        return GridRow(n, rate, rep, float("nan"), float("nan"),
                       float("nan"), float("nan"),
                       error=f"{type(exc).__name__}: {exc}")


def _check_spawnable(main) -> None:
    """Raise ``RuntimeError`` unless a spawned worker can re-import the
    main module ``main`` as multiprocessing does: by its module name
    (``python -m``), or from a ``__file__`` that exists.  A script read
    from stdin has the ``__file__`` ``"<stdin>"``, and every worker would
    die importing it; with no ``__file__`` (``python -c``, a REPL) the
    workers import nothing."""
    path = getattr(main, "__file__", None)
    if getattr(main.__spec__, "name", None) is None and path is not None \
            and not os.path.isfile(path):
        raise RuntimeError(
            f"run_grid cannot spawn workers: they re-import the main module "
            f"from {path!r}, which is not a file (a script read from "
            f"stdin?); run the caller from a file, or pass n_workers=1")


def run_grid(grid: ExperimentGrid, n_workers: int = 1) -> List[GridRow]:
    """Run every (cell, replicate); failures become NaN rows, not raises.

    Row order and all random draws are deterministic functions of the
    grid settings (replicate seeds derive from the master seed, the
    cell index, and the replicate index), so reruns reproduce the same
    table regardless of which cells fail or how many workers run them.

    With ``n_workers > 1`` replicates run in worker processes: at most
    ``n_workers``, and never more than there are replicates or cores
    this process may use (``_kernel._cores``), so one usable core runs
    the grid inline.  On Linux, when the caller runs no other Python
    thread, the workers are forked from the caller: they start with its
    numpy and its copy of mrnet already imported.  Otherwise they are
    spawned, and each spawned worker imports mrnet from the caller's
    ``sys.path`` and re-imports the calling script's main module, so a
    script that calls this must guard its entry point with
    ``if __name__ == "__main__":``; a main module that cannot be
    re-imported so (a script read from stdin) raises ``RuntimeError``
    before any worker starts.  A worker process that dies raises
    ``BrokenProcessPool``; it is not a failed cell.  An ``n_workers``
    that is not an integer >= 1 raises ``ValueError``.
    """
    _require_int("n_workers", n_workers, 1)
    from . import _kernel  # as in train: importing mrnet builds nothing
    jobs = [(grid, ci, n, rate, rep)
            for ci, (n, rate) in enumerate(grid.cells())
            for rep in range(grid.replicates)]
    workers = min(n_workers, len(jobs), _kernel._cores())
    if workers <= 1:
        return [_run_job(job) for job in jobs]
    import multiprocessing
    import sys
    import threading
    from concurrent.futures import ProcessPoolExecutor
    # a fork copies only the calling thread, so another thread's held
    # locks would stay held in the child: fork only when there is none.
    # The pool forks all its workers before it starts its own manager
    # thread, and OpenBLAS's fork handler shuts its thread pool down
    fork = sys.platform == "linux" and threading.active_count() == 1
    if not fork:
        _check_spawnable(sys.modules["__main__"])
    context = multiprocessing.get_context("fork" if fork else "spawn")
    # a few messages per worker, not one per replicate
    chunksize = -(-len(jobs) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(_run_job, jobs, chunksize=chunksize))


GRID_CSV_HEADER = "n_entities,obs_rate,replicate,avg_kl,mse_phi,link_err,seconds"


def write_grid_csv(rows: Sequence[GridRow], path, include_timing: bool = False):
    """Write the pinned results table.

    With ``include_timing`` false (the default) the seconds column is
    written as 0, which keeps the file byte-identical across reruns;
    measured wall times stay available on the in-memory rows.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(GRID_CSV_HEADER + "\n")
        for r in rows:
            secs = r.seconds if include_timing else 0.0
            fields = (str(r.n_entities), f"{r.obs_rate:.9g}", str(r.replicate),
                      f"{r.avg_kl:.9g}", f"{r.mse_phi:.9g}",
                      f"{r.link_err:.9g}", f"{secs:.9g}")
            fh.write(",".join(fields) + "\n")
