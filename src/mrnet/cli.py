"""Command-line surface: simulate / train / evaluate / bounds.

Each subcommand reads its settings from one section of an INI config
file (section name = subcommand name) with a few flag overrides.  Exit
codes: 0 success, 2 configuration problem, 3 data problem (missing or
malformed files, mismatched shapes).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundInputs, risk_bound, tail_bound
from .estimation import ObservationSet, TrainConfig, train
from .evaluation import evaluate_losses, rank_report
from .io import (
    COLUMN_ORDERS,
    CheckpointError,
    ConfigError,
    TripleParseError,
    load_checkpoint,
    load_triple_split,
    load_triples,
    read_config,
    sample_negatives,
    save_checkpoint,
)
from .models import NetworkShape, ScoreModel, ShapeError
from .simulation import (
    ExperimentGrid,
    GenSpec,
    _eval_edges,
    run_grid,
    write_grid_csv,
)

__all__ = ["RunConfig", "run_cli", "main"]


@dataclasses.dataclass
class RunConfig:
    """Everything one subcommand invocation needs, after parsing."""

    mode: str
    seed: int = 0
    columns: Tuple[str, ...] = COLUMN_ORDERS["hrt"]
    threads: int = 1
    model: Optional[ScoreModel] = None
    train_config: Optional[TrainConfig] = None
    gen: Optional[GenSpec] = None
    entity_counts: Tuple[int, ...] = ()
    obs_rates: Tuple[float, ...] = ()
    replicates: int = 1
    eval_cap: int = 1_000_000
    timing: bool = False
    train_path: Optional[str] = None
    valid_path: Optional[str] = None
    test_path: Optional[str] = None
    negative_ratio: float = 1.0
    hits_entity: Tuple[int, ...] = (10,)
    hits_relation: Tuple[int, ...] = (1,)
    truth_checkpoint: Optional[str] = None
    checkpoint: Optional[str] = None
    output: Optional[str] = None
    bound_inputs: Optional[BoundInputs] = None
    t_values: Tuple[float, ...] = (0.5, 1.0)


def _get(section, key, conv, default, required, kind):
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        if required:
            raise ConfigError(f"missing required key '{key}' in [{section.name}]")
        return default
    try:
        return conv(raw.strip())
    except ValueError:
        raise ConfigError(f"key '{key}' must be {kind}, got {raw!r}") from None


def _cfg_int(sec, key, default=None, required=False):
    return _get(sec, key, int, default, required, "an integer")


def _cfg_at_least(sec, key, default, low):
    value = _cfg_int(sec, key, default)
    if value < low:
        raise ConfigError(f"key '{key}' must be >= {low}, got {value}")
    return value


def _cfg_float(sec, key, default=None, required=False):
    return _get(sec, key, float, default, required, "a number")


def _cfg_str(sec, key, default=None, required=False):
    return _get(sec, key, str, default, required, "a string")


def _cfg_bool(sec, key, default=False):
    table = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}

    def conv(raw):
        try:
            return table[raw.lower()]
        except KeyError:
            raise ValueError(raw) from None

    return _get(sec, key, conv, default, False, "a boolean")


def _split_list(raw: str) -> List[str]:
    return [p for p in raw.replace(",", " ").split() if p]


def _cfg_ints(sec, key, default=None, required=False):
    conv = lambda raw: tuple(int(p) for p in _split_list(raw))
    return _get(sec, key, conv, default, required, "a list of integers")


def _cfg_floats(sec, key, default=None, required=False):
    conv = lambda raw: tuple(float(p) for p in _split_list(raw))
    return _get(sec, key, conv, default, required, "a list of numbers")


def _model_from(sec) -> ScoreModel:
    kind = _cfg_str(sec, "kind", required=True)
    dim = _cfg_int(sec, "latent_dim", required=True)
    try:
        return ScoreModel(kind, dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _train_config_from(sec, seed: int, radius_default: float = 20.0
                       ) -> TrainConfig:
    cap = _cfg_int(sec, "sparsity_cap", default=None)
    tc = TrainConfig(
        epochs=_cfg_int(sec, "epochs", required=True),
        learning_rate=_cfg_float(sec, "learning_rate", 0.1),
        adagrad_eps=_cfg_float(sec, "adagrad_eps", 1e-8),
        batch_size=_cfg_int(sec, "batch_size", 128),
        rho1=_cfg_float(sec, "rho1", 0.0),
        rho2=_cfg_float(sec, "rho2", 0.0),
        sparsity_cap=cap,
        radius=_cfg_float(sec, "radius", radius_default),
        init_scale=_cfg_float(sec, "init_scale", 0.1),
        seed=seed,
    )
    try:
        tc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tc


def _gen_from(sec, model: ScoreModel, shape: NetworkShape, seed: int,
              truncation: float = 20.0) -> GenSpec:
    try:
        return GenSpec(
            model=model,
            shape=shape,
            entity_sd=_cfg_float(sec, "entity_sd", 1.0),
            shift_sd=_cfg_float(sec, "shift_sd", 1.0),
            weight_sd=_cfg_float(sec, "weight_sd", 0.5),
            truncation=_cfg_float(sec, "truncation", truncation),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_run_config(path, mode: str, seed_override: Optional[int] = None,
                     columns: Optional[str] = None,
                     checkpoint: Optional[str] = None,
                     threads: int = 1) -> RunConfig:
    sec = read_config(path, mode)
    seed = _cfg_int(sec, "seed", 0)
    if seed_override is not None:
        seed = seed_override
    col_key = columns or _cfg_str(sec, "columns", "hrt")
    if col_key not in COLUMN_ORDERS:
        raise ConfigError(f"columns must be one of {sorted(COLUMN_ORDERS)}, "
                          f"got {col_key!r}")
    cfg = RunConfig(mode=mode, seed=seed, columns=COLUMN_ORDERS[col_key],
                    threads=threads)

    if mode == "simulate":
        cfg.model = _model_from(sec)
        cfg.entity_counts = _cfg_ints(sec, "entity_counts", required=True)
        cfg.obs_rates = _cfg_floats(sec, "obs_rates", required=True)
        cfg.replicates = _cfg_at_least(sec, "replicates", 1, 1)
        cfg.eval_cap = _cfg_at_least(sec, "eval_cap", 1_000_000, 1)
        cfg.timing = _cfg_bool(sec, "timing", False)
        cfg.output = _cfg_str(sec, "output", required=True)
        n_rel = _cfg_int(sec, "n_relations", required=True)
        try:
            shape = NetworkShape(cfg.entity_counts[0], n_rel, cfg.obs_rates[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg.gen = _gen_from(sec, cfg.model, shape, seed)
        cfg.train_config = _train_config_from(sec, seed)
    elif mode == "train":
        cfg.model = _model_from(sec)
        cfg.train_path = _cfg_str(sec, "triples", required=True)
        cfg.negative_ratio = _cfg_float(sec, "negative_ratio", 1.0)
        if not (math.isfinite(cfg.negative_ratio) and cfg.negative_ratio >= 0):
            raise ConfigError(f"key 'negative_ratio' must be finite and >= 0, "
                              f"got {cfg.negative_ratio!r}")
        cfg.checkpoint = checkpoint or _cfg_str(sec, "checkpoint", required=True)
        cfg.train_config = _train_config_from(sec, seed)
    elif mode == "evaluate":
        cfg.checkpoint = checkpoint or _cfg_str(sec, "checkpoint", required=True)
        cfg.train_path = _cfg_str(sec, "triples", required=True)
        cfg.valid_path = _cfg_str(sec, "valid_triples")
        cfg.test_path = _cfg_str(sec, "test_triples", required=True)
        cfg.hits_entity = _cfg_ints(sec, "hits_entity", (10,))
        cfg.hits_relation = _cfg_ints(sec, "hits_relation", (1,))
        cfg.truth_checkpoint = _cfg_str(sec, "truth_checkpoint")
        cfg.eval_cap = _cfg_at_least(sec, "eval_cap", 1_000_000, 1)
        cfg.output = _cfg_str(sec, "output", required=True)
    elif mode == "bounds":
        direct = all(sec.get(k) for k in ("n", "m", "sup_score", "lipschitz",
                                          "radius"))
        cfg.t_values = _cfg_floats(sec, "t_values", (0.5, 1.0))
        cfg.replicates = _cfg_at_least(sec, "replicates", 0, 0)
        try:
            if direct:
                cfg.bound_inputs = BoundInputs(
                    n=_cfg_float(sec, "n", required=True),
                    m=_cfg_int(sec, "m", required=True),
                    sup_score=_cfg_float(sec, "sup_score", required=True),
                    lipschitz=_cfg_float(sec, "lipschitz", required=True),
                    radius=_cfg_float(sec, "radius", required=True),
                    margin=_cfg_float(sec, "margin"),
                )
                if cfg.replicates > 0:
                    raise ConfigError(
                        "empirical replicates need model keys (kind, "
                        "latent_dim, n_entities, n_relations, obs_rate)")
            else:
                cfg.model = _model_from(sec)
                shape = NetworkShape(
                    _cfg_int(sec, "n_entities", required=True),
                    _cfg_int(sec, "n_relations", required=True),
                    _cfg_float(sec, "obs_rate", 1.0),
                )
                radius = _cfg_float(sec, "radius", required=True)
                cfg.bound_inputs = BoundInputs.from_model(
                    cfg.model, shape, radius, margin=_cfg_float(sec, "margin"))
                # truths (and, in _cmd_bounds, fits) stay inside the ball
                # whose radius the printed bounds assume
                root_d = float(np.sqrt(max(cfg.model.latent_dim,
                                           cfg.model.relation_dim)))
                cfg.gen = _gen_from(sec, cfg.model, shape, seed,
                                    truncation=radius / root_d)
                if cfg.gen.truncation > radius / root_d:
                    raise ConfigError(
                        f"truncation {cfg.gen.truncation:.9g} implies a "
                        f"radius of {cfg.gen.radius:.9g}, above radius = "
                        f"{radius:.9g}")
                if cfg.replicates > 0:
                    cfg.train_config = _train_config_from(sec, seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return cfg


def _cmd_simulate(cfg: RunConfig) -> int:
    grid = ExperimentGrid(
        gen=cfg.gen, train=cfg.train_config,
        entity_counts=cfg.entity_counts, obs_rates=cfg.obs_rates,
        replicates=cfg.replicates, eval_cap=cfg.eval_cap)
    rows = run_grid(grid, n_workers=cfg.threads)
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"warning: cell (N={r.n_entities}, rate={r.obs_rate}, "
              f"rep={r.replicate}) failed: {r.error}", file=sys.stderr)
    write_grid_csv(rows, cfg.output, include_timing=cfg.timing)
    print(f"wrote {len(rows)} rows ({len(failures)} failed) to {cfg.output}")
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    ds = load_triples(cfg.train_path, cfg.columns)
    if ds.duplicates:
        print(f"note: dropped {ds.duplicates} duplicate triples",
              file=sys.stderr)
    n_obs = len(ds.positives) * (1.0 + cfg.negative_ratio)
    n, k = ds.n_entities, ds.n_relations
    shape = NetworkShape(n, k, min(1.0, n_obs / (n * n * k)))
    negatives = sample_negatives(ds, cfg.negative_ratio, shape, cfg.seed)
    heads, tails, rels = np.concatenate([ds.positives, negatives]).T
    labels = np.repeat(np.int8([1, 0]), [len(ds.positives), len(negatives)])
    obs = ObservationSet(shape, heads, tails, rels, labels)
    result = train(cfg.model, shape, obs, cfg.train_config)
    save_checkpoint(result.params, cfg.model, cfg.checkpoint)
    print(f"final_objective {result.objective_trace[-1]:.9g}")
    print(f"nonzeros {result.nnz_trace[-1]}")
    print(f"checkpoint {cfg.checkpoint}")
    return 0


def _cmd_evaluate(cfg: RunConfig) -> int:
    params, model = load_checkpoint(cfg.checkpoint)
    paths = [cfg.train_path]
    if cfg.valid_path:
        paths.append(cfg.valid_path)
    paths.append(cfg.test_path)
    splits = load_triple_split(paths, cfg.columns)
    test_ds = splits[-1]
    n, k = test_ds.n_entities, test_ds.n_relations
    if params.n_entities != n or params.n_relations != k:
        raise ShapeError(
            f"checkpoint holds {params.n_entities} entities / "
            f"{params.n_relations} relations, data has {n} / {k}")
    shape = NetworkShape(n, k)
    known = np.concatenate([ds.positives for ds in splits])
    report = rank_report(model, params, test_ds.positives, known,
                         shape, cfg.hits_entity, cfg.hits_relation)
    lines = [("mr_e", report.mr_entity), ("mrr_e", report.mrr_entity)]
    lines += [(f"hits_e@{q}", v) for q, v in sorted(report.hits_entity.items())]
    lines += [("mr_r", report.mr_relation), ("mrr_r", report.mrr_relation)]
    lines += [(f"hits_r@{q}", v) for q, v in sorted(report.hits_relation.items())]
    if cfg.truth_checkpoint:
        truth, tmodel = load_checkpoint(cfg.truth_checkpoint)
        if tmodel != model:
            raise ShapeError("truth checkpoint's model differs from the "
                             "fitted checkpoint's")
        edges, _ = _eval_edges(shape, cfg.eval_cap, cfg.seed)
        losses = evaluate_losses(model, params, truth, edges=edges,
                                 shape=shape)
        lines += [("avg_kl", losses.avg_kl), ("mse_phi", losses.mse_phi),
                  ("link_err", losses.link_err)]
    with open(cfg.output, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for name, value in lines:
            fh.write(f"{name},{value:.9g}\n")
    for name, value in lines:
        print(f"{name} {value:.9g}")
    return 0


def _cmd_bounds(cfg: RunConfig) -> int:
    inputs = cfg.bound_inputs
    freqs = {t: float("nan") for t in cfg.t_values}
    emp_risk = float("nan")
    if cfg.replicates > 0:
        grid = ExperimentGrid(
            gen=cfg.gen, train=cfg.train_config,
            entity_counts=[cfg.gen.shape.n_entities],
            obs_rates=[cfg.gen.shape.obs_rate],
            replicates=cfg.replicates, eval_cap=cfg.eval_cap,
            fit_radius_from_truth=False)
        rows = run_grid(grid, n_workers=cfg.threads)
        kls = np.array([r.avg_kl for r in rows if r.error is None])
        if len(kls) < cfg.replicates:
            print(f"warning: {cfg.replicates - len(kls)} replicates failed",
                  file=sys.stderr)
        if len(kls):
            freqs = {t: float((kls >= t).mean()) for t in cfg.t_values}
            emp_risk = float(kls.mean())
    print("t,tail_bound,empirical_frequency")
    for t in cfg.t_values:
        print(f"{t:.9g},{tail_bound(inputs, t):.9g},{freqs[t]:.9g}")
    try:
        rb = risk_bound(inputs)
    except ValueError as exc:
        print(f"note: risk bound unavailable: {exc}", file=sys.stderr)
        rb = float("nan")
    print("risk_bound,empirical_risk")
    print(f"{rb:.9g},{emp_risk:.9g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrnet",
        description="Multi-relational network models: simulate, train, "
                    "evaluate, and bound evaluation.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, text in (("simulate", "run a simulation grid, write CSV"),
                       ("train", "fit a model on a triple file"),
                       ("evaluate", "rank a test split with a checkpoint"),
                       ("bounds", "print tail/risk bound tables")):
        p = sub.add_parser(mode, help=text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--checkpoint", help="checkpoint path override")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--columns", choices=sorted(COLUMN_ORDERS),
                       help="triple file column order")
        p.add_argument("--threads", type=int, default=1,
                       help="grid replicates run at once, each in a "
                            "worker process; output is identical for any "
                            "count")
    return parser


_RUNNERS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "bounds": _cmd_bounds,
}


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage text
        return int(exc.code or 0)
    try:
        cfg = parse_run_config(args.config, args.mode, seed_override=args.seed,
                               columns=args.columns,
                               checkpoint=args.checkpoint,
                               threads=args.threads or 1)
        return _RUNNERS[args.mode](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TripleParseError, CheckpointError, ShapeError, OSError,
            ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
