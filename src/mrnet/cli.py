"""Command-line surface: simulate / train / evaluate / bounds.

Each subcommand reads one section of an INI config file (section name =
subcommand name) with a few flag overrides: ``run_cli`` resolves the
settings all four share, then ``_cmd_<mode>`` parses its own keys before
it reads any data file.  Exit codes: 0 success, 2 configuration problem,
3 data problem (missing or malformed files, mismatched shapes).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from ._edges import EVAL_CAP, loss_edges
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
from .simulation import ExperimentGrid, GenSpec, run_grid, write_grid_csv

__all__ = ["run_cli", "main"]


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


def _cfg_at_least(sec, key, low, default=None):
    value = _cfg_int(sec, key, default)
    if value is not None and value < low:
        raise ConfigError(f"key '{key}' must be >= {low}, got {value}")
    return value


def _cfg_float(sec, key, default=None, required=False):
    return _get(sec, key, float, default, required, "a number")


def _cfg_str(sec, key, default=None, required=False):
    return _get(sec, key, str, default, required, "a string")


def _cfg_bool(sec, key):
    table = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}

    def conv(raw):
        try:
            return table[raw.lower()]
        except KeyError:
            raise ValueError(raw) from None

    return _get(sec, key, conv, None, False, "a boolean")


def _split_list(raw: str) -> List[str]:
    return [p for p in raw.replace(",", " ").split() if p]


def _cfg_ints(sec, key, default=None, required=False):
    conv = lambda raw: tuple(int(p) for p in _split_list(raw))
    return _get(sec, key, conv, default, required, "a list of integers")


def _cfg_floats(sec, key, default=None, required=False):
    conv = lambda raw: tuple(float(p) for p in _split_list(raw))
    return _get(sec, key, conv, default, required, "a list of numbers")


def _set_only(**values) -> dict:
    """The ``values`` a section sets.  A key it leaves out is not passed
    on, so the library's default for it holds."""
    return {key: value for key, value in values.items() if value is not None}


def _model_from(sec) -> ScoreModel:
    kind = _cfg_str(sec, "kind", required=True)
    dim = _cfg_int(sec, "latent_dim", required=True)
    try:
        return ScoreModel(kind, dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _train_config_from(sec, seed: int) -> TrainConfig:
    tc = TrainConfig(
        epochs=_cfg_int(sec, "epochs", required=True),
        seed=seed,
        **_set_only(
            learning_rate=_cfg_float(sec, "learning_rate"),
            adagrad_eps=_cfg_float(sec, "adagrad_eps"),
            batch_size=_cfg_int(sec, "batch_size"),
            rho1=_cfg_float(sec, "rho1"),
            rho2=_cfg_float(sec, "rho2"),
            sparsity_cap=_cfg_int(sec, "sparsity_cap"),
            radius=_cfg_float(sec, "radius"),
            init_scale=_cfg_float(sec, "init_scale"),
        ),
    )
    try:
        tc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tc


def _gen_from(sec, model: ScoreModel, shape: NetworkShape, seed: int,
              truncation: Optional[float] = None) -> GenSpec:
    """``truncation``, if given, holds when the section leaves that key out."""
    try:
        return GenSpec(
            model=model,
            shape=shape,
            seed=seed,
            **_set_only(
                entity_sd=_cfg_float(sec, "entity_sd"),
                shift_sd=_cfg_float(sec, "shift_sd"),
                weight_sd=_cfg_float(sec, "weight_sd"),
                truncation=_cfg_float(sec, "truncation", truncation),
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_simulate(sec, seed: int, args) -> int:
    model = _model_from(sec)
    entity_counts = _cfg_ints(sec, "entity_counts", required=True)
    if not entity_counts or min(entity_counts) < 1:
        raise ConfigError("key 'entity_counts' must list integers >= 1, "
                          f"got {sec['entity_counts']!r}")
    obs_rates = _cfg_floats(sec, "obs_rates", required=True)
    if not obs_rates or not all(0.0 <= g <= 1.0 for g in obs_rates):
        raise ConfigError("key 'obs_rates' must list rates in [0, 1], "
                          f"got {sec['obs_rates']!r}")
    grid_keys = _set_only(replicates=_cfg_at_least(sec, "replicates", 1),
                          eval_cap=_cfg_at_least(sec, "eval_cap", 1))
    timing = _set_only(include_timing=_cfg_bool(sec, "timing"))
    output = _cfg_str(sec, "output", required=True)
    n_rel = _cfg_int(sec, "n_relations", required=True)
    try:
        shape = NetworkShape(entity_counts[0], n_rel, obs_rates[0])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    grid = ExperimentGrid(
        gen=_gen_from(sec, model, shape, seed),
        train=_train_config_from(sec, seed),
        entity_counts=entity_counts, obs_rates=obs_rates, **grid_keys)
    rows = run_grid(grid, n_workers=args.threads)
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"warning: cell (N={r.n_entities}, rate={r.obs_rate}, "
              f"rep={r.replicate}) failed: {r.error}", file=sys.stderr)
    write_grid_csv(rows, output, **timing)
    print(f"wrote {len(rows)} rows ({len(failures)} failed) to {output}")
    return 0


def _cmd_train(sec, seed: int, args) -> int:
    model = _model_from(sec)
    train_path = _cfg_str(sec, "triples", required=True)
    ratio = _cfg_float(sec, "negative_ratio", 1.0)
    if not (math.isfinite(ratio) and ratio >= 0):
        raise ConfigError(f"key 'negative_ratio' must be finite and >= 0, "
                          f"got {ratio!r}")
    checkpoint = args.checkpoint or _cfg_str(sec, "checkpoint", required=True)
    train_config = _train_config_from(sec, seed)

    ds = load_triples(train_path, args.columns)
    if ds.duplicates:
        print(f"note: dropped {ds.duplicates} duplicate triples",
              file=sys.stderr)
    shape = NetworkShape(ds.n_entities, ds.n_relations)
    negatives = sample_negatives(ds, ratio, shape, seed)
    heads, tails, rels = np.concatenate([ds.positives, negatives]).T
    labels = np.repeat(np.int8([1, 0]), [len(ds.positives), len(negatives)])
    obs = ObservationSet(shape, heads, tails, rels, labels)
    result = train(model, shape, obs, train_config)
    save_checkpoint(result.params, model, checkpoint)
    print(f"final_objective {result.objective_trace[-1]:.9g}")
    print(f"nonzeros {result.nnz_trace[-1]}")
    print(f"checkpoint {checkpoint}")
    return 0


def _cmd_evaluate(sec, seed: int, args) -> int:
    checkpoint = args.checkpoint or _cfg_str(sec, "checkpoint", required=True)
    paths = [_cfg_str(sec, "triples", required=True),
             _cfg_str(sec, "valid_triples"),
             _cfg_str(sec, "test_triples", required=True)]
    hits = _set_only(entity_hits=_cfg_ints(sec, "hits_entity"),
                     relation_hits=_cfg_ints(sec, "hits_relation"))
    truth_path = _cfg_str(sec, "truth_checkpoint")
    eval_cap = _cfg_at_least(sec, "eval_cap", 1, EVAL_CAP)
    output = _cfg_str(sec, "output", required=True)

    params, model = load_checkpoint(checkpoint)
    splits = load_triple_split([p for p in paths if p], args.columns)
    test_ds = splits[-1]
    n, k = test_ds.n_entities, test_ds.n_relations
    if params.n_entities != n or params.n_relations != k:
        raise ShapeError(
            f"checkpoint holds {params.n_entities} entities / "
            f"{params.n_relations} relations, data has {n} / {k}")
    shape = NetworkShape(n, k)
    known = np.concatenate([ds.positives for ds in splits])
    report = rank_report(model, params, test_ds.positives, known, shape,
                         **hits)
    lines = [("mr_e", report.mr_entity), ("mrr_e", report.mrr_entity)]
    lines += [(f"hits_e@{q}", v) for q, v in sorted(report.hits_entity.items())]
    lines += [("mr_r", report.mr_relation), ("mrr_r", report.mrr_relation)]
    lines += [(f"hits_r@{q}", v) for q, v in sorted(report.hits_relation.items())]
    if truth_path:
        truth, tmodel = load_checkpoint(truth_path)
        if tmodel != model:
            raise ShapeError("truth checkpoint's model differs from the "
                             "fitted checkpoint's")
        edges = loss_edges(n, k, eval_cap, seed)
        losses = evaluate_losses(model, params, truth, edges=edges,
                                 shape=shape)
        lines += [("avg_kl", losses.avg_kl), ("mse_phi", losses.mse_phi),
                  ("link_err", losses.link_err)]
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for name, value in lines:
            fh.write(f"{name},{value:.9g}\n")
    for name, value in lines:
        print(f"{name} {value:.9g}")
    return 0


def _cmd_bounds(sec, seed: int, args) -> int:
    direct = all(sec.get(k) for k in ("n", "m", "sup_score", "lipschitz",
                                      "radius"))
    t_values = _cfg_floats(sec, "t_values", (0.5, 1.0))
    replicates = _cfg_at_least(sec, "replicates", 0, 0)
    grid = None
    try:
        if direct:
            inputs = BoundInputs(
                n=_cfg_float(sec, "n", required=True),
                m=_cfg_int(sec, "m", required=True),
                sup_score=_cfg_float(sec, "sup_score", required=True),
                lipschitz=_cfg_float(sec, "lipschitz", required=True),
                radius=_cfg_float(sec, "radius", required=True),
            )
            if replicates > 0:
                raise ConfigError(
                    "empirical replicates need model keys (kind, "
                    "latent_dim, n_entities, n_relations, obs_rate)")
        else:
            model = _model_from(sec)
            shape = NetworkShape(
                _cfg_int(sec, "n_entities", required=True),
                _cfg_int(sec, "n_relations", required=True),
                **_set_only(obs_rate=_cfg_float(sec, "obs_rate")),
            )
            radius = _cfg_float(sec, "radius", required=True)
            inputs = BoundInputs.from_model(model, shape, radius)
            # truths and fits stay inside the ball whose radius the
            # printed bounds assume
            root_d = float(np.sqrt(max(model.latent_dim, model.relation_dim)))
            gen = _gen_from(sec, model, shape, seed,
                            truncation=radius / root_d)
            if gen.truncation > radius / root_d:
                raise ConfigError(
                    f"truncation {gen.truncation:.9g} implies a radius of "
                    f"{gen.radius:.9g}, above radius = {radius:.9g}")
            if replicates > 0:
                grid = ExperimentGrid(
                    gen=gen, train=_train_config_from(sec, seed),
                    entity_counts=[shape.n_entities],
                    obs_rates=[shape.obs_rate], replicates=replicates,
                    fit_radius_from_truth=False)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    freqs = {t: float("nan") for t in t_values}
    emp_risk = float("nan")
    if grid is not None:
        rows = run_grid(grid, n_workers=args.threads)
        kls = np.array([r.avg_kl for r in rows if r.error is None])
        if len(kls) < replicates:
            print(f"warning: {replicates - len(kls)} replicates failed",
                  file=sys.stderr)
        if len(kls):
            freqs = {t: float((kls >= t).mean()) for t in t_values}
            emp_risk = float(kls.mean())
    print("t,tail_bound,empirical_frequency")
    for t in t_values:
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
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        sec = read_config(args.config, args.mode)
        seed = _cfg_int(sec, "seed", 0)
        if args.seed is not None:
            seed = args.seed
        col_key = args.columns or _cfg_str(sec, "columns", "hrt")
        if col_key not in COLUMN_ORDERS:
            raise ConfigError(f"columns must be one of "
                              f"{sorted(COLUMN_ORDERS)}, got {col_key!r}")
        args.columns = COLUMN_ORDERS[col_key]  # the runners read it resolved
        return _RUNNERS[args.mode](sec, seed, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TripleParseError, CheckpointError, ShapeError, OSError,
            ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
