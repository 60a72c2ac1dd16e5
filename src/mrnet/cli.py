"""Command-line surface: simulate / train / evaluate / bounds.

Each subcommand reads one section of an INI config file (section name =
subcommand name) with a few flag overrides: ``run_cli`` resolves the
settings all four share, then ``_cmd_<mode>`` parses its own keys before
it reads any data file.  The library's settings dataclasses are the
schema: ``_settings`` reads each of their fields from the key of its
name, and their own checks hold the ranges.  Exit codes: 0 success,
2 configuration problem, 3 data problem (missing or malformed files,
mismatched shapes).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from typing import Optional, Sequence

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
from .models import (NetworkShape, ScoreModel, ShapeError, _require_int,
                     _require_real)
from .simulation import ExperimentGrid, GenSpec, run_grid, write_grid_csv

__all__ = ["run_cli", "main"]


def _boolean(raw: str) -> bool:
    table = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}
    try:
        return table[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _items(conv):
    return lambda raw: tuple(conv(p) for p in raw.replace(",", " ").split())


# how a key's text converts, by the type of the value it gives
_TYPES = {
    int: (int, "an integer"),
    Optional[int]: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "a string"),
    bool: (_boolean, "a boolean"),
    Sequence[int]: (_items(int), "a list of integers"),
    Sequence[float]: (_items(float), "a list of numbers"),
}


def _cfg(sec, key, kind, default=None, required=False):
    """Key ``key`` of section ``sec`` as a ``kind`` (a ``_TYPES`` key);
    ``default`` if the section leaves it out or empty."""
    conv, what = _TYPES[kind]
    raw = sec.get(key)
    if raw is None or raw.strip() == "":
        if required:
            raise ConfigError(f"missing required key '{key}' in [{sec.name}]")
        return default
    try:
        return conv(raw.strip())
    except ValueError:
        raise ConfigError(f"key '{key}' must be {what}, got {raw!r}") from None


def _set_only(**values) -> dict:
    """The ``values`` a section sets.  A key it leaves out is not passed
    on, so the library's default for it holds."""
    return {key: value for key, value in values.items() if value is not None}


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` a ``ConfigError``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _settings(cls, sec, **given):
    """A ``cls`` (a settings dataclass) from section ``sec``.

    Each field not in ``given`` is read from the key of its name by its
    annotated type.  A field with no default is a required key; a key
    the section leaves out keeps the class's default.  The class checks
    the values itself, and its ``ValueError`` becomes a ``ConfigError``.
    """
    types = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        if field.name not in given:
            value = _cfg(sec, field.name, types[field.name],
                         required=field.default is dataclasses.MISSING)
            if value is not None:
                given[field.name] = value
    return _checked(cls, **given)


def _cmd_simulate(sec, seed: int, args) -> int:
    model = _settings(ScoreModel, sec)
    # the template's entity count and rate are placeholders: each cell
    # sets its own
    shape = _settings(NetworkShape, sec, n_entities=1, obs_rate=1.0)
    grid = _settings(
        ExperimentGrid, sec,
        gen=_settings(GenSpec, sec, model=model, shape=shape, seed=seed),
        train=_settings(TrainConfig, sec, seed=seed),
        fit_radius_from_truth=True)
    timing = _set_only(include_timing=_cfg(sec, "timing", bool))
    output = _cfg(sec, "output", str, required=True)
    rows = run_grid(grid, n_workers=args.threads)
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"warning: cell (N={r.n_entities}, rate={r.obs_rate}, "
              f"rep={r.replicate}) failed: {r.error}", file=sys.stderr)
    write_grid_csv(rows, output, **timing)
    print(f"wrote {len(rows)} rows ({len(failures)} failed) to {output}")
    return 0


def _cmd_train(sec, seed: int, args) -> int:
    model = _settings(ScoreModel, sec)
    train_path = _cfg(sec, "triples", str, required=True)
    ratio = _cfg(sec, "negative_ratio", float, 1.0)
    _checked(_require_real, "negative_ratio", ratio, 0)
    checkpoint = args.checkpoint or _cfg(sec, "checkpoint", str, required=True)
    train_config = _settings(TrainConfig, sec, seed=seed)

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
    checkpoint = args.checkpoint or _cfg(sec, "checkpoint", str, required=True)
    paths = [_cfg(sec, "triples", str, required=True),
             _cfg(sec, "valid_triples", str),
             _cfg(sec, "test_triples", str, required=True)]
    hits = _set_only(entity_hits=_cfg(sec, "hits_entity", Sequence[int]),
                     relation_hits=_cfg(sec, "hits_relation", Sequence[int]))
    truth_path = _cfg(sec, "truth_checkpoint", str)
    eval_cap = _cfg(sec, "eval_cap", int, EVAL_CAP)
    _checked(_require_int, "eval_cap", eval_cap, 1)
    output = _cfg(sec, "output", str, required=True)

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
    direct = all(sec.get(f.name) for f in dataclasses.fields(BoundInputs))
    t_values = _cfg(sec, "t_values", Sequence[float], (0.5, 1.0))
    replicates = _cfg(sec, "replicates", int, 0)
    _checked(_require_int, "replicates", replicates, 0)
    grid = None
    if direct:
        inputs = _settings(BoundInputs, sec)
        if replicates > 0:
            keys = [f.name for cls in (ScoreModel, NetworkShape)
                    for f in dataclasses.fields(cls)]
            raise ConfigError(f"empirical replicates need model keys "
                              f"({', '.join(keys)})")
    else:
        model = _settings(ScoreModel, sec)
        shape = _settings(NetworkShape, sec)
        radius = _cfg(sec, "radius", float, required=True)
        inputs = _checked(BoundInputs.from_model, model, shape, radius)
        # truths and fits stay inside the ball whose radius the
        # printed bounds assume
        root_d = float(np.sqrt(max(model.latent_dim, model.relation_dim)))
        widest = radius / root_d
        gen = _settings(GenSpec, sec, model=model, shape=shape, seed=seed,
                        truncation=_cfg(sec, "truncation", float, widest))
        if gen.truncation > widest:
            raise ConfigError(
                f"truncation {gen.truncation:.9g} implies a radius of "
                f"{gen.radius:.9g}, above radius = {radius:.9g}")
        if replicates > 0:
            grid = ExperimentGrid(
                gen=gen, train=_settings(TrainConfig, sec, seed=seed),
                entity_counts=[shape.n_entities],
                obs_rates=[shape.obs_rate], replicates=replicates,
                fit_radius_from_truth=False)

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
                       help="most grid replicates run at once, each in "
                            "a worker process, never more than the usable "
                            "cores; output is identical for any count")
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
        _checked(_require_int, "--threads", args.threads, 1)
        sec = read_config(args.config, args.mode)
        seed = _cfg(sec, "seed", int, 0)
        if args.seed is not None:
            seed = args.seed
        col_key = args.columns or _cfg(sec, "columns", str, "hrt")
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


if __name__ == "__main__":
    main()
