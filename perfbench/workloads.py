"""One round of one benchmark workload, in a process of its own.

    python3 perfbench/workloads.py --workload W --seed S --out DIR --t0 T
        [--size full|smoke] [--workers N] [--setup-only] [--trace]
        [--reference CSV]

``--t0`` is the ``time.monotonic()`` reading taken by the launching
process just before it started this one (the clock is system-wide), so
``setup_s`` spans interpreter start, ``import mrnet`` and the
workload's input building up to the first timed call.  ``run_s`` is
the wall time of the user-visible work.  ``peak_rss_mb`` is this
process's peak resident memory when that work ends, before the checks
run.  The checks then compare the outputs with ``reference.py``.

The last line of standard output is one JSON object with the readings,
the operations attempted and failed, the check verdict and, with
``--trace``, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# "smoke" keeps every code path of "full" at a size that runs in seconds
SIZES = {
    "full": {
        "replicate_n800": dict(n=800, epochs=150),
        "grid_tiny": dict(replicates=20, epochs=200),
        "kb_cli": dict(epochs=20, kb={}),
    },
    "smoke": {
        "replicate_n800": dict(n=400, epochs=10),
        "grid_tiny": dict(replicates=4, epochs=10),
        "kb_cli": dict(epochs=2, kb=dict(entities=150, relations=4,
                                         triples=1600)),
    },
}

REL_TOL = 1e-9  # replicate_n800: reported losses vs the reference
PRINT_TOL = 5e-9  # kb_cli: metrics are printed with 9 significant digits


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli_captured(run_cli, argv):
    """Run one mrnet subcommand; return (exit code, its standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


# --------------------------------------------------------------------------
# replicate_n800: one criterion-05 replicate through the public calls


def replicate_n800(args, size):
    from mrnet import (GenSpec, NetworkShape, ScoreModel, TrainConfig,
                       evaluate_losses, generate_truth, sample_network,
                       sample_observations, train)

    model = ScoreModel("combined", 5)
    shape = NetworkShape(size["n"], 5, 0.02)
    gen = GenSpec(model, shape, seed=args.seed)
    truth = generate_truth(gen)
    labels = sample_network(model, truth, shape, seed=args.seed + 1)
    obs = sample_observations(shape, labels, seed=args.seed + 2)
    config = TrainConfig(epochs=size["epochs"], learning_rate=0.5,
                         batch_size=256, radius=gen.radius, seed=args.seed + 3)
    yield "setup"
    fitted = train(model, shape, obs, config).params
    report = evaluate_losses(model, fitted, truth, shape=shape)
    yield "run"
    reported = {"avg_kl": report.avg_kl, "mse_phi": report.mse_phi,
                "link_err": report.link_err}
    problems = []
    try:
        fitted.validate()
    except ValueError as exc:
        problems.append(f"fitted.validate(): {exc}")
    yield check_replicate(model.kind, (truth.entities, truth.relations),
                          (fitted.entities, fitted.relations), gen.radius,
                          reported, float(obs.labels.mean()), problems)


def check_replicate(kind, truth, fitted, radius, reported, positive_rate,
                    problems=()):
    import numpy as np
    import reference

    problems = list(problems)
    for name, block in zip(("entities", "relations"), fitted):
        norms = np.linalg.norm(block, axis=1)
        if not np.all(np.isfinite(block)) or \
                norms.max() > radius * (1 + 1e-12) + 1e-12:
            problems.append(f"fitted {name} leave the radius-{radius:g} ball")
    want = reference.network_losses(kind, truth, fitted, positive_rate)
    for name, got in reported.items():
        if not reference.close(got, want[name], REL_TOL):
            problems.append(f"{name} {got!r} != reference {want[name]!r}")
    if not reported["avg_kl"] < want["constant_kl"]:
        problems.append(f"avg_kl {reported['avg_kl']:.4g} is not below the "
                        f"constant predictor's {want['constant_kl']:.4g}")
    return {"failed": 0, "problems": problems,
            "detail": {**reported, "constant_kl": want["constant_kl"]}}


# --------------------------------------------------------------------------
# grid_tiny: ``mrnet simulate`` over many criterion-06 replicates


def grid_config(out: Path, seed: int, workers: int, size) -> Path:
    """INI for the grid; each worker count writes its own CSV."""
    path = out / f"grid-w{workers}.ini"
    path.write_text(f"""[simulate]
kind = combined
latent_dim = 2
n_relations = 2
entity_counts = 6
obs_rates = 1.0
replicates = {size['replicates']}
epochs = {size['epochs']}
learning_rate = 0.5
batch_size = 64
rho2 = 1.0
entity_sd = 0.5
shift_sd = 0.5
weight_sd = 0.2
truncation = 1.0
eval_cap = 4000000
seed = {seed}
output = {out / f'grid-w{workers}.csv'}
""", encoding="utf-8")
    return path


def grid_tiny(args, size):
    from mrnet.cli import run_cli

    ini = grid_config(args.out, args.seed, args.workers, size)
    yield "setup"
    code, stdout = run_cli_captured(
        run_cli, ["simulate", "--config", str(ini),
                  "--threads", str(args.workers)])
    yield "run"
    yield check_grid(code, stdout, args.out / f"grid-w{args.workers}.csv",
                     size["replicates"], args.reference)


def check_grid(code, stdout, csv_path, replicates, reference_csv=None):
    import math

    if code != 0:
        return {"failed": replicates, "problems": [],
                "detail": {"exit": code}}
    words = stdout.split()
    failed = int(words[3].strip("(")) if len(words) > 3 else replicates
    problems = []
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != replicates + 1:
        problems.append(f"{len(lines) - 1} rows, expected {replicates}")
    for line in lines[1:]:
        if not all(math.isfinite(float(v)) for v in line.split(",")):
            problems.append(f"non-finite row {line}")
    if reference_csv is not None and \
            csv_path.read_bytes() != Path(reference_csv).read_bytes():
        problems.append(f"{csv_path.name} differs from {reference_csv}")
    return {"failed": failed, "problems": problems,
            "detail": {"rows": len(lines) - 1}}


# --------------------------------------------------------------------------
# kb_cli: ``mrnet train`` then ``mrnet evaluate`` on generated triples


ENTITY_HITS = (1, 10)
RELATION_HITS = (1,)


def kb_config(out: Path, seed: int, size) -> Path:
    path = out / "kb.ini"
    path.write_text(f"""[train]
kind = distance
latent_dim = 8
triples = {out / 'train.tsv'}
negative_ratio = 1.0
epochs = {size['epochs']}
learning_rate = 0.5
batch_size = 256
radius = 6.0
seed = {seed}
checkpoint = {out / 'model.ckpt'}

[evaluate]
checkpoint = {out / 'model.ckpt'}
triples = {out / 'train.tsv'}
valid_triples = {out / 'valid.tsv'}
test_triples = {out / 'test.tsv'}
hits_entity = {', '.join(map(str, ENTITY_HITS))}
hits_relation = {', '.join(map(str, RELATION_HITS))}
output = {out / 'metrics.csv'}
""", encoding="utf-8")
    return path


def kb_cli(args, size):
    from mrnet.cli import run_cli

    ini = kb_config(args.out, args.seed, size)
    yield "setup"
    codes = [run_cli_captured(run_cli, [mode, "--config", str(ini)])
             for mode in ("train", "evaluate")]
    yield "run"
    yield check_kb(args.out, codes)


def check_kb(out: Path, codes):
    import reference

    failed = sum(code != 0 for code, _ in codes)
    if failed:
        return {"failed": failed, "problems": [],
                "detail": {"exit": [code for code, _ in codes]}}
    printed = {}
    for line in codes[1][1].splitlines():
        name, value = line.split()
        printed[name] = float(value)
    splits, n, k = reference.read_triples(
        [out / "train.tsv", out / "valid.tsv", out / "test.tsv"])
    kind, ent, rel = reference.read_checkpoint(out / "model.ckpt")
    problems = []
    if ent.shape[0] != n or rel.shape[0] != k:
        problems.append(f"checkpoint holds {ent.shape[0]}x{rel.shape[0]}, "
                        f"data {n}x{k}")
        return {"failed": 0, "problems": problems, "detail": printed}
    known = {tr for split in splits for tr in split}
    want, random = reference.rank_metrics(kind, ent, rel, splits[2], known,
                                          ENTITY_HITS, RELATION_HITS)
    if set(printed) != set(want):
        problems.append(f"printed {sorted(printed)}, expected {sorted(want)}")
    for name in set(printed) & set(want):
        if not reference.close(printed[name], want[name], PRINT_TOL):
            problems.append(f"{name} {printed[name]!r} != reference "
                            f"{want[name]!r}")
    if not printed.get("hits_e@10", 0.0) >= 5.0 * random[10]:
        problems.append(f"hits_e@10 {printed.get('hits_e@10')} is below 5x "
                        f"the random-score {random[10]:.4g}")
    return {"failed": 0, "problems": problems,
            "detail": {**printed, "random_hits_e@10": random[10]}}


WORKLOADS = {"replicate_n800": replicate_n800, "grid_tiny": grid_tiny,
             "kb_cli": kb_cli}

# operations one round attempts: a replicate, a grid row, a CLI command
OPERATIONS = {"replicate_n800": lambda size: 1,
              "grid_tiny": lambda size: size["replicates"],
              "kb_cli": lambda size: 2}


# --------------------------------------------------------------------------
# per-layer figures from a traced round


def layer_metrics(tracer, run_start, run_end):
    spans = tracer.summary()

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    steps = get("estimation.objective_gradient", "calls")
    step_s = get("estimation.train", "s") - get("estimation.penalized_objective", "s")
    covered = tracer.covered(run_start, run_end, threading.get_ident())
    return {
        "models.scores.calls": get("models.scores", "calls"),
        "models.scores.self_s": get("models.scores", "self_s"),
        "models.score_gradients.self_s": get("models.score_gradients", "self_s"),
        "estimation.train.s": get("estimation.train", "s"),
        "estimation.train.self_s": get("estimation.train", "self_s"),
        "estimation.train.steps": steps,
        "estimation.step_us": 1e6 * step_s / steps if steps else 0.0,
        "estimation.objective_gradient.self_s":
            get("estimation.objective_gradient", "self_s"),
        "estimation.penalized_objective.calls":
            get("estimation.penalized_objective", "calls"),
        "estimation.penalized_objective.s":
            get("estimation.penalized_objective", "s"),
        "simulation.generate_truth.s": get("simulation.generate_truth", "s"),
        "simulation.sample_observations.s":
            get("simulation.sample_observations", "s"),
        "rng.counter_uniforms.s": get("rng.counter_uniforms", "s"),
        "evaluation.evaluate_losses.s": get("evaluation.evaluate_losses", "s"),
        "evaluation.evaluate_losses.slots":
            tracer.counts["evaluation.evaluate_losses.slots"],
        "evaluation.rank_report.s": get("evaluation.rank_report", "s"),
        "evaluation.rank_edge.calls": get("evaluation.rank_edge", "calls"),
        "evaluation.rank_edge.candidates":
            tracer.counts["evaluation.rank_edge.candidates"],
        "evaluation.filter.s": get("evaluation.filter", "s"),
        "io.load_triples.s": get("io.load_triples", "s"),
        "io.load_triple_split.s": get("io.load_triple_split", "s"),
        "io.sample_negatives.s": get("io.sample_negatives", "s"),
        "io.save_checkpoint.s": get("io.save_checkpoint", "s"),
        "io.load_checkpoint.s": get("io.load_checkpoint", "s"),
        "cli.train.self_s": get("cli.train", "self_s"),
        "cli.evaluate.self_s": get("cli.evaluate", "self_s"),
        "cli.simulate.self_s": get("cli.simulate", "self_s"),
        "trace.coverage": covered / (run_end - run_start),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", type=Path)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mrnet  # noqa: F401 - part of the measured set-up
    import mrnet.cli  # noqa: F401 - the CLI workloads and the tracer use it

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)

    size = SIZES[args.size][args.workload]
    ops = OPERATIONS[args.workload](size)
    steps = WORKLOADS[args.workload](args, size)
    next(steps)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        start = time.perf_counter()
        try:
            next(steps)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            error = f"{type(exc).__name__}: {exc}"
            print(f"{args.workload}: {error}", file=sys.stderr)
            failure = {"failed": ops, "problems": [], "detail": {"error": error}}
        else:
            failure = None
        end = time.perf_counter()
        result.update(run_s=end - start, peak_rss_mb=peak_rss_mb(),
                      attempted=ops)
        result.update(failure or next(steps))
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, start, end)
            tracer.write(args.out / f"trace-{args.workload}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
