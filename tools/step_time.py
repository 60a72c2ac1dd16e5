"""Nanoseconds per AdaGrad step of one bound fit.

    python3 tools/step_time.py [--n 800] [--k 5] [--d 5] [--kind combined]
        [--epochs 4] [--repeats 9] [--src DIR]

Builds criterion 05's network at the given size and its observation
rate (truth, labels and the observed mask, seeded as replicate_n800
seeds them), binds one fit on the compiled kernel with replicate_n800's
settings (learning rate 0.5, batch 256, the truth's radius), and times
``--repeats`` calls of ``run(rng, epochs)``.  Each call starts from the
same parameters, AdaGrad state and generator state, so every repeat
does the same work.  A step is one observation of one epoch: a call's
wall time over epochs x observations, order draws, sparsity cap and
nonzero counts included.  Prints one JSON object with the minimum and
the median over the repeats and the cores the process may use.

``--src`` names the source tree to import mrnet from (default: this
checkout's ``src``), so two commits can be compared; run them in turn,
several times, since the machine's load moves the figures.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 29
RATE = 0.02  # share of slots observed, criterion 05's


def measure(args) -> dict:
    import numpy as np

    from mrnet import (GenSpec, NetworkShape, ScoreModel, TrainConfig,
                       generate_truth, sample_network, sample_observations)
    from mrnet import _kernel
    from mrnet.estimation import _init_params

    model = ScoreModel(args.kind, args.d)
    shape = NetworkShape(args.n, args.k, RATE)
    gen = GenSpec(model, shape, seed=SEED)
    truth = generate_truth(gen)
    obs = sample_observations(
        shape, sample_network(model, truth, shape, SEED + 1), SEED + 2)
    config = TrainConfig(epochs=args.epochs, learning_rate=0.5,
                         batch_size=256, radius=gen.radius, seed=SEED + 3)
    rng = np.random.default_rng(config.seed)
    start = _init_params(model, shape, config, rng)
    state = rng.bit_generator.state
    params = start.copy()
    g2 = (np.zeros_like(params.entities), np.zeros_like(params.relations))
    kernel = _kernel.load()
    if kernel is None:
        raise SystemExit("no compiled kernel to time")
    fit = kernel.fit(model, params, *g2, obs, config)
    seconds = []
    for _ in range(args.repeats):
        # in place: the fit reads and writes these arrays by address
        params.entities[...], params.relations[...] = (start.entities,
                                                       start.relations)
        for block in g2:
            block[...] = 0.0
        rng.bit_generator.state = state
        t0 = time.perf_counter()
        fit.run(rng, args.epochs)
        seconds.append(time.perf_counter() - t0)
    per_step = [s / (args.epochs * len(obs)) * 1e9 for s in seconds]
    return {"kind": args.kind, "n_entities": args.n, "n_relations": args.k,
            "latent_dim": args.d, "observations": len(obs),
            "epochs": args.epochs, "repeats": args.repeats,
            "cores": _kernel._cores(),
            "ns_per_step_min": round(min(per_step), 1),
            "ns_per_step_median": round(statistics.median(per_step), 1)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=800, help="entities")
    ap.add_argument("--k", type=int, default=5, help="relations")
    ap.add_argument("--d", type=int, default=5, help="latent size")
    ap.add_argument("--kind", default="combined")
    ap.add_argument("--epochs", type=int, default=4, help="epochs per run")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--src", default=str(SRC))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
