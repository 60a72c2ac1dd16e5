"""Memory, time and outputs of ``sample_observations`` at growing N.

    python3 tools/sampling_memory.py [--sizes 800 1600 6400] [--src DIR]

Each size runs in a fresh process: criterion 05's network (the combined
kind, d = 5, K = 5, rate 0.02) with its truth and label sampler made
first, then one untraced ``sample_observations`` call, timed, and one
more under ``tracemalloc``.  Prints one JSON object per size:

* ``maxrss_before_mb`` / ``maxrss_mb``: the process's ``ru_maxrss``
  after the set-up and after the untraced call;
* ``tracemalloc_peak_mb``: the traced call's peak above what was held
  before it;
* ``seconds``: the untraced call's wall time;
* ``observations`` and ``columns_sha1``, a sha1 of the heads, tails,
  relations and labels in that order;
* ``mask_state_sha1``: a sha1 of the mask generator's state after its
  draw, replayed as ``sample_observations`` draws it.

``--src`` names the source tree to import mrnet from (default: this
checkout's ``src``), so two commits can be compared.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 29


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(n: int) -> dict:
    """One size's record; run in a process of its own."""
    import numpy as np

    from mrnet import GenSpec, NetworkShape, ScoreModel, generate_truth
    from mrnet import simulation
    from mrnet._rng import TAG_MASK, derive_seed

    model, shape = ScoreModel("combined", 5), NetworkShape(n, 5, 0.02)
    truth = generate_truth(GenSpec(model, shape, seed=SEED))
    sampler = simulation.sample_network(model, truth, shape, SEED)
    before = _maxrss_mb()
    t0 = time.perf_counter()
    obs = simulation.sample_observations(shape, sampler, SEED)
    seconds = time.perf_counter() - t0
    after = _maxrss_mb()
    digest = hashlib.sha1()
    for column in (obs.heads, obs.tails, obs.rels, obs.labels):
        digest.update(np.ascontiguousarray(column).tobytes())
    count = len(obs)
    del obs
    tracemalloc.start()
    simulation.sample_observations(shape, sampler, SEED)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the mask draw, replayed: the generator's state after it
    rng = np.random.default_rng(derive_seed(SEED, TAG_MASK))
    total = shape.n_edges
    draw = (simulation._flip if total <= simulation.DENSE_MAX
            else simulation._binomial)
    draw(rng, total, shape.obs_rate)
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return {"n_entities": n, "slots": total,
            "observations": count,
            "maxrss_before_mb": round(before, 1), "maxrss_mb": round(after, 1),
            "tracemalloc_peak_mb": round(peak / 2**20, 1),
            "seconds": round(seconds, 3),
            "columns_sha1": digest.hexdigest(),
            "mask_state_sha1": hashlib.sha1(state.encode()).hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[800, 1600, 6400])
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.one)))
        return
    for n in args.sizes:
        proc = subprocess.run([sys.executable, __file__, "--src", args.src,
                               "--one", str(n)], check=True,
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
