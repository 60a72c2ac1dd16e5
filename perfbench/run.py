"""Benchmark of mrnet: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload {replicate_n800,grid_tiny,kb_cli}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; mrnet is imported from
``src/``.  Every round of a workload runs in a fresh process
(``workloads.py``), and rounds repeat while another one fits in
``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: the median ``run_s`` and
``peak_rss_mb`` over the rounds, and the median ``setup_s`` over the
rounds plus ``SETUP_PROBES`` set-up-only processes, which run before,
between and after the rounds.  ``--trace 1``
alternates untimed-trace and traced rounds and reports the per-layer
metrics (medians over the traced rounds), the share of traced
``run_s`` the spans cover, and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The process exits 2
without a result when the checkout holds no ``src/mrnet``.
"""

from __future__ import annotations

import os

# one BLAS thread per process: with grid_tiny's two workers, no process
# runs more busy threads than the two cores the figures were taken on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up-only processes per run, spread between the timed rounds
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170


def metric_units(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class Run:
    """One benchmark run: its output directory and every round's record."""

    def __init__(self, workload, seed, size, out):
        self.workload, self.seed, self.size, self.out = workload, seed, size, out
        self.records = []

    def child(self, *flags):
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(self.out), "--t0", repr(t0), "--size", self.size,
               *flags]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if "attempted" in record:
            if not self.records:
                print(f"{self.workload} outputs: {json.dumps(record['detail'])}",
                      file=sys.stderr)
            self.records.append(record)
            for problem in record["problems"]:
                print(f"{self.workload}: {problem}", file=sys.stderr)
        return record

    def verdict(self):
        return {"correct": all(not r["problems"] for r in self.records),
                "attempted": sum(r["attempted"] for r in self.records),
                "failed": sum(r["failed"] for r in self.records)}


def measure(workload, seed, seconds, trace, size="full", out=None):
    run = Run(workload, seed, size, out or HERE / "_out" / workload)
    shutil.rmtree(run.out, ignore_errors=True)
    run.out.mkdir(parents=True)
    start = time.monotonic()
    spec = workloads.SIZES[size][workload]
    flags = []
    one_worker = None
    if workload == "kb_cli":
        import kbgen
        kbgen.write_split(run.out, seed, **spec["kb"])
    if workload == "grid_tiny":
        # the single-worker CSV every timed CSV must equal, kept under a
        # name no timed round writes
        one_worker = run.child("--workers", "1")
        os.replace(run.out / "grid-w1.csv", run.out / "grid-ref.csv")
        workers = min(2, len(os.sched_getaffinity(0)))
        if workers < 2:
            print("grid_tiny: one usable core, so the timed rounds run one "
                  "worker and simulation.grid_speedup compares one worker "
                  "with one", file=sys.stderr)
        flags = ["--workers", str(workers),
                 "--reference", str(run.out / "grid-ref.csv")]

    setups, plain, traced = [], [], []

    def probe():
        setups.append(run.child(*flags, "--setup-only")["setup_s"])

    if not trace:
        for _ in range(SETUP_PROBES // 3):
            probe()
    while True:
        begun = time.monotonic()
        if not trace:
            probe()
        plain.append(run.child(*flags))
        if trace:
            traced.append(run.child(*flags, "--trace"))
        now = time.monotonic()
        if now - start + (now - begun) > seconds:
            break
    while not trace and len(setups) < SETUP_PROBES:
        probe()

    for label, values in (("run_s", [r["run_s"] for r in plain]),
                          ("traced run_s", [r["run_s"] for r in traced]),
                          ("set-up-only setup_s", setups)):
        if values:
            print(f"{workload} {label}: "
                  + " ".join(f"{v:.4f}" for v in values), file=sys.stderr)
    median = statistics.median
    if not trace:
        values = {
            "setup_s": median(setups + [r["setup_s"] for r in plain]),
            "run_s": median(r["run_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
    else:
        values = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        plain_s = median(r["run_s"] for r in plain)
        values["trace.run_s"] = median(r["run_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.run_s"] - plain_s
        values["simulation.grid_speedup"] = (
            one_worker["run_s"] / plain_s if one_worker else 0.0)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units(trace).items()}
    return {**run.verdict(), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mrnet" / "__init__.py").is_file():
        print(f"no mrnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
