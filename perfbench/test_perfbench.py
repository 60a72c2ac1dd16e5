"""Tests of the benchmark itself: reference code, checks, tracer, runs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import kbgen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402


# --------------------------------------------------------------------------
# reference code on hand-worked cases


def test_score_rules_by_hand():
    h, t = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    # distance: 2 - |(1,0) + (0,1) - (0,1)|^2 = 2 - 1
    assert reference.score_block("distance", h, np.array([0.0, 1.0, 2.0]), t)[0, 0] == 1.0
    # bilinear: 0.5*1*3 + (-1)*2*4
    assert reference.score_block("bilinear", np.array([[1.0, 2.0]]),
                                 np.array([0.5, -1.0]),
                                 np.array([[3.0, 4.0]]))[0, 0] == -6.5
    # combined: gap (1,0)+(0,1)-(0,0) = (1,1); 2*1 + 3*1
    assert reference.score_block("combined", h, np.array([0.0, 1.0, 2.0, 3.0]),
                                 np.zeros((1, 2)))[0, 0] == 5.0
    with pytest.raises(ValueError):
        reference.score_block("cosine", h, np.zeros(2), t)


def test_bernoulli_kl_by_hand():
    kl = reference.bernoulli_kl
    assert kl(0.5, 0.5) == 0.0
    assert kl(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert kl(0.0, 0.2) == pytest.approx(math.log(1.0 / 0.8), rel=1e-15)
    # 0.25 log(0.25/0.5) + 0.75 log(0.75/0.5)
    assert kl(0.25, 0.5) == pytest.approx(0.13081203594113694, rel=1e-14)
    # the estimate is clamped to 1e-12, so a certain miss costs log(1e12)
    assert kl(1.0, 0.0) == pytest.approx(12 * math.log(10.0), rel=1e-12)


def test_filtered_rank_half_credit_for_ties():
    scores = np.array([3.0, 5.0, 3.0, 1.0, 3.0])
    known = np.array([True, False, False, False, True])
    # target 0: one above (5), one tie kept (index 2), index 4 filtered
    assert reference.filtered_rank(scores, 0, known) == 2.5


def test_rank_metrics_by_hand():
    # one relation, shift 1, offset 0, entities on a line at 0, 1, 3:
    # score(h, t) = -(x_h + 1 - x_t)^2
    ent = np.array([[0.0], [1.0], [3.0]])
    rel = np.array([[1.0, 0.0]])
    test = [(2, 1, 0)]  # score -9
    known = {(2, 1, 0), (0, 1, 0)}
    got, random = reference.rank_metrics("distance", ent, rel, test, known,
                                         (1, 10), (1,))
    # head: h0 filtered, h1 scores -1 > -9 -> rank 2
    # tail: t0 -16 below, t2 -1 above -> rank 2; relation: alone -> 1
    assert got == {"mr_e": 2.0, "mrr_e": 0.5, "hits_e@1": 0.0,
                   "hits_e@10": 1.0, "mr_r": 1.0, "mrr_r": 1.0,
                   "hits_r@1": 1.0}
    # filtering leaves pools of 2 (head) and 3 (tail) candidates
    assert random == pytest.approx({1: (1 / 2 + 1 / 3) / 2, 10: 1.0})


def test_reference_reads_vocab_in_appearance_order(tmp_path):
    (tmp_path / "a.tsv").write_text("x\tr\ty\ny\tr\tz\n", encoding="utf-8")
    (tmp_path / "b.tsv").write_text("z\ts\tx\n", encoding="utf-8")
    splits, n, k = reference.read_triples([tmp_path / "a.tsv",
                                           tmp_path / "b.tsv"])
    assert splits == [[(0, 1, 0), (1, 2, 0)], [(2, 0, 1)]] and (n, k) == (3, 2)


def test_reference_agrees_with_mrnet_scores():
    from mrnet import ModelParams, ScoreModel, scores

    rng = np.random.default_rng(3)
    for kind in ("distance", "bilinear", "combined"):
        model = ScoreModel(kind, 3)
        params = ModelParams(rng.normal(size=(5, 3)),
                             rng.normal(size=(2, model.relation_dim)), 10.0)
        for r in range(2):
            block = reference.score_block(kind, params.entities,
                                          params.relations[r], params.entities)
            h, t = np.divmod(np.arange(25), 5)
            want = scores(model, params, h, t, np.full(25, r))
            np.testing.assert_allclose(block.ravel(), want, rtol=1e-13)


# --------------------------------------------------------------------------
# each workload check passes on program output and fails on a perturbed one


def _args(tmp_path, **extra):
    return argparse.Namespace(seed=5, out=tmp_path, workers=1, reference=None,
                              **extra)


def _round(generator):
    next(generator)  # set-up
    next(generator)  # timed work
    return next(generator)


def _spy(monkeypatch, name):
    """Record the arguments of ``workloads.<name>`` while still running it."""
    real = getattr(workloads, name)
    seen = {}

    def spy(*args):
        seen["args"] = args
        return real(*args)

    monkeypatch.setattr(workloads, name, spy)
    return real, seen


def test_replicate_check_catches_perturbed_losses(tmp_path, monkeypatch):
    size = workloads.SIZES["smoke"]["replicate_n800"]
    real, seen = _spy(monkeypatch, "check_replicate")
    verdict = _round(workloads.replicate_n800(_args(tmp_path), size))
    assert verdict["problems"] == []
    kind, truth, fitted, radius, reported, rate, _ = seen["args"]
    nudged = dict(reported, avg_kl=reported["avg_kl"] * (1 + 1e-8))
    assert real(kind, truth, fitted, radius, nudged, rate)["problems"]
    far = (np.full_like(fitted[0], radius), fitted[1])  # norm radius*sqrt(d)
    assert any("ball" in p for p in
               real(kind, truth, far, radius, reported, rate)["problems"])


def test_grid_check_catches_a_changed_byte(tmp_path):
    size = workloads.SIZES["smoke"]["grid_tiny"]
    verdict = _round(workloads.grid_tiny(_args(tmp_path), size))
    assert verdict["problems"] == [] and verdict["failed"] == 0
    csv = tmp_path / "grid-w1.csv"
    other = tmp_path / "copy.csv"
    text = csv.read_text(encoding="utf-8")
    other.write_text(text, encoding="utf-8")
    ok = workloads.check_grid(0, f"wrote {size['replicates']} rows (0 failed)",
                              other, size["replicates"], csv)
    assert ok["problems"] == []
    # same values, one more byte: the seconds column reads 0.0, not 0
    other.write_text(text.replace(",0\n", ",0.0\n", 1), encoding="utf-8")
    bad = workloads.check_grid(0, f"wrote {size['replicates']} rows (0 failed)",
                               other, size["replicates"], csv)
    assert bad["problems"]
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[3] = "nan"
    other.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n",
                     encoding="utf-8")
    assert workloads.check_grid(0, "wrote", other, size["replicates"])["problems"]


def test_kb_check_catches_an_altered_checkpoint_row(tmp_path, monkeypatch):
    size = workloads.SIZES["smoke"]["kb_cli"]
    kbgen.write_split(tmp_path, 5, **size["kb"])
    real, seen = _spy(monkeypatch, "check_kb")
    verdict = _round(workloads.kb_cli(_args(tmp_path), size))
    assert verdict["problems"] == [] and verdict["failed"] == 0

    # move the first test triple's head entity far away
    ckpt = tmp_path / "model.ckpt"
    lines = ckpt.read_text(encoding="utf-8").split("\n")
    splits, _, _ = reference.read_triples(
        [tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv"])
    head = splits[2][0][0]
    width = len(lines[2 + head].split())
    lines[2 + head] = " ".join(["5"] * width)
    ckpt.write_text("\n".join(lines), encoding="utf-8")
    assert real(*seen["args"])["problems"]


# --------------------------------------------------------------------------
# tracer


def test_tracer_catches_cross_module_calls_and_restores():
    import mrnet.estimation
    import mrnet.models
    from mrnet import ModelParams, NetworkShape, ObservationSet, ScoreModel

    original = mrnet.estimation.scores
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert mrnet.estimation.scores is not original
        model = ScoreModel("bilinear", 2)
        shape = NetworkShape(3, 1)
        params = ModelParams(np.ones((3, 2)), np.ones((1, 2)), 5.0)
        obs = ObservationSet(shape, [0, 1], [1, 2], [0, 0], [1, 0])
        mrnet.estimation.penalized_objective(model, params, obs)
    finally:
        restore()
    assert mrnet.estimation.scores is original
    assert mrnet.models.scores is original
    summary = tracer.summary()
    assert summary["models.scores"]["calls"] == 1
    outer = summary["estimation.penalized_objective"]
    assert outer["self_s"] == pytest.approx(
        outer["s"] - summary["models.scores"]["s"], abs=1e-12)


def test_tracer_loses_no_span_or_count_across_threads():
    import threading
    import types

    tracer = Tracer()
    traced = tracer.wrap("evaluation.evaluate_losses",
                         lambda: types.SimpleNamespace(n_evaluated=1))
    calls, workers = 2000, 4

    def hammer():
        for _ in range(calls):
            traced()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counts["evaluation.evaluate_losses.slots"] == calls * workers
    assert len({span[0] for span in tracer.spans}) == calls * workers
    assert all(span[4] == -1 for span in tracer.spans)  # no cross-thread parent


# --------------------------------------------------------------------------
# whole runs, reduced size, and the benchmark definition


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, tmp_path):
    spec = _benchmark()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, 4, 0.0, trace, size="smoke",
                             out=tmp_path / key)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        assert all(math.isfinite(m["value"])
                   for m in result["metrics"].values())


def test_one_core_grid_still_compares_with_a_separate_reference(
        tmp_path, monkeypatch):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    result = run.measure("grid_tiny", 4, 0.0, False, size="smoke",
                         out=tmp_path)
    assert result["correct"]
    reference_csv = tmp_path / "grid-ref.csv"
    timed_csv = tmp_path / "grid-w1.csv"
    assert reference_csv.read_bytes() == timed_csv.read_bytes()
    # the timed round's check reads the reference, not its own CSV
    text = timed_csv.read_text(encoding="utf-8")
    timed_csv.write_text(text.replace(",0\n", ",0.0\n", 1), encoding="utf-8")
    rows = workloads.SIZES["smoke"]["grid_tiny"]["replicates"]
    assert workloads.check_grid(0, f"wrote {rows} rows (0 failed)", timed_csv,
                                rows, reference_csv)["problems"]


def test_benchmark_definition_names_this_directory():
    spec = _benchmark()
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kb_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
