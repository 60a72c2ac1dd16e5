import dataclasses
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import mrnet
from mrnet.bounds import BoundInputs
from mrnet.cli import run_cli
from mrnet.estimation import TrainConfig
from mrnet.io import load_checkpoint
from mrnet.models import NetworkShape, ScoreModel
from mrnet.simulation import ExperimentGrid, GenSpec


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SIM_CONFIG = """
[simulate]
kind = combined
latent_dim = 2
n_relations = 2
entity_counts = 6, 8
obs_rates = 1.0
replicates = 2
entity_sd = 0.5
shift_sd = 0.5
weight_sd = 0.5
epochs = 3
learning_rate = 0.3
batch_size = 32
seed = 5
output = {out}
"""


def test_simulate_writes_csv_deterministically(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    cfg = write(tmp_path / "sim.ini", SIM_CONFIG.format(out=out))
    assert run_cli(["simulate", "--config", cfg]) == 0
    text1 = out.read_bytes()
    lines = text1.decode().strip().split("\n")
    assert lines[0] == "n_entities,obs_rate,replicate,avg_kl,mse_phi,link_err,seconds"
    assert len(lines) == 5  # 2 sizes x 1 rate x 2 replicates
    assert lines[1].startswith("6,1,0,")
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert out.read_bytes() == text1  # byte-identical rerun


@pytest.mark.parametrize("module", ["mrnet", "mrnet.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    # both used to exit 0 having done nothing
    out = tmp_path / "grid.csv"
    cfg = write(tmp_path / "sim.ini", SIM_CONFIG.format(out=out))
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(mrnet.__file__))}
    for argv, code in ((["simulate", "--config", cfg], 0), (["nonsense"], 2)):
        done = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == code, done.stderr
    assert "usage: mrnet" in done.stderr
    written = out.read_bytes()
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert out.read_bytes() == written


def triple_file(tmp_path, name, n=12, k=2, seed=0, count=60):
    """A made-up knowledge base over letter entities."""
    rng = np.random.default_rng(seed)
    lines = set()
    while len(lines) < count:
        h, t = rng.integers(0, n, size=2)
        r = rng.integers(0, k)
        lines.add(f"e{h}\trel{r}\te{t}")
    return write(tmp_path / name, "\n".join(sorted(lines)) + "\n")


TRAIN_CONFIG = """
[train]
kind = distance
latent_dim = 2
triples = {triples}
negative_ratio = 1.0
epochs = 4
learning_rate = 0.3
batch_size = 16
radius = 10
seed = 1
checkpoint = {ckpt}
"""


def test_train_writes_checkpoint(tmp_path, capsys):
    triples = triple_file(tmp_path, "train.tsv")
    ckpt = tmp_path / "model.ckpt"
    cfg = write(tmp_path / "train.ini",
                TRAIN_CONFIG.format(triples=triples, ckpt=ckpt))
    assert run_cli(["train", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "final_objective" in out
    params, model = load_checkpoint(ckpt)
    assert model == ScoreModel("distance", 2)
    assert params.n_entities == 12
    assert params.n_relations == 2

    # deterministic: same config + seed -> identical checkpoint bytes
    first = ckpt.read_bytes()
    assert run_cli(["train", "--config", cfg]) == 0
    assert ckpt.read_bytes() == first
    # seed override changes the fit
    assert run_cli(["train", "--config", cfg, "--seed", "9"]) == 0
    assert ckpt.read_bytes() != first


def test_train_runs_a_negative_seed(tmp_path, capsys):
    # seed -1 used to pass TrainConfig and then exit 3 when numpy refused
    # it; train wraps it modulo 2**64, as derive_seed does
    triples = triple_file(tmp_path, "train.tsv")
    ckpt = tmp_path / "model.ckpt"
    cfg = write(tmp_path / "train.ini",
                TRAIN_CONFIG.format(triples=triples, ckpt=ckpt))
    assert run_cli(["train", "--config", cfg, "--seed", "-1"]) == 0
    wrapped = ckpt.read_bytes()
    assert run_cli(["train", "--config", cfg, "--seed", str(2 ** 64 - 1)]) == 0
    assert ckpt.read_bytes() == wrapped


@pytest.mark.parametrize("check", [test_simulate_writes_csv_deterministically,
                                   test_train_writes_checkpoint],
                         ids=lambda f: f.__name__[5:])
def test_numpy_loop(numpy_loop, check, tmp_path, capsys):
    """The determinism tests above, on the numpy training fallback."""
    check(tmp_path, capsys)


EVAL_CONFIG = """
[evaluate]
checkpoint = {ckpt}
triples = {train}
test_triples = {test}
hits_entity = 1, 10
hits_relation = 1
output = {out}
"""


def test_evaluate_reports_metrics(tmp_path, capsys):
    train_f = triple_file(tmp_path, "train.tsv", seed=3)
    test_f = triple_file(tmp_path, "test.tsv", seed=4, count=20)
    ckpt = tmp_path / "model.ckpt"
    cfg = write(tmp_path / "both.ini",
                TRAIN_CONFIG.format(triples=train_f, ckpt=ckpt)
                + EVAL_CONFIG.format(ckpt=ckpt, train=train_f, test=test_f,
                                     out=tmp_path / "metrics.csv"))
    assert run_cli(["train", "--config", cfg]) == 0
    assert run_cli(["evaluate", "--config", cfg]) == 0
    text = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert text[0] == "metric,value"
    names = [line.split(",")[0] for line in text[1:]]
    assert names == ["mr_e", "mrr_e", "hits_e@1", "hits_e@10", "mr_r",
                     "mrr_r", "hits_r@1"]
    values = {line.split(",")[0]: float(line.split(",")[1])
              for line in text[1:]}
    assert 1.0 <= values["mr_e"]
    assert 0.0 < values["mrr_e"] <= 1.0
    assert 0.0 <= values["hits_e@10"] <= 1.0


def test_evaluate_shape_mismatch_is_data_error(tmp_path, capsys):
    train_f = triple_file(tmp_path, "train.tsv", n=12, seed=3)
    other_f = triple_file(tmp_path, "other.tsv", n=20, seed=5, count=80)
    test_f = triple_file(tmp_path, "test.tsv", n=12, seed=4, count=20)
    ckpt = tmp_path / "model.ckpt"
    cfg_train = write(tmp_path / "t.ini",
                      TRAIN_CONFIG.format(triples=train_f, ckpt=ckpt))
    assert run_cli(["train", "--config", cfg_train]) == 0
    cfg_eval = write(tmp_path / "e.ini",
                     EVAL_CONFIG.format(ckpt=ckpt, train=other_f,
                                        test=test_f, out=tmp_path / "m.csv"))
    assert run_cli(["evaluate", "--config", cfg_eval]) == 3
    assert "entities" in capsys.readouterr().err


BOUNDS_CONFIG = """
[bounds]
n = 10000
m = 50
sup_score = 10
lipschitz = 5
radius = 1
t_values = 0.5, 1.0
"""


def test_bounds_prints_tables(tmp_path, capsys):
    cfg = write(tmp_path / "b.ini", BOUNDS_CONFIG)
    assert run_cli(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "t,tail_bound,empirical_frequency"
    assert out[1].startswith("0.5,")
    assert out[2].startswith("1,")
    assert out[3] == "risk_bound,empirical_risk"
    # n/m = 200 exceeds C2 + e here, so a number (not nan) is printed
    assert not out[4].startswith("nan")


BOUNDS_EMPIRICAL = """
[bounds]
kind = combined
latent_dim = 2
n_entities = 6
n_relations = 2
obs_rate = 1.0
radius = 40
replicates = 3
t_values = 0.5
entity_sd = 0.5
shift_sd = 0.5
weight_sd = 0.5
epochs = 3
learning_rate = 0.3
batch_size = 16
seed = 2
"""


def test_bounds_empirical_columns(tmp_path, capsys):
    cfg = write(tmp_path / "b.ini", BOUNDS_EMPIRICAL)
    assert run_cli(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 4  # one t row, one risk row
    freq = float(out[1].split(",")[2])
    assert 0.0 <= freq <= 1.0
    # this instance is far below the risk-bound precondition, so that
    # column is nan, but the empirical risk is measured
    risk_bound_val, emp_risk = map(float, out[3].split(","))
    assert np.isnan(risk_bound_val)
    assert np.isfinite(emp_risk) and emp_risk >= 0.0


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", "[simulate]\nkind = combined\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.ini")
    assert run_cli(["simulate", "--config", missing]) == 2
    bad_value = write(tmp_path / "bad2.ini",
                      "[bounds]\nn = ten\nm = 5\nsup_score = 10\n"
                      "lipschitz = 5\nradius = 1\n")
    assert run_cli(["bounds", "--config", bad_value]) == 2


def test_data_errors_exit_3(tmp_path, capsys):
    ckpt = tmp_path / "none.ckpt"
    cfg = write(tmp_path / "t.ini",
                TRAIN_CONFIG.format(triples=tmp_path / "absent.tsv",
                                    ckpt=ckpt))
    assert run_cli(["train", "--config", cfg]) == 3
    malformed = write(tmp_path / "mal.tsv", "only two\tcolumns\n")
    cfg2 = write(tmp_path / "t2.ini",
                 TRAIN_CONFIG.format(triples=malformed, ckpt=ckpt))
    assert run_cli(["train", "--config", cfg2]) == 3


def config_with(text, key, value):
    """``text`` with ``key`` set to ``value`` (replacing any line)."""
    lines = [ln for ln in text.strip().splitlines()
             if not ln.startswith(key + " ")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def train_config_with(tmp_path, key, value):
    """TRAIN_CONFIG with ``key`` set to ``value`` (replacing any line)."""
    ckpt = tmp_path / "model.ckpt"
    text = TRAIN_CONFIG.format(triples=triple_file(tmp_path, "train.tsv"),
                               ckpt=ckpt)
    return write(tmp_path / "t.ini", config_with(text, key, value)), ckpt


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_bad_negative_ratio_exits_2(tmp_path, capsys, value):
    cfg, ckpt = train_config_with(tmp_path, "negative_ratio", value)
    assert run_cli(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: negative_ratio must be finite and "
                          ">= 0, got ")
    assert not ckpt.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["learning_rate", "adagrad_eps", "rho1",
                                 "rho2", "radius", "init_scale"])
def test_non_finite_train_setting_exits_2(tmp_path, capsys, key, value):
    cfg, ckpt = train_config_with(tmp_path, key, value)
    assert run_cli(["train", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be "
                                              "finite")
    assert not ckpt.exists()


def test_train_labels_positives_then_negatives(tmp_path, capsys, monkeypatch):
    # mrnet train hands train() the file's triples labelled 1, then the
    # sampled negatives labelled 0, in that order
    import mrnet.cli
    from mrnet.io import load_triples, sample_negatives
    from mrnet.models import NetworkShape

    seen = []
    real_train = mrnet.cli.train
    monkeypatch.setattr(mrnet.cli, "train",
                        lambda *a: seen.append(a[2]) or real_train(*a))
    cfg, _ = train_config_with(tmp_path, "negative_ratio", "1.5")
    assert run_cli(["train", "--config", cfg]) == 0
    (obs,) = seen
    ds = load_triples(tmp_path / "train.tsv")
    negs = sample_negatives(ds, 1.5, obs.shape, seed=1)
    assert obs.shape == NetworkShape(12, 2)
    assert len(negs) == 90
    edges = np.column_stack([obs.heads, obs.tails, obs.rels])
    assert edges.tolist() == ds.positives.tolist() + negs.tolist()
    assert obs.labels.tolist() == [1] * 60 + [0] * 90


def test_unset_keys_take_the_library_defaults(tmp_path, monkeypatch):
    # a section with only its required keys hands the library nothing
    # else, so every other setting is the library's own default
    import mrnet.cli

    configs, grids = [], []
    real_train = mrnet.cli.train
    monkeypatch.setattr(mrnet.cli, "train",
                        lambda *a: configs.append(a[3]) or real_train(*a))
    monkeypatch.setattr(mrnet.cli, "run_grid",
                        lambda grid, n_workers: grids.append(grid) or [])
    cfg = write(tmp_path / "t.ini", f"""
[train]
kind = distance
latent_dim = 2
triples = {triple_file(tmp_path, "train.tsv")}
epochs = 4
checkpoint = {tmp_path / "model.ckpt"}
""")
    assert run_cli(["train", "--config", cfg]) == 0
    assert configs == [TrainConfig(epochs=4)]
    cfg = write(tmp_path / "s.ini", f"""
[simulate]
kind = combined
latent_dim = 2
n_relations = 2
entity_counts = 6
obs_rates = 0.5
epochs = 3
output = {tmp_path / "grid.csv"}
""")
    assert run_cli(["simulate", "--config", cfg]) == 0
    model = ScoreModel("combined", 2)
    # the template shape's entity count and rate are placeholders; each
    # cell sets its own
    assert grids == [ExperimentGrid(
        gen=GenSpec(model, NetworkShape(1, 2)),
        train=TrainConfig(epochs=3), entity_counts=(6,), obs_rates=(0.5,))]


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run_cli(["simulate", "--config", "x", "--bogus"]) == 2
    assert run_cli(["frobnicate"]) == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_config_error(tmp_path, capsys, threads):
    # --threads 0 was rewritten to 1 and -2 ran on one worker
    out = tmp_path / "grid.csv"
    cfg = write(tmp_path / "sim.ini", SIM_CONFIG.format(out=out))
    bounds = write(tmp_path / "b.ini", BOUNDS_EMPIRICAL)
    for mode, path in (("simulate", cfg), ("bounds", bounds)):
        assert run_cli([mode, "--config", path, "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: --threads must be an "
                                f"integer >= 1, got {threads}\n")
        assert captured.out == ""
    assert not out.exists()


def test_threads_flag_gives_same_csv(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = write(tmp_path / "sim.ini", SIM_CONFIG.format(out=out))
    assert run_cli(["simulate", "--config", cfg]) == 0
    serial = out.read_bytes()
    assert run_cli(["simulate", "--config", cfg, "--threads", "3"]) == 0
    assert out.read_bytes() == serial


def test_evaluate_eval_cap_subsamples_truth_slots(tmp_path, monkeypatch):
    import mrnet.cli

    train_f = triple_file(tmp_path, "train.tsv", seed=3)
    test_f = triple_file(tmp_path, "test.tsv", seed=4, count=20)
    ckpt = tmp_path / "model.ckpt"
    assert run_cli(["train", "--config", write(
        tmp_path / "t.ini", TRAIN_CONFIG.format(triples=train_f,
                                                ckpt=ckpt))]) == 0
    params, _ = load_checkpoint(ckpt)
    slots = params.n_entities ** 2 * params.n_relations

    evaluated = []
    real = mrnet.cli.evaluate_losses

    def spy(*args, **kwargs):
        report = real(*args, **kwargs)
        evaluated.append(report.n_evaluated)
        return report

    monkeypatch.setattr(mrnet.cli, "evaluate_losses", spy)

    def evaluate(cap_line, name):
        out = tmp_path / f"{name}.csv"
        cfg = write(tmp_path / f"{name}.ini",
                    EVAL_CONFIG.format(ckpt=ckpt, train=train_f, test=test_f,
                                       out=out)
                    + f"truth_checkpoint = {ckpt}\n{cap_line}\n")
        assert run_cli(["evaluate", "--config", cfg]) == 0
        return out.read_bytes()

    default = evaluate("", "default")
    exact = evaluate(f"eval_cap = {slots}", "exact")
    capped = evaluate("eval_cap = 50", "capped")
    again = evaluate("eval_cap = 50", "again")
    assert evaluated == [slots, slots, 50, 50]
    assert exact == default  # caps at or above N^2 K change nothing
    assert capped == again  # the subsample is seeded
    assert b"avg_kl,0\n" in default  # truth is the fit itself
    assert b"avg_kl,0\n" in capped


# the [bounds] example of README.md, verbatim
README_BOUNDS = """
[bounds]
; either give n, m, sup_score, lipschitz, radius directly...
kind = combined            ; ...or derive them from a model:
latent_dim = 2
n_entities = 6
n_relations = 2
obs_rate = 1.0
radius = 2.0
t_values = 0.5, 1.0
replicates = 200           ; > 0 fits that many replicates and prints
                           ; empirical tail frequencies next to the bounds
epochs = 50                ; replicates take the [simulate] training keys
"""


def test_bounds_truths_and_fits_use_the_bounds_radius(tmp_path, capsys,
                                                      monkeypatch):
    import mrnet.cli

    grids, inputs = [], []
    real_tail_bound = mrnet.cli.tail_bound

    def spy_run_grid(grid, n_workers):
        grids.append(grid)
        return []  # the grid's settings are what is checked; fit nothing

    def spy_tail_bound(bound_inputs, t):
        inputs.append(bound_inputs)
        return real_tail_bound(bound_inputs, t)

    monkeypatch.setattr(mrnet.cli, "run_grid", spy_run_grid)
    monkeypatch.setattr(mrnet.cli, "tail_bound", spy_tail_bound)
    cfg = write(tmp_path / "b.ini", README_BOUNDS)
    assert run_cli(["bounds", "--config", cfg]) == 0
    assert grids[-1].gen.radius == inputs[-1].radius == 2.0
    assert grids[-1].train.radius == 2.0
    # an explicit truncation may shrink the truths' ball, never widen it
    small = write(tmp_path / "s.ini", README_BOUNDS + "truncation = 0.5\n")
    assert run_cli(["bounds", "--config", small]) == 0
    assert grids[-1].gen.radius == 1.0
    capsys.readouterr()
    wide = write(tmp_path / "w.ini", README_BOUNDS + "truncation = 20\n")
    assert run_cli(["bounds", "--config", wide]) == 2
    assert "truncation" in capsys.readouterr().err


@pytest.mark.parametrize("mode, key, value", [
    ("simulate", "eval_cap", "0"),
    ("simulate", "eval_cap", "-5"),
    ("simulate", "replicates", "0"),
    ("simulate", "replicates", "-2"),
    ("evaluate", "eval_cap", "0"),
    ("evaluate", "eval_cap", "-5"),
    ("bounds", "replicates", "-2"),
])
def test_count_below_range_exits_2(tmp_path, capsys, mode, key, value):
    # before these checks, eval_cap = -5 evaluated all but 5 slots,
    # eval_cap = 0 wrote NaN rows and replicates = -2 an empty CSV
    out = tmp_path / "out.csv"
    text = {"simulate": SIM_CONFIG.format(out=out),
            "evaluate": EVAL_CONFIG.format(ckpt=tmp_path / "m.ckpt",
                                           train=tmp_path / "train.tsv",
                                           test=tmp_path / "test.tsv",
                                           out=out),
            "bounds": BOUNDS_EMPIRICAL}[mode]
    cfg = write(tmp_path / "c.ini", config_with(text, key, value))
    assert run_cli([mode, "--config", cfg]) == 2
    low = 0 if mode == "bounds" else 1
    want = f"{key} must be an integer >= {low}, got {value}"
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_generator_setting_exits_2(tmp_path, capsys, value):
    # weight_sd = inf used to make simulate redraw inf forever; a failed
    # test (a BaseException) escapes run_grid's per-cell error capture
    def timed_out(signum, frame):
        pytest.fail("simulate ran past 60 s")

    out = tmp_path / "grid.csv"
    cfg = write(tmp_path / "sim.ini",
                config_with(SIM_CONFIG.format(out=out), "weight_sd", value))
    old_handler = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        assert run_cli(["simulate", "--config", cfg]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
    assert capsys.readouterr().err.startswith(
        "config error: weight_sd must be finite and > 0, got ")
    assert not out.exists()


def test_non_finite_bound_constant_exits_2(tmp_path, capsys):
    # lipschitz = nan used to exit 0, printing inf tail bounds
    cfg = write(tmp_path / "b.ini", config_with(BOUNDS_CONFIG, "lipschitz",
                                                "nan"))
    assert run_cli(["bounds", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: lipschitz must be finite")
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("entity_counts", ","),
    ("entity_counts", "6, 0"),
    ("obs_rates", ","),
    ("obs_rates", "1.0, 1.5"),
    ("obs_rates", "nan"),
])
def test_bad_grid_list_exits_2(tmp_path, capsys, key, value):
    # an empty list used to end in an IndexError traceback, and a bad
    # entry after the first wrote NaN rows for its cells
    out = tmp_path / "grid.csv"
    cfg = write(tmp_path / "sim.ini",
                config_with(SIM_CONFIG.format(out=out), key, value))
    assert run_cli(["simulate", "--config", cfg]) == 2
    want = {",": f"{key} must list at least one value",
            "6, 0": "entity_counts[1] must be an integer >= 1, got 0",
            "1.0, 1.5": "obs_rates[1] must be finite and in [0, 1], got 1.5",
            "nan": "obs_rates[0] must be finite and in [0, 1], got nan"}[value]
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    triples = tmp_path / "train.tsv"
    triples.write_bytes(b"a\tr\tb\r\nb\tr\tc\rc\tr\t\xff\n")
    cfg = write(tmp_path / "t.ini",
                TRAIN_CONFIG.format(triples=triples, ckpt=ckpt))
    assert run_cli(["train", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        f"data error: {triples}: line 3: not UTF-8 text\n")
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_bytes(b"[train]\nkind = \xff\n")
    assert run_cli(["train", "--config", str(bad_cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {bad_cfg}: line 2: not UTF-8 text\n")
    assert not ckpt.exists()


# The keys each section reads, besides the ``seed`` and ``columns`` that
# every subcommand reads.  They are the config format users write, so a
# renamed settings field must not rename a key unnoticed.
TRAIN_KEYS = {"epochs", "learning_rate", "adagrad_eps", "batch_size", "rho1",
              "rho2", "sparsity_cap", "radius", "init_scale"}
GEN_KEYS = {"entity_sd", "shift_sd", "weight_sd", "truncation"}
DIRECT_BOUND_KEYS = {"n", "m", "sup_score", "lipschitz", "radius"}
MODEL_BOUND_KEYS = {"n", "radius", "t_values", "replicates", "kind",
                    "latent_dim", "n_entities", "n_relations",
                    "obs_rate"} | GEN_KEYS
KEYS_READ = {
    "simulate": {"kind", "latent_dim", "n_relations", "entity_counts",
                 "obs_rates", "replicates", "eval_cap", "timing", "output"}
                | TRAIN_KEYS | GEN_KEYS,
    "train": {"kind", "latent_dim", "triples", "negative_ratio",
              "checkpoint"} | TRAIN_KEYS,
    "evaluate": {"checkpoint", "triples", "valid_triples", "test_triples",
                 "hits_entity", "hits_relation", "truth_checkpoint",
                 "eval_cap", "output"},
    "bounds direct": DIRECT_BOUND_KEYS | {"t_values", "replicates"},
    # the first direct key it lacks ("n") sends bounds down the model path
    "bounds model": MODEL_BOUND_KEYS,
    "bounds replicates": MODEL_BOUND_KEYS | TRAIN_KEYS,
}


class _Recording:
    """A config section that notes every key read from it."""

    def __init__(self, section, seen):
        self.name, self._section, self._seen = section.name, section, seen

    def get(self, key, default=None):
        self._seen.add(key)
        return self._section.get(key, default)


@pytest.fixture
def spied_cli(monkeypatch):
    """The CLI with the keys it reads and the settings it builds noted,
    and with no grid run and no checkpoint written."""
    import mrnet.cli

    seen = {"keys": set()}
    read_config = mrnet.cli.read_config
    monkeypatch.setattr(mrnet.cli, "read_config", lambda path, mode:
                        _Recording(read_config(path, mode), seen["keys"]))

    def run_grid(grid, n_workers):
        seen["grid"] = grid
        return []

    def tail_bound(inputs, t):
        seen["inputs"] = inputs
        return 0.5

    monkeypatch.setattr(mrnet.cli, "run_grid", run_grid)
    monkeypatch.setattr(mrnet.cli, "tail_bound", tail_bound)
    return seen


def _section_configs(tmp_path):
    """A config per ``KEYS_READ`` entry; data files are never read."""
    absent = tmp_path / "absent"
    evaluate = EVAL_CONFIG.format(ckpt=absent, train=absent, test=absent,
                                  out=tmp_path / "m.csv")
    return {
        "simulate": (SIM_CONFIG.format(out=tmp_path / "grid.csv"), 0),
        "train": (TRAIN_CONFIG.format(triples=absent, ckpt=absent), 3),
        "evaluate": (evaluate + f"truth_checkpoint = {absent}\n", 3),
        "bounds direct": (BOUNDS_CONFIG, 0),
        "bounds model": (config_with(BOUNDS_EMPIRICAL, "replicates", "0"), 0),
        "bounds replicates": (BOUNDS_EMPIRICAL, 0),
    }


@pytest.mark.parametrize("section", sorted(KEYS_READ))
def test_each_section_reads_its_keys(tmp_path, spied_cli, section):
    text, code = _section_configs(tmp_path)[section]
    mode = section.split()[0]
    assert run_cli([mode, "--config", write(tmp_path / "c.ini", text)]) == code
    assert spied_cli["keys"] == KEYS_READ[section] | {"seed", "columns"}


# every settings class the CLI reads: the subcommand and config that read
# it, and where the object it built ends up
SETTINGS_READ = {
    ScoreModel: ("simulate", SIM_CONFIG, lambda s: s["grid"].gen.model),
    TrainConfig: ("simulate", SIM_CONFIG, lambda s: s["grid"].train),
    GenSpec: ("simulate", SIM_CONFIG, lambda s: s["grid"].gen),
    ExperimentGrid: ("simulate", SIM_CONFIG, lambda s: s["grid"]),
    NetworkShape: ("bounds", BOUNDS_EMPIRICAL, lambda s: s["grid"].gen.shape),
    BoundInputs: ("bounds", BOUNDS_CONFIG, lambda s: s["inputs"]),
}

# fields the CLI passes itself rather than reads
GIVEN = {"seed", "model", "shape", "gen", "train", "fit_radius_from_truth"}

# a valid value for each read field, other than its default and than the
# configs above set
OTHER_VALUE = {
    "kind": ("bilinear", "bilinear"), "latent_dim": ("3", 3),
    "epochs": ("7", 7), "learning_rate": ("0.25", 0.25),
    "adagrad_eps": ("1e-6", 1e-6), "batch_size": ("17", 17),
    "rho1": ("0.5", 0.5), "rho2": ("0.75", 0.75),
    "sparsity_cap": ("9", 9), "radius": ("3.5", 3.5),
    "init_scale": ("0.05", 0.05), "entity_sd": ("0.3", 0.3),
    "shift_sd": ("0.4", 0.4), "weight_sd": ("0.6", 0.6),
    "truncation": ("0.25", 0.25), "n_entities": ("7", 7),
    "n_relations": ("3", 3), "obs_rate": ("0.5", 0.5),
    "entity_counts": ("5, 7", (5, 7)), "obs_rates": ("0.5, 0.25", (0.5, 0.25)),
    "replicates": ("4", 4), "eval_cap": ("33", 33),
    "n": ("5000", 5000.0), "m": ("40", 40), "sup_score": ("8", 8.0),
    "lipschitz": ("4", 4.0),
}


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, field.name, id=f"{cls.__name__}.{field.name}")
    for cls in SETTINGS_READ for field in dataclasses.fields(cls)
    if field.name not in GIVEN])
def test_each_settings_field_is_read_from_its_key(tmp_path, spied_cli, cls,
                                                  name):
    mode, text, built = SETTINGS_READ[cls]
    raw, value = OTHER_VALUE[name]
    field = {f.name: f for f in dataclasses.fields(cls)}[name]
    assert value != field.default
    body = text.format(out=tmp_path / "grid.csv")
    cfg = write(tmp_path / "c.ini", config_with(body, name, raw))
    assert run_cli([mode, "--config", cfg]) == 0
    assert getattr(built(spied_cli), name) == value
