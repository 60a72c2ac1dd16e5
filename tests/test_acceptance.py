"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (visible with
``pytest -s``, or in the captured output of a failing test) and then
asserts, so the suite doubles as a checklist.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from mrnet import (
    MODEL_KINDS,
    BoundInputs,
    ExperimentGrid,
    GenSpec,
    ModelParams,
    NetworkShape,
    ScoreModel,
    TrainConfig,
    Triple,
    bernoulli_kl,
    check_kl_quadratic_upper,
    check_variance_inequality,
    evaluate_losses,
    generate_truth,
    rank_report,
    run_grid,
    sample_network,
    sample_observations,
    score_sup_bound,
    tail_bound,
    train,
)
from mrnet.cli import run_cli
from mrnet.estimation import ObservationSet, project_ball
from mrnet.models import edge_probabilities, score, score_gradient, sigmoid


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. analytic gradients match central finite differences


def _fd_gradient(model, params, edge, h=1e-6):
    d = model.latent_dim

    def fd_row(arr, row, width):
        g = np.empty(width)
        for j in range(width):
            orig = arr[row, j]
            arr[row, j] = orig + h
            up = score(model, params, edge)
            arr[row, j] = orig - h
            dn = score(model, params, edge)
            arr[row, j] = orig
            g[j] = (up - dn) / (2.0 * h)
        return g

    return np.concatenate([
        fd_row(params.entities, edge.head, d),
        fd_row(params.entities, edge.tail, d),
        fd_row(params.relations, edge.rel, model.relation_dim),
    ])


def test_criterion_01_gradient_fidelity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kind in MODEL_KINDS:
        model = ScoreModel(kind, 3)
        for _ in range(100):
            params = ModelParams(rng.normal(0, 0.6, (8, 3)),
                                 rng.normal(0, 0.6, (3, model.relation_dim)),
                                 radius=100.0)
            head, tail = rng.choice(8, size=2, replace=False)  # distinct rows
            edge = Triple(int(head), int(tail), int(rng.integers(3)))
            gh, gt, gr = score_gradient(model, params, edge)
            analytic = np.concatenate([gh, gt, gr])
            numeric = _fd_gradient(model, params, edge)
            rel = (np.linalg.norm(numeric - analytic)
                   / max(np.linalg.norm(analytic), 1e-12))
            worst = max(worst, rel)
    _verdict(1, "gradient fidelity", worst <= 1e-5,
             f"worst relative error {worst:.3e} over 300 draws")


# ---------------------------------------------------------------------------
# 2. pointwise divergence inequalities on dense grids


def test_criterion_02_divergence_inequalities():
    violations = 0
    for c in (2.0, 5.0, 10.0):
        grid = np.round(np.arange(-c, c + 0.05, 0.1), 10)
        for x in grid:
            for y in grid:
                if not check_variance_inequality(x, y, c):
                    violations += 1
    probs = np.arange(0.01, 1.0, 0.01)
    for p in probs:
        for q in probs:
            if not check_kl_quadratic_upper(p, q):
                violations += 1
    pp, qq = np.meshgrid(probs, probs)
    pinsker = bernoulli_kl(pp.ravel(), qq.ravel()) + 1e-12 \
        >= 2.0 * (pp.ravel() - qq.ravel()) ** 2
    violations += int((~pinsker).sum())
    _verdict(2, "divergence inequalities", violations == 0,
             f"{violations} violations across all grids")


# ---------------------------------------------------------------------------
# 3. average KL is sandwiched by the score mean-squared error


def test_criterion_03_kl_mse_sandwich():
    rng = np.random.default_rng(31)
    shape = NetworkShape(6, 2)
    radius = 1.0
    failures = 0
    for kind in MODEL_KINDS:
        model = ScoreModel(kind, 3)
        c = score_sup_bound(model, radius)
        low = 0.5 * sigmoid(c) * (1.0 - sigmoid(c))
        for _ in range(100):
            def draw():
                raw = ModelParams(rng.normal(0, 0.5, (6, 3)),
                                  rng.normal(0, 0.5, (2, model.relation_dim)),
                                  radius)
                return project_ball(raw, radius)
            rep = evaluate_losses(model, draw(), draw(), shape=shape)
            if not (low * rep.mse_phi <= rep.avg_kl + 1e-10
                    and rep.avg_kl <= rep.mse_phi / 8.0 + 1e-10):
                failures += 1
    _verdict(3, "KL/MSE sandwich", failures == 0,
             f"{failures} of 300 parameter pairs broke the sandwich")


# ---------------------------------------------------------------------------
# 4. small fully-observed instance: penalized MLE recovers the truth
#
# Known statistical limitation, kept faithful rather than tuned away: with
# every generator sd at 0.5 the true scores pile up near zero (sd ~ 1.1),
# while the exact MLE at n/m = 2700/108 carries per-score RMS error ~ 0.4.
# Sign agreement on near-coin-flip edges therefore cannot reach 95%; a
# full-batch L-BFGS oracle fit confirms link_err 0.16-0.32 at the exact
# optimum.  avg_kl <= 0.05 passes on all seeds; link_err <= 0.05 on none.


def test_criterion_04_small_instance_recovery():
    model = ScoreModel("combined", 3)
    gen = GenSpec(model, NetworkShape(30, 3), entity_sd=0.5, shift_sd=0.5,
                  weight_sd=0.5, seed=0)
    cfg = TrainConfig(epochs=200, learning_rate=1.0, batch_size=256)
    grid = ExperimentGrid(gen, cfg, entity_counts=(30,), obs_rates=(1.0,),
                          replicates=10, eval_cap=4_000_000)
    rows = run_grid(grid, n_workers=4)
    kl_ok = sum(r.avg_kl <= 0.05 for r in rows)
    err_ok = sum(r.link_err <= 0.05 for r in rows)
    both = sum(r.avg_kl <= 0.05 and r.link_err <= 0.05 for r in rows)
    _verdict(4, "small-instance recovery", both >= 9,
             f"{both}/10 seeds passed both thresholds "
             f"(avg_kl half {kl_ok}/10, link_err half {err_ok}/10)")


# ---------------------------------------------------------------------------
# 5. both risks fall as the network grows, observation rate fixed


def test_criterion_05_risk_decreases_with_size():
    model = ScoreModel("combined", 5)
    gen = GenSpec(model, NetworkShape(100, 5), seed=7)
    cfg = TrainConfig(epochs=150, learning_rate=0.5, batch_size=256)
    grid = ExperimentGrid(gen, cfg, entity_counts=(100, 200, 400, 800),
                          obs_rates=(0.02,), replicates=5, eval_cap=4_000_000)
    rows = run_grid(grid, n_workers=4)
    kl = {n: np.mean([r.avg_kl for r in rows if r.n_entities == n])
          for n in (100, 200, 400, 800)}
    err = {n: np.mean([r.link_err for r in rows if r.n_entities == n])
           for n in (100, 200, 400, 800)}
    ok = (kl[200] > kl[400] > kl[800]) and (err[200] > err[400] > err[800])
    _verdict(5, "risk decreases with size", ok,
             "mean avg_kl " + " ".join(f"{kl[n]:.3f}" for n in (100, 200, 400, 800))
             + " | mean link_err "
             + " ".join(f"{err[n]:.3f}" for n in (100, 200, 400, 800)))


# ---------------------------------------------------------------------------
# 6. observed tail frequencies never exceed the deviation bound


def test_criterion_06_tail_bound_never_violated():
    model = ScoreModel("combined", 2)
    shape = NetworkShape(6, 2, 1.0)
    gen = GenSpec(model, shape, entity_sd=0.5, shift_sd=0.5, weight_sd=0.2,
                  truncation=1.0, seed=11)
    cfg = TrainConfig(epochs=200, learning_rate=0.5, batch_size=64, rho2=1.0)
    grid = ExperimentGrid(gen, cfg, entity_counts=(6,), obs_rates=(1.0,),
                          replicates=200, eval_cap=4_000_000)
    losses = np.array([r.avg_kl for r in run_grid(grid, n_workers=4)])
    inputs = BoundInputs.from_model(model, shape, radius=gen.radius)
    parts = []
    ok = True
    for t in (0.5, 1.0):
        freq = float(np.mean(losses >= t))
        bound = tail_bound(inputs, t)
        ok = ok and freq <= bound
        parts.append(f"t={t}: freq {freq:.3f} vs bound {bound:.3g}")
    _verdict(6, "tail bound never violated", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 7. the ranking report equals an exhaustive brute-force oracle


def _oracle_rank(model, params, target, slot, table, shape):
    n, k = shape.n_entities, shape.n_relations
    if slot == "head":
        pool = [(i, target.tail, target.rel) for i in range(n)]
        pos = target.head
    elif slot == "tail":
        pool = [(target.head, i, target.rel) for i in range(n)]
        pos = target.tail
    else:
        pool = [(target.head, target.tail, i) for i in range(k)]
        pos = target.rel
    target_score = score(model, params, Triple(*pool[pos]))
    above = tied = 0
    for h, t, r in pool:
        if table[h, t, r]:  # known-true candidates never compete
            continue
        s = score(model, params, Triple(h, t, r))
        if s > target_score:
            above += 1
        elif s == target_score:
            tied += 1
    return 1.0 + above + 0.5 * tied


def test_criterion_07_ranking_matches_brute_force():
    rng = np.random.default_rng(55)
    mismatches = 0
    for kb in range(20):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        model = ScoreModel(rng.choice(MODEL_KINDS), d)
        shape = NetworkShape(n, k)
        params = ModelParams(rng.normal(0, 0.8, (n, d)),
                             rng.normal(0, 0.8, (k, model.relation_dim)), 50.0)
        table = rng.random((n, n, k)) < 0.3
        tests = [Triple(int(rng.integers(n)), int(rng.integers(n)),
                        int(rng.integers(k))) for _ in range(4)]
        for tr in tests:
            table[tr.head, tr.tail, tr.rel] = True
        report = rank_report(model, params, tests, np.argwhere(table), shape,
                             entity_hits=(1, 10), relation_hits=(1,))
        ent = np.array([_oracle_rank(model, params, tr, slot, table, shape)
                        for tr in tests for slot in ("head", "tail")])
        rel = np.array([_oracle_rank(model, params, tr, "relation", table, shape)
                        for tr in tests])
        expected = (float(ent.mean()), float((1.0 / ent).mean()),
                    {1: float((ent <= 1).mean()), 10: float((ent <= 10).mean())},
                    float(rel.mean()), float((1.0 / rel).mean()),
                    {1: float((rel <= 1).mean())})
        got = (report.mr_entity, report.mrr_entity, report.hits_entity,
               report.mr_relation, report.mrr_relation, report.hits_relation)
        if got != expected:
            mismatches += 1
    _verdict(7, "ranking matches brute force", mismatches == 0,
             f"{mismatches} of 20 random knowledge bases disagreed")


# ---------------------------------------------------------------------------
# 8. the hard sparsity cap holds at every epoch and at the end


def test_criterion_08_sparsity_cap_is_respected():
    model = ScoreModel("combined", 4)
    shape = NetworkShape(40, 3, 0.6)
    gen = GenSpec(model, shape, seed=9)
    truth = generate_truth(gen)
    sampler = sample_network(model, truth, shape, seed=10)
    obs = sample_observations(shape, sampler, seed=11)
    cap = int(0.3 * model.param_count(shape))
    res = train(model, shape, obs,
                TrainConfig(epochs=30, learning_rate=0.5, batch_size=128,
                            sparsity_cap=cap, radius=gen.radius, seed=5))
    final = (np.count_nonzero(res.params.entities)
             + np.count_nonzero(res.params.relations))
    ok = all(z <= cap for z in res.nnz_trace) and final == cap
    _verdict(8, "sparsity cap respected", ok,
             f"cap {cap}, final nonzeros {final}, "
             f"max over epochs {max(res.nnz_trace)}")


# ---------------------------------------------------------------------------
# 9. determinism: configs and checkpoints reproduce byte-for-byte


SIM_INI = """
[simulate]
kind = combined
latent_dim = 2
n_relations = 2
entity_counts = 8, 12
obs_rates = 0.5
replicates = 2
epochs = 5
learning_rate = 0.3
batch_size = 32
seed = 13
output = {out}
"""

TRAIN_INI = """
[train]
kind = distance
latent_dim = 2
triples = {triples}
negative_ratio = 1.0
epochs = 5
learning_rate = 0.3
batch_size = 16
radius = 10
seed = 2
checkpoint = {ckpt}
"""


def test_criterion_09_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(3)
    lines = sorted({f"e{rng.integers(10)}\trel{rng.integers(2)}\te{rng.integers(10)}"
                    for _ in range(80)})
    triples = tmp_path / "kb.tsv"
    triples.write_text("\n".join(lines) + "\n", encoding="utf-8")

    sim_cfg = tmp_path / "sim.ini"
    sim_out = tmp_path / "grid.csv"
    sim_cfg.write_text(SIM_INI.format(out=sim_out), encoding="utf-8")
    assert run_cli(["simulate", "--config", str(sim_cfg)]) == 0
    first_csv = sim_out.read_bytes()
    assert run_cli(["simulate", "--config", str(sim_cfg)]) == 0
    csv_same = sim_out.read_bytes() == first_csv

    train_cfg = tmp_path / "train.ini"
    ckpt = tmp_path / "model.ckpt"
    train_cfg.write_text(TRAIN_INI.format(triples=triples, ckpt=ckpt),
                         encoding="utf-8")
    assert run_cli(["train", "--config", str(train_cfg)]) == 0
    first_ckpt = ckpt.read_bytes()
    assert run_cli(["train", "--config", str(train_cfg)]) == 0
    ckpt_same = ckpt.read_bytes() == first_ckpt

    from mrnet.io import load_checkpoint, save_checkpoint
    params, model = load_checkpoint(ckpt)
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(params, model, resaved)
    roundtrip = resaved.read_bytes() == first_ckpt

    ok = csv_same and ckpt_same and roundtrip
    _verdict(9, "determinism and persistence", ok,
             f"csv rerun identical: {csv_same}, checkpoint rerun identical: "
             f"{ckpt_same}, round-trip identical: {roundtrip}")


def test_criterion_09_on_numpy_loop(numpy_loop, tmp_path):
    """Criterion 09 again, with training on the numpy fallback."""
    test_criterion_09_determinism_and_persistence(tmp_path)


# ---------------------------------------------------------------------------
# 10. trained ranking beats untrained and random baselines on a planted KB


def _random_score_hits(table, tests, shape, q, seed):
    """Hits@q of uniform-random scores under the same filtered pools."""
    rng = np.random.default_rng(seed)
    hits = []
    for tr in tests:
        for slot in ("head", "tail"):
            if slot == "head":
                mask = ~table[:, tr.tail, tr.rel].copy()
                mask[tr.head] = True
                pos = tr.head
            else:
                mask = ~table[tr.head, :, tr.rel].copy()
                mask[tr.tail] = True
                pos = tr.tail
            pool = np.flatnonzero(mask)
            s = rng.random(pool.size)
            target = s[int(np.flatnonzero(pool == pos)[0])]
            hits.append(1 + int((s > target).sum()) <= q)
    return float(np.mean(hits))


def test_criterion_10_ranking_beats_baselines():
    n_ent, n_rel, d = 500, 10, 10
    fit_model = ScoreModel("combined", d)
    truth_model = ScoreModel("distance", d)
    shape = NetworkShape(n_ent, n_rel)

    # planted geometry: a tail is linked to a head iff it falls inside a
    # fixed ball around the shifted head; the 2% quantile of the squared
    # distance sets the ball so every relation is equally sparse
    rng = np.random.default_rng(23)
    entities = rng.normal(0.0, 1.0, size=(n_ent, d))
    offsets = rng.normal(0.0, 1.0, size=(n_rel, d))
    ball = 3.0 * chi2.ppf(0.02, d)
    truth = ModelParams(entities,
                        np.concatenate([offsets, np.full((n_rel, 1), ball)], axis=1),
                        radius=60.0)

    total = shape.n_edges
    valid = np.zeros(total, dtype=bool)
    step = 1 << 18
    for lo in range(0, total, step):
        lin = np.arange(lo, min(lo + step, total), dtype=np.int64)
        rels = lin % n_rel
        pairs = lin // n_rel
        valid[lo:lin[-1] + 1] = edge_probabilities(
            truth_model, truth, pairs // n_ent, pairs % n_ent, rels) >= 0.5

    def columns(lin):
        rels = lin % n_rel
        pairs = lin // n_rel
        return pairs // n_ent, pairs % n_ent, rels

    positives = rng.choice(np.flatnonzero(valid), size=22_000, replace=False)
    negatives = rng.choice(np.flatnonzero(~valid), size=20_000, replace=False)
    train_pos, test_pos = positives[:20_000], positives[20_000:]
    heads = np.concatenate([columns(train_pos)[0], columns(negatives)[0]])
    tails = np.concatenate([columns(train_pos)[1], columns(negatives)[1]])
    rels = np.concatenate([columns(train_pos)[2], columns(negatives)[2]])
    labels = np.concatenate([np.ones(20_000, np.int8), np.zeros(20_000, np.int8)])
    obs = ObservationSet(shape, heads, tails, rels, labels)

    fitted = train(fit_model, shape, obs,
                   TrainConfig(epochs=60, learning_rate=0.5, batch_size=512,
                               radius=60.0, seed=3)).params

    th, tt, tr = columns(test_pos)
    tests = [Triple(int(a), int(b), int(c)) for a, b, c in zip(th, tt, tr)]
    table = valid.reshape(n_ent, n_ent, n_rel)
    known = np.argwhere(table)
    trained = rank_report(fit_model, fitted, tests, known, shape,
                          entity_hits=(10,))

    init_rng = np.random.default_rng(3)  # same init draw the trainer uses
    raw = ModelParams(init_rng.uniform(-0.1, 0.1, (n_ent, d)),
                      init_rng.uniform(-0.1, 0.1, (n_rel, 2 * d)), 60.0)
    untrained = rank_report(fit_model, raw, tests, known, shape,
                            entity_hits=(10,))
    random_hits = _random_score_hits(table, tests, shape, 10, seed=77)

    mrr_factor = trained.mrr_entity / untrained.mrr_entity
    hits_factor = trained.hits_entity[10] / random_hits
    ok = mrr_factor >= 3.0 and hits_factor >= 5.0
    _verdict(10, "ranking beats baselines", ok,
             f"MRR {trained.mrr_entity:.3f} vs untrained "
             f"{untrained.mrr_entity:.3f} (x{mrr_factor:.1f}, need x3); "
             f"Hits@10 {trained.hits_entity[10]:.3f} vs random "
             f"{random_hits:.3f} (x{hits_factor:.1f}, need x5)")
