"""Reference computations the workload checks compare against.

Written from the definitions, not from mrnet: the three score rules,
Bernoulli KL with the estimate clamped into [1e-12, 1 - 1e-12] (the
documented evaluation clamp), and filtered ranking with half credit
for ties.  Nothing here imports mrnet; ``test_perfbench.py`` pins each
function on hand-worked cases.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np

KL_CLAMP = 1e-12


def score_block(kind, heads, rel, tails):
    """Scores of every (head row, tail row) pair under one relation row.

    ``heads`` is (A, d), ``tails`` is (B, d); the result is (A, B).

    distance:  rel = (shift, offset);  offset - |h + shift - t|^2
    bilinear:  rel = w;                sum_j w_j h_j t_j
    combined:  rel = (shift, w);       sum_j w_j (h_j + shift_j - t_j)^2
    """
    d = heads.shape[1]
    if kind == "bilinear":
        return (heads * rel) @ tails.T
    gap = heads[:, None, :] + rel[:d] - tails[None, :, :]
    if kind == "distance":
        return rel[d] - (gap * gap).sum(axis=2)
    if kind == "combined":
        return (gap * gap * rel[d:]).sum(axis=2)
    raise ValueError(f"unknown score rule {kind!r}")


def logistic(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def bernoulli_kl(p, q):
    """KL(Bernoulli(p) || Bernoulli(q)), q clamped by ``KL_CLAMP``."""
    p = np.asarray(p, dtype=float)
    q = np.clip(np.asarray(q, dtype=float), KL_CLAMP, 1.0 - KL_CLAMP)
    with np.errstate(divide="ignore", invalid="ignore"):
        yes = np.where(p > 0, p * np.log(p / q), 0.0)
        no = np.where(p < 1, (1.0 - p) * np.log((1.0 - p) / (1.0 - q)), 0.0)
    return yes + no


def network_losses(kind, truth, fitted, constant_q):
    """Exact averages over all N*N*K slots of a fitted model vs the truth.

    ``truth`` and ``fitted`` are (entities, relations) array pairs.
    Returns avg_kl, mse_phi, link_err and the average KL of the
    constant predictor ``constant_q``.
    """
    (te, tr), (fe, fr) = truth, fitted
    n, k = te.shape[0], tr.shape[0]
    head_block = 100  # rows of heads scored at once; bounds the memory
    kl = mse = err = kl_const = 0.0
    for r in range(k):
        for lo in range(0, n, head_block):
            a = score_block(kind, te[lo:lo + head_block], tr[r], te)
            b = score_block(kind, fe[lo:lo + head_block], fr[r], fe)
            p = logistic(a)
            kl += bernoulli_kl(p, logistic(b)).sum()
            kl_const += bernoulli_kl(p, constant_q).sum()
            mse += ((b - a) ** 2).sum()
            err += np.count_nonzero((a >= 0) != (b >= 0))
    slots = n * n * k
    return {"avg_kl": kl / slots, "mse_phi": mse / slots,
            "link_err": err / slots, "constant_kl": kl_const / slots}


def filtered_rank(scores, target, known):
    """Rank of ``scores[target]`` among candidates that are not known true.

    ``known`` is a boolean mask over the candidates (it includes the
    target).  Rank = 1 + #(score above) + 0.5 * #(score tied).
    """
    keep = ~known
    s = scores[keep]
    t = scores[target]
    return 1.0 + np.count_nonzero(s > t) + 0.5 * np.count_nonzero(s == t)


def read_triples(paths):
    """Triples as index tuples (h, t, r) per file, over one shared
    vocabulary numbered in order of first appearance (head before tail
    within a line, files in the given order)."""
    ents, rels = {}, {}
    out = []
    for path in paths:
        rows = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            h, r, t = line.split("\t")
            hi = ents.setdefault(h, len(ents))
            ti = ents.setdefault(t, len(ents))
            rows.append((hi, ti, rels.setdefault(r, len(rels))))
        out.append(rows)
    return out, len(ents), len(rels)


def read_checkpoint(path):
    """(kind, entities, relations) from a text checkpoint."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    kind, d, n, k, _radius = lines[1].split()
    d, n, k = int(d), int(n), int(k)
    rows = [np.array(line.split(), dtype=float) for line in lines[2:2 + n + k]]
    ent = np.array(rows[:n]).reshape(n, d)
    rel = np.array(rows[n:])
    if len(rel) != k:
        raise ValueError(f"{path}: expected {k} relation rows")
    return kind, ent, rel


def rank_metrics(kind, ent, rel, test, known, entity_hits, relation_hits):
    """Filtered MR / MRR / Hits@q for head+tail and relation corruption.

    ``test`` and ``known`` hold (h, t, r) index tuples; ``known`` is the
    filter (every split, test included).  Also returns the Hits@q that
    uniformly random scores would get on average.
    """
    n, k = ent.shape[0], rel.shape[0]
    heads_of, tails_of, rels_of = defaultdict(list), defaultdict(list), \
        defaultdict(list)
    for h, t, r in known:
        heads_of[t, r].append(h)
        tails_of[h, r].append(t)
        rels_of[h, t].append(r)
    ent_ranks, rel_ranks, pools = [], [], []
    for h, t, r in test:
        for slot in ("head", "tail"):
            mask = np.zeros(n, dtype=bool)
            if slot == "head":
                s = score_block(kind, ent, rel[r], ent[t:t + 1])[:, 0]
                mask[heads_of[t, r]] = True
                target = h
            else:
                s = score_block(kind, ent[h:h + 1], rel[r], ent)[0]
                mask[tails_of[h, r]] = True
                target = t
            ent_ranks.append(filtered_rank(s, target, mask))
            pools.append(1 + n - np.count_nonzero(mask))
        s = np.array([score_block(kind, ent[h:h + 1], rel[j], ent[t:t + 1])[0, 0]
                      for j in range(k)])
        mask = np.zeros(k, dtype=bool)
        mask[rels_of[h, t]] = True
        rel_ranks.append(filtered_rank(s, r, mask))
    ent_ranks, rel_ranks = np.array(ent_ranks), np.array(rel_ranks)
    pools = np.array(pools)
    out = {"mr_e": ent_ranks.mean(), "mrr_e": (1.0 / ent_ranks).mean()}
    out.update({f"hits_e@{q}": (ent_ranks <= q).mean() for q in entity_hits})
    out.update({"mr_r": rel_ranks.mean(), "mrr_r": (1.0 / rel_ranks).mean()})
    out.update({f"hits_r@{q}": (rel_ranks <= q).mean() for q in relation_hits})
    random = {q: (np.minimum(q, pools) / pools).mean() for q in entity_hits}
    return out, random


def close(got, want, rel_tol):
    return abs(got - want) <= rel_tol * max(abs(want), 1e-300)
