"""Seeded planted-geometry knowledge base for the kb_cli workload.

Entities are points x_i ~ N(0, I_d) and every relation r has an offset
o_r ~ N(0, I_d).  The triple (h, r, t) is true when t lies among the
``true_per_relation`` closest points to x_h + o_r over all (h, t)
pairs of that relation, i.e. inside a ball around the shifted head --
the geometry the ``distance`` score rule can represent exactly.  A
uniform sample of the true triples is split ~90/5/5 into
train/valid/test TSV files (head <TAB> relation <TAB> tail).

The files depend on the seed and the sizes only; mrnet is not used.

    python3 perfbench/kbgen.py --seed 1 --out perfbench/_out/kb
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

FULL = dict(entities=2000, relations=10, dim=8, triples=40_000)


def generate(seed: int, entities: int, relations: int, dim: int,
             triples: int):
    """Return (train, valid, test) lists of (head, relation, tail) names."""
    rng = np.random.default_rng([seed, 0x6B62])
    x = rng.normal(size=(entities, dim))
    offsets = rng.normal(size=(relations, dim))
    per_rel = triples // relations
    true_per_rel = 2 * per_rel
    sq = (x * x).sum(axis=1)
    chosen = []
    for r in range(relations):
        shifted = x + offsets[r]
        dist = ((shifted * shifted).sum(axis=1)[:, None] + sq[None, :]
                - 2.0 * shifted @ x.T)
        np.fill_diagonal(dist, np.inf)
        flat = np.argpartition(dist.ravel(), true_per_rel)[:true_per_rel]
        flat.sort()
        pick = rng.choice(flat, size=per_rel, replace=False)
        chosen.append(np.stack([pick // entities, np.full(per_rel, r),
                                pick % entities], axis=1))
    rows = np.concatenate(chosen)[rng.permutation(relations * per_rel)]

    n_valid = n_test = len(rows) // 20
    held = rows[:n_valid + n_test]
    train = [tuple(t) for t in rows[n_valid + n_test:]]
    # a held-out triple naming an entity or relation unseen in training
    # has no row in the fitted model, so it moves to the training split
    ents = {h for h, _, _ in train} | {t for _, _, t in train}
    rels = {r for _, r, _ in train}
    valid, test = [], []
    for i, (h, r, t) in enumerate(held):
        if h in ents and t in ents and r in rels:
            (valid if i < n_valid else test).append((h, r, t))
        else:
            train.append((h, r, t))
            ents.update((h, t))
            rels.add(r)

    def named(split):
        return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in split]

    return named(train), named(valid), named(test)


def write_split(out: Path, seed: int, **sizes) -> dict:
    """Write train.tsv / valid.tsv / test.tsv under ``out``; return paths."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, split in zip(("train", "valid", "test"),
                           generate(seed, **{**FULL, **sizes})):
        path = out / f"{name}.tsv"
        path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in split),
                        encoding="utf-8")
        paths[name] = path
    return paths


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for name, path in write_split(args.out, args.seed).items():
        lines = path.read_text(encoding="utf-8").count("\n")
        print(f"{name} {lines} {path}")


if __name__ == "__main__":
    main()
