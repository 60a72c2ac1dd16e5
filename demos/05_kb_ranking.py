"""
Link prediction on a knowledge base of text triples
===================================================

Load tab-separated (head, relation, tail) lines, train on the positives
plus sampled negatives, rank held-out triples against corrupted ones,
and round-trip the fitted model through a checkpoint file.
"""

import os
import tempfile

import numpy as np

from mrnet import (NetworkShape, ObservationSet, ScoreModel, TrainConfig,
                   load_triples, rank_report, sample_negatives,
                   load_checkpoint, save_checkpoint, train)

# --- a small synthetic KB: family-style relations over two clans -----------
rng = np.random.default_rng(4)
people = [f"p{i}" for i in range(40)]
lines = set()
for rel, links in (("knows", 300), ("reports_to", 120)):
    while sum(1 for ln in lines if f"\t{rel}\t" in ln) < links:
        a, b = rng.choice(40, size=2, replace=False)
        # two clans: edges mostly stay inside a clan
        if (a < 20) == (b < 20) or rng.random() < 0.1:
            lines.add(f"{people[a]}\t{rel}\t{people[b]}")

path = os.path.join(tempfile.mkdtemp(), "kb.tsv")
with open(path, "w", encoding="utf-8") as fh:
    fh.write("\n".join(sorted(lines)) + "\n")

dataset = load_triples(path)          # columns default to head, relation, tail
# dataset.positives is an (n, 3) int64 array of (head, tail, relation) rows
n, k = len(dataset.entity_vocab), len(dataset.relation_vocab)
print(f"loaded {len(dataset.positives)} triples, "
      f"{n} entities, {k} relations")

# --- train on positives plus uniformly sampled non-edges -------------------
shape = NetworkShape(n, k)
holdout = dataset.positives[::10]           # every tenth triple held out
train_pos = np.delete(dataset.positives, np.s_[::10], axis=0)
negatives = sample_negatives(dataset, ratio=1.0, shape=shape, seed=9)

edges = np.concatenate([train_pos, negatives])
labels = np.repeat(np.int8([1, 0]), [len(train_pos), len(negatives)])
observations = ObservationSet(shape, *edges.T, labels)
model = ScoreModel("distance", 8)
fitted = train(model, shape, observations,
               TrainConfig(epochs=150, learning_rate=0.5, batch_size=64,
                           radius=6.0, seed=2)).params

# --- filtered ranking: corruptions that are real triples do not count ------
report = rank_report(model, fitted, holdout, dataset.positives, shape,
                     entity_hits=(1, 10), relation_hits=(1,))
print(f"entity   MR {report.mr_entity:6.2f}   MRR {report.mrr_entity:.3f}   "
      f"Hits@10 {report.hits_entity[10]:.3f}")
print(f"relation MR {report.mr_relation:6.2f}   MRR {report.mrr_relation:.3f}")

# --- persistence: text checkpoints restore the exact float bits ------------
ckpt = path.replace("kb.tsv", "kb.ckpt")
save_checkpoint(fitted, model, ckpt)
restored, restored_model = load_checkpoint(ckpt)
print("checkpoint round-trip exact:",
      np.array_equal(restored.entities, fitted.entities)
      and np.array_equal(restored.relations, fitted.relations))
print("equivalent command lines:  mrnet train --config kb.ini ; "
      "mrnet evaluate --config kb.ini")
