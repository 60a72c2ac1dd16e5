"""
Planting a truth and recovering it from binary labels
=====================================================

Draw a ground-truth parameter set, sample one Bernoulli label per edge,
fit a fresh model to the labels by stochastic penalized ascent, and
measure how close the fit is to the planted truth.
"""

import numpy as np

from mrnet import (GenSpec, NetworkShape, ScoreModel, TrainConfig,
                   evaluate_losses, generate_truth, sample_network,
                   sample_observations, train)

model = ScoreModel("combined", 3)
shape = NetworkShape(n_entities=25, n_relations=3, obs_rate=1.0)

# the generator draws truncated-normal parameter rows; its radius is the
# tightest ball guaranteed to contain every row
gen = GenSpec(model, shape, entity_sd=0.8, shift_sd=0.8, weight_sd=0.4, seed=42)
truth = generate_truth(gen)

# one coin flip per edge slot, observed with probability obs_rate
sampler = sample_network(model, truth, shape, seed=7)
observations = sample_observations(shape, sampler, seed=8)
print(f"observed {len(observations.labels)} of {shape.n_edges} edges, "
      f"{observations.positive_rate():.1%} positive")

config = TrainConfig(epochs=120, learning_rate=0.5, batch_size=128,
                     radius=gen.radius, seed=1)
# trace=True also records the penalized objective after every epoch (one
# more pass over the observations per epoch); without it, train computes
# the objective once, at the fitted parameters
result = train(model, shape, observations, config, trace=True)

trace = result.objective_trace
print(f"penalized objective: {trace[0]:.1f} (init) -> {trace[-1]:.1f} (final)")
print(f"improved on {np.sum(np.diff(trace) > 0)} of {len(trace) - 1} epochs")

# three losses against the planted truth, averaged over the full edge set:
# mean Bernoulli KL divergence, mean squared score gap, and the share of
# edges whose most-likely label flips between truth and fit
report = evaluate_losses(model, result.params, truth, shape=shape)
print(f"avg KL {report.avg_kl:.4f}   mse(score) {report.mse_phi:.4f}   "
      f"link error {report.link_err:.4f}")

# the same fit under a hard sparsity cap: after every epoch only the
# largest-magnitude parameters survive
cap = model.param_count(shape) // 3
sparse_cfg = TrainConfig(epochs=120, learning_rate=0.5, batch_size=128,
                         sparsity_cap=cap, radius=gen.radius, seed=1)
sparse = train(model, shape, observations, sparse_cfg)
sparse_report = evaluate_losses(model, sparse.params, truth, shape=shape)
print(f"nonzeros: plain {result.nnz_trace[-1]}, capped {sparse.nnz_trace[-1]} "
      f"(of {model.param_count(shape)} parameters); "
      f"avg KL rises to {sparse_report.avg_kl:.4f}")
