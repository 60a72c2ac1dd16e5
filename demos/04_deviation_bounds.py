"""
Deviation bounds for the average KL loss
========================================

Evaluate the closed-form tail bound, the expected-risk bound, and the
minimax lower bound, then sanity-check the tail bound against observed
frequencies from repeated fits on a tiny fully-observed network.
"""

import numpy as np

from mrnet import (BoundInputs, ExperimentGrid, GenSpec, LowerBoundInputs,
                   NetworkShape, ScoreModel, TrainConfig, minimax_lower,
                   risk_bound, run_grid, tail_bound)


def main():
    # --- closed forms at large-sample inputs -------------------------------
    inputs = BoundInputs(n=1_000_000, m=10, sup_score=10.0, lipschitz=5.0,
                         radius=1.0)
    print("tail bound at a few thresholds (n = 1e6, m = 10):")
    for t in (0.05, 0.1, 0.5, 1.0):
        print(f"  t = {t:4.2f}   bound {tail_bound(inputs, t):.3e}")

    print(f"expected-risk bound: {risk_bound(inputs):.6f}")

    lower = LowerBoundInputs(m=160, n=1_000_000, kappa=0.1, b=0.5,
                             lipschitz=1.0, neighborhood_radius=0.01)
    floor = minimax_lower(lower)
    print(f"minimax lower bound: {floor.risk_lower:.3e} "
          f"(vacuous: {floor.vacuous})\n")

    # --- empirical tail frequencies on a tiny network ----------------------
    model = ScoreModel("combined", 2)
    shape = NetworkShape(6, 2, 1.0)
    gen = GenSpec(model, shape, entity_sd=0.5, shift_sd=0.5, weight_sd=0.2,
                  truncation=1.0, seed=11)
    config = TrainConfig(epochs=200, learning_rate=0.5, batch_size=64,
                         rho2=1.0)
    grid = ExperimentGrid(gen, config, entity_counts=(6,), obs_rates=(1.0,),
                          replicates=100, eval_cap=100_000)
    losses = np.array([row.avg_kl for row in run_grid(grid, n_workers=4)])
    print(f"fitted 100 replicates; avg KL spread "
          f"[{losses.min():.3f}, {losses.max():.3f}]")

    small = BoundInputs.from_model(model, shape, radius=gen.radius)
    print(f"{'t':>5s} {'freq':>8s} {'bound':>12s}")
    for t in (0.5, 1.0):
        freq = float(np.mean(losses >= t))
        print(f"{t:5.2f} {freq:8.3f} {tail_bound(small, t):12.4g}")
    # at this scale the bound is astronomically loose - the guarantee is
    # one-sided, so the observed frequency must simply never exceed it


if __name__ == "__main__":  # spawned run_grid workers re-import this file
    main()
