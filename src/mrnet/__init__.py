"""Latent-variable models for multi-relational networks.

Scoring and probability models over (head, tail, relation) edges,
penalized maximum-likelihood fitting, synthetic network simulation,
loss and filtered-ranking evaluation, and executable finite-sample
bound formulas.
"""

from ._rng import counter_uniforms, derive_seed
from .bounds import (
    BoundInputs,
    LowerBoundInputs,
    MinimaxLower,
    bennett_h,
    check_kl_quadratic_upper,
    check_variance_inequality,
    minimax_lower,
    risk_bound,
    tail_bound,
)
from .estimation import (
    ObservationSet,
    TrainConfig,
    TrainResult,
    log_likelihood,
    objective_gradient,
    penalized_objective,
    project_ball,
    project_l0,
    train,
)
from .evaluation import (
    EvalReport,
    RankReport,
    bernoulli_kl,
    evaluate_losses,
    rank_edge,
    rank_report,
)
from .io import (
    CheckpointError,
    ConfigError,
    TripleDataset,
    TripleParseError,
    load_checkpoint,
    load_triple_split,
    load_triples,
    sample_negatives,
    save_checkpoint,
)
from .models import (
    MODEL_KINDS,
    ModelParams,
    NetworkShape,
    ScoreModel,
    ShapeError,
    Triple,
    edge_probabilities,
    edge_probability,
    lipschitz_bound,
    score,
    score_gradient,
    score_gradients,
    score_sup_bound,
    scores,
    sigmoid,
)
from .simulation import (
    ExperimentGrid,
    GenSpec,
    GridRow,
    generate_truth,
    run_grid,
    sample_network,
    sample_observations,
    write_grid_csv,
)

__version__ = "0.1.0"
