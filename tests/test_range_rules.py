"""The one range rule for numeric constants.

Every scalar setting a public entry takes is checked by
``models._require_real`` (finite and inside its range) or
``models._require_int`` (an integer at or above its floor), and every
seed part by ``_rng.derive_seed``.  A bad value raises ``ValueError``
whose message starts with the field's name, never a silent NaN, a
truncated count or a bound that ignores it.
"""

import dataclasses
import math

import numpy as np
import pytest

from mrnet._rng import derive_seed
from mrnet.bounds import (BoundInputs, LowerBoundInputs, bennett_h,
                          check_kl_quadratic_upper, check_variance_inequality,
                          tail_bound)
from mrnet.estimation import (ObservationSet, TrainConfig, objective_gradient,
                              penalized_objective, project_ball, project_l0,
                              train)
from mrnet.evaluation import rank_report
from mrnet.io import TripleDataset, sample_negatives
from mrnet.models import (ModelParams, NetworkShape, ScoreModel,
                          lipschitz_bound, score_sup_bound)
from mrnet.simulation import (ExperimentGrid, GenSpec, generate_truth,
                              run_grid, sample_network, sample_observations)

NAN, INF = math.nan, math.inf
MODEL = ScoreModel("combined", 2)
SHAPE = NetworkShape(3, 2)
# entity rows of norm 7.07: validate's radius must be at least that
PARAMS = ModelParams(np.full((3, 2), 5.0), np.full((2, 4), 0.5), 10.0)
OBS = ObservationSet(SHAPE, [0, 1, 2], [1, 2, 0], [0, 1, 1], [1, 0, 1])
BOUND = dict(n=1e4, m=50, sup_score=10.0, lipschitz=5.0, radius=1.0)
LOWER = dict(m=160, n=1e4, kappa=0.1, b=0.5, lipschitz=1.0,
             neighborhood_radius=1.0)
GEN = GenSpec(MODEL, NetworkShape(6, 2))
TRIPLES = np.array([[0, 1, 0], [2, 0, 1]])
TRUTH = generate_truth(GEN)


def _grid(**kw):
    return ExperimentGrid(GEN, TrainConfig(epochs=1), [6], [1.0], **kw)


# (entry, field, call of the entry with the field set to a value)
ENTRIES = [
    ("NetworkShape", "obs_rate", lambda v: NetworkShape(3, 2, v)),
    ("ModelParams.validate", "radius",
     lambda v: ModelParams(PARAMS.entities, PARAMS.relations, v).validate()),
    ("score_sup_bound", "radius", lambda v: score_sup_bound(MODEL, v)),
    ("lipschitz_bound", "radius", lambda v: lipschitz_bound(MODEL, v)),
    *[("TrainConfig", name, lambda v, name=name: TrainConfig(
        **{"epochs": 1, name: v})) for name in (
            "learning_rate", "adagrad_eps", "radius", "init_scale", "rho1",
            "rho2", "epochs", "batch_size", "sparsity_cap")],
    *[("penalized_objective", name, lambda v, name=name: penalized_objective(
        MODEL, PARAMS, OBS, **{name: v})) for name in ("rho1", "rho2")],
    *[("objective_gradient", name, lambda v, name=name: objective_gradient(
        MODEL, PARAMS, OBS, **{name: v}))
      for name in ("rho1", "rho2", "batch_scale")],
    ("project_ball", "radius", lambda v: project_ball(PARAMS, v)),
    ("project_l0", "cap", lambda v: project_l0(PARAMS, v)),
    *[("GenSpec", name,
       lambda v, name=name: GenSpec(MODEL, SHAPE, **{name: v}))
      for name in ("entity_sd", "shift_sd", "weight_sd", "truncation")],
    ("generate_truth", "seed",
     lambda v: generate_truth(dataclasses.replace(GEN, seed=v))),
    ("sample_network", "seed",
     lambda v: sample_network(MODEL, TRUTH, GEN.shape, v)),
    ("sample_observations", "seed", lambda v: sample_observations(
        GEN.shape, sample_network(MODEL, TRUTH, GEN.shape, 2), v)),
    ("ExperimentGrid", "obs_rates[0]",
     lambda v: ExperimentGrid(GEN, TrainConfig(epochs=1), [6], [v])),
    ("ExperimentGrid", "replicates", lambda v: _grid(replicates=v)),
    ("run_grid", "n_workers", lambda v: run_grid(_grid(), n_workers=v)),
    *[("BoundInputs", name, lambda v, name=name: BoundInputs(
        **{**BOUND, name: v})) for name in BOUND],
    *[("LowerBoundInputs", name, lambda v, name=name: LowerBoundInputs(
        **{**LOWER, name: v})) for name in LOWER],
    ("bennett_h", "u", bennett_h),
    ("check_variance_inequality", "sup_score",
     lambda v: check_variance_inequality(0.0, 1.0, v)),
    ("tail_bound", "t", lambda v: tail_bound(BoundInputs(**BOUND), v)),
    ("tail_bound", "s", lambda v: tail_bound(BoundInputs(**BOUND), 0.5, s=v)),
    ("tail_bound", "beta",
     lambda v: tail_bound(BoundInputs(**BOUND), 0.5, beta=v)),
    ("check_kl_quadratic_upper", "p",
     lambda v: check_kl_quadratic_upper(v, 0.5)),
    ("check_kl_quadratic_upper", "q",
     lambda v: check_kl_quadratic_upper(0.5, v)),
    ("sample_negatives", "ratio", lambda v: sample_negatives(
        TripleDataset({}, {}, np.array([[0, 1, 0]])), v, SHAPE, 0)),
    ("rank_report", "entity_hits[1]", lambda v: rank_report(
        MODEL, PARAMS, TRIPLES, TRIPLES, SHAPE, entity_hits=(10, v))),
    ("rank_report", "relation_hits[0]", lambda v: rank_report(
        MODEL, PARAMS, TRIPLES, TRIPLES, SHAPE, relation_hits=(v,))),
]

# bad values beyond NaN and +-inf, which every real field refuses: the
# edge just outside each range, and a non-integer for each count
OUTSIDE = {
    "obs_rate": [-0.1, 1.5],
    "obs_rates[0]": [-0.1, 1.5],
    "radius": [0.0, -1.0],
    "learning_rate": [0.0], "adagrad_eps": [0.0], "init_scale": [0.0],
    "rho1": [-0.1], "rho2": [-0.1], "batch_scale": [0.0],
    "entity_sd": [0.0], "shift_sd": [0.0], "weight_sd": [-1.0],
    "truncation": [0.0],
    "n": [0.0], "sup_score": [1.5], "lipschitz": [0.0], "kappa": [0.0],
    "b": [0.0, 1.0], "neighborhood_radius": [0.0],
    "t": [0.0], "s": [0.0, 5000.0], "beta": [0.0],
    "p": [0.0, 1.0], "q": [0.0, 1.0], "ratio": [-1.0],
    "epochs": [0, 2.5], "batch_size": [0, 1.5], "sparsity_cap": [-1, 2.5],
    "cap": [-1, 2.5], "replicates": [0, 1.5], "n_workers": [0, 1.5],
    "m": [0, 2.5, 20.5], "u": [-0.1],
    "entity_hits[1]": [0, 2.5], "relation_hits[0]": [0, 2.5],
    # a seed has no floor (-1 runs), only the integer rule
    "seed": [1.5, 2.7, 3.2],
}
COUNTS = {"epochs", "batch_size", "sparsity_cap", "cap", "replicates",
          "n_workers", "m", "entity_hits[1]", "relation_hits[0]"}
# where an entry's range differs from its field's elsewhere:
# check_variance_inequality takes any sup_score >= 0 (below 2 it uses 2)
OUTSIDE_AT = {("check_variance_inequality", "sup_score"): [-0.5]}
# lipschitz_bound's radius may be 0, and LowerBoundInputs' lipschitz
# must also be at least its kappa
SPECIAL = {("lipschitz_bound", "radius"): 0.0,
           ("ModelParams.validate", "radius"): 7.08,  # PARAMS' row norm
           ("LowerBoundInputs", "lipschitz"): LOWER["kappa"],
           ("check_variance_inequality", "sup_score"): 0.0}
# a value at each inclusive end, or just inside each open one
EDGE = {"obs_rate": 1.0, "obs_rates[0]": 0.0, "rho1": 0.0, "rho2": 0.0,
        "sup_score": 2.0, "ratio": 0.0, "sparsity_cap": 0, "cap": 0,
        "m": 1, "epochs": 1, "batch_size": 1, "replicates": 1,
        "n_workers": 1, "b": 1 - 1e-9, "s": 4999.0, "q": 1 - 1e-9,
        "seed": -1, "u": 0.0, "entity_hits[1]": 1, "relation_hits[0]": 1}


def _cases():
    for entry, field, call in ENTRIES:
        bad = list(OUTSIDE_AT.get((entry, field), OUTSIDE[field]))
        if field != "seed":
            bad += [NAN] if field in COUNTS else [NAN, INF, -INF]
        if (entry, field) == ("lipschitz_bound", "radius"):
            bad.remove(0.0)  # inside its range
        for value in bad:
            yield pytest.param(call, field, value,
                               id=f"{entry}-{field}={value!r}")


@pytest.mark.parametrize("call, field, value", list(_cases()))
def test_bad_value_raises_naming_its_field(call, field, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{field} must be "), err.value


@pytest.mark.parametrize("entry, field, call", [
    pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in ENTRIES])
def test_each_range_edge_is_accepted(entry, field, call):
    # a rule one step too tight shows here
    call(SPECIAL.get((entry, field), EDGE.get(field, 1e-9)))


def test_messages_state_the_range():
    cases = [
        (lambda: score_sup_bound(MODEL, NAN), "radius must be finite and > 0, "
                                              "got nan"),
        (lambda: lipschitz_bound(MODEL, -1.0), "radius must be finite and "
                                               ">= 0, got -1.0"),
        (lambda: NetworkShape(3, 2, 1.5), "obs_rate must be finite and in "
                                          "[0, 1], got 1.5"),
        (lambda: LowerBoundInputs(**{**LOWER, "b": 1.0}),
         "b must be finite and in (0, 1), got 1.0"),
        (lambda: LowerBoundInputs(**{**LOWER, "lipschitz": NAN}),
         "lipschitz must be finite and > 0, got nan"),
        (lambda: BoundInputs(**{**BOUND, "m": 2.5}),
         "m must be an integer >= 1, got 2.5"),
        (lambda: derive_seed(1, 1.5), "seed must be an integer, got 1.5"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_seeds_have_no_floor_and_take_numpy_integers():
    assert derive_seed(-1) == derive_seed(2 ** 64 - 1)
    assert derive_seed(np.int64(3), np.uint8(4)) == derive_seed(3, 4)
    assert len(sample_observations(GEN.shape, sample_network(
        MODEL, TRUTH, GEN.shape, -1), -2)) > 0


def test_train_config_takes_the_seed_rule():
    # a non-integral seed used to pass and fail in train with a TypeError
    for bad in (1.5, NAN, "3"):
        with pytest.raises(ValueError) as err:
            TrainConfig(epochs=1, seed=bad)
        assert str(err.value) == f"seed must be an integer, got {bad!r}"
    for good in (-1, 0, np.int64(3), 2 ** 70):
        assert TrainConfig(epochs=1, seed=good).seed == good


@pytest.mark.parametrize("seed", [-1, np.int64(-1)])
def test_train_wraps_a_negative_seed(seed):
    # numpy refuses a negative seed; train wraps it modulo 2**64
    config = TrainConfig(epochs=2, batch_size=2)
    got = train(MODEL, SHAPE, OBS, dataclasses.replace(config, seed=seed))
    want = train(MODEL, SHAPE, OBS,
                 dataclasses.replace(config, seed=2 ** 64 - 1))
    assert got.params.entities.tobytes() == want.params.entities.tobytes()
    assert got.params.relations.tobytes() == want.params.relations.tobytes()
    assert got.objective.hex() == want.objective.hex()
    assert got.nnz_trace.tobytes() == want.nnz_trace.tobytes()
