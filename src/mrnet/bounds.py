"""Finite-sample guarantees as executable formulas.

Everything here is a pure function of a handful of problem constants:
the expected observation count n, the parameter dimension m, the score
sup bound C, the score-gradient Lipschitz bound alpha, and the row
radius U.  The evaluators report the bounds exactly as stated — a tail
bound above 1 is returned as-is (vacuous), never clamped — with the
covering-number power handled in log space so large m cannot overflow.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .evaluation import bernoulli_kl
from .models import (
    NetworkShape,
    ScoreModel,
    _require_int,
    _require_real,
    lipschitz_bound,
    score_sup_bound,
    sigmoid,
)

__all__ = [
    "BoundInputs",
    "LowerBoundInputs",
    "MinimaxLower",
    "bennett_h",
    "tail_bound",
    "risk_bound",
    "minimax_lower",
    "check_variance_inequality",
    "check_kl_quadratic_upper",
]

_SLACK = 1e-12  # numerical slack for the inequality checkers
_EXP_CAP = 700.0  # exp() overflows just above this; beyond it report inf


@dataclasses.dataclass(frozen=True)
class BoundInputs:
    """Constants the upper bounds depend on.

    ``n`` is the expected number of observed edges (rate * N^2 * K),
    ``m`` the total parameter count, ``sup_score`` a uniform bound
    C >= 2 on |score|, ``lipschitz`` a bound on the score gradient
    norm, ``radius`` the row-norm budget U.
    """

    n: float
    m: int
    sup_score: float
    lipschitz: float
    radius: float

    def __post_init__(self):
        _require_real("n", self.n, 0, strict=True)
        _require_int("m", self.m, 1)
        _require_real("sup_score", self.sup_score, 2)
        _require_real("lipschitz", self.lipschitz, 0, strict=True)
        _require_real("radius", self.radius, 0, strict=True)

    @classmethod
    def from_model(cls, model: ScoreModel, shape: NetworkShape,
                   radius: float) -> "BoundInputs":
        """Fill C and alpha from their closed forms for a given model."""
        return cls(
            n=shape.expected_observations,
            m=model.param_count(shape),
            sup_score=score_sup_bound(model, radius),
            lipschitz=lipschitz_bound(model, radius),
            radius=radius,
        )


@dataclasses.dataclass(frozen=True)
class LowerBoundInputs:
    """Constants for the minimax lower bound.

    ``kappa`` is the local bi-Lipschitz lower constant of the
    probability map, ``b`` the probability sup over the neighborhood,
    ``neighborhood_radius`` the radius r on which those constants hold.
    These are model-specific inputs the caller must supply.
    """

    m: int
    n: float
    kappa: float
    b: float
    lipschitz: float
    neighborhood_radius: float

    def __post_init__(self):
        _require_int("m", self.m, 1)
        _require_real("n", self.n, 0, strict=True)
        _require_real("kappa", self.kappa, 0, strict=True)
        _require_real("b", self.b, 0, 1, strict=True)
        _require_real("lipschitz", self.lipschitz, 0, strict=True)
        _require_real("neighborhood_radius", self.neighborhood_radius, 0,
                      strict=True)
        if self.kappa > self.lipschitz:
            raise ValueError("kappa cannot exceed the Lipschitz upper constant")


def bennett_h(u):
    """h(u) = (1 + 1/u) log(1 + u) - 1, extended continuously to h(0)=0.

    Strictly increasing and convex on [0, inf).  For u below 1e-4 the
    direct form loses precision to cancellation, so a Taylor series
    u/2 - u^2/6 + u^3/12 - u^4/20 is used instead.
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and arr.min() < 0:
        raise ValueError("bennett_h requires u >= 0")
    out = np.empty_like(arr)
    small = arr < 1e-4
    v = arr[small]
    out[small] = v * (0.5 + v * (-1.0 / 6.0 + v * (1.0 / 12.0 - v / 20.0)))
    w = arr[~small]
    out[~small] = (1.0 + 1.0 / w) * np.log1p(w) - 1.0
    return float(out[0]) if scalar else out


def tail_bound(inputs: BoundInputs, t: float, s: Optional[float] = None,
               beta: Optional[float] = None) -> float:
    """Upper bound on P(average KL loss >= t) for the constrained MLE.

    Free parameters default to s = n*t/2 and beta = 1 + t.  The value
    is exp(-((n*t - s)/C) * h(1/2 - s/(2*n*t))) times the covering
    factor (1 + 2*sqrt(3)*alpha*U*n*(1+beta)/s)^m, plus
    exp(-n*beta*h(beta)).  The covering power is evaluated in log
    space; if its exponent tops 700 the term is reported as inf.  The
    result can exceed 1, in which case the bound is vacuous; it is
    returned unclamped.
    """
    _require_real("t", t, 0, strict=True)
    n, m = inputs.n, inputs.m
    if s is None:
        s = n * t / 2.0
    if beta is None:
        beta = 1.0 + t
    _require_real("s", s, 0, n * t, strict=True)
    _require_real("beta", beta, 0, strict=True)
    cover = m * math.log1p(
        2.0 * math.sqrt(3.0) * inputs.lipschitz * inputs.radius
        * n * (1.0 + beta) / s)
    decay = ((n * t - s) / inputs.sup_score) * bennett_h(0.5 - s / (2.0 * n * t))
    log_first = cover - decay
    first = math.exp(log_first) if log_first < _EXP_CAP else math.inf
    return first + math.exp(-n * beta * bennett_h(beta))


def risk_bound(inputs: BoundInputs) -> float:
    """Upper bound on the expected average KL loss of the fitted model.

    With C1 = 18C, C2 = 8*sqrt(3)*alpha*U, C3 = 2*max(C1, C2), and
    valid only when n/m >= C2 + e, the bound is

        C3*(m/n)*log(n/m) + (C1/n)*exp(-m*log(n/m))
            + (3/n)*exp(-(n + C3*m*log(n/m))/3).

    The trailing exponentials underflow to 0 harmlessly at large n.
    """
    c1 = 18.0 * inputs.sup_score
    c2 = 8.0 * math.sqrt(3.0) * inputs.lipschitz * inputs.radius
    c3 = 2.0 * max(c1, c2)
    ratio = inputs.n / inputs.m
    if ratio < c2 + math.e:
        raise ValueError(
            "sample-to-dimension ratio n/m must be at least C2 + e = "
            f"{c2 + math.e:g}; got {ratio:g}")
    log_ratio = math.log(ratio)
    lead = c3 * (inputs.m / inputs.n) * log_ratio
    mid = (c1 / inputs.n) * math.exp(-inputs.m * log_ratio)
    tail = (3.0 / inputs.n) * math.exp(-(inputs.n + c3 * inputs.m * log_ratio) / 3.0)
    return lead + mid + tail


@dataclasses.dataclass(frozen=True)
class MinimaxLower:
    """Lower-bound statement: no estimator beats ``risk_lower`` in
    expectation, and every estimator misses by ``tail_threshold`` with
    probability at least 1/2 — provided the neighborhood radius
    condition holds (``r_condition_ok``).  ``vacuous`` is set when
    m <= 16, where the construction gives nothing."""

    risk_lower: float
    tail_threshold: float
    r_condition_ok: bool
    vacuous: bool


def minimax_lower(inputs: LowerBoundInputs) -> MinimaxLower:
    """Minimax risk lower bound over a local parameter neighborhood.

    risk_lower = Ctilde*(m/16 - 1)/(2n) with
    Ctilde = kappa^2*b*(1-b)/(108*alpha^2); the tail threshold is twice
    that.  Requires r^2 >= (m/16 - 1)*b*(1-b)/(12*alpha^2*n) for the
    packing to fit inside the radius-r neighborhood, reported as a
    flag.  For m <= 16 the bound is vacuous and zeros are returned.
    """
    m, n, b, alpha = inputs.m, inputs.n, inputs.b, inputs.lipschitz
    excess = m / 16.0 - 1.0
    r_needed = excess * b * (1.0 - b) / (12.0 * alpha * alpha * n)
    r_ok = inputs.neighborhood_radius**2 >= r_needed
    if m <= 16:
        return MinimaxLower(0.0, 0.0, r_ok, True)
    ctilde = inputs.kappa**2 * b * (1.0 - b) / (108.0 * alpha * alpha)
    return MinimaxLower(ctilde * excess / (2.0 * n), ctilde * excess / n,
                        r_ok, False)


def check_variance_inequality(x: float, y: float, sup_score: float) -> bool:
    """Does sigma(x)(1-sigma(x))(y-x)^2 <= 2*max(C,2)*D(sigma(x)||sigma(y))?

    Holds for all |x|, |y| <= C; callers probing outside that box may
    legitimately see False.
    """
    px, py = sigmoid(float(x)), sigmoid(float(y))
    lhs = px * (1.0 - px) * (y - x) ** 2
    rhs = 2.0 * max(sup_score, 2.0) * bernoulli_kl(px, py)
    return bool(lhs <= rhs + _SLACK)


def check_kl_quadratic_upper(p: float, q: float) -> bool:
    """Does D(p||q) <= (p-q)^2 / (q(1-q)) for interior p, q?"""
    _require_real("p", p, 0, 1, strict=True)
    _require_real("q", q, 0, 1, strict=True)
    lhs = bernoulli_kl(p, q)
    rhs = (p - q) ** 2 / (q * (1.0 - q))
    return bool(lhs <= rhs + _SLACK)
