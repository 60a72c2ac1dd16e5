import math

import numpy as np
import pytest

from mrnet.bounds import (
    BoundInputs,
    LowerBoundInputs,
    bennett_h,
    check_kl_quadratic_upper,
    check_variance_inequality,
    minimax_lower,
    risk_bound,
    tail_bound,
)
from mrnet.evaluation import bernoulli_kl
from mrnet.models import NetworkShape, ScoreModel, sigmoid


def test_bennett_h_closed_forms():
    assert bennett_h(0.0) == 0.0
    assert bennett_h(1.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-15)
    assert bennett_h(0.5) == pytest.approx(3 * math.log(1.5) - 1, rel=1e-15)
    assert bennett_h(0.5) >= 0.2


def test_bennett_h_series_matches_direct_form():
    # the small-u series and the closed form agree where they hand off
    for u in (9.9e-5, 1.01e-4, 5e-5, 1e-6):
        series = u * (0.5 + u * (-1 / 6 + u * (1 / 12 - u / 20)))
        direct = (1 + 1 / u) * math.log1p(u) - 1
        assert bennett_h(u) == pytest.approx(series, rel=1e-12)
        assert bennett_h(u) == pytest.approx(direct, rel=1e-9)


def test_bennett_h_tiny_u_no_cancellation():
    # at u ~ 1e-12 the direct form would lose most digits; the series
    # keeps h(u) ~ u/2 to full precision
    assert bennett_h(1e-12) == pytest.approx(5e-13, rel=1e-10)
    assert bennett_h(1e-12) > 0


def test_bennett_h_monotone_and_concave():
    # h is the divided difference ((1+u)log(1+u) - u) / u, which is
    # increasing but concave (unlike the undivided form, which is convex)
    u = np.linspace(0, 100, 2001)
    h = bennett_h(u)
    assert np.all(np.diff(h) > 0)
    assert np.all(np.diff(h, 2) < 1e-12)
    assert h.shape == u.shape


def test_bennett_h_rejects_negative():
    with pytest.raises(ValueError):
        bennett_h(-0.1)
    with pytest.raises(ValueError):
        bennett_h(np.array([0.5, -1.0]))


def oracle_inputs():
    return BoundInputs(n=1e4, m=50, sup_score=10.0, lipschitz=5.0, radius=1.0)


def test_tail_bound_frozen_oracle():
    # frozen from a 40-digit mpmath evaluation of the same expression
    got = tail_bound(oracle_inputs(), t=1.0, s=100.0, beta=1.0)
    assert got == pytest.approx(5.75664935692019e84, rel=1e-10)
    assert got > 1.0  # vacuous here, and returned unclamped


def test_tail_bound_defaults_match_explicit():
    inp = oracle_inputs()
    t = 0.3
    assert tail_bound(inp, t) == tail_bound(inp, t, s=inp.n * t / 2,
                                            beta=1 + t)


def test_tail_bound_large_t_leaves_only_second_term():
    inp = BoundInputs(n=10, m=2, sup_score=10.0, lipschitz=5.0, radius=1.0)
    got = tail_bound(inp, t=1e6, s=100.0, beta=1.0)
    assert got == math.exp(-10 * bennett_h(1.0))


def test_tail_bound_monotone_in_t_with_default_tuning():
    inp = BoundInputs(n=5e4, m=20, sup_score=10.0, lipschitz=5.0, radius=1.0)
    ts = np.logspace(-2, 2, 40)
    vals = [tail_bound(inp, float(t)) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_tail_bound_overflow_reported_as_inf():
    # a huge parameter count pushes the covering exponent past any float
    inp = BoundInputs(n=1e4, m=10**6, sup_score=10.0, lipschitz=5.0,
                      radius=1.0)
    assert tail_bound(inp, t=1.0, s=100.0, beta=1.0) == math.inf


def test_tail_bound_domain_errors():
    inp = oracle_inputs()
    with pytest.raises(ValueError):
        tail_bound(inp, t=-1.0)
    with pytest.raises(ValueError):
        tail_bound(inp, t=1.0, s=0.0)
    with pytest.raises(ValueError):
        tail_bound(inp, t=1.0, s=inp.n)  # s = n*t not allowed
    with pytest.raises(ValueError):
        tail_bound(inp, t=1.0, beta=0.0)


def test_risk_bound_frozen_oracle():
    inp = BoundInputs(n=1e6, m=10, sup_score=10.0, lipschitz=5.0, radius=1.0)
    assert risk_bound(inp) == pytest.approx(0.041446531673892822, rel=1e-10)


def test_risk_bound_leading_term_dominates():
    inp = BoundInputs(n=5e6, m=5, sup_score=10.0, lipschitz=5.0, radius=1.0)
    c1 = 18 * inp.sup_score
    c2 = 8 * math.sqrt(3) * inp.lipschitz * inp.radius
    c3 = 2 * max(c1, c2)
    lead = c3 * (inp.m / inp.n) * math.log(inp.n / inp.m)
    assert risk_bound(inp) == pytest.approx(lead, rel=1e-6)


def test_risk_bound_one_percent_of_leading_term():
    for ratio in (1e3, 1e4, 1e5):
        for c, alpha in ((10.0, 5.0), (2.0, 1.0), (72.0, 55.0)):
            inp = BoundInputs(n=ratio * 20, m=20, sup_score=c,
                              lipschitz=alpha, radius=1.0)
            c3 = 2 * max(18 * c, 8 * math.sqrt(3) * alpha)
            lead = c3 * (inp.m / inp.n) * math.log(inp.n / inp.m)
            assert abs(risk_bound(inp) - lead) <= 0.01 * lead


def test_risk_bound_precondition():
    # C2 + e ~ 72 here, so n/m = 50 must be rejected
    inp = BoundInputs(n=1000, m=20, sup_score=10.0, lipschitz=5.0, radius=1.0)
    with pytest.raises(ValueError, match="n/m"):
        risk_bound(inp)


def test_minimax_lower_frozen_oracle():
    inp = LowerBoundInputs(m=160, n=1e4, kappa=0.1, b=0.5, lipschitz=1.0,
                           neighborhood_radius=1.0)
    out = minimax_lower(inp)
    assert out.risk_lower == pytest.approx(1.0416666666666667e-08, rel=1e-12)
    assert out.tail_threshold == pytest.approx(2.0833333333333333e-08,
                                               rel=1e-12)
    assert out.r_condition_ok  # needs r^2 >= 1.875e-5; r = 1 qualifies
    assert not out.vacuous
    tight = LowerBoundInputs(m=160, n=1e4, kappa=0.1, b=0.5, lipschitz=1.0,
                             neighborhood_radius=0.004)
    assert not minimax_lower(tight).r_condition_ok  # r^2 = 1.6e-5 too small


def test_minimax_lower_m16_is_vacuous():
    inp = LowerBoundInputs(m=16, n=100, kappa=0.5, b=0.5, lipschitz=1.0,
                           neighborhood_radius=1.0)
    out = minimax_lower(inp)
    assert out.risk_lower == 0.0
    assert out.tail_threshold == 0.0
    assert out.vacuous
    assert out.r_condition_ok  # the radius requirement degenerates to <= 0


def test_minimax_lower_scales_with_kappa_squared():
    base = LowerBoundInputs(m=160, n=1e4, kappa=0.1, b=0.5, lipschitz=1.0,
                            neighborhood_radius=1.0)
    doubled = LowerBoundInputs(m=160, n=1e4, kappa=0.2, b=0.5, lipschitz=1.0,
                               neighborhood_radius=1.0)
    assert minimax_lower(doubled).risk_lower == pytest.approx(
        4 * minimax_lower(base).risk_lower, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        BoundInputs(n=0, m=1, sup_score=2, lipschitz=1, radius=1)
    with pytest.raises(ValueError):
        BoundInputs(n=1, m=0, sup_score=2, lipschitz=1, radius=1)
    with pytest.raises(ValueError):
        BoundInputs(n=1, m=1, sup_score=1.5, lipschitz=1, radius=1)
    with pytest.raises(TypeError):  # no margin field: no bound reads one
        BoundInputs(n=1, m=1, sup_score=2, lipschitz=1, radius=1, margin=0.25)
    with pytest.raises(ValueError):
        LowerBoundInputs(m=20, n=10, kappa=0.5, b=1.0, lipschitz=1.0,
                         neighborhood_radius=1.0)
    with pytest.raises(ValueError):
        LowerBoundInputs(m=20, n=10, kappa=2.0, b=0.5, lipschitz=1.0,
                         neighborhood_radius=1.0)


BOUND_KW = dict(n=1e4, m=50, sup_score=10.0, lipschitz=5.0, radius=1.0)
LOWER_KW = dict(m=160, n=1e4, kappa=0.1, b=0.5, lipschitz=1.0,
                neighborhood_radius=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["n", "sup_score", "lipschitz", "radius"])
def test_bound_inputs_reject_non_finite(field, bad):
    # before, lipschitz = nan gave the same risk bound as lipschitz = 1
    # (max(c1, nan) is c1) and an inf tail bound
    BoundInputs(**BOUND_KW)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BoundInputs(**{**BOUND_KW, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["n", "kappa", "b", "lipschitz",
                                   "neighborhood_radius"])
def test_lower_bound_inputs_reject_non_finite(field, bad):
    LowerBoundInputs(**LOWER_KW)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LowerBoundInputs(**{**LOWER_KW, field: bad})


def test_bound_inputs_from_model():
    model = ScoreModel("combined", 2)
    shape = NetworkShape(6, 2, 1.0)
    inp = BoundInputs.from_model(model, shape, radius=2.0)
    assert inp.n == 72
    assert inp.m == 6 * 2 + 2 * 4
    assert inp.sup_score == 72.0  # 9 * 2^3
    assert inp.lipschitz == pytest.approx(math.sqrt(189) * 4)
    # the rate enters only through n
    assert BoundInputs.from_model(model, NetworkShape(6, 2, 0.5),
                                  radius=2.0).n == 36


def test_check_variance_inequality():
    assert check_variance_inequality(0.7, 0.7, 2.0)  # x == y
    # by-hand case: sigma(0)(1-sigma(0)) * 4 = 1 on the left;
    # the right side is 4 * D(1/2 || sigma(2)) = 1.7351... > 1
    assert check_variance_inequality(0.0, 2.0, 2.0)
    rhs = 2 * max(2.0, 2.0) * bernoulli_kl(0.5, sigmoid(2.0))
    assert rhs == pytest.approx(1.7351233219321087, rel=1e-12)
    for c in (2.0, 5.0):
        grid = np.arange(-c, c + 0.25, 0.5)
        assert all(check_variance_inequality(float(x), float(y), c)
                   for x in grid for y in grid)


def test_check_kl_quadratic_upper():
    assert check_kl_quadratic_upper(0.3, 0.3)
    assert check_kl_quadratic_upper(0.1, 0.9)
    assert bernoulli_kl(0.1, 0.9) == pytest.approx(1.7577796618689758,
                                                   rel=1e-12)
    ps = np.linspace(0.02, 0.98, 49)
    assert all(check_kl_quadratic_upper(float(p), float(q))
               for p in ps for q in ps)
    for bad in ((0.0, 0.5), (0.5, 1.0), (1.0, 0.5)):
        with pytest.raises(ValueError):
            check_kl_quadratic_upper(*bad)


def test_pinsker_direction_on_grid():
    ps = np.linspace(0.02, 0.98, 49)
    for p in ps:
        for q in ps:
            assert bernoulli_kl(float(p), float(q)) >= \
                2 * (p - q) ** 2 - 1e-12


def test_frozen_oracles_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def h(u):
        return (1 + 1 / mp.mpf(u)) * mp.log(1 + mp.mpf(u)) - 1

    n, m, c, alpha, u_rad = map(mp.mpf, (10**4, 50, 10, 5, 1))
    t, s, beta = map(mp.mpf, (1, 100, 1))
    first = mp.e**(-((n * t - s) / c) * h(mp.mpf("0.5") - s / (2 * n * t))) \
        * (1 + 2 * mp.sqrt(3) * alpha * u_rad * n * (1 + beta) / s) ** m
    expected = first + mp.e**(-n * beta * h(beta))
    got = tail_bound(oracle_inputs(), t=1.0, s=100.0, beta=1.0)
    assert got == pytest.approx(float(expected), rel=1e-10)

    n2, m2 = mp.mpf(10**6), mp.mpf(10)
    c1, c2 = 18 * c, 8 * mp.sqrt(3) * alpha * u_rad
    c3 = 2 * max(c1, c2)
    lr = mp.log(n2 / m2)
    expected_risk = c3 * (m2 / n2) * lr + (c1 / n2) * mp.e**(-m2 * lr) \
        + (3 / n2) * mp.e**(-(n2 + c3 * m2 * lr) / 3)
    inp = BoundInputs(n=1e6, m=10, sup_score=10.0, lipschitz=5.0, radius=1.0)
    assert risk_bound(inp) == pytest.approx(float(expected_risk), rel=1e-12)
