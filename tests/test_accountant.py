import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dpem import accountant
from dpem.accountant import (
    METHODS,
    SCENARIOS,
    CompositionPlan,
    MomentCurve,
    PrivacyBudget,
    _trace_charges,
    advanced_calibrate,
    advanced_compose,
    calibrate,
    compose,
    compose_trace,
    gaussian_moment,
    gaussian_sigma,
    laplace_moment,
    linear_calibrate,
    linear_compose,
    ma_calibrate,
    ma_tail_epsilon,
    ma_total_moment,
    zcdp_calibrate,
    zcdp_calibrate_pure,
    zcdp_rho,
    zcdp_to_dp,
)
from dpem.errors import UnattainableBudgetError
from dpem.mechanisms import AccountingTrace, TraceRecord


def ggg(j, k, method="zcdp", delta_i=1e-6):
    return CompositionPlan(scenario="ggg", iterations=j, components=k,
                           delta_i=delta_i, method=method)


def llg(j, k, method="zcdp", delta_i=1e-6):
    return CompositionPlan(scenario="llg", iterations=j, components=k,
                           delta_i=delta_i, method=method)


# --- moment oracles -----------------------------------------------------------


def laplace_moment_oracle(order, eps):
    """E[e^{order L}] via the three-branch privacy-loss law of a Laplace
    release: atoms at +-eps plus a linear segment, integrated numerically."""
    sens = 1.0
    b = sens / eps
    atom_hi = 0.5 * math.exp(order * eps)
    atom_lo = 0.5 * math.exp(-eps) * math.exp(-order * eps)

    def integrand(x):
        loss = -(eps / sens) * (2.0 * x - sens)
        density = math.exp(-x / b) / (2.0 * b)
        return math.exp(order * loss) * density

    middle, err = quad(integrand, 0.0, sens, epsabs=0, epsrel=1e-13, limit=200)
    return math.log(atom_hi + atom_lo + middle)


def gaussian_moment_oracle(order, sens, sigma):
    """E[e^{order L}] with L = (sens/sigma)(x/sigma) + sens^2/(2 sigma^2),
    x ~ N(0, sigma^2), integrated over a finite window around the tilted
    mean."""
    shift = order * sens
    lo, hi = shift - 60 * sigma, shift + 60 * sigma

    def integrand(x):
        loss = (sens / sigma) * (x / sigma) + 0.5 * (sens / sigma) ** 2
        # single exponent: the tilted integrand under/overflows piecewise
        log_val = order * loss - 0.5 * (x / sigma) ** 2 \
            - math.log(sigma * math.sqrt(2 * math.pi))
        return math.exp(log_val)

    val, err = quad(integrand, lo, hi, epsabs=0, epsrel=1e-13, limit=500)
    return math.log(val)


def test_laplace_moment_zero_order_vanishes():
    assert laplace_moment(0, 0.3) == 0.0


def test_laplace_moment_frozen_value():
    # log[(2/3)e^{0.1} + (1/3)e^{-0.2}], 40-digit cross-check
    assert laplace_moment(1, 0.1) == pytest.approx(0.009644207840344675,
                                                   abs=1e-15)


def test_laplace_moment_monotone_in_order():
    assert laplace_moment(2, 0.5) > laplace_moment(1, 0.5)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("order", [1, 2, 5, 17, 32])
def test_laplace_moment_against_quadrature(eps, order):
    assert laplace_moment(order, eps) == pytest.approx(
        laplace_moment_oracle(order, eps), abs=1e-8)


def test_gaussian_moment_unit_case():
    assert gaussian_moment(1, 1.0, 1.0) == pytest.approx(1.0)


def test_gaussian_moment_zero_sensitivity():
    assert gaussian_moment(5, 0.0, 2.0) == 0.0


def test_gaussian_moment_hand_value():
    assert gaussian_moment(3, 2.0, 4.0) == pytest.approx(1.5)


@pytest.mark.parametrize("sigma", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("order", [1, 4, 16, 32])
def test_gaussian_moment_against_quadrature(sigma, order):
    assert gaussian_moment(order, 1.0, sigma) == pytest.approx(
        gaussian_moment_oracle(order, 1.0, sigma), abs=1e-8)


# --- total moment curve ---------------------------------------------------------


def test_ma_total_moment_single_laplace_degenerate():
    plan = llg(1, 0, method="ma")
    curve = ma_total_moment(plan, 0.3, max_order=16)
    for order in range(1, 17):
        assert curve(order) == pytest.approx(laplace_moment(order, 0.3))


def test_ma_total_moment_ggg_counts_420_terms():
    plan = ggg(20, 10, method="ma")
    assert plan.n_mechanisms == 420
    curve = ma_total_moment(plan, 0.2, max_order=8)
    single = gaussian_moment(np.arange(1, 9), 1.0,
                             math.sqrt(2 * math.log(1.25 / 1e-6)) / 0.2)
    np.testing.assert_allclose(curve.values, 420 * single, rtol=1e-12)


def test_ma_total_moment_additive_in_iterations():
    one = ma_total_moment(ggg(1, 3, "ma"), 0.4, max_order=32)
    two = ma_total_moment(ggg(2, 3, "ma"), 0.4, max_order=32)
    np.testing.assert_allclose(two.values, 2 * one.values, rtol=1e-12)


# --- tail bound -------------------------------------------------------------------


def test_tail_epsilon_zero_curve():
    curve = MomentCurve(np.zeros(64))
    assert ma_tail_epsilon(curve, 1e-4) == pytest.approx(math.log(1e4) / 64)


def test_tail_epsilon_monotone_under_doubling():
    vals = np.linspace(0.1, 3.0, 32)
    assert ma_tail_epsilon(MomentCurve(2 * vals), 1e-5) >= \
        ma_tail_epsilon(MomentCurve(vals), 1e-5)


@pytest.mark.parametrize("sigma,max_order", [(12.0, 128), (20.0, 128)])
def test_tail_epsilon_single_gaussian_below_closed_form(sigma, max_order):
    # the tail bound undercuts the closed-form Gaussian guarantee once
    # sigma is large enough for the +1/(2 sigma^2) moment offset to be
    # outweighed by the log(1.25)/log(1) gap (sigma >= ~10 at delta=1e-4)
    delta = 1e-4
    orders = np.arange(1, max_order + 1)
    curve = MomentCurve(gaussian_moment(orders, 1.0, sigma))
    closed_form = math.sqrt(2 * math.log(1.25 / delta)) / sigma
    assert ma_tail_epsilon(curve, delta) <= closed_form


# --- linear / advanced ---------------------------------------------------------------


def test_linear_compose_ggg_420():
    spent = linear_compose(ggg(20, 10, "linear"), 0.01)
    assert spent.epsilon == pytest.approx(4.2)
    assert spent.delta == pytest.approx(420 * 1e-6)


def test_linear_compose_llg_delta_counts_gaussians_only():
    spent = linear_compose(llg(1, 1, "linear"), 0.2)
    assert spent.delta == pytest.approx(1e-6)
    assert spent.epsilon == pytest.approx(3 * 0.2)


def test_linear_compose_empty_plan():
    spent = linear_compose(ggg(0, 5, "linear"), 0.3)
    assert spent.epsilon == 0.0
    assert spent.delta == 0.0


def test_advanced_compose_vanishes_with_eps_i():
    spent = advanced_compose(ggg(10, 3, "advanced"), 1e-12, 0.5)
    assert spent.epsilon < 1e-9


def test_advanced_compose_single_mechanism_formula():
    eps_i = 0.2
    spent = advanced_compose(ggg(1, 0, "advanced"), eps_i, math.exp(-1.0))
    expected = eps_i * (math.exp(eps_i) - 1.0) + math.sqrt(2.0) * eps_i
    assert spent.epsilon == pytest.approx(expected)


def test_advanced_beats_linear_for_many_small_mechanisms():
    plan_a = ggg(20, 10, "advanced")
    plan_l = ggg(20, 10, "linear")
    eps_i = 1e-3
    assert advanced_compose(plan_a, eps_i, 1e-5).epsilon < \
        linear_compose(plan_l, eps_i).epsilon


# --- zCDP ------------------------------------------------------------------------------


def test_zcdp_rho_pure_dp_unit():
    # one eps_i-DP release at eps_i=1 costs rho = 1/2
    assert zcdp_rho(llg(1, 0), 1.0) == pytest.approx(0.5)


def test_zcdp_rho_single_gaussian():
    plan = ggg(1, 0)
    sigmas = {"weights": (1.0, 2.0), "means": (1.0, 2.0),
              "covariances": (1.0, 2.0)}
    assert zcdp_rho(plan, 0.5, sigmas) == pytest.approx(1.0 / 8.0)


def test_zcdp_rho_additive():
    plan1 = ggg(1, 0)
    plan2 = ggg(2, 0)
    assert zcdp_rho(plan2, 0.3) == pytest.approx(2 * zcdp_rho(plan1, 0.3))


def test_zcdp_rho_llg_itemizes_the_covariance_releases():
    # llg: J(K+1) Laplace releases at eps_i^2/2 each, JK Gaussian covariance
    # releases at s^2/(2 sigma^2) each; no other class is read
    j, k, eps_i, s, sigma = 3, 2, 0.4, 0.05, 0.7
    expected = j * (k + 1) * eps_i ** 2 / 2 + j * k * s ** 2 / (2 * sigma ** 2)
    assert zcdp_rho(llg(j, k), eps_i, {"covariances": (s, sigma)}) == \
        pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("eps, delta", [(math.nan, 1e-4), (1.0, math.nan)])
def test_privacy_budget_rejects_nan(eps, delta):
    with pytest.raises(ValueError):
        PrivacyBudget(eps, delta)


def test_privacy_budget_allows_an_unbounded_spend():
    assert PrivacyBudget(math.inf, 1e-4).epsilon == math.inf


def test_zcdp_to_dp_limits_and_values():
    assert zcdp_to_dp(0.0, 1e-4) == 0.0
    assert zcdp_to_dp(1.0, math.exp(-1.0)) == pytest.approx(3.0)
    assert zcdp_to_dp(0.25, 1e-4) == pytest.approx(3.2848542587702927,
                                                   rel=1e-12)


# --- calibration -----------------------------------------------------------------------


def grid_oracle(plan, total, recompose, lo=1e-8, hi=1 - 1e-8):
    """Two-stage dense grid search for the largest feasible eps_i."""
    grid = np.linspace(lo, hi, 2001)
    feasible = [e for e in grid if recompose(plan, e) <= total.epsilon]
    if not feasible:
        return None
    coarse = max(feasible)
    step = grid[1] - grid[0]
    fine = np.linspace(coarse, min(coarse + step, hi), 4001)
    feasible = [e for e in fine if recompose(plan, e) <= total.epsilon]
    return max(feasible)


def test_ma_calibrate_round_trip():
    plan = ggg(5, 2, "ma")
    total = PrivacyBudget(1.0, 1e-4)
    eps_i = ma_calibrate(plan, total)
    delta_ma = total.delta - plan.n_gaussian * plan.delta_i
    recomposed = ma_tail_epsilon(ma_total_moment(plan, eps_i), delta_ma)
    assert recomposed <= total.epsilon + 1e-9


def test_ma_calibrate_matches_grid_oracle():
    plan = ggg(1, 1, "ma")
    total = PrivacyBudget(1.0, 1e-4)
    eps_i = ma_calibrate(plan, total)
    delta_ma = total.delta - plan.n_gaussian * plan.delta_i

    def recompose(p, e):
        return ma_tail_epsilon(ma_total_moment(p, e), delta_ma)

    oracle = grid_oracle(plan, total, recompose)
    assert eps_i == pytest.approx(oracle, rel=1e-4)


def test_ma_calibrate_nonincreasing_in_iterations():
    total = PrivacyBudget(1.0, 1e-4)
    values = [ma_calibrate(ggg(j, 2, "ma"), total) for j in (1, 2, 5, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_ma_calibrate_reports_order_ceiling():
    # eps=0.05 needs orders beyond 64: log(1/delta_ma)/64 > 0.05
    with pytest.raises(UnattainableBudgetError, match="order"):
        ma_calibrate(ggg(10, 3, "ma"), PrivacyBudget(0.05, 1e-4), max_order=64)


def test_zcdp_calibrate_round_trip_and_oracle():
    plan = ggg(10, 3)
    total = PrivacyBudget(1.0, 1e-4)
    eps_i = zcdp_calibrate(plan, total)
    assert zcdp_to_dp(zcdp_rho(plan, eps_i), total.delta) <= total.epsilon + 1e-9

    def recompose(p, e):
        return zcdp_to_dp(zcdp_rho(p, e), total.delta)

    oracle = grid_oracle(plan, total, recompose)
    assert eps_i == pytest.approx(oracle, rel=1e-4)


def test_zcdp_beats_linear_for_three_or_more_gaussians():
    total = PrivacyBudget(0.5, 1e-4)
    for j, k in ((1, 1), (3, 0), (10, 3)):
        plan = ggg(j, k)
        if plan.n_mechanisms < 3:
            continue
        assert zcdp_calibrate(plan, total) >= linear_calibrate(
            ggg(j, k, "linear"), total)


def test_calibration_dominance_ordering():
    total = PrivacyBudget(1.0, 1e-4)
    j, k = 10, 3
    lin = linear_calibrate(ggg(j, k, "linear"), total)
    adv = advanced_calibrate(ggg(j, k, "advanced"), total)
    z = zcdp_calibrate(ggg(j, k), total)
    assert z > adv > lin


@pytest.mark.parametrize("j,k,eps", [(10, 3, 0.5), (12, 3, 1.0), (10, 4, 0.25)])
def test_refined_methods_dominate_even_at_default_order(j, k, eps):
    # at eps=0.25 the 64-order ceiling already binds the MA optimum
    # (unconstrained optimum sits near order 84), yet the ordering holds
    total = PrivacyBudget(eps, 1e-4)
    adv = advanced_calibrate(ggg(j, k, "advanced"), total)
    z = zcdp_calibrate(ggg(j, k), total)
    ma = ma_calibrate(ggg(j, k, "ma"), total, max_order=64)
    lin = linear_calibrate(ggg(j, k, "linear"), total)
    assert z > adv > lin
    assert ma > adv


def test_ma_total_moment_itemizes_per_class_sigmas():
    plan = ggg(2, 1, "ma")  # gaussian classes: weights 2, means 2, covs 2
    sigmas = {"weights": (0.1, 1.0), "means": (0.2, 4.0),
              "covariances": (0.0, 1.0)}
    curve = ma_total_moment(plan, 0.3, sigma_by_param=sigmas, max_order=4)
    orders = np.arange(1, 5)
    expected = 2 * gaussian_moment(orders, 0.1, 1.0) \
        + 2 * gaussian_moment(orders, 0.2, 4.0)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)


def test_linear_calibrate_checks_delta_mass():
    with pytest.raises(UnattainableBudgetError):
        linear_calibrate(ggg(10, 3, "linear", delta_i=1e-4),
                         PrivacyBudget(1.0, 1e-4))


def test_delta_mass_alone_can_exhaust_the_budget():
    # 220 Gaussian releases at delta_i=1e-6 already exceed delta=1e-4, so
    # every delta-consuming calibrator must refuse outright
    total = PrivacyBudget(1.0, 1e-4)
    for method, cal in (("linear", linear_calibrate),
                        ("advanced", advanced_calibrate),
                        ("ma", ma_calibrate)):
        with pytest.raises(UnattainableBudgetError):
            cal(ggg(20, 5, method), total)
    # zCDP does not spend delta_i mass and stays feasible
    assert zcdp_calibrate(ggg(20, 5), total) > 0


def test_zcdp_calibrate_pure_round_trip():
    total = PrivacyBudget(0.01, 1e-4)
    eps_i = zcdp_calibrate_pure(30, total)
    rho = 30 * 0.5 * eps_i ** 2
    assert zcdp_to_dp(rho, total.delta) <= total.epsilon + 1e-9


def test_composition_monotone_in_eps_i_and_size():
    total_eps = []
    for eps_i in (0.01, 0.02, 0.05):
        total_eps.append(linear_compose(ggg(5, 2, "linear"), eps_i).epsilon)
    assert total_eps == sorted(total_eps)
    for fn in (lambda p, e: linear_compose(p, e).epsilon,
               lambda p, e: advanced_compose(p, e, 1e-5).epsilon,
               lambda p, e: zcdp_rho(p, e)):
        small = fn(ggg(2, 2, "linear"), 0.05)
        bigger_j = fn(ggg(4, 2, "linear"), 0.05)
        bigger_k = fn(ggg(2, 4, "linear"), 0.05)
        assert bigger_j >= small
        assert bigger_k >= small


# --- trace audit ---------------------------------------------------------------------


def build_trace(n_lap, n_gauss, eps_i, delta_i):
    trace = AccountingTrace()
    for i in range(n_lap):
        trace.append(TraceRecord("laplace", 0.5, 0.5 / eps_i, eps_i, None,
                                 "weights", i))
    for i in range(n_gauss):
        sigma = gaussian_sigma(0.01, eps_i, delta_i)
        trace.append(TraceRecord("gaussian", 0.01, sigma, eps_i, delta_i, "cov", i,
                                 beta=sigma ** 2))
    return trace


def test_compose_trace_linear_and_zcdp_match_plan():
    eps_i, delta_i = 0.2, 1e-6
    plan = llg(2, 1, "linear", delta_i)
    trace = build_trace(plan.n_laplace, plan.n_gaussian, eps_i, delta_i)
    lin = compose_trace(trace, "linear", 1e-4)
    planned = linear_compose(plan, eps_i)
    assert lin.epsilon == pytest.approx(planned.epsilon)
    assert lin.delta == pytest.approx(planned.delta)
    z = compose_trace(trace, "zcdp", 1e-4)
    planned_rho = zcdp_rho(plan, eps_i)
    assert z.epsilon == pytest.approx(zcdp_to_dp(planned_rho, 1e-4), rel=1e-9)


def test_compose_trace_charges_parallel_group_once():
    # one iteration: counts at 0.2, then a centroid group whose members cost
    # 0.1, 0.3 and 0.2; the group is charged at its most expensive member
    trace = AccountingTrace([TraceRecord("laplace", 1.0, 5.0, 0.2, None,
                                         "counts", 0)])
    for eps_i in (0.1, 0.3, 0.2):
        trace.append(TraceRecord("laplace", 1.0, 1.0 / eps_i, eps_i, None,
                                 "centroid", 0, parallel=True))
    assert compose_trace(trace, "linear", 1e-4).epsilon == pytest.approx(0.5)
    assert compose_trace(trace, "zcdp", 1e-4).epsilon == pytest.approx(
        zcdp_to_dp(0.5 * (0.2 ** 2 + 0.3 ** 2), 1e-4))
    orders = np.arange(1, 65)
    curve = MomentCurve(laplace_moment(orders, 0.2)
                        + laplace_moment(orders, 0.3))
    assert compose_trace(trace, "ma", 1e-4, max_order=64).epsilon == \
        pytest.approx(ma_tail_epsilon(curve, 1e-4))
    uniform = AccountingTrace([TraceRecord("laplace", 1.0, 5.0, 0.2, None,
                                           "counts", 0)] + [
        TraceRecord("laplace", 1.0, 5.0, 0.2, None, "centroid", 0,
                    parallel=True) for _ in range(3)])
    spent = compose_trace(uniform, "advanced", 1e-4)
    m = 2
    assert spent.epsilon == pytest.approx(
        m * 0.2 * (math.exp(0.2) - 1.0)
        + math.sqrt(2.0 * m * math.log(1e4)) * 0.2)


def test_zcdp_and_ma_audits_read_the_same_gaussian_rho():
    # both read the record's rho, sens^2/(2 beta); noise_scale is not read
    orders = np.arange(1, 65)
    rec = TraceRecord("gaussian", 2.0, 1.0, 0.5, 1e-6, "cov", 0, beta=16.0)
    trace = AccountingTrace([rec])
    assert _trace_charges(trace) == [("gaussian", 0.5, 1e-6, 0.125, 1)]
    z = compose_trace(trace, "zcdp", 1e-4)
    assert z.epsilon == pytest.approx(zcdp_to_dp(0.125, 1e-4), rel=1e-15)
    ma = compose_trace(trace, "ma", 1e-4, max_order=64)
    curve = MomentCurve(gaussian_moment(orders, 2.0, 4.0))
    assert ma.epsilon == pytest.approx(ma_tail_epsilon(curve, 1e-4 - 1e-6),
                                       rel=1e-12)
    # a Gaussian record without beta has no finite rho, under either method
    bare = AccountingTrace([TraceRecord("gaussian", 2.0, 4.0, 0.5, 1e-6,
                                        "cov", 0)])
    assert compose_trace(bare, "zcdp", 1e-4).epsilon == math.inf
    assert compose_trace(bare, "ma", 1e-4).epsilon == math.inf


def test_compose_plan_charges_match_the_plan_formulas():
    plan = llg(4, 3, "advanced", delta_i=1e-7)
    eps_i, delta = 0.05, 1e-4
    charges = plan.charges(eps_i)
    assert [c[-1] for c in charges] == [plan.n_laplace, plan.n_gaussian]
    assert compose(charges, "linear", delta) == linear_compose(plan, eps_i)
    assert compose(charges, "zcdp", delta).epsilon == zcdp_to_dp(
        zcdp_rho(plan, eps_i), delta)
    slack = delta - plan.n_gaussian * plan.delta_i
    assert compose(charges, "advanced", delta) == advanced_compose(
        plan, eps_i, slack)
    curve = ma_total_moment(plan, eps_i, max_order=128)
    assert compose(charges, "ma", delta, max_order=128).epsilon == \
        ma_tail_epsilon(curve, slack)


def test_plan_charges_skip_releases_that_never_run():
    # ggg has no Laplace release: its charge would read 0 * inf at eps_i = inf
    ggg_plan = CompositionPlan("ggg", 2, 2, 1e-6, "linear")
    assert [c[0] for c in ggg_plan.charges(0.5)] == ["gaussian"]
    spent = linear_compose(ggg_plan, math.inf)
    assert spent.epsilon == math.inf
    assert spent.delta == pytest.approx(1e-5, rel=1e-12)
    assert zcdp_rho(CompositionPlan("ggg", 2, 2, 1e-6), math.inf) == math.inf
    # a plan of zero iterations releases nothing and spends nothing
    empty = CompositionPlan("ggg", 0, 3, 1e-6, "ma")
    assert empty.charges(0.5) == []
    assert compose(empty.charges(0.5), "ma", 1e-4) == PrivacyBudget(0.0, 0.0)


@pytest.mark.parametrize("fn, args", [
    (laplace_moment, (np.nan, 0.5)),
    (laplace_moment, (2, np.nan)),
    (gaussian_moment, (np.array([1.0, np.nan]), 1.0, 2.0)),
    (gaussian_moment, (2, np.nan, 2.0)),
    (gaussian_moment, (2, 1.0, np.nan)),
    (zcdp_to_dp, (np.nan, 1e-4)),
])
def test_moment_and_conversion_helpers_reject_nan(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_moment_and_conversion_helpers_keep_inf_legal():
    assert laplace_moment(2, math.inf) == math.inf
    assert gaussian_moment(2, math.inf, 1.0) == math.inf
    assert gaussian_moment(2, 1.0, math.inf) == 0.0
    assert zcdp_to_dp(math.inf, 1e-4) == math.inf


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: calibrate(ggg(2, 2), PrivacyBudget(0.0, 1e-4)),
                 ValueError, "calibration needs", id="calibrate-eps-0"),
    pytest.param(lambda: calibrate(ggg(2, 2), PrivacyBudget(1.0, 0.0)),
                 ValueError, "calibration needs", id="calibrate-delta-0"),
    pytest.param(lambda: CompositionPlan("ggg", -1, 2, 1e-6),
                 ValueError, "nonnegative", id="plan-negative-iterations"),
    pytest.param(lambda: CompositionPlan("ggg", 2, 2, 1.0),
                 ValueError, "delta_i must lie", id="plan-delta_i-1"),
    pytest.param(lambda: CompositionPlan("ggg", 2, 2, math.nan),
                 ValueError, "delta_i must lie", id="plan-delta_i-nan"),
    pytest.param(lambda: ggg(2, 2).charges(-0.1),
                 ValueError, "eps_i must be nonnegative", id="charges-negative"),
    pytest.param(lambda: ggg(2, 2).charges(math.nan),
                 ValueError, "eps_i must be nonnegative", id="charges-nan"),
    pytest.param(lambda: MomentCurve(np.array([])),
                 ValueError, "at least one order", id="curve-empty"),
    pytest.param(lambda: MomentCurve(np.array([0.0, -1.0])),
                 ValueError, "finite and nonnegative", id="curve-negative"),
    pytest.param(lambda: MomentCurve(np.array([0.0, math.nan])),
                 ValueError, "finite and nonnegative", id="curve-nan"),
    pytest.param(lambda: MomentCurve(np.zeros(4))(0),
                 ValueError, "outside", id="curve-order-0"),
    pytest.param(lambda: MomentCurve(np.zeros(4))(5),
                 ValueError, "outside", id="curve-order-5"),
    pytest.param(lambda: ma_tail_epsilon(MomentCurve(np.zeros(4)), 0.0),
                 ValueError, "delta must lie", id="tail-delta-0"),
    pytest.param(lambda: zcdp_to_dp(0.1, 1.0),
                 ValueError, "delta must lie", id="zcdp_to_dp-delta-1"),
    pytest.param(lambda: compose(ggg(1, 1).charges(0.1), "bogus", 1e-4),
                 ValueError, "method must be one of", id="compose-unknown-method"),
    pytest.param(lambda: compose(ggg(1, 1).charges(0.1) + ggg(1, 1).charges(0.2),
                                 "advanced", 1e-4),
                 ValueError, "uniform eps_i", id="advanced-mixed-labels"),
    pytest.param(lambda: advanced_compose(ggg(2, 2), 0.1, 0.0),
                 ValueError, "slack must lie", id="advanced-slack-0"),
    pytest.param(lambda: zcdp_calibrate_pure(1, PrivacyBudget(1e-20, 1e-4)),
                 UnattainableBudgetError, "unattainable", id="pure-tiny-eps"),
    pytest.param(lambda: zcdp_calibrate_pure(0, PrivacyBudget(1.0, 1e-4)),
                 ValueError, "at least one mechanism", id="pure-no-mechanism"),
    pytest.param(lambda: linear_calibrate(ggg(0, 2), PrivacyBudget(1.0, 1e-4)),
                 ValueError, "empty plan", id="linear-empty-plan"),
])
def test_accountant_rejects_invalid_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_compose_trace_empty():
    spent = compose_trace(AccountingTrace(), "linear", 1e-4)
    assert spent.epsilon == 0.0 and spent.delta == 0.0


def test_calibrate_dispatch():
    total = PrivacyBudget(1.0, 1e-4)
    assert calibrate(ggg(10, 3, "linear"), total) == pytest.approx(1.0 / 70)
    assert calibrate(ggg(10, 3, "zcdp"), total) == pytest.approx(
        zcdp_calibrate(ggg(10, 3), total))


def test_package_exports_the_engine_but_not_its_modules():
    import dpem
    assert dpem.compose is compose and "compose" in dpem.__all__
    assert "accountant" not in dpem.__all__
    assert dpem.accountant.compose_trace is compose_trace


# --- the engine against its earlier form -------------------------------------------
# Test-only references: group charging over ``trace.groups()`` with a rho per
# record, a moment curve of ``laplace_moment`` vectors and a bisection that
# builds a budget at every step. The engine must equal them bit for bit.


def reference_record_rho(r):
    if r.kind == "laplace":
        return 0.5 * r.eps_i ** 2
    if r.beta is None or r.beta == 0.0:
        return 0.0 if r.sensitivity == 0 else float("inf")
    return r.sensitivity ** 2 / (2.0 * r.beta)


def reference_trace_charges(trace):
    out = []
    for g in trace.groups():
        r = g[0]
        if len(g) == 1:
            delta_i = r.delta_i if r.kind == "gaussian" else None
            out.append((r.kind, r.eps_i, delta_i, reference_record_rho(r), 1))
            continue
        if any(m.kind != r.kind for m in g):
            raise ValueError("a parallel group mixes Laplace and Gaussian releases")
        deltas = [m.delta_i for m in g if m.delta_i is not None]
        out.append((r.kind, max(m.eps_i for m in g),
                    max(deltas) if r.kind == "gaussian" and deltas else None,
                    max(reference_record_rho(m) for m in g), 1))
    return out


def reference_curve(charges, max_order):
    orders = np.arange(1, max_order + 1)
    gauss_rho = 0.0
    laplace_counts = {}
    for kind, eps_i, _, rho, count in charges:
        if kind == "laplace":
            laplace_counts[eps_i] = laplace_counts.get(eps_i, 0) + count
        else:
            gauss_rho += count * rho
    curve = (orders ** 2 + orders) * gauss_rho
    for eps_i, count in laplace_counts.items():
        curve += count * laplace_moment(orders, eps_i)
    return curve


def reference_compose(charges, method, delta, max_order):
    """``compose``'s formulas written out again, so that the tests below
    compare the engine with a copy that does not call it; the moments
    accountant's tail is taken over ``reference_curve``. The checks come
    in the engine's order, so each raises the type the engine raises."""
    if not charges:
        return PrivacyBudget(0.0, 0.0)
    if method == "zcdp":
        rho = sum(count * r for _, _, _, r, count in charges)
        if not rho >= 0 or not 0.0 < delta < 1.0:
            raise ValueError("rho or delta out of range")
        return PrivacyBudget(rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta)),
                             delta)
    # a sum over no Gaussian charge is the int 0, which results.jsonl prints
    gauss_delta = sum(count * d for _, _, d, _, count in charges if d is not None)
    if method == "linear":
        return PrivacyBudget(sum(count * eps_i for _, eps_i, _, _, count in charges),
                             gauss_delta)
    rest = delta - gauss_delta
    if rest <= 0:
        raise UnattainableBudgetError("no slack")
    if method == "ma":
        orders = np.arange(1, max_order + 1)
        values = reference_curve(charges, max_order)
        return PrivacyBudget(float(((values + math.log(1.0 / rest)) / orders).min()),
                             delta)
    eps_i, *others = {eps_i for _, eps_i, *_ in charges}
    if others:
        raise ValueError("advanced composition needs a uniform eps_i")
    m = sum(count for *_, count in charges)
    return PrivacyBudget(m * eps_i * (math.exp(eps_i) - 1.0)
                         + math.sqrt(2.0 * m * math.log(1.0 / rest)) * eps_i,
                         rest + gauss_delta)


def reference_search(charges_at, method, total, max_order=512):
    def feasible(eps_i):
        spend = reference_compose(charges_at(eps_i), method, total.delta, max_order)
        return (spend.epsilon <= total.epsilon
                and spend.delta <= total.delta * (1 + 1e-12))

    lo, hi = accountant.EPS_I_LO, accountant.EPS_I_HI
    if feasible(hi):
        return hi
    if not feasible(lo):
        raise UnattainableBudgetError("unattainable")
    while hi - lo > accountant.SEARCH_REL_TOL * lo:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def outcome(call):
    """A call's result, or the type of what it raised."""
    try:
        return call()
    except (ValueError, UnattainableBudgetError) as exc:
        return type(exc)


def typed(value):
    """``value`` with its type, so that the int 0 and 0.0 differ."""
    return type(value), value


def spend_of(call):
    got = outcome(call)
    return got if isinstance(got, type) else (typed(got.epsilon), typed(got.delta))


_records = st.builds(
    TraceRecord,
    kind=st.sampled_from(["laplace", "gaussian"]),
    sensitivity=st.just(0.0) | st.floats(1e-6, 10.0),
    noise_scale=st.just(1.0),
    eps_i=st.sampled_from([0.05, 0.3, 0.3000000000000001, 1.0, math.inf]),
    delta_i=st.none() | st.sampled_from([1e-8, 1e-6]) | st.floats(1e-9, 1e-3),
    label=st.sampled_from(["counts", "centroid", "cov"]),
    iteration=st.integers(0, 2),
    component=st.none(),
    flagged=st.just(False),
    beta=st.sampled_from([None, 0.0]) | st.floats(1e-8, 100.0),
    parallel=st.booleans(),
)
_MIXED = AccountingTrace([
    TraceRecord("laplace", 1.0, 2.0, 0.5, None, "x", 0, parallel=True),
    TraceRecord("gaussian", 1.0, 2.0, 0.3, None, "y", 0),
    TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "x", 0, beta=4.0, parallel=True)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_records, max_size=14).map(AccountingTrace),
       st.sampled_from(METHODS), st.sampled_from([1e-4, 1e-2, 0.5]),
       st.sampled_from([1, 2, 64, 512]))
@example(AccountingTrace(), "ma", 1e-4, 64)
@example(_MIXED, "zcdp", 1e-4, 64)
def test_compose_trace_equals_group_charging_bit_for_bit(trace, method, delta,
                                                         max_order):
    # parallel records share (label, iteration) wherever they sit in the
    # trace, so groups interleave with single records
    assert outcome(lambda: _trace_charges(trace)) == \
        outcome(lambda: reference_trace_charges(trace))
    assert spend_of(lambda: compose_trace(trace, method, delta, max_order)) == \
        spend_of(lambda: reference_compose(reference_trace_charges(trace), method,
                                           delta, max_order))


@pytest.mark.parametrize("max_order", [1, 2, 64, 512])
@pytest.mark.parametrize("method", METHODS)
def test_calibrate_equals_plain_bisection_bit_for_bit(method, max_order,
                                                      monkeypatch):
    cases = [(CompositionPlan(scenario, J, K, 1e-8, method),
              PrivacyBudget(eps, 1e-4))
             for scenario in SCENARIOS for J in (1, 10, 50) for K in (1, 3, 10)
             for eps in (0.1, 0.5, 1.0, 4.0, 10.0)]
    got = [outcome(lambda: calibrate(plan, total, max_order))
           for plan, total in cases]
    monkeypatch.setattr(accountant, "_search", reference_search)
    want = [outcome(lambda: calibrate(plan, total, max_order))
            for plan, total in cases]
    assert got == want
    # the moments accountant needs eps > log(1/delta)/max_order: some cases
    # reach their budget at every max_order, and all of them at 512
    reached = [eps_i for eps_i in got if not isinstance(eps_i, type)]
    assert reached and (max_order < 512 or len(reached) == len(got))
    if method == "ma":
        for (plan, _), eps_i in zip(cases, got):
            if not isinstance(eps_i, type):
                charges = plan.charges(eps_i)
                assert np.array_equal(accountant._moment_curve(charges, max_order),
                                      reference_curve(charges, max_order))


def test_zcdp_calibrate_pure_equals_plain_bisection_bit_for_bit(monkeypatch):
    cases = [(n, PrivacyBudget(eps, delta)) for n in (1, 2, 20, 100, 1000)
             for eps in (0.01, 0.1, 0.5, 1.0, 4.0, 50.0) for delta in (1e-8, 1e-4)]
    got = [outcome(lambda: zcdp_calibrate_pure(n, total)) for n, total in cases]
    monkeypatch.setattr(accountant, "_search", reference_search)
    assert got == [outcome(lambda: zcdp_calibrate_pure(n, total))
                   for n, total in cases]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCENARIOS), st.sampled_from(METHODS), st.integers(0, 60),
       st.integers(0, 12), st.floats(1e-3, 100.0), st.floats(1e-10, 0.5),
       st.floats(1e-12, 1e-3), st.sampled_from([1, 2, 64, 512]))
# capped at EPS_I_HI
@example("ggg", "zcdp", 1, 1, 50.0, 1e-4, 1e-8, 512)
# unattainable at EPS_I_LO, an eps below the drawn range
@example("ggg", "zcdp", 50, 10, 1e-7, 1e-4, 1e-6, 512)
# past the moments accountant's order ceiling, log(1/delta)/max_order > eps
@example("llg", "ma", 10, 3, 1.0, 1e-4, 1e-6, 1)
def test_calibration_replays_plain_bisection(scenario, method, J, K, eps, delta,
                                             delta_i, max_order):
    plan = CompositionPlan(scenario, J, K, delta_i, method)
    total = PrivacyBudget(eps, delta)
    calls = (lambda: calibrate(plan, total, max_order),
             lambda: zcdp_calibrate_pure(plan.n_mechanisms, total))
    got = [typed(outcome(call)) for call in calls]
    with mock.patch.object(accountant, "_search", reference_search):
        assert got == [typed(outcome(call)) for call in calls]


def test_calibration_composes_about_a_third_as_often_as_bisection(monkeypatch):
    # the accountant workload's plans: plain bisection composes 27.8 times
    # per search on average here, and at most 33 times
    counts = []
    compose_ = accountant._compose

    def counted(*args):
        counts[-1] += 1
        return compose_(*args)

    monkeypatch.setattr(accountant, "_compose", counted)
    for scenario in SCENARIOS:
        for J in (10, 50):
            for K in (3, 10):
                for method in ("advanced", "zcdp", "ma"):
                    for eps in (0.1, 0.5, 1.0, 2.0, 4.0):
                        counts.append(0)
                        calibrate(CompositionPlan(scenario, J, K, 1e-8, method),
                                  PrivacyBudget(eps, 1e-4), 512)
    for J in (10, 50):
        for eps in (0.1, 0.5, 1.0, 2.0, 4.0):
            counts.append(0)
            zcdp_calibrate_pure(2 * J, PrivacyBudget(eps, 1e-4))
    assert len(counts) == 130 and min(counts) >= 1
    assert sum(counts) / len(counts) <= 10 and max(counts) <= 14


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0.25, 4.0), st.floats(1e-8, 1.0),
       st.lists(st.tuples(st.floats(1e-8, 1.0), st.floats(0.0, 10.0)), max_size=3),
       st.floats(1e-3, 100.0))
# the budget is met at a jump, where no secant step converges
@example(1.0, 1.0, 1e-8, [(0.3, 10.0)], 1.0)
def test_search_replays_bisection_on_any_monotone_spend(scale, power, flat_below,
                                                        jumps, eps):
    # linear composition of one charge spends its eps_i label, so the search
    # runs on a spend that is flat below ``flat_below``, a power of eps_i
    # above it and jumps at each breakpoint; it never falls as eps_i grows,
    # float rounding included, but the secant estimate can miss
    def charges_at(eps_i):
        spend = (scale * max(eps_i, flat_below) ** power
                 + sum(jump for at, jump in jumps if eps_i >= at))
        return [("laplace", spend, None, 0.0, 1)]

    total = PrivacyBudget(eps, 1e-4)
    assert typed(outcome(lambda: accountant._search(charges_at, "linear", total))) == \
        typed(outcome(lambda: reference_search(charges_at, "linear", total)))
