import math

import numpy as np
import pytest
from scipy.integrate import quad

from dpem.accountant import (
    CompositionPlan,
    MomentCurve,
    PrivacyBudget,
    advanced_calibrate,
    advanced_compose,
    calibrate,
    compose,
    compose_trace,
    gaussian_moment,
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
from dpem.mechanisms import AccountingTrace, MechanismSpec, TraceRecord


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
        sigma = MechanismSpec.gaussian(0.01, eps_i, delta_i).noise_scale
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
    # both read TraceRecord.zcdp_rho, sens^2/(2 beta); noise_scale is not read
    orders = np.arange(1, 65)
    rec = TraceRecord("gaussian", 2.0, 1.0, 0.5, 1e-6, "cov", 0, beta=16.0)
    trace = AccountingTrace([rec])
    assert rec.zcdp_rho() == 0.125
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
