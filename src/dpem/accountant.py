"""Privacy-loss accounting and per-iteration budget calibration.

Four ways compose Laplace/Gaussian releases into a total (epsilon, delta)
guarantee: linear composition, advanced composition with a slack term,
zCDP (the total rho converts to approximate DP), and a moments accountant
that sums log-MGF bounds of the privacy loss and minimizes the Markov tail
over integer orders.

Calibration and audit share one engine, :func:`compose`, over *charges*:
plain tuples (kind, eps_i, delta_i, rho, count), each one release or one
parallel group at its most expensive member, repeated ``count`` times. A
:class:`CompositionPlan` yields its charges at a given eps_i, a recorded
trace one per group (``AccountingTrace.charges``). Calibration searches for
the largest eps_i whose plan composes inside the budget; the audit composes
the trace. Linear and advanced composition read the ``eps_i`` labels (and
the Gaussian ``delta_i``). zCDP reads ``rho``: eps_i^2/2 for Laplace,
sensitivity^2/(2 beta) for Gaussian. The moments accountant reads a Laplace
charge's ``eps_i`` and a Gaussian charge's ``rho``, whose log moment is
(l^2 + l) rho.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnattainableBudgetError
from .mechanisms import AccountingTrace, charge_delta, charge_rho

DEFAULT_MAX_ORDER = 512

# Gaussian calibration is only valid for eps_i < 1, so every inversion
# searches this bracket.
EPS_I_LO = 1e-8
EPS_I_HI = 1.0 - 1e-8
SEARCH_REL_TOL = 1e-6

SCENARIOS = ("llg", "ggg")
METHODS = ("linear", "advanced", "zcdp", "ma")


@dataclass(frozen=True)
class PrivacyBudget:
    """A total (epsilon, delta) differential-privacy budget.

    Spend reports may carry epsilon == 0 or delta == 0; budgets passed to a
    calibrator must be strictly positive (checked there).
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")


def _require_strict(total: PrivacyBudget) -> None:
    if total.epsilon <= 0 or total.delta <= 0:
        raise ValueError("calibration needs epsilon > 0 and delta > 0")


def _laplace_charge(eps_i: float, count: int) -> tuple:
    return ("laplace", eps_i, None, 0.5 * eps_i ** 2, count)


@dataclass(frozen=True)
class CompositionPlan:
    """Mechanism schedule of one private EM run.

    Scenario "llg": J(K+1) Laplace releases (weights + K means per
    iteration) and JK Gaussian releases (covariances). Scenario "ggg":
    J(2K+1) Gaussian releases.
    """

    scenario: str
    iterations: int
    components: int
    delta_i: float
    method: str = "zcdp"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.iterations < 0 or self.components < 0:
            raise ValueError("iterations and components must be nonnegative")
        if not 0.0 < self.delta_i < 1.0:
            raise ValueError("delta_i must lie in (0, 1)")

    @property
    def n_mechanisms(self) -> int:
        """Total releases per run: J(2K+1) in both scenarios."""
        return self.iterations * (2 * self.components + 1)

    @property
    def n_laplace(self) -> int:
        if self.scenario == "llg":
            return self.iterations * (self.components + 1)
        return 0

    @property
    def n_gaussian(self) -> int:
        if self.scenario == "llg":
            return self.iterations * self.components
        return self.n_mechanisms

    def gaussian_class_counts(self) -> dict[str, int]:
        """Gaussian releases per parameter class."""
        j, k = self.iterations, self.components
        if self.scenario == "llg":
            return {"covariances": j * k}
        return {"weights": j, "means": j * k, "covariances": j * k}

    def charges(self, eps_i: float,
                sigma_by_param: dict[str, tuple[float, float]] | None = None
                ) -> list[tuple]:
        """The schedule's charges when every release is run at eps_i.

        Gaussian releases are minimally calibrated, sigma = sens sqrt(2
        log(1.25/delta_i))/eps_i, so each costs sens^2/(2 sigma^2) =
        eps_i^2/(4 log(1.25/delta_i)) whatever its sensitivity, unless
        ``sigma_by_param`` maps a parameter class to its (sensitivity, sigma)
        pair, itemizing the cost per class.
        """
        if eps_i < 0:
            raise ValueError("eps_i must be nonnegative")
        out = [_laplace_charge(eps_i, self.n_laplace)]
        if sigma_by_param is None:
            rho = eps_i ** 2 / (4.0 * math.log(1.25 / self.delta_i))
            out.append(("gaussian", eps_i, self.delta_i, rho, self.n_gaussian))
            return out
        for name, count in self.gaussian_class_counts().items():
            if count == 0:
                continue
            sens, sigma = sigma_by_param[name]
            rho = 0.0 if sens == 0 else sens ** 2 / (2.0 * sigma ** 2)
            out.append(("gaussian", eps_i, self.delta_i, rho, count))
        return out


# ---------------------------------------------------------------------------
# per-mechanism log moments


def laplace_moment(order: int | np.ndarray, eps_i: float) -> float | np.ndarray:
    """Log of the order-th moment of the Laplace privacy loss.

    log[ (l+1)/(2l+1) e^{l eps} + l/(2l+1) e^{-eps(l+1)} ], evaluated with
    logaddexp so large l*eps does not overflow. order 0 gives 0.
    """
    lam = np.asarray(order, dtype=float)
    if (lam < 0).any():
        raise ValueError("order must be nonnegative")
    if eps_i <= 0:
        raise ValueError("eps_i must be positive")
    with np.errstate(divide="ignore"):
        a = np.log(lam + 1.0) - np.log(2.0 * lam + 1.0) + lam * eps_i
        b = np.where(lam > 0, np.log(np.maximum(lam, 1e-300)), -np.inf) \
            - np.log(2.0 * lam + 1.0) - eps_i * (lam + 1.0)
    out = np.logaddexp(a, b)
    if np.ndim(order) == 0:
        return float(out)
    return out


def gaussian_moment(order: int | np.ndarray, sensitivity: float,
                    sigma: float) -> float | np.ndarray:
    """Log moment of the Gaussian privacy loss: (l^2 + l) sens^2 / (2 sigma^2)."""
    lam = np.asarray(order, dtype=float)
    if (lam < 0).any():
        raise ValueError("order must be nonnegative")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    if sensitivity == 0:
        out = np.zeros_like(lam)
    else:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        out = (lam ** 2 + lam) * sensitivity ** 2 / (2.0 * sigma ** 2)
    if np.ndim(order) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class MomentCurve:
    """Total log-moment bound alpha(order) for integer orders 1..max_order."""

    values: np.ndarray  # values[i] = alpha(i + 1)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("need at least one order")
        if (vals < -1e-12).any() or not np.isfinite(vals).all():
            raise ValueError("moments must be finite and nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def max_order(self) -> int:
        return self.values.shape[0]

    def __call__(self, order: int) -> float:
        if not 1 <= order <= self.max_order:
            raise ValueError(f"order {order} outside [1, {self.max_order}]")
        return float(self.values[order - 1])


def _moment_curve(charges: list[tuple], max_order: int) -> np.ndarray:
    """Total log moment at orders 1..max_order: one Laplace moment vector
    per distinct Laplace eps_i, plus (l^2 + l) times the Gaussian rho."""
    orders = np.arange(1, max_order + 1)
    gauss_rho = 0.0
    laplace_counts: dict[float, int] = {}
    for kind, eps_i, _, rho, count in charges:
        if count == 0:
            continue
        if kind == "laplace":
            laplace_counts[eps_i] = laplace_counts.get(eps_i, 0) + count
        else:
            gauss_rho += count * rho
    curve = (orders ** 2 + orders) * gauss_rho
    for eps_i, count in laplace_counts.items():
        curve += count * laplace_moment(orders, eps_i)
    return curve


def _tail_epsilon(values: np.ndarray, delta: float) -> float:
    orders = np.arange(1, values.shape[0] + 1)
    return float(((values + math.log(1.0 / delta)) / orders).min())


def ma_total_moment(plan: CompositionPlan, eps_i: float,
                    sigma_by_param: dict[str, tuple[float, float]] | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> MomentCurve:
    """Sum the per-mechanism log moments over the whole schedule.

    ``sigma_by_param`` maps a parameter class to its (sensitivity, sigma)
    pair; omit it to assume minimally-calibrated sigmas.
    """
    return MomentCurve(_moment_curve(plan.charges(eps_i, sigma_by_param),
                                     max_order))


def ma_tail_epsilon(curve: MomentCurve, delta: float) -> float:
    """Smallest epsilon whose Markov tail over integer orders is <= delta.

    exp(alpha(l) - l eps) <= delta resolves to eps >= (alpha(l) +
    log(1/delta))/l, so the answer is the minimum of that expression.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return _tail_epsilon(curve.values, delta)


def zcdp_to_dp(rho: float, delta: float) -> float:
    """Convert rho-zCDP to (eps, delta)-DP: eps = rho + 2 sqrt(rho log(1/delta))."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


# ---------------------------------------------------------------------------
# the composition engine


def compose(charges: list[tuple], method: str, delta: float,
            slack: Optional[float] = None,
            max_order: int = DEFAULT_MAX_ORDER) -> PrivacyBudget:
    """Total (epsilon, delta) spend of a list of charges under ``method``.

    linear: the eps_i labels and the Gaussian delta_i add up. advanced: m
    releases of one uniform eps_i with slack delta' (default: what ``delta``
    leaves after the Gaussian delta_i mass). zCDP: the rho add up and convert
    to DP at ``delta``. Moments accountant: the log moments add up, the
    Gaussian delta_i mass is accounted additively and the Markov tail is
    evaluated at the remaining delta. No charges spend nothing.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if not charges:
        return PrivacyBudget(0.0, 0.0)
    if method == "zcdp":
        return PrivacyBudget(zcdp_to_dp(charge_rho(charges), delta), delta)
    gauss_delta = charge_delta(charges)
    if method == "linear":
        return PrivacyBudget(sum(count * eps_i for _, eps_i, _, _, count in charges),
                             gauss_delta)
    rest = slack if method == "advanced" and slack is not None else delta - gauss_delta
    if rest <= 0:
        raise UnattainableBudgetError(
            f"delta budget {delta} leaves no slack after the Gaussian "
            f"mass {gauss_delta}")
    if method == "ma":
        return PrivacyBudget(_tail_epsilon(_moment_curve(charges, max_order), rest),
                             delta)
    eps_set = {eps_i for _, eps_i, _, _, count in charges if count}
    if len(eps_set) > 1:
        raise ValueError("advanced composition needs a uniform eps_i")
    eps_i = max(eps_set, default=0.0)
    m = sum(count for *_, count in charges)
    eps = (m * eps_i * (math.exp(eps_i) - 1.0)
           + math.sqrt(2.0 * m * math.log(1.0 / rest)) * eps_i)
    return PrivacyBudget(eps, rest + gauss_delta)


def compose_trace(trace: AccountingTrace, method: str, delta: float,
                  max_order: int = DEFAULT_MAX_ORDER) -> PrivacyBudget:
    """Recompose a recorded trace into a total (epsilon, delta) spend.

    The audit runs the same :func:`compose` as calibration, on the records
    actually released rather than on the plan. Linear and advanced read each
    record's ``eps_i`` label (and a Gaussian record's ``delta_i``). zCDP and
    the moments accountant read ``TraceRecord.zcdp_rho``, sensitivity^2/
    (2 beta) for a Gaussian record; the moments accountant reads a Laplace
    record's ``eps_i``. Records are charged per group
    (``AccountingTrace.charges``): a parallel group, e.g. the k centroids of
    one k-means iteration, reads disjoint cells of the data, so a
    neighbouring pair moves one member's input and the group costs its most
    expensive member. Every other record is a group of one.
    """
    return compose(trace.charges(), method, delta, max_order=max_order)


def zcdp_rho(plan: CompositionPlan, eps_i: float,
             sigma_by_param: dict[str, tuple[float, float]] | None = None) -> float:
    """Total zCDP parameter of the schedule.

    Laplace releases contribute eps_i^2/2 each; Gaussian releases contribute
    sens^2/(2 sigma^2), itemized per parameter class.
    """
    return charge_rho(plan.charges(eps_i, sigma_by_param))


def linear_compose(plan: CompositionPlan, eps_i: float) -> PrivacyBudget:
    """Budgets add up: (J(2K+1) eps_i, n_gaussian * delta_i)."""
    return compose(plan.charges(eps_i), "linear", 0.0)


def advanced_compose(plan: CompositionPlan, eps_i: float,
                     slack: float) -> PrivacyBudget:
    """Advanced composition over m = J(2K+1) releases with slack delta'."""
    if not 0.0 < slack < 1.0:
        raise ValueError("slack must lie in (0, 1)")
    return compose(plan.charges(eps_i), "advanced", 0.0, slack)


# ---------------------------------------------------------------------------
# calibration: the largest eps_i whose composed schedule fits the budget


def _search(charges_at: Callable[[float], list[tuple]], method: str,
            total: PrivacyBudget, max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Bisect for the largest eps_i in [EPS_I_LO, EPS_I_HI] whose charges
    compose inside ``total`` (the spend grows with eps_i)."""
    def feasible(eps_i: float) -> bool:
        spend = compose(charges_at(eps_i), method, total.delta, max_order=max_order)
        return (spend.epsilon <= total.epsilon
                and spend.delta <= total.delta * (1 + 1e-12))

    lo, hi = EPS_I_LO, EPS_I_HI
    if feasible(hi):
        return hi
    if not feasible(lo):
        raise UnattainableBudgetError(
            "budget unattainable even at the smallest per-iteration eps")
    while hi - lo > SEARCH_REL_TOL * lo:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _calibrate(plan: CompositionPlan, method: str, total: PrivacyBudget,
               max_order: int = DEFAULT_MAX_ORDER) -> float:
    _require_strict(total)
    mass = plan.n_gaussian * plan.delta_i
    if method == "linear":
        # closed form, capped at the Gaussian validity ceiling; a capped
        # schedule spends less than the budget, never more
        if plan.n_mechanisms == 0:
            raise ValueError("empty plan")
        if mass > total.delta:
            raise UnattainableBudgetError(
                f"delta budget {total.delta} below the Gaussian mass {mass}")
        return min(total.epsilon / plan.n_mechanisms, EPS_I_HI)
    rest = total.delta - mass
    if method == "ma" and rest > 0 and math.log(1.0 / rest) / max_order > total.epsilon:
        raise UnattainableBudgetError(
            f"tail bound cannot reach eps={total.epsilon:.4g} with "
            f"max_order={max_order}; needs at least "
            f"{math.ceil(math.log(1.0 / rest) / total.epsilon)} orders"
        )
    return _search(plan.charges, method, total, max_order)


def calibrate(plan: CompositionPlan, total: PrivacyBudget,
              max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Largest eps_i whose composition under ``plan.method`` fits ``total``.

    Linear composition inverts in closed form, eps / J(2K+1). The other
    methods bisect over ``compose(plan.charges(eps_i), ...)``; advanced
    composition takes as its slack the delta left after the Gaussian delta_i
    mass, and the moments accountant evaluates its tail at that same delta.
    """
    return _calibrate(plan, plan.method, total, max_order)


def linear_calibrate(plan: CompositionPlan, total: PrivacyBudget) -> float:
    """Invert linear composition: eps / J(2K+1), capped at ``EPS_I_HI``."""
    return _calibrate(plan, "linear", total)


def advanced_calibrate(plan: CompositionPlan, total: PrivacyBudget) -> float:
    """Largest eps_i whose advanced composition stays inside the budget."""
    return _calibrate(plan, "advanced", total)


def zcdp_calibrate(plan: CompositionPlan, total: PrivacyBudget) -> float:
    """Largest eps_i whose zCDP recomposition stays inside the budget."""
    return _calibrate(plan, "zcdp", total)


def ma_calibrate(plan: CompositionPlan, total: PrivacyBudget,
                 max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Largest eps_i whose moments-accountant tail stays inside the budget."""
    return _calibrate(plan, "ma", total, max_order)


def zcdp_calibrate_pure(n_mechanisms: int, total: PrivacyBudget) -> float:
    """Largest eps_i for n pure-DP releases under zCDP composition; used by
    the private k-means variants, where every release is Laplace."""
    _require_strict(total)
    if n_mechanisms < 1:
        raise ValueError("need at least one mechanism")
    return _search(lambda eps_i: [_laplace_charge(eps_i, n_mechanisms)],
                   "zcdp", total)
