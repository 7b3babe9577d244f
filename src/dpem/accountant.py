"""Privacy-loss accounting: the price of each release and their composition.

This is the one module that prices a release: the noise a release of
budget eps_i draws (``laplace_scale``, ``gaussian_sigma``) and the charge
a recorded release costs. Four ways compose Laplace/Gaussian releases into
a total (epsilon, delta) guarantee: linear composition, advanced
composition with a slack term, zCDP (the total rho converts to approximate
DP), and a moments accountant that sums log-MGF bounds of the privacy loss
and minimizes the Markov tail over integer orders.

Calibration and audit share one engine, :func:`compose`, over *charges*:
plain tuples (kind, eps_i, delta_i, rho, count), each one release or one
parallel group at its most expensive member, repeated ``count`` times. A
:class:`CompositionPlan` yields its charges at a given eps_i, a recorded
``mechanisms.AccountingTrace`` one per group. Calibration searches for the
largest eps_i whose plan composes inside the budget, the one plain
bisection finds, bit for bit: secant steps on the spend estimate it, the
bisection is replayed on that estimate, and composing the replay's final
bracket confirms it. The audit composes the trace. Linear and advanced
composition read the ``eps_i`` labels (and the Gaussian ``delta_i``).
zCDP reads ``rho``: eps_i^2/2 for Laplace, sensitivity^2/(2 beta) for
Gaussian. The moments accountant reads a Laplace charge's ``eps_i`` and a
Gaussian charge's ``rho``, whose log moment is (l^2 + l) rho.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnattainableBudgetError

DEFAULT_MAX_ORDER = 512

# Gaussian calibration is only valid for eps_i < 1, so every inversion
# searches this bracket.
EPS_I_LO = 1e-8
EPS_I_HI = 1.0 - 1e-8
SEARCH_REL_TOL = 1e-6
# calibration's secant estimate: at most this many steps, ending once a
# step moves log eps_i by no more than _SECANT_TOL
_SECANT_STEPS = 8
_SECANT_TOL = 1e-6

SCENARIOS = ("llg", "ggg")
METHODS = ("linear", "advanced", "zcdp", "ma")


def gaussian_sigma(sensitivity: float, eps_i: float, delta_i: float) -> float:
    """Minimal Gaussian noise level for one (eps_i, delta_i)-DP release.

    sigma = sensitivity * sqrt(2 log(1.25/delta_i)) / eps_i. Valid only for
    eps_i in (0, 1). Zero sensitivity returns 0 so callers can skip noising.
    """
    if not sensitivity >= 0:  # NaN fails, as in every check here
        raise ValueError("sensitivity must be nonnegative")
    if sensitivity == 0:
        return 0.0
    if not 0.0 < eps_i < 1.0:
        raise ValueError(f"eps_i must lie in (0, 1), got {eps_i}")
    if not 0.0 < delta_i < 1.0:
        raise ValueError(f"delta_i must lie in (0, 1), got {delta_i}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta_i)) / eps_i


def laplace_scale(sensitivity: float, eps_i: float) -> float:
    """Laplace scale b = sensitivity / eps_i for one eps_i-DP release."""
    if not sensitivity >= 0:
        raise ValueError("sensitivity must be nonnegative")
    if not eps_i > 0:
        raise ValueError(f"eps_i must be positive, got {eps_i}")
    return sensitivity / eps_i


@dataclass(frozen=True)
class PrivacyBudget:
    """A total (epsilon, delta) differential-privacy budget.

    Spend reports may carry epsilon == 0 or delta == 0; budgets passed to a
    calibrator must be strictly positive (checked there).
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN fails; inf is an unbounded spend
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
        """The schedule's charges when every release is run at eps_i; a
        kind or class with no release gets no charge.

        Gaussian releases are minimally calibrated by ``gaussian_sigma``, so
        each costs sens^2/(2 sigma^2) = eps_i^2/(4 log(1.25/delta_i))
        whatever its sensitivity, unless ``sigma_by_param`` maps a parameter
        class to its (sensitivity, sigma) pair, itemizing the cost per class.
        """
        if not eps_i >= 0:
            raise ValueError("eps_i must be nonnegative")
        out = [_laplace_charge(eps_i, self.n_laplace)]
        if sigma_by_param is None:
            rho = eps_i ** 2 / (4.0 * math.log(1.25 / self.delta_i))
            out.append(("gaussian", eps_i, self.delta_i, rho, self.n_gaussian))
        else:
            for name, count in self.gaussian_class_counts().items():
                sens, sigma = sigma_by_param[name]
                rho = 0.0 if sens == 0 else sens ** 2 / (2.0 * sigma ** 2)
                out.append(("gaussian", eps_i, self.delta_i, rho, count))
        # a release that never runs costs nothing, even at eps_i = inf
        return [charge for charge in out if charge[-1]]


# ---------------------------------------------------------------------------
# per-mechanism log moments


def laplace_moment(order: int | np.ndarray, eps_i: float) -> float | np.ndarray:
    """Log of the order-th moment of the Laplace privacy loss.

    log[ (l+1)/(2l+1) e^{l eps} + l/(2l+1) e^{-eps(l+1)} ], evaluated with
    logaddexp so large l*eps does not overflow. order 0 gives 0.
    """
    lam = np.asarray(order, dtype=float)
    # each check phrased so that NaN fails it
    if not (lam >= 0).all():
        raise ValueError("order must be nonnegative")
    if not eps_i > 0:
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
    if not (lam >= 0).all():
        raise ValueError("order must be nonnegative")
    if not sensitivity >= 0:
        raise ValueError("sensitivity must be nonnegative")
    if sensitivity == 0:
        out = np.zeros_like(lam)
    else:
        if not sigma > 0:
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


@functools.lru_cache(maxsize=None)
def _order_terms(max_order: int) -> tuple[np.ndarray, ...]:
    """What the moments accountant computes from the orders l = 1..max_order
    alone, cached per max_order and read-only: l, l + 1, the Gaussian log
    moment per unit rho l^2 + l, and the two eps_i-free parts of the Laplace
    log moment, log(l+1) - log(2l+1) and log(l) - log(2l+1), evaluated as
    ``laplace_moment`` evaluates them at l >= 1."""
    orders = np.arange(1, max_order + 1)
    lam = orders.astype(float)
    log_2l_1 = np.log(2.0 * lam + 1.0)
    terms = (lam, lam + 1.0, (orders ** 2 + orders).astype(float),
             np.log(lam + 1.0) - log_2l_1, np.log(lam) - log_2l_1)
    for arr in terms:
        arr.flags.writeable = False
    return terms


def _moment_curve(charges: list[tuple], max_order: int) -> np.ndarray:
    """Total log moment at orders 1..max_order: (l^2 + l) times the Gaussian
    rho, plus one Laplace moment vector per distinct Laplace eps_i, equal
    bit for bit to ``laplace_moment`` at those orders."""
    lam, lam_1, gauss, lap_hi, lap_lo = _order_terms(max_order)
    gauss_rho = 0.0
    laplace_counts: dict[float, int] = {}
    for kind, eps_i, _, rho, count in charges:
        if kind == "laplace":
            laplace_counts[eps_i] = laplace_counts.get(eps_i, 0) + count
        else:
            gauss_rho += count * rho
    curve = gauss * gauss_rho
    for eps_i, count in laplace_counts.items():
        if not eps_i > 0:
            raise ValueError("eps_i must be positive")
        curve += count * np.logaddexp(lap_hi + lam * eps_i, lap_lo - eps_i * lam_1)
    return curve


def _tail_epsilon(values: np.ndarray, delta: float) -> float:
    orders = _order_terms(values.shape[0])[0]
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
    if not rho >= 0:
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
    return PrivacyBudget(*_compose(charges, method, delta, slack, max_order))


def _compose(charges: list[tuple], method: str, delta: float,
             slack: Optional[float], max_order: int) -> tuple[float, float]:
    """:func:`compose`'s (epsilon, delta) as two floats, which calibration's
    search compares without building a budget per step."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if not charges:
        return 0.0, 0.0
    if method == "zcdp":
        rho = sum(count * r for _, _, _, r, count in charges)
        return zcdp_to_dp(rho, delta), delta
    gauss_delta = sum(count * d for _, _, d, _, count in charges if d is not None)
    if method == "linear":
        return sum(count * eps_i for _, eps_i, _, _, count in charges), gauss_delta
    rest = slack if method == "advanced" and slack is not None else delta - gauss_delta
    if rest <= 0:
        raise UnattainableBudgetError(
            f"delta budget {delta} leaves no slack after the Gaussian "
            f"mass {gauss_delta}")
    if method == "ma":
        return _tail_epsilon(_moment_curve(charges, max_order), rest), delta
    eps_set = {eps_i for _, eps_i, *_ in charges}
    if len(eps_set) > 1:
        raise ValueError("advanced composition needs a uniform eps_i")
    eps_i = eps_set.pop()
    m = sum(count for *_, count in charges)
    eps = (m * eps_i * (math.exp(eps_i) - 1.0)
           + math.sqrt(2.0 * m * math.log(1.0 / rest)) * eps_i)
    return eps, rest + gauss_delta


def _trace_charges(trace) -> list[tuple]:
    """The charges (kind, eps_i, delta_i, rho, 1) of a trace, one per
    ``trace.groups()`` group, in one pass over its records.

    rho is eps_i^2/2 for a pure-DP release and sensitivity^2/(2 beta) for a
    Gaussian one. A record outside any parallel group is charged where it
    stands. A parallel group is charged at its first member's place, at its
    most expensive member: the largest eps_i label, Gaussian delta_i and
    rho. A group mixing Laplace and Gaussian members has no such member
    under the moments accountant (neither log moment bounds the other at
    every order) and is refused.
    """
    out = []
    group_at: dict = {}  # (label, iteration) -> index of the group's charge
    for r in trace.records:
        kind, eps_i = r.kind, r.eps_i
        if kind == "laplace":
            delta_i, rho = None, 0.5 * eps_i ** 2
        else:
            delta_i, beta = (r.delta_i if kind == "gaussian" else None), r.beta
            if beta is None or beta == 0.0:
                rho = 0.0 if r.sensitivity == 0 else math.inf
            else:
                rho = r.sensitivity ** 2 / (2.0 * beta)
        if not r.parallel:
            out.append((kind, eps_i, delta_i, rho, 1))
            continue
        key = (r.label, r.iteration)
        slot = group_at.setdefault(key, len(out))
        if slot == len(out):
            out.append((kind, eps_i, delta_i, rho, 1))
            continue
        # a later member: keep the larger of each, as max() over the group
        # in trace order would
        first_kind, top_eps, top_delta, top_rho, _ = out[slot]
        if kind != first_kind:
            raise ValueError("a parallel group mixes Laplace and Gaussian releases")
        if delta_i is None or (top_delta is not None and not delta_i > top_delta):
            delta_i = top_delta
        out[slot] = (kind, eps_i if eps_i > top_eps else top_eps, delta_i,
                     rho if rho > top_rho else top_rho, 1)
    return out


def compose_trace(trace, method: str, delta: float,
                  max_order: int = DEFAULT_MAX_ORDER) -> PrivacyBudget:
    """Recompose a recorded ``mechanisms.AccountingTrace`` into a total
    (epsilon, delta) spend.

    The audit runs the same :func:`compose` as calibration, on the records
    actually released rather than on the plan. Linear and advanced read each
    record's ``eps_i`` label (and a Gaussian record's ``delta_i``). zCDP and
    the moments accountant read the record's rho, sensitivity^2/(2 beta) for
    a Gaussian record; the moments accountant reads a Laplace record's
    ``eps_i``. Records are charged per group (``AccountingTrace.groups``):
    a parallel group, e.g. the k centroids of one k-means iteration, reads
    disjoint cells of the data, so a neighbouring pair moves one member's
    input and the group costs its most expensive member. Every other record
    is a group of one. The charges keep the trace's order, a parallel group
    at its first member.
    """
    return compose(_trace_charges(trace), method, delta, max_order=max_order)


def zcdp_rho(plan: CompositionPlan, eps_i: float,
             sigma_by_param: dict[str, tuple[float, float]] | None = None) -> float:
    """Total zCDP parameter of the schedule.

    Laplace releases contribute eps_i^2/2 each; Gaussian releases contribute
    sens^2/(2 sigma^2), itemized per parameter class.
    """
    charges = plan.charges(eps_i, sigma_by_param)
    return sum(count * rho for _, _, _, rho, count in charges)


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


def _bisect(feasible: Callable[[float], bool]) -> tuple[float, float]:
    """Calibration's bisection of [EPS_I_LO, EPS_I_HI] down to a relative
    width of SEARCH_REL_TOL under ``feasible``: its final (lo, hi)."""
    lo, hi = EPS_I_LO, EPS_I_HI
    while hi - lo > SEARCH_REL_TOL * lo:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _search(charges_at: Callable[[float], list[tuple]], method: str,
            total: PrivacyBudget, max_order: int = DEFAULT_MAX_ORDER) -> float:
    """The largest eps_i in [EPS_I_LO, EPS_I_HI] whose charges compose
    inside ``total``, bit for bit as plain bisection finds it, in a third
    of the compositions.

    The spend grows with eps_i, so a composed eps_i that fits settles every
    midpoint below it, and one that does not every midpoint above it. After
    the two ends, secant steps estimate where the spend meets the budget:
    on log(spend - floor) against log eps_i, with the floor the spend at
    EPS_I_LO (the moments accountant's tail term log(1/delta)/max_order
    keeps its spend near such a floor at small eps_i). The first step
    takes that excess to grow in proportion to eps_i; a step that would
    leave the settled bracket (a, b) takes its log-midpoint. The steps stop
    when one moves log eps_i by at most _SECANT_TOL, after _SECANT_STEPS,
    or when the spend is not above the floor and finite. The bisection
    then runs with each unsettled midpoint taken as the estimate says, and
    composing its final lo and hi checks all of those midpoints at once.
    If a check fails, the bisection runs again and composes every midpoint
    still unsettled; with nothing settled, that is plain bisection.
    """
    eps_cap, delta_cap = total.epsilon, total.delta * (1 + 1e-12)
    a, b = EPS_I_LO, EPS_I_HI  # every eps_i <= a fits, every eps_i >= b not
    spend = math.nan  # the epsilon of the latest composition

    def feasible(eps_i: float) -> bool:
        nonlocal a, b, spend
        spend, delta = _compose(charges_at(eps_i), method, total.delta, None,
                                max_order)
        if spend <= eps_cap and delta <= delta_cap:
            a = eps_i
            return True
        b = eps_i
        return False

    if feasible(EPS_I_HI):
        return EPS_I_HI
    spend_hi = spend
    if not feasible(EPS_I_LO):
        raise UnattainableBudgetError(
            "budget unattainable even at the smallest per-iteration eps")

    floor, guess = spend, None
    if floor < eps_cap and floor < spend_hi < math.inf:
        target = math.log(eps_cap - floor)
        x1, y1 = math.log(EPS_I_HI), math.log(spend_hi - floor)
        x0, y0 = x1 - 1.0, y1 - 1.0
        for step in range(_SECANT_STEPS + 1):
            x = x1 + (target - y1) * (x1 - x0) / (y1 - y0) if y1 != y0 else math.nan
            converged = abs(x - x1) <= _SECANT_TOL  # False for NaN
            if not (converged or math.log(a) < x < math.log(b)):
                x = 0.5 * (math.log(a) + math.log(b))
            eps_i = math.exp(x)
            if converged or step == _SECANT_STEPS:
                guess = eps_i
                break
            if not a < eps_i < b:
                break
            feasible(eps_i)
            if not floor < spend < math.inf:
                break
            x0, y0, x1, y1 = x1, y1, x, math.log(spend - floor)

    if guess is not None:
        lo, hi = _bisect(lambda mid: mid <= a or (mid < b and mid <= guess))
        if (lo <= a or feasible(lo)) and (hi >= b or not feasible(hi)):
            return lo
    return _bisect(lambda mid: mid <= a or (mid < b and feasible(mid)))[0]


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
    methods search over ``compose(plan.charges(eps_i), ...)`` for the
    eps_i that bisection finds (``_search``); advanced
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
