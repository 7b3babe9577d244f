"""Reference computations and output checks, written apart from the program.

Nothing here imports ``dpem``. Every formula is re-derived from its
definition with numpy and math, and each ``check_*`` function compares one
program output with that reference, or with a property the method must have.
Program outputs are read only through their public attributes (a trace
record's ``kind``, ``sensitivity``, ``noise_scale``, ...). A failed check
raises :class:`CheckError`.
"""
from __future__ import annotations

import math

import numpy as np

# Default MAP prior of a d-dimensional K-component mixture: Dirichlet(2) on
# the weights, normal-inverse-Wishart with kappa0 = 1, nu0 = d + 2 and
# S0 = 0.1 I on each (mean, covariance).
ALPHA, KAPPA0, S0_SCALE = 2.0, 1.0, 0.1
# Counts are floored at one point before they divide, as the program's
# COUNT_FLOOR in dpem.mechanisms (mixtures) and dpem.kmeans does.
COUNT_FLOOR = 1.0


class CheckError(Exception):
    """A program output disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def require_close(got: float, want: float, rel: float, what: str) -> None:
    """|got - want| <= rel * max(|got|, |want|); equal values always pass."""
    if got == want:
        return
    if not abs(got - want) <= rel * max(abs(got), abs(want)):
        raise CheckError(f"{what}: got {got!r}, reference {want!r} (rel tol {rel})")


# ---------------------------------------------------------------------------
# Gaussian mixtures


def log_joint(X, weights, means, covs):
    """(N, K) log w_k + log N(x_i | mu_k, Sigma_k) via Cholesky, and the
    (N, K) float64 error bound of each entry: unit roundoff x cond(Sigma_k)
    x (Mahalanobis term + d)."""
    n, d = X.shape
    out, bound = np.empty((n, len(weights))), np.empty((n, len(weights)))
    with np.errstate(divide="ignore"):
        log_w = np.log(np.asarray(weights, dtype=float))
    for k in range(len(weights)):
        chol = np.linalg.cholesky(covs[k])
        z = np.linalg.solve(chol, (X - means[k]).T)
        maha = (z * z).sum(axis=0)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        out[:, k] = log_w[k] - 0.5 * (d * math.log(2.0 * math.pi) + log_det + maha)
        bound[:, k] = np.finfo(float).eps * np.linalg.cond(covs[k]) * (maha + d)
    return out, bound


def row_log_sum_exp(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=1, keepdims=True)
    return (top + np.log(np.exp(a - top).sum(axis=1, keepdims=True)))[:, 0]


def responsibilities(X, weights, means, covs) -> np.ndarray:
    lj, _ = log_joint(X, weights, means, covs)
    return np.exp(lj - row_log_sum_exp(lj)[:, None])


def clamp_eigenvalues(mat: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() >= floor:
        return mat
    out = (vecs * np.maximum(vals, floor)) @ vecs.T
    return 0.5 * (out + out.T)


def map_em_step(X, weights, means, covs, floor: float):
    """One noise-free step of the private MAP-EM path under the default prior.

    Counts enter the mean and covariance denominators floored at
    ``COUNT_FLOOR``; the covariance is rebuilt around the new mean and its
    eigenvalues are clamped up to ``floor``.
    """
    n, d = X.shape
    K = len(weights)
    gamma = responsibilities(X, weights, means, covs)
    counts = gamma.sum(axis=0)
    w = (counts + ALPHA - 1.0) / (n + K * ALPHA - K)
    w = w / w.sum()
    floored = np.maximum(counts, COUNT_FLOOR)
    first = gamma.T @ X
    mu = first / (floored + KAPPA0)[:, None]
    sigma = np.empty((K, d, d))
    for k in range(K):
        scatter = (X * gamma[:, k:k + 1]).T @ X
        num = S0_SCALE * np.eye(d) + scatter \
            - (floored[k] + KAPPA0) * np.outer(mu[k], mu[k])
        cov = num / (floored[k] + (d + 2.0) + d + 2.0)
        sigma[k] = clamp_eigenvalues(0.5 * (cov + cov.T), floor)
    return w, mu, sigma


def check_mixture_params(params, floor: float) -> None:
    """Released weights on the simplex; covariances symmetric, eigenvalues >= floor."""
    w = np.asarray(params.weights)
    require(bool((w >= 0.0).all()) and abs(w.sum() - 1.0) <= 1e-9,
            f"weights off the simplex: {w!r}")
    for k, cov in enumerate(params.covariances):
        require(np.array_equal(cov, cov.T), f"covariance {k} is not symmetric")
        slack = 1e-9 * max(1.0, float(np.abs(cov).max()))
        low = float(np.linalg.eigvalsh(cov).min())
        require(low >= floor - slack,
                f"covariance {k} has eigenvalue {low:.3e} below the floor {floor:.1e}")


def check_e_step(X, params, gamma) -> None:
    """Program responsibilities agree with the reference to 1e-9 per row,
    widened by the float64 error their log densities may carry.

    An error e_k in log joint k moves responsibility k by
    gamma_k * sum_j gamma_j (e_k - e_j) to first order, so the widening is
    gamma_k (B_k + sum_j gamma_j B_j) for the error bounds B of
    ``log_joint``: a component with no responsibility in a row adds
    nothing there, however ill-conditioned its covariance.
    """
    lj, bound = log_joint(X, params.weights, params.means, params.covariances)
    want = np.exp(lj - row_log_sum_exp(lj)[:, None])
    spread = want * (bound + (want * bound).sum(axis=1, keepdims=True))
    tol = 1e-9 + spread.max(axis=1)
    err = np.abs(np.asarray(gamma) - want).max(axis=1)
    worst = int(np.argmax(err - tol))
    require(err[worst] <= tol[worst],
            f"responsibilities of row {worst} differ from the reference by "
            f"{err[worst]:.3e} > {tol[worst]:.3e}")


def check_log_likelihood(X, params, per_point: float) -> None:
    """Per-point test log-likelihood agrees with the reference to 1e-9
    relative, widened by the responsibility-weighted error bound of each
    row's log densities (the first-order error of a log-sum-exp)."""
    lj, bound = log_joint(X, params.weights, params.means, params.covariances)
    norm = row_log_sum_exp(lj)
    want = float(norm.sum()) / len(X)
    gamma = np.exp(lj - norm[:, None])
    tol = 1e-9 * abs(want) + float((gamma * bound).sum(axis=1).mean())
    require(abs(per_point - want) <= tol,
            f"test log-likelihood per point {per_point!r} differs from the "
            f"reference {want!r} by more than {tol:.3e}")


def check_map_step(X, before, after, floor: float) -> None:
    """The J-iteration noise-free output is one MAP-EM step of the (J-1) one."""
    w, mu, sigma = map_em_step(X, before.weights, before.means,
                               before.covariances, floor)
    for name, got, want in (("weights", after.weights, w), ("means", after.means, mu),
                            ("covariances", after.covariances, sigma)):
        err = float(np.abs(np.asarray(got) - want).max())
        scale = max(1.0, float(np.abs(want).max()))
        require(err <= 1e-9 * scale,
                f"noise-free {name} differ from one MAP-EM step by {err:.3e}")


# ---------------------------------------------------------------------------
# privacy accounting of recorded traces


def laplace_log_moment(orders: np.ndarray, eps: float) -> np.ndarray:
    """log[(l+1)/(2l+1) e^{l eps} + l/(2l+1) e^{-eps (l+1)}] at each order l."""
    lam = np.asarray(orders, dtype=float)
    a = np.log((lam + 1.0) / (2.0 * lam + 1.0)) + lam * eps
    b = np.log(lam / (2.0 * lam + 1.0)) - eps * (lam + 1.0)
    return np.logaddexp(a, b)


def gaussian_log_moment(orders: np.ndarray, sens: float, sigma: float) -> np.ndarray:
    lam = np.asarray(orders, dtype=float)
    return (lam * lam + lam) * sens * sens / (2.0 * sigma * sigma)


def zcdp_to_eps(rho: float, delta: float) -> float:
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def advanced_eps(m: int, eps_i: float, slack: float) -> float:
    return m * eps_i * math.expm1(eps_i) \
        + math.sqrt(2.0 * m * math.log(1.0 / slack)) * eps_i


def ma_tail(curve: np.ndarray, delta: float) -> float:
    orders = np.arange(1, curve.shape[0] + 1)
    return float(((curve + math.log(1.0 / delta)) / orders).min())


def trace_groups(records) -> list[list]:
    """Parallel records sharing (label, iteration) form one group."""
    groups: dict = {}
    for i, r in enumerate(records):
        key = (r.label, r.iteration) if r.parallel else i
        groups.setdefault(key, []).append(r)
    return list(groups.values())


def _rho(r) -> float:
    if r.kind == "laplace":
        return 0.5 * r.eps_i ** 2
    return r.sensitivity ** 2 / (2.0 * r.noise_scale ** 2)


def _log_moment(r, orders) -> np.ndarray:
    if r.kind == "laplace":
        return laplace_log_moment(orders, r.eps_i)
    return gaussian_log_moment(orders, r.sensitivity, r.noise_scale)


def compose(records, method: str, delta: float, max_order: int) -> tuple[float, float]:
    """(epsilon, delta) spend of a trace, each group charged at its costliest member."""
    groups = trace_groups(records)
    gauss_delta = sum(max(r.delta_i for r in g if r.kind == "gaussian")
                      for g in groups if any(r.kind == "gaussian" for r in g))
    if method == "linear":
        return sum(max(r.eps_i for r in g) for g in groups), gauss_delta
    if method == "advanced":
        slack = delta - gauss_delta
        return advanced_eps(len(groups), max(r.eps_i for g in groups for r in g),
                            slack), delta
    if method == "zcdp":
        return zcdp_to_eps(sum(max(_rho(r) for r in g) for g in groups), delta), delta
    # log moments grow with eps_i (Laplace) and with sens^2/sigma^2
    # (Gaussian), so a one-kind group is charged at that member
    orders = np.arange(1, max_order + 1, dtype=float)
    curve = np.zeros(max_order)
    gauss_rho, laplace_eps = 0.0, {}
    for g in groups:
        kinds = {r.kind for r in g}
        if kinds == {"gaussian"}:
            gauss_rho += max(_rho(r) for r in g)
        elif kinds == {"laplace"}:
            eps_i = max(r.eps_i for r in g)
            laplace_eps[eps_i] = laplace_eps.get(eps_i, 0) + 1
        else:
            curve += np.max([_log_moment(r, orders) for r in g], axis=0)
    curve += gauss_rho * (orders * orders + orders)
    for eps_i, count in laplace_eps.items():
        curve += count * laplace_log_moment(orders, eps_i)
    return ma_tail(curve, delta - gauss_delta), delta


def check_audit(records, method: str, total_eps: float, total_delta: float,
                spend, max_order: int, within_budget: bool = True) -> None:
    """``compose_trace`` agrees with the independent group-wise sum to 1e-9
    relative and, where the run was calibrated for this method, stays
    within (eps, delta)."""
    eps, delta = compose(records, method, total_delta, max_order)
    require_close(spend.epsilon, eps, 1e-9, f"{method} audit epsilon")
    require_close(spend.delta, delta, 1e-9, f"{method} audit delta")
    if within_budget:
        require(spend.epsilon <= total_eps * (1.0 + 1e-9)
                and spend.delta <= total_delta * (1.0 + 1e-9),
                f"{method} audit ({spend.epsilon!r}, {spend.delta!r}) exceeds "
                f"({total_eps}, {total_delta})")


# ---------------------------------------------------------------------------
# calibration of a mixture plan: J iterations of K components


def plan_counts(scenario: str, J: int, K: int) -> tuple[int, int]:
    """(Laplace, Gaussian) releases: llg = J(K+1) Laplace + JK Gaussian,
    ggg = J(2K+1) Gaussian."""
    if scenario == "llg":
        return J * (K + 1), J * K
    return 0, J * (2 * K + 1)


def plan_eps(method: str, n_lap: int, n_gauss: int, eps_i: float, delta: float,
             delta_i: float, max_order: int) -> float:
    """Total epsilon of a plan of minimally calibrated releases at eps_i."""
    m = n_lap + n_gauss
    log_g = math.log(1.25 / delta_i)
    if method == "linear":
        return m * eps_i
    if method == "advanced":
        return advanced_eps(m, eps_i, delta - n_gauss * delta_i)
    if method == "zcdp":
        return zcdp_to_eps(n_lap * eps_i ** 2 / 2.0
                           + n_gauss * eps_i ** 2 / (4.0 * log_g), delta)
    orders = np.arange(1, max_order + 1, dtype=float)
    curve = n_lap * laplace_log_moment(orders, eps_i) \
        + n_gauss * (orders * orders + orders) * eps_i ** 2 / (4.0 * log_g)
    return ma_tail(curve, delta - n_gauss * delta_i)


def zcdp_rho_for(eps: float, delta: float) -> float:
    """The rho whose zCDP-to-DP conversion is exactly eps."""
    log_d = math.log(1.0 / delta)
    return (math.sqrt(log_d + eps) - math.sqrt(log_d)) ** 2


def closed_form_eps_i(method: str, n_lap: int, n_gauss: int, eps: float,
                      delta: float, delta_i: float, cap: float) -> float:
    """Largest eps_i for linear (eps / m) or zCDP composition, capped."""
    if method == "linear":
        return min(eps / (n_lap + n_gauss), cap)
    coef = n_lap / 2.0 + n_gauss / (4.0 * math.log(1.25 / delta_i))
    return min(math.sqrt(zcdp_rho_for(eps, delta) / coef), cap)


def search_eps_i(method: str, n_lap: int, n_gauss: int, eps: float, delta: float,
                 delta_i: float, max_order: int, cap: float) -> float:
    """Largest feasible eps_i in (0, cap] by bisection on ``plan_eps``."""
    if plan_eps(method, n_lap, n_gauss, cap, delta, delta_i, max_order) <= eps:
        return cap
    lo, hi = 0.0, cap
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if plan_eps(method, n_lap, n_gauss, mid, delta, delta_i, max_order) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


def check_calibration(method: str, n_lap: int, n_gauss: int, eps: float,
                      delta: float, delta_i: float, max_order: int,
                      eps_i: float, tol: float, cap: float) -> None:
    """Linear and zCDP match their closed forms to ``tol`` and never exceed
    them; advanced and MA are feasible at eps_i and infeasible at
    eps_i (1 + 10 tol) unless eps_i sits at the cap."""
    if method in ("linear", "zcdp"):
        want = closed_form_eps_i(method, n_lap, n_gauss, eps, delta, delta_i, cap)
        require_close(eps_i, want, tol, f"{method} calibration")
        require(eps_i <= want * (1.0 + 1e-12),
                f"{method} calibration {eps_i!r} exceeds its closed form {want!r}")
        return
    spend = plan_eps(method, n_lap, n_gauss, eps_i, delta, delta_i, max_order)
    require(spend <= eps * (1.0 + 1e-12),
            f"{method} calibration {eps_i!r} is infeasible: spends {spend!r} > {eps}")
    if eps_i < cap:
        above = eps_i * (1.0 + 10.0 * tol)
        spend = plan_eps(method, n_lap, n_gauss, above, delta, delta_i, max_order)
        require(spend > eps, f"{method} calibration {eps_i!r} is loose: "
                             f"{above!r} still spends only {spend!r} <= {eps}")


# ---------------------------------------------------------------------------
# k-means


def sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return np.stack([((X - c) ** 2).sum(axis=1) for c in centers], axis=1)


def check_labels(X, centers, labels) -> None:
    """Every label names a nearest centre (ties to 1e-12 allowed)."""
    dist = sq_dists(X, np.asarray(centers))
    got = dist[np.arange(len(X)), np.asarray(labels)]
    gap = float((got - dist.min(axis=1)).max())
    require(gap <= 1e-12, f"a label misses its nearest centre by {gap:.3e}")


def check_nicv(X, centers, value: float) -> None:
    want = float(sq_dists(X, np.asarray(centers)).min(axis=1).mean())
    require_close(value, want, 1e-9, "NICV")


def check_lloyd_step(X, before, after) -> None:
    """Noise-free centres: the floored-count means of the clusters that the
    previous centres label."""
    labels = sq_dists(X, np.asarray(before)).argmin(axis=1)
    want = np.zeros_like(np.asarray(after))
    for c in range(want.shape[0]):
        members = X[labels == c]
        want[c] = members.sum(axis=0) / max(len(members), COUNT_FLOOR)
    err = float(np.abs(np.asarray(after) - want).max())
    require(err <= 1e-12, f"noise-free centres are {err:.3e} off their cluster means")
