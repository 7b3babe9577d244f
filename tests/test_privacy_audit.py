"""Empirical privacy audit of the private mixture fit with one canary row.

Any event E of a run's output bounds the epsilon the run really spends on
neighbouring datasets D and D': with confidence 95%,
epsilon >= ln((p_lo(D') - delta) / p_hi(D)), where p_lo and p_hi are
Clopper-Pearson bounds at 2.5% per side on how often E fires (Jagielski,
Ullman & Oprea 2020, "Auditing differentially private machine learning").
Here E is "the smallest released weight is below t", or its complement.
The event is chosen on one set of seeds and the bound is measured on
held-out seeds, so the choice cannot inflate it. A fit that reads rows
outside its recorded releases, such as a seed sampled from the data, lets
the canary move the output far more than the claimed epsilon allows.
"""
import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import beta

from dpem.accountant import PrivacyBudget
from dpem.data import BoundedDataset
from dpem.dpem_mog import DpEmConfig, run_dpem_mog

EPS, DELTA = 1.0, 1e-4
ALPHA = 0.025  # per side
SEEDS = {"choose": range(0, 300), "audit": range(5000, 5300)}
THRESHOLDS = np.arange(1, 100) / 200  # 0.005, 0.010, ..., 0.495


@pytest.fixture(scope="module")
def min_weights():
    """Smallest released weight per seed, keyed by (dataset, seed set).

    D is 1000 rows ~ N(0, 0.01^2 I) in d=2; D' sets row 0 to the canary
    (1, 0) at the edge of the unit ball."""
    rows = np.random.default_rng(0).normal(scale=0.01, size=(1000, 2))
    canary = rows.copy()
    canary[0] = (1.0, 0.0)
    cfg = DpEmConfig(components=2, iterations=1, total=PrivacyBudget(EPS, DELTA),
                     scenario="ggg", method="zcdp", estimator="mle")
    out = {}
    for name, X in (("D", rows), ("D'", canary)):
        data = BoundedDataset(X)
        for part, seeds in SEEDS.items():
            out[name, part] = np.array([
                run_dpem_mog(data, dataclasses.replace(cfg, seed=s))[0].weights.min()
                for s in seeds])
    return out


def eps_lower_bound(fires_a: int, fires_b: int, n: int) -> float:
    """ln((CP_lo(a) - delta) / CP_hi(b)) for an event that fired fires_a of
    n times on dataset a and fires_b of n times on b; -inf without evidence."""
    lo = beta.ppf(ALPHA, fires_a, n - fires_a + 1) if fires_a > 0 else 0.0
    hi = beta.ppf(1 - ALPHA, fires_b + 1, n - fires_b) if fires_b < n else 1.0
    return math.log((lo - DELTA) / hi) if lo > DELTA else -math.inf


def audited_epsilon(weights: dict, a: str, b: str) -> float:
    """The held-out bound of the event that bounds epsilon best on the
    choosing seeds, for the direction a over b."""
    def bound(t, below, part):
        fires = [int(((weights[name, part] < t) == below).sum()) for name in (a, b)]
        return eps_lower_bound(*fires, len(SEEDS[part]))

    t, below = max(((t, below) for t in THRESHOLDS for below in (True, False)),
                   key=lambda event: bound(*event, "choose"))
    return bound(t, below, "audit")


@pytest.mark.parametrize("a,b", [("D'", "D"), ("D", "D'")])
def test_canary_audit_stays_within_claimed_epsilon(min_weights, a, b):
    assert audited_epsilon(min_weights, a, b) <= EPS
