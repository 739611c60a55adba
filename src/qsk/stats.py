"""Monte-Carlo estimate containers and error propagation helpers.

All estimators in this package report a value together with a standard error
derived either from the delta method (smooth functions of sample means), a
binomial count, or a leave-one-out jackknife for ratio statistics.
"""

import warnings
from dataclasses import dataclass, asdict

import numpy as np

#: below this effective sample size, reweighted estimates are flagged
ESS_FLOOR = 100.0


class EffectiveSampleSizeWarning(UserWarning):
    """The importance weights have collapsed onto too few paths."""


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte-Carlo estimate: value +- std_err from n_samples draws."""

    value: float
    std_err: float
    n_samples: int
    seed: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("estimate value must be finite")
        if not (self.std_err >= 0.0):
            raise ValueError("std_err must be >= 0")
        if self.n_samples < 2:
            raise ValueError("need at least two samples")

    def to_dict(self):
        return asdict(self)

    def agrees_with(self, other_value, n_sigma=3.0):
        """|value - other_value| within n_sigma standard errors."""
        return abs(self.value - float(other_value)) <= n_sigma * self.std_err


def mean_with_err(samples, seed=None):
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    se = samples.std(ddof=1) / np.sqrt(n)
    return EstimateWithError(float(samples.mean()), float(se), n, seed)


def frequency_with_err(hits, n, seed=None):
    """Binomial frequency estimate with the usual sqrt(p(1-p)/n) error."""
    p = hits / n
    se = np.sqrt(max(p * (1.0 - p), 1.0 / n) / n)  # floor keeps se > 0 at p in {0,1}
    return EstimateWithError(float(p), float(se), int(n), seed)


def log_mean_exp(log_terms, label, seed=None):
    """ln((1/n) sum e^{x_i}) with a delta-method standard error.

    Returns ``(estimate, ess)``.  An EffectiveSampleSizeWarning naming
    ``label`` fires when the ESS, (sum w)^2 / sum w^2 for the weights
    w = e^{x_i}, drops below ESS_FLOOR.
    """
    lw = np.asarray(log_terms, dtype=float)
    n = lw.size
    shift = lw.max()
    u = np.exp(lw - shift)
    ubar = u.mean()
    value = shift + np.log(ubar)
    se = u.std(ddof=1) / (ubar * np.sqrt(n))
    ess = float(u.sum() ** 2 / np.square(u).sum())
    if ess < ESS_FLOOR:
        warnings.warn(
            "%s: effective sample size %.1f < %.0f; estimate is unreliable"
            % (label, ess, ESS_FLOOR),
            EffectiveSampleSizeWarning,
            stacklevel=2,
        )
    return EstimateWithError(float(value), float(se), n, seed), ess


def jackknife_se(loo_values):
    """Standard error from an array of leave-one-out estimates."""
    theta = np.asarray(loo_values, dtype=float)
    n = theta.size
    return float(np.sqrt((n - 1) / n * np.square(theta - theta.mean()).sum()))
