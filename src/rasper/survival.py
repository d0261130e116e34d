"""Kaplan-Meier estimation, restricted mean survival time, jackknife
pseudovalues, and the external prostate-cancer nomogram score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, InvalidValue

DEFAULT_TAU = 36.0  # months


@dataclass(frozen=True)
class SurvivalSample:
    """Follow-up times, event indicators, and the truncation horizon tau."""

    times: np.ndarray      # (n,) positive
    events: np.ndarray     # (n,) bool, True = event observed
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        e = np.asarray(self.events, dtype=bool)
        if t.ndim != 1 or t.size < 1:
            raise EmptyData("times must be a nonempty 1-d array")
        if e.shape != t.shape:
            raise EmptyData("events shape must match times")
        if not np.all(t > 0):
            raise InvalidValue("all times must be positive")
        if not 0 < self.tau < np.inf:                   # NaN fails both comparisons
            raise InvalidValue(f"tau must be positive and finite, not {self.tau!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "events", e)

    @property
    def n(self):
        return self.times.shape[0]

    def drop(self, i):
        keep = np.ones(self.n, dtype=bool)
        keep[i] = False
        return SurvivalSample(self.times[keep], self.events[keep], self.tau)


@dataclass(frozen=True)
class KMCurve:
    """Right-continuous product-limit step function; jumps at event times.

    Ties between events and censorings at the same timestamp are resolved
    with events first (censored subjects stay in the risk set for that jump).
    """

    jump_times: np.ndarray    # distinct event times, ascending
    surv: np.ndarray          # S(t) just after each jump

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        vals = np.concatenate([[1.0], self.surv])
        out = vals[idx]
        return float(out) if out.ndim == 0 else out


def km_curve(sample: SurvivalSample) -> KMCurve:
    """Kaplan-Meier product-limit estimator. The risk set at an event time t
    is every subject with time >= t, so censorings tied with t stay in it."""
    t = sample.times
    event_times, deaths = np.unique(t[sample.events], return_counts=True)
    at_risk = t.shape[0] - np.searchsorted(np.sort(t), event_times, side="left")
    return KMCurve(jump_times=event_times, surv=np.cumprod(1.0 - deaths / at_risk))


def rmst(sample: SurvivalSample) -> float:
    """Restricted mean survival time: the area under the KM curve on [0, tau],
    computed exactly as a sum of rectangles between jump points."""
    curve = km_curve(sample)
    tau = sample.tau
    knots = np.concatenate([[0.0], curve.jump_times[curve.jump_times < tau], [tau]])
    heights = np.concatenate([[1.0], curve.surv[curve.jump_times < tau]])
    return float(np.sum(np.diff(knots) * heights))


def pseudovalues(sample: SurvivalSample) -> np.ndarray:
    """Jackknife pseudovalues n*mu - (n-1)*mu^(-i) of the RMST estimate.

    On fully uncensored data these reduce exactly to min(T_i, tau)."""
    n = sample.n
    if n < 2:
        raise EmptyData("pseudovalues need at least 2 observations")
    full = rmst(sample)
    out = np.empty(n)
    for i in range(n):
        out[i] = n * full - (n - 1) * rmst(sample.drop(i))
    return out


@dataclass(frozen=True)
class NomogramInput:
    """Clinical inputs to the external mCRPC nomogram score."""

    psa: float                              # ng/ml
    visceral_mets: bool
    ecog_ge2: bool
    days_to_progression_prior_chemo: float  # days

    def __post_init__(self):
        if self.psa < 0:
            raise InvalidValue("psa must be nonnegative")
        if self.days_to_progression_prior_chemo < 0:
            raise InvalidValue("days to progression must be nonnegative")


def nomogram_score(inp: NomogramInput) -> float:
    """External nomogram risk score on the log-hazard scale (higher = worse).

    For ranking against an RMST outcome (higher = better), callers should
    rank the negated score; the CLI does this explicitly.
    """
    score = 0.0
    if inp.psa > 30.0:
        score += 0.74
    if inp.visceral_mets:
        score += 0.49
    if inp.ecog_ge2:
        score += 0.65
    score += 0.45 * (2.0 - min(2.0, inp.days_to_progression_prior_chemo / 180.0))
    return score
