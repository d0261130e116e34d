"""Hyperparameter grids, leave-one-out cross-validation, effective degrees of
freedom, and AIC-based selection.

The full-data fits and every leave-one-out fold take their weights from
``concordance.problem_weights``, so all of them marginalize by one rule.

Within a grid point every warm fold fit starts at the full fit's beta, so
``loocv_score`` downdates all n start points at once from the full-data
sigma table (``concordance.fold_pair_sums``) and each fold fit makes no
engine pass at its start. Folds with sampled design tables are not
downdated: each fold draws its tables from its own rows, so they are not
row subsets of the full tables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .concordance import (
    ConcordanceSpec,
    PairWeights,
    PairWorkspace,
    _pair_sums,
    fold_pair_sums,
    problem_weights,
)
from .data_model import ExternalRanks, StandardizedDesign
from .errors import FoldFailure, InvalidBounds, RasperError, SingularSystem
from .solver import FitResult, PenalizedProblem, _local_objective, fit_rasper

# Default (min, max) grid bounds as multiples of n, for lambda and for alpha.
LAM_RATIOS = (1e-2, 1e3)
ALPHA_RATIOS = (1e-4, 1e2)


@dataclass(frozen=True)
class HyperGrid:
    """Log-spaced (lambda, alpha) grid with zero prepended to each axis."""

    lam_values: np.ndarray       # (J + 2,), first entry 0
    alpha_values: np.ndarray     # (K + 2,), first entry 0

    @property
    def size(self):
        return len(self.lam_values) * len(self.alpha_values)


def _log_spaced(vmin, vmax, count):
    j = np.arange(1, count + 2)
    return vmin * np.exp((j - 1) * math.log(vmax / vmin) / count)


def build_grid(lam_min, lam_max, j, alpha_min, alpha_max, k) -> HyperGrid:
    """Grid per the log-spacing rule: value_i = min * exp((i-1) log(max/min)/J)
    for i >= 1, with a zero entry prepended. Endpoints land exactly on the
    stated bounds."""
    if not (0 < lam_min < lam_max) or not (0 < alpha_min < alpha_max):
        raise InvalidBounds("require 0 < min < max for both lambda and alpha")
    if j < 1 or k < 1:
        raise InvalidBounds("grid sizes J and K must be >= 1")
    lam = np.concatenate([[0.0], _log_spaced(lam_min, lam_max, j)])
    alpha = np.concatenate([[0.0], _log_spaced(alpha_min, alpha_max, k)])
    return HyperGrid(lam_values=lam, alpha_values=alpha)


def default_grid(n, j=10, k=10, lam_ratios=LAM_RATIOS,
                 alpha_ratios=ALPHA_RATIOS) -> HyperGrid:
    """J x K grid whose bounds are the ratios times n, which keeps
    penalty-to-loss ratios comparable across sample sizes."""
    return build_grid(lam_ratios[0] * n, lam_ratios[1] * n, j,
                      alpha_ratios[0] * n, alpha_ratios[1] * n, k)


def fold_weight_cache(design: StandardizedDesign, ranks: ExternalRanks,
                      spec: ConcordanceSpec) -> list[PairWeights]:
    """Weights of every leave-one-out fold, as a list indexed by the
    left-out row: n - 1 ranks per fold, plus the fold's sampled tables when
    marginalized. They depend only on the data, not on (lambda, alpha), so a
    grid search computes them once.

    Each fold's ranks follow from the full-data ranks: under the >=-count
    rule s_j >= s_k exactly when r_j >= r_k, so dropping row k lowers by one
    the rank of every retained row ranked at or above it.
    """
    n = design.n
    cache = []
    for k in range(n):
        keep = np.concatenate([np.arange(k), np.arange(k + 1, n)])
        r = ranks.r[keep]
        cache.append(problem_weights(design.subset(keep),
                                     ExternalRanks(r=r - (r >= ranks.r[k])), spec))
    return cache


def loocv_score(design: StandardizedDesign, y, ranks: ExternalRanks,
                spec: ConcordanceSpec, lam, alpha, *,
                warm: FitResult | None = None, fold_cache=None) -> float:
    """Mean held-out half squared error over the n leave-one-out refits.

    The held-out loss ignores the ridge term. Row subsets keep the full-data
    standardization so the hat-matrix identity holds exactly at lam=alpha=0.
    Fold fits that stop without converging still count toward the score;
    one ``RuntimeWarning`` per call names how many there were. Without a
    ``fold_cache`` the fold weights are built here by ``fold_weight_cache``.

    With a ``warm`` fit, lambda > 0 and folds without sampled tables, every
    fold starts from its slice of one ``fold_pair_sums`` call at
    ``warm.beta``; a fold whose downdated D is not positive fails with the
    error its engine pass would raise. Cold folds (no ``warm``) and
    marginalized folds, whose tables are drawn from the fold's own rows,
    make one engine pass at their start. lambda = 0 folds make no pass while
    fitting; each makes one value pass at the end, for the D it reports.
    """
    y = np.asarray(y, dtype=float)
    n = design.n
    if n < 3:
        raise FoldFailure("leave-one-out needs at least 3 rows")
    if fold_cache is None:
        fold_cache = fold_weight_cache(design, ranks, spec)
    init = warm.beta if warm is not None else None
    starts = None
    if init is not None and lam > 0 and fold_cache[0].tables is None:
        starts = fold_pair_sums(ranks.r, spec.measure, design.x, init, spec.nu)
    total = 0.0
    failed = []
    unconverged = 0
    for i in range(n):
        keep = np.concatenate([np.arange(i), np.arange(i + 1, n)])
        try:
            problem = PenalizedProblem(design=design.subset(keep), y=y[keep],
                                       weights=fold_cache[i], spec=spec,
                                       lam=float(lam), alpha=float(alpha))
            start = None if starts is None else tuple(a[i] for a in starts)
            fit = fit_rasper(problem, init=init, start=start)
        except RasperError as exc:
            failed.append((i, str(exc)))
            continue
        unconverged += not fit.converged
        pred = fit.beta0 + design.x[i] @ fit.beta
        total += 0.5 * (y[i] - pred) ** 2
    if unconverged:
        warnings.warn(f"{unconverged} of {n} fold fits did not converge at "
                      f"lambda={float(lam):g}, alpha={float(alpha):g}",
                      RuntimeWarning, stacklevel=2)
    if failed:
        raise FoldFailure(f"{len(failed)} of {n} folds failed: {failed[:3]}")
    return total / n


def degrees_of_freedom(design: StandardizedDesign, weights: PairWeights,
                       nu, lam, alpha) -> float:
    """Effective degrees of freedom of the one-step smoother at beta = 0.

    Trace of (X'X + alpha I + lam * M0)^{-1} X'X, where M0 is the surrogate
    curvature at beta = 0: quasi-probabilities w_k / sum(w) times the
    logistic-bound curvature 1/8 on each scaled pair difference. M0 is
    taken on the observed design even for marginalized weights. It is the
    pair-sum engine's ``quad`` at beta = 0, where every sigma is 1/2 and every
    curvature 1/8, from one pass on a workspace of the observed design; with
    all weights zero (all-tied Kendall ranks) the penalty adds nothing.
    """
    x = design.x
    p = design.p
    xtx = x.T @ x
    system = xtx + alpha * np.eye(p)
    if lam > 0:
        work = PairWorkspace(x[None], weights.r, weights.measure)
        if work.live:
            system = system + lam * _pair_sums(work, np.zeros(p), nu, mm=True)[3]
    try:
        sol = np.linalg.solve(system, xtx)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("degrees-of-freedom system is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("degrees-of-freedom system is singular")
    return float(np.trace(sol))


def aic(problem: PenalizedProblem, fit: FitResult, df) -> float:
    """AIC = 2 * L_I(beta0, beta; alpha) + 2 * df, ridge term included."""
    return 2.0 * _local_objective(problem, fit.beta0, fit.beta) + 2.0 * float(df)


@dataclass
class GridRecord:
    lam: float
    alpha: float
    loo: float
    df: float
    aic: float
    df_flagged: bool
    fit: FitResult


@dataclass
class SelectionReport:
    records: list[GridRecord]
    criterion: str
    chosen: GridRecord

    def to_rows(self):
        rows = []
        for rec in self.records:
            rows.append({
                "lambda": rec.lam,
                "alpha": rec.alpha,
                "loo": rec.loo,
                "df": rec.df,
                "aic": rec.aic,
                "df_flagged": rec.df_flagged,
                "objective": float(rec.fit.objective_trace[-1]),
                "iterations": rec.fit.iterations,
                "converged": rec.fit.converged,
                "grad_norm": rec.fit.grad_norm,
                "evaluations": rec.fit.evaluations,
                "chosen": rec is self.chosen,
            })
        return rows


def select(design: StandardizedDesign, y, ranks: ExternalRanks,
           spec: ConcordanceSpec, grid: HyperGrid, criterion="loocv") -> SelectionReport:
    """Evaluate the criterion at every grid point and return the argmin.

    Fits are warm-started along increasing lambda within each alpha. Ties
    break toward smaller lambda, then smaller alpha. Points with a flagged
    (singular) degrees-of-freedom system are excluded from AIC selection.
    """
    if criterion not in ("loocv", "aic"):
        raise ValueError(f"unknown criterion {criterion!r}")
    y = np.asarray(y, dtype=float)
    base_w = problem_weights(design, ranks, spec)
    fold_cache = None
    if criterion == "loocv":
        fold_cache = fold_weight_cache(design, ranks, spec)

    records = []
    for alpha in grid.alpha_values:
        warm = None
        for lam in grid.lam_values:
            problem = PenalizedProblem(design=design, y=y, weights=base_w,
                                       spec=spec, lam=float(lam), alpha=float(alpha))
            fit = fit_rasper(problem, init=warm.beta if warm is not None else None)
            warm = fit
            flagged = False
            try:
                df = degrees_of_freedom(design, base_w, spec.nu, lam, alpha)
            except SingularSystem:
                df, flagged = float(design.p), True
            aic_val = aic(problem, fit, df)
            if criterion == "loocv":
                loo = loocv_score(design, y, ranks, spec, lam, alpha,
                                  warm=fit, fold_cache=fold_cache)
            else:
                loo = float("nan")
            records.append(GridRecord(lam=float(lam), alpha=float(alpha),
                                      loo=loo, df=df, aic=aic_val,
                                      df_flagged=flagged, fit=fit))

    def key(rec):
        return rec.loo if criterion == "loocv" else rec.aic

    eligible = [r for r in records
                if not (criterion == "aic" and r.df_flagged)
                and math.isfinite(key(r))]
    if not eligible:
        raise FoldFailure("no eligible grid points for selection")
    chosen = min(eligible, key=lambda r: (key(r), r.lam, r.alpha))
    return SelectionReport(records=records, criterion=criterion, chosen=chosen)
