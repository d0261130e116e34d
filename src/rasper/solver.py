"""Penalized objective and the monotone MM solver.

The rank penalty -lambda*log D is majorized, at the current iterate, by a
convex quadratic built from two ingredients: quasi-probabilities obtained by
normalizing the pairwise terms of D, and the quadratic logistic bound with
curvature tanh(u/2)/(4u). Minimizing the resulting surrogate is one weighted
ridge solve per iteration, and the objective can never increase.

Every pair sum (D, its gradient and the surrogate's pieces) comes from the
single numpy engine in ``concordance``; there is one solver path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .concordance import ConcordanceSpec, PairWeights, _pair_sums, _tables_for
from .data_model import StandardizedDesign
from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonpositiveConcordance,
    NonSPDSystem,
    SingularDesign,
)

NU_FLOOR = 1e-3


@dataclass(frozen=True)
class PenalizedProblem:
    """Least-squares local objective plus ridge term and rank penalty."""

    design: StandardizedDesign
    y: np.ndarray
    weights: PairWeights
    spec: ConcordanceSpec
    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.y.shape[0] != self.design.n:
            raise DimensionMismatch("y length does not match design rows")
        if not np.all(np.isfinite(self.y)):
            raise NonFiniteValue("outcome y contains NaN or infinite values")
        if self.weights.w.shape != (self.design.n, self.design.n):
            raise DimensionMismatch("weight matrix shape does not match design")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be finite and nonnegative")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and nonnegative")

    @property
    def nu(self):
        return self.spec.nu


@dataclass(frozen=True)
class FitResult:
    beta0: float
    beta: np.ndarray
    lam: float
    alpha: float
    nu: float
    objective_trace: np.ndarray
    concordance: float | None
    converged: bool
    iterations: int
    warm_start: str = "local-minimizer"


def jj_coefficient(u):
    """Curvature of the quadratic logistic bound: tanh(u/2)/(4u).

    Even, positive, maximized at u = 0 with value 1/8; a short series is used
    near zero. Accepts scalars or arrays.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) <= 1e-4
    safe = np.where(small, 1.0, u)
    out = np.where(small, 0.125 - u * u / 96.0, np.tanh(safe / 2.0) / (4.0 * safe))
    if out.ndim == 0:
        return float(out)
    return out


def default_nu(design: StandardizedDesign, y) -> float:
    """Default smoothing scale: 0.1 times the norm of the unpenalized
    least-squares coefficients, with a ridge fallback for singular designs
    and a floor when the fit is exactly zero."""
    x = design.x
    n = x.shape[0]
    y = np.asarray(y, dtype=float)
    yc = y - y.mean()
    beta, _, rank, _ = np.linalg.lstsq(x, yc, rcond=None)
    if rank < x.shape[1]:
        warnings.warn("singular design: default nu falls back to a ridge fit",
                      stacklevel=2)
        alpha = 1e-4 * n
        beta = scipy.linalg.solve(x.T @ x + alpha * np.eye(x.shape[1]), x.T @ yc,
                                  assume_a="pos")
    nu = 0.1 * float(np.linalg.norm(beta))
    if nu < NU_FLOOR:
        warnings.warn(f"default nu {nu:.3g} below floor, using {NU_FLOOR}",
                      stacklevel=2)
        nu = NU_FLOOR
    return nu


def _local_objective(problem, beta0, beta):
    resid = problem.y - beta0 - problem.design.x @ beta
    return 0.5 * float(resid @ resid) + 0.5 * problem.alpha * float(beta @ beta)


def _sums(problem, beta, gradient=False, mm=False):
    """The pair-sum engine on the problem's weights and design tables."""
    w = problem.weights
    return _pair_sums(w.w, _tables_for(w, problem.design), beta, problem.nu,
                      gradient=gradient, mm=mm)


def penalized_objective(problem: PenalizedProblem, beta0, beta) -> float:
    """0.5*RSS + (alpha/2)*||beta||^2 - lambda*log D."""
    beta = np.asarray(beta, dtype=float)
    value = _local_objective(problem, beta0, beta)
    if problem.lam > 0:
        value -= problem.lam * np.log(_sums(problem, beta)[0])
    return value


def mm_step(problem: PenalizedProblem, beta0, beta):
    """One majorize-minimize update: the intercept is profiled out (neither
    the pair differences nor the penalties involve it), so solving the SPD
    system on centered data minimizes the surrogate jointly in (beta0, beta)."""
    x = problem.design.x
    beta = np.asarray(beta, dtype=float)
    xc = x - x.mean(axis=0)
    yc = problem.y - problem.y.mean()
    system = xc.T @ xc + problem.alpha * np.eye(problem.design.p)
    rhs = xc.T @ yc
    if problem.lam > 0:
        _, _, lin, quad = _sums(problem, beta, mm=True)
        system = system + 2.0 * problem.lam * quad
        rhs = rhs + 0.5 * problem.lam * lin
    try:
        cho = scipy.linalg.cho_factor(system)
        beta_new = scipy.linalg.cho_solve(cho, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise NonSPDSystem("MM system is not positive definite") from exc
    beta0_new = float(np.mean(problem.y - x @ beta_new))
    return beta0_new, beta_new


def surrogate_value(problem, beta0, beta, anchor_beta):
    """Value of the MM quadratic surrogate of the objective, anchored at
    ``anchor_beta``. Touches the objective there and upper-bounds it
    everywhere; used for validating the descent construction."""
    beta = np.asarray(beta, dtype=float)
    anchor_beta = np.asarray(anchor_beta, dtype=float)
    value = _local_objective(problem, beta0, beta)
    if problem.lam > 0:
        d_anchor, _, lin, quad = _sums(problem, anchor_beta, mm=True)

        def quad_part(b):
            return -0.5 * float(lin @ b) + float(b @ quad @ b)

        const = -np.log(d_anchor) - quad_part(anchor_beta)
        value += problem.lam * (quad_part(beta) + const)
    return value


def local_minimizer(problem: PenalizedProblem):
    """Minimizer of the local objective alone (ridge, or OLS when alpha=0)."""
    x = problem.design.x
    xc = x - x.mean(axis=0)
    yc = problem.y - problem.y.mean()
    if problem.alpha > 0:
        beta = scipy.linalg.solve(xc.T @ xc + problem.alpha * np.eye(problem.design.p),
                                  xc.T @ yc, assume_a="pos")
    else:
        beta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
        if rank < problem.design.p:
            raise SingularDesign("design is rank deficient and alpha = 0")
    beta0 = float(np.mean(problem.y - x @ beta))
    return beta0, beta


def fit_rasper(problem: PenalizedProblem, init=None, beta0_init=None,
               tol=1e-8, max_iter=500) -> FitResult:
    """Fit the rank-penalized regression by MM iterations.

    Starts from the local-objective minimizer unless ``init`` is given, which
    guarantees the final objective improves on the unpenalized fit. Stops when
    the relative objective change falls below ``tol``. Every problem, with
    or without marginal tables, runs this same numpy loop.
    """
    if init is None:
        beta0, beta = local_minimizer(problem)
        source = "local-minimizer"
    else:
        beta = np.asarray(init, dtype=float).copy()
        beta0 = float(beta0_init) if beta0_init is not None else \
            float(np.mean(problem.y - problem.design.x @ beta))
        source = "user"
    x = problem.design.x
    trace = [penalized_objective(problem, beta0, beta)]
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        beta0_new, beta_new = mm_step(problem, beta0, beta)
        value = penalized_objective(problem, beta0_new, beta_new)
        # Monotone acceleration: try extrapolating along the MM direction and
        # keep the best candidate; the plain step already guarantees descent,
        # so the trace stays non-increasing.
        step = beta_new - beta
        for factor in (2.0, 4.0, 8.0, 16.0):
            cand = beta + factor * step
            cand0 = float(np.mean(problem.y - x @ cand))
            try:
                cand_val = penalized_objective(problem, cand0, cand)
            except (NonpositiveConcordance, FloatingPointError):
                break
            if cand_val < value:
                value, beta0_new, beta_new = cand_val, cand0, cand
            else:
                break
        beta0, beta = beta0_new, beta_new
        trace.append(value)
        prev, cur = trace[-2], trace[-1]
        if abs(prev - cur) <= tol * (1.0 + abs(prev)):
            converged = True
            break
    d = _sums(problem, beta)[0] if problem.weights.total > 0 else None
    return FitResult(
        beta0=beta0,
        beta=beta,
        lam=problem.lam,
        alpha=problem.alpha,
        nu=problem.nu,
        objective_trace=np.asarray(trace),
        concordance=d,
        converged=converged,
        iterations=iters,
        warm_start=source,
    )


def objective_gradient(problem: PenalizedProblem, beta0, beta):
    """Analytic gradient of the penalized objective in (beta0, beta)."""
    x = problem.design.x
    beta = np.asarray(beta, dtype=float)
    resid = problem.y - beta0 - x @ beta
    g0 = -float(resid.sum())
    g = -(x.T @ resid) + problem.alpha * beta
    if problem.lam > 0:
        d, dd, _, _ = _sums(problem, beta, gradient=True)
        g -= problem.lam * dd / d
    return g0, g
