"""Penalized objective and its solver: trust-region Newton steps with a
monotone MM fallback.

With the intercept profiled out, the fit minimizes
F(beta) = 0.5*||y_c - X_c beta||^2 + (alpha/2)*||beta||^2 - lambda*log D(beta).
p is small, so every point the solver visits (the start, each trial and
each MM point) takes one pass of the pair-sum engine, which gives F together
with its gradient g and Hessian H; an accepted trial's g and H are the next
iterate's, so no point is evaluated twice. Each iterate also takes one
eigendecomposition of H, which gives the trial step in closed form: the
Newton step when H is positive definite and that step fits in the trust
radius, else a damped Newton step inside it, so an indefinite H or an
overshooting Newton point still gives a useful trial.
The trial is kept only when the objective does not increase; otherwise the
iterate takes one MM step. The MM step majorizes -lambda*log D by a convex
quadratic built from the quasi-probabilities (the normalized pairwise terms
of D) and the quadratic logistic bound with curvature tanh(u/2)/(4u);
minimizing that surrogate is one weighted ridge solve and never increases
the objective. The fit stops on a scale-free relative gradient, so
``converged`` means stationary.

Every pair sum (D, its gradient and Hessian, and the surrogate's pieces)
comes from the single numpy engine in ``concordance``; there is one solver
path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .concordance import ConcordanceSpec, PairWeights, _pair_sums, _tables_for
from .data_model import StandardizedDesign
from .errors import (
    DimensionMismatch,
    InvalidValue,
    NonFiniteValue,
    NonpositiveConcordance,
    NonSPDSystem,
    SingularDesign,
)

NU_FLOOR = 1e-3


@dataclass(frozen=True)
class PenalizedProblem:
    """Least-squares local objective plus ridge term and rank penalty. The
    parts fixed for one fit are built once, on first use: the dense pair
    weights ``w``, ``xc`` = X_c, ``gram`` = X_c'X_c + alpha I, ``xty`` = X_c'y_c."""

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
        if self.weights.r.shape != (self.design.n,):
            raise DimensionMismatch("weight ranks do not match design rows")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise InvalidValue("lambda must be finite and nonnegative")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidValue("alpha must be finite and nonnegative")
        if self.weights.measure != self.spec.measure:
            raise InvalidValue(f"weights are {self.weights.measure} but the spec "
                               f"asks for {self.spec.measure}")

    @property
    def nu(self):
        return self.spec.nu

    @cached_property
    def w(self):
        return self.weights.w

    @cached_property
    def xc(self):
        x = self.design.x
        return x - x.mean(axis=0)

    @cached_property
    def gram(self):
        return self.xc.T @ self.xc + self.alpha * np.eye(self.design.p)

    @cached_property
    def xty(self):
        return self.xc.T @ (self.y - self.y.mean())


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
    grad_norm: float             # relative gradient ||grad F|| / scale at beta
    evaluations: int             # objective evaluations (start, trials, MM points)


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
        beta = np.linalg.solve(x.T @ x + alpha * np.eye(x.shape[1]), x.T @ yc)
    nu = 0.1 * float(np.linalg.norm(beta))
    if nu < NU_FLOOR:
        warnings.warn(f"default nu {nu:.3g} below floor, using {NU_FLOOR}",
                      stacklevel=2)
        nu = NU_FLOOR
    return nu


def _local_objective(problem, beta0, beta):
    resid = problem.y - beta0 - problem.design.x @ beta
    return 0.5 * float(resid @ resid) + 0.5 * problem.alpha * float(beta @ beta)


def _sums(problem, beta, gradient=False, mm=False, hessian=False):
    """The pair-sum engine on the problem's weights and design tables."""
    return _pair_sums(problem.w, _tables_for(problem.weights, problem.design), beta,
                      problem.nu, gradient=gradient, mm=mm, hessian=hessian)


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
    system on centered data minimizes the surrogate jointly in (beta0, beta).
    A system without a Cholesky factor raises ``NonSPDSystem``."""
    beta = np.asarray(beta, dtype=float)
    system, rhs = problem.gram, problem.xty
    if problem.lam > 0:
        _, _, lin, quad, _ = _sums(problem, beta, mm=True)
        system = system + 2.0 * problem.lam * quad
        rhs = rhs + 0.5 * problem.lam * lin
    try:
        low = np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise NonSPDSystem("MM system is not positive definite") from exc
    beta_new = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
    beta0_new = float(np.mean(problem.y - problem.design.x @ beta_new))
    return beta0_new, beta_new


def surrogate_value(problem, beta0, beta, anchor_beta):
    """Value of the MM quadratic surrogate of the objective, anchored at
    ``anchor_beta``. Touches the objective there and upper-bounds it
    everywhere; used for validating the descent construction."""
    beta = np.asarray(beta, dtype=float)
    anchor_beta = np.asarray(anchor_beta, dtype=float)
    value = _local_objective(problem, beta0, beta)
    if problem.lam > 0:
        d_anchor, _, lin, quad, _ = _sums(problem, anchor_beta, mm=True)

        def quad_part(b):
            return -0.5 * float(lin @ b) + float(b @ quad @ b)

        const = -np.log(d_anchor) - quad_part(anchor_beta)
        value += problem.lam * (quad_part(beta) + const)
    return value


def local_minimizer(problem: PenalizedProblem):
    """Minimizer of the local objective alone (ridge, or OLS when alpha=0)."""
    if problem.alpha > 0:
        beta = np.linalg.solve(problem.gram, problem.xty)
    else:
        beta, _, rank, _ = np.linalg.lstsq(problem.xc, problem.y - problem.y.mean(),
                                           rcond=None)
        if rank < problem.design.p:
            raise SingularDesign("design is rank deficient and alpha = 0")
    beta0 = float(np.mean(problem.y - problem.design.x @ beta))
    return beta0, beta


def _trust_step(evals, evecs, g, radius):
    """Trial step s of the model g's + 0.5*s'Hs, H = evecs diag(evals) evecs'
    (ascending ``evals``), with pred = -(g's + 0.5*s'Hs) and whether s is damped.

    s is the Newton step -H^{-1} g when H is positive definite and that step
    fits in the ``radius`` r, else the damped step -(H + mu I)^{-1} g with
    mu = max(0, -evals[0]) + ||g||/r. Then ||s|| <= r, s minimizes the model
    over the ball of radius ||s||, and pred >= ||g||*min(r, ||g||/||H||)/6,
    the sufficient decrease trust-region convergence needs (Conn, Gould &
    Toint 2000, ch. 6). The shift is added as (evals - min(evals[0], 0)) +
    ||g||/r: in evals + mu, evals[0] + mu rounds to zero once ||g||/r is
    below the rounding of |evals[0]|.
    """
    gt = evecs.T @ g
    if evals[0] > 0:
        st = -gt / evals
        if np.linalg.norm(st) <= radius:
            return evecs @ st, -float(gt @ st + 0.5 * (evals * st) @ st), False
    st = -gt / ((evals - min(evals[0], 0.0)) + np.linalg.norm(gt) / radius)
    return evecs @ st, -float(gt @ st + 0.5 * (evals * st) @ st), True


def _point(problem, beta0, beta):
    """F at (beta0, beta) with D and the gradient and Hessian of F in beta,
    all from one pass of the pair-sum engine; F is formed in the order
    ``penalized_objective`` uses, so both give the same value. D is None
    when lambda = 0 (no pair pass)."""
    value = _local_objective(problem, beta0, beta)
    g = problem.gram @ beta - problem.xty
    lam = problem.lam
    if not lam > 0:
        return value, None, g, problem.gram
    d, dd, _, _, hd = _sums(problem, beta, gradient=True, hessian=True)
    value -= lam * np.log(d)
    g = g - lam * dd / d
    return value, d, g, problem.gram + lam * (np.outer(dd, dd) / (d * d) - hd / d)


def fit_rasper(problem: PenalizedProblem, init=None, tol=1e-8,
               max_iter=500) -> FitResult:
    """Fit the rank-penalized regression by trust-region Newton steps with
    an MM fallback.

    Starts from the local-objective minimizer unless ``init`` is given, which
    guarantees the final objective improves on the unpenalized fit. The
    intercept is profiled, beta0 = mean(y - X beta), at the start as at every
    later point, so only the gradient g and Hessian H of F in beta matter.
    Each trial and each MM point is evaluated by one pair pass (``_point``)
    that gives F, g and H at once, and an accepted point keeps them, so it
    is never evaluated again; the start value is one ``penalized_objective``
    call plus that pass. The fit is converged once
    ||g|| <= ``tol`` * ||X_c' y_c||, a relative gradient that does not change
    with the scale of y. When y is constant X_c' y_c vanishes, and ||g|| at
    the start iterate is the scale instead.

    Otherwise the trial step s (``_trust_step``) is the Newton step when it
    fits in the radius r, else a damped step with ||s|| <= r; pred is its
    model decrease. The first radius r is max(1, ||beta_start||). The trial
    is kept when F there is no larger than at the iterate (``_point`` forms
    F exactly as ``penalized_objective`` does); r doubles when the kept step
    was damped, so r was binding, and the actual decrease exceeds 0.75*pred.
    A rejected trial is replaced by one ``mm_step``, and r shrinks to
    max(||s||/4, ||beta_MM - beta||) when (F - F_trial + delta) / (pred + delta)
    < 0.25, with delta = 10*eps*(|F| + lambda). Near a large-lambda solution
    pred falls below the rounding of lambda*log D, so without delta every
    rejection would shrink r to the tiny MM step and stall the fit there.

    Both moves never increase the objective, so the trace is non-increasing.
    After ``max_iter`` moves without meeting the test the fit returns with
    ``converged=False``. Every problem, with or without marginal tables,
    runs this same loop.
    """
    x = problem.design.x
    beta = local_minimizer(problem)[1] if init is None else np.asarray(init, dtype=float).copy()
    beta0 = float(np.mean(problem.y - x @ beta))
    scale = float(np.linalg.norm(problem.xty))
    if scale <= np.finfo(float).eps * np.linalg.norm(problem.xc) * np.linalg.norm(problem.y):
        scale = None                      # y is constant up to rounding
    value = penalized_objective(problem, beta0, beta)
    trace = [value]
    evaluations = 1
    iters = 0
    _, d, g, hess = _point(problem, beta0, beta)
    radius = max(1.0, float(np.linalg.norm(beta)))
    while True:
        gnorm = float(np.linalg.norm(g))
        if scale is None:
            scale = gnorm
        grad_norm = gnorm / scale if scale > 0 else 0.0
        if grad_norm <= tol or iters == max_iter:
            break
        iters += 1
        evals, evecs = np.linalg.eigh(hess)
        step, pred, damped = _trust_step(evals, evecs, g, radius)
        cand = beta + step
        cand0 = float(np.mean(problem.y - x @ cand))
        evaluations += 1
        try:
            cand_value, *cand_point = _point(problem, cand0, cand)
        except NonpositiveConcordance:
            cand_value = np.inf
        if cand_value <= value:
            if damped and value - cand_value > 0.75 * pred:
                radius *= 2.0
            beta0, beta, value = cand0, cand, cand_value
            d, g, hess = cand_point
            trace.append(value)
            continue
        delta = 10.0 * np.finfo(float).eps * (abs(value) + problem.lam)
        rho = (value - cand_value + delta) / (pred + delta)
        mm0, mm = mm_step(problem, beta0, beta)
        if rho < 0.25:
            radius = max(0.25 * float(np.linalg.norm(step)), float(np.linalg.norm(mm - beta)))
        beta0, beta = mm0, mm
        value, d, g, hess = _point(problem, beta0, beta)
        evaluations += 1
        trace.append(value)
    if d is None and problem.w.any():
        d = _sums(problem, beta)[0]
    return FitResult(
        beta0=beta0,
        beta=beta,
        lam=problem.lam,
        alpha=problem.alpha,
        nu=problem.nu,
        objective_trace=np.asarray(trace),
        concordance=d,
        converged=grad_norm <= tol,
        iterations=iters,
        grad_norm=grad_norm,
        evaluations=evaluations,
    )


def objective_gradient(problem: PenalizedProblem, beta0, beta):
    """Analytic gradient of the penalized objective in (beta0, beta)."""
    x = problem.design.x
    beta = np.asarray(beta, dtype=float)
    resid = problem.y - beta0 - x @ beta
    g0 = -float(resid.sum())
    g = -(x.T @ resid) + problem.alpha * beta
    if problem.lam > 0:
        d, dd, _, _, _ = _sums(problem, beta, gradient=True)
        g -= problem.lam * dd / d
    return g0, g
