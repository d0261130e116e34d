"""Penalized objective and its solver: trust-region Newton steps.

With the intercept profiled out, the fit minimizes
F(beta) = 0.5*||y_c - X_c beta||^2 + (alpha/2)*||beta||^2 - lambda*log D(beta).
p is small, so every point the solver visits (the start and each trial)
takes one pass of the pair-sum engine, which gives F together with its
gradient g and Hessian H; an accepted trial's g and H are the next
iterate's, so no point is evaluated twice. A caller that hands in the
start's D, gradient and Hessian (``fit_batch(start=...)``, as the warm
leave-one-out folds do from ``concordance.fold_pair_sums``) saves the
start's pass. Every fit returns the sums at its solution
(``FitResult.pair_sums``), from the pass that evaluated it; they depend on
beta alone, so a fit at another (lambda, alpha) that starts there can take
them as its start. Each iterate also tests H by Cholesky: when it has a
factor and the Newton step, solved by ``np.linalg.solve``, fits in the
trust radius, that step is the trial; otherwise an eigendecomposition of H
gives a damped Newton step inside the radius in closed form, so an
indefinite H or an overshooting Newton point still gives a useful trial.
The trial is kept when it lowers the objective by more than the rounding
band delta = 10*eps*(|F| + lambda), or, inside that band, where F cannot
resolve the change, when it lowers ||g||; a rejected trial only shrinks
the radius. The fit stops on a scale-free
relative gradient, so ``converged`` means stationary.

``mm_step`` is the paper's majorize-minimize map, which the fit no longer
calls: it majorizes -lambda*log D by a convex quadratic built from the
quasi-probabilities (the normalized pairwise terms of D) and the quadratic
logistic bound with curvature tanh(u/2)/(4u) (``concordance.jj_coefficient``),
and minimizing that surrogate is one weighted ridge solve that never
increases the objective in exact arithmetic. A converged fit is its fixed
point.

The loop, ``fit_batch``, fits a ``ProblemBatch``: B problems of one size
that share (lambda, alpha, nu), held on a leading problem axis. Every round
takes one trial for each unfinished problem, with one engine pass, one
batched Cholesky test and one batched ``solve`` for the batch (``eigh``
only on the rows that need a damped step), keeps every problem's state in
arrays, and returns one array-valued ``BatchFit``; each problem takes the
iterates it would take alone. ``fit_rasper`` runs a problem as a batch of
one, and ``selection.loocv_score`` runs the n leave-one-out folds
of a grid point as one batch, so there is one solver path.

Every pair sum comes from an entry point of the one engine in
``concordance``, on the problems' ``PairWorkspace``: ``_pair_sums`` for a
batch (``_points``) or for one problem (``_sums``), ``_surrogate_sums`` for
``mm_step``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .concordance import (
    ConcordanceSpec,
    PairWeights,
    PairWorkspace,
    _concordance_error,
    _pair_sums,
    _surrogate_sums,
    pair_workspace,
)
from .data_model import StandardizedDesign
from .errors import (
    DimensionMismatch,
    InvalidValue,
    NonFiniteValue,
    NonSPDSystem,
    SingularDesign,
)

NU_FLOOR = 1e-3
_BAND = 10.0 * np.finfo(float).eps     # the acceptance band's relative width
_ALL = slice(None)


@dataclass(frozen=True)
class PenalizedProblem:
    """Least-squares local objective plus ridge term and rank penalty. The
    parts fixed for one fit are built once, on first use: the pair-sum
    ``workspace`` (stacked design tables, rank-derived weights and the
    buffers every engine pass of the fit reuses), ``unpenalized``, the
    problem as a ``ProblemBatch`` of one at lambda = alpha = 0 (its centered
    rows' gram X_c'X_c and X_c'y_c), and ``batch``, that batch at this
    problem's (lambda, alpha). The workspace's buffers make a problem unsafe
    to evaluate from two threads at once."""

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
    def workspace(self):
        return pair_workspace(self.weights, self.design.x)

    def with_penalties(self, lam, alpha):
        """This problem at another (lambda, alpha), sharing its pair-sum
        workspace and its unpenalized batch, so a grid search builds each
        once; the two must not be evaluated from two threads at once."""
        other = replace(self, lam=lam, alpha=alpha)
        for name in ("workspace", "unpenalized"):         # the cached_properties' slots
            other.__dict__[name] = getattr(self, name)
        return other

    @cached_property
    def unpenalized(self):
        """This problem as a ``ProblemBatch`` of one at lambda = alpha = 0."""
        return problem_batch(self.design.x[None], self.y[None], self.nu)

    @cached_property
    def batch(self):
        """This problem as a ``ProblemBatch`` of one, the form ``fit_batch``
        takes."""
        return self.unpenalized.with_penalties(self.lam, self.alpha,
                                               self.workspace if self.lam > 0 else None)


@dataclass(frozen=True)
class ProblemBatch:
    """B penalized problems of one size that share lambda, alpha and nu,
    held on a leading problem axis: what the trust-region loop reads. ``x``
    (B, m, p) holds the problems' rows of the design and ``y`` (B, m) their
    outcomes; ``gram`` = X_c'X_c + alpha I and ``xty`` = X_c'y_c, with X_c a
    problem's centered rows, and ``scale`` (B,), the relative gradient's
    scale ||X_c'y_c|| (NaN where y is constant up to rounding). ``work`` is
    the problems' ``PairWorkspace`` when lambda > 0, else None."""

    x: np.ndarray
    y: np.ndarray
    gram: np.ndarray
    xty: np.ndarray
    scale: np.ndarray
    work: PairWorkspace | None
    lam: float
    alpha: float
    nu: float

    def __getitem__(self, index):
        """The batch of the problems ``index`` (an index array), in that
        order, with copies of their arrays."""
        index = np.asarray(index)
        return ProblemBatch(self.x[index], self.y[index], self.gram[index], self.xty[index],
                            self.scale[index],
                            None if self.work is None else self.work.take(index),
                            self.lam, self.alpha, self.nu)

    def with_penalties(self, lam, alpha, work=None):
        """This batch, which has alpha = 0, at (lambda, alpha) with ``work``
        its ``PairWorkspace`` when lambda > 0: alpha is added to the
        diagonal of a copy of the gram, and every other array is shared, so
        one unpenalized batch serves a whole grid."""
        if self.alpha != 0.0:
            raise InvalidValue("penalties are added to a batch at alpha = 0")
        gram = self.gram.copy()
        size, p, _ = gram.shape
        gram.reshape(size, p * p)[:, ::p + 1] += alpha                # + alpha I
        return ProblemBatch(self.x, self.y, gram, self.xty, self.scale, work, lam, alpha,
                            self.nu)


def problem_batch(x, y, nu) -> ProblemBatch:
    """The ``ProblemBatch`` of the designs ``x`` (B, m, p) and outcomes
    ``y`` (B, m) at lambda = alpha = 0, which ``with_penalties`` penalizes.
    Each problem's pieces are the ones a single problem computes, bit for
    bit: the stacked products run one BLAS call per problem."""
    y = np.asarray(y)
    m = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / m        # x.mean(axis=1)
    xct = xc.transpose(0, 2, 1)
    gram = xct @ xc
    xty = _matvec(xct, y - np.add.reduce(y, axis=1, keepdims=True) / m)
    scale = _norms(xty)
    flat = xc.reshape(xc.shape[0], -1)
    constant = scale <= np.finfo(float).eps * np.sqrt(_dots(flat, flat)) * _norms(y)
    return ProblemBatch(x, y, gram, xty, np.where(constant, np.nan, scale), None,
                        0.0, 0.0, nu)


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
    evaluations: int             # points evaluated: the start plus the trials, iterations + 1
    # (D, dD, d2D) at beta from the engine pass that evaluated it, which a
    # later fit at another (lambda, alpha) may start from; None when no
    # pass evaluated it (the problems of a batch at lambda = 0)
    pair_sums: tuple | None = None


@dataclass
class BatchFit:
    """The fits of a ``ProblemBatch``'s B problems, problem k in row k of
    every array, as ``fit_batch`` returns them: ``beta0`` (B,), ``beta``
    (B, p), ``iterations``, ``grad_norm`` (the relative gradient) and
    ``converged`` (B,), and ``pair_sums``, (D, dD, d2D) at each final beta,
    None when lambda = 0 (no pair pass). A problem that failed has NaN and
    zero rows and its ``RasperError`` in ``errors``, by index. Row t of
    ``traces`` (T, B) holds each problem's objective after round t (its start
    at t = 0), NaN where that round's trial was rejected or the problem had
    stopped; a kept trial's F is finite (``trace``)."""

    beta0: np.ndarray
    beta: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray
    converged: np.ndarray
    pair_sums: tuple | None
    errors: dict
    traces: np.ndarray

    def trace(self, k):
        """Problem k's objective trace: F at its start and at each kept trial."""
        column = self.traces[:, k]
        return column[~np.isnan(column)]


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


def _sums(problem, beta):
    """(D, dD, d2D) of one problem at one beta (p,), from one engine pass;
    a D that is not positive raises its ``_concordance_error``."""
    d, dd, hd = _pair_sums(problem.workspace, beta[None], problem.nu)
    if not d[0] > 0:
        raise _concordance_error(float(d[0]), problem.workspace.live[0])
    return float(d[0]), dd[0], hd[0]


def penalized_objective(problem: PenalizedProblem, beta0, beta) -> float:
    """0.5*RSS + (alpha/2)*||beta||^2 - lambda*log D."""
    beta = np.asarray(beta, dtype=float)
    value = _local_objective(problem, beta0, beta)
    if problem.lam > 0:
        value -= problem.lam * np.log(_sums(problem, beta)[0])
    return value


def mm_step(problem: PenalizedProblem, beta0, beta):
    """The paper's majorize-minimize map, which ``fit_rasper`` no longer
    calls: one minimization of the quadratic surrogate anchored at ``beta``.
    The intercept is profiled out (neither the pair differences nor the
    penalties involve it), so solving the SPD system on centered data
    minimizes the surrogate jointly in (beta0, beta). A system without a
    Cholesky factor raises ``NonSPDSystem``."""
    beta = np.asarray(beta, dtype=float)
    system, rhs = problem.batch.gram[0], problem.batch.xty[0]
    if problem.lam > 0:
        _, lin, quad = _surrogate_sums(problem.workspace, beta, problem.nu)
        system = system + 2.0 * problem.lam * quad
        rhs = rhs + 0.5 * problem.lam * lin
    try:
        low = np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise NonSPDSystem("MM system is not positive definite") from exc
    beta_new = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
    beta0_new = float(np.mean(problem.y - problem.design.x @ beta_new))
    return beta0_new, beta_new


# Row-wise products over leading problem axes, one BLAS call per problem,
# so each row's value is the one the 1-d product gives: a_k @ b_k, m_k @ v_k
# and m_k' @ v_k. numpy < 2.2 lacks some of the fused forms.
_dots = getattr(np, "vecdot", lambda a, b: np.matmul(a[..., None, :], b[..., None])[..., 0, 0])
_matvec = getattr(np, "matvec", lambda m, v: np.matmul(m, v[..., None])[..., 0])
_vecmat = getattr(np, "vecmat",
                  lambda v, m: np.matmul(m.swapaxes(-1, -2), v[..., None])[..., 0])


def _norms(a):
    """Row-wise Euclidean norms, each the one ``np.linalg.norm`` gives."""
    return np.sqrt(_dots(a, a))


def _local_minimizers(problems):
    """Each problem's minimizer of the local objective alone (ridge, or OLS
    when alpha = 0), as a (B, p) array, with a ``SingularDesign`` error for
    every rank-deficient problem when alpha = 0, by index."""
    if problems.alpha > 0:
        return np.linalg.solve(problems.gram, problems.xty[..., None])[..., 0], {}
    beta = np.empty(problems.xty.shape)
    errors = {}
    x = problems.x
    xcs = x - np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    for k, (xc, y) in enumerate(zip(xcs, problems.y)):
        beta[k], _, rank, _ = np.linalg.lstsq(xc, y - y.mean(), rcond=None)
        if rank < xc.shape[1]:
            errors[k] = SingularDesign("design is rank deficient and alpha = 0")
    return beta, errors


def local_minimizer(problem: PenalizedProblem):
    """Minimizer of the local objective alone (ridge, or OLS when alpha=0)."""
    beta, errors = _local_minimizers(problem.batch)
    if errors:
        raise errors[0]
    beta = beta[0]
    beta0 = float(np.mean(problem.y - problem.design.x @ beta))
    return beta0, beta


def _trust_step(evals, evecs, g, radius):
    """Trial step s of the model g's + 0.5*s'Hs, H = evecs diag(evals) evecs'
    (ascending ``evals``), with pred = -(g's + 0.5*s'Hs) and whether s is
    damped, for one problem or for each of a batch: every argument may carry
    leading problem axes. ``_steps`` calls it on the rows whose Cholesky
    Newton step does not apply.

    s is the Newton step -H^{-1} g when H is positive definite and that step
    fits in the ``radius`` r, else the damped step -(H + mu I)^{-1} g with
    mu = max(0, -evals[0]) + ||g||/r. Then ||s|| <= r, s minimizes the model
    over the ball of radius ||s||, and pred >= ||g||*min(r, ||g||/||H||)/6,
    the sufficient decrease trust-region convergence needs (Conn, Gould &
    Toint 2000, ch. 6). The shift is added as (evals - min(evals[0], 0)) +
    ||g||/r: in evals + mu, evals[0] + mu rounds to zero once ||g||/r is
    below the rounding of |evals[0]|.
    """
    gt = _vecmat(g, evecs)
    low = evals[..., :1]
    positive = low > 0
    st = -gt / np.where(positive, evals, 1.0)
    newton = positive[..., 0] & (_norms(st) <= radius)
    shift = (evals - np.minimum(low, 0.0)) + (_norms(gt) / radius)[..., None]
    st = np.where(newton[..., None], st, -gt / shift)
    pred = -(_dots(gt, st) + 0.5 * _dots(evals * st, st))
    return _matvec(evecs, st), pred, ~newton


def _newton_steps(hess, g):
    """The Newton steps -H^{-1} g of a stack of problems (B, p, p), (B, p),
    NaN for a row whose H has no Cholesky factor. ``cholesky`` only tests
    H, and the step comes from one LU ``solve``: numpy has no triangular
    solve, so the factor would take two general solves. A stacked call that
    raises is split in halves, down to the rows that raise alone: f failing
    rows of B take about 2f*log2(B/f) calls (2B - 1 when all fail), and
    every row's step comes from a stacked call that succeeded, which gives
    it bit for bit (stacked and single calls agree)."""
    try:
        np.linalg.cholesky(hess)
        return -np.linalg.solve(hess, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.full_like(g, np.nan)
        mid = len(g) // 2
        return np.concatenate([_newton_steps(hess[:mid], g[:mid]),
                               _newton_steps(hess[mid:], g[mid:])])


def _steps(hess, g, radius):
    """Each problem's trial step s for a batch (B, p, p), (B, p), (B,), and
    the decrease of F above which keeping s doubles the radius (None when no
    step can). s is the Newton step (``_newton_steps``) where H has a
    Cholesky factor and that step fits in the radius, else the step of
    ``_trust_step`` on an eigendecomposition of just those rows; the
    threshold is 0.75 pred where that step is damped, so the radius was
    binding, and inf elsewhere. A row's branch reads only its own H, g and
    radius, so it takes the step it would take alone."""
    step = _newton_steps(hess, g)
    rest = _rows_of(~(_norms(step) <= radius))          # and where the step is NaN
    if rest is None:
        return step, None
    evals, evecs = np.linalg.eigh(hess[rest])
    step[rest], pred, damped = _trust_step(evals, evecs, g[rest], radius[rest])
    grow = np.full(len(g), np.inf)
    grow[rest] = np.where(damped, 0.75 * pred, np.inf)
    return step, grow


def _rows_of(mask):
    """An index of the rows that ``mask`` (B,) sets: None when it sets none,
    a full slice, which indexes without a copy, when it sets all, else the
    mask."""
    count = np.count_nonzero(mask)
    return None if not count else _ALL if count == len(mask) else mask


def _points(problems, beta, sums=None):
    """Each problem's profiled intercept beta0 = mean(y - X beta) and F at
    (beta0, beta), with the pair sums (D, dD, d2D) at beta and the gradient
    and Hessian of F in beta. The sums come from one pass of the pair-sum
    engine over the batch, or are ``sums`` when given. F is formed in the
    order ``penalized_objective`` uses, so both give the same value, and is
    inf where D is not positive. The sums are None when lambda = 0 (no
    pair pass)."""
    xb, y = _matvec(problems.x, beta), problems.y
    beta0 = np.add.reduce(y - xb, axis=1) / xb.shape[1]
    resid = y - beta0[:, None] - xb
    value = 0.5 * _dots(resid, resid) + 0.5 * problems.alpha * _dots(beta, beta)
    g = _matvec(problems.gram, beta) - problems.xty
    lam = problems.lam
    if not lam > 0:
        return beta0, value, None, g, problems.gram
    d, dd, hd = _pair_sums(problems.work, beta, problems.nu) if sums is None else sums
    dp = d if d.min() > 0 else np.where(d > 0, d, 1.0)
    value = value - lam * np.log(dp)
    if dp is not d:
        value[~(d > 0)] = np.inf
    g = g - lam * dd / dp[:, None]
    dp = dp[:, None, None]
    hess = problems.gram + lam * (dd[:, :, None] * dd[:, None, :] / (dp * dp) - hd / dp)
    return beta0, value, (d, dd, hd), g, hess


def fit_batch(problems: ProblemBatch, beta=None, start=None, tol=1e-8,
              max_iter=500) -> BatchFit:
    """Fit the B problems of ``problems`` by trust-region Newton steps, in
    lock step: every round takes one trial per unfinished problem, with one
    engine pass and one batched Cholesky test and ``solve`` for all of them
    (``_steps``); only the engine pass walks the batch in the workspace's
    chunks. Each problem's state (value, gradient norm, radius) is a row of
    an array, and the result is one ``BatchFit``, with the ``RasperError``
    that stopped a problem in ``errors``: a D that is not positive at the
    start, or a rank-deficient design when alpha = 0 and ``beta`` is None.

    Each problem starts at its row of ``beta`` (B, p), or at its
    local-objective minimizer when ``beta`` is None, which guarantees the
    final objective improves on the unpenalized fit. The intercept is
    profiled, beta0 = mean(y - X beta), at the start as at every later
    point, so only the gradient g and Hessian H of F in beta matter. The
    start and each trial are evaluated by one pair pass (``_points``) that
    gives F, g and H at once, and an accepted trial keeps them, so no point
    is evaluated twice. ``start`` = (D, dD, d2D) at ``beta``, as
    ``concordance.fold_pair_sums`` gives leave-one-out folds or a previous
    fit's ``pair_sums`` give a warm fit, replaces the start's pass. The
    result's ``pair_sums`` are the sums at each final beta, from the pass
    that evaluated it, at no extra cost. A problem is converged once
    ||g|| <= ``tol`` * ||X_c' y_c||, a relative gradient that does not
    change with the scale of y. When y is constant X_c' y_c vanishes, and
    ||g|| at the start is the scale instead.

    Otherwise the trial step s (``_steps``) is the Newton step when H has a
    Cholesky factor and the step fits in the radius r, else a damped step
    with ||s|| <= r and model decrease pred. The first radius r is
    max(1, ||beta_start||). With delta = 10*eps*(|F| + lambda), the trial is
    kept when F there is below F at the iterate by more than delta, or, when
    |F_trial - F| <= delta, when its gradient is smaller. Near a large-lambda
    solution the decrease falls below the rounding of lambda*log D, and a
    strict F test would keep or reject such a trial by luck. r doubles when
    the kept step was damped, so r was binding, and the actual decrease
    exceeds 0.75*pred. A rejected trial keeps the iterate and only shrinks r
    to ||s||/4 (Conn, Gould & Toint 2000, ch. 6). So the trace never rises
    by more than delta, and falls wherever F can resolve the change.

    A problem leaves the batch when it converges, or after ``max_iter``
    rounds with ``converged=False``; the rest go on over the batch taken
    down to them (copies of their rows, on the workspace's buffers), so no
    pass is spent on a finished problem. Each problem takes
    the iterates it would take alone.
    """
    size = problems.x.shape[0]
    errors = {}
    if beta is None:
        beta, errors = _local_minimizers(problems)
    else:
        beta = np.array(beta, dtype=float)
    beta0, value, sums, g, hess = _points(problems, beta, start)
    if sums is not None and not sums[0].min() > 0:
        d = sums[0]
        for k in np.flatnonzero(~(d > 0)).tolist():
            errors.setdefault(k, _concordance_error(float(d[k]), problems.work.live[k]))
    # every problem's row is written when it stops, or set to NaN here
    out = BatchFit(beta0=np.empty(size), beta=np.empty(beta.shape),
                   iterations=np.zeros(size, dtype=int), grad_norm=np.empty(size),
                   converged=None,
                   pair_sums=None if sums is None else tuple(np.empty(a.shape) for a in sums),
                   errors=errors, traces=np.full((16, size), np.nan))
    slots = np.arange(size)
    if errors:
        failed = list(errors)
        for a in (out.beta0, out.beta, out.grad_norm) + (out.pair_sums or ()):
            a[failed] = np.nan
        slots = np.flatnonzero(~np.isin(slots, failed))
        if not slots.size:
            out.converged = np.zeros(size, dtype=bool)
            return out
        problems, beta0, beta, value, sums, g, hess = _rows(
            slots, problems, beta0, beta, value, sums, g, hess)
    # Row k of every array is problem slots[k]'s iterate and its state.
    lam = problems.lam
    gnorm = _norms(g)
    scale = np.where(np.isnan(problems.scale), gnorm, problems.scale)  # NaN: y constant
    scale[scale == 0.0] = 1.0           # then ||g|| = 0 and the problem stops at its start
    radius = np.maximum(1.0, _norms(beta))
    out.traces[0, slots] = value
    iters = 0
    while True:
        grad_norm = gnorm / scale
        done = grad_norm <= tol
        if iters == max_iter:
            done[:] = True
        rows = _rows_of(done)
        if rows is not None:
            finished = slots[rows]
            out.beta0[finished], out.beta[finished] = beta0[rows], beta[rows]
            out.iterations[finished], out.grad_norm[finished] = iters, grad_norm[rows]
            if sums is not None:
                for a, b in zip(out.pair_sums, sums):
                    a[finished] = b[rows]
            if rows is _ALL:
                out.converged = out.grad_norm <= tol           # False where a problem failed
                return out
            keep = np.flatnonzero(~done)
            slots, value, gnorm, scale, radius = (
                a[keep] for a in (slots, value, gnorm, scale, radius))
            problems, beta0, beta, sums, g, hess = _rows(keep, problems, beta0, beta, sums, g,
                                                         hess)
        iters += 1
        if iters == len(out.traces):
            out.traces = np.concatenate([out.traces, np.full(out.traces.shape, np.nan)])
        step, grow = _steps(hess, g, radius)
        cand = beta + step
        cand0, cand_value, cand_sums, cand_g, cand_hess = _points(problems, cand)
        cand_gnorm = _norms(cand_g)
        decrease = value - cand_value
        kept = np.where(np.abs(decrease) <= _BAND * (np.abs(value) + lam),
                        cand_gnorm < gnorm, decrease > 0)
        # r doubles after a kept damped step that achieved 0.75 pred (the
        # threshold ``_steps`` gives); a rejected trial keeps its iterate
        # and sets r = ||s||/4
        if grow is not None:
            radius = np.where(decrease > grow, 2.0 * radius, radius)
        new = cand0, cand_value, cand_gnorm, cand, cand_sums, cand_g, cand_hess
        if np.count_nonzero(kept) == len(kept):
            out.traces[iters, slots] = cand_value
            beta0, value, gnorm, beta, sums, g, hess = new
        else:
            radius = np.where(kept, radius, 0.25 * _norms(step))
            out.traces[iters, slots] = np.where(kept, cand_value, np.nan)
            beta0, value, gnorm, beta, sums, g, hess = _where(
                kept, new, (beta0, value, gnorm, beta, sums, g, hess))


def _rows(index, *arrays):
    """Each of ``arrays`` (a ``ProblemBatch``, an array, a tuple of arrays
    or None) taken down to the problems ``index``."""
    return tuple(None if a is None else tuple(b[index] for b in a) if isinstance(a, tuple)
                 else a[index] for a in arrays)


def _where(mask, new, old):
    """Each pair of ``new`` and ``old`` (arrays, tuples of arrays or None)
    merged by problem: the new one's rows where ``mask`` (B,) is set."""
    return tuple(None if b is None else _where(mask, a, b) if isinstance(a, tuple)
                 else np.where(mask.reshape(mask.shape + (1,) * (a.ndim - 1)), a, b)
                 for a, b in zip(new, old))


def fit_rasper(problem: PenalizedProblem, init=None, tol=1e-8,
               max_iter=500, start=None) -> FitResult:
    """Fit the rank-penalized regression by trust-region Newton steps:
    ``fit_batch`` on the problem as a batch of one (``problem.batch``).

    Starts from the local-objective minimizer unless ``init`` is given.
    ``start`` = (D, dD, d2D) at ``init``, such as the ``pair_sums`` of a fit
    of this problem's data at another (lambda, alpha), replaces the start's
    engine pass; the fit is the one that pass would give, bit for bit,
    because the sums depend on beta alone. A D that is not positive at the
    start, or a rank-deficient design with alpha = 0 and no ``init``,
    raises its error. At lambda = 0 the fit makes no pair pass while
    fitting and one pass at the end, which gives the D it reports and its
    ``pair_sums`` (None when every pair weight is zero). Every problem, with
    or without marginal tables, runs this same loop.
    """
    beta = None
    if init is not None:
        beta = np.asarray(init, dtype=float)[None]
        start = None if start is None else tuple(np.asarray(a)[None] for a in start)
    elif start is not None:
        raise InvalidValue("start sums need the init they were taken at")
    fits = fit_batch(problem.batch, beta, start, tol=tol, max_iter=max_iter)
    if fits.errors:
        raise fits.errors[0]
    sums = None if fits.pair_sums is None else tuple(a[0] for a in fits.pair_sums)
    if sums is None and problem.workspace.live[0]:
        sums = _sums(problem, fits.beta[0])
    iterations = int(fits.iterations[0])
    return FitResult(beta0=float(fits.beta0[0]), beta=fits.beta[0], lam=problem.lam,
                     alpha=problem.alpha, nu=problem.nu, objective_trace=fits.trace(0),
                     concordance=None if sums is None else float(sums[0]),
                     converged=bool(fits.converged[0]), iterations=iterations,
                     grad_norm=float(fits.grad_norm[0]), evaluations=iterations + 1,
                     pair_sums=sums)


def objective_gradient(problem: PenalizedProblem, beta0, beta):
    """Analytic gradient of the penalized objective in (beta0, beta)."""
    x = problem.design.x
    beta = np.asarray(beta, dtype=float)
    resid = problem.y - beta0 - x @ beta
    g0 = -float(resid.sum())
    g = -(x.T @ resid) + problem.alpha * beta
    if problem.lam > 0:
        d, dd, _ = _sums(problem, beta)
        g -= problem.lam * dd / d
    return g0, g
