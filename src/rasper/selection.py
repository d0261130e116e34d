"""Hyperparameter grids, leave-one-out cross-validation, effective degrees of
freedom, and AIC-based selection.

The full-data fits take their weights from ``concordance.problem_weights``,
and every leave-one-out fold takes the full data's weights without its row:
its ranks follow from the full-data ranks and its sampled design tables, if
any, are the full data's. So the marginal sampler is fitted once, on the
full data, as the standardization is, and no fold's outcome enters either.

``select`` builds once what does not depend on (lambda, alpha): the
full-data pair workspace, the beta = 0 curvature of the degrees of freedom
(one ``_surrogate_sums`` pass on the observed design's workspace, that one
unless the spec samples tables) and, by LOOCV, one ``_FoldState``: the
folds' rows, grams and X_c'y_c taken from the full data by indexing and
their pair workspace (O(S n^2 p) memory in all). A grid point then only
adds alpha to a copy of the grams' diagonals. ``loocv_score`` fits a grid
point's n folds as one batch through the one trust-region loop,
``solver.fit_batch``, whose rounds test the Hessians by one batched
Cholesky and take Newton steps from one batched ``solve``, and reads the
batch's arrays directly; its ``_pair_sums`` passes walk the batch in chunks
sized by ``concordance.CHUNK_PAIRS``, never O(n^3). Nothing is cached
between ``select`` calls.

D, its gradient and its Hessian depend on beta alone, not on
(lambda, alpha), so ``select`` starts each warm full fit from the previous
grid point's beta and its final sums (``FitResult.pair_sums``), and the fit
is the one an engine pass at its start would give, bit for bit. Every warm
fold fit at lambda > 0 starts at the full fit's beta or, once the fold
state holds it, at the fold's own solution at the last alpha scored at
that lambda (kept with its sums, O(n p^2) floats per lambda), whichever
has the smaller gradient of the new grid point's objective; near-equal
alpha columns turn the second into about one Newton step per fold. Both
points carry exact pair sums: at the full fit's beta, all n folds'
are downdated at once from the full-data workspace's sigma tables
(``concordance.fold_pair_sums``), so no warm fold makes an engine pass at
its start.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .concordance import (
    ConcordanceSpec,
    PairWeights,
    PairWorkspace,
    _surrogate_sums,
    fold_pair_sums,
    pair_weights,
    pair_workspace,
    problem_weights,
)
from .data_model import ExternalRanks, StandardizedDesign
from .errors import (
    FoldFailure,
    InvalidBounds,
    InvalidValue,
    SingularSystem,
)
from .solver import (
    FitResult,
    PenalizedProblem,
    _dots,
    _local_objective,
    _norms,
    _points,
    _where,
    fit_batch,
    fit_rasper,
    problem_batch,
)

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
    stated bounds, so the sizes J and K must be integers >= 1, and max / min
    must be a finite float."""
    if not (0 < lam_min < lam_max) or not (0 < alpha_min < alpha_max):
        raise InvalidBounds("require 0 < min < max for both lambda and alpha")
    for name, low, high in (("lambda", lam_min, lam_max), ("alpha", alpha_min, alpha_max)):
        try:
            ratio = float(high) / float(low)        # an int beyond the float range overflows
        except OverflowError:
            ratio = math.inf
        if not math.isfinite(ratio):                                # log(inf) spaces no grid
            raise InvalidBounds(f"{name} max / min is not finite: {high!r} / {low!r}")
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (j, k)):
        raise InvalidBounds(f"grid sizes J and K must be integers, not {j!r} and {k!r}")
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


def _fold_rows(n):
    """The (n, n - 1) rows of the n leave-one-out folds: fold k drops row k."""
    rows = np.arange(n - 1)
    return rows + (rows >= np.arange(n)[:, None])


def fold_weight_cache(design: StandardizedDesign, ranks: ExternalRanks,
                      spec: ConcordanceSpec, full=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Weights of every leave-one-out fold, fold k in row k: ``(r, tables)``
    with ``r`` the folds' (n, n - 1) ranks and ``tables`` their
    (n, S, n - 1, p) sampled design tables when the spec marginalizes the
    design (``problem_weights``' rule), else None: fold k's are the S tables
    of ``full``, the full data's one-problem ``PairWorkspace`` (or the ones
    ``problem_weights`` draws, when it is None), without row k. They depend
    only on the data, not on (lambda, alpha), so a grid search takes them once.

    Each fold's ranks follow from the full-data ranks: under the >=-count
    rule s_j >= s_k exactly when r_j >= r_k, so dropping row k lowers by one
    the rank of every retained row ranked at or above it.
    """
    keep = _fold_rows(design.n)
    r = ranks.r[keep]
    r = r - (r >= ranks.r[:, None])
    if not (spec.marginalized and design.p > design.q):
        return r, None
    full = np.stack(problem_weights(design, ranks, spec).tables) if full is None \
        else full.tables[0]
    return r, full[np.arange(len(full))[:, None], keep[:, None]]


class _FoldState:
    """The leave-one-out folds of one data set, built once for a grid:
    ``batch``, the folds as one ``ProblemBatch`` at lambda = alpha = 0
    (fold k's rows are the data's rows other than k, with the full-data
    standardization, and their centered gram, X_c'y_c and relative-gradient
    scale), ``r`` and ``tables``, ``fold_weight_cache``'s ranks and sampled
    tables, ``work``, their ``PairWorkspace`` on the tables, or on the
    batch's rows when there are none, and ``full``, the full problem's
    ``PairWorkspace``, which the folds' sums at the full fit's beta are
    downdated from: the one ``select``'s fits use, or one of its own when
    ``full`` is None. None of it depends on (lambda, alpha); ``at`` adds them.

    ``loocv_score`` leaves two things here after each grid point it scores:
    in ``known[lam]`` (lambda > 0 only), the folds' solutions, beta (n, p),
    and their pair sums (D (n,), dD (n, p), d2D (n, p, p)), which every
    fold may start from at the next alpha at that lambda; and in
    ``rollup``, the point's report columns, which ``select`` reads for its
    ``GridRecord``."""

    def __init__(self, design, y, ranks, spec, full=None):
        if full is None:
            full = pair_workspace(problem_weights(design, ranks, spec), design.x)
        keep = _fold_rows(design.n)
        self.batch = problem_batch(design.x[keep], y[keep], spec.nu)
        self.r, self.tables = fold_weight_cache(design, ranks, spec, full)
        # built after the batch's centered rows are freed
        stack = self.tables if self.tables is not None else self.batch.x[:, None]
        self.work = PairWorkspace(stack, self.r, spec.measure)
        self.full, self.known, self.rollup = full, {}, None

    def at(self, lam, alpha):
        """The folds as the ``ProblemBatch`` of the grid point (lam, alpha)."""
        return self.batch.with_penalties(lam, alpha, self.work if lam > 0 else None)


def _nearer_starts(problems, beta, starts, known):
    """Each fold's start: row k of ``beta``, with the sums ``starts`` there,
    or its ``known`` solution at the last alpha scored, whichever has the
    smaller gradient of this grid point's objective; both carry exact pair
    sums. Returns the starts and which folds took their known solution."""
    g = _points(problems, beta, starts)[3]
    nearer = _norms(_points(problems, *known)[3]) < _norms(g)
    beta, starts = _where(nearer, known, (beta, starts))
    return beta, starts, nearer


def loocv_score(design: StandardizedDesign, y, ranks: ExternalRanks,
                spec: ConcordanceSpec, lam, alpha, *,
                warm: FitResult | None = None, state=None) -> float:
    """Mean held-out half squared error over the n leave-one-out refits.

    The held-out loss ignores the ridge term. Row subsets keep the full-data
    standardization so the hat-matrix identity holds exactly at lam=alpha=0.
    Fold fits that stop without converging still count toward the score;
    one ``RuntimeWarning`` per call names how many there were.
    ``state`` is the folds' private ``_FoldState``, which ``select`` builds
    once for its whole grid; without it, it is built here. The call leaves
    the folds' solutions (at lambda > 0) and the point's report columns in
    the state.

    The n folds are one ``ProblemBatch``, which ``fit_batch`` runs through
    one trust-region loop. Their rows, gram and X_c'y_c are taken from the
    data by indexing, and their pair workspace takes the cached ranks and
    the rows of the full data's sampled tables, or shares the folds' rows
    when the spec samples none; the state holds all of it, and a grid point
    only adds alpha to a copy of the gram's diagonal. The inputs are checked
    once, as the full-data problem.

    With a ``warm`` fit and lambda > 0, every fold starts at ``warm.beta``
    or, when the state holds the folds' solutions at the same lambda from
    an earlier call, at its own solution there when that point has the
    smaller gradient of this grid point's objective. Both points carry
    exact pair sums. At ``warm.beta`` a fold's sums are its slice of one
    ``fold_pair_sums`` call on the state's ``full`` workspace, since a
    fold's tables are the full data's without its row, so no warm fold
    takes an engine pass at its start. A fold whose D is not positive at
    its start fails with the error its engine pass would raise. Cold folds
    (no ``warm``) start at their local minimizers with one batched engine
    pass. lambda = 0 folds make no engine pass at all and report no D.
    """
    y = np.asarray(y, dtype=float)
    n = design.n
    if n < 3:
        raise FoldFailure("leave-one-out needs at least 3 rows")
    lam, alpha = float(lam), float(alpha)
    # the checks every fold would make, made once on the full-data problem
    PenalizedProblem(design, y, pair_weights(ranks, spec.measure), spec, lam, alpha)
    if state is None:
        state = _FoldState(design, y, ranks, spec)
    init = warm.beta if warm is not None else None
    starts = None
    if init is not None and lam > 0:
        starts = fold_pair_sums(state.full, init, spec.nu)
    beta = None if init is None else np.broadcast_to(init, (n, design.p))
    problems = state.at(lam, alpha)
    nearer = np.zeros(n, dtype=bool)
    if init is not None and lam in state.known:
        beta, starts, nearer = _nearer_starts(problems, beta, starts, state.known[lam])
    fits = fit_batch(problems, beta, starts)
    failed = [(k, str(exc)) for k, exc in sorted(fits.errors.items())]
    unconverged = int(np.count_nonzero(~fits.converged)) - len(failed)
    if unconverged:
        warnings.warn(f"{unconverged} of {n} fold fits did not converge at "
                      f"lambda={lam:g}, alpha={alpha:g}",
                      RuntimeWarning, stacklevel=2)
    if failed:
        raise FoldFailure(f"{len(failed)} of {n} folds failed: {failed[:3]}")
    if lam > 0:
        state.known[lam] = (fits.beta, fits.pair_sums)
    state.rollup = {"fold_iterations": int(fits.iterations.sum()),
                    "fold_unconverged": unconverged,
                    "fold_max_grad_norm": float(fits.grad_norm.max()),
                    "fold_reused": int(nearer.sum())}
    # the held-out losses summed in fold order, each as one fold alone gives it
    pred = fits.beta0 + _dots(design.x, fits.beta)
    total = 0.0
    for yk, pk in zip(y.tolist(), pred.tolist()):
        total += 0.5 * (yk - pk) ** 2
    return total / n


def _penalty_curvature(work, nu):
    """The surrogate curvature M0 at beta = 0 (see ``degrees_of_freedom``):
    ``_surrogate_sums``' ``quad`` there, from one pass on ``work``, a
    one-problem workspace of the observed design, or None when every pair
    weight is zero. It does not depend on (lambda, alpha), so ``select``
    takes it once."""
    if not work.live[0]:
        return None
    return _surrogate_sums(work, np.zeros(work.tables.shape[-1]), nu)[2]


def _smoother_df(xtx, m0, lam, alpha) -> float:
    """Trace of (X'X + alpha I + lam * M0)^{-1} X'X, with no penalty term
    when ``m0`` is None."""
    system = xtx + alpha * np.eye(xtx.shape[0])
    if lam > 0 and m0 is not None:
        system = system + lam * m0
    try:
        sol = np.linalg.solve(system, xtx)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("degrees-of-freedom system is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("degrees-of-freedom system is singular")
    return float(np.trace(sol))


def degrees_of_freedom(design: StandardizedDesign, weights: PairWeights,
                       nu, lam, alpha) -> float:
    """Effective degrees of freedom of the one-step smoother at beta = 0.

    Trace of (X'X + alpha I + lam * M0)^{-1} X'X, where M0 is the surrogate
    curvature at beta = 0: quasi-probabilities w_k / sum(w) times the
    logistic-bound curvature 1/8 on each scaled pair difference. M0 is
    taken on the observed design even for marginalized weights. It is the
    ``_surrogate_sums`` quad at beta = 0, where every sigma is 1/2 and every
    curvature 1/8, from one pass on a workspace of the observed design; with
    all weights zero (all-tied Kendall ranks) the penalty adds nothing.
    """
    x = design.x
    m0 = None
    if lam > 0:
        m0 = _penalty_curvature(PairWorkspace(x[None, None], weights.r[None], weights.measure), nu)
    return _smoother_df(x.T @ x, m0, lam, alpha)


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
    # the roll-up of the grid point's leave-one-out fold fits; None by AIC
    fold_iterations: int | None = None
    fold_unconverged: int | None = None
    fold_max_grad_norm: float | None = None
    fold_reused: int | None = None


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
                "fold_iterations": rec.fold_iterations,
                "fold_unconverged": rec.fold_unconverged,
                "fold_max_grad_norm": rec.fold_max_grad_norm,
                "fold_reused": rec.fold_reused,
                "chosen": rec is self.chosen,
            })
        return rows


def select(design: StandardizedDesign, y, ranks: ExternalRanks,
           spec: ConcordanceSpec, grid: HyperGrid, criterion="loocv") -> SelectionReport:
    """Evaluate the criterion at every grid point and return the argmin.

    Fits are warm-started along increasing lambda within each alpha, each
    from the previous fit's beta and its final pair sums, so a warm fit
    takes no engine pass at its start. By LOOCV, the fold state keeps the
    fold solutions of each lambda for the next alpha, whose folds may start
    from them. Ties break toward smaller lambda, then smaller alpha. Points
    with a flagged (singular) degrees-of-freedom system are excluded from
    AIC selection.
    """
    if criterion not in ("loocv", "aic"):
        raise InvalidValue(f"unknown criterion {criterion!r}")
    y = np.asarray(y, dtype=float)
    base = PenalizedProblem(design=design, y=y, weights=problem_weights(design, ranks, spec),
                            spec=spec)
    xtx = design.x.T @ design.x
    # M0 is taken on the observed design, which a plain spec's workspace holds
    observed = base.workspace if not base.weights.tables else \
        PairWorkspace(design.x[None, None], ranks.r[None], spec.measure)
    m0 = _penalty_curvature(observed, spec.nu)
    state = _FoldState(design, y, ranks, spec, base.workspace) if criterion == "loocv" else None

    records = []
    for alpha in grid.alpha_values:
        warm = None
        for lam in grid.lam_values:
            problem = base.with_penalties(float(lam), float(alpha))
            if warm is None:
                fit = fit_rasper(problem)
            else:
                fit = fit_rasper(problem, init=warm.beta, start=warm.pair_sums)
            warm = fit
            flagged = False
            try:
                df = _smoother_df(xtx, m0, lam, alpha)
            except SingularSystem:
                df, flagged = float(design.p), True
            aic_val = aic(problem, fit, df)
            loo, rollup = float("nan"), {}
            if state is not None:
                loo = loocv_score(design, y, ranks, spec, lam, alpha, warm=fit, state=state)
                rollup = state.rollup
            records.append(GridRecord(lam=float(lam), alpha=float(alpha),
                                      loo=loo, df=df, aic=aic_val,
                                      df_flagged=flagged, fit=fit, **rollup))

    def key(rec):
        return rec.loo if criterion == "loocv" else rec.aic

    eligible = [r for r in records
                if not (criterion == "aic" and r.df_flagged)
                and math.isfinite(key(r))]
    if not eligible:
        raise FoldFailure("no eligible grid points for selection")
    chosen = min(eligible, key=lambda r: (key(r), r.lam, r.alpha))
    return SelectionReport(records=records, criterion=criterion, chosen=chosen)
