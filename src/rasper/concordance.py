"""Ranking parameters, pairwise concordance weights, and the smoothed
concordance measure D.

One engine, ``_pair_sums``, evaluates every weighted pair sum the package
needs: D, its gradient and Hessian, and the quasi-probability sums of the
MM map and of the degrees of freedom. It runs on a ``PairWorkspace``: the
(S, n, p) stack of a problem's design tables (S = 1 without marginal
tables), the weights as the ranks give them (a Spearman row scale, or a
constant times the Kendall strict-order mask), and (S, n, n) buffers that
every pass of one fit reuses. One in-place ``exp`` gives sigma(u) of all S
tables, and every reduction is a matrix-vector product or a gemm over the
stack; the n^2 x p difference operator and the dense weights
``PairWeights.w`` are never built.

``problem_weights`` is the one place that decides a problem's weights: the
measure's pair weights, plus sampled design tables when the spec is
marginalized and the design has novel covariates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ExternalRanks, StandardizedDesign, ge_counts
from .errors import DegenerateWeights, DimensionMismatch, InvalidValue, NonpositiveConcordance

SPEARMAN = "spearman"
KENDALL = "kendall"


@dataclass(frozen=True)
class ConcordanceSpec:
    """Choice of association measure and smoothing for the rank penalty."""

    measure: str = SPEARMAN
    marginalized: bool = False
    nu: float = 0.1
    samples: int = 20          # marginalization sample count S
    seed: int = 0

    def __post_init__(self):
        if self.measure not in (SPEARMAN, KENDALL):
            raise InvalidValue(f"unknown measure {self.measure!r}")
        if not self.nu > 0:
            raise InvalidValue("nu must be positive")
        if self.samples < 1:
            raise InvalidValue("samples must be >= 1")


@dataclass(frozen=True)
class PairWeights:
    """Nonnegative pairwise weights w_ij for the concordance sum, held as the
    external ranks they derive from.

    For marginalized measures, ``tables`` holds the S sampled design tables
    and each pair term is weighted by w_ij / S.
    """

    r: np.ndarray                           # (n,) external ranks
    measure: str
    tables: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.measure not in (SPEARMAN, KENDALL):
            raise ValueError(f"unknown measure {self.measure!r}")

    @property
    def w(self) -> np.ndarray:
        """The dense (n, n) weight matrix, built anew from the ranks. The
        engine never builds it (``PairWorkspace`` holds the ranks' row scale
        or order mask); it is the oracle of the tests and the benchmark.

        Spearman: w_ij = r_i / (4 n^2), constant in j. Kendall: the
        nonnegative convention w_ij = 2 I(r_i > r_j) / (n (n - 1)), which
        differs from the signed form only by a beta-independent additive
        constant in D and keeps every weight valid for the quasi-probability
        construction.
        """
        n = self.r.shape[0]
        r = self.r.astype(float)
        if self.measure == SPEARMAN:
            return np.repeat(r[:, None] / (4.0 * n * n), n, axis=1)
        return 2.0 * (r[:, None] > r[None, :]) / (n * (n - 1.0))


def _checked_beta(x, beta):
    beta = np.asarray(beta, dtype=float)
    if x.shape[1] != beta.shape[0]:
        raise DimensionMismatch(f"design has {x.shape[1]} columns, beta has {beta.shape[0]}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite values")
    return beta


def _linear_predictor(x, beta):
    if isinstance(x, StandardizedDesign):
        x = x.x
    x = np.asarray(x)
    return x @ _checked_beta(x, beta)


def exact_rank_params(x, beta) -> np.ndarray:
    """Exact ranking parameters: psi_i = #{j : (x_i - x_j)' beta >= 0}.

    The diagonal term is included, so psi_i >= 1; beta = 0 gives psi_i = n.
    """
    eta = _linear_predictor(x, beta)
    return ge_counts(eta, eta)


def smooth_rank_params(x, beta, nu) -> np.ndarray:
    """Smoothed ranking parameters with the logistic kernel of scale nu.

    The diagonal contributes exactly 1/2, so each value lies in (0, n).
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    return _sigma_table(_linear_predictor(x, beta) / nu).sum(axis=1)


def pair_weights(ranks: ExternalRanks, measure: str) -> PairWeights:
    """Pairwise weights for the chosen association measure (see
    ``PairWeights.w``)."""
    return PairWeights(r=ranks.r, measure=measure)


class PairWorkspace:
    """The fixed pieces and the reusable buffers of one problem's pair sums.

    ``stack`` is the (S, n, p) stack of the problem's design tables, S = 1
    for a plain problem. The weights come from the ranks (see
    ``PairWeights.w``): Spearman's are the row scale w_ij = r_i / (4 n^2);
    Kendall's are the constant 2 / (n (n - 1)) times the strict-order mask
    I(r_i > r_j), held with its antisymmetric form ``sign`` = mask - mask',
    which is all the gradient and the Hessian need. ``live`` is False when
    every weight is zero, as in an all-tied Kendall problem. The (S, n, n)
    buffers are overwritten by every pass, so a workspace serves one thread
    at a time; nothing ``_pair_sums`` returns is a view of them.
    """

    def __init__(self, stack, r, measure):
        stack = np.asarray(stack, dtype=float)
        count, n, p = stack.shape
        r = np.asarray(r, dtype=float)
        self.stack = stack
        self.flat = stack.reshape(count * n, p)
        if measure == SPEARMAN:
            self.scale = r / (4.0 * n * n)
            self.mask = self.sign = None
            self.live = bool(self.scale.max(initial=0.0) > 0)
        else:
            self.scale = np.full(n, 2.0 / max(n * (n - 1.0), 1.0))
            order = r[:, None] > r[None, :]
            self.mask = order.astype(float)
            self.sign = self.mask - self.mask.T
            self.live = bool(order.any())
        self.scaled = (self.scale[:, None] * stack).reshape(count * n, p)
        # [1 | scale | x]: one product with a table gives its row sums, its
        # product with the scale and its product with the design.
        self.ends = np.empty((count, n, p + 2))
        self.ends[..., 0] = 1.0
        self.ends[..., 1] = self.scale
        self.ends[..., 2:] = stack
        self.sides = self.ends[0, :, :2].copy(order="F")      # [1 | scale]
        # -u = t_j - t_i is the rank-2 product [1 | -t] [t ; 1], whose one
        # rounding is the subtraction's; rows 0 and 1 below stay fixed.
        self.left = np.ones((count, n, 2))
        self.right = np.ones((count, 2, n))
        shape = (count, n, n)
        self.s, self.dens, self.h = np.empty(shape), np.empty(shape), np.empty(shape)


def pair_workspace(weights: PairWeights, x) -> PairWorkspace:
    """The workspace of a problem on design ``x`` with these weights: the
    weights' sampled tables when they have them, else ``x`` alone."""
    if weights.tables is not None:
        stack = np.stack(weights.tables)
    else:
        stack = np.asarray(x.x if isinstance(x, StandardizedDesign) else x, dtype=float)[None]
    return PairWorkspace(stack, weights.r, weights.measure)


def _logistic_of_negated(s):
    """sigma(u) in place over a buffer holding -u: ``exp``, ``+= 1`` and
    ``reciprocal``. Where exp(-u) overflows, the reciprocal of inf is exactly
    0, the limit of sigma as u -> -inf."""
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def _sigma_table(t, out=None):
    """sigma(u) for u_ij = t_i - t_j over the last axis of ``t`` (one table
    per leading index), built in one buffer, ``out`` when given: it starts
    as -u (t_j - t_i, exactly the negation of t_i - t_j)."""
    return _logistic_of_negated(np.subtract(t[..., None, :], t[..., :, None], out=out))


def _bound_curvature(u, s, out=None):
    """``solver.jj_coefficient(u)`` from s = sigma(u) already in hand:
    tanh(u/2)/(4u) = (sigma(u) - 1/2)/(2u), with the same series near zero.
    The result is written into ``out`` when given, which may be ``u``."""
    small = np.abs(u) <= 1e-4
    near = 0.125 - u[small] ** 2 / 96.0
    out = np.asarray(np.multiply(u, 2.0, out=out))
    out[small] = 1.0
    np.divide(s - 0.5, out, out=out)
    out[small] = near
    return out


def _check_concordance(d, live):
    """Raise when D is not positive: ``DegenerateWeights`` when every pair
    weight is zero (``live`` is False), else ``NonpositiveConcordance``."""
    if not d > 0:
        if not live:
            raise DegenerateWeights("all pairwise weights are zero")
        raise NonpositiveConcordance(f"concordance D = {d} is not positive")


def _laplacian(work, g):
    """sum over tables of X' diag(g 1) X - X' g X for symmetric tables g,
    which is half of sum_ij g_ij (x_i - x_j)(x_i - x_j)'."""
    gb = g @ work.ends
    cross = work.flat.T @ gb[..., 2:].reshape(work.flat.shape)
    return work.flat.T @ (gb[..., :1].reshape(-1, 1) * work.flat) - 0.5 * (cross + cross.T)


def _pair_sums(work, beta, nu, gradient=False, mm=False, hessian=False):
    """Weighted pair sums of sigma(u_ij), u_ij = (x_i - x_j)' beta / nu,
    averaged over the S design tables of ``work``, a ``PairWorkspace``.

    sigma(u) of all S tables comes from one ``exp`` into the workspace's
    (S, n, n) buffer, and every reduction is a matrix-vector product or a
    gemm over the stacked tables. The logistic density is formed as
    sigma(u) sigma(-u) = s * s', so each entry carries a relative error of
    a few ulp however far apart the pair is (its zero-difference diagonal is
    set to zero), and the Hessian's density * (1 - 2 s) as the antisymmetric
    h = density * (s' - s). A pair sum sum_ij w_ij f_ij (x_i - x_j) of a
    symmetric f, or the outer-product sum of an antisymmetric f, only sees
    w - w', which for Kendall is the constant times ``sign``.

    Returns (d, grad, lin, quad, hess). d is D = mean_T sum_ij w_ij sigma(u_ij).
    grad is dD/dbeta when ``gradient`` is set, else None; hess is the Hessian
    of D, mean_T sum_ij w_ij s_ij (1 - s_ij)(1 - 2 s_ij) a_ij a_ij' / nu^2 with
    s = sigma(u) and a_ij = x_i - x_j, when ``hessian`` is set, else None.
    When ``mm`` is set, lin = sum_k q_k a_k and quad = sum_k q_k c_k a_k a_k',
    where k runs over the pairs of every table, a_k is the scaled pair
    difference, c_k the logistic-bound curvature at u_k and
    q_k = w_k sigma(u_k) / (S D) the quasi-probabilities; otherwise both are
    None. None of them is a view of the workspace.
    """
    count, n, p = work.stack.shape
    t = (work.flat @ beta).reshape(count, n) / nu
    work.left[..., 1] = -t
    work.right[:, 0] = t
    s = _logistic_of_negated(np.matmul(work.left, work.right, out=work.s))
    if work.mask is None:
        d = float(np.sum(s @ work.sides[:, 0] @ work.scale)) / count
    else:
        d = work.scale[0] * float(np.sum(s.reshape(count, n * n) @ work.mask.ravel())) / count
    _check_concordance(d, work.live)
    grad = hess = lin = quad = None
    if gradient or hessian:
        st = s.transpose(0, 2, 1)
        dens = np.multiply(s, st, out=work.dens)         # sigma(u) sigma(-u)
        dens.reshape(count, n * n)[:, ::n + 1] = 0.0
    if hessian:
        h = np.subtract(st, s, out=work.h)
        h *= dens                                        # dens * (1 - 2 s)
        if work.sign is None:
            # sum_ij scale_i h_ij a_ij a_ij' = X' diag(scale h1 - h scale) X
            # less (scale X)'(h X) and its transpose
            hb = h @ work.ends
            diag = work.scale * hb[..., 0] - hb[..., 1]
            cross = work.scaled.T @ hb[..., 2:].reshape(work.flat.shape)
            hess = work.flat.T @ (diag.reshape(-1, 1) * work.flat) - cross - cross.T
        else:
            h *= work.sign
            hess = work.scale[0] * _laplacian(work, h)
        hess /= nu * nu * count
    if gradient:
        if work.sign is None:
            ends = dens @ work.sides                     # [dens 1 | dens scale]
            coef = work.scale * ends[..., 0] - ends[..., 1]
        else:
            dens *= work.sign
            coef = work.scale[0] * (dens @ work.sides[:, 0])
        grad = work.flat.T @ coef.ravel() / (nu * count)
    if mm:
        # The density and Hessian buffers serve as scratch: v = w * s, then u.
        if work.mask is None:
            v = np.multiply(s, work.scale[:, None], out=work.dens)
        else:
            v = np.multiply(s, work.mask, out=work.dens)
            v *= work.scale[0]
        lin = work.flat.T @ (v.sum(axis=2) - v.sum(axis=1)).ravel() / (nu * count * d)
        u = np.negative(np.matmul(work.left, work.right, out=work.h), out=work.h)
        v *= _bound_curvature(u, s, out=u)
        quad = _laplacian(work, np.add(v, v.transpose(0, 2, 1), out=work.h))
        quad /= nu * nu * count * d
    return d, grad, lin, quad, hess


def fold_pair_sums(r, measure, x, beta, nu):
    """``_pair_sums``' D, gradient and Hessian for every leave-one-out fold k
    at one beta, from one full-data sigma table, with the engine's density
    s * s' and antisymmetric Hessian weight.

    Fold k keeps the rows i != k with ranks r_i - [r_i >= r_k], so its weights
    are w_ij = c * omega_ki * o_ij over i, j != k. Spearman: o = 1,
    omega_ki = r_i - [r_i >= r_k] and c = 1 / (4 (n-1)^2). Kendall:
    o_ij = [r_i > r_j], which dropping a row does not change, omega_ki = 1 and
    c = 2 / ((n-1)(n-2)). With omega_kk = 0, a fold's sum of any pair term
    f_ij is sum_i omega_ki (sum_j o_ij f_ij - o_ik f_ik): the full table's row
    sums weighted by omega, less fold k's column. That is a few n x n
    operations and n x n by n x p^2 products, O(n^2 + n p^2) memory.

    Returns d (n,), grad (n, p) and hess (n, p, p), fold k in row k. D is not
    checked here: ``fit_rasper`` passes each fold's to ``_check_concordance``.
    """
    n, p = x.shape
    r = np.asarray(r, dtype=float)
    s = _sigma_table((x @ beta) / nu)
    m = s * s.T                              # logistic density sigma(u) sigma(-u)
    np.fill_diagonal(m, 0.0)                 # x_i - x_i = 0 anyway
    h = s.T - s
    h *= m                                   # m_ij * (1 - 2 s_ij), antisymmetric
    if measure == SPEARMAN:
        omega = r[None, :] - (r[None, :] >= r[:, None])
        c = 1.0 / (4.0 * (n - 1.0) ** 2)
    else:
        order = r[:, None] > r[None, :]
        s, m, h = s * order, m * order, h * order
        omega = np.ones((n, n))
        c = 2.0 / ((n - 1.0) * (n - 2.0))
    np.fill_diagonal(omega, 0.0)
    xx = (x[:, :, None] * x[:, None, :]).reshape(n, p * p)

    def outer(a, b):
        return (a[:, :, None] * b[:, None, :]).reshape(n, p * p)

    d = omega @ s.sum(axis=1) - (omega * s.T).sum(axis=1)
    a = omega * m.T
    grad = omega @ (m.sum(axis=1)[:, None] * x - m @ x) - (a @ x - a.sum(axis=1)[:, None] * x)
    hx = h @ x
    rows = h.sum(axis=1)[:, None] * xx - outer(x, hx) - outer(hx, x) + h @ xx
    b = omega * h.T
    bx = b @ x
    cols = b @ xx - outer(bx, x) - outer(x, bx) + b.sum(axis=1)[:, None] * xx
    hess = (omega @ rows - cols).reshape(n, p, p)
    return c * d, (c / nu) * grad, (c / (nu * nu)) * hess


def concordance_value(x, beta, nu, weights: PairWeights) -> float:
    """D = sum_ij w_ij g_nu((x_i - x_j)' beta), averaged over sampled tables
    for marginalized weights."""
    work = pair_workspace(weights, x)
    beta = _checked_beta(work.stack[0], beta)
    return _pair_sums(work, beta, nu)[0]


def concordance_gradient(x, beta, nu, weights: PairWeights) -> np.ndarray:
    """Gradient of D with respect to beta."""
    work = pair_workspace(weights, x)
    beta = _checked_beta(work.stack[0], beta)
    return _pair_sums(work, beta, nu, gradient=True)[1]


@dataclass(frozen=True)
class MarginalSampler:
    """Gaussian conditional sampler for novel covariates given conventional
    ones, with frozen draws for a deterministic marginalized objective."""

    sigma_bz: np.ndarray                    # (p - q, q) cross-covariance
    cond_cov: np.ndarray                    # (p - q, p - q), eigenvalue-clamped
    tables: tuple[np.ndarray, ...]          # S design tables [Z | B^(s)]


def build_marginal_sampler(z, b, samples, seed) -> MarginalSampler:
    """Estimate b | z ~ N(Sigma_bz z, I - Sigma_bz Sigma_bz') from standardized
    blocks and draw S reproducible design tables.

    The plug-in conditional covariance is symmetrized and its eigenvalues are
    clamped at zero so the sampler stays well-defined when it is indefinite.
    """
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if z.ndim != 2 or b.ndim != 2 or z.shape[0] != b.shape[0]:
        raise DimensionMismatch("z and b must be 2-d with equal row counts")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = z.shape[0]
    d = b.shape[1]
    sigma_bz = (b.T @ z) / n
    cond = np.eye(d) - sigma_bz @ sigma_bz.T
    cond = 0.5 * (cond + cond.T)
    evals, evecs = np.linalg.eigh(cond)
    evals = np.clip(evals, 0.0, None)
    root = evecs * np.sqrt(evals)           # cond^{1/2} factor
    cond_clamped = (evecs * evals) @ evecs.T

    rng = np.random.default_rng(seed)
    mean = z @ sigma_bz.T
    tables = []
    for _ in range(samples):
        eps = rng.standard_normal((n, d))
        tables.append(np.hstack([z, mean + eps @ root.T]))
    return MarginalSampler(sigma_bz=sigma_bz, cond_cov=cond_clamped, tables=tuple(tables))


def marginalized_weights(base: PairWeights, sampler: MarginalSampler) -> PairWeights:
    """Attach the sampler's frozen design tables to a weight set."""
    return PairWeights(r=base.r, measure=base.measure, tables=sampler.tables)


def problem_weights(design: StandardizedDesign, ranks: ExternalRanks,
                    spec: ConcordanceSpec) -> PairWeights:
    """Weights of one fitting problem: ``pair_weights`` for the spec's
    measure, with S sampled design tables attached when the spec is
    marginalized and the design has novel covariates (p > q)."""
    weights = pair_weights(ranks, spec.measure)
    if spec.marginalized and design.p > design.q:
        sampler = build_marginal_sampler(design.z, design.b, spec.samples, spec.seed)
        weights = marginalized_weights(weights, sampler)
    return weights
