"""Ranking parameters, pairwise concordance weights, and the smoothed
concordance measure D.

One engine, ``_pair_sums``, evaluates every weighted pair sum the package
needs: D, its gradient and Hessian, and the MM solver's quasi-probability
sums. For each design table it forms sigma(u) over the n x n scaled
differences u once, with one in-place ``exp`` over a single buffer
(``_sigma_table``), and u itself only for the MM curvature; the n^2 x p
difference operator is never materialized.

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
        """The dense (n, n) weight matrix, built anew from the ranks.

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

    @property
    def total(self):
        return float(self.w.sum())


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


def _tables_for(weights: PairWeights, x):
    if weights.tables is not None:
        return weights.tables
    return (np.asarray(x.x if isinstance(x, StandardizedDesign) else x, dtype=float),)


def _sigma_table(t):
    """sigma(u) for u_ij = t_i - t_j, built in one buffer: it starts as -u
    (t_j - t_i, exactly the negation of t_i - t_j), then ``exp``, ``+= 1``
    and ``reciprocal`` act in place. Where exp(-u) overflows, the reciprocal
    of inf is exactly 0, the limit of sigma as u -> -inf."""
    s = np.subtract(t[None, :], t[:, None])
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def _bound_curvature(u, s):
    """``solver.jj_coefficient(u)`` from s = sigma(u) already in hand:
    tanh(u/2)/(4u) = (sigma(u) - 1/2)/(2u), with the same series near zero."""
    small = np.abs(u) <= 1e-4
    return np.where(small, 0.125 - u * u / 96.0,
                    (s - 0.5) / (2.0 * np.where(small, 1.0, u)))


def _pair_outer(xs, t):
    """sum_ij t_ij (x_i - x_j)(x_i - x_j)' without forming the differences."""
    xt = xs.T @ t @ xs
    diag = t.sum(axis=1) + t.sum(axis=0)
    return xs.T @ (diag[:, None] * xs) - xt - xt.T


def _pair_sums(w, tables, beta, nu, gradient=False, mm=False, hessian=False):
    """Weighted pair sums of sigma(u_ij), u_ij = (x_i - x_j)' beta / nu,
    averaged over the design tables; sigma(u) is formed once per table.

    Returns (d, grad, lin, quad, hess). d is D = mean_T sum_ij w_ij sigma(u_ij).
    grad is dD/dbeta when ``gradient`` is set, else None; hess is the Hessian
    of D, mean_T sum_ij w_ij s_ij (1 - s_ij)(1 - 2 s_ij) a_ij a_ij' / nu^2 with
    s = sigma(u) and a_ij = x_i - x_j, when ``hessian`` is set, else None.
    When ``mm`` is set, lin = sum_k q_k a_k and quad = sum_k q_k c_k a_k a_k',
    where k runs over the pairs of every table, a_k is the scaled pair
    difference, c_k the logistic-bound curvature at u_k and
    q_k = w_k sigma(u_k) / (S D) the quasi-probabilities; otherwise both are
    None.
    """
    p = beta.shape[0]
    d = 0.0
    grad = np.zeros(p) if gradient else None
    hess = np.zeros((p, p)) if hessian else None
    lin = np.zeros(p) if mm else None
    quad = np.zeros((p, p)) if mm else None
    for xs in tables:
        t = (xs @ beta) / nu
        s = _sigma_table(t)
        v = w * s
        d += float(v.sum())
        if gradient or hessian:
            m = v * s
            np.subtract(v, m, out=m)         # w_ij * logistic density at u_ij
        if gradient:
            grad += xs.T @ (m.sum(axis=1) - m.sum(axis=0)) / nu
        if hessian:
            m2 = m * s
            m2 *= -2.0
            m2 += m                          # m_ij * (1 - 2 s_ij)
            hess += _pair_outer(xs, m2) / (nu * nu)
        if mm:
            lin += xs.T @ (v.sum(axis=1) - v.sum(axis=0)) / nu
            curv = _bound_curvature(np.subtract.outer(t, t), s)
            quad += _pair_outer(xs, v * curv) / (nu * nu)
    count = len(tables)
    d /= count
    if not d > 0:
        if not np.any(w > 0):
            raise DegenerateWeights("all pairwise weights are zero")
        raise NonpositiveConcordance(f"concordance D = {d} is not positive")
    if gradient:
        grad /= count
    if hessian:
        hess /= count
    if mm:
        lin /= count * d
        quad /= count * d
    return d, grad, lin, quad, hess


def concordance_value(x, beta, nu, weights: PairWeights) -> float:
    """D = sum_ij w_ij g_nu((x_i - x_j)' beta), averaged over sampled tables
    for marginalized weights."""
    tables = _tables_for(weights, x)
    beta = _checked_beta(tables[0], beta)
    return _pair_sums(weights.w, tables, beta, nu)[0]


def concordance_gradient(x, beta, nu, weights: PairWeights) -> np.ndarray:
    """Gradient of D with respect to beta."""
    tables = _tables_for(weights, x)
    beta = _checked_beta(tables[0], beta)
    return _pair_sums(weights.w, tables, beta, nu, gradient=True)[1]


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
