"""Pairwise concordance weights and the smoothed concordance measure D.

Every weighted pair sum runs on a ``PairWorkspace``: B problems of one size
given as their (B, S, n, p) float array of design tables (S = 1 without
marginal tables) and their (B, n) ranks, with the weights as the ranks give
them (a Spearman row scale, or a constant times the Kendall strict-order
mask) and (C, S, n, n) buffers that every pass reuses, C problems at a time.
A pass builds a chunk's fixed pieces in buffers allocated once, the same
way for plain problems and for S > 1 tables. One kernel,
``_sigma``, builds sigma(u) of a chunk's C * S tables with one rank-2 gemm
and one in-place ``exp``. Three entry points with fixed outputs
reduce it by matrix-vector products and gemms over the stack, so neither the
n^2 x p difference operator nor the dense weights ``PairWeights.w`` is built:
``_pair_sums`` gives (D, gradient, Hessian) of every problem at its own beta;
``_surrogate_sums`` gives D and the MM surrogate's pieces of one problem; and
``fold_pair_sums`` gives (D, gradient, Hessian) of every leave-one-out fold
at one beta from the one-problem workspace of the full data, which its
fits use. The first and the last share
``_densities``, the logistic density and the Hessian weight.

``problem_weights`` is the one place that decides a problem's weights: the
measure's pair weights, plus sampled design tables when the spec is
marginalized and the design has novel covariates.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass

import numpy as np

from .data_model import ExternalRanks, StandardizedDesign
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
        # NaN fails every comparison; the Hessian divides by nu^2, which
        # must not underflow to 0; an int beyond the float range overflows
        try:
            normal = 0 < self.nu < np.inf and self.nu * self.nu >= np.finfo(float).tiny
        except OverflowError:
            normal = False
        if not normal:
            raise InvalidValue(f"nu must be positive and finite, and nu^2 a normal float, "
                               f"not {self.nu!r}")
        for name, low in (("samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise InvalidValue(f"{name} must be an integer >= {low}, not {value!r}")


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
            raise InvalidValue(f"unknown measure {self.measure!r}")

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


def pair_weights(ranks: ExternalRanks, measure: str) -> PairWeights:
    """Pairwise weights for the chosen association measure (see
    ``PairWeights.w``)."""
    return PairWeights(r=ranks.r, measure=measure)


# Pair entries per (C, S, n, n) engine buffer, which sets C: C = 4 at n = 99
# plain rows keeps the three in a 2 MB L2 cache; C = 8 ran slower per problem.
CHUNK_PAIRS = 40_000


class PairWorkspace:
    """The inputs and the reusable buffers of the pair sums of B problems of
    one size, held on a leading problem axis.

    ``tables`` is the problems' (B, S, n, p) float array of design tables
    (S = 1 for plain problems), kept uncopied, and ``r`` their (B, n)
    ranks, as floats. ``live`` (B,) is False where all of a problem's
    weights are zero (all-tied Kendall ranks). The weights
    (``PairWeights.w``) are Spearman's row ``scale`` r_i / (4 n^2), or
    Kendall's ``const`` = 2 / (n (n - 1)) times the ``mask`` I(r_i > r_j)
    and its antisymmetric ``sign`` = mask - mask', all the gradient and the
    Hessian need.

    ``_pair_sums`` walks the problems in chunks of ``chunk`` = C, as many as
    ``CHUNK_PAIRS`` pair entries per buffer allow, and ``load`` builds a
    chunk's pieces, the same way for any S, into (C, ...) buffers allocated
    once, here: ``ends`` = [1 | scale | x] of each table, whose one product
    with a table gives its row sums, its product with the scale and its
    product with the design (the scale is Kendall's constant); for
    Spearman, the scaled rows and ``sides`` = [1 | scale]; for Kendall, the
    mask and its sign, in place. ``left`` and ``right``, whose fixed rows of
    ones make -u a rank-2 product, are allocated once too. The chunk loaded
    last is kept, so a batch of one chunk, such as a single fit, loads it
    once. The buffers are overwritten by every pass, and a workspace
    ``take`` returns shares them, so a workspace serves one thread at a
    time; nothing an entry point returns is a view of them.
    """

    def __init__(self, stack, r, measure):
        size, count, n, p = stack.shape
        r = np.asarray(r, dtype=float)
        self.tables, self.r, self.measure = stack, r, measure
        self.live = (r > 0).any(axis=1) if measure == SPEARMAN else r.max(axis=1) > r.min(axis=1)
        self.chunk = chunk = min(size, max(1, CHUNK_PAIRS // (count * n * n)))
        self.s, self.dens, self.h = (np.empty((chunk, count, n, n)) for _ in range(3))
        # -u = t_j - t_i is the rank-2 product [1 | -t] [t ; 1], whose one
        # rounding is the subtraction's; _sigma writes the t rows only.
        self.left_buf = np.ones((chunk, count, n, 2))
        self.right_buf = np.ones((chunk, count, 2, n))
        self.ends_buf = np.ones((chunk, count, n, p + 2))      # load writes scale and x
        self.ones, self.mask, self.sign = np.ones(n), None, None
        if measure == SPEARMAN:
            self.const = None
            self.scaled_buf = np.empty((chunk, count, n, p))
            # [1 | scale] of each problem, column-major as a gemm operand
            self.sides_buf = np.ones((chunk, 1, 2, n))
        else:
            self.const = 2.0 / max(n * (n - 1.0), 1.0)
            self.ends_buf[..., 1] = self.const
            self.mask_buf, self.sign_buf = (np.empty((chunk, 1, n, n)) for _ in range(2))
            self.order = np.empty((2, chunk, 1, n, n), dtype=bool)
        self.loaded = None

    def load(self, first):
        """This workspace, with the pieces of the chunk of problems that
        starts at problem ``first`` built in its buffers, unless it was
        loaded last."""
        if first == self.loaded:
            return self
        stack = self.tables[first:first + self.chunk]
        size, count, n, p = self.shape = stack.shape
        self.flat = stack.reshape(size, count * n, p)
        self.flat_t = self.flat.transpose(0, 2, 1)
        self.left, self.right = self.left_buf[:size], self.right_buf[:size]
        self.ends = self.ends_buf[:size]
        self.ends[..., 2:] = stack
        if self.const is None:
            self.scale = self.r[first:first + size] / (4.0 * n * n)
            self.rows = self.scale[:, None, :]         # the scale along a table's rows
            self.ends[..., 1] = self.rows
            scaled = np.multiply(self.rows[..., None], stack, out=self.scaled_buf[:size])
            self.scaled_t = scaled.reshape(size, count * n, p).transpose(0, 2, 1)
            self.sides_buf[:size, 0, 1] = self.scale
            self.sides = self.sides_buf[:size].transpose(0, 1, 3, 2)
        else:
            self.mask, self.sign = self.mask_buf[:size], self.sign_buf[:size]
            self._build_mask(self.r[first:first + size])
        self.loaded = first
        return self

    def _build_mask(self, r):
        """The chunk's order mask I(r_i > r_j) and its sign mask - mask', in
        place. The ranks are broadcast into the two buffers first, and the
        comparisons write to bool buffers: numpy copies a broadcast operand,
        or a bool result bound for a float array, through transient
        buffers (142 KB a load at n = 100)."""
        size = r.shape[0]
        ri, rj = self.mask, self.sign
        np.copyto(ri, r[:, None, :, None])
        np.copyto(rj, r[:, None, None, :])
        greater, less = self.order[:, :size]
        np.greater(ri, rj, out=greater)
        np.less(ri, rj, out=less)                  # the transposed mask
        np.copyto(self.mask, greater)
        np.copyto(self.sign, less)
        np.subtract(self.mask, self.sign, out=self.sign)

    def take(self, index):
        """The workspace of the problems ``index``, in that order: a copy of
        their inputs, on these buffers. Both workspaces are left unloaded,
        so the next pass of either builds its pieces afresh, but a pass of
        one does not unload the other, so the two must not take turns after
        that; ``fit_batch`` drops the batch it takes from."""
        part = copy.copy(self)
        part.tables, part.r, part.live = self.tables[index], self.r[index], self.live[index]
        self.loaded = part.loaded = None
        return part


def pair_workspace(weights: PairWeights, x) -> PairWorkspace:
    """The workspace of one problem on the (n, p) design ``x`` with these
    weights: the weights' sampled tables when they have them, else ``x``."""
    stack = x[None] if weights.tables is None else np.stack(weights.tables)
    return PairWorkspace(stack[None], weights.r[None], weights.measure)


def _logistic_of_negated(s):
    """sigma(u) in place over a buffer holding -u: ``exp``, ``+= 1`` and
    ``reciprocal``. Where exp(-u) overflows, the reciprocal of inf is exactly
    0, the limit of sigma as u -> -inf."""
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


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


def _concordance_error(d, live):
    """The error of a problem whose D is not positive: ``DegenerateWeights``
    when every pair weight is zero (``live`` is False), else
    ``NonpositiveConcordance``."""
    if not live:
        return DegenerateWeights("all pairwise weights are zero")
    return NonpositiveConcordance(f"concordance D = {d} is not positive")


def _laplacian(work, g):
    """sum over tables of X' diag(g 1) X - X' g X for symmetric tables g,
    which is half of sum_ij g_ij (x_i - x_j)(x_i - x_j)', for each problem."""
    gb = g @ work.ends
    cross = work.flat_t @ gb[..., 2:].reshape(work.flat.shape)
    return work.flat_t @ (gb[..., :1].reshape(work.shape[0], -1, 1) * work.flat) \
        - 0.5 * (cross + cross.transpose(0, 2, 1))


def _sigma(work, beta, nu):
    """The kernel: sigma(u_ij), u_ij = (x_i - x_j)' beta / nu, of every table
    of the loaded chunk at its problem's row of ``beta`` (C, p), in the
    workspace's ``s`` buffer: -u is one rank-2 gemm of ``left`` and
    ``right`` for the chunk's C * S tables, made sigma(u) by one ``exp``."""
    size, count, n, p = work.shape
    t = np.matmul(work.flat, beta.reshape(-1, p, 1)).reshape(size, count, n) / nu
    work.left[..., 1] = -t
    work.right[:, :, 0] = t
    return _logistic_of_negated(np.matmul(work.left, work.right, out=work.s[:size]))


def _concordance(work, s):
    """D of each problem of the loaded chunk, from its sigma tables ``s``."""
    size, count, n, _ = s.shape
    if work.mask is None:
        d = np.matmul(s @ work.ones, work.scale[..., None]).reshape(size, count).sum(axis=1)
    else:
        d = np.matmul(s.reshape(size, count, n * n), work.mask.reshape(size, n * n, 1))
        d = work.const * d.reshape(size, count).sum(axis=1)
    return d / count


def _densities(work, s):
    """The logistic density sigma(u) sigma(-u) = s * s' of the sigma tables
    ``s``, accurate to a few ulp however far apart the pair is, with its
    zero-difference diagonal set to zero, and the antisymmetric Hessian
    weight density * (1 - 2 s) as density * (s' - s), in the workspace's
    ``dens`` and ``h`` buffers."""
    size, count, n, _ = s.shape
    # s' = sigma(-u) is read twice, so it is copied out once: two
    # transposed reads of an n x n table cost more than one.
    st = work.h[:size]
    np.copyto(st, s.transpose(0, 1, 3, 2))
    dens = np.multiply(s, st, out=work.dens[:size])
    dens.reshape(size * count, n * n)[:, ::n + 1] = 0.0
    h = np.subtract(st, s, out=st)
    h *= dens
    return dens, h


def _pair_sums(work, beta, nu):
    """(d, grad, hess) of every problem of ``work``, a ``PairWorkspace``, at
    its row of ``beta`` (B, p), with shapes (B,), (B, p) and (B, p, p):
    D = mean_T sum_ij w_ij sigma(u_ij) over the problem's S tables, dD/dbeta
    and mean_T sum_ij w_ij s_ij (1 - s_ij)(1 - 2 s_ij) a_ij a_ij' / nu^2 with
    s = sigma(u) and a_ij = x_i - x_j. None is a view of the workspace, and
    a D that is not positive is the caller's to judge.

    The problems are taken in the workspace's chunks of C, and every
    reduction is a matrix-vector product or a gemm over a chunk's stacked
    tables, so each problem's sums are those a workspace of it alone gives.
    A pair sum sum_ij w_ij f_ij (x_i - x_j) of a symmetric f, or the
    outer-product sum of an antisymmetric f, only sees w - w', which for
    Kendall is the constant times ``sign``.
    """
    parts = []
    for first in range(0, len(work.r), work.chunk):
        size, count, _, p = work.load(first).shape
        s = _sigma(work, beta[first:first + size], nu)
        d = _concordance(work, s)
        dens, h = _densities(work, s)
        if work.sign is None:
            # sum_ij scale_i h_ij a_ij a_ij' = X' diag(scale h1 - h scale) X
            # less (scale X)'(h X) and its transpose
            hb = h @ work.ends
            diag = work.rows * hb[..., 0] - hb[..., 1]
            cross = work.scaled_t @ hb[..., 2:].reshape(work.flat.shape)
            hess = work.flat_t @ (diag.reshape(size, -1, 1) * work.flat) \
                - cross - cross.transpose(0, 2, 1)
            ends = dens @ work.sides                     # [dens 1 | dens scale]
            coef = work.rows * ends[..., 0] - ends[..., 1]
        else:
            h *= work.sign
            hess = work.const * _laplacian(work, h)
            dens *= work.sign
            coef = work.const * (dens @ work.ones)
        hess /= nu * nu * count
        grad = np.matmul(work.flat_t, coef.reshape(size, -1, 1)).reshape(size, p) / (nu * count)
        parts.append((d, grad, hess))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))


def _surrogate_sums(work, beta, nu):
    """The MM surrogate's pieces (d, lin, quad) of a one-problem ``work`` at
    one beta (p,): D, lin = sum_k q_k a_k and quad = sum_k q_k c_k a_k a_k',
    where k runs over the pairs of every table, a_k is the scaled pair
    difference, c_k the logistic-bound curvature at u_k and
    q_k = w_k sigma(u_k) / (S D) the quasi-probabilities. Neither array is
    a view of the workspace; a D that is not positive raises its
    ``_concordance_error``."""
    work = work.load(0)
    size, count, _, p = work.shape
    s = _sigma(work, beta[None], nu)
    d = _concordance(work, s)
    if not d[0] > 0:
        raise _concordance_error(float(d[0]), work.live[0])
    # The density and Hessian buffers serve as scratch: v = w * s, then u.
    h_buf = work.h[:size]
    if work.mask is None:
        v = np.multiply(s, work.rows[..., None], out=work.dens[:size])
    else:
        v = np.multiply(s, work.mask, out=work.dens[:size])
        v *= work.const
    lin = np.matmul(work.flat_t, (v.sum(axis=3) - v.sum(axis=2)).reshape(size, -1, 1))
    lin = lin.reshape(size, p) / (nu * count * d[:, None])
    v *= jj_coefficient(np.negative(np.matmul(work.left, work.right, out=h_buf), out=h_buf))
    quad = _laplacian(work, np.add(v, v.transpose(0, 1, 3, 2), out=h_buf))
    quad /= nu * nu * count * d[:, None, None]
    return float(d[0]), lin[0], quad[0]


def fold_pair_sums(work, beta, nu):
    """``_pair_sums``' D, gradient and Hessian for every leave-one-out fold k
    at one beta, from the sigma tables and the densities (``_sigma`` and
    ``_densities``) of ``work``, the one-problem ``PairWorkspace`` of the
    full data (its S (n, p) design tables and the full-data ranks) that the
    full-data fits use. Fold k's tables are the full data's without row k.

    Fold k keeps the rows i != k with ranks r_i - [r_i >= r_k], so its weights
    are w_ij = c * omega_ki * o_ij over i, j != k. Spearman: o = 1,
    omega_ki = r_i - [r_i >= r_k] and c = 1 / (4 (n-1)^2). Kendall:
    o_ij = [r_i > r_j], the workspace's order mask, which dropping a row does
    not change, omega_ki = 1 and c = 2 / ((n-1)(n-2)). With omega_kk = 0, a
    fold's sum of any pair term f_ij over one table is
    sum_i omega_ki (sum_j o_ij f_ij - o_ik f_ik): the full table's row sums
    weighted by omega, less fold k's column. That is a few n x n operations
    and n x n by n x p^2 products with the rows' outer products per table,
    O(S n^2 + n p^2) memory; the tables' sums are added and divided by S.

    Returns d (n,), grad (n, p) and hess (n, p, p), fold k in row k, none a
    view of the workspace. D is not checked here: ``solver.fit_batch`` fails
    each fold whose D is not positive with its ``_concordance_error``.
    """
    r, (count, n, p) = work.r[0], work.tables.shape[1:]
    if work.measure == SPEARMAN:
        omega = r[None, :] - (r[None, :] >= r[:, None])
        c = 1.0 / (4.0 * (n - 1.0) ** 2)
    else:
        omega = np.ones((n, n))
        c = 2.0 / ((n - 1.0) * (n - 2.0))
    np.fill_diagonal(omega, 0.0)
    work = work.load(0)
    sig = _sigma(work, np.asarray(beta, dtype=float)[None], nu)
    dens, hw = _densities(work, sig)

    def outer(a, b):
        return (a[:, :, None] * b[:, None, :]).reshape(n, p * p)

    parts = []
    for x, s, m, h in zip(work.tables[0], sig[0], dens[0], hw[0]):
        if work.measure == KENDALL:
            s, m, h = (a * work.mask[0, 0] for a in (s, m, h))
        xx = outer(x, x)
        d = omega @ s.sum(axis=1) - (omega * s.T).sum(axis=1)
        a = omega * m.T
        grad = omega @ (m.sum(axis=1)[:, None] * x - m @ x) - (a @ x - a.sum(axis=1)[:, None] * x)
        hx = h @ x
        rows = h.sum(axis=1)[:, None] * xx - outer(x, hx) - outer(hx, x) + h @ xx
        b = omega * h.T
        bx = b @ x
        cols = b @ xx - outer(bx, x) - outer(x, bx) + b.sum(axis=1)[:, None] * xx
        parts.append((d, grad, (omega @ rows - cols).reshape(n, p, p)))
    d, grad, hess = (np.add.reduce(a) / count for a in zip(*parts))
    return c * d, (c / nu) * grad, (c / (nu * nu)) * hess


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
        raise InvalidValue("samples must be >= 1")
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
