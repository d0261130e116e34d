"""Competing estimators: OLS, ridge, distance and angle transfer learning,
rank stacking, and the nonlinear-target projection.

All fits solve on the centered design and profile the intercept as
ybar - xbar' beta, so the returned (intercept, coefficients) predict on the
scale of the design passed in.
"""

from __future__ import annotations

import numpy as np

from .data_model import ExternalRanks, StandardizedDesign
from .errors import SingularDesign


def _as_matrix(design):
    if isinstance(design, StandardizedDesign):
        return design.x
    return np.asarray(design, dtype=float)


def _centered(design, y):
    x = _as_matrix(design)
    y = np.asarray(y, dtype=float)
    xbar = x.mean(axis=0)
    return x - xbar, y - y.mean(), float(y.mean()), xbar


def fit_ols(design, y):
    """Ordinary least squares with intercept: ATL with alpha = lam = 0."""
    return fit_atl(design, y, 0.0, 0.0, np.zeros(_as_matrix(design).shape[1]))


def fit_ridge(design, y, alpha):
    """Ridge closed form (X'X + alpha I)^{-1} X'Y: ATL with beta_E = 0."""
    return fit_atl(design, y, alpha, 0.0, np.zeros(_as_matrix(design).shape[1]))


def fit_dtl(design, y, alpha, beta_external):
    """Distance transfer learning: shrink toward the external coefficients
    with the same weight alpha as the ridge term."""
    return fit_atl(design, y, alpha, alpha, beta_external)


def fit_atl(design, y, alpha, lam, beta_external):
    """Angle transfer learning: (X'X + alpha I)^{-1}(X'Y + lam beta_E).

    The one closed-form solve behind every linear baseline; alpha = 0 needs
    a nonsingular X'X.
    """
    if alpha < 0 or lam < 0:
        raise ValueError("alpha and lambda must be nonnegative")
    beta_external = np.asarray(beta_external, dtype=float)
    xc, yc, ybar, xbar = _centered(design, y)
    if beta_external.shape[0] != xc.shape[1]:
        raise ValueError("beta_external length does not match design")
    system = xc.T @ xc + alpha * np.eye(xc.shape[1])
    if alpha == 0 and np.linalg.matrix_rank(system) < xc.shape[1]:
        raise SingularDesign("X'X is singular")
    beta = np.linalg.solve(system, xc.T @ yc + lam * beta_external)
    return ybar - float(xbar @ beta), beta


def fit_stacking(design, y, ranks: ExternalRanks):
    """OLS over the design augmented with the external rank column
    (standardized like any covariate).

    Returns (intercept, coefficients, rank_mean, rank_scale); the last two
    let callers standardize rank values for new observations the same way.
    """
    x = _as_matrix(design)
    r = ranks.r.astype(float)
    n = x.shape[0]
    r_mean = r.mean()
    ss = float(((r - r_mean) ** 2).sum())
    if ss <= 0:
        raise SingularDesign("external ranks are constant")
    r_scale = np.sqrt(ss / (n - 1))
    augmented = np.hstack([x, ((r - r_mean) / r_scale)[:, None]])
    beta0, beta = fit_ols(augmented, y)
    return beta0, beta, float(r_mean), float(r_scale)


def projection_target(z, mu_external, p):
    """Least-squares projection of external scores onto the conventional
    covariates, zero-padded to length p."""
    z = _as_matrix(z)
    mu = np.asarray(mu_external, dtype=float)
    ztz = z.T @ z
    if np.linalg.matrix_rank(ztz) < z.shape[1]:
        raise SingularDesign("Z'Z is singular")
    beta_z = np.linalg.solve(ztz, z.T @ mu)
    out = np.zeros(p)
    out[: z.shape[1]] = beta_z
    return out
