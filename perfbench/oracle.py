"""Independent numpy reference for the penalized objective and its gradient.

The benchmark judges fits with this module rather than with the package's
own solver code, so a later change to the solver cannot move the yardstick.
Everything here is written from the model's definition:

    F(b0, b) = 0.5 * ||y - b0 - X b||^2 + (alpha / 2) * ||b||^2 - lam * log D(b)
    D(b)     = mean over tables T of sum_ij w_ij * sigmoid(((T b)_i - (T b)_j) / nu)

with columns standardized to mean 0 and sum of squares n - 1, external ranks
r_i = #{j : s_i >= s_j}, Spearman weights r_i / (4 n^2) and Kendall weights
2 * [r_i > r_j] / (n (n - 1)).
"""

from __future__ import annotations

import numpy as np


def standardize(x):
    """Center each column and scale it to sum of squares n - 1."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    return centered / np.sqrt((centered ** 2).sum(axis=0) / (x.shape[0] - 1))


def ge_ranks(scores):
    """Rank of each score: how many scores it is greater than or equal to."""
    s = np.asarray(scores, dtype=float)
    return (s[:, None] >= s[None, :]).sum(axis=1)


def pair_weight_matrix(ranks, measure):
    """Nonnegative n x n pair weights for the Spearman or Kendall measure."""
    r = np.asarray(ranks, dtype=float)
    n = r.shape[0]
    if measure == "spearman":
        return np.repeat(r[:, None] / (4.0 * n * n), n, axis=1)
    if measure == "kendall":
        return 2.0 * (r[:, None] > r[None, :]) / (n * (n - 1.0))
    raise ValueError(f"unknown measure {measure!r}")


def default_nu(x_std, y):
    """0.1 times the norm of the least-squares coefficients on the
    standardized design (the package's documented default smoothing)."""
    yc = np.asarray(y, dtype=float) - np.mean(y)
    beta = np.linalg.lstsq(x_std, yc, rcond=None)[0]
    return 0.1 * float(np.linalg.norm(beta))


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _concordance_and_grad(tables, w, nu, beta):
    """D and dD/dbeta, averaged over the design tables."""
    d = 0.0
    grad = np.zeros(beta.shape[0])
    for t in tables:
        eta = t @ beta
        s = _sigmoid((eta[:, None] - eta[None, :]) / nu)
        d += float(np.sum(w * s))
        m = w * s * (1.0 - s)
        grad += t.T @ (m.sum(axis=1) - m.sum(axis=0)) / nu
    return d / len(tables), grad / len(tables)


def objective(x, y, w, nu, lam, alpha, beta0, beta, tables=None):
    """F(beta0, beta) on a standardized design ``x``."""
    beta = np.asarray(beta, dtype=float)
    resid = np.asarray(y, dtype=float) - beta0 - x @ beta
    value = 0.5 * float(resid @ resid) + 0.5 * alpha * float(beta @ beta)
    if lam > 0:
        d, _ = _concordance_and_grad(tables if tables is not None else (x,), w, nu, beta)
        value -= lam * np.log(d)
    return value


def gradient(x, y, w, nu, lam, alpha, beta0, beta, tables=None):
    """(dF/dbeta0, dF/dbeta) on a standardized design ``x``."""
    beta = np.asarray(beta, dtype=float)
    resid = np.asarray(y, dtype=float) - beta0 - x @ beta
    g0 = -float(resid.sum())
    g = -(x.T @ resid) + alpha * beta
    if lam > 0:
        d, dd = _concordance_and_grad(tables if tables is not None else (x,), w, nu, beta)
        g = g - lam * dd / d
    return g0, g


def relative_gradient(x, y, w, nu, lam, alpha, beta0, beta, tables=None):
    """Stationarity of a fit: ||grad F|| / ||X_c' y_c||, zero at an exact
    minimizer and scale-free in y."""
    g0, g = gradient(x, y, w, nu, lam, alpha, beta0, beta, tables)
    xc = x - x.mean(axis=0)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    return float(np.hypot(g0, np.linalg.norm(g)) / np.linalg.norm(xc.T @ yc))


def local_minimizer(x, y, alpha):
    """Minimizer of 0.5 * RSS + (alpha / 2) * ||b||^2 (the fit's cold start)."""
    xc = x - x.mean(axis=0)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    beta = np.linalg.solve(xc.T @ xc + alpha * np.eye(x.shape[1]), xc.T @ yc)
    return float(np.mean(y - x @ beta)), beta
