"""Reference forms of the paper's quantities that the package itself never
evaluates: the ranking parameters and the MM surrogate. The tests check the
package's engine and solver against them."""

import numpy as np

from rasper.concordance import _logistic_of_negated, _surrogate_sums
from rasper.data_model import StandardizedDesign, ge_counts
from rasper.errors import DimensionMismatch, InvalidValue
from rasper.solver import _local_objective


def _checked_beta(x, beta):
    beta = np.asarray(beta, dtype=float)
    if x.shape[1] != beta.shape[0]:
        raise DimensionMismatch(f"design has {x.shape[1]} columns, beta has {beta.shape[0]}")
    if not np.all(np.isfinite(beta)):
        raise InvalidValue("beta contains non-finite values")
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


def _sigma_table(t):
    """sigma(u) for u_ij = t_i - t_j over the last axis of ``t`` (one table
    per leading index), built in one buffer: it starts as -u (t_j - t_i,
    exactly the negation of t_i - t_j)."""
    return _logistic_of_negated(np.subtract(t[..., None, :], t[..., :, None]))


def smooth_rank_params(x, beta, nu) -> np.ndarray:
    """Smoothed ranking parameters with the logistic kernel of scale nu.

    The diagonal contributes exactly 1/2, so each value lies in (0, n).
    """
    if not nu > 0:
        raise InvalidValue("nu must be positive")
    return _sigma_table(_linear_predictor(x, beta) / nu).sum(axis=1)


def surrogate_value(problem, beta0, beta, anchor_beta):
    """Value of the MM quadratic surrogate of the objective, anchored at
    ``anchor_beta``. Touches the objective there and upper-bounds it
    everywhere; used for validating the descent construction."""
    beta = np.asarray(beta, dtype=float)
    anchor_beta = np.asarray(anchor_beta, dtype=float)
    value = _local_objective(problem, beta0, beta)
    if problem.lam > 0:
        d_anchor, lin, quad = _surrogate_sums(problem.workspace, anchor_beta, problem.nu)

        def quad_part(b):
            return -0.5 * float(lin @ b) + float(b @ quad @ b)

        const = -np.log(d_anchor) - quad_part(anchor_beta)
        value += problem.lam * (quad_part(beta) + const)
    return value
