from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from rasper.concordance import (
    ConcordanceSpec,
    PairWeights,
    pair_weights,
    pair_workspace,
)
from rasper.data_model import external_ranks, standardize
from rasper.solver import PenalizedProblem, _sums, default_nu


def make_problem(seed=0, n=20, p=3, lam=5.0, alpha=1.0, measure="spearman",
                 sigma=0.3, score_noise=0.1):
    """Small random instance with distinct external scores."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    beta_true = np.linspace(1.0, -0.5, p)
    y = z @ beta_true + sigma * rng.standard_normal(n)
    design = standardize(z)
    scores = z @ beta_true + score_noise * rng.standard_normal(n)
    ranks = external_ranks(scores)
    nu = default_nu(design, y)
    spec = ConcordanceSpec(measure=measure, marginalized=False, nu=nu,
                           samples=1, seed=seed)
    weights = pair_weights(ranks, measure)
    problem = PenalizedProblem(design=design, y=y, weights=weights, spec=spec,
                               lam=lam, alpha=alpha)
    return problem, ranks, scores


def _reference_sigma(t):
    s = np.subtract(t[None, :], t[:, None])
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    return 1.0 / (1.0 + s)


def _reference_pair_outer(xs, t):
    xt = xs.T @ t @ xs
    diag = t.sum(axis=1) + t.sum(axis=0)
    return xs.T @ (diag[:, None] * xs) - xt - xt.T


def reference_sums(w, tables, beta, nu):
    """The per-table pair-sum formula on a dense weight matrix ``w``, one
    table at a time: the reference the stacked engine is tested against.
    Returns the tuples of its two entry points at one beta, (d, grad, hess)
    as ``concordance._pair_sums`` gives a problem's row and (d, lin, quad)
    as ``concordance._surrogate_sums`` gives them."""
    from rasper.concordance import jj_coefficient

    p = beta.shape[0]
    d = 0.0
    grad, hess, lin, quad = np.zeros(p), np.zeros((p, p)), np.zeros(p), np.zeros((p, p))
    for xs in tables:
        t = (xs @ beta) / nu
        s = _reference_sigma(t)
        v = w * s
        d += float(v.sum())
        m = v - v * s                        # w_ij * logistic density
        grad += xs.T @ (m.sum(axis=1) - m.sum(axis=0)) / nu
        hess += _reference_pair_outer(xs, m * (1.0 - 2.0 * s)) / (nu * nu)
        lin += xs.T @ (v.sum(axis=1) - v.sum(axis=0)) / nu
        quad += _reference_pair_outer(xs, v * jj_coefficient(np.subtract.outer(t, t))) / (nu * nu)
    count = len(tables)
    d /= count
    return (d, grad / count, hess / count), (d, lin / (count * d), quad / (count * d))


def engine_sums(weights, x, beta, nu):
    """``solver._sums`` of one problem on the (n, p) design ``x`` with these
    ``weights`` at one beta (p,), on the workspace a fit builds: (d, grad,
    hess) from one ``concordance._pair_sums`` pass, with a D that is not
    positive raising its error."""
    return _sums(SimpleNamespace(workspace=pair_workspace(weights, x), nu=nu), beta)


def fold_weights(cache, measure):
    """Each leave-one-out fold's ``PairWeights`` from a fold cache
    ``(r, tables)``, fold k at index k."""
    r, tables = cache
    return [PairWeights(r=fr, measure=measure,
                        tables=None if tables is None else tuple(tables[k]))
            for k, fr in enumerate(r)]


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call; returns
    the list the calls are recorded in."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def small_problem():
    return make_problem()[0]


@st.composite
def paired_values(draw, tied):
    """Two equal-length float lists: small integers when ``tied`` (many
    ties), else distinct floats."""
    n = draw(st.integers(2, 40))
    if tied:
        values = st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)
    else:
        values = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n,
                          unique=True)
    return np.array(draw(values)), np.array(draw(values))
