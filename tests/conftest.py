import numpy as np
import pytest
from hypothesis import strategies as st

from rasper.concordance import ConcordanceSpec, pair_weights
from rasper.data_model import external_ranks, standardize
from rasper.solver import PenalizedProblem, default_nu


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
