import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings, strategies as st

import rasper.solver as solver
from rasper.concordance import (
    ConcordanceSpec,
    PairWeights,
    build_marginal_sampler,
    marginalized_weights,
    pair_weights,
)
from rasper.data_model import StandardizedDesign, external_ranks, standardize
from rasper.errors import (
    DimensionMismatch,
    InvalidValue,
    NonFiniteValue,
    NonSPDSystem,
    SingularDesign,
)
from rasper.selection import fold_weight_cache
from rasper.solver import (
    PenalizedProblem,
    default_nu,
    fit_rasper,
    jj_coefficient,
    local_minimizer,
    mm_step,
    objective_gradient,
    penalized_objective,
    surrogate_value,
)

from conftest import make_problem


class TestJJCoefficient:
    def test_known_value(self):
        assert jj_coefficient(2.0) == pytest.approx(np.tanh(1.0) / 8.0)

    def test_maximum_at_zero(self):
        assert jj_coefficient(0.0) == pytest.approx(0.125)
        u = np.linspace(-5, 5, 201)
        assert np.all(jj_coefficient(u) <= 0.125 + 1e-15)

    def test_even_and_positive(self):
        u = np.linspace(-8, 8, 101)
        vals = jj_coefficient(u)
        assert np.allclose(vals, jj_coefficient(-u))
        assert np.all(vals > 0)

    def test_series_matches_exact_near_zero(self):
        for u in (1e-4, 9.9e-5, 2e-4, 5e-5):
            exact = np.tanh(u / 2.0) / (4.0 * u)
            assert jj_coefficient(u) == pytest.approx(exact, abs=1e-12)


class TestDefaultNu:
    def test_scales_with_ols_norm(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((30, 3))
        beta = np.array([1.0, -2.0, 0.5])
        y = z @ beta + 0.1 * rng.standard_normal(30)
        d = standardize(z)
        yc = y - y.mean()
        ols = np.linalg.lstsq(d.x - d.x.mean(axis=0), yc, rcond=None)[0]
        assert default_nu(d, y) == pytest.approx(0.1 * np.linalg.norm(ols))

    def test_floor_applied_with_warning(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((40, 2))
        y = np.zeros(40)  # OLS fit is exactly zero
        d = standardize(z)
        with pytest.warns(UserWarning, match="floor"):
            assert default_nu(d, y) == 1e-3

    def test_singular_design_falls_back_to_ridge(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(20)
        z = np.column_stack([col, 2.0 * col + 1.0])
        d = standardize(z)
        y = col + 0.1 * rng.standard_normal(20)
        with pytest.warns(UserWarning, match="singular"):
            nu = default_nu(d, y)
        assert np.isfinite(nu) and nu > 0


class TestObjective:
    def test_matches_manual_computation(self, small_problem):
        from rasper.concordance import concordance_value
        p = small_problem
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(p.design.p)
        beta0 = 0.3
        resid = p.y - beta0 - p.design.x @ beta
        manual = 0.5 * resid @ resid + 0.5 * p.alpha * beta @ beta
        manual -= p.lam * np.log(
            concordance_value(p.design.x, beta, p.nu, p.weights))
        assert penalized_objective(p, beta0, beta) == pytest.approx(manual)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_outcome_rejected(self, small_problem, bad):
        y = small_problem.y.copy()
        y[2] = bad
        with pytest.raises(NonFiniteValue):
            dataclasses.replace(small_problem, y=y)

    def test_lam_zero_ignores_weights(self):
        p, _, _ = make_problem(lam=0.0)
        beta = np.zeros(p.design.p)
        resid = p.y - p.y.mean()
        expected = 0.5 * resid @ resid
        assert penalized_objective(p, p.y.mean(), beta) == pytest.approx(expected)


class TestMMStep:
    def test_reduces_to_ridge_at_lam_zero(self):
        p, _, _ = make_problem(lam=0.0, alpha=2.5)
        x = p.design.x
        xc = x - x.mean(axis=0)
        yc = p.y - p.y.mean()
        closed = scipy.linalg.solve(xc.T @ xc + 2.5 * np.eye(p.design.p),
                                    xc.T @ yc, assume_a="pos")
        _, beta = mm_step(p, 0.0, np.zeros(p.design.p))
        assert np.allclose(beta, closed, atol=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_singular_system_raises(self, lam):
        # A zero column makes X_c'X_c and the MM curvature singular.
        p, _, _ = make_problem(lam=lam, alpha=0.0)
        x = p.design.x.copy()
        x[:, 1] = 0.0
        design = StandardizedDesign(x, p.design.mean, p.design.scale, p.design.q)
        p = dataclasses.replace(p, design=design)
        with pytest.raises(NonSPDSystem):
            mm_step(p, 0.0, np.full(p.design.p, 0.1))

    def test_intercept_profiled_exactly(self, small_problem):
        b0, beta = mm_step(small_problem, 0.0, np.zeros(small_problem.design.p))
        expected = np.mean(small_problem.y - small_problem.design.x @ beta)
        assert b0 == pytest.approx(expected)

    def test_single_step_descends(self, small_problem):
        p = small_problem
        beta = np.zeros(p.design.p)
        beta0 = p.y.mean()
        before = penalized_objective(p, beta0, beta)
        b0, b = mm_step(p, beta0, beta)
        assert penalized_objective(p, b0, b) <= before + 1e-12


class TestSurrogate:
    @pytest.mark.parametrize("seed", range(4))
    def test_touches_objective_at_anchor(self, seed):
        p, _, _ = make_problem(seed=seed)
        rng = np.random.default_rng(seed + 100)
        anchor = rng.standard_normal(p.design.p)
        beta0 = p.y.mean()
        assert surrogate_value(p, beta0, anchor, anchor) == pytest.approx(
            penalized_objective(p, beta0, anchor), abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_upper_bounds_objective(self, seed):
        p, _, _ = make_problem(seed=seed)
        rng = np.random.default_rng(seed + 200)
        anchor = rng.standard_normal(p.design.p)
        beta0 = p.y.mean()
        for _ in range(50):
            beta = 2.0 * rng.standard_normal(p.design.p)
            assert surrogate_value(p, beta0, beta, anchor) >= \
                penalized_objective(p, beta0, beta) - 1e-9


class TestFitRasper:
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0, 100.0])
    def test_monotone_trace(self, measure, lam):
        p, _, _ = make_problem(lam=lam, measure=measure)
        fit = fit_rasper(p)
        assert np.all(np.diff(fit.objective_trace) <= 1e-10)

    def test_gradient_vanishes_at_solution(self):
        p, _, _ = make_problem(lam=5.0, alpha=1.0)
        fit = fit_rasper(p, tol=1e-14, max_iter=5000)
        g0, g = objective_gradient(p, fit.beta0, fit.beta)
        assert abs(g0) < 1e-6
        assert np.linalg.norm(g) < 1e-4

    def test_improves_on_unpenalized_start(self, small_problem):
        fit = fit_rasper(small_problem)
        b0, b = local_minimizer(small_problem)
        assert fit.objective_trace[-1] <= \
            penalized_objective(small_problem, b0, b) + 1e-12

    def test_warm_start_used(self, small_problem):
        fit = fit_rasper(small_problem)
        warm = fit_rasper(small_problem, init=fit.beta)
        assert warm.iterations <= 2
        assert np.allclose(warm.beta, fit.beta, atol=1e-6)

    def test_warm_start_value_is_at_profiled_intercept(self, small_problem):
        # the first trace value is F at the point the solver starts from
        init = np.linspace(-0.5, 0.5, small_problem.design.p)
        fit = fit_rasper(small_problem, init=init)
        beta0 = float(np.mean(small_problem.y - small_problem.design.x @ init))
        assert fit.objective_trace[0] == penalized_objective(small_problem, beta0, init)

    def test_objective_gradient_matches_finite_differences(self):
        p, _, _ = make_problem(lam=3.0, alpha=0.7)
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(p.design.p)
        beta0 = 0.2
        g0, g = objective_gradient(p, beta0, beta)
        h = 1e-6
        fd0 = (penalized_objective(p, beta0 + h, beta)
               - penalized_objective(p, beta0 - h, beta)) / (2 * h)
        assert g0 == pytest.approx(fd0, rel=1e-5, abs=1e-6)
        for j in range(p.design.p):
            e = np.zeros(p.design.p)
            e[j] = h
            fd = (penalized_objective(p, beta0, beta + e)
                  - penalized_objective(p, beta0, beta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_marginalized_problem_fits(self):
        rng = np.random.default_rng(5)
        n, q, extra = 15, 2, 1
        z = rng.standard_normal((n, q))
        b = 0.5 * z[:, :1] + 0.3 * rng.standard_normal((n, extra))
        x = np.hstack([z, b])
        beta_true = np.array([1.0, -0.5, 0.25])
        y = x @ beta_true + 0.2 * rng.standard_normal(n)
        d = standardize(x, q=q)
        ranks = external_ranks(z @ beta_true[:q])
        spec = ConcordanceSpec("spearman", True, 0.2, samples=3, seed=0)
        w = marginalized_weights(pair_weights(ranks, "spearman"),
                                 build_marginal_sampler(d.z, d.b, 3, 0))
        prob = PenalizedProblem(d, y, w, spec, lam=2.0, alpha=0.5)
        fit = fit_rasper(prob)
        assert fit.converged
        assert np.all(np.diff(fit.objective_trace) <= 1e-10)


def _reference_objective_and_gradient(problem, theta):
    """F and its gradient in (beta0, beta), written from the model's
    definition with explicit n x n pair matrices, independent of the
    package's pair-sum engine."""
    x, y, w = problem.design.x, problem.y, problem.weights.w
    beta0, beta = theta[0], theta[1:]
    resid = y - beta0 - x @ beta
    value = 0.5 * resid @ resid + 0.5 * problem.alpha * beta @ beta
    grad = np.concatenate([[-resid.sum()], -(x.T @ resid) + problem.alpha * beta])
    tables = problem.weights.tables or (x,)
    d, dd = 0.0, np.zeros(beta.shape[0])
    for t in tables:
        diff = (t[:, None, :] - t[None, :, :]) / problem.nu      # (n, n, p)
        s = 0.5 * (1.0 + np.tanh(0.5 * (diff @ beta)))
        d += np.sum(w * s) / len(tables)
        dd += np.einsum("ij,ijk->k", w * s * (1.0 - s), diff) / len(tables)
    value -= problem.lam * np.log(d)
    grad[1:] -= problem.lam * dd / d
    return value, grad


def _oracle_problem(case, lam_ratio):
    rng = np.random.default_rng(21)
    n, q = 40, 2
    z = rng.standard_normal((n, q))
    b = 0.6 * z[:, :1] + 0.5 * rng.standard_normal((n, 2))
    x = np.hstack([z, b])
    y = x @ np.array([1.0, -0.6, 0.5, 0.3]) + 0.8 * rng.standard_normal(n)
    design = standardize(x, q=q)
    ranks = external_ranks(z @ np.array([1.2, -0.3]) + 0.3 * rng.standard_normal(n))
    measure = "kendall" if case == "kendall" else "spearman"
    marginal = case == "marginalized"
    spec = ConcordanceSpec(measure, marginal, default_nu(design, y), samples=3, seed=1)
    weights = pair_weights(ranks, measure)
    if marginal:
        weights = marginalized_weights(weights, build_marginal_sampler(design.z, design.b, 3, 1))
    return PenalizedProblem(design, y, weights, spec, lam=lam_ratio * n, alpha=0.04 * n)


class TestProblemCaches:
    @pytest.mark.parametrize("marginal", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_dense_weights_built_once_per_fit(self, monkeypatch, lam, marginal):
        problem, _, _ = make_problem(lam=lam)
        if marginal:
            x = problem.design.x
            sampler = build_marginal_sampler(x[:, :2], x[:, 2:], 3, 0)
            problem = dataclasses.replace(
                problem, weights=marginalized_weights(problem.weights, sampler))
        builds = []
        dense = PairWeights.w.fget
        monkeypatch.setattr(PairWeights, "w",
                            property(lambda self: builds.append(self) or dense(self)))
        fit = fit_rasper(problem)
        assert fit.iterations >= (lam > 0) and fit.concordance > 0
        assert len(builds) == 1

    def test_rank_count_must_match_rows(self):
        problem, ranks, _ = make_problem()
        short = pair_weights(external_ranks(ranks.r[1:]), "spearman")
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(problem, weights=short)

    def test_weights_measure_must_match_spec(self):
        problem, ranks, _ = make_problem(measure="spearman")
        with pytest.raises(InvalidValue, match="kendall"):
            dataclasses.replace(problem, weights=pair_weights(ranks, "kendall"))


class TestOracle:
    @pytest.mark.parametrize("lam_ratio", [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("case", ["spearman", "kendall", "marginalized"])
    def test_fit_is_stationary_and_bfgs_stays(self, case, lam_ratio):
        problem = _oracle_problem(case, lam_ratio)
        fit = fit_rasper(problem)
        assert fit.converged and fit.grad_norm <= 1e-8
        theta = np.concatenate([[fit.beta0], fit.beta])
        x = problem.design.x
        scale = np.linalg.norm((x - x.mean(axis=0)).T @ (problem.y - problem.y.mean()))
        _, grad = _reference_objective_and_gradient(problem, theta)
        assert np.linalg.norm(grad) <= 1e-8 * scale
        polished = scipy.optimize.minimize(
            lambda t: _reference_objective_and_gradient(problem, t), theta, jac=True,
            method="BFGS", options={"gtol": 1e-10})
        assert np.linalg.norm(polished.x[1:] - fit.beta) <= 1e-6 * np.linalg.norm(fit.beta)


class TestNewtonAndFallback:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), log_lam=st.floats(-2.0, 4.5),
           measure=st.sampled_from(["spearman", "kendall"]))
    def test_trace_non_increasing(self, seed, log_lam, measure):
        p, _, _ = make_problem(seed=seed, lam=10.0 ** log_lam, measure=measure)
        trace = fit_rasper(p).objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(solver, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
        return calls

    def test_newton_alone_at_moderate_lambda(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "mm_step")
        p, _, _ = make_problem(seed=0, lam=20.0)
        fit = fit_rasper(p)
        assert fit.converged and not calls
        assert fit.evaluations == fit.iterations + 1

    def test_mm_fallback_keeps_descent(self, monkeypatch):
        # At lambda = 1000 n the Kendall objective is far from convex at the
        # start, so Newton points are rejected or H is indefinite.
        calls = self._count_calls(monkeypatch, "mm_step")
        p, _, _ = make_problem(seed=0, lam=20000.0, measure="kendall")
        fit = fit_rasper(p)
        assert fit.converged and fit.grad_norm <= 1e-8
        assert 0 < len(calls) < fit.iterations
        assert fit.evaluations <= 2 * fit.iterations + 1
        assert np.all(np.diff(fit.objective_trace) <= 1e-12 * np.abs(fit.objective_trace[:-1]))

    @pytest.mark.parametrize("lam, measure", [(20.0, "spearman"), (20000.0, "kendall")])
    def test_one_pair_pass_per_point(self, monkeypatch, lam, measure):
        # The start gets penalized_objective's pass and a derivative pass;
        # every other point (trial or MM point) gets one pass, and each MM
        # step one more for its surrogate. No point is evaluated twice.
        mm_calls = self._count_calls(monkeypatch, "mm_step")
        passes = self._count_calls(monkeypatch, "_pair_sums")
        p, _, _ = make_problem(seed=0, lam=lam, measure=measure)
        fit = fit_rasper(p)
        assert fit.converged
        assert bool(mm_calls) == (measure == "kendall")
        assert len(passes) == fit.evaluations + 1 + len(mm_calls)
        # The trace takes F from the derivative pass in penalized_objective's
        # order, so the two agree to the last bit.
        assert fit.objective_trace[-1] == penalized_objective(p, fit.beta0, fit.beta)

    def test_constant_outcome_converges(self):
        p, _, _ = make_problem(lam=5.0)
        p = dataclasses.replace(p, y=np.full(p.design.n, 2.5))
        fit = fit_rasper(p)
        assert fit.converged and fit.grad_norm <= 1e-8
        assert np.linalg.norm(fit.beta) > 0      # the penalty alone moves beta
        assert fit.beta0 == pytest.approx(2.5)


def _study_1b(seed, n=100):
    """Study-1b data: x = [z, b1, b2] with b correlated with z, external
    score z beta_E."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 4))
    e = rng.standard_normal((n, 2))
    x = np.column_stack([z, 0.4 * z[:, 0] + e[:, 0],
                         0.25 * z[:, 0] + 0.5 * z[:, 2] + 0.1 * z[:, 3] + e[:, 1]])
    y = x @ np.array([1.0, 0.8, 0.6, 0.4, 0.5, 0.5]) + rng.standard_normal(n)
    design = standardize(x, q=4)
    ranks = external_ranks(z @ np.array([1.0, 0.8, 0.6, 0.4]))
    return design, y, ranks, default_nu(design, y)


class TestTrustRegion:
    @staticmethod
    def _model(h, g, s):
        return float(g @ s + 0.5 * s @ h @ s)

    @staticmethod
    def _step(h, g, radius):
        evals, evecs = np.linalg.eigh(h)
        return solver._trust_step(evals, evecs, g, radius)[:2]

    @staticmethod
    def _random_h(rng, evals):
        q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
        return q @ np.diag(evals) @ q.T

    def _check_pred_and_optimality(self, rng, h, g, radius, s, pred):
        assert pred > 0
        assert pred == pytest.approx(-self._model(h, g, s), rel=1e-10)
        best = self._model(h, g, s)
        for _ in range(200):
            t = rng.standard_normal(len(g))
            t *= radius * rng.uniform() ** (1 / len(g)) / np.linalg.norm(t)
            assert best <= self._model(h, g, t) + 1e-12 * abs(best)

    def _check_damped_step(self, rng, evals, evecs, g, radius):
        # Inside the ball, the minimizer over the ball of its own radius, and
        # at least 1/6 of ||g||*min(r, ||g||/||H||), the sufficient decrease.
        s, pred, damped = solver._trust_step(np.asarray(evals, dtype=float), evecs, g, radius)
        assert damped
        size = np.linalg.norm(s)
        assert 0 < size <= radius
        gnorm = np.linalg.norm(g)
        assert pred >= gnorm * min(radius, gnorm / np.max(np.abs(evals))) / 6
        h = evecs @ np.diag(evals) @ evecs.T
        self._check_pred_and_optimality(rng, h, g, size, s, pred)

    def test_newton_step_when_it_fits(self):
        rng = np.random.default_rng(0)
        h = self._random_h(rng, [0.5, 1.0, 3.0, 8.0])
        g = 0.1 * rng.standard_normal(4)
        newton = -np.linalg.solve(h, g)
        s, pred = self._step(h, g, 2.0 * np.linalg.norm(newton))
        assert np.allclose(s, newton, rtol=1e-12, atol=1e-14)
        self._check_pred_and_optimality(rng, h, g, 2.0 * np.linalg.norm(newton), s, pred)

    @pytest.mark.parametrize("evals", [[0.5, 1.0, 3.0, 8.0],       # Newton too long
                                       [-2.0, 0.3, 1.0, 5.0],      # indefinite
                                       [-1.0, -0.5, 0.0, 2.0]])    # indefinite, singular
    def test_damped_step(self, evals):
        rng = np.random.default_rng(1)
        evecs = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        self._check_damped_step(rng, evals, evecs, rng.standard_normal(4), 0.05)

    def test_gradient_orthogonal_to_lowest_eigenvector(self):
        # The exact subproblem's hard case; the damped step needs no branch
        # for it and stays off the lowest eigenvector.
        rng = np.random.default_rng(2)
        evecs = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        self._check_damped_step(rng, [-1.0, 2.0, 4.0], evecs, evecs[:, 1] + evecs[:, 2], 3.0)

    def test_tiny_gradient_beside_large_negative_curvature(self):
        # ||g||/r = 1.7e-14 is below the rounding of |lambda_min| = 1e3, so
        # evals + mu would hold an exact zero; the shifted form does not.
        rng = np.random.default_rng(3)
        evecs = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        g = evecs @ np.array([1.0, 1.0, 1.0])
        g *= 1.7e-14 / np.linalg.norm(g)
        evals = np.array([-1e3, 1.0, 2.0])
        with np.errstate(divide="raise", invalid="raise"):
            self._check_damped_step(rng, evals, evecs, g, 1.0)

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_lambda_fits_take_few_iterations(self, measure, seed):
        design, y, ranks, nu = _study_1b(seed)
        problem = PenalizedProblem(design, y, pair_weights(ranks, measure),
                                   ConcordanceSpec(measure, False, nu),
                                   lam=1000.0 * design.n, alpha=1.0)
        fit = fit_rasper(problem)
        assert fit.converged and fit.grad_norm <= 1e-8
        assert fit.iterations <= 30

    def test_warm_fold_fits_in_the_rounding_regime(self):
        # At lambda = 1e5 the model decrease of the last steps is far below
        # the rounding of lambda*log D. A ratio test without a rounding
        # allowance shrinks the radius to the tiny MM step on such a
        # rejection, and a few of these folds then stall for 500 iterations.
        design, y, ranks, nu = _study_1b(3)
        spec = ConcordanceSpec("spearman", False, nu)
        full = fit_rasper(PenalizedProblem(design, y, pair_weights(ranks, "spearman"),
                                           spec, lam=1e5, alpha=0.0))
        for k, weights in enumerate(fold_weight_cache(design, ranks, spec)):
            keep = np.delete(np.arange(design.n), k)
            problem = PenalizedProblem(design.subset(keep), y[keep], weights, spec,
                                       lam=1e5, alpha=0.0)
            fit = fit_rasper(problem, init=full.beta)
            assert fit.converged and fit.grad_norm <= 1e-8, k
            assert fit.iterations <= 30, k


class TestLocalMinimizer:
    def test_ols_when_alpha_zero(self):
        p, _, _ = make_problem(lam=0.0, alpha=0.0)
        b0, b = local_minimizer(p)
        x1 = np.hstack([np.ones((p.design.n, 1)), p.design.x])
        coef = np.linalg.lstsq(x1, p.y, rcond=None)[0]
        assert b0 == pytest.approx(coef[0], abs=1e-9)
        assert np.allclose(b, coef[1:], atol=1e-9)

    def test_singular_design_raises(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(10)
        z = np.column_stack([col, col * 2.0 + 3.0])
        d = standardize(z)
        y = rng.standard_normal(10)
        ranks = external_ranks(rng.standard_normal(10))
        spec = ConcordanceSpec("spearman", False, 0.1, 1, 0)
        prob = PenalizedProblem(d, y, pair_weights(ranks, "spearman"),
                                spec, lam=0.0, alpha=0.0)
        with pytest.raises(SingularDesign):
            local_minimizer(prob)
