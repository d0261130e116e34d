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
    PairWorkspace,
    build_marginal_sampler,
    jj_coefficient,
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
from rasper.selection import build_grid, fold_weight_cache, loocv_score, select
from rasper.solver import (
    PenalizedProblem,
    default_nu,
    fit_rasper,
    local_minimizer,
    mm_step,
    objective_gradient,
    penalized_objective,
)

from conftest import count_calls, engine_sums, fold_weights, make_problem
from oracles import surrogate_value


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
        p = small_problem
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(p.design.p)
        beta0 = 0.3
        resid = p.y - beta0 - p.design.x @ beta
        manual = 0.5 * resid @ resid + 0.5 * p.alpha * beta @ beta
        manual -= p.lam * np.log(engine_sums(p.weights, p.design.x, beta, p.nu)[0])
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

    @pytest.mark.parametrize("lam_ratio", [0.1, 10.0, 1000.0])
    @pytest.mark.parametrize("case", ["spearman", "kendall", "marginalized"])
    def test_converged_fit_is_a_fixed_point_of_mm_step(self, case, lam_ratio):
        # The surrogate anchored at a stationary beta has zero gradient
        # there, so the paper's MM map, which minimizes it, returns beta.
        problem = _oracle_problem(case, lam_ratio)
        fit = fit_rasper(problem, tol=1e-12)
        assert fit.converged
        beta0, beta = mm_step(problem, fit.beta0, fit.beta)
        assert np.linalg.norm(beta - fit.beta) <= 1e-10 * np.linalg.norm(fit.beta)
        assert beta0 == pytest.approx(fit.beta0, rel=1e-10, abs=1e-12)


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

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("previous_lam", [0.0, 3.0])
    def test_warm_fit_from_previous_sums_is_bit_identical(self, monkeypatch, measure,
                                                          previous_lam):
        # The sums depend on beta alone, so a fit started from the previous
        # grid point's final (D, dD, d2D) is the fit an engine pass at its
        # start gives, bit for bit, one pass cheaper. At lambda = 0 the sums
        # come from the fit's one closing pass.
        previous, _, _ = make_problem(seed=5, lam=previous_lam, measure=measure)
        before = fit_rasper(previous)
        d, dd, hd = before.pair_sums
        assert d == before.concordance
        want = solver._sums(previous, before.beta)
        assert d == want[0]
        assert np.array_equal(dd, want[1]) and np.array_equal(hd, want[2])
        problem = previous.with_penalties(40.0, previous.alpha)
        passes = count_calls(monkeypatch, solver, "_pair_sums")
        engine = fit_rasper(problem, init=before.beta)
        engine_passes = len(passes)
        passes.clear()
        reused = fit_rasper(problem, init=before.beta, start=before.pair_sums)
        assert len(passes) == engine_passes - 1
        assert np.array_equal(reused.beta, engine.beta) and reused.beta0 == engine.beta0
        assert np.array_equal(reused.objective_trace, engine.objective_trace)
        assert (reused.iterations, reused.evaluations) == (engine.iterations,
                                                           engine.evaluations)
        for a, b in zip(reused.pair_sums, engine.pair_sums):
            assert np.array_equal(a, b)

    def test_start_sums_need_init(self, small_problem):
        fit = fit_rasper(small_problem)
        with pytest.raises(InvalidValue):
            fit_rasper(small_problem, start=fit.pair_sums)

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

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), log_lam=st.floats(-2.0, 4.5),
           measure=st.sampled_from(["spearman", "kendall"]), order=st.randoms())
    def test_fit_invariant_under_row_permutation(self, seed, log_lam, measure, order):
        # Rows enter F only through sums over rows and over pairs of rows.
        p, _, scores = make_problem(seed=seed, lam=10.0 ** log_lam, measure=measure)
        perm = np.array(order.sample(range(p.design.n), p.design.n))
        d = p.design
        permuted = PenalizedProblem(StandardizedDesign(d.x[perm], d.mean, d.scale, d.q),
                                    p.y[perm], pair_weights(external_ranks(scores[perm]), measure),
                                    p.spec, p.lam, p.alpha)
        fit, other = fit_rasper(p), fit_rasper(permuted)
        assert np.linalg.norm(other.beta - fit.beta) <= 1e-10 * np.linalg.norm(fit.beta)
        assert other.objective_trace[-1] == pytest.approx(fit.objective_trace[-1], rel=1e-12)

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


class TestProblemBatch:
    def test_taken_down_batch_holds_its_problems_rows(self):
        # A batch taken down to some problems holds exactly their rows, and
        # each problem's point (intercept, objective, pair sums, gradient
        # and Hessian) is the one the full batch gives it, bit for bit.
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((6, 9, 3)), rng.standard_normal((6, 9))
        work = PairWorkspace(x[:, None], rng.integers(0, 5, (6, 9)), "kendall")
        batch = solver.problem_batch(x, y, 0.5).with_penalties(2.0, 1.0, work)
        part = batch[np.array([4, 1, 5])][np.array([2, 0])]
        assert np.array_equal(part.x, x[[5, 4]]) and np.array_equal(part.y, y[[5, 4]])
        assert np.array_equal(part.gram, batch.gram[[5, 4]])
        beta = rng.standard_normal((6, 3))

        def arrays(point):
            beta0, value, sums, g, hess = point
            return beta0, value, *sums, g, hess

        full = arrays(solver._points(batch, beta))
        for a, b in zip(arrays(solver._points(part, beta[[5, 4]])), full, strict=True):
            assert a.tobytes() == b[[5, 4]].tobytes()

    def test_penalties_are_added_to_an_unpenalized_batch_only(self):
        # alpha goes onto the gram's diagonal once: a batch that already
        # holds a ridge term refuses a second one
        rng = np.random.default_rng(3)
        batch = solver.problem_batch(rng.standard_normal((2, 9, 3)),
                                     rng.standard_normal((2, 9)), 0.5)
        ridge = batch.with_penalties(0.0, 1.5)
        assert np.array_equal(ridge.gram, batch.gram + 1.5 * np.eye(3))
        with pytest.raises(InvalidValue, match="alpha = 0"):
            ridge.with_penalties(0.0, 1.5)


class TestProblemCaches:
    @pytest.mark.parametrize("marginal", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_workspace_built_once_per_fit(self, monkeypatch, lam, marginal):
        # One workspace serves every engine pass of a fit, MM steps
        # included, and builds its fixed pieces once; the dense weight
        # matrix is never built.
        problem, _, _ = make_problem(lam=lam, measure="kendall" if marginal else "spearman")
        if marginal:
            x = problem.design.x
            sampler = build_marginal_sampler(x[:, :2], x[:, 2:], 3, 0)
            problem = dataclasses.replace(
                problem, weights=marginalized_weights(problem.weights, sampler))
        dense = []
        monkeypatch.setattr(PairWeights, "w", property(lambda self: dense.append(self)))
        builds = count_calls(monkeypatch, solver, "pair_workspace")
        passes = count_calls(monkeypatch, solver, "_pair_sums")
        mm_passes = count_calls(monkeypatch, solver, "_surrogate_sums")
        pieces = []
        load = PairWorkspace.load
        monkeypatch.setattr(PairWorkspace, "load",
                            lambda work, first: pieces.append(load(work, first).ends) or work)
        fit = fit_rasper(problem)
        mm_step(problem, fit.beta0, fit.beta)
        assert fit.iterations >= (lam > 0) and fit.concordance > 0
        assert len(passes) >= 1 + (lam > 0) and len(builds) == 1 and not dense
        assert len(mm_passes) == (lam > 0)
        assert len(pieces) == len(passes) + len(mm_passes)
        assert all(e is pieces[0] for e in pieces)
        assert problem.workspace.tables[0].shape == (3 if marginal else 1, problem.design.n,
                                                 problem.design.p)

    @pytest.mark.parametrize("criterion", ["aic", "loocv"])
    def test_select_builds_the_full_data_batch_once(self, monkeypatch, criterion):
        # Every grid point's problem shares the full data's unpenalized
        # batch (centered rows, gram, X_c'y_c), as it shares the workspace,
        # so a select builds one, not one per grid point; each point's
        # penalized batch is the one a fresh problem builds, bit for bit.
        # (The folds' batch is built through the selection module's name.)
        problem, ranks, _ = make_problem(lam=0.0, alpha=0.0)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        shapes = []
        original = solver.problem_batch
        monkeypatch.setattr(solver, "problem_batch",
                            lambda x, *args: shapes.append(x.shape) or original(x, *args))
        report = select(problem.design, problem.y, ranks, problem.spec, grid, criterion)
        assert shapes == [(1, problem.design.n, problem.design.p)]
        for rec in report.records:
            shared = problem.with_penalties(rec.lam, rec.alpha)
            fresh = dataclasses.replace(problem, lam=rec.lam, alpha=rec.alpha)
            assert shared.unpenalized is problem.unpenalized
            for name in ("x", "y", "gram", "xty", "scale"):
                assert getattr(shared.batch, name).tobytes() == \
                    getattr(fresh.batch, name).tobytes()

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

    def test_newton_alone_at_moderate_lambda(self, monkeypatch):
        calls = count_calls(monkeypatch, solver, "mm_step")
        p, _, _ = make_problem(seed=0, lam=20.0)
        fit = fit_rasper(p)
        assert fit.converged and not calls
        assert fit.evaluations == fit.iterations + 1

    def test_rejected_trial_only_shrinks_radius(self, monkeypatch):
        # At lambda = 1000 n the Kendall objective is far from convex at the
        # start, so on seed 7 some trials are rejected. A rejection keeps the
        # iterate, so the next round's step starts from the same gradient,
        # and sets the next radius to a quarter of the rejected step; the fit
        # takes no MM step and no separate objective call.
        mm_calls = count_calls(monkeypatch, solver, "mm_step")
        value_calls = count_calls(monkeypatch, solver, "penalized_objective")
        rounds = []
        steps = solver._steps

        def recorded_steps(hess, g, radius):
            out = steps(hess, g, radius)
            rounds.append((g.copy(), float(radius[0]), float(np.linalg.norm(out[0]))))
            return out

        monkeypatch.setattr(solver, "_steps", recorded_steps)
        p, _, _ = make_problem(seed=7, lam=20000.0, measure="kendall")
        fit = fit_rasper(p)
        assert fit.converged and fit.grad_norm <= 1e-8
        assert not mm_calls and not value_calls
        assert len(rounds) == fit.iterations
        # a kept trial moves the iterate, and the last one was kept, since
        # the fit converged there
        verdicts = [not np.array_equal(g, next_g)
                    for (g, _, _), (next_g, _, _) in zip(rounds, rounds[1:])] + [True]
        assert 0 < verdicts.count(False) and len(fit.objective_trace) == verdicts.count(True) + 1
        for (_, radius, size), (_, next_radius, _), kept in zip(rounds, rounds[1:], verdicts):
            if kept:
                assert next_radius in (radius, 2.0 * radius)
            else:
                assert next_radius == 0.25 * size
        trace = fit.objective_trace
        delta = 10.0 * np.finfo(float).eps * (np.abs(trace[:-1]) + p.lam)
        assert np.all(np.diff(trace) <= delta)

    @pytest.mark.parametrize("lam, measure", [(20.0, "spearman"), (20000.0, "kendall")])
    def test_one_pair_pass_per_point(self, monkeypatch, lam, measure):
        # Every point the fit visits, the start included, gets one pass, and
        # no point is evaluated twice. The Kendall case runs on the seed
        # whose fit rejects trials.
        passes = count_calls(monkeypatch, solver, "_pair_sums")
        p, _, _ = make_problem(seed=7 if measure == "kendall" else 0, lam=lam, measure=measure)
        fit = fit_rasper(p)
        assert fit.converged
        assert len(passes) == fit.evaluations == fit.iterations + 1
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


class TestCholeskyRound:
    # A round tests each problem's H by a batched Cholesky and takes its
    # Newton step from a batched solve, and only the rows without a factor,
    # or whose Newton step leaves the radius, take an eigendecomposition; a
    # row's branch reads only its own H, g and radius.
    @staticmethod
    def _copies(measure, samples, starts):
        """One problem (n = 30, p = 3, lambda = 3000, on ``samples`` design
        tables) stacked once per row of ``starts``, as a ``ProblemBatch``."""
        problem, _, _ = make_problem(seed=7, n=30, p=3, lam=3000.0, measure=measure)
        x, size = problem.design.x, len(starts)
        tables = x[None]
        if samples > 1:
            sampler = build_marginal_sampler(x[:, :2], x[:, 2:], samples, 0)
            tables = np.stack(marginalized_weights(problem.weights, sampler).tables)
        # stacked copies: matmul takes another path on a stride-0 broadcast
        copies = [np.repeat(a[None], size, axis=0) for a in (tables, problem.weights.r, x,
                                                              problem.y)]
        work = PairWorkspace(*copies[:2], measure)
        return solver.problem_batch(*copies[2:], problem.nu).with_penalties(
            problem.lam, problem.alpha, work)

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_mixed_round_matches_each_problem_alone(self, monkeypatch, measure, samples):
        # Starts of norm 0.01 to 20: the first round holds Newton rows,
        # rows whose H is indefinite and rows whose Newton step overshoots
        # the radius. Every problem of the batch, S = 3 spanning three
        # engine chunks, ends exactly as it does alone.
        starts = np.random.default_rng(0).standard_normal((40, 3)) \
            * np.geomspace(0.01, 20.0, 40)[:, None]
        batch = self._copies(measure, samples, starts)
        rounds = []
        steps = solver._steps
        monkeypatch.setattr(solver, "_steps", lambda h, g, r: rounds.append((h, g, r))
                            or steps(h, g, r))
        fits = solver.fit_batch(batch, starts)
        hess, g, radius = rounds[0]
        factored = np.array([np.all(np.linalg.eigvalsh(h) > 0) for h in hess])
        newton = -np.linalg.solve(hess, g[..., None])[..., 0]
        overshoots = factored & (np.linalg.norm(newton, axis=1) > radius)
        assert (~factored).sum() > 5 and overshoots.sum() > 2
        assert (factored & ~overshoots).sum() > 2
        assert fits.converged.all() and not fits.errors
        for k in range(len(starts)):
            alone = solver.fit_batch(batch[np.array([k])], starts[k:k + 1])
            for name in ("beta0", "beta", "iterations", "grad_norm", "converged"):
                assert getattr(alone, name)[0].tobytes() == getattr(fits, name)[k].tobytes()
            for a, b in zip(alone.pair_sums, fits.pair_sums, strict=True):
                assert a[0].tobytes() == b[k].tobytes()
            assert alone.trace(0).tobytes() == fits.trace(k).tobytes()

    def test_failing_rows_are_found_by_halving(self, monkeypatch):
        # One H of 64 has no factor. The stacked Cholesky that raises is
        # split in halves, so finding that row takes 2*log2(64) + 1 = 13
        # calls, not the 65 of a row-by-row retry, and every row's step is
        # the one it gets alone.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((64, 6, 6))
        hess = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(6)
        hess[37] -= 20.0 * np.eye(6)
        g = rng.standard_normal((64, 6))
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        steps = solver._newton_steps(hess, g)
        assert len(calls) == 13
        assert np.isnan(steps[37]).all() and not np.isnan(np.delete(steps, 37, 0)).any()
        for k in range(64):
            assert steps[k].tobytes() == solver._newton_steps(hess[k:k + 1], g[k:k + 1])[0].tobytes()

    def test_warm_folds_with_definite_hessians_take_no_eigh(self, monkeypatch):
        # Warm leave-one-out folds start next to their solutions, where
        # every H is positive definite and every Newton step fits in the
        # radius, so no round decomposes a Hessian.
        design, y, ranks, nu = _study_1b(1, n=40)
        spec = ConcordanceSpec("spearman", False, nu)
        lam, alpha = 4.0 * design.n, 0.01 * design.n
        full = fit_rasper(PenalizedProblem(design, y, pair_weights(ranks, "spearman"), spec,
                                           lam, alpha))
        hessians = []
        steps = solver._steps
        monkeypatch.setattr(solver, "_steps", lambda h, g, r: hessians.append(h)
                            or steps(h, g, r))
        decompositions = count_calls(monkeypatch, np.linalg, "eigh")
        loocv_score(design, y, ranks, spec, lam, alpha, warm=full)
        assert hessians and all(np.all(np.linalg.eigvalsh(h) > 0) for h in hessians)
        assert not decompositions


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

    @staticmethod
    def _rounding_regime_folds():
        """The warm lambda = 1e5 fold fits of study-1b seed 3, where the model
        decrease of the last steps is far below the rounding of lambda*log D."""
        design, y, ranks, nu = _study_1b(3)
        spec = ConcordanceSpec("spearman", False, nu)
        full = fit_rasper(PenalizedProblem(design, y, pair_weights(ranks, "spearman"),
                                           spec, lam=1e5, alpha=0.0))
        for k, weights in enumerate(fold_weights(fold_weight_cache(design, ranks, spec),
                                                 "spearman")):
            keep = np.delete(np.arange(design.n), k)
            problem = PenalizedProblem(design.subset(keep), y[keep], weights, spec,
                                       lam=1e5, alpha=0.0)
            yield k, fit_rasper(problem, init=full.beta)

    def test_warm_fold_fits_in_the_rounding_regime(self):
        # A ratio test without a rounding allowance shrinks the radius to the
        # tiny MM step on such a rejection, and a strict F test accepts or
        # rejects by rounding luck; either makes folds crawl or stall.
        for k, fit in self._rounding_regime_folds():
            assert fit.converged and fit.grad_norm <= 1e-8, k
            assert fit.iterations <= 30, k

    def test_trace_rises_by_no_more_than_the_rounding_band(self):
        # Trials and MM points alike are judged by the band
        # delta = 10*eps*(|F| + lambda): a point inside it may be taken for a
        # lower gradient, so the trace may rise, but never by more.
        for k, fit in self._rounding_regime_folds():
            trace = fit.objective_trace
            delta = 10.0 * np.finfo(float).eps * (np.abs(trace[:-1]) + 1e5)
            assert np.all(np.diff(trace) <= delta), k


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
