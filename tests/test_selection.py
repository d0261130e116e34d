import json
import math

import numpy as np
import pytest

import rasper.selection as selection
import rasper.solver as solver
from rasper.concordance import (
    ConcordanceSpec,
    PairWeights,
    PairWorkspace,
    _pair_sums,
    pair_weights,
)
from rasper.data_model import StandardizedDesign, external_ranks, standardize
from rasper.errors import FoldFailure, InvalidBounds, SingularSystem
from rasper.selection import (
    aic,
    build_grid,
    default_grid,
    degrees_of_freedom,
    fold_weight_cache,
    loocv_score,
    select,
)
from rasper.solver import PenalizedProblem, default_nu, fit_rasper

from conftest import count_calls, make_problem, reference_pair_sums


def make_data(seed=0, n=25, p=4):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    beta = np.linspace(1.0, 0.2, p)
    y = z @ beta + 0.4 * rng.standard_normal(n)
    design = standardize(z)
    scores = z @ beta + 0.1 * rng.standard_normal(n)
    ranks = external_ranks(scores)
    nu = default_nu(design, y)
    spec = ConcordanceSpec("spearman", False, nu, 1, 0)
    return design, y, ranks, scores, spec


class TestGrid:
    def test_log_spacing_formula(self):
        # lambda_j = min * exp((j-1) log(max/min) / J), zero prepended
        grid = build_grid(1.0, math.e ** 2, 3, 0.5, 2.0, 1)
        expected = [0.0, 1.0, math.e ** (2 / 3), math.e ** (4 / 3), math.e ** 2]
        assert np.allclose(grid.lam_values, expected, rtol=1e-12)
        assert np.allclose(grid.alpha_values, [0.0, 0.5, 2.0], rtol=1e-12)

    def test_endpoints_exact(self):
        grid = build_grid(0.3, 700.0, 10, 0.001, 13.0, 10)
        assert grid.lam_values[1] == pytest.approx(0.3, rel=1e-14)
        assert grid.lam_values[-1] == pytest.approx(700.0, rel=1e-14)
        assert grid.alpha_values[-1] == pytest.approx(13.0, rel=1e-14)

    def test_default_grid_scales_with_n(self):
        grid = default_grid(50)
        assert grid.lam_values[1] == pytest.approx(1e-2 * 50)
        assert grid.lam_values[-1] == pytest.approx(1e3 * 50)
        assert grid.alpha_values[1] == pytest.approx(1e-4 * 50)
        assert grid.alpha_values[-1] == pytest.approx(1e2 * 50)
        assert len(grid.lam_values) == 12 and len(grid.alpha_values) == 12

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvalidBounds):
            build_grid(2.0, 1.0, 3, 0.1, 1.0, 3)
        with pytest.raises(InvalidBounds):
            build_grid(0.0, 1.0, 3, 0.1, 1.0, 3)
        with pytest.raises(InvalidBounds):
            build_grid(0.1, 1.0, 0, 0.1, 1.0, 3)


class TestLOOCV:
    def test_hat_matrix_identity_at_origin(self):
        # at lam = alpha = 0 each fold is OLS, so LOOCV equals the closed form
        # mean over i of (e_i / (1 - h_ii))^2 / 2
        design, y, ranks, scores, spec = make_data()
        n = design.n
        w = pair_weights(ranks, "spearman")
        fit = fit_rasper(PenalizedProblem(design, y, w, spec, 0.0, 0.0))
        x1 = np.hstack([np.ones((n, 1)), design.x])
        h = x1 @ np.linalg.solve(x1.T @ x1, x1.T)
        resid = y - fit.beta0 - design.x @ fit.beta
        closed = float(np.mean(0.5 * (resid / (1.0 - np.diag(h))) ** 2))
        loo = loocv_score(design, y, ranks, spec, 0.0, 0.0)
        assert loo == pytest.approx(closed, abs=1e-8)

    def test_fold_cache_matches_direct(self):
        design, y, ranks, scores, spec = make_data(seed=1)
        w = pair_weights(ranks, "spearman")
        fit = fit_rasper(PenalizedProblem(design, y, w, spec, 3.0, 1.0))
        cache = fold_weight_cache(design, ranks, spec)
        a = loocv_score(design, y, ranks, spec, 3.0, 1.0, warm=fit,
                        fold_cache=cache)
        b = loocv_score(design, y, ranks, spec, 3.0, 1.0, warm=fit)
        assert a == pytest.approx(b, abs=1e-10)

    def test_fold_cache_holds_only_ranks(self):
        # n - 1 ranks per fold, no (n - 1) x (n - 1) weight matrix
        design, y, ranks, scores, spec = make_data(seed=5, n=100)
        arrays = [value for fold in fold_weight_cache(design, ranks, spec)
                  for value in vars(fold).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == design.n
        assert max(a.size for a in arrays) <= design.n

    def test_fold_ranks_recomputed_from_scores(self):
        # deleting the top-ranked row must compress the remaining ranks
        design, y, ranks, scores, spec = make_data(seed=2, n=10)
        cache = fold_weight_cache(design, ranks, spec)
        top = int(np.argmax(scores))
        kept = np.delete(scores, top)
        sub = external_ranks(kept)
        expected = pair_weights(sub, "spearman")
        assert np.allclose(cache[top].w, expected.w)

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_fold_ranks_derived_from_full_ranks_with_ties(self, measure):
        # every fold's weights equal those built from its own scores, ties
        # (including ties with the left-out row) and all
        design, y, _, _, spec = make_data(seed=3, n=12)
        scores = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], dtype=float)
        ranks = external_ranks(scores)
        spec = ConcordanceSpec(measure, False, spec.nu, 1, 0)
        cache = fold_weight_cache(design, ranks, spec)
        assert len(cache) == design.n
        for k, fold in enumerate(cache):
            expected = pair_weights(external_ranks(np.delete(scores, k)), measure)
            assert np.array_equal(fold.w, expected.w)

    def test_unconverged_folds_warn_once(self, monkeypatch):
        design, y, ranks, scores, spec = make_data(seed=4)
        monkeypatch.setattr(selection, "fit_rasper",
                            lambda problem, **kw: fit_rasper(problem, max_iter=1, **kw))
        with pytest.warns(RuntimeWarning) as record:
            score = loocv_score(design, y, ranks, spec, 3.0, 1.0)
        assert math.isfinite(score)
        assert len(record) == 1
        message = str(record[0].message)
        assert f"{design.n} of {design.n} fold fits" in message
        assert "lambda=3" in message and "alpha=1" in message

    @pytest.mark.parametrize("warm", [False, True])
    def test_all_tied_kendall_fold_keeps_its_typed_error(self, warm):
        # score = 0 except row 3: the fold without row 3 has only tied pairs,
        # so all its Kendall weights are zero, downdated start or not
        design, y, _, _, spec = make_data(seed=11, n=12)
        scores = np.zeros(12)
        scores[3] = 1.0
        ranks = external_ranks(scores)
        spec = ConcordanceSpec("kendall", False, spec.nu, 1, 0)
        fit = fit_rasper(PenalizedProblem(design, y, pair_weights(ranks, "kendall"),
                                          spec, 3.0, 1.0))
        with pytest.raises(FoldFailure) as info:
            loocv_score(design, y, ranks, spec, 3.0, 1.0, warm=fit if warm else None)
        assert str(info.value) == "1 of 12 folds failed: [(3, 'all pairwise weights are zero')]"

    @pytest.mark.parametrize("marginalized", [False, True])
    def test_engine_passes_per_warm_fold(self, monkeypatch, marginalized):
        # Every point a fold visits costs one pass, except a downdated
        # start, which costs none; a marginalized fold's start is not
        # downdated, so it pays one pass there.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((15, 4))
        y = x @ [1.0, 0.5, -0.5, 0.8] + 0.4 * rng.standard_normal(15)
        design = standardize(x, q=2)
        ranks = external_ranks(x[:, :2] @ [1.0, 0.4])
        spec = ConcordanceSpec("spearman", marginalized, default_nu(design, y), 3, 0)
        cache = fold_weight_cache(design, ranks, spec)
        assert (cache[0].tables is not None) == marginalized
        weights = selection.problem_weights(design, ranks, spec)
        warm = fit_rasper(PenalizedProblem(design, y, weights, spec, 40.0, 1.0))
        passes = count_calls(monkeypatch, solver, "_pair_sums")
        folds = []

        def fit_fold(problem, **kwargs):
            before = len(passes)
            fit = fit_rasper(problem, **kwargs)
            folds.append((len(passes) - before, fit))
            return fit

        monkeypatch.setattr(selection, "fit_rasper", fit_fold)
        loocv_score(design, y, ranks, spec, 40.0, 1.0, warm=warm, fold_cache=cache)
        assert len(folds) == design.n
        start_passes = 1 if marginalized else 0
        for fold_passes, fit in folds:
            assert fit.converged and fit.evaluations == fit.iterations + 1
            assert fold_passes == fit.iterations + start_passes

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("lam", [3.0, 1e3, 1e5])
    def test_downdated_starts_match_engine_starts(self, monkeypatch, measure, lam):
        design, y, _, _, spec = make_data(seed=13, n=20)
        scores = np.random.default_rng(13).integers(0, 6, design.n).astype(float)
        ranks = external_ranks(scores)                  # tied ranks
        spec = ConcordanceSpec(measure, False, spec.nu, 1, 0)
        warm = fit_rasper(PenalizedProblem(design, y, pair_weights(ranks, measure),
                                           spec, lam, 1.0))
        downdated = loocv_score(design, y, ranks, spec, lam, 1.0, warm=warm)
        monkeypatch.setattr(selection, "fit_rasper",
                            lambda problem, init=None, start=None: fit_rasper(problem, init=init))
        engine = loocv_score(design, y, ranks, spec, lam, 1.0, warm=warm)
        assert downdated == pytest.approx(engine, rel=1e-9)

    def test_too_few_rows(self):
        design, y, ranks, scores, spec = make_data(n=5)
        with pytest.raises(FoldFailure):
            loocv_score(design.subset(np.arange(2)), y[:2],
                        external_ranks(scores[:2]), spec, 0.0, 0.0)


class TestDegreesOfFreedom:
    def test_origin_equals_p(self):
        design, y, ranks, _, spec = make_data()
        w = pair_weights(ranks, "spearman")
        assert degrees_of_freedom(design, w, spec.nu, 0.0, 0.0) == \
            pytest.approx(design.p, abs=1e-9)

    def test_ridge_only_matches_svd_oracle(self):
        design, y, ranks, _, spec = make_data(seed=4)
        w = pair_weights(ranks, "spearman")
        alpha = 2.7
        d = np.linalg.svd(design.x, compute_uv=False)
        oracle = float(np.sum(d ** 2 / (d ** 2 + alpha)))
        assert degrees_of_freedom(design, w, spec.nu, 0.0, alpha) == \
            pytest.approx(oracle, abs=1e-9)

    def test_rank_penalty_shrinks_df(self):
        design, y, ranks, _, spec = make_data(seed=5)
        w = pair_weights(ranks, "spearman")
        df0 = degrees_of_freedom(design, w, spec.nu, 0.0, 0.0)
        df1 = degrees_of_freedom(design, w, spec.nu, 50.0, 0.0)
        assert df1 < df0

    def test_singular_system_raises(self):
        design, y, ranks, _, spec = make_data(seed=5)
        x = design.x.copy()
        x[:, 2] = 0.0
        design = StandardizedDesign(x, design.mean, design.scale, design.q)
        with pytest.raises(SingularSystem):
            degrees_of_freedom(design, pair_weights(ranks, "spearman"), spec.nu, 0.0, 0.0)

    def test_dense_weights_never_built(self, monkeypatch):
        design, y, ranks, _, spec = make_data(seed=5)
        builds = []
        monkeypatch.setattr(PairWeights, "w", property(lambda self: builds.append(self)))
        for measure in ("spearman", "kendall"):
            degrees_of_freedom(design, pair_weights(ranks, measure), spec.nu, 50.0, 0.0)
        assert not builds

    def test_curvature_matches_quasi_probability_form(self):
        # lam * 0.125 * M0 with q_k = w_k / sum(w): build M0 by brute force
        design, y, ranks, _, spec = make_data(seed=6, n=12, p=3)
        w = pair_weights(ranks, "spearman")
        x, nu = design.x, spec.nu
        m0 = np.zeros((3, 3))
        for i in range(12):
            for j in range(12):
                a = (x[i] - x[j]) / nu
                m0 += w.w[i, j] / w.w.sum() * np.outer(a, a)
        lam, alpha = 7.0, 0.3
        xtx = x.T @ x
        oracle = np.trace(np.linalg.solve(
            xtx + alpha * np.eye(3) + lam * 0.125 * m0, xtx))
        assert degrees_of_freedom(design, w, nu, lam, alpha) == \
            pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("n", [3, 4, 17, 60])
    def test_closed_form_matches_engine(self, measure, n):
        # degrees_of_freedom is one engine pass at beta = 0: its system is
        # the engine's MM curvature there, to the last bit, and that agrees
        # with the per-table formula on dense weights.
        rng = np.random.default_rng(n)
        for _ in range(5):
            design = standardize(rng.standard_normal((n, 2)))
            scores = rng.integers(0, max(2, n // 3), n).astype(float)   # tied
            scores[:2] = [0.0, 1.0]                  # not all tied
            ranks = external_ranks(scores)
            w = pair_weights(ranks, measure)
            nu = float(rng.uniform(0.05, 2.0))
            x = design.x
            m0 = _pair_sums(PairWorkspace(x[None], ranks.r, measure), np.zeros(2), nu,
                            mm=True)[3]
            want = reference_pair_sums(w.w, (x,), np.zeros(2), nu, mm=True)[3]
            assert np.linalg.norm(m0 - want) <= 1e-12 * np.linalg.norm(want)
            for lam, alpha in [(0.5, 0.0), (7.0, 0.3), (1e4, 2.0)]:
                xtx = x.T @ x
                system = xtx + alpha * np.eye(2) + lam * m0
                oracle = float(np.trace(np.linalg.solve(system, xtx)))
                assert degrees_of_freedom(design, w, nu, lam, alpha) == oracle


class TestAIC:
    def test_formula(self):
        p, _, _ = make_problem(lam=2.0, alpha=1.5)
        fit = fit_rasper(p)
        resid = p.y - fit.beta0 - p.design.x @ fit.beta
        local = 0.5 * resid @ resid + 0.5 * p.alpha * fit.beta @ fit.beta
        assert aic(p, fit, 3.3) == pytest.approx(2 * local + 2 * 3.3)


class TestSelect:
    @pytest.mark.parametrize("criterion", ["loocv", "aic"])
    def test_chosen_is_grid_argmin(self, criterion):
        design, y, ranks, scores, spec = make_data(seed=7)
        grid = build_grid(0.5, 100.0, 3, 0.1, 10.0, 2)
        report = select(design, y, ranks, spec, grid, criterion=criterion)
        key = (lambda r: r.loo) if criterion == "loocv" else (lambda r: r.aic)
        eligible = [r for r in report.records
                    if not (criterion == "aic" and r.df_flagged)]
        best = min(key(r) for r in eligible)
        assert key(report.chosen) == pytest.approx(best)

    def test_tie_break_prefers_smaller_lambda(self):
        design, y, ranks, scores, spec = make_data(seed=8)
        grid = build_grid(0.5, 100.0, 2, 0.1, 10.0, 1)
        report = select(design, y, ranks, spec, grid)
        key = report.chosen.loo
        same = [r for r in report.records
                if math.isfinite(r.loo) and abs(r.loo - key) < 1e-15]
        assert report.chosen.lam == min(r.lam for r in same)

    def test_grid_fully_evaluated(self):
        design, y, ranks, scores, spec = make_data(seed=9)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        report = select(design, y, ranks, spec, grid)
        assert len(report.records) == grid.size
        lams = {r.lam for r in report.records}
        assert lams == set(float(v) for v in grid.lam_values)

    def test_unknown_criterion_rejected(self):
        design, y, ranks, scores, spec = make_data()
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        with pytest.raises(ValueError):
            select(design, y, ranks, spec, grid, criterion="cv10")

    def test_report_rows_and_json(self):
        design, y, ranks, scores, spec = make_data(seed=10)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        report = select(design, y, ranks, spec, grid)
        rows = report.to_rows()
        assert sum(r["chosen"] for r in rows) == 1
        assert len(rows) == grid.size
        assert list(rows[0])[:3] == ["lambda", "alpha", "loo"]
        # every value is JSON-native, so rows serialize without conversion
        assert json.loads(json.dumps(rows)) == rows
