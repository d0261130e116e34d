import dataclasses
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rasper.concordance as concordance
import rasper.selection as selection
import rasper.solver as solver
from rasper.concordance import (
    ConcordanceSpec,
    PairWeights,
    PairWorkspace,
    _surrogate_sums,
    pair_weights,
    pair_workspace,
)
from rasper.data_model import StandardizedDesign, external_ranks, standardize
from rasper.errors import (
    FoldFailure,
    InvalidBounds,
    InvalidValue,
    NonFiniteValue,
    SingularDesign,
    SingularSystem,
)
from rasper.selection import (
    aic,
    build_grid,
    default_grid,
    degrees_of_freedom,
    fold_weight_cache,
    loocv_score,
    select,
)
from rasper.solver import PenalizedProblem, default_nu, fit_batch, fit_rasper

from conftest import count_calls, fold_weights, make_problem, reference_sums


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
        # a fractional J would overshoot lambda_max: [0, 1, 21.5, 464]
        with pytest.raises(InvalidBounds):
            build_grid(1.0, 100.0, 1.5, 0.1, 1.0, 1)
        with pytest.raises(InvalidBounds):
            build_grid(1.0, 100.0, 1, 0.1, 1.0, 2.0)
        with pytest.raises(InvalidBounds):
            build_grid(1.0, 100.0, True, 0.1, 1.0, 1)
        # max / min overflows: an infinite max or a huge ratio of finite
        # bounds, which spaced the grid as [0, nan, inf, ...], or an int max
        # beyond the float range, which raised OverflowError
        for bounds in ((0.1, 1.0, 0.1, math.inf), (0.1, 1.0, 1e-10, 1e300),
                       (1e-10, 1e300, 0.1, 1.0), (1.0, math.inf, 0.1, 1.0),
                       (1, 10**400, 0.1, 1.0), (0.1, 1.0, 1, 10**400)):
            with pytest.raises(InvalidBounds, match="max / min is not finite"):
                build_grid(bounds[0], bounds[1], 3, bounds[2], bounds[3], 3)


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

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_rank_deficient_fold_fails_alone(self, lam):
        # Column 3 is nonzero in row 4 only, so it is constant in fold 4: at
        # alpha = 0 that fold's cold start, OLS, is rank deficient, and it
        # is the one fold that fails.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        x[:, 3] = 0.0
        x[4, 3] = 1.0
        y = x[:, :3] @ [1.0, 0.5, -0.5] + 0.4 * rng.standard_normal(12)
        design = standardize(x, q=2)
        ranks = external_ranks(x[:, :2] @ [1.0, 0.4])
        spec = ConcordanceSpec("spearman", False, default_nu(design, y), 3, 0)
        fits = fit_batch(selection._FoldState(design, y, ranks, spec).at(lam, 0.0))
        assert list(fits.errors) == [4] and isinstance(fits.errors[4], SingularDesign)
        assert np.isfinite(fits.beta0).tolist() == [k != 4 for k in range(12)]
        assert fits.converged.tolist() == [k != 4 for k in range(12)]
        with pytest.raises(FoldFailure, match=re.escape(
                "1 of 12 folds failed: [(4, 'design is rank deficient and alpha = 0')]")):
            loocv_score(design, y, ranks, spec, lam, 0.0)

    def test_fold_cache_matches_direct(self):
        design, y, ranks, scores, spec = make_data(seed=1)
        w = pair_weights(ranks, "spearman")
        fit = fit_rasper(PenalizedProblem(design, y, w, spec, 3.0, 1.0))
        a = loocv_score(design, y, ranks, spec, 3.0, 1.0, warm=fit,
                        state=selection._FoldState(design, y, ranks, spec))
        b = loocv_score(design, y, ranks, spec, 3.0, 1.0, warm=fit)
        assert a == pytest.approx(b, abs=1e-10)

    def test_fold_cache_holds_only_ranks(self):
        # n - 1 ranks per fold, no (n - 1) x (n - 1) weight matrix
        design, y, ranks, scores, spec = make_data(seed=5, n=100)
        r, tables = fold_weight_cache(design, ranks, spec)
        assert tables is None
        assert r.shape == (design.n, design.n - 1)

    def test_fold_cache_stacks_marginal_tables(self, monkeypatch):
        # fold k's tables are the full data's tables without row k, whether
        # taken from the full data's workspace or drawn anew, and a select
        # fits the sampler once, on the full data
        design, y, ranks, spec = _fold_data(9, "marginalized")
        weights = selection.problem_weights(design, ranks, spec)
        full = np.stack(weights.tables)
        for work in (None, pair_workspace(weights, design.x)):
            r, tables = fold_weight_cache(design, ranks, spec, work)
            assert tables.shape == (9, spec.samples, 8, design.p)
            for k in range(9):
                assert np.array_equal(tables[k], np.delete(full, k, axis=1))
        samplers = count_calls(monkeypatch, concordance, "build_marginal_sampler")
        select(design, y, ranks, spec, build_grid(0.5, 50.0, 2, 0.1, 5.0, 1))
        assert len(samplers) == 1

    def test_fold_ranks_recomputed_from_scores(self):
        # deleting the top-ranked row must compress the remaining ranks
        design, y, ranks, scores, spec = make_data(seed=2, n=10)
        cache = fold_weights(fold_weight_cache(design, ranks, spec), "spearman")
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
        cache = fold_weights(fold_weight_cache(design, ranks, spec), measure)
        assert len(cache) == design.n
        for k, fold in enumerate(cache):
            expected = pair_weights(external_ranks(np.delete(scores, k)), measure)
            assert np.array_equal(fold.w, expected.w)

    def test_unconverged_folds_warn_once(self, monkeypatch):
        design, y, ranks, scores, spec = make_data(seed=4)
        monkeypatch.setattr(selection, "fit_batch",
                            lambda problems, beta=None, start=None:
                            fit_batch(problems, beta, start, max_iter=1))
        with pytest.warns(RuntimeWarning) as record:
            score = loocv_score(design, y, ranks, spec, 3.0, 1.0)
        assert math.isfinite(score)
        assert len(record) == 1
        assert str(record[0].message) == \
            f"{design.n} of {design.n} fold fits did not converge at lambda=3, alpha=1"

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
        self._check_engine_passes(monkeypatch, marginalized, warm=True)

    @pytest.mark.parametrize("marginalized", [False, True])
    def test_engine_passes_per_cold_fold(self, monkeypatch, marginalized):
        self._check_engine_passes(monkeypatch, marginalized, warm=False)

    @pytest.mark.parametrize("marginalized", [False, True])
    def test_engine_passes_per_fold_with_previous_alpha_solutions(self, monkeypatch,
                                                                  marginalized):
        self._check_engine_passes(monkeypatch, marginalized, warm=True, known=True)

    @staticmethod
    def _check_engine_passes(monkeypatch, marginalized, warm, known=False):
        # The engine evaluates one fold table per trial a fold takes, so the
        # fold tables evaluated are the fold iterations summed, plus one
        # start table per fold when the starts are not downdated: a cold
        # fold starts at its own local minimizer. A warm fold, plain or
        # marginalized (whose tables are rows of the full tables), takes
        # none, also with the folds' solutions at an earlier alpha in the
        # state, which both starts are weighed on.
        design, y, ranks, spec = _fold_data(15, "marginalized" if marginalized else "spearman")
        state = selection._FoldState(design, y, ranks, spec)
        assert (state.tables is not None) == marginalized
        weights = selection.problem_weights(design, ranks, spec)
        if known:
            before = fit_rasper(PenalizedProblem(design, y, weights, spec, 40.0, 0.8))
            loocv_score(design, y, ranks, spec, 40.0, 0.8, warm=before, state=state)
        full = fit_rasper(PenalizedProblem(design, y, weights, spec, 40.0, 1.0))
        tables = []
        original = solver._pair_sums

        def counted(work, beta, nu):
            tables.append(beta.shape[0])
            return original(work, beta, nu)

        monkeypatch.setattr(solver, "_pair_sums", counted)
        folds = _recorded_fold_fits(monkeypatch)
        loocv_score(design, y, ranks, spec, 40.0, 1.0, warm=full if warm else None,
                    state=state)
        assert len(folds) == design.n
        for fit in folds:
            assert fit.converged
        start_tables = 0 if warm else design.n
        assert sum(tables) == sum(fit.iterations for fit in folds) + start_tables
        if start_tables:
            assert tables[0] == design.n
        assert (state.rollup["fold_reused"] > 0) == known

    @pytest.mark.parametrize("warm", [False, True])
    def test_lambda_zero_folds_make_no_engine_pass(self, monkeypatch, warm):
        design, y, ranks, spec = _fold_data(15, "spearman")
        full = fit_rasper(PenalizedProblem(design, y, pair_weights(ranks, "spearman"),
                                           spec, 0.0, 1.0))
        passes = count_calls(monkeypatch, solver, "_pair_sums")
        folds = _recorded_fold_fits(monkeypatch)
        loocv_score(design, y, ranks, spec, 0.0, 1.0, warm=full if warm else None)
        assert not passes
        assert len(folds) == design.n and all(f.concordance is None for f in folds)

    @pytest.mark.parametrize("marginalized", [False, True])
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("lam", [3.0, 1e3, 1e5])
    def test_downdated_starts_match_engine_starts(self, measure, lam, marginalized):
        design, y, _, _, spec = make_data(seed=13, n=20)
        design = StandardizedDesign(design.x, design.mean, design.scale, 2)   # a novel block
        scores = np.random.default_rng(13).integers(0, 6, design.n).astype(float)
        ranks = external_ranks(scores)                  # tied ranks
        spec = ConcordanceSpec(measure, marginalized, spec.nu, 3, 0)
        weights = selection.problem_weights(design, ranks, spec)
        assert (weights.tables is not None) == marginalized
        warm = fit_rasper(PenalizedProblem(design, y, weights, spec, lam, 1.0))
        downdated = loocv_score(design, y, ranks, spec, lam, 1.0, warm=warm)
        # each fold fitted alone on its own ranks and, marginalized, on the
        # full data's S tables without its row, its start taken by an engine pass
        engine = 0.0
        for k in range(design.n):
            keep = np.delete(np.arange(design.n), k)
            fold = PairWeights(r=external_ranks(scores[keep]).r, measure=measure,
                               tables=None if weights.tables is None
                               else tuple(t[keep] for t in weights.tables))
            fit = fit_rasper(PenalizedProblem(design.subset(keep), y[keep], fold, spec,
                                              lam, 1.0), init=warm.beta)
            engine += 0.5 * (y[k] - fit.beta0 - design.x[k] @ fit.beta) ** 2
        assert downdated == pytest.approx(engine / design.n, rel=1e-9)

    @pytest.mark.parametrize("lam, alpha, y_value, error", [
        (-1.0, 1.0, 0.0, InvalidValue), (3.0, math.inf, 0.0, InvalidValue),
        (3.0, 1.0, math.nan, NonFiniteValue)])
    def test_bad_input_raises_typed_error(self, lam, alpha, y_value, error):
        design, y, ranks, _, spec = make_data(seed=3, n=12)
        y = y.copy()
        y[4] += y_value
        with pytest.raises(error):
            loocv_score(design, y, ranks, spec, lam, alpha)

    def test_too_few_rows(self):
        design, y, ranks, scores, spec = make_data(n=5)
        with pytest.raises(FoldFailure):
            loocv_score(design.subset(np.arange(2)), y[:2],
                        external_ranks(scores[:2]), spec, 0.0, 0.0)


def _fold_data(n, case):
    """Study data with a novel block (q = 2 of p = 4), so a marginalized
    spec samples tables: (design, y, ranks, spec)."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((n, 4))
    y = x @ [1.0, 0.5, -0.5, 0.8] + 0.4 * rng.standard_normal(n)
    design = standardize(x, q=2)
    ranks = external_ranks(x[:, :2] @ [1.0, 0.4])
    measure = "kendall" if case == "kendall" else "spearman"
    spec = ConcordanceSpec(measure, case == "marginalized", default_nu(design, y), 3, 0)
    return design, y, ranks, spec


def _fold_fits(fits):
    """Each problem's fit in a ``BatchFit``, as a record with the
    ``FitResult`` fields the tests read."""
    return [SimpleNamespace(beta0=fits.beta0[k], beta=fits.beta[k],
                            iterations=int(fits.iterations[k]),
                            converged=bool(fits.converged[k]), grad_norm=fits.grad_norm[k],
                            concordance=None if fits.pair_sums is None else fits.pair_sums[0][k])
            for k in range(len(fits.beta0))]


def _recorded_fold_fits(monkeypatch):
    """Record every fold fit ``loocv_score`` gets from ``fit_batch``."""
    fits = []

    def recorded(problems, beta=None, start=None):
        out = fit_batch(problems, beta, start)
        fits.extend(_fold_fits(out))
        return out

    monkeypatch.setattr(selection, "fit_batch", recorded)
    return fits


class TestBatchedFolds:
    # Each fold of a chunk takes the iterates it takes alone. n = 15 is
    # smaller than a chunk (the budget holds 204 plain folds of 14 rows),
    # so all folds share one; at n = 37 plain chunks hold 30 folds and
    # marginalized ones (S = 3) 10, so the last chunk is partial.
    @pytest.mark.parametrize("n", [15, 37])
    @pytest.mark.parametrize("case", ["spearman", "kendall", "marginalized"])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 40.0, 1e5])
    def test_batched_folds_match_single_fold_fits(self, monkeypatch, n, case, warm, lam):
        design, y, ranks, spec = _fold_data(n, case)
        alpha = 0.0 if warm else 1.0                       # cold alpha = 0 folds take lstsq
        cache = fold_weight_cache(design, ranks, spec)
        full = fit_rasper(PenalizedProblem(design, y, selection.problem_weights(design, ranks, spec),
                                           spec, lam, alpha))
        folds = _recorded_fold_fits(monkeypatch)
        score = loocv_score(design, y, ranks, spec, lam, alpha, warm=full if warm else None,
                            state=selection._FoldState(design, y, ranks, spec))
        starts = None
        if warm and lam > 0 and case != "marginalized":
            starts = selection.fold_pair_sums(
                pair_workspace(pair_weights(ranks, spec.measure), design.x), full.beta, spec.nu)
        total = 0.0
        assert len(folds) == n
        for k, (fold, weights) in enumerate(zip(folds, fold_weights(cache, spec.measure))):
            keep = np.delete(np.arange(n), k)
            problem = PenalizedProblem(design.subset(keep), y[keep], weights, spec, lam, alpha)
            (alone,) = _fold_fits(fit_batch(
                problem.batch, full.beta[None] if warm else None,
                None if starts is None else tuple(a[k:k + 1] for a in starts)))
            assert fold.converged == alone.converged
            assert fold.iterations == alone.iterations
            assert np.linalg.norm(fold.beta - alone.beta) <= 1e-12 * np.linalg.norm(alone.beta)
            assert fold.beta0 == pytest.approx(alone.beta0, rel=1e-12, abs=1e-300)
            assert (fold.concordance is None) == (lam == 0)
            total += 0.5 * (y[k] - alone.beta0 - design.x[k] @ alone.beta) ** 2
        assert score == pytest.approx(total / n, rel=1e-12)

    def test_chunks_cover_the_folds_in_order(self, monkeypatch):
        # One fit_batch call takes all n = 37 folds, fold k on the rows other
        # than k. The engine walks them in chunks of as many folds as the
        # pair budget allows (30 plain folds of 36 rows, 10 with S = 3
        # tables), and no buffer's leading axis is longer.
        batches, loads = [], []
        original = concordance.PairWorkspace.load

        def recorded(problems, beta=None, start=None):
            batches.append(problems)
            return fit_batch(problems, beta, start)

        def load(work, first):
            loads.append(original(work, first).flat.copy())
            return work

        monkeypatch.setattr(selection, "fit_batch", recorded)
        monkeypatch.setattr(concordance.PairWorkspace, "load", load)
        for case, count, chunk in [("spearman", 1, 30), ("marginalized", 3, 10)]:
            design, y, ranks, spec = _fold_data(37, case)
            assert chunk == concordance.CHUNK_PAIRS // (count * 36 ** 2)
            batches.clear()
            loads.clear()
            loocv_score(design, y, ranks, spec, 40.0, 1.0)
            (problems,) = batches
            assert problems.x.shape[0] == 37
            for k in range(37):
                assert np.array_equal(problems.x[k], np.delete(design.x, k, axis=0))
            for buffer in (problems.work.s, problems.work.dens, problems.work.h):
                assert buffer.shape == (chunk, count, 36, 36)
            # the cold start pass takes every fold, in order: fold k's rows,
            # or its sampled tables
            tables = fold_weight_cache(design, ranks, spec)[1]
            folds = (problems.x if tables is None else tables).reshape(37, -1, design.p)
            assert [len(a) for a in loads[:2]] == [chunk, min(chunk, 37 - chunk)]
            assert np.array_equal(loads[0], folds[:chunk])
            assert np.array_equal(loads[1], folds[chunk:2 * chunk])
            assert max(len(a) for a in loads) == chunk


class TestKnownFoldStarts:
    # select keeps each lambda's fold solutions for the next alpha, and a
    # fold, plain or marginalized, starts from its solution there when that
    # point has the smaller gradient of the new grid point's objective.
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_near_equal_alpha_column_starts_from_the_first(self, monkeypatch, measure):
        # Every fold of the second column starts from its first-column fit
        # and takes one Newton step, or two at large lambda, where the
        # Hessian moves more (the folds of the first column take 2-4).
        design, y, ranks, scores, spec = make_data(seed=10)
        spec = ConcordanceSpec(measure, False, spec.nu, 1, 0)
        n = design.n
        # alpha in {0, 1e-4 n, 10}: the second column is nearly the first
        grid = build_grid(0.5 * n, 50.0 * n, 2, 1e-4 * n, 10.0, 1)
        folds = _recorded_fold_fits(monkeypatch)
        report = select(design, y, ranks, spec, grid)
        monkeypatch.undo()
        assert all(r.fold_reused == 0 for r in report.records if r.alpha == 0)
        columns = [[], []]
        for k, rec in enumerate(report.records):
            if rec.lam > 0 and rec.alpha in grid.alpha_values[:2]:
                columns[rec.alpha > 0].append((rec, folds[k * n:(k + 1) * n]))
        for rec, point in columns[1]:
            assert rec.fold_reused == n and rec.fold_unconverged == 0
            assert [f.iterations for f in point] == [1] * n or rec.lam > 100.0
            assert max(f.iterations for f in point) <= 2
            plain = loocv_score(design, y, ranks, spec, rec.lam, rec.alpha, warm=rec.fit)
            assert rec.loo == pytest.approx(plain, rel=1e-7)
        assert sum(r.fold_iterations for r, _ in columns[0]) \
            > 2 * sum(r.fold_iterations for r, _ in columns[1])

    def test_sampled_folds_start_from_their_previous_alpha_solutions(self):
        # A marginalized fold keeps its sampled tables for the whole grid,
        # so its solution at the previous alpha is an exact start at the
        # next: the folds that take it end at the fresh state's solutions,
        # to the solver's tolerance, in no more iterations.
        design, y, ranks, spec = _fold_data(15, "marginalized")
        weights = selection.problem_weights(design, ranks, spec)
        lam, n = 40.0, design.n
        state = selection._FoldState(design, y, ranks, spec)
        fresh = selection._FoldState(design, y, ranks, spec)
        scores = []
        for alpha, at in ((0.8, state), (1.0, state), (1.0, fresh)):
            full = fit_rasper(PenalizedProblem(design, y, weights, spec, lam, alpha))
            scores.append(loocv_score(design, y, ranks, spec, lam, alpha, warm=full, state=at))
        assert 0 < state.rollup["fold_reused"] <= n and fresh.rollup["fold_reused"] == 0
        assert scores[1] == pytest.approx(scores[2], rel=1e-8)
        assert state.rollup["fold_iterations"] <= fresh.rollup["fold_iterations"]

    def test_farther_known_fit_keeps_the_downdated_start(self, monkeypatch):
        # The state holds the folds' alpha = 0 solutions, except folds 3
        # and 7, whose rows are their solutions at a large alpha: there the
        # gradient of the new point's objective is larger than at the
        # downdated point, so those two folds start and end exactly as
        # without the state's solutions.
        design, y, ranks, scores, spec = make_data(seed=10)
        n, lam = design.n, 0.5 * design.n
        weights = pair_weights(ranks, spec.measure)
        state = selection._FoldState(design, y, ranks, spec)
        far = selection._FoldState(design, y, ranks, spec)
        for at, alpha in ((state, 0.0), (far, 1e3 * n)):
            before = fit_rasper(PenalizedProblem(design, y, weights, spec, lam, alpha))
            loocv_score(design, y, ranks, spec, lam, alpha, warm=before, state=at)
        (beta, sums), (far_beta, far_sums) = state.known[lam], far.known[lam]
        for mine, other in zip((beta, *sums), (far_beta, *far_sums)):
            mine[[3, 7]] = other[[3, 7]]
        alpha = 1e-4 * n
        full = fit_rasper(PenalizedProblem(design, y, weights, spec, lam, alpha))
        folds = _recorded_fold_fits(monkeypatch)
        chosen = []
        original = selection._nearer_starts

        def nearer(*args):
            chosen.append(original(*args))
            return chosen[-1]

        monkeypatch.setattr(selection, "_nearer_starts", nearer)
        loocv_score(design, y, ranks, spec, lam, alpha, warm=full, state=state)
        offered = folds[:]
        folds.clear()
        loocv_score(design, y, ranks, spec, lam, alpha, warm=full)
        ((_, _, reused),) = chosen
        assert state.rollup["fold_reused"] == n - 2
        assert [k for k in range(n) if not reused[k]] == [3, 7]
        for k in range(n):
            if reused[k]:
                assert offered[k].iterations <= folds[k].iterations
                continue
            assert offered[k].iterations == folds[k].iterations
            assert np.linalg.norm(offered[k].beta - folds[k].beta) \
                <= 1e-12 * np.linalg.norm(folds[k].beta)


class TestFoldMemory:
    # One warm grid point at n = 100 on the folds' state, which select
    # builds once, allocates little besides the fold fits' results: the
    # rows (317 KB here, p = 4) and the chunk's engine buffers (0.94 MB for
    # four plain folds, 4.7 MB for one fold of S = 20 tables) are the
    # state's. An all-fold (n, n - 1, n - 1) table would take 7.8 MB, and
    # the folds' stacked tables 6.3 MB at S = 20. As in select, the state
    # holds the folds' solutions at an earlier alpha, which every fold
    # may start from.
    @pytest.mark.parametrize("case, limit", [("spearman", 2.1e6), ("marginalized", 8e6)])
    def test_heap_peak_of_a_warm_grid_point(self, case, limit):
        design, y, ranks, spec = _fold_data(100, case)
        spec = dataclasses.replace(spec, samples=20)
        lam, alpha = 1000.0, 1.0
        weights = selection.problem_weights(design, ranks, spec)
        full = fit_rasper(PenalizedProblem(design, y, weights, spec, lam, alpha))
        state = selection._FoldState(design, y, ranks, spec)
        loocv_score(design, y, ranks, spec, lam, alpha / 2, warm=full, state=state)
        tracemalloc.start()
        try:
            loocv_score(design, y, ranks, spec, lam, alpha, warm=full, state=state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    # The state holds the folds' rows (0.32 MB at n = 100, p = 4), their
    # [1 | scale | x] ends (0.48 MB) and one chunk's engine buffers (0.94 MB
    # plain); Spearman adds the scaled rows and [1 | scale] (0.48 MB),
    # Kendall the mask buffers (0.7 MB). The downdate reads the full
    # data's workspace, which select's fits already hold. The state builds
    # its folds' ranks (79 KB) and, marginalized, their (n, S, n - 1, p)
    # tables (6.3 MB) itself, and holds no other piece of the tables' size:
    # their ends are built per chunk, so the state is the tables, the
    # buffers (4.7 MB) and O(n p) floats per fold, and a second copy of the
    # tables would not fit.
    @pytest.mark.parametrize("case, limit", [("spearman", 2.8e6), ("kendall", 2.9e6),
                                             ("marginalized", None)])
    def test_heap_peak_of_the_fold_state(self, case, limit):
        design, y, ranks, spec = _fold_data(100, case)
        spec = dataclasses.replace(spec, samples=20)
        full = pair_workspace(selection.problem_weights(design, ranks, spec), design.x)
        tracemalloc.start()
        try:
            state = selection._FoldState(design, y, ranks, spec, full)
            buffers = 3 * state.work.s.nbytes
            assert state.full is full
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if limit is None:
            limit = state.tables.nbytes + buffers + 8 * state.batch.x.nbytes
            assert limit < 2 * state.tables.nbytes + buffers
        assert peak < limit


class TestFoldState:
    # select builds the folds' batch and their pair workspace once per call,
    # and the plain folds' downdate reads the full-data workspace its fits
    # use; a fresh state, given select's (lambda, alpha) sequence, gives
    # every grid point's score and fold roll-up bit for bit. Only root
    # workspaces are counted: a batch taken down to its unfinished folds
    # copies its problems' inputs into a copy of the root, on the root's
    # buffers, and builds none.
    @pytest.mark.parametrize("case", ["spearman", "kendall", "marginalized"])
    def test_select_builds_the_fold_state_once(self, monkeypatch, case):
        design, y, ranks, spec = _fold_data(12, case)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        batches, workspaces, downdates, fitted, calls = [], [], [], [], []
        originals = (selection.problem_batch, concordance.PairWorkspace, selection.loocv_score,
                     selection.fold_pair_sums, selection.fit_rasper)

        def batch(x, *args, **kwargs):
            batches.append(x.shape[0])
            return originals[0](x, *args, **kwargs)

        def workspace(stack, *args):
            workspaces.append(stack.shape[0])
            return originals[1](stack, *args)

        def score(*args, **kwargs):
            calls.append((args, kwargs, originals[2](*args, **kwargs)))
            return calls[-1][2]

        def downdate(work, *args):
            downdates.append(work)
            return originals[3](work, *args)

        def fit(problem, **kwargs):
            fitted.append(problem.workspace)
            return originals[4](problem, **kwargs)

        for module in (concordance, selection):
            monkeypatch.setattr(module, "PairWorkspace", workspace)
        monkeypatch.setattr(selection, "problem_batch", batch)
        monkeypatch.setattr(selection, "loocv_score", score)
        monkeypatch.setattr(selection, "fold_pair_sums", downdate)
        monkeypatch.setattr(selection, "fit_rasper", fit)
        select(design, y, ranks, spec, grid, criterion="aic")
        by_aic = sorted(workspaces)
        workspaces.clear()
        report = select(design, y, ranks, spec, grid)
        monkeypatch.undo()
        assert batches == [design.n]
        assert sorted(workspaces) == sorted(by_aic + [design.n])
        # every warm lambda > 0 point downdates its folds from the full fits' workspace
        assert len(downdates) == sum(r.lam > 0 for r in report.records)
        assert all(work is fitted[-1] for work in downdates + fitted[len(fitted) // 2:])
        assert len(calls) == grid.size
        fresh = selection._FoldState(design, y, ranks, spec)
        for (args, kwargs, loo), record in zip(calls, report.records):
            assert record.loo == loo
            assert loocv_score(*args, warm=kwargs["warm"], state=fresh) == loo
            assert fresh.rollup == {k: getattr(record, k) for k in fresh.rollup}

    _ALONE = """
import json, sys
sys.path[:0] = sys.argv[3:]
from test_selection import _select_rows
print(json.dumps(_select_rows(sys.argv[1], int(sys.argv[2]))))
"""

    @pytest.mark.parametrize("case", ["spearman", "kendall", "marginalized"])
    def test_no_state_leaks_between_calls(self, case):
        # Two selects in one process, on different data of the same n, each
        # give the rows the same select gives in a process of its own.
        here = [str(Path(__file__).parent), str(Path(selection.__file__).parents[1])]
        alone = [subprocess.Popen([sys.executable, "-c", self._ALONE, case, str(seed), *here],
                                  stdout=subprocess.PIPE, text=True) for seed in (1, 2)]
        together = [_select_rows(case, seed) for seed in (1, 2)]
        outs = [run.communicate(timeout=120)[0] for run in alone]
        assert [run.returncode for run in alone] == [0, 0]
        assert [json.loads(out) for out in outs] == together


def _select_rows(case, seed):
    """The LOOCV report rows of ``select`` on 12 rows of study data drawn
    from ``seed``, without the fits."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 4))
    y = x @ [1.0, 0.5, -0.5, 0.8] + 0.4 * rng.standard_normal(12)
    design = standardize(x, q=2)
    ranks = external_ranks(x[:, :2] @ [1.0, 0.4])
    measure = "kendall" if case == "kendall" else "spearman"
    spec = ConcordanceSpec(measure, case == "marginalized", default_nu(design, y), 3, 0)
    report = select(design, y, ranks, spec, build_grid(0.5, 50.0, 2, 0.1, 5.0, 1))
    return report.to_rows()


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
            m0 = _surrogate_sums(PairWorkspace(x[None, None], ranks.r[None], measure),
                                 np.zeros(2), nu)[2]
            want = reference_sums(w.w, (x,), np.zeros(2), nu)[1][2]
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

    @pytest.mark.parametrize("criterion", ["loocv", "aic"])
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_one_curvature_pass_and_one_workspace(self, monkeypatch, criterion, measure):
        # M0 and the full-data workspace depend on neither lambda nor alpha:
        # select takes one surrogate pass and builds one workspace on the
        # observed design for its whole grid, its fits' and M0's, and each
        # grid point's df is the one degrees_of_freedom gives, to the last
        # bit.
        design, y, ranks, scores, spec = make_data(seed=11, n=15)
        spec = ConcordanceSpec(measure, False, spec.nu, 1, 0)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        mm_passes = count_calls(monkeypatch, selection, "_surrogate_sums")
        observed = []
        original = concordance.PairWorkspace

        def workspace(stack, *args):
            if stack.shape[:2] == (1, 1) and np.array_equal(stack[0, 0], design.x):
                observed.append(stack)
            return original(stack, *args)

        for module in (concordance, selection):
            monkeypatch.setattr(module, "PairWorkspace", workspace)
        report = select(design, y, ranks, spec, grid, criterion=criterion)
        monkeypatch.undo()
        assert len(mm_passes) == 1
        assert len(observed) == 1
        weights = pair_weights(ranks, measure)
        for record in report.records:
            assert not record.df_flagged
            assert record.df == degrees_of_freedom(design, weights, spec.nu,
                                                   record.lam, record.alpha)

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_warm_full_fits_make_no_start_pass(self, monkeypatch, measure):
        # Each alpha's lambda = 0 fit makes one closing pass, and every later
        # fit starts from the previous fit's sums: one pass per trial.
        design, y, ranks, scores, spec = make_data(seed=11, n=15)
        spec = ConcordanceSpec(measure, False, spec.nu, 1, 0)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        passes = count_calls(monkeypatch, solver, "_pair_sums")
        report = select(design, y, ranks, spec, grid, criterion="aic")
        assert len(passes) == len(grid.alpha_values) + sum(
            r.fit.iterations for r in report.records if r.lam > 0)

    @pytest.mark.parametrize("criterion", ["loocv", "aic"])
    def test_rows_roll_up_the_fold_fits(self, monkeypatch, criterion):
        design, y, ranks, scores, spec = make_data(seed=10)
        grid = build_grid(0.5, 50.0, 2, 0.1, 5.0, 1)
        folds = _recorded_fold_fits(monkeypatch)
        rows = select(design, y, ranks, spec, grid, criterion=criterion).to_rows()
        n = design.n
        assert len(folds) == (n * grid.size if criterion == "loocv" else 0)
        for k, row in enumerate(rows):
            point = folds[k * n:(k + 1) * n]
            rollup = [row[name] for name in
                      ("fold_iterations", "fold_unconverged", "fold_max_grad_norm",
                       "fold_reused")]
            if criterion == "aic":
                assert rollup == [None, None, None, None]
            else:
                assert rollup[:3] == [sum(f.iterations for f in point),
                                      sum(not f.converged for f in point),
                                      max(f.grad_norm for f in point)]
                assert 0 <= rollup[3] <= (n if row["alpha"] > 0 and row["lambda"] > 0 else 0)

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
