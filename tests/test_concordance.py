import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import rasper.concordance as concordance
from rasper.concordance import (
    ConcordanceSpec,
    PairWeights,
    PairWorkspace,
    _pair_sums,
    _sigma,
    _surrogate_sums,
    build_marginal_sampler,
    fold_pair_sums,
    jj_coefficient,
    marginalized_weights,
    pair_weights,
    problem_weights,
)
from rasper.data_model import external_ranks, standardize
from rasper.errors import (
    DegenerateWeights,
    DimensionMismatch,
    InvalidValue,
    NonpositiveConcordance,
)
from rasper.solver import fit_rasper, penalized_objective

from conftest import engine_sums, make_problem, reference_sums
from oracles import _sigma_table, exact_rank_params, smooth_rank_params


class TestRankParams:
    def test_exact_ranks_at_zero_beta(self):
        x = np.random.default_rng(0).standard_normal((7, 2))
        psi = exact_rank_params(x, np.zeros(2))
        assert np.all(psi == 7)

    def test_exact_ranks_are_score_ranks(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((15, 3))
        beta = rng.standard_normal(3)
        eta = x @ beta
        expected = (eta[:, None] >= eta[None, :]).sum(axis=1)
        assert np.array_equal(exact_rank_params(x, beta), expected)

    def test_smooth_ranks_at_zero_beta(self):
        x = np.random.default_rng(2).standard_normal((9, 2))
        psi = smooth_rank_params(x, np.zeros(2), nu=0.3)
        assert np.allclose(psi, 9 / 2)

    def test_smooth_rank_closed_form_two_points(self):
        # separation nu*ln 3 makes the off-diagonal sigmoid exactly 3/4
        nu = 0.2
        x = np.array([[nu * np.log(3.0)], [0.0]])
        psi = smooth_rank_params(x, np.array([1.0]), nu=nu)
        assert np.allclose(psi, [0.5 + 0.75, 0.5 + 0.25], atol=1e-12)

    def test_smooth_converges_to_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 2))
        beta = rng.standard_normal(2)
        psi_nu = smooth_rank_params(x, beta, nu=1e-8)
        # diagonal contributes 1/2 in the smooth version, 1 in the exact one
        assert np.allclose(psi_nu + 0.5, exact_rank_params(x, beta), atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            smooth_rank_params(np.ones((3, 2)), np.ones(3), nu=0.1)


class TestPairWeights:
    def test_spearman_hand_values(self):
        ranks = external_ranks([30.0, 10.0, 20.0])   # r = [3, 1, 2]
        w = pair_weights(ranks, "spearman").w
        assert np.allclose(w, np.array([[3, 3, 3], [1, 1, 1], [2, 2, 2]]) / 36.0)

    def test_kendall_hand_values(self):
        ranks = external_ranks([30.0, 10.0, 20.0])
        w = pair_weights(ranks, "kendall").w
        expected = np.array([[0, 1, 1], [0, 0, 0], [0, 1, 0]]) / 3.0
        assert np.allclose(w, expected)

    def test_kendall_total_is_one_without_ties(self):
        ranks = external_ranks(np.random.default_rng(0).standard_normal(11))
        assert pair_weights(ranks, "kendall").w.sum() == pytest.approx(1.0)

    def test_weights_nonnegative(self):
        ranks = external_ranks(np.random.default_rng(1).standard_normal(8))
        for measure in ("spearman", "kendall"):
            assert np.all(pair_weights(ranks, measure).w >= 0.0)

    def test_literal_kendall_is_signed(self):
        ranks = external_ranks([30.0, 10.0, 20.0])
        pw = pair_weights(ranks, "kendall")
        # the paper's signed Kendall form (2 I(r_i > r_j) - 1) / (n (n - 1))
        n, r = 3, ranks.r
        lit = (2.0 * (r[:, None] > r[None, :]) - 1.0) / (n * (n - 1))
        assert lit.min() < 0.0
        # implemented nonnegative form differs by the constant 1/(n(n-1))
        assert np.allclose(pw.w - lit, 1.0 / (n * (n - 1)), atol=1e-12)


class TestConcordanceValue:
    def test_spearman_zero_beta_closed_form(self):
        # D(0) = sum_i n * r_i / (4 n^2) * 1/2 = sum(r) / (8 n)
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(13)
        ranks = external_ranks(scores)
        w = pair_weights(ranks, "spearman")
        x = rng.standard_normal((13, 3))
        d = engine_sums(w, x, np.zeros(3), 0.2)[0]
        assert d == pytest.approx(ranks.r.sum() / (8.0 * 13), abs=1e-12)

    def test_kendall_zero_beta_is_half(self):
        rng = np.random.default_rng(1)
        ranks = external_ranks(rng.standard_normal(9))
        w = pair_weights(ranks, "kendall")
        x = rng.standard_normal((9, 2))
        assert engine_sums(w, x, np.zeros(2), 0.5)[0] == pytest.approx(0.5)

    def test_kendall_bounded_by_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        ranks = external_ranks(rng.standard_normal(10))
        w = pair_weights(ranks, "kendall")
        for _ in range(20):
            beta = 3.0 * rng.standard_normal(2)
            assert 0.0 < engine_sums(w, x, beta, 0.1)[0] <= 1.0

    def test_perfect_concordance_approaches_total_kendall(self):
        # beta reproducing the external order drives every concordant sigmoid
        # to 1 as nu -> 0
        x = np.arange(8.0)[:, None]
        ranks = external_ranks(np.arange(8.0))
        w = pair_weights(ranks, "kendall")
        d = engine_sums(w, x, np.array([5.0]), 1e-3)[0]
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_weights_rejected(self):
        # all-tied ranks leave no strictly ordered pair, so every Kendall
        # weight is zero
        w = pair_weights(external_ranks(np.ones(4)), "kendall")
        with pytest.raises(DegenerateWeights):
            engine_sums(w, np.ones((4, 2)), np.zeros(2), 0.1)


class TestConcordanceGradient:
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, measure, seed):
        rng = np.random.default_rng(seed)
        n, p = 12, 3
        x = rng.standard_normal((n, p))
        ranks = external_ranks(rng.standard_normal(n))
        w = pair_weights(ranks, measure)
        beta = rng.standard_normal(p)
        nu = 0.3
        grad = engine_sums(w, x, beta, nu)[1]
        h = 1e-6
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd = (engine_sums(w, x, beta + e, nu)[0]
                  - engine_sums(w, x, beta - e, nu)[0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_gradient_for_constant_direction(self):
        # identical rows make every pair difference vanish
        x = np.ones((6, 2))
        ranks = external_ranks(np.arange(6.0))
        w = pair_weights(ranks, "spearman")
        grad = engine_sums(w, x, np.array([1.0, -1.0]), 0.2)[1]
        assert np.allclose(grad, 0.0, atol=1e-14)


class TestSigmaTable:
    # The engine's kernel on a one-column design at beta = 1 and nu = 1,
    # where u_ij = t_i - t_j; the tests' subtraction-built table is the
    # same, bit for bit.
    @staticmethod
    def _kernel_table(t):
        work = PairWorkspace(t[None, None, :, None], np.arange(t.size)[None], "spearman")
        s = _sigma(work.load(0), np.ones((1, 1)), 1.0)[0, 0]
        assert np.array_equal(s, _sigma_table(t))
        return s

    def test_matches_expit(self):
        t = 15.0 * np.random.default_rng(5).standard_normal(60)
        s = self._kernel_table(t)
        assert np.max(np.abs(s - expit(np.subtract.outer(t, t)))) <= 1e-15
        assert np.all(np.diag(s) == 0.5)

    def test_saturates_exactly_without_warning(self):
        t = np.array([-30.0, -21.0, -0.01, 0.0, 0.02, 21.0, 30.0]) / 1e-3
        u = np.subtract.outer(t, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = self._kernel_table(t)
        far = np.abs(u) > 2e4
        assert far.sum() == 32              # the pairs at least 20.98 apart
        assert np.array_equal(s[far], expit(u[far]))
        assert np.array_equal(s[far], (u[far] > 0).astype(float))


class TestPairSumEngine:
    @pytest.mark.parametrize("case", ["spearman", "kendall", "marginalized"])
    def test_matches_double_loop(self, case):
        rng = np.random.default_rng(11)
        n, nu = 7, 0.4
        x = rng.standard_normal((n, 3))
        measure = "kendall" if case == "kendall" else "spearman"
        ranks = external_ranks(rng.standard_normal(n))
        w = pair_weights(ranks, measure).w
        tables = (x,)
        if case == "marginalized":
            tables = build_marginal_sampler(x[:, :2], x[:, 2:], 3, 0).tables
        beta = rng.standard_normal(3)
        work = PairWorkspace(np.stack(tables)[None], ranks.r[None], measure)
        d, grad, hess = (a[0] for a in _pair_sums(work, beta[None], nu))
        surrogate_d, lin, quad = _surrogate_sums(work, beta, nu)
        assert surrogate_d == d

        ref_d, ref_grad, ref_hess = 0.0, np.zeros(3), np.zeros((3, 3))
        ref_lin, ref_quad = np.zeros(3), np.zeros((3, 3))
        for t in tables:
            for i in range(n):
                for j in range(n):
                    a = (t[i] - t[j]) / nu
                    u = a @ beta
                    s = expit(u)
                    ref_d += w[i, j] * s
                    ref_grad += w[i, j] * s * (1.0 - s) * a
                    ref_hess += w[i, j] * s * (1.0 - s) * (1.0 - 2.0 * s) * np.outer(a, a)
                    ref_lin += w[i, j] * s * a
                    ref_quad += w[i, j] * s * jj_coefficient(u) * np.outer(a, a)
        count = len(tables)
        ref_d /= count
        pairs = [(d, ref_d), (grad, ref_grad / count), (hess, ref_hess / count),
                 (lin, ref_lin / (count * ref_d)), (quad, ref_quad / (count * ref_d))]
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_only_zero_weights_are_degenerate(self):
        # Decided from the ranks: all-tied Kendall ranks give no weight; a
        # strict order whose every pair the model reverses gives D = 0.
        # _pair_sums leaves D to its caller; the one-problem surrogate raises.
        x = np.arange(4.0)[None, None, :, None]
        tied = PairWorkspace(x, np.full((1, 4), 4), "kendall")
        assert _pair_sums(tied, np.ones((1, 1)), 0.1)[0][0] == 0.0 and not tied.live[0]
        with pytest.raises(DegenerateWeights):
            _surrogate_sums(tied, np.ones(1), 0.1)
        reversed_work = PairWorkspace(x, np.arange(4, 0, -1)[None], "kendall")
        assert _pair_sums(reversed_work, np.ones((1, 1)), 1e-4)[0][0] == 0.0
        assert reversed_work.live[0]
        with pytest.raises(NonpositiveConcordance):
            _surrogate_sums(reversed_work, np.ones(1), 1e-4)

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_stack_matches_per_table_formula(self, measure, count):
        # The per-table formula on dense weights, kept in conftest, is the
        # reference of both entry points; ties in the ranks.
        rng = np.random.default_rng(20 + count)
        n, p, nu = 23, 4, 0.35
        tables = tuple(rng.standard_normal((n, p)) for _ in range(count))
        ranks = external_ranks(rng.integers(0, 7, n).astype(float))
        assert len(np.unique(ranks.r)) < n               # tied
        w = pair_weights(ranks, measure).w
        work = PairWorkspace(np.stack(tables)[None], ranks.r[None], measure)
        for _ in range(3):
            beta = rng.standard_normal(p)
            got = [a[0] for a in _pair_sums(work, beta[None], nu)]
            got += _surrogate_sums(work, beta, nu)
            pair, surrogate = reference_sums(w, tables, beta, nu)
            for a, b in zip(got, pair + surrogate):
                assert np.linalg.norm(np.subtract(a, b)) <= 1e-12 * np.linalg.norm(b)

    def test_all_tied_kendall_problem_is_degenerate(self):
        problem, ranks, _ = make_problem(measure="kendall", lam=5.0)
        tied = PairWeights(r=np.full_like(ranks.r, ranks.r.max()), measure="kendall")
        problem = dataclasses.replace(problem, weights=tied)
        assert not problem.workspace.live
        with pytest.raises(DegenerateWeights):
            penalized_objective(problem, 0.0, np.ones(problem.design.p))
        with pytest.raises(DegenerateWeights):
            fit_rasper(problem)

    def test_kendall_masks_are_built_in_place(self):
        # Every chunk's order mask and its sign are the broadcast comparison
        # and the transposed difference, bit for bit, and live in the two
        # buffers the workspace allocated once. 37 folds of 36 rows take
        # chunks of 30, so the last one is partial.
        rng = np.random.default_rng(6)
        r = rng.integers(0, 9, (37, 36)).astype(float)      # tied ranks
        work = PairWorkspace(rng.standard_normal((37, 1, 36, 2)), r, "kendall")
        assert work.chunk == 30
        buffers = work.mask_buf, work.sign_buf
        for first in (0, 30, 0):
            work.load(first)
            ranks = r[first:first + 30]
            mask = (ranks[:, None, :, None] > ranks[:, None, None, :]).astype(float)
            sign = mask - mask.transpose(0, 1, 3, 2)
            assert work.mask.tobytes() == mask.tobytes()
            assert work.sign.tobytes() == sign.tobytes()
            assert work.mask.base is buffers[0] and work.sign.base is buffers[1]
        assert (work.mask_buf, work.sign_buf) == buffers

    def test_kendall_load_takes_no_transient_buffers(self):
        # A comparison of broadcast ranks, or a bool result cast into a float
        # buffer, makes numpy copy operands through 64 KB iterator buffers
        # (a load of one n = 100 problem peaked at 142 KB). The mask and its
        # sign are built in the workspace's own buffers instead, so a load
        # allocates only its views: the first load of a one-problem
        # workspace, and the second chunk of a fold-sized one.
        rng = np.random.default_rng(8)
        r = rng.integers(0, 30, (8, 100)).astype(float)
        for work, first in [(PairWorkspace(rng.standard_normal((1, 1, 100, 3)), r[:1],
                                           "kendall"), 0),
                            (PairWorkspace(rng.standard_normal((8, 1, 100, 3)), r,
                                           "kendall").load(0), 4)]:
            tracemalloc.start()
            try:
                work.load(first)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20_000
            mask = (r[first:first + work.chunk, None, :, None]
                    > r[first:first + work.chunk, None, None, :]).astype(float)
            assert work.mask.tobytes() == mask[:len(work.mask)].tobytes()

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("kind", ["contiguous", "scattered"])
    def test_taken_down_sums_equal_the_full_rows(self, measure, count, kind):
        # A taken-down workspace selects its chunks' pieces by a slice when
        # their problems are contiguous and by a gather otherwise, on the
        # buffers it shares with the workspace it came from; each problem's
        # sums are the ones the whole workspace gives it, bit for bit. The
        # whole workspace then gives the same sums again: with one chunk it
        # keeps that chunk loaded, but the take-down has since built its own
        # masks in the shared buffers, so the whole one must build its again.
        rng = np.random.default_rng(40 + count)
        n, p, nu = 40, 3, 0.3
        chunk = concordance.CHUNK_PAIRS // (count * n * n)
        for size in (chunk, 60):
            work = PairWorkspace(rng.standard_normal((size, count, n, p)),
                                 rng.integers(0, 12, (size, n)), measure)
            assert work.chunk == chunk
            beta = rng.standard_normal((size, p))
            full = _pair_sums(work, beta, nu)
            idx = (np.arange(size // 8, size - 3) if kind == "contiguous"
                   else rng.permutation(size)[:2 * size // 3])
            part = _pair_sums(work.take(idx), beta[idx], nu)
            for a, b in zip(part, full):
                assert a.tobytes() == b[idx].tobytes()
            for a, b in zip(_pair_sums(work, beta, nu), full):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("entry", ["pair", "surrogate", "fold"])
    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_results_do_not_alias_the_workspace(self, measure, entry):
        # Every entry point writes into workspace buffers, so a second call
        # must leave the first call's arrays as they were.
        problem, ranks, _ = make_problem(measure=measure, lam=5.0)
        work = problem.workspace
        rng = np.random.default_rng(4)
        beta = rng.standard_normal(problem.design.p)

        def sums(b):
            if entry == "pair":
                return _pair_sums(work, b[None], problem.nu)
            if entry == "surrogate":
                return _surrogate_sums(work, b, problem.nu)
            return fold_pair_sums(work, b, problem.nu)

        first = sums(beta)
        kept = [np.array(a, copy=True) for a in first]
        second = sums(-2.0 * beta)
        for a, b, c in zip(first, kept, second):
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)
        buffers = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
        for a in first[1:]:
            assert not any(np.shares_memory(a, buf) for buf in buffers)


class TestFoldPairSums:
    # Both sides form the logistic density as s * s', accurate to a few ulp
    # however far apart a pair is, so no bound on |u| is needed.
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), p=st.integers(1, 6),
           nu=st.floats(0.05, 2.0), measure=st.sampled_from(["spearman", "kendall"]),
           tied=st.booleans())
    def test_matches_engine_on_every_fold(self, seed, n, p, nu, measure, tied):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        scores = rng.integers(0, 4, n).astype(float) if tied else rng.standard_normal(n)
        full = PairWorkspace(x[None, None], external_ranks(scores).r[None], measure)
        got = fold_pair_sums(full, beta, nu)
        want = [np.zeros(n), np.zeros((n, p)), np.zeros((n, p, p))]
        for k in range(n):
            # each fold's weights from its own scores, not from the full ranks
            work = PairWorkspace(np.delete(x, k, axis=0)[None, None],
                                 external_ranks(np.delete(scores, k)).r[None], measure)
            if work.live:
                d, grad, hess = _pair_sums(work, beta[None], nu)
                want[0][k], want[1][k], want[2][k] = d[0], grad[0], hess[0]
        # A fold whose weights are all zero is the engine's error, not a value
        # (see TestLOOCV), so its sums are left out. Where a fold's sum
        # vanishes by symmetry (a tied pair in a two-row fold), both sides
        # are rounding residues of terms no larger than D (2 max|x| / nu)^k.
        live = want[0] > 0
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape
            floor = 1e-14 * want[0].max() * (2.0 * np.abs(x).max() / nu) ** k
            assert np.all(np.abs(a[live] - b[live]) <= 1e-10 * np.abs(b).max() + floor)

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    @pytest.mark.parametrize("count", [2, 7])
    def test_sampled_tables_match_engine_on_every_fold(self, measure, count):
        # Fold k's S tables are the full data's without row k, so the
        # downdate of the full data's workspace gives each fold the sums
        # the engine gives on the fold's own workspace.
        rng = np.random.default_rng(50 + count)
        n, p, nu = 17, 3, 0.4
        tables = rng.standard_normal((count, n, p))
        scores = rng.integers(0, 5, n).astype(float)            # tied
        beta = rng.standard_normal(p)
        got = fold_pair_sums(PairWorkspace(tables[None], external_ranks(scores).r[None], measure),
                             beta, nu)
        for k in range(n):
            work = PairWorkspace(np.delete(tables, k, axis=1)[None],
                                 external_ranks(np.delete(scores, k)).r[None], measure)
            for a, b in zip(got, _pair_sums(work, beta[None], nu)):
                assert np.max(np.abs(a[k] - b[0])) <= 1e-13 * np.max(np.abs(b[0]))

    @staticmethod
    def _long_double_sums(w, x, beta, nu):
        """D, gradient and Hessian in long double, with the density and
        1 - 2 sigma written in exp(-|u|), which never rounds to 1."""
        x = x.astype(np.longdouble)
        a = (x[:, None, :] - x[None, :, :]) / np.longdouble(nu)
        u = a @ beta.astype(np.longdouble)
        e = np.exp(-np.abs(u))
        dens = e / (1 + e) ** 2
        tilt = -np.sign(u) * (1 - e) / (1 + e)        # 1 - 2 sigma(u)
        w = w.astype(np.longdouble)
        d = np.sum(w / (1 + np.exp(-u)))
        grad = np.einsum("ij,ijk->k", w * dens, a)
        hess = np.einsum("ij,ijk,ijl->kl", w * dens * tilt, a, a)
        return d, grad, hess

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_far_apart_tables_match_long_double(self, measure):
        # 3-4 row tables whose u spans 50-65: the widest pair's density is
        # below 1e-21, where s - s^2 had only absolute accuracy (about eps).
        rng = np.random.default_rng(31)
        nu = 0.2
        for trial in range(40):
            n, p = 3 + trial % 2, 2
            x = rng.standard_normal((n, p))
            beta = rng.standard_normal(p)
            beta *= rng.uniform(50.0, 65.0) * nu / np.ptp(x @ beta)
            scores = rng.standard_normal(n)
            r = external_ranks(scores).r
            got = _pair_sums(PairWorkspace(x[None, None], r[None], measure), beta[None], nu)
            want = self._long_double_sums(pair_weights(external_ranks(scores), measure).w,
                                          x, beta, nu)
            for a, b in zip((a[0] for a in got), want):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            # A fold's sums are the full table's less the left-out row's
            # pairs, so their scale is the largest entry over all folds.
            want = [np.stack(a) for a in zip(*(
                self._long_double_sums(
                    pair_weights(external_ranks(np.delete(scores, k)), measure).w,
                    np.delete(x, k, axis=0), beta, nu) for k in range(n)))]
            full = PairWorkspace(x[None, None], r[None], measure)
            for a, b in zip(fold_pair_sums(full, beta, nu), want):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestMarginalSampler:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((15, 2))
        b = rng.standard_normal((15, 2))
        s1 = build_marginal_sampler(z, b, samples=4, seed=9)
        s2 = build_marginal_sampler(z, b, samples=4, seed=9)
        for t1, t2 in zip(s1.tables, s2.tables):
            assert np.array_equal(t1, t2)
        s3 = build_marginal_sampler(z, b, samples=4, seed=10)
        assert not np.array_equal(s1.tables[0], s3.tables[0])

    def test_table_shapes_and_conventional_block(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((10, 3))
        b = rng.standard_normal((10, 2))
        s = build_marginal_sampler(z, b, samples=5, seed=0)
        assert len(s.tables) == 5
        for t in s.tables:
            assert t.shape == (10, 5)
            assert np.array_equal(t[:, :3], z)

    def test_conditional_cov_is_psd(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((50, 3))
        # strongly dependent novel block makes the plug-in covariance extreme
        b = np.column_stack([2.0 * z[:, 0], z[:, 1] - z[:, 2]])
        s = build_marginal_sampler(z, b, samples=2, seed=0)
        evals = np.linalg.eigvalsh(s.cond_cov)
        assert np.all(evals >= -1e-12)

    def test_sampler_mean_matches_regression(self):
        # with many samples the tables should center on Sigma_bz z
        rng = np.random.default_rng(3)
        z = rng.standard_normal((40, 2))
        b = 0.5 * z + 0.1 * rng.standard_normal((40, 2))
        s = build_marginal_sampler(z, b, samples=200, seed=0)
        stack = np.stack([t[:, 2:] for t in s.tables])
        mean = stack.mean(axis=0)
        assert np.allclose(mean, z @ s.sigma_bz.T, atol=0.15)

    def test_marginalized_weights_attach_tables(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 1))
        ranks = external_ranks(rng.standard_normal(8))
        base = pair_weights(ranks, "spearman")
        sampler = build_marginal_sampler(z, b, samples=3, seed=0)
        mw = marginalized_weights(base, sampler)
        assert mw.tables is not None and len(mw.tables) == 3
        assert np.array_equal(mw.w, base.w)

    def test_marginalized_value_averages_tables(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((9, 2))
        b = rng.standard_normal((9, 1))
        ranks = external_ranks(rng.standard_normal(9))
        base = pair_weights(ranks, "spearman")
        sampler = build_marginal_sampler(z, b, samples=4, seed=1)
        mw = marginalized_weights(base, sampler)
        beta = rng.standard_normal(3)
        direct = np.mean([
            np.sum(base.w * expit(((t @ beta)[:, None] - (t @ beta)[None, :]) / 0.3))
            for t in sampler.tables])
        assert engine_sums(mw, z, beta, 0.3)[0] == pytest.approx(direct)


class TestProblemWeights:
    def data(self, q, p=4, n=15):
        rng = np.random.default_rng(6)
        return standardize(rng.standard_normal((n, p)), q), \
            external_ranks(rng.standard_normal(n))

    @pytest.mark.parametrize("measure", ["spearman", "kendall"])
    def test_plain_spec_has_no_tables(self, measure):
        design, ranks = self.data(q=2)
        w = problem_weights(design, ranks, ConcordanceSpec(measure))
        assert w.tables is None
        assert np.array_equal(w.w, pair_weights(ranks, measure).w)

    def test_marginalized_spec_with_novel_block_takes_sampler_tables(self):
        design, ranks = self.data(q=2)
        spec = ConcordanceSpec("kendall", marginalized=True, samples=4, seed=7)
        w = problem_weights(design, ranks, spec)
        expected = build_marginal_sampler(design.z, design.b, 4, 7).tables
        assert len(w.tables) == len(expected) == 4
        assert all(np.array_equal(a, b) for a, b in zip(w.tables, expected))
        assert np.array_equal(w.w, pair_weights(ranks, "kendall").w)

    def test_marginalized_spec_without_novel_block_has_no_tables(self):
        design, ranks = self.data(q=4)
        w = problem_weights(design, ranks, ConcordanceSpec(marginalized=True, samples=4))
        assert w.tables is None


class TestAppendixIdentities:
    def test_spearman_permutation_identity(self):
        # sum of squared centered ranks of any permutation = (n^3 - n) / 12
        rng = np.random.default_rng(0)
        for n in range(2, 51):
            psi = rng.permutation(n) + 1.0
            lhs = np.sum((psi - psi.mean()) ** 2)
            assert lhs == (n ** 3 - n) / 12.0

    def test_kendall_rewrite_constant_shift(self):
        # tau = C + (2/(n(n-1))) sum_ij I(psi_i > psi_j) (I(r_i > r_j) - 1/2)
        # with C free of the permutation pair; enumerate all 24 x 24 at n = 4
        n = 4
        norm = 1.0 / (n * (n - 1))
        cs = set()
        for psi in itertools.permutations(range(1, n + 1)):
            for r in itertools.permutations(range(1, n + 1)):
                psi_a = np.array(psi)
                r_a = np.array(r)
                direct = norm * np.sum(
                    (psi_a[:, None] - psi_a[None, :]) * (r_a[:, None] - r_a[None, :]) > 0)
                rewrite = 2.0 * norm * np.sum(
                    (psi_a[:, None] > psi_a[None, :])
                    * ((r_a[:, None] > r_a[None, :]) - 0.5))
                cs.add(round(direct - rewrite, 12))
        assert len(cs) == 1
        assert cs.pop() == pytest.approx(0.5)

    def test_spec_validation_rejects_bad_values(self):
        with pytest.raises(InvalidValue):
            ConcordanceSpec(nu=-1.0)
        with pytest.raises(ValueError):
            ConcordanceSpec(measure="pearson")
        with pytest.raises(ValueError):
            ConcordanceSpec(nu=0.0)
        with pytest.raises(ValueError):
            ConcordanceSpec(samples=0)

    @pytest.mark.parametrize("bad", [
        {"seed": -1}, {"seed": 2.5}, {"seed": True}, {"samples": 2.5}, {"samples": True},
        {"nu": np.inf}, {"nu": -np.inf}, {"nu": np.nan}, {"nu": 1e-300}, {"nu": 10**400},
    ], ids=["negative-seed", "fractional-seed", "bool-seed", "fractional-samples",
            "bool-samples", "infinite-nu", "negative-infinite-nu", "nan-nu", "underflowing-nu",
            "int-beyond-float-nu"])
    def test_spec_rejects_bad_seed_samples_and_nu(self, bad):
        # A negative seed fails deep in numpy, a fractional count is taken as
        # a count, an infinite nu gives a constant D, so the penalty does
        # nothing, a nu whose square underflows to 0 gives a NaN Hessian, and
        # an int beyond the float range raised OverflowError: each is
        # refused, with the typed error, when the spec is built.
        with pytest.raises(InvalidValue, match=next(iter(bad))):
            ConcordanceSpec(**bad)
