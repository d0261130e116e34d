import itertools
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rasper.concordance import (
    ConcordanceSpec,
    _bound_curvature,
    _pair_sums,
    _sigma_table,
    build_marginal_sampler,
    concordance_gradient,
    concordance_value,
    exact_rank_params,
    marginalized_weights,
    pair_weights,
    problem_weights,
    smooth_rank_params,
)
from rasper.data_model import external_ranks, standardize
from rasper.errors import (
    DegenerateWeights,
    DimensionMismatch,
    InvalidValue,
    NonpositiveConcordance,
)
from rasper.solver import jj_coefficient


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
        assert pair_weights(ranks, "kendall").total == pytest.approx(1.0)

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
        d = concordance_value(x, np.zeros(3), 0.2, w)
        assert d == pytest.approx(ranks.r.sum() / (8.0 * 13), abs=1e-12)

    def test_kendall_zero_beta_is_half(self):
        rng = np.random.default_rng(1)
        ranks = external_ranks(rng.standard_normal(9))
        w = pair_weights(ranks, "kendall")
        x = rng.standard_normal((9, 2))
        assert concordance_value(x, np.zeros(2), 0.5, w) == pytest.approx(0.5)

    def test_kendall_bounded_by_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        ranks = external_ranks(rng.standard_normal(10))
        w = pair_weights(ranks, "kendall")
        for _ in range(20):
            beta = 3.0 * rng.standard_normal(2)
            assert 0.0 < concordance_value(x, beta, 0.1, w) <= 1.0

    def test_perfect_concordance_approaches_total_kendall(self):
        # beta reproducing the external order drives every concordant sigmoid
        # to 1 as nu -> 0
        x = np.arange(8.0)[:, None]
        ranks = external_ranks(np.arange(8.0))
        w = pair_weights(ranks, "kendall")
        d = concordance_value(x, np.array([5.0]), 1e-3, w)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_weights_rejected(self):
        # all-tied ranks leave no strictly ordered pair, so every Kendall
        # weight is zero
        w = pair_weights(external_ranks(np.ones(4)), "kendall")
        with pytest.raises(DegenerateWeights):
            concordance_value(np.ones((4, 2)), np.zeros(2), 0.1, w)


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
        grad = concordance_gradient(x, beta, nu, w)
        h = 1e-6
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd = (concordance_value(x, beta + e, nu, w)
                  - concordance_value(x, beta - e, nu, w)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_gradient_for_constant_direction(self):
        # identical rows make every pair difference vanish
        x = np.ones((6, 2))
        ranks = external_ranks(np.arange(6.0))
        w = pair_weights(ranks, "spearman")
        grad = concordance_gradient(x, np.array([1.0, -1.0]), 0.2, w)
        assert np.allclose(grad, 0.0, atol=1e-14)


class TestSigmaTable:
    def test_matches_expit(self):
        t = 15.0 * np.random.default_rng(5).standard_normal(60)
        s = _sigma_table(t)
        assert np.max(np.abs(s - expit(np.subtract.outer(t, t)))) <= 1e-15
        assert np.all(np.diag(s) == 0.5)

    def test_saturates_exactly_without_warning(self):
        t = np.array([-30.0, -21.0, -0.01, 0.0, 0.02, 21.0, 30.0]) / 1e-3
        u = np.subtract.outer(t, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sigma_table(t)
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
        w = pair_weights(external_ranks(rng.standard_normal(n)), measure).w
        tables = (x,)
        if case == "marginalized":
            tables = build_marginal_sampler(x[:, :2], x[:, 2:], 3, 0).tables
        beta = rng.standard_normal(3)
        d, grad, lin, quad, hess = _pair_sums(w, tables, beta, nu, gradient=True,
                                              mm=True, hessian=True)

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

    @pytest.mark.parametrize("u", [0.0, 1e-5, -1e-5, 1e-4, -1e-4, 0.3, -0.3, 20.0, -20.0])
    def test_curvature_matches_jj_coefficient(self, u):
        assert float(_bound_curvature(np.array(u), expit(u))) == \
            pytest.approx(jj_coefficient(u), rel=1e-12)

    def test_only_zero_weights_are_degenerate(self):
        x = np.arange(4.0)[:, None]
        with pytest.raises(DegenerateWeights):
            _pair_sums(np.zeros((4, 4)), (x,), np.ones(1), 0.1)
        with pytest.raises(NonpositiveConcordance):
            _pair_sums(np.triu(np.ones((4, 4)), 1), (x,), np.ones(1), 1e-4)


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
        assert concordance_value(z, beta, 0.3, mw) == pytest.approx(direct)


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
