import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, strategies as st

from rasper import baselines
from rasper.concordance import ConcordanceSpec
from rasper.data_model import external_ranks, standardize
from rasper.errors import InvalidBounds, InvalidValue, ParseError, SchemaMismatch, SingularDesign
from rasper.selection import select
from rasper.simbench import (
    ALL_METHODS,
    RASPER_METHODS,
    BenchReport,
    SimSetting,
    _f1,
    _f2,
    _loo_mse,
    generate,
    run_benchmark,
    spearman_rc,
)
from rasper.solver import default_nu

from conftest import paired_values


class TestSpearmanRC:
    def test_perfect_orders(self):
        a = np.array([0.3, -1.0, 2.0, 0.7])
        assert spearman_rc(a, 10 * a + 3) == pytest.approx(1.0)
        assert spearman_rc(a, -a) == pytest.approx(-1.0)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        assert spearman_rc(np.exp(a), b) == pytest.approx(spearman_rc(a, b))

    def test_hand_value(self):
        # ranks (1,2,3) vs (2,1,3): rho = 1 - 6 * 2 / (3 * 8) = 0.5
        assert spearman_rc(np.array([1.0, 2.0, 3.0]),
                           np.array([2.0, 1.0, 3.0])) == pytest.approx(0.5)

    @pytest.mark.parametrize("tied", [True, False])
    @given(data=st.data())
    def test_matches_scipy_spearmanr(self, tied, data):
        a, b = data.draw(paired_values(tied))
        assume(np.ptp(a) > 0 and np.ptp(b) > 0)
        assert spearman_rc(a, b) == pytest.approx(
            scipy.stats.spearmanr(a, b).statistic, abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            spearman_rc(np.ones(5), np.arange(5.0))
        with pytest.raises(ValueError):
            spearman_rc(np.arange(3.0), np.arange(4.0))


class TestLinkFunctions:
    def test_f1_symmetric_about_half(self):
        # f1(u) = sigmoid(u) - sigmoid(u - 1) is symmetric around u = 1/2
        u = np.linspace(-4.0, 5.0, 41)
        assert np.allclose(_f1(u), _f1(1.0 - u), atol=1e-12)

    def test_f1_peak_value(self):
        s = 1.0 / (1.0 + np.exp(-0.5))
        assert _f1(0.5) == pytest.approx(2.0 * s - 1.0)

    def test_f2_quadratic_branch_and_cap(self):
        assert _f2(2.0) == 0.0
        assert _f2(4.0) == pytest.approx(2.0)
        assert _f2(6.999999) == pytest.approx(12.5, rel=1e-5)
        assert _f2(7.0) == 12.5
        assert _f2(100.0) == 12.5


def _refit_loo_mse(x, y, fitter):
    """Leave-one-out mean squared error by n refits."""
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        keep = np.delete(np.arange(n), i)
        beta0, beta = fitter(x[keep], y[keep])
        total += (y[i] - beta0 - x[i] @ beta) ** 2
    return total / n


class TestClosedFormLOO:
    @staticmethod
    def _data(n=50, p=6):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((n, p))
        y = 0.5 + x @ rng.standard_normal(p) + rng.standard_normal(n)
        return x, y, rng.standard_normal(p)

    @pytest.mark.parametrize("alpha", [0.0, 0.005, 0.5, 50.0, 5000.0])
    def test_matches_refits(self, alpha):
        x, y, beta_e = self._data()
        cases = [(_loo_mse(x, y, alpha),
                  lambda xs, ys: baselines.fit_ridge(xs, ys, alpha)),
                 (_loo_mse(x, y, alpha, alpha, beta_e),
                  lambda xs, ys: baselines.fit_dtl(xs, ys, alpha, beta_e))]
        cases += [(_loo_mse(x, y, alpha, lam, beta_e),
                   lambda xs, ys, lam=lam: baselines.fit_atl(xs, ys, alpha, lam, beta_e))
                  for lam in (0.0, 0.5, 500.0, 5e4)]
        for closed, fitter in cases:
            assert closed == pytest.approx(_refit_loo_mse(x, y, fitter), rel=1e-12)

    def test_leverage_one_row_is_singular(self):
        # Column 5 is nonzero on row 3 only, so the fit without row 3 is
        # singular at alpha = 0, as the refit finds too.
        x, y, _ = self._data()
        x[:, 5] = 0.0
        x[3, 5] = 1.0
        with pytest.raises(SingularDesign):
            _loo_mse(x, y, 0.0)
        with pytest.raises(SingularDesign):
            _refit_loo_mse(x, y, lambda xs, ys: baselines.fit_ridge(xs, ys, 0.0))
        assert _loo_mse(x, y, 0.5) == pytest.approx(
            _refit_loo_mse(x, y, lambda xs, ys: baselines.fit_ridge(xs, ys, 0.5)), rel=1e-12)


class TestSimSetting:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimSetting(study="3")
        with pytest.raises(ValueError):
            SimSetting(study="1a", beta_external=(1.0,), sigma=0.0)
        with pytest.raises(ValueError):
            SimSetting(study="1a", beta_external=(1.0,), methods=("lasso",))
        with pytest.raises(ValueError):
            SimSetting(study="1b", beta_external=(1.0,) * 5,
                       beta_internal=(1.0,) * 7, n_internal=8)

    def test_validation_errors_are_typed(self):
        with pytest.raises(InvalidValue):
            SimSetting(study="3")
        # checked here, not left to fail every replication inside the run
        with pytest.raises(InvalidValue):
            SimSetting(study="1a", beta_external=(1.0,), samples=0)
        with pytest.raises(InvalidValue):
            SimSetting(study="1a", beta_external=(1.0,), nu=-1.0)

    @pytest.mark.parametrize("bad", [{"lam_scale": (5.0, 1.0)}, {"alpha_scale": (0.0, 1.0)},
                                     {"grid_j": 0}, {"grid_k": 0}])
    def test_bad_grid_rejected_when_built(self, bad):
        with pytest.raises(InvalidBounds):
            SimSetting(study="1a", beta_external=(1.0,), **bad)

    @pytest.mark.parametrize("bad", [
        dict(study="1b", beta_external=(1.0,) * 4, beta_internal=(1.0,) * 5),
        dict(study="1b", beta_external=(1.0,) * 3, beta_internal=(1.0,) * 5),
        dict(study="2", beta_internal=(1.0,) * 7),
        dict(study="2", beta_internal=(1.0,) * 6, theta=(0.1, 0.1, 0.1)),
    ], ids=["1b-beta-internal-length", "1b-short-beta-external", "2-beta-internal-7",
            "2-theta-3"])
    def test_malformed_study_coefficients_rejected(self, bad):
        with pytest.raises(InvalidValue):
            SimSetting(n_internal=20, **bad)

    @pytest.mark.parametrize("text,error", [
        ('{"study": "1a", "beta_external": [1.0', ParseError),
        ('{"study": "1a", "color": "red"}', SchemaMismatch),
        ('["study"]', SchemaMismatch),
    ])
    def test_malformed_json_rejected(self, tmp_path, text, error):
        path = tmp_path / "setting.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error):
            SimSetting.from_json(str(path))

    def test_from_json_round_trip(self, tmp_path):
        setting = SimSetting(study="1b", beta_external=(1.0, 0.5, 0.2, 0.1),
                             beta_internal=(1.0, 0.5, 0.2, 0.1, 0.3, 0.3),
                             n_internal=20, replications=3,
                             methods=("ridge",))
        path = tmp_path / "setting.json"
        path.write_text(json.dumps(setting.to_dict()), encoding="utf-8")
        assert SimSetting.from_json(str(path)) == setting


class TestGenerators:
    def setting_1b(self, **kw):
        base = dict(study="1b", beta_external=(1.0, 0.8, 0.6, 0.4, 0.2),
                    beta_internal=(1.0, 0.8, 0.6, 0.4, 0.2, 0.5, 0.5),
                    n_internal=30, n_test=40)
        base.update(kw)
        return SimSetting(**base)

    def test_deterministic(self):
        s = self.setting_1b()
        a = generate(s, np.random.default_rng([3, 7]))
        b = generate(s, np.random.default_rng([3, 7]))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.scores_test, b.scores_test)

    def test_study1a_shapes_and_scores(self):
        s = SimSetting(study="1a", beta_external=(1.0, 0.5, 0.2),
                       beta_internal=(0.9, 0.4, 0.3),
                       n_internal=25, n_test=30)
        data = generate(s, np.random.default_rng(0))
        assert data.x.shape == (25, 3) and data.q == 3
        assert np.allclose(data.scores, data.x @ np.array(s.beta_external))
        assert np.allclose(data.mu_internal, data.x @ np.array(s.beta_internal))

    def test_study1b_structure(self):
        s = self.setting_1b()
        data = generate(s, np.random.default_rng(1))
        assert data.x.shape == (30, 7) and data.q == 5
        # score depends only on the conventional block
        assert np.allclose(data.scores, data.x[:, :5] @ np.array(s.beta_external))

    def test_study2_z5_modes_differ_only_in_scores(self):
        kw = dict(study="2", beta_internal=(1.0,) * 6,
                  theta=(0.1, 0.1, 0.2, 0.3), n_internal=20, n_test=25)
        extra = generate(SimSetting(study2_z5_mode="extra", **kw),
                         np.random.default_rng(5))
        reuse = generate(SimSetting(study2_z5_mode="reuse_z4", **kw),
                         np.random.default_rng(5))
        assert np.array_equal(extra.x, reuse.x)
        assert np.array_equal(extra.y, reuse.y)
        assert not np.allclose(extra.scores, reuse.scores)

    def test_study2_theta_zero_score_constant_in_z2(self):
        kw = dict(study="2", beta_internal=(1.0,) * 6,
                  theta=(0.0, 0.0, 0.0, 0.0), n_internal=20, n_test=25)
        data = generate(SimSetting(**kw), np.random.default_rng(6))
        # with all theta zero the exponent collapses and mu_e = 1 + f1(z1)
        assert np.all(data.scores > 0)
        assert np.all(np.abs(data.scores - 1.0) < 1.0)


class TestBenchmark:
    def small_setting(self, **kw):
        base = dict(study="1a", beta_external=(1.0, 0.5),
                    beta_internal=(0.8, 0.6), n_internal=15, n_test=50,
                    replications=3, sigma=0.5, methods=("ridge",),
                    grid_j=1, grid_k=1)
        base.update(kw)
        return SimSetting(**base)

    def test_ols_relative_mse_is_one(self):
        rep = run_benchmark(self.small_setting())
        assert rep.rel_mse_mean["ols"] == pytest.approx(1.0)
        assert rep.rel_mse_se["ols"] == pytest.approx(0.0)

    def test_thread_count_does_not_change_results(self):
        s = self.small_setting(methods=("ridge", "rasper_spearman"),
                               replications=2)
        one = run_benchmark(s, threads=1)
        two = run_benchmark(s, threads=2)
        assert one.rel_mse_mean == two.rel_mse_mean
        assert one.mse_mean == two.mse_mean
        assert one.rc_mean == two.rc_mean

    def test_report_serialization(self):
        rep = run_benchmark(self.small_setting())
        payload = json.loads(rep.to_json())
        assert payload["replications_used"] == 3
        assert payload["failures"] == 0
        methods = [row["method"] for row in payload["results"]]
        assert methods == list(rep.methods)
        assert set(rep.methods) == {"ols", "ridge"}

    def test_method_order_follows_canonical_list(self):
        s = self.small_setting(methods=("stacking", "ridge"))
        rep = run_benchmark(s)
        order = [ALL_METHODS.index(m) for m in rep.methods]
        assert order == sorted(order)


class TestGolden:
    """Behaviour oracle: two study-1b replications at n = 50 with fixed seeds.
    Each RASPER method's chosen (lambda, alpha) is pinned exactly and its
    relative test MSE (over OLS) to 1e-9 relative, so a change to the solver,
    the pair-sum engine or the selection shows here. The values were recorded
    before the package's solves and ranks moved from scipy to numpy."""

    # (criterion, J, K) -> per replication: method -> (lambda, alpha, rel MSE)
    GOLDEN = {
        ("aic", 4, 2): [
            {"rasper_spearman": (158.11388300841898, 0.0, 1.0828250081231838),
             "rasper_kendall": (8.891397050194614, 0.0, 1.0156412023519903),
             "rasper_marginal": (158.11388300841898, 0.0, 1.070738064472776)},
            {"rasper_spearman": (158.11388300841898, 0.0, 0.8423282421449386),
             "rasper_kendall": (8.891397050194614, 0.0, 0.9619896293985598),
             "rasper_marginal": (158.11388300841898, 0.0, 0.8184540971986893)},
        ],
        ("loocv", 1, 1): [
            {"rasper_spearman": (0.5, 0.005, 0.9992958117187546),
             "rasper_kendall": (0.5, 0.005, 0.9999192859116346),
             "rasper_marginal": (0.5, 0.005, 0.9992664529404293)},
            {"rasper_spearman": (0.5, 0.005, 0.9987490759042759),
             "rasper_kendall": (0.5, 0.005, 0.99714548711316),
             "rasper_marginal": (0.5, 0.005, 0.9985989805829903)},
        ],
    }
    RC_MEAN = 0.8971908763505403

    @staticmethod
    def setting(criterion, j, k):
        return SimSetting(study="1b", beta_external=(1.0, 0.8, 0.6, 0.4),
                          beta_internal=(1.0, 0.8, 0.6, 0.4, 0.5, 0.5),
                          n_internal=50, n_test=200, replications=2, seed=20260310,
                          methods=RASPER_METHODS, criterion=criterion, samples=5,
                          grid_j=j, grid_k=k)

    @staticmethod
    def picks(setting, rep):
        """Each method's chosen (lambda, alpha) and relative MSE, computed
        the way ``_run_replication`` computes them."""
        data = generate(setting, np.random.default_rng([setting.seed, rep]))
        design = standardize(data.x, data.q)
        ranks = external_ranks(data.scores)
        nu = default_nu(design, data.y)
        xt = (data.x_test - design.mean) / design.scale

        def mse(beta0, beta):
            pred = beta0 + xt @ beta
            return float(np.mean((data.mu_test - pred) ** 2))

        ols = mse(*baselines.fit_ols(design, data.y))
        out = {}
        for method in RASPER_METHODS:
            spec = ConcordanceSpec(
                measure="kendall" if method == "rasper_kendall" else "spearman",
                marginalized=method == "rasper_marginal", nu=nu,
                samples=setting.samples, seed=rep)
            chosen = select(design, data.y, ranks, spec, setting.grid(),
                            criterion=setting.criterion).chosen
            out[method] = (chosen.lam, chosen.alpha,
                           mse(chosen.fit.beta0, chosen.fit.beta) / ols)
        return out

    @pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
    def test_chosen_points_and_relative_mse(self, key):
        setting = self.setting(*key)
        for rep, golden in enumerate(self.GOLDEN[key]):
            got = self.picks(setting, rep)
            for method, (lam, alpha, rel) in golden.items():
                assert got[method][:2] == (lam, alpha), (rep, method)
                assert got[method][2] == pytest.approx(rel, rel=1e-9), (rep, method)

    def test_benchmark_report(self):
        report = run_benchmark(self.setting("aic", 4, 2))
        assert report.rc_mean == pytest.approx(self.RC_MEAN, rel=1e-12)
        for method in RASPER_METHODS:
            golden = [reps[method][2] for reps in self.GOLDEN[("aic", 4, 2)]]
            assert report.rel_mse_reps[method] == pytest.approx(golden, rel=1e-9)
