import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasper.errors import EmptyData, InvalidValue
from rasper.survival import (
    DEFAULT_TAU,
    KMCurve,
    NomogramInput,
    SurvivalSample,
    km_curve,
    nomogram_score,
    pseudovalues,
    rmst,
)


def hand_sample(tau=4.0):
    # events at 1, 3, 4 with censorings at 2 and 5:
    # S = 4/5 after t=1, 8/15 after t=3, 4/15 after t=4
    return SurvivalSample(
        times=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        events=np.array([True, False, True, True, False]),
        tau=tau,
    )


class TestSample:
    def test_validation(self):
        with pytest.raises(EmptyData):
            SurvivalSample(np.array([]), np.array([]))
        with pytest.raises(EmptyData):
            SurvivalSample(np.array([1.0, 2.0]), np.array([True]))
        with pytest.raises(ValueError):
            SurvivalSample(np.array([0.0, 1.0]), np.array([True, True]))
        with pytest.raises(ValueError):
            SurvivalSample(np.array([1.0]), np.array([True]), tau=0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan, -np.inf])
    def test_non_finite_tau_rejected(self, tau):
        # an infinite horizon would make rmst NaN or inf
        with pytest.raises(InvalidValue, match="positive and finite"):
            SurvivalSample(np.array([1.0, 2.0]), np.array([True, False]), tau=tau)

    def test_default_tau(self):
        s = SurvivalSample(np.array([1.0]), np.array([True]))
        assert s.tau == DEFAULT_TAU == 36.0

    def test_drop(self):
        s = hand_sample()
        d = s.drop(1)
        assert d.n == 4
        assert np.array_equal(d.times, [1.0, 3.0, 4.0, 5.0])
        assert np.array_equal(d.events, [True, True, True, False])
        assert d.tau == s.tau


class TestKMCurve:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=40),
           st.sampled_from([1.0, 0.5, 0.1]))
    def test_matches_event_time_loop(self, rows, unit):
        # Small integer times give ties among events and with censorings.
        t = np.array([unit * time for time, _ in rows])
        e = np.array([event for _, event in rows])
        event_times = np.unique(t[e])
        surv = np.empty(event_times.shape[0])
        s = 1.0
        for k, tk in enumerate(event_times):
            at_risk = int(np.sum(t >= tk))
            deaths = int(np.sum(e & (t == tk)))
            s *= 1.0 - deaths / at_risk
            surv[k] = s
        curve = km_curve(SurvivalSample(t, e))
        assert np.array_equal(curve.jump_times, event_times)
        assert np.array_equal(curve.surv, surv)

    def test_hand_curve(self):
        curve = km_curve(hand_sample())
        assert np.array_equal(curve.jump_times, [1.0, 3.0, 4.0])
        assert np.allclose(curve.surv, [0.8, 8 / 15, 4 / 15])

    def test_right_continuous_evaluation(self):
        curve = km_curve(hand_sample())
        assert curve(0.5) == 1.0
        assert curve(1.0) == pytest.approx(0.8)
        assert curve(2.9) == pytest.approx(0.8)
        assert curve(3.0) == pytest.approx(8 / 15)
        assert np.allclose(curve(np.array([0.0, 1.0, 10.0])),
                           [1.0, 0.8, 4 / 15])

    def test_ties_events_first(self):
        # a censoring tied with an event stays in the risk set for that jump
        s = SurvivalSample(np.array([2.0, 2.0, 3.0]),
                           np.array([True, False, False]), tau=5.0)
        curve = km_curve(s)
        assert np.allclose(curve.surv, [2 / 3])

    def test_no_events(self):
        s = SurvivalSample(np.array([1.0, 2.0]), np.array([False, False]))
        curve = km_curve(s)
        assert curve.jump_times.size == 0
        assert curve(100.0) == 1.0


class TestRMST:
    def test_hand_area(self):
        # 1*1 + 2*0.8 + 1*(8/15) with tau = 4
        assert rmst(hand_sample(tau=4.0)) == pytest.approx(1 + 1.6 + 8 / 15)

    def test_tau_beyond_last_jump(self):
        assert rmst(hand_sample(tau=5.0)) == pytest.approx(
            1 + 1.6 + 8 / 15 + 4 / 15)

    def test_tau_truncates_before_first_event(self):
        assert rmst(hand_sample(tau=0.5)) == pytest.approx(0.5)

    def test_uncensored_equals_mean_truncated_time(self):
        rng = np.random.default_rng(0)
        t = rng.exponential(10.0, size=40)
        s = SurvivalSample(t, np.ones(40, dtype=bool), tau=12.0)
        assert rmst(s) == pytest.approx(np.minimum(t, 12.0).mean(), abs=1e-12)


class TestPseudovalues:
    def test_uncensored_identity(self):
        # jackknife pseudovalues reduce to min(T_i, tau) without censoring
        rng = np.random.default_rng(1)
        t = rng.exponential(20.0, size=25)
        s = SurvivalSample(t, np.ones(25, dtype=bool), tau=30.0)
        assert np.allclose(pseudovalues(s), np.minimum(t, 30.0), atol=1e-10)

    def test_matches_jackknife_definition(self):
        s = hand_sample(tau=4.0)
        full = rmst(s)
        expected = [s.n * full - (s.n - 1) * rmst(s.drop(i))
                    for i in range(s.n)]
        assert np.allclose(pseudovalues(s), expected)

    def test_mean_preserved_when_uncensored(self):
        rng = np.random.default_rng(2)
        t = rng.exponential(5.0, size=15)
        s = SurvivalSample(t, np.ones(15, dtype=bool), tau=8.0)
        assert pseudovalues(s).mean() == pytest.approx(rmst(s), abs=1e-10)

    def test_needs_two_observations(self):
        s = SurvivalSample(np.array([1.0]), np.array([True]))
        with pytest.raises(EmptyData):
            pseudovalues(s)


class TestNomogram:
    def test_best_case_scores_zero(self):
        inp = NomogramInput(psa=10.0, visceral_mets=False, ecog_ge2=False,
                            days_to_progression_prior_chemo=400.0)
        assert nomogram_score(inp) == 0.0

    def test_worst_case(self):
        inp = NomogramInput(psa=100.0, visceral_mets=True, ecog_ge2=True,
                            days_to_progression_prior_chemo=0.0)
        assert nomogram_score(inp) == pytest.approx(2.78)

    def test_psa_threshold_only(self):
        inp = NomogramInput(psa=31.0, visceral_mets=False, ecog_ge2=False,
                            days_to_progression_prior_chemo=360.0)
        assert nomogram_score(inp) == pytest.approx(0.74)
        at_threshold = NomogramInput(psa=30.0, visceral_mets=False,
                                     ecog_ge2=False,
                                     days_to_progression_prior_chemo=360.0)
        assert nomogram_score(at_threshold) == 0.0

    def test_progression_term_linear_then_capped(self):
        def score(days):
            return nomogram_score(NomogramInput(
                psa=0.0, visceral_mets=False, ecog_ge2=False,
                days_to_progression_prior_chemo=days))
        assert score(90.0) == pytest.approx(0.45 * 1.5)
        assert score(180.0) == pytest.approx(0.45)
        assert score(360.0) == score(1000.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NomogramInput(psa=-1.0, visceral_mets=False, ecog_ge2=False,
                          days_to_progression_prior_chemo=0.0)
        with pytest.raises(ValueError):
            NomogramInput(psa=1.0, visceral_mets=False, ecog_ge2=False,
                          days_to_progression_prior_chemo=-5.0)
