import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, strategies as st

from rasper.data_model import (
    RawDataset,
    external_ranks,
    kendall_tau_b,
    load_dataset,
    load_schema,
    midranks,
    standardize,
)
from rasper.errors import (
    ConstantColumn,
    EmptyData,
    MissingValue,
    NonFiniteScore,
    NonFiniteValue,
    ParseError,
    SchemaMismatch,
)

from conftest import paired_values


class TestExternalRanks:
    def test_distinct_scores_give_permutation(self):
        r = external_ranks([10.0, 5.0, 7.0])
        assert list(r.r) == [3, 1, 2]

    def test_tie_group_shares_max_rank(self):
        # >=-count: both 2.0 entries dominate {2.0, 2.0, 1.0} -> rank 3
        r = external_ranks([2.0, 2.0, 1.0])
        assert list(r.r) == [3, 3, 1]

    def test_single_observation(self):
        r = external_ranks([4.2])
        assert list(r.r) == [1]

    def test_sorted_scores(self):
        n = 17
        r = external_ranks(np.arange(n, dtype=float))
        assert list(r.r) == list(range(1, n + 1))

    def test_ranks_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(40)
        assert list(external_ranks(s).r) == list(external_ranks(np.exp(s)).r)

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(NonFiniteScore):
            external_ranks([1.0, np.nan])
        with pytest.raises(NonFiniteScore):
            external_ranks([1.0, np.inf])

    def test_empty_rejected(self):
        with pytest.raises(EmptyData):
            external_ranks([])

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
    def test_matches_pairwise_ge_count_with_ties(self, values):
        s = np.array(values, dtype=float)
        ranks = external_ranks(s)
        assert np.array_equal(ranks.r, (s[:, None] >= s[None, :]).sum(axis=1))
        assert np.array_equal(external_ranks(2.0 * s + 1.0).r, ranks.r)


class TestRankHelpers:
    @pytest.mark.parametrize("tied", [True, False])
    @given(data=st.data())
    def test_midranks_are_rankdata_average(self, tied, data):
        a, _ = data.draw(paired_values(tied))
        assert np.array_equal(midranks(a), scipy.stats.rankdata(a))

    @pytest.mark.parametrize("tied", [True, False])
    @given(data=st.data())
    def test_tau_b_matches_scipy(self, tied, data):
        a, b = data.draw(paired_values(tied))
        assume(np.ptp(a) > 0 and np.ptp(b) > 0)
        assert kendall_tau_b(a, b) == pytest.approx(
            scipy.stats.kendalltau(a, b).statistic, abs=1e-12)

    def test_tau_b_hand_values(self):
        # pairs (0,1) concordant, (1,2) discordant, (0,2) tied in b
        assert kendall_tau_b([1.0, 2.0, 3.0], [5.0, 7.0, 5.0]) == pytest.approx(0.0)
        # (0,1), (0,2) concordant and (1,2) tied in b: 2 / sqrt(3 * 2)
        assert kendall_tau_b([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == \
            pytest.approx(2.0 / np.sqrt(6.0))
        assert kendall_tau_b([3.0, 1.0, 2.0], [30.0, 10.0, 20.0]) == 1.0

    def test_tau_b_constant_input_is_nan(self):
        assert np.isnan(kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


class TestStandardize:
    def test_columns_centered_and_scaled(self):
        rng = np.random.default_rng(0)
        z = 3.0 + 2.0 * rng.standard_normal((25, 4))
        d = standardize(z)
        n = d.n
        assert np.allclose(d.x.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose((d.x ** 2).sum(axis=0), n - 1, atol=1e-9)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(1)
        d = standardize(rng.standard_normal((30, 3)))
        d2 = standardize(d.x)
        assert np.allclose(d2.x, d.x, atol=1e-12)
        assert np.allclose(d2.scale, 1.0, atol=1e-12)

    def test_destandardize_preserves_predictions(self):
        rng = np.random.default_rng(2)
        z = 5.0 * rng.standard_normal((20, 3)) + 1.0
        d = standardize(z)
        beta = np.array([0.5, -1.0, 2.0])
        beta0 = 0.7
        b0o, bo = d.destandardize(beta0, beta)
        assert np.allclose(beta0 + d.x @ beta, b0o + z @ bo, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entries_rejected(self, bad):
        x = np.random.default_rng(0).standard_normal((5, 2))
        x[3, 1] = bad
        with pytest.raises(NonFiniteValue):
            standardize(x)

    def test_constant_column_rejected(self):
        z = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(ConstantColumn):
            standardize(z)

    def test_subset_shares_scaling(self):
        rng = np.random.default_rng(4)
        d = standardize(rng.standard_normal((10, 2)))
        sub = d.subset(np.arange(1, 10))
        assert np.array_equal(sub.x, d.x[1:])
        assert np.array_equal(sub.mean, d.mean)
        assert np.array_equal(sub.scale, d.scale)

    def test_too_few_rows(self):
        with pytest.raises(EmptyData):
            standardize(np.ones((1, 2)))

    def test_blocks_split_at_q(self):
        rng = np.random.default_rng(5)
        d = standardize(rng.standard_normal((12, 5)), q=3)
        assert d.z.shape == (12, 3)
        assert d.b.shape == (12, 2)


class TestRawDataset:
    def test_design_stacks_blocks(self):
        y = np.arange(3.0) + 1
        z = np.arange(6.0).reshape(3, 2)
        b = np.arange(3.0).reshape(3, 1)
        raw = RawDataset(y=y, z=z, b=b)
        assert raw.p == 3 and raw.q == 2
        assert np.array_equal(raw.x, np.hstack([z, b]))

    def test_row_mismatch_rejected(self):
        with pytest.raises(EmptyData):
            RawDataset(y=np.ones(3), z=np.ones((3, 1)), b=np.ones((2, 1)))


class TestLoading:
    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def schema(self, tmp_path, **overrides):
        schema = {"outcome": "y", "conventional": ["z1", "z2"],
                  "novel": ["b1"], "score": "s"}
        schema.update(overrides)
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema), encoding="utf-8")
        return str(path)

    CSV = "y,z1,z2,b1,s\n1.0,0.1,0.2,0.3,5\n2.0,0.4,0.5,0.6,3\n3.0,0.7,0.8,0.9,4\n"

    def test_round_trip(self, tmp_path):
        schema = load_schema(self.schema(tmp_path))
        raw = load_dataset(self.write(tmp_path, self.CSV), schema)
        assert raw.n == 3 and raw.q == 2 and raw.p == 3
        assert np.allclose(raw.y, [1.0, 2.0, 3.0])
        assert np.allclose(raw.scores, [5.0, 3.0, 4.0])

    def test_missing_value_rejected(self, tmp_path):
        bad = self.CSV.replace("0.5", "NA")
        schema = load_schema(self.schema(tmp_path))
        with pytest.raises(MissingValue):
            load_dataset(self.write(tmp_path, bad), schema)

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    @pytest.mark.parametrize("column_value", ["1.0", "0.5", "5"])  # y, z2, s
    def test_nonfinite_cell_rejected(self, tmp_path, cell, column_value):
        bad = self.CSV.replace(column_value, cell, 1)
        schema = load_schema(self.schema(tmp_path))
        with pytest.raises(NonFiniteValue):
            load_dataset(self.write(tmp_path, bad), schema)

    def test_unparseable_cell_rejected(self, tmp_path):
        bad = self.CSV.replace("0.5", "abc")
        schema = load_schema(self.schema(tmp_path))
        with pytest.raises(ParseError):
            load_dataset(self.write(tmp_path, bad), schema)

    def test_header_names_stripped(self, tmp_path):
        schema = load_schema(self.schema(tmp_path))
        spaced = self.CSV.replace("y,z1,z2", " y , z1,z2 ", 1)
        raw = load_dataset(self.write(tmp_path, spaced), schema)
        assert np.allclose(raw.z[:, 0], [0.1, 0.4, 0.7])

    @pytest.mark.parametrize("text", ["", CSV + "4.0,1.0\n", CSV + "4.0,1,1,1,1,1\n"],
                             ids=["empty", "short-row", "long-row"])
    def test_malformed_csv_rejected(self, tmp_path, text):
        schema = load_schema(self.schema(tmp_path))
        with pytest.raises(ParseError):
            load_dataset(self.write(tmp_path, text), schema)

    def test_unreadable_file_is_parse_error(self, tmp_path):
        schema = load_schema(self.schema(tmp_path))
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path / "absent.csv"), schema)

    def test_missing_column_rejected(self, tmp_path):
        schema = load_schema(self.schema(tmp_path, score="nope"))
        with pytest.raises(SchemaMismatch):
            load_dataset(self.write(tmp_path, self.CSV), schema)

    @pytest.mark.parametrize("text,error", [
        ('{"outcome": "y", "conventional": ["z1"', ParseError),
        ('["y"]', SchemaMismatch),
    ])
    def test_malformed_schema_json_rejected(self, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error):
            load_schema(str(path))

    def test_schema_requires_outcome(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"conventional": ["z1"]}), encoding="utf-8")
        with pytest.raises(SchemaMismatch):
            load_schema(str(path))
