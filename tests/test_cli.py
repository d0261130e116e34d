import csv
import json
import filecmp

import numpy as np
import pytest

from rasper import concordance
from rasper.cli import main
from rasper.selection import default_grid


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    n = 20
    z = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 1))
    y = z @ [1.0, 0.5] + 0.8 * b[:, 0] + 0.3 * rng.standard_normal(n)
    score = z @ [1.0, 0.5] + 0.2 * rng.standard_normal(n)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "z1", "z2", "b1", "s"])
        for i in range(n):
            writer.writerow([y[i], z[i, 0], z[i, 1], b[i, 0], score[i]])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "outcome": "y",
        "conventional": ["z1", "z2"],
        "novel": ["b1"],
        "score": "s",
    }), encoding="utf-8")
    return str(data), str(schema)


def run(argv):
    return main(argv)


def with_cell(data, tmp_path, column, value):
    """Copy of the dataset CSV with one cell of ``column`` replaced."""
    with open(data, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][rows[0].index(column)] = value
    path = tmp_path / f"bad-{column}.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


@pytest.mark.parametrize("command", ["fit", "select"])
@pytest.mark.parametrize("column", ["z2", "y"])
def test_nonfinite_cell_exit_1(dataset, tmp_path, capsys, command, column):
    data, schema = dataset
    bad = with_cell(data, tmp_path, column, "nan")
    assert run([command, "--data", bad, "--schema", schema,
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(column) in err


class TestFit:
    def test_outputs_and_determinism(self, dataset, tmp_path):
        data, schema = dataset
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        base = ["fit", "--data", data, "--schema", schema,
                "--lambda", "5.0", "--alpha", "1.0"]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        for name in ("fit.json", "rankings.csv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False)
        payload = json.loads((out1 / "fit.json").read_text())
        assert payload["lambda"] == 5.0 and payload["alpha"] == 1.0
        assert payload["converged"] and payload["grad_norm"] <= 1e-8
        assert payload["iterations"] + 1 <= payload["evaluations"] \
            <= 2 * payload["iterations"] + 1
        assert len(payload["beta_standardized"]) == 3
        assert payload["objective_last"] <= payload["objective_first"] + 1e-10
        config = json.loads((out1 / "config.json").read_text())
        assert config["lam"] == 5.0 and config["seed"] == 0

    def test_rankings_columns(self, dataset, tmp_path):
        data, schema = dataset
        out = tmp_path / "out"
        assert run(["fit", "--data", data, "--schema", schema,
                    "--out", str(out)]) == 0
        with open(out / "rankings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert set(rows[0]) == {"row", "fitted", "internal_rank",
                                "external_rank"}
        ext = sorted(int(r["external_rank"]) for r in rows)
        assert ext == list(range(1, 21))

    def test_missing_data_file_exit_2(self, dataset, tmp_path):
        _, schema = dataset
        assert run(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--schema", schema, "--out", str(tmp_path / "o")]) == 2

    def test_schema_without_score_exit_1(self, dataset, tmp_path):
        data, _ = dataset
        schema = tmp_path / "noscore.json"
        schema.write_text(json.dumps({"outcome": "y",
                                      "conventional": ["z1", "z2"],
                                      "novel": ["b1"]}), encoding="utf-8")
        assert run(["fit", "--data", data, "--schema", str(schema),
                    "--out", str(tmp_path / "o")]) == 1


class TestSelect:
    def test_report_and_chosen_fit(self, dataset, tmp_path):
        data, schema = dataset
        out = tmp_path / "sel"
        argv = ["select", "--data", data, "--schema", schema,
                "--lambda-min", "0.5", "--lambda-max", "50", "--grid-j", "2",
                "--alpha-min", "0.1", "--alpha-max", "10", "--grid-k", "1",
                "--trace-lambda", "--out", str(out)]
        assert run(argv) == 0
        with open(out / "selection_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 3  # (J+2) * (K+2) grid points
        assert all(float(r["grad_norm"]) <= 1e-8 for r in rows)
        assert all(int(r["iterations"]) + 1 <= int(r["evaluations"])
                   <= 2 * int(r["iterations"]) + 1 for r in rows)
        chosen = [r for r in rows if r["chosen"] == "True"]
        assert len(chosen) == 1
        best = min(float(r["loo"]) for r in rows)
        assert float(chosen[0]["loo"]) == pytest.approx(best)
        payload = json.loads((out / "fit.json").read_text())
        assert payload["lambda"] == float(chosen[0]["lambda"])
        with open(out / "lambda_trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        assert len(trace) == 4
        assert all(-1.0 <= float(r["kendall_tau"]) <= 1.0 for r in trace)

    def test_grid_sizes_without_bounds(self, dataset, tmp_path):
        # J and K apply to the default-ratio grid when no bound is given.
        data, schema = dataset
        out = tmp_path / "sel"
        assert run(["select", "--data", data, "--schema", schema, "--criterion", "aic",
                    "--grid-j", "1", "--grid-k", "1", "--out", str(out)]) == 0
        with open(out / "selection_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        grid = default_grid(20, 1, 1)
        assert len(rows) == 9
        assert sorted({float(r["lambda"]) for r in rows}) == list(grid.lam_values)
        assert sorted({float(r["alpha"]) for r in rows}) == list(grid.alpha_values)

    def test_rerun_byte_identical(self, dataset, tmp_path):
        data, schema = dataset
        argv = lambda out: ["select", "--data", data, "--schema", schema,
                            "--lambda-min", "0.5", "--lambda-max", "50",
                            "--grid-j", "1", "--alpha-min", "0.1",
                            "--alpha-max", "10", "--grid-k", "1",
                            "--out", out]
        assert run(argv(str(tmp_path / "a"))) == 0
        assert run(argv(str(tmp_path / "b"))) == 0
        assert filecmp.cmp(tmp_path / "a" / "selection_report.csv",
                           tmp_path / "b" / "selection_report.csv",
                           shallow=False)

    def test_full_data_weights_built_once(self, dataset, tmp_path, monkeypatch):
        # AIC needs no folds, so the only sampler is the full-data one.
        calls = []
        original = concordance.build_marginal_sampler

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(concordance, "build_marginal_sampler", counted)
        data, schema = dataset
        assert run(["select", "--data", data, "--schema", schema, "--criterion", "aic",
                    "--marginalized", "--samples", "3", "--lambda-min", "0.5",
                    "--lambda-max", "50", "--grid-j", "1", "--alpha-min", "0.1",
                    "--alpha-max", "10", "--grid-k", "1", "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


class TestPseudo:
    def test_uncensored_column_is_truncated_time(self, tmp_path):
        data = tmp_path / "surv.csv"
        times = [3.0, 10.0, 41.0, 7.5]
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "event"])
            for t in times:
                writer.writerow([t, 1])
        out = tmp_path / "ps"
        assert run(["pseudo", "--data", str(data), "--tau", "36",
                    "--out", str(out)]) == 0
        with open(out / "pseudovalues.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["pseudovalue"]) for r in rows]
        assert np.allclose(got, np.minimum(times, 36.0), atol=1e-10)

    def test_custom_column_names(self, tmp_path):
        data = tmp_path / "surv.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "d"])
            for t, d in [(5.0, 1), (9.0, 0), (20.0, 1)]:
                writer.writerow([t, d])
        out = tmp_path / "ps"
        assert run(["pseudo", "--data", str(data), "--time-column", "t",
                    "--event-column", "d", "--out", str(out)]) == 0
        assert (out / "pseudovalues.csv").exists()

    def test_missing_file(self, tmp_path):
        assert run(["pseudo", "--data", str(tmp_path / "x.csv"),
                    "--out", str(tmp_path / "o")]) == 2


def _surv_csv(tmp_path, header, rows):
    path = tmp_path / "surv.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.mark.parametrize("command,header,rows,needle", [
    ("pseudo", ["time", "event"], [[3.0, 1], ["abc", 0]], "'abc'"),
    ("pseudo", ["t", "event"], [[3.0, 1], [5.0, 0]], "'time'"),
    ("pseudo", ["time", "event"], [[3.0, 1], [5.0, "yes"]], "'yes'"),
    ("score", ["psa", "visceral_mets", "ecog_ge2", "days_to_progression"],
     [[10.0, 0, 0, 400.0], ["high", 1, 1, 0.0]], "'high'"),
    ("score", ["psa", "visceral_mets", "days_to_progression"],
     [[10.0, 0, 400.0]], "'ecog_ge2'"),
])
def test_bad_survival_input_exit_1(tmp_path, capsys, command, header, rows, needle):
    data = _surv_csv(tmp_path, header, rows)
    assert run([command, "--data", data, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize("command,header,rows,extra,needle", [
    ("pseudo", ["time", "event"], [[3.0, 1], [-2.0, 0]], [], "positive"),
    ("pseudo", ["time", "event"], [[3.0, 1], [5.0, 0]], ["--tau", "-1"], "tau"),
    ("pseudo", ["time", "event"], [[3.0, 1], [5.0, 0]], ["--tau", "inf"], "finite"),
    ("pseudo", ["time", "event"], [[3.0, 1], [5.0, 0]], ["--tau", "nan"], "finite"),
    ("score", ["psa", "visceral_mets", "ecog_ge2", "days_to_progression"],
     [[10.0, 0, 0, 400.0], [-5.0, 1, 1, 0.0]], [], "psa"),
])
def test_out_of_range_survival_input_exit_1(tmp_path, capsys, command, header, rows,
                                            extra, needle):
    data = _surv_csv(tmp_path, header, rows)
    argv = [command, "--data", data, *extra, "--out", str(tmp_path / "o")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert needle in err


class TestScore:
    def test_scores_and_oriented_ranks(self, tmp_path):
        data = tmp_path / "clin.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["psa", "visceral_mets", "ecog_ge2",
                             "days_to_progression"])
            writer.writerow([10.0, 0, 0, 400.0])   # score 0.0, best outlook
            writer.writerow([100.0, 1, 1, 0.0])    # score 2.78, worst
            writer.writerow([40.0, 0, 0, 360.0])   # score 0.74
        out = tmp_path / "sc"
        assert run(["score", "--data", str(data), "--out", str(out)]) == 0
        with open(out / "scores.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        scores = [float(r["nomogram_score"]) for r in rows]
        assert scores == pytest.approx([0.0, 2.78, 0.74])
        # oriented rank is the rank of the negated score: best outlook last
        ranks = [int(r["oriented_rank"]) for r in rows]
        assert ranks == [3, 1, 2]


class TestSimulate:
    def setting_payload(self):
        return {
            "study": "1a",
            "beta_external": [1.0, 0.5],
            "beta_internal": [0.8, 0.6],
            "n_internal": 15,
            "n_test": 40,
            "sigma": 0.5,
            "replications": 2,
            "seed": 3,
            "methods": ["ols"],
            "grid_j": 1,
            "grid_k": 1,
        }

    def test_ols_only_all_ones_and_repeatable(self, tmp_path):
        setting = tmp_path / "setting.json"
        setting.write_text(json.dumps(self.setting_payload()),
                           encoding="utf-8")
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert run(["simulate", "--setting", str(setting), "--out", str(out1)]) == 0
        assert run(["simulate", "--setting", str(setting), "--out", str(out2)]) == 0
        with open(out1 / "benchmark.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["ols"]
        assert float(rows[0]["rel_mse"]) == 1.0
        assert filecmp.cmp(out1 / "benchmark.csv", out2 / "benchmark.csv",
                           shallow=False)
        payload = json.loads((out1 / "benchmark.json").read_text())
        assert payload["failures"] == 0

    def test_missing_setting_file(self, tmp_path):
        assert run(["simulate", "--setting", str(tmp_path / "x.json"),
                    "--out", str(tmp_path / "o")]) == 2


def _one_error_line(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize("extra,needle", [
    (["--nu", "-1"], "nu"),
    (["--samples", "0"], "samples"),
    (["--lambda", "-1"], "lambda"),
    (["--alpha", "-2"], "alpha"),
    (["--marginalized", "--seed", "-1"], "seed"),
    (["--nu", "inf", "--lambda", "5"], "nu"),
    (["--nu", "1e-300"], "nu"),
])
def test_bad_option_value_exit_1(dataset, tmp_path, capsys, extra, needle):
    data, schema = dataset
    assert run(["fit", "--data", data, "--schema", schema, *extra,
                "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys, needle)


@pytest.mark.parametrize("text,needle", [
    ('{"outcome": "y", "conventional": ["z1"', "not valid JSON"),
    ('["y", "z1"]', "JSON object"),
    ('{"outcome": "y", "conventional": []}', "conventional"),
    ('{"outcome": "y", "conventional": "z1"}', "conventional"),
    ('{"outcome": "y", "conventional": ["z1", "z2"], "novel": ["z1"]}', "'z1'"),
    ('{"outcome": "y", "conventional": ["z1", "z1"]}', "'z1'"),
    ('{"outcome": "y", "conventional": ["z1", "y"]}', "'y'"),
    ('{"outcome": "y", "conventional": ["z1", "z2"], "score": "y"}', "'y'"),
])
def test_malformed_schema_exit_1(dataset, tmp_path, capsys, text, needle):
    data, _ = dataset
    schema = tmp_path / "bad.json"
    schema.write_text(text, encoding="utf-8")
    assert run(["fit", "--data", data, "--schema", str(schema),
                "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys, needle)


@pytest.mark.parametrize("make_text,needle", [
    (lambda p: json.dumps({**p, "study": "3"}), "'3'"),
    (lambda p: json.dumps({**p, "color": "red"}), "color"),
    (lambda p: json.dumps(p)[:-10], "not valid JSON"),
    (lambda p: json.dumps(list(p)), "JSON object"),
], ids=["unknown-study", "unknown-key", "truncated", "not-an-object"])
def test_bad_setting_exit_1(tmp_path, capsys, make_text, needle):
    setting = tmp_path / "setting.json"
    setting.write_text(make_text(TestSimulate().setting_payload()), encoding="utf-8")
    assert run(["simulate", "--setting", str(setting), "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys, needle)


@pytest.mark.parametrize("change,needle", [
    ({"study": "1b", "beta_external": [1.0] * 4, "beta_internal": [1.0] * 5}, "beta_internal"),
    ({"study": "1b", "beta_external": [1.0, 0.5], "beta_internal": [1.0] * 4}, "beta_external"),
    ({"study": "2", "beta_internal": [1.0] * 7}, "beta_internal"),
    ({"study": "2", "beta_internal": [1.0] * 6, "theta": [0.1] * 3}, "theta"),
    ({"criterion": "bic", "methods": ["rasper_spearman"]}, "'bic'"),
    ({"beta_internal": [0.0, 0.0]}, "internal mean is constant"),
    ({"study": "1b", "beta_external": [0.0] * 4, "beta_internal": [1.0] * 6},
     "external score is constant"),
    ({"replications": 0}, "replications"),
    ({"n_test": 0}, "n_test"),
    ({"n_internal": 40.5}, "n_internal must be an integer"),
    ({"replications": 2.0}, "replications must be an integer"),
    ({"grid_j": 1.5}, "grid_j must be an integer"),
    ({"seed": -1}, "seed"),
    ({"sigma": float("nan")}, "sigma"),
    ({"sigma": float("inf")}, "sigma"),
    ({"study": "1b", "beta_external": [1.0] * 4, "beta_internal": "123456"}, "beta_internal"),
    ({"study": "1b", "beta_external": ["1", "0.5", "0.3", "0.2"], "beta_internal": [1.0] * 6},
     "beta_external"),
    ({"study": "2", "beta_internal": [1.0] * 6, "theta": "abcd"}, "theta"),
    ({"methods": "ridge"}, "methods"),
    ({"lam_scale": ["a", "b"]}, "lam_scale"),
    ({"study": "1b", "beta_external": [10**400, 0.5, 0.3, 0.2], "beta_internal": [1.0] * 6},
     "beta_external"),
], ids=["1b-beta-internal-length", "1b-short-beta-external", "2-beta-internal-7",
        "2-theta-3", "bic-criterion", "zero-beta-internal", "1b-zero-beta-external",
        "no-replications", "no-test-rows", "fractional-n-internal", "float-replications",
        "fractional-grid-j", "negative-seed", "nan-sigma", "infinite-sigma", "string-beta-internal",
        "string-beta-external", "string-theta", "string-methods", "string-lam-scale",
        "json-int-beyond-float-beta-external"])
def test_malformed_study_setting_exit_1(tmp_path, capsys, change, needle):
    setting = tmp_path / "setting.json"
    setting.write_text(json.dumps({**TestSimulate().setting_payload(), **change}),
                       encoding="utf-8")
    assert run(["simulate", "--setting", str(setting), "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys, needle)


@pytest.mark.parametrize("given", ["--lambda-min", "--lambda-max", "--alpha-min",
                                   "--alpha-max"])
def test_partial_grid_bounds_exit_1(dataset, tmp_path, capsys, given):
    data, schema = dataset
    assert run(["select", "--data", data, "--schema", schema, given, "1",
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    missing = {"--lambda-min", "--lambda-max", "--alpha-min", "--alpha-max"} - {given}
    assert all(name in err for name in missing) and given not in err


def test_bad_setting_grid_exit_1(tmp_path, capsys):
    setting = tmp_path / "setting.json"
    payload = {**TestSimulate().setting_payload(), "lam_scale": [5, 1]}
    setting.write_text(json.dumps(payload), encoding="utf-8")
    assert run(["simulate", "--setting", str(setting), "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys, "0 < min < max")


def test_survival_headers_with_spaces(tmp_path):
    pseudo = _surv_csv(tmp_path, [" time ", "event "], [[3.0, 1], [5.0, 0]])
    assert run(["pseudo", "--data", pseudo, "--out", str(tmp_path / "p")]) == 0
    with open(tmp_path / "p" / "pseudovalues.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["time", "event", "pseudovalue"]
    clin = tmp_path / "clin.csv"
    clin.write_text(" psa , visceral_mets,ecog_ge2 , days_to_progression\n"
                    "10.0,0,0,400.0\n100.0,1,1,0.0\n", encoding="utf-8")
    assert run(["score", "--data", str(clin), "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize("text", ["", "time,event\n3.0,1\n5.0,0,7\n"],
                         ids=["empty", "ragged"])
def test_malformed_survival_csv_exit_1(tmp_path, capsys, text):
    data = tmp_path / "surv.csv"
    data.write_text(text, encoding="utf-8")
    assert run(["pseudo", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys, str(data))
