"""The benchmark's three workloads and the checks on their outputs.

Each workload turns (seed, pass index) into an input set (``prepare``), runs
one pass of its fixed operations on it (``run_pass``, the timed part), and
judges the outputs afterwards (``check``). Operations are issued by a single
closed-loop caller: the next one starts only when the previous one returns.

Only the package's user-facing API is called here (``standardize``,
``external_ranks``, ``pair_weights``, ``PenalizedProblem``, ``fit_rasper``,
``cli.main``, ``SimSetting``, ``run_benchmark``), so internal refactors do not
break the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from perfbench import inputs, oracle


@dataclass
class Outcome:
    """Result of one operation: ``value`` on return, ``error`` if it raised."""

    label: str
    value: object = None
    error: str | None = None


@dataclass
class Verdict:
    """Judgement of one pass: one failure message per failed operation, the
    stationarity of the fits delivered to the caller (None where the
    workload delivers no fit), and a digest of the outputs that must repeat
    exactly for the same input."""

    failures: list = field(default_factory=list)
    stationarity: float | None = None
    digest: str = ""


def attempt(label, fn, *args, **kwargs):
    """Run one operation. A benchmark caller must keep going when an
    operation raises, so any exception is recorded as that operation's
    failure."""
    try:
        return Outcome(label, fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - counted and reported as failed
        return Outcome(label, error=f"{type(exc).__name__}: {exc}")


def _non_increasing(trace):
    trace = np.asarray(trace, dtype=float)
    steps = np.diff(trace)
    return bool(np.all(steps <= 1e-10 * np.abs(trace[:-1])))


@dataclass
class FitInput:
    x: np.ndarray
    y: np.ndarray
    scores: np.ndarray
    nu: float


class FitN100:
    """12 cold fits at n = 100, p = 6: Spearman and Kendall, each at six
    lambda values 0.01n ... 1000n (every other point of the package's
    default grid) with alpha = 1e-4 n * 10^1.2 (its fourth alpha value)."""

    name = "fit-n100"
    n = 100
    measures = ("spearman", "kendall")
    lambdas = tuple(0.01 * 100 * 10.0 ** i for i in range(6))
    alpha = 1e-4 * n * 10.0 ** 1.2

    def prepare(self, seed, index, workdir):
        import rasper.solver  # noqa: F401 - imports count as set-up

        x, y, scores = inputs.study1b(inputs.rng_for(self.name, seed, index), self.n)
        return FitInput(x, y, scores, oracle.default_nu(oracle.standardize(x), y))

    def run_pass(self, inp):
        from rasper.concordance import ConcordanceSpec, pair_weights
        from rasper.data_model import external_ranks, standardize
        from rasper.solver import PenalizedProblem, fit_rasper

        design = standardize(inp.x, inputs.Q)
        out = []
        for measure in self.measures:
            weights = pair_weights(external_ranks(inp.scores), measure)
            spec = ConcordanceSpec(measure=measure, nu=inp.nu)
            for lam in self.lambdas:
                problem = PenalizedProblem(design=design, y=inp.y, weights=weights,
                                           spec=spec, lam=lam, alpha=self.alpha)
                out.append(attempt(f"{measure} lambda={lam:g}", fit_rasper, problem))
        return out

    def check(self, inp, outcomes):
        verdict = Verdict()
        x = oracle.standardize(inp.x)
        ranks = oracle.ge_ranks(inp.scores)
        start = oracle.local_minimizer(x, inp.y, self.alpha)
        worst = 0.0
        digest = []
        per_measure = len(self.lambdas)
        for m, measure in enumerate(self.measures):
            group = outcomes[m * per_measure:(m + 1) * per_measure]
            w = oracle.pair_weight_matrix(ranks, measure)
            for lam, out in zip(self.lambdas, group):
                problem = (x, inp.y, w, inp.nu, lam, self.alpha)
                if out.error is not None:
                    verdict.failures.append(f"{out.label}: {out.error}")
                    continue
                fit = out.value
                beta = np.asarray(fit.beta, dtype=float)
                if not (np.all(np.isfinite(beta)) and math.isfinite(fit.beta0)):
                    verdict.failures.append(f"{out.label}: non-finite coefficients")
                    continue
                problems = []
                if not _non_increasing(fit.objective_trace):
                    problems.append("objective trace increases")
                final = oracle.objective(*problem, fit.beta0, beta)
                initial = oracle.objective(*problem, *start)
                if final > initial + 1e-10 * abs(initial):
                    problems.append(f"final objective {final!r} above the "
                                    f"local-minimizer start {initial!r}")
                if problems:
                    verdict.failures.append(f"{out.label}: " + "; ".join(problems))
                worst = max(worst, oracle.relative_gradient(*problem, fit.beta0, beta))
                digest.append(np.concatenate([[fit.beta0], beta]).tobytes().hex())
        verdict.stationarity = worst
        verdict.digest = "".join(digest)
        return verdict


@dataclass
class CliInput:
    directory: str
    data: str
    schema: str
    x: np.ndarray
    y: np.ndarray
    scores: np.ndarray


class LoocvCliN100:
    """One in-process ``rasper select`` on a 100-row CSV: Spearman, LOOCV,
    lambda in [1, 1e5] and alpha in [0.01, 1e4] (the default ratios times
    n) with J = 2, K = 1, so 4 x 3 = 12 grid points and 1,200 fold fits."""

    name = "loocv-cli-n100"
    n = 100
    grid_points = 4 * 3
    argv = ("select", "--measure", "spearman", "--criterion", "loocv",
            "--lambda-min", "1", "--lambda-max", "1e5",
            "--alpha-min", "0.01", "--alpha-max", "1e4",
            "--grid-j", "2", "--grid-k", "1")

    def prepare(self, seed, index, workdir):
        import rasper.cli  # noqa: F401 - imports count as set-up

        x, y, scores = inputs.study1b(inputs.rng_for(self.name, seed, index), self.n)
        directory = os.path.join(workdir, f"{self.name}-{index}")
        data, schema = inputs.write_csv(directory, x, y, scores)
        return CliInput(directory, data, schema, x, y, scores)

    def run_pass(self, inp):
        from rasper.cli import main

        # The operation's label is its output directory, which check() reads.
        out = tempfile.mkdtemp(prefix="out-", dir=inp.directory)
        argv = [*self.argv, "--data", inp.data, "--schema", inp.schema, "--out", out]
        return [attempt(out, main, argv)]

    def check(self, inp, outcomes):
        verdict = Verdict()
        (out,) = outcomes
        if out.error is not None or out.value != 0:
            verdict.failures.append(f"select: returned {out.value!r}, error {out.error}")
            return verdict
        try:
            with open(os.path.join(out.label, "selection_report.csv"), encoding="utf-8") as fh:
                report = fh.read()
            with open(os.path.join(out.label, "fit.json"), encoding="utf-8") as fh:
                fit = json.load(fh)
        except OSError as exc:
            verdict.failures.append(f"select: missing output: {exc}")
            return verdict
        rows = list(csv.DictReader(io.StringIO(report)))
        problems = []
        if len(rows) != self.grid_points:
            problems.append(f"{len(rows)} report rows, expected {self.grid_points}")
        chosen = [r for r in rows if r["chosen"] == "True"]
        if len(chosen) != 1:
            problems.append(f"{len(chosen)} rows marked chosen")
        points = [(float(r["loo"]), float(r["lambda"]), float(r["alpha"])) for r in rows]
        if not all(math.isfinite(p[0]) for p in points):
            problems.append("non-finite LOOCV score")
        elif len(chosen) == 1:
            best = min(points)
            mine = (float(chosen[0]["loo"]), float(chosen[0]["lambda"]),
                    float(chosen[0]["alpha"]))
            if mine != best:
                problems.append(f"chosen row {mine} is not the LOOCV argmin {best}")
            if (fit["lambda"], fit["alpha"]) != best[1:]:
                problems.append(f"fit.json (lambda, alpha) = {(fit['lambda'], fit['alpha'])}"
                                f" does not match the chosen row {best[1:]}")
        if problems:
            verdict.failures.append("select: " + "; ".join(problems))
        x = oracle.standardize(inp.x)
        w = oracle.pair_weight_matrix(oracle.ge_ranks(inp.scores), "spearman")
        verdict.stationarity = oracle.relative_gradient(
            x, inp.y, w, fit["nu"], fit["lambda"], fit["alpha"],
            fit["beta0_standardized"], fit["beta_standardized"])
        verdict.digest = report + json.dumps(fit, sort_keys=True)
        return verdict


class Simulate1bMarginal:
    """``run_benchmark`` on study 1b: n_internal = 50, n_test = 1000,
    J = 2, K = 1, methods ridge, dtl, atl, stacking and rasper_marginal
    (S = 10), AIC selection, 2 replications, threads = cpu count."""

    name = "simulate-1b-marginal"
    methods = ("ridge", "dtl", "atl", "stacking", "rasper_marginal")
    replications = 2

    def prepare(self, seed, index, workdir):
        from rasper.simbench import SimSetting

        sim_seed = int(inputs.rng_for(self.name, seed, index).integers(2 ** 31))
        return SimSetting(study="1b", beta_external=inputs.BETA_EXTERNAL,
                          beta_internal=inputs.BETA_INTERNAL, n_internal=50,
                          n_test=1000, replications=self.replications,
                          seed=sim_seed, methods=self.methods, criterion="aic",
                          samples=10, grid_j=2, grid_k=1)

    def run_pass(self, setting):
        from rasper.simbench import run_benchmark

        return [attempt("run_benchmark", run_benchmark, setting,
                        threads=os.cpu_count() or 1)]

    def check(self, setting, outcomes):
        verdict = Verdict()
        (out,) = outcomes
        if out.error is not None:
            verdict.failures.append(f"run_benchmark: {out.error}")
            return verdict
        report = out.value
        problems = []
        if report.failures != 0:
            problems.append(f"{report.failures} failed replications")
        if report.replications_used != self.replications:
            problems.append(f"{report.replications_used} replications used")
        values = [float(v) for v in report.rel_mse_mean.values()]
        values += [float(v) for reps in report.rel_mse_reps.values() for v in reps]
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append("a relative MSE is non-finite or not positive")
        if problems:
            verdict.failures.append("run_benchmark: " + "; ".join(problems))
        verdict.digest = json.dumps({m: [float(v) for v in reps]
                                     for m, reps in sorted(report.rel_mse_reps.items())})
        return verdict


WORKLOADS = {w.name: w for w in (FitN100(), LoocvCliN100(), Simulate1bMarginal())}
