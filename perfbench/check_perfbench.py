"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python -m pytest -q perfbench/check_perfbench.py

The bypass test runs one traced pass of every workload, about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rasper
from rasper import cli, selection, simbench, solver
from rasper.concordance import (
    ConcordanceSpec,
    build_marginal_sampler,
    marginalized_weights,
    pair_weights,
)
from rasper.data_model import external_ranks, standardize

from perfbench import inputs, layers, oracle, run
from perfbench.tracer import TRACED, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _problem(measure, marginal=False, lam=50.0, seed=3, n=40):
    x, y, scores = inputs.study1b(np.random.default_rng(seed), n)
    design = standardize(x, inputs.Q)
    weights = pair_weights(external_ranks(scores), measure)
    if marginal:
        weights = marginalized_weights(
            weights, build_marginal_sampler(design.z, design.b, 5, seed))
    spec = ConcordanceSpec(measure=measure, nu=0.3)
    return solver.PenalizedProblem(design=design, y=y, weights=weights, spec=spec,
                                   lam=lam, alpha=0.7), x, scores


@pytest.mark.parametrize("measure,marginal", [("spearman", False), ("kendall", False),
                                              ("spearman", True)])
def test_oracle_gradient_matches_package(measure, marginal):
    problem, _, _ = _problem(measure, marginal)
    beta0, beta = 0.2, np.array([0.9, -0.4, 0.5, 0.1, 0.3, -0.2])
    g0, g = solver.objective_gradient(problem, beta0, beta)
    w = problem.weights
    mine0, mine = oracle.gradient(problem.design.x, problem.y, w.w, problem.nu,
                                  problem.lam, problem.alpha, beta0, beta, tables=w.tables)
    scale = np.hypot(g0, np.linalg.norm(g))
    assert abs(mine0 - g0) <= 1e-8 * scale
    assert np.linalg.norm(mine - g) <= 1e-8 * scale
    value = solver.penalized_objective(problem, beta0, beta)
    assert oracle.objective(problem.design.x, problem.y, w.w, problem.nu, problem.lam,
                            problem.alpha, beta0, beta, tables=w.tables) == \
        pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("measure", ["spearman", "kendall"])
def test_oracle_inputs_match_package(measure):
    problem, x, scores = _problem(measure)
    assert np.allclose(oracle.standardize(x), problem.design.x, rtol=0, atol=1e-13)
    assert np.array_equal(oracle.ge_ranks(scores), external_ranks(scores).r)
    assert np.array_equal(oracle.pair_weight_matrix(oracle.ge_ranks(scores), measure),
                          problem.weights.w)
    assert oracle.default_nu(problem.design.x, problem.y) == \
        pytest.approx(solver.default_nu(problem.design, problem.y), rel=1e-12)


def _attributes():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "rasper" or name.startswith("rasper."))
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_patches_every_binding_and_restores():
    before = _attributes()
    with Tracer() as tracer:
        assert not tracer.missing
        # Names bound by ``from ... import`` are wrapped along with the original.
        assert selection.fit_rasper is solver.fit_rasper is rasper.fit_rasper
        assert cli.select is simbench.select is selection.select
        assert selection.fit_rasper is not before[("rasper.solver", "fit_rasper")]
        assert cli.main.__wrapped__ is before[("rasper.cli", "main")]
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _traced_simulation(threads):
    """Trace a small run_benchmark; with threads > 1 every worker is held at
    ``generate`` until all are in flight, so spans interleave."""
    setting = simbench.SimSetting(
        study="1b", beta_external=inputs.BETA_EXTERNAL,
        beta_internal=inputs.BETA_INTERNAL, n_internal=12, n_test=20,
        replications=2 * threads, methods=("ridge", "rasper_spearman"),
        criterion="aic", grid_j=1, grid_k=1)
    barrier = threading.Barrier(threads)
    original = simbench.generate

    def generate(s, rng):
        barrier.wait(timeout=30)
        return original(s, rng)

    simbench.generate = generate
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer(layers.inspectors()) as tracer:
            report = simbench.run_benchmark(setting, threads=threads)
    finally:
        sys.setswitchinterval(interval)
        simbench.generate = original
    assert report.failures == 0
    return tracer.spans


def test_tracer_keeps_one_span_stack_per_thread():
    # More worker threads than cores and a tiny switch interval: a shared
    # stack would give spans foreign parents, a lost append fewer spans.
    threads = 4
    spans = _traced_simulation(threads)
    reps = [s for s in spans if s.label == "simbench.replication"]
    assert len(reps) == 2 * threads and len({s.thread for s in reps}) == threads
    assert all(s.parent is None for s in reps)
    for label in ("baselines.fit_ridge", "selection.select", "simbench.generate"):
        assert {s.parent for s in spans if s.label == label} == {"simbench.replication"}
    assert {s.parent for s in spans if s.label == "solver.fit_rasper"} == {"selection.select"}
    for span in spans:
        assert 0.0 <= span.self_s <= span.duration + 1e-9
    serial = _traced_simulation(1)
    for label in ("baselines.fit_ridge", "selection.degrees_of_freedom",
                  "solver.fit_rasper", "simbench.generate"):
        # These counts do not depend on the data: threads x the serial count.
        assert sum(s.label == label for s in spans) == \
            threads * sum(s.label == label for s in serial)


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """One traced pass of every workload on the seed-1 input."""
    out = {}
    for name, workload in WORKLOADS.items():
        inp = workload.prepare(1, 0, str(tmp_path_factory.mktemp(name)))
        with Tracer(layers.inspectors()) as tracer:
            outcomes = workload.run_pass(inp)
        assert not tracer.missing
        calls = {label: sum(s.label == label for s in tracer.spans) for label in TRACED}
        metrics = layers.layer_metrics([(inp, tracer.spans)])
        out[name] = (workload, inp, outcomes, metrics, calls, tracer.spans)
    return out


# Functions each workload must reach; every other traced function must see
# zero calls there. projection_target serves study 2 only, so no workload
# calls it.
USED = {
    "fit-n100": {"data_model.external_ranks", "concordance.pair_weights",
                 "solver.fit_rasper", "solver.mm_step", "solver.penalized_objective",
                 "solver.local_minimizer"},
    "loocv-cli-n100": {"cli.main", "data_model.load_dataset",
                       "data_model.external_ranks", "concordance.pair_weights",
                       "selection.select", "selection.fold_weight_cache",
                       "selection.loocv_score", "selection.degrees_of_freedom",
                       "solver.fit_rasper", "solver.mm_step",
                       "solver.penalized_objective", "solver.local_minimizer"},
    "simulate-1b-marginal": {"simbench.run_benchmark", "simbench.generate",
                             "simbench.replication", "data_model.external_ranks",
                             "concordance.pair_weights",
                             "concordance.build_marginal_sampler", "selection.select",
                             "selection.degrees_of_freedom", "solver.fit_rasper",
                             "solver.mm_step", "solver.penalized_objective",
                             "solver.local_minimizer", "baselines.fit_ols",
                             "baselines.fit_ridge", "baselines.fit_atl",
                             "baselines.fit_stacking"},
}


@pytest.mark.parametrize("name", list(USED))
def test_each_workload_reaches_its_layers_and_bypasses_the_rest(traced_passes, name):
    calls = traced_passes[name][4]
    assert {label for label, count in calls.items() if count >= 1} == USED[name]


@pytest.mark.parametrize("name", list(USED))
def test_seed_outputs_pass_every_check(traced_passes, name):
    workload, inp, outcomes, metrics, *_ = traced_passes[name]
    verdict = workload.check(inp, outcomes)
    assert verdict.failures == []
    assert metrics["solver.converged_share"] == 1.0
    assert metrics["solver.max_rel_grad"] > 0.0
    if name == "fit-n100":
        # The solver's relative-change stop halts far from stationarity at
        # lambda = 1000n; the benchmark must show it.
        assert verdict.stationarity >= 1e-2
        # Every fit is delivered, so the traced figure is the check's own.
        assert metrics["solver.max_rel_grad"] == pytest.approx(verdict.stationarity, rel=1e-12)
    if name == "loocv-cli-n100":
        assert metrics["selection.fold_fits"] == 1200
        assert metrics["selection.fold_weight_cache.bytes"] > 100 * 99 * 99 * 8
    if name == "simulate-1b-marginal":
        assert metrics["simbench.replications"] == 2
        assert 0.0 < metrics["simbench.busy_share"] <= 1.0 + 1e-9


def test_max_rel_grad_refuses_fits_it_cannot_place(traced_passes, tmp_path):
    workload, _, _, _, _, spans = traced_passes["fit-n100"]
    other = workload.prepare(2, 0, str(tmp_path))
    with pytest.raises(LookupError):
        layers.max_rel_grad(other, spans)


def test_checks_reject_bad_fits(traced_passes):
    workload, inp, outcomes, *_ = traced_passes["fit-n100"]
    fit = outcomes[-1].value
    rising = dataclasses.replace(fit, objective_trace=np.append(fit.objective_trace, 1e9))
    worse = dataclasses.replace(fit, beta=50.0 * fit.beta)
    broken = dataclasses.replace(fit, beta=np.full_like(fit.beta, np.nan))
    for bad in (rising, worse, broken):
        tampered = outcomes[:-1] + [dataclasses.replace(outcomes[-1], value=bad)]
        assert len(workload.check(inp, tampered).failures) == 1


def test_checks_reject_a_wrong_selection(traced_passes, tmp_path):
    workload, inp, outcomes, *_ = traced_passes["loocv-cli-n100"]
    out = tmp_path / "out"
    shutil.copytree(outcomes[0].label, out)
    fit = json.loads((out / "fit.json").read_text())
    fit["lambda"] = fit["lambda"] * 10
    (out / "fit.json").write_text(json.dumps(fit))
    tampered = [dataclasses.replace(outcomes[0], label=str(out))]
    assert len(workload.check(inp, tampered).failures) == 1


def test_checks_reject_failed_replications(traced_passes):
    workload, setting, outcomes, *_ = traced_passes["simulate-1b-marginal"]
    report = dataclasses.replace(outcomes[0].value, failures=1, replications_used=1)
    tampered = [dataclasses.replace(outcomes[0], value=report)]
    assert len(workload.check(setting, tampered).failures) == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_ref_ratio", "peak_rss_mb"}


def test_reference_kernel_runs_no_package_code():
    sample = run.reference_kernel()
    with Tracer(layers.inspectors()) as tracer:
        assert sample() > 0.0
    assert tracer.spans == []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-n100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
