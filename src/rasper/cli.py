"""Command-line interface: fit, select, pseudo, score, simulate."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .concordance import ConcordanceSpec, problem_weights
from .data_model import (
    _parse_column,
    external_ranks,
    ge_counts,
    kendall_tau_b,
    load_dataset,
    load_schema,
    read_rows,
    standardize,
)
from .errors import InvalidBounds, RasperError
from .selection import build_grid, default_grid, select
from .simbench import SimSetting, run_benchmark
from .solver import PenalizedProblem, default_nu, fit_rasper
from .survival import DEFAULT_TAU, NomogramInput, SurvivalSample, nomogram_score, pseudovalues


def _write_csv(path, rows, fieldnames):
    """Write dict rows as CSV; floats keep all 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.17g}" if isinstance(v, float) else v
                             for k, v in row.items()})


def _write_config(out_dir, args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)


def _prepare(args):
    if not os.path.exists(args.data):
        raise FileNotFoundError(args.data)
    schema = load_schema(args.schema)
    raw = load_dataset(args.data, schema)
    if raw.scores is None:
        raise RasperError("schema must name a score column for external ranks")
    design = standardize(raw)
    ranks = external_ranks(raw.scores)
    nu = args.nu if args.nu is not None else default_nu(design, raw.y)
    spec = ConcordanceSpec(measure=args.measure, marginalized=args.marginalized,
                           nu=nu, samples=args.samples, seed=args.seed)
    return raw, design, ranks, spec


def _fit_outputs(out_dir, design, ranks, fit):
    beta0_orig, beta_orig = design.destandardize(fit.beta0, fit.beta)
    payload = {
        "beta0_standardized": fit.beta0,
        "beta_standardized": list(fit.beta),
        "beta0_original": beta0_orig,
        "beta_original": list(beta_orig),
        "lambda": fit.lam,
        "alpha": fit.alpha,
        "nu": fit.nu,
        "concordance": fit.concordance,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "evaluations": fit.evaluations,
        "objective_first": float(fit.objective_trace[0]),
        "objective_last": float(fit.objective_trace[-1]),
    }
    with open(os.path.join(out_dir, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    fitted = fit.beta0 + design.x @ fit.beta
    internal_rank = ge_counts(fitted, fitted)
    rows = [{"row": i, "fitted": float(fitted[i]),
             "internal_rank": int(internal_rank[i]),
             "external_rank": int(ranks.r[i])}
            for i in range(design.n)]
    _write_csv(os.path.join(out_dir, "rankings.csv"), rows,
               ["row", "fitted", "internal_rank", "external_rank"])


def cmd_fit(args):
    raw, design, ranks, spec = _prepare(args)
    problem = PenalizedProblem(design=design, y=raw.y,
                               weights=problem_weights(design, ranks, spec),
                               spec=spec, lam=args.lam, alpha=args.alpha)
    fit = fit_rasper(problem)
    os.makedirs(args.out, exist_ok=True)
    _write_config(args.out, args)
    _fit_outputs(args.out, design, ranks, fit)
    return 0


def _grid_from_args(args, n):
    """The default-ratio grid of size J x K when no bound is given, else the
    grid on all four."""
    names = ("lambda_min", "lambda_max", "alpha_min", "alpha_max")
    missing = ["--" + k.replace("_", "-") for k in names if getattr(args, k) is None]
    if len(missing) == len(names):
        return default_grid(n, args.grid_j, args.grid_k)
    if missing:
        raise InvalidBounds(f"give all four grid bounds or none; missing {', '.join(missing)}")
    return build_grid(args.lambda_min, args.lambda_max, args.grid_j,
                      args.alpha_min, args.alpha_max, args.grid_k)


def cmd_select(args):
    raw, design, ranks, spec = _prepare(args)
    grid = _grid_from_args(args, design.n)
    report = select(design, raw.y, ranks, spec, grid, criterion=args.criterion)
    os.makedirs(args.out, exist_ok=True)
    _write_config(args.out, args)
    rows = report.to_rows()
    _write_csv(os.path.join(args.out, "selection_report.csv"), rows, list(rows[0]))
    _fit_outputs(args.out, design, ranks, report.chosen.fit)
    if args.trace_lambda:
        rows = []
        for lam in grid.lam_values:
            recs = [r for r in report.records if r.lam == lam]
            best = min(recs, key=lambda r: (r.loo if args.criterion == "loocv" else r.aic,
                                            r.alpha))
            fitted = best.fit.beta0 + design.x @ best.fit.beta
            rows.append({"lambda": float(lam), "alpha": best.alpha,
                         "kendall_tau": kendall_tau_b(fitted, ranks.r)})
        _write_csv(os.path.join(args.out, "lambda_trace.csv"), rows,
                   ["lambda", "alpha", "kendall_tau"])
    return 0


def _flag(rows, name):
    """0/1 indicator column: a cell is true when its integer part is nonzero."""
    return np.trunc(_parse_column(rows, name)) != 0


def cmd_pseudo(args):
    rows = read_rows(args.data, [args.time_column, args.event_column])
    times = _parse_column(rows, args.time_column)
    events = _flag(rows, args.event_column)
    sample = SurvivalSample(times=times, events=events, tau=args.tau)
    values = pseudovalues(sample)
    os.makedirs(args.out, exist_ok=True)
    _write_config(args.out, args)
    out_rows = []
    for row, v in zip(rows, values):
        row = dict(row)
        row["pseudovalue"] = float(v)
        out_rows.append(row)
    _write_csv(os.path.join(args.out, "pseudovalues.csv"), out_rows,
               list(out_rows[0].keys()))
    return 0


def cmd_score(args):
    rows = read_rows(args.data, ["psa", "visceral_mets", "ecog_ge2",
                                 "days_to_progression"])
    columns = zip(_parse_column(rows, "psa"), _flag(rows, "visceral_mets"),
                  _flag(rows, "ecog_ge2"),
                  _parse_column(rows, "days_to_progression"))
    scores = np.array([
        nomogram_score(NomogramInput(psa=float(psa), visceral_mets=bool(visceral),
                                     ecog_ge2=bool(ecog),
                                     days_to_progression_prior_chemo=float(days)))
        for psa, visceral, ecog, days in columns])
    # higher nomogram score = higher hazard; rank the negated score so that
    # larger ranks line up with better survival outcomes
    oriented = external_ranks(-scores)
    os.makedirs(args.out, exist_ok=True)
    _write_config(args.out, args)
    out_rows = []
    for row, s, r in zip(rows, scores, oriented.r):
        row = dict(row)
        row["nomogram_score"] = float(s)
        row["oriented_rank"] = int(r)
        out_rows.append(row)
    _write_csv(os.path.join(args.out, "scores.csv"), out_rows,
               list(out_rows[0].keys()))
    return 0


def cmd_simulate(args):
    setting = SimSetting.from_json(args.setting)
    report = run_benchmark(setting)
    os.makedirs(args.out, exist_ok=True)
    _write_config(args.out, args)
    with open(os.path.join(args.out, "benchmark.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_csv(os.path.join(args.out, "benchmark.csv"), report.to_rows(),
               ["method", "rel_mse", "rel_mse_se", "mse"])
    return 0


def _add_data_args(sub):
    sub.add_argument("--data", required=True)
    sub.add_argument("--schema", required=True)
    sub.add_argument("--measure", choices=["spearman", "kendall"], default="spearman")
    sub.add_argument("--marginalized", action="store_true")
    sub.add_argument("--samples", type=int, default=20)
    sub.add_argument("--nu", type=float, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)


def build_parser():
    parser = argparse.ArgumentParser(prog="rasper")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit at fixed hyperparameters")
    _add_data_args(fit)
    fit.add_argument("--lambda", dest="lam", type=float, default=0.0)
    fit.add_argument("--alpha", type=float, default=0.0)
    fit.set_defaults(func=cmd_fit)

    sel = subs.add_parser("select", help="hyperparameter selection over a grid")
    _add_data_args(sel)
    sel.add_argument("--criterion", choices=["loocv", "aic"], default="loocv")
    sel.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    sel.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sel.add_argument("--alpha-min", dest="alpha_min", type=float, default=None)
    sel.add_argument("--alpha-max", dest="alpha_max", type=float, default=None)
    sel.add_argument("--grid-j", type=int, default=10)
    sel.add_argument("--grid-k", type=int, default=10)
    sel.add_argument("--trace-lambda", action="store_true")
    sel.set_defaults(func=cmd_select)

    pseudo = subs.add_parser("pseudo", help="RMST pseudovalue outcomes")
    pseudo.add_argument("--data", required=True)
    pseudo.add_argument("--time-column", default="time")
    pseudo.add_argument("--event-column", default="event")
    pseudo.add_argument("--tau", type=float, default=DEFAULT_TAU)
    pseudo.add_argument("--out", required=True)
    pseudo.set_defaults(func=cmd_pseudo)

    score = subs.add_parser("score", help="external nomogram scores and ranks")
    score.add_argument("--data", required=True)
    score.add_argument("--out", required=True)
    score.set_defaults(func=cmd_score)

    sim = subs.add_parser("simulate", help="Monte-Carlo benchmark")
    sim.add_argument("--setting", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except RasperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
