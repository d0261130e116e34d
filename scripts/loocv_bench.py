"""Timing of ``select`` by leave-one-out CV on study-1b data.

For each penalty (Spearman, Kendall and marginalized Spearman with S = 20
sampled tables) and each data seed, one ``select`` by LOOCV over a 4 x 3
grid: lambda in {0, 0.01n, 10n, 1000n} and alpha in {0, 1e-4 n, 100n} (the
default ratios with J = 2, K = 1), that is n fold fits at each of 12 grid
points. Prints one JSON line: per penalty, the median and quartiles of the
wall time of one ``select`` over the seeds, each seed's pick, and the
report's ``fold_iterations`` over the lambda > 0 rows and ``fold_reused``
(folds started from their fit at the previous alpha), summed over the seeds.

    PYTHONPATH=src python scripts/loocv_bench.py [--n 100] [--seeds 1-5]
        [--penalties spearman,kendall,marginalized] [--out scores.json]
        [--compare other.json]

``--out`` writes every seed's LOOCV scores and pick, each report row's
score and fold roll-up (``fold_iterations``, ``fold_reused`` and
``fold_max_grad_norm``, floats as hex) and the chosen fit's beta0 and beta
as hex. ``--compare`` reads such a file (for instance from another
checkout) and prints the largest relative difference of the scores, overall
and per penalty, how many picks and chosen fits agree, how many of the
report ``rows`` compared are ``identical_rows``, bit for bit, the picks and
identical rows per penalty, and each ``changed_picks`` entry
("penalty/seed": [the file's pick, this run's pick]).
"""

from __future__ import annotations

import argparse
import itertools
import json
import time

import numpy as np
from fit_sweep import study1b

from rasper.concordance import ConcordanceSpec
from rasper.data_model import external_ranks, standardize
from rasper.selection import default_grid, select
from rasper.solver import default_nu

SAMPLES = 20
PENALTIES = {"spearman": ("spearman", False), "kendall": ("kendall", False),
             "marginalized": ("spearman", True)}


def seed_list(text):
    """Seeds from "1-5", "1,2,7" or a mix of both."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run(penalty, seed, n):
    """Wall time, report and pick of one ``select`` by LOOCV."""
    x, y, scores = study1b(seed, n)
    design = standardize(x, 4)
    measure, marginalized = PENALTIES[penalty]
    spec = ConcordanceSpec(measure, marginalized, default_nu(design, y), SAMPLES, seed)
    ranks = external_ranks(scores)
    grid = default_grid(n, j=2, k=1)
    start = time.perf_counter()
    report = select(design, y, ranks, spec, grid, criterion="loocv")
    wall = time.perf_counter() - start
    return wall, report.records, report.chosen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("--penalties", default=",".join(PENALTIES))
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    summary = {"n": args.n, "seeds": args.seeds, "penalties": {}}
    scores = {}
    for penalty in args.penalties.split(","):
        walls, picks, iterations, reused = [], {}, 0, 0
        for seed in args.seeds:
            wall, records, chosen = run(penalty, seed, args.n)
            walls.append(wall)
            picks[str(seed)] = pick = [chosen.lam, chosen.alpha]
            iterations += sum(r.fold_iterations for r in records if r.lam > 0)
            reused += sum(r.fold_reused for r in records)
            scores[f"{penalty}/{seed}"] = {
                "loo": [r.loo for r in records], "pick": pick,
                "rows": [[r.loo.hex(), r.fold_iterations, r.fold_reused,
                          r.fold_max_grad_norm.hex()] for r in records],
                "fit": [chosen.fit.beta0.hex()] + [float(b).hex() for b in chosen.fit.beta]}
        q1, median, q3 = np.percentile(walls, [25, 50, 75])
        summary["penalties"][penalty] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                                         "picks": picks, "fold_iterations": iterations,
                                         "fold_reused": reused}
    print(json.dumps(summary))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(scores, fh)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            other = json.load(fh)
        common = sorted(set(scores) & set(other))
        rel, picks, identical = {}, {}, {}
        for key in common:
            penalty = key.partition("/")[0]
            rel[penalty] = max([rel.get(penalty, 0.0)] + [
                abs(a - b) / max(abs(b), 1e-300)
                for a, b in zip(scores[key]["loo"], other[key]["loo"])])
            picks[penalty] = picks.get(penalty, 0) + (scores[key]["pick"] == other[key]["pick"])
            identical[penalty] = identical.get(penalty, 0) + sum(
                a == b for a, b in itertools.zip_longest(scores[key]["rows"],
                                                         other[key].get("rows", [])))
        fits = sum(scores[key]["fit"] == other[key].get("fit") for key in common)
        rows = sum(max(len(scores[key]["rows"]), len(other[key].get("rows", [])))
                   for key in common)
        changed = {key: [other[key]["pick"], scores[key]["pick"]] for key in common
                   if scores[key]["pick"] != other[key]["pick"]}
        print(json.dumps({"compared": len(common), "same_picks": sum(picks.values()),
                          "same_fits": fits, "rows": rows,
                          "identical_rows": sum(identical.values()),
                          "max_rel_score_diff": max(rel.values(), default=0.0),
                          "max_rel_score_diff_by_penalty": rel, "same_picks_by_penalty": picks,
                          "identical_rows_by_penalty": identical, "changed_picks": changed}))

if __name__ == "__main__":
    main()
