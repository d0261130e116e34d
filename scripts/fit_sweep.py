"""Cold-fit sweep of ``fit_rasper``: 972 fits on study-1b data.

n in {50, 100, 200}, data seeds 0-5, three penalties (Spearman, Kendall and
marginalized Spearman with S = 5 samples), lambda/n in {0.01, ..., 1000} and
alpha/n in {0, 0.01, 1}. Prints the convergence count, the worst relative
gradient, the iteration and evaluation totals and the worst fit's iterations.

    PYTHONPATH=src python scripts/fit_sweep.py [--out fits.json] [--compare other.json]

``--out`` writes every fit's iterations and final objective; ``--compare``
reads such a file (for instance from another checkout) and prints the largest
relative difference of the final objectives and the other side's totals.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from rasper.concordance import ConcordanceSpec, problem_weights
from rasper.data_model import external_ranks, standardize
from rasper.solver import PenalizedProblem, default_nu, fit_rasper

BETA_EXTERNAL = np.array([1.0, 0.8, 0.6, 0.4])
BETA_INTERNAL = np.array([1.0, 0.8, 0.6, 0.4, 0.5, 0.5])
PENALTIES = (("spearman", False), ("kendall", False), ("spearman", True))


def study1b(seed, n):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 4))
    e = rng.standard_normal((n, 2))
    b1 = 0.4 * z[:, 0] + e[:, 0]
    b2 = 0.25 * z[:, 0] + 0.5 * z[:, 2] + 0.1 * z[:, 3] + e[:, 1]
    x = np.column_stack([z, b1, b2])
    return x, x @ BETA_INTERNAL + rng.standard_normal(n), z @ BETA_EXTERNAL


def sweep():
    fits = []
    for n in (50, 100, 200):
        for seed in range(6):
            x, y, scores = study1b(seed, n)
            design = standardize(x, 4)
            ranks = external_ranks(scores)
            nu = default_nu(design, y)
            for measure, marginalized in PENALTIES:
                spec = ConcordanceSpec(measure, marginalized, nu, 5, seed)
                weights = problem_weights(design, ranks, spec)
                for lam in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
                    for alpha in (0.0, 0.01, 1.0):
                        fit = fit_rasper(PenalizedProblem(design, y, weights, spec,
                                                          lam=lam * n, alpha=alpha * n))
                        fits.append({"iterations": fit.iterations,
                                     "evaluations": fit.evaluations,
                                     "converged": bool(fit.converged),
                                     "grad_norm": fit.grad_norm,
                                     "objective": float(fit.objective_trace[-1])})
    return fits


def summary(fits):
    return {"fits": len(fits),
            "converged": sum(f["converged"] for f in fits),
            "max_grad_norm": max(f["grad_norm"] for f in fits),
            "iterations": sum(f["iterations"] for f in fits),
            "evaluations": sum(f["evaluations"] for f in fits),
            "max_iterations": max(f["iterations"] for f in fits)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    fits = sweep()
    print(json.dumps(summary(fits)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(fits, fh)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            other = json.load(fh)
        rel = max(abs(a["objective"] - b["objective"]) / max(abs(b["objective"]), 1e-300)
                  for a, b in zip(fits, other))
        print(json.dumps({"other": summary(other), "max_rel_objective_diff": rel}))


if __name__ == "__main__":
    main()
