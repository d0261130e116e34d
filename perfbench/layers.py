"""Per-layer metrics computed from the spans of a traced pass.

Every value is per traced pass: counts and times are summed over the traced
passes of a run and divided by their number.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from perfbench import oracle

CALLS_AND_SELF = (
    "data_model.external_ranks", "concordance.pair_weights",
    "concordance.build_marginal_sampler", "solver.fit_rasper", "solver.mm_step",
    "solver.penalized_objective", "solver.local_minimizer",
    "selection.loocv_score", "selection.degrees_of_freedom",
    "baselines.fit_ols", "baselines.fit_ridge", "baselines.fit_atl",
    "baselines.fit_stacking", "baselines.projection_target",
)
# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [m for label in CALLS_AND_SELF
             for m in ((f"{label}.calls", "count", "lower"), (f"{label}.self_s", "s", "lower"))]
PER_LAYER += [
    ("data_model.load_dataset.self_s", "s", "lower"),
    ("concordance.pair_terms", "count", "lower"),
    ("concordance.ns_per_pair_term", "ns", "lower"),
    ("solver.fit_rasper.p50_s", "s", "lower"),
    ("solver.fit_rasper.p90_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.evals_per_iteration", "ratio", "lower"),
    ("solver.converged_share", "ratio", "higher"),
    ("solver.max_rel_grad", "ratio", "lower"),
    ("selection.select.total_s", "s", "lower"),
    ("selection.fold_fits", "count", "lower"),
    ("selection.fold_weight_cache.total_s", "s", "lower"),
    ("selection.fold_weight_cache.bytes", "bytes", "lower"),
    ("simbench.run_benchmark.total_s", "s", "lower"),
    ("simbench.generate.self_s", "s", "lower"),
    ("simbench.replications", "count", "higher"),
    ("simbench.failures", "count", "lower"),
    ("simbench.busy_share", "ratio", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
]


def _problem(args, kwargs):
    return args[0] if args else kwargs["problem"]


def _pair_terms(args, kwargs, result):
    """n^2 * S pair terms evaluated by one objective or MM-step call."""
    problem = _problem(args, kwargs)
    if not problem.lam > 0:
        return {"pairs": 0}
    tables = getattr(problem.weights, "tables", None)
    return {"pairs": len(problem.y) ** 2 * (len(tables) if tables else 1)}


def _threads(args, kwargs, result):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    return {"threads": max(1, threads or 1)}


def array_bytes(obj, seen=None):
    """Bytes of every numpy array reachable from ``obj`` through lists,
    tuples, dicts and object attributes, each array counted once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(item, seen) for item in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(array_bytes(item, seen) for item in vars(obj).values())
    return 0


def inspectors():
    """Per-call extractors for the tracer; each stays cheap because it runs
    inside the caller's span."""
    return {
        "solver.fit_rasper": lambda a, k, r: {"problem": _problem(a, k), "fit": r},
        "solver.penalized_objective": _pair_terms,
        "solver.mm_step": _pair_terms,
        "selection.fold_weight_cache": lambda a, k, r: {"bytes": array_bytes(r)},
        "simbench.run_benchmark": _threads,
        "simbench.replication": lambda a, k, r: {"failed": r is None},
        "simbench.generate": lambda a, k, r: {"data": r},
    }


def _rows_of(y, datasets):
    """(x, y, scores, keep) of the dataset whose rows ``keep`` hold exactly
    the outcome values ``y``, in order."""
    for x, full_y, scores in datasets:
        index = {v: i for i, v in enumerate(full_y.tolist())}
        keep = [index.get(v) for v in np.asarray(y, dtype=float).tolist()]
        if None not in keep:
            return x, full_y, scores, np.asarray(keep)
    raise LookupError(f"a traced fit's {len(y)} outcome values are not rows of the pass's data")


def max_rel_grad(inp, spans):
    """Worst stationarity over one traced pass's fits, fold fits included.

    Each fit is judged on the benchmark's own data: its rows are found by
    their outcome values in the pass input (or, on the simulation, in the
    data ``generate`` returned), and ``oracle`` rebuilds the standardized
    design (full-data standardization, as the folds keep it), the ranks and
    the pair weights from those rows. Only a marginalized fit's sampled
    design tables are taken from its problem. A fit whose rows cannot be
    found raises, so the metric never reads better for being unmeasurable.
    """
    datasets = [(inp.x, inp.y, inp.scores)] if hasattr(inp, "scores") else []
    datasets += [(s.info["data"].x, s.info["data"].y, s.info["data"].scores)
                 for s in spans if s.label == "simbench.generate" and s.info]
    weights = {}
    worst = 0.0
    for span in spans:
        # A fit that raised has no info; the workload's checks count it.
        if span.label != "solver.fit_rasper" or not span.info:
            continue
        problem, fit = span.info["problem"], span.info["fit"]
        x, y, scores, keep = _rows_of(problem.y, datasets)
        measure = problem.spec.measure
        key = (id(scores), measure, keep.tobytes())
        if key not in weights:
            weights[key] = oracle.pair_weight_matrix(oracle.ge_ranks(scores[keep]), measure)
        worst = max(worst, oracle.relative_gradient(
            oracle.standardize(x)[keep], y[keep], weights[key], problem.spec.nu,
            problem.lam, problem.alpha, fit.beta0, fit.beta, tables=problem.weights.tables))
    return worst


def layer_metrics(passes):
    """Every per-layer metric except ``trace_overhead_s``, from a list of
    (input, spans) pairs, one per traced pass."""
    spans = [span for _, pass_spans in passes for span in pass_spans]
    by = defaultdict(list)
    for span in spans:
        by[span.label].append(span)

    count = len(passes)

    def calls(label):
        return len(by[label]) / count

    def self_s(label):
        return sum(s.self_s for s in by[label]) / count

    def total_s(label):
        return sum(s.duration for s in by[label]) / count

    m = {}
    for label in CALLS_AND_SELF:
        m[f"{label}.calls"] = calls(label)
        m[f"{label}.self_s"] = self_s(label)
    m["data_model.load_dataset.self_s"] = self_s("data_model.load_dataset")

    pair_spans = [s for s in by["solver.penalized_objective"] + by["solver.mm_step"]
                  if s.info.get("pairs")]
    pairs = sum(s.info["pairs"] for s in pair_spans)
    m["concordance.pair_terms"] = pairs / count
    m["concordance.ns_per_pair_term"] = (
        1e9 * sum(s.self_s for s in pair_spans) / pairs if pairs else 0.0)

    fit_spans = by["solver.fit_rasper"]
    durations = [s.duration for s in fit_spans]
    m["solver.fit_rasper.p50_s"] = float(np.quantile(durations, 0.5)) if durations else 0.0
    m["solver.fit_rasper.p90_s"] = float(np.quantile(durations, 0.9)) if durations else 0.0
    fits = [(s.info["problem"], s.info["fit"]) for s in fit_spans if "fit" in s.info]
    m["solver.iterations"] = sum(f.iterations for _, f in fits) / count
    mm_calls = len(by["solver.mm_step"])
    m["solver.evals_per_iteration"] = (
        len(by["solver.penalized_objective"]) / mm_calls if mm_calls else 0.0)
    m["solver.converged_share"] = (
        sum(bool(f.converged) for _, f in fits) / len(fits) if fits else 0.0)
    m["solver.max_rel_grad"] = max(max_rel_grad(inp, pass_spans) for inp, pass_spans in passes)

    m["selection.select.total_s"] = total_s("selection.select")
    m["selection.fold_fits"] = sum(
        s.parent == "selection.loocv_score" for s in fit_spans) / count
    m["selection.fold_weight_cache.total_s"] = total_s("selection.fold_weight_cache")
    m["selection.fold_weight_cache.bytes"] = sum(
        s.info.get("bytes", 0) for s in by["selection.fold_weight_cache"]) / count

    runs = by["simbench.run_benchmark"]
    reps = by["simbench.replication"]
    m["simbench.run_benchmark.total_s"] = total_s("simbench.run_benchmark")
    m["simbench.generate.self_s"] = self_s("simbench.generate")
    m["simbench.replications"] = calls("simbench.replication")
    m["simbench.failures"] = sum(bool(s.info.get("failed")) for s in reps) / count
    capacity = sum(s.duration * s.info.get("threads", 1) for s in runs)
    m["simbench.busy_share"] = sum(s.duration for s in reps) / capacity if capacity else 0.0

    m["cli.main.self_s"] = self_s("cli.main")
    return m
