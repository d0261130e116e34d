"""Data generators for the simulation studies and the Monte-Carlo benchmark
driver with relative-MSE reporting."""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import baselines
from .concordance import ConcordanceSpec
from .data_model import external_ranks, ge_counts, midranks, standardize
from .errors import InvalidValue, ParseError, RasperError, SchemaMismatch, SingularDesign
from .selection import ALPHA_RATIOS, LAM_RATIOS, default_grid, select
from .solver import default_nu

RASPER_METHODS = ("rasper_spearman", "rasper_kendall", "rasper_marginal")
ALL_METHODS = ("ols", "ridge", "dtl", "atl", "stacking") + RASPER_METHODS


def spearman_rc(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of midranks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("inputs must be equal-length 1-d arrays with n >= 2")
    ra = midranks(a)
    rb = midranks(b)
    sa = ra.std()
    sb = rb.std()
    if sa == 0 or sb == 0:
        raise ValueError("zero-variance input to rank correlation")
    return float(np.mean((ra - ra.mean()) * (rb - rb.mean())) / (sa * sb))


@dataclass(frozen=True)
class SimSetting:
    """One benchmark configuration: generator parameters plus method list."""

    study: str                                  # "1a", "1b", or "2"
    beta_external: tuple = ()                   # conventional-block coefficients
    beta_internal: tuple = ()
    theta: tuple = (0.0, 0.0, 0.0, 0.0)         # study 2 only: theta_2..theta_5
    n_internal: int = 100
    n_test: int = 1000
    sigma: float = 1.0
    replications: int = 200
    seed: int = 0
    methods: tuple = ("ols", "ridge", "rasper_spearman")
    criterion: str = "loocv"
    nu: float | None = None                     # None: per-replication default
    samples: int = 20
    grid_j: int = 4
    grid_k: int = 2
    lam_scale: tuple = LAM_RATIOS               # (min, max) multiples of n
    alpha_scale: tuple = ALPHA_RATIOS
    study2_z5_mode: str = "extra"               # or "reuse_z4"

    def __post_init__(self):
        if self.study not in ("1a", "1b", "2"):
            raise InvalidValue(f"unknown study {self.study!r}")
        if self.sigma <= 0:
            raise InvalidValue("sigma must be positive")
        if self.samples < 1 or not (self.nu is None or self.nu > 0):
            raise InvalidValue("samples must be >= 1 and nu positive")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise InvalidValue(f"unknown method {m!r}")
        p = self._p()
        if self.n_internal < p + 2:
            raise InvalidValue("n_internal must be at least p + 2")
        self.grid()                 # InvalidBounds on a bad lam_scale, alpha_scale or size
        if self.study == "1b" and len(self.beta_external) < 4:
            raise InvalidValue("study 1b takes at least 4 beta_external entries")
        if self.study == "2" and len(self.theta) != 4:
            raise InvalidValue("study 2 takes 4 theta entries (theta_2..theta_5)")
        if self.study == "2" and len(self.beta_internal) > p:
            raise InvalidValue(f"study 2 takes at most {p} beta_internal entries")
        if self.study != "2" and len(self.beta_internal) != p:
            raise InvalidValue(f"study {self.study} takes {p} beta_internal entries")

    def grid(self):
        """The (lambda, alpha) grid at n_internal: the bounds are the scale
        multiples of n."""
        return default_grid(self.n_internal, self.grid_j, self.grid_k,
                            self.lam_scale, self.alpha_scale)

    def _p(self):
        if self.study == "1a":
            return len(self.beta_external)
        if self.study == "1b":
            return len(self.beta_external) + 2
        return 6

    @classmethod
    def from_json(cls, path):
        """Read a setting from a JSON object of field values. Invalid JSON
        raises ``ParseError``; an unknown or missing key, or a value of the
        wrong type, raises ``SchemaMismatch``."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ParseError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaMismatch(f"{path}: a setting must be a JSON object")
        try:
            for key in ("beta_external", "beta_internal", "theta", "methods",
                        "lam_scale", "alpha_scale"):
                if key in raw:
                    raw[key] = tuple(raw[key])
            return cls(**raw)
        except TypeError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from exc

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SimData:
    x: np.ndarray              # (n, p) internal covariates
    y: np.ndarray
    q: int
    scores: np.ndarray         # external risk scores on internal rows
    mu_internal: np.ndarray    # true internal mean on internal rows
    x_test: np.ndarray
    scores_test: np.ndarray
    mu_test: np.ndarray


def _f1(u):
    return 1.0 / (1.0 + np.exp(-u)) - 1.0 / (1.0 + np.exp(1.0 - u))


def _f2(u):
    u = np.asarray(u, dtype=float)
    return np.where(u < 7.0, 0.5 * (u - 2.0) ** 2, 12.5)


def _covariates(setting, rng, n):
    """Conventional draws z and internal design x for n rows. Study 1(a)
    uses z alone; 1(b) and 2 append the novel b1, b2, which depend on the
    conventional block. Study 2 draws a 5th column that feeds the external
    score only."""
    z = rng.standard_normal((n, 5 if setting.study == "2" else len(setting.beta_external)))
    if setting.study == "1a":
        return z, z
    e = rng.standard_normal((n, 2))
    b1 = 0.4 * z[:, 0] + e[:, 0]
    b2 = 0.25 * z[:, 0] + 0.5 * z[:, 2] + 0.1 * z[:, 3] + e[:, 1]
    return z, np.column_stack([z[:, :4], b1, b2] if setting.study == "2" else [z, b1, b2])


def _external_scores(setting, z):
    """Study 1: linear in z. Study 2: nonlinear in the conventional block."""
    if setting.study != "2":
        return z @ np.asarray(setting.beta_external, dtype=float)
    t2, t3, t4, t5 = setting.theta
    z5 = z[:, 3] if setting.study2_z5_mode == "reuse_z4" else z[:, 4]
    level = 1.0 + _f1(z[:, 0]) + t2 * _f2(z[:, 1]) + t3 * _f1(z[:, 0]) * _f2(z[:, 1])
    expo = np.exp(-t4 * (z[:, 2] < 2.0) + 10.0 * t4 * (z[:, 2] >= 2.0) - t5 * z5)
    return level * expo


def generate(setting: SimSetting, rng) -> SimData:
    """One data set: the internal rows, then the test rows, then the outcome
    noise. The internal mean is linear in x in every study; study 2 pads
    beta_internal with zeros to its 6 columns."""
    z, x = _covariates(setting, rng, setting.n_internal)
    zt, xt = _covariates(setting, rng, setting.n_test)
    bi = np.zeros(x.shape[1])
    bi[: len(setting.beta_internal)] = setting.beta_internal
    mu_i = x @ bi
    y = mu_i + setting.sigma * rng.standard_normal(setting.n_internal)
    return SimData(x=x, y=y, q=4 if setting.study == "2" else z.shape[1],
                   scores=_external_scores(setting, z), mu_internal=mu_i,
                   x_test=xt, scores_test=_external_scores(setting, zt), mu_test=xt @ bi)


def _loo_mse(x, y, alpha, lam=0.0, beta_e=None):
    """Exact leave-one-out mean squared prediction error of the linear fit
    minimizing 0.5*||y - b0 - X b||^2 + (alpha/2)*||b||^2 - lam*beta_e'b:
    ridge is lam = 0, DTL lam = alpha, and ATL any lam (``baselines``).

    Neither penalty depends on the data, so deleting row i downdates the
    normal equations A theta = b by one rank, with X1 = [1, X],
    A = X1'X1 + diag(0, alpha I) and b = X1'y + (0, lam*beta_e), and the
    held-out residual is e_i / (1 - h_ii) (Allen 1974, PRESS): e are the
    full-data residuals and h_ii the diagonal of X1 A^{-1} X1'. Raises
    ``SingularDesign`` where a refit without some row would be singular:
    A is singular or some h_ii >= 1 - 1e-10.
    """
    n, p = x.shape
    x1 = np.hstack([np.ones((n, 1)), x])
    a = x1.T @ x1
    a[1:, 1:] += alpha * np.eye(p)
    b = x1.T @ y
    if lam:
        b[1:] += lam * np.asarray(beta_e, dtype=float)
    if np.linalg.matrix_rank(a) <= p:
        raise SingularDesign("leave-one-out system is singular")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("leave-one-out system is singular") from exc

    def solve(rhs):                     # A^{-1} rhs from A = low low'
        return np.linalg.solve(low.T, np.linalg.solve(low, rhs))

    h = np.einsum("ij,ji->i", x1, solve(x1.T))
    if np.any(h >= 1.0 - 1e-10):
        raise SingularDesign("a row has leverage 1; its leave-one-out fit is singular")
    e = (y - x1 @ solve(b)) / (1.0 - h)
    return float(e @ e) / n


# Each picks the least leave-one-out error; ties go to the smaller lam, then alpha.
def _select_ridge(x, y, alphas):
    return baselines.fit_ridge(x, y, min((_loo_mse(x, y, a), a) for a in alphas)[1])


def _select_dtl(x, y, alphas, beta_e):
    best = min((_loo_mse(x, y, a, a, beta_e), a) for a in alphas)[1]
    return baselines.fit_dtl(x, y, best, beta_e)


def _select_atl(x, y, alphas, lams, beta_e):
    _, lam, a = min((_loo_mse(x, y, a, lam, beta_e), lam, a) for a in alphas for lam in lams)
    return baselines.fit_atl(x, y, a, lam, beta_e)


def _external_target(setting, data, design):
    """DTL/ATL shrinkage target on the standardized scale."""
    p = design.p
    if setting.study == "2":
        return baselines.projection_target(design.z, data.scores, p)
    beta_e = np.zeros(p)
    be = np.asarray(setting.beta_external, dtype=float)
    beta_e[: be.shape[0]] = be
    return beta_e * design.scale


def _run_replication(setting: SimSetting, rep: int):
    rng = np.random.default_rng([setting.seed, rep])
    data = generate(setting, rng)
    design = standardize(data.x, data.q)
    ranks = external_ranks(data.scores)
    xt_std = (data.x_test - design.mean) / design.scale

    nu = setting.nu if setting.nu is not None else default_nu(design, data.y)
    grid = setting.grid()

    def mse(beta0, beta):
        pred = beta0 + xt_std @ beta
        return float(np.mean((data.mu_test - pred) ** 2))

    results = {}
    beta0, beta = baselines.fit_ols(design, data.y)
    results["ols"] = mse(beta0, beta)

    wanted = set(setting.methods)
    alphas = grid.alpha_values
    if "ridge" in wanted:
        results["ridge"] = mse(*_select_ridge(design.x, data.y, alphas))
    if "dtl" in wanted or "atl" in wanted:
        beta_e = _external_target(setting, data, design)
        if "dtl" in wanted:
            results["dtl"] = mse(*_select_dtl(design.x, data.y, alphas, beta_e))
        if "atl" in wanted:
            results["atl"] = mse(*_select_atl(design.x, data.y, alphas,
                                              grid.lam_values, beta_e))
    if "stacking" in wanted:
        beta0, beta, r_mean, r_scale = baselines.fit_stacking(design, data.y, ranks)
        r_test = ge_counts(data.scores_test, data.scores)
        aug = np.hstack([xt_std, ((r_test - r_mean) / r_scale)[:, None]])
        pred = beta0 + aug @ beta
        results["stacking"] = float(np.mean((data.mu_test - pred) ** 2))

    for method in RASPER_METHODS:
        if method not in wanted:
            continue
        measure = "kendall" if method == "rasper_kendall" else "spearman"
        marginal = method == "rasper_marginal"
        spec = ConcordanceSpec(measure=measure, marginalized=marginal,
                               nu=nu, samples=setting.samples, seed=rep)
        report = select(design, data.y, ranks, spec, grid, criterion=setting.criterion)
        fit = report.chosen.fit
        results[method] = mse(fit.beta0, fit.beta)

    rc = spearman_rc(data.scores, data.mu_internal)
    distance = float(np.sum((data.scores - data.mu_internal) ** 2))
    return results, rc, distance


@dataclass
class BenchReport:
    setting: SimSetting
    methods: tuple
    rel_mse_mean: dict
    rel_mse_se: dict
    rel_mse_reps: dict          # per-replication relative MSEs, paired by index
    mse_mean: dict
    rc_mean: float
    distance_mean: float
    replications_used: int
    failures: int

    def to_rows(self):
        return [{"method": m,
                 "rel_mse": self.rel_mse_mean[m],
                 "rel_mse_se": self.rel_mse_se[m],
                 "mse": self.mse_mean[m]} for m in self.methods]

    def to_json(self):
        return json.dumps({
            "setting": self.setting.to_dict(),
            "rc_mean": self.rc_mean,
            "distance_mean": self.distance_mean,
            "replications_used": self.replications_used,
            "failures": self.failures,
            "results": self.to_rows(),
        }, indent=2)


def run_benchmark(setting: SimSetting, threads=1) -> BenchReport:
    """Run the Monte-Carlo benchmark; per-replication failures are excluded
    with a count reported. Replication RNG streams are keyed by
    (seed, replication index), so results do not depend on thread count."""
    reps = range(setting.replications)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(lambda r: _attempt(setting, r), reps))
    else:
        raw = [_attempt(setting, r) for r in reps]

    ok = [r for r in raw if r is not None]
    failures = len(raw) - len(ok)
    if not ok:
        raise RasperError("every replication failed")
    methods = tuple(m for m in ALL_METHODS
                    if m == "ols" or m in setting.methods)
    rel = {m: np.array([res[m] / res["ols"] for res, _, _ in ok]) for m in methods}
    mse = {m: np.array([res[m] for res, _, _ in ok]) for m in methods}
    nrep = len(ok)
    return BenchReport(
        setting=setting,
        methods=methods,
        rel_mse_mean={m: float(rel[m].mean()) for m in methods},
        rel_mse_se={m: float(rel[m].std(ddof=1) / math.sqrt(nrep)) if nrep > 1 else 0.0
                    for m in methods},
        rel_mse_reps={m: rel[m] for m in methods},
        mse_mean={m: float(mse[m].mean()) for m in methods},
        rc_mean=float(np.mean([rc for _, rc, _ in ok])),
        distance_mean=float(np.mean([d for _, _, d in ok])),
        replications_used=nrep,
        failures=failures,
    )


def _attempt(setting, rep):
    try:
        return _run_replication(setting, rep)
    except RasperError:
        return None
