"""Data ingestion, covariate standardization, and external risk-score ranks.

Every rank in the package comes from one rule, ``ge_counts``: the external
ranks, the midranks of the Spearman correlation and the sign tables of
Kendall's tau-b.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantColumn,
    EmptyData,
    MissingValue,
    NonFiniteScore,
    NonFiniteValue,
    ParseError,
    SchemaMismatch,
)

MISSING_TOKENS = {"", "NA"}


@dataclass(frozen=True)
class RawDataset:
    """Internal-study table: outcomes, conventional and novel covariate blocks.

    ``scores`` holds the external risk scores evaluated on the conventional
    covariates, when available.
    """

    y: np.ndarray                      # (n,)
    z: np.ndarray                      # (n, q) conventional covariates
    b: np.ndarray                      # (n, p - q) novel covariates, may have 0 cols
    scores: np.ndarray | None = None   # (n,) external risk scores

    def __post_init__(self):
        n = self.y.shape[0]
        if n < 2:
            raise EmptyData(f"need at least 2 rows, got {n}")
        if self.z.ndim != 2 or self.z.shape[0] != n or self.z.shape[1] < 1:
            raise EmptyData("conventional covariate block is empty or misshapen")
        if self.b.shape[0] != n:
            raise EmptyData("novel covariate block row count mismatch")

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def q(self):
        return self.z.shape[1]

    @property
    def p(self):
        return self.z.shape[1] + self.b.shape[1]

    @property
    def x(self):
        """Full design, conventional block first."""
        return np.hstack([self.z, self.b])


@dataclass(frozen=True)
class StandardizedDesign:
    """Column-standardized design with recoverable original-scale parameters.

    Columns have mean zero and sum of squares n - 1.
    """

    x: np.ndarray            # (n, p)
    mean: np.ndarray         # (p,)
    scale: np.ndarray        # (p,)
    q: int

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p(self):
        return self.x.shape[1]

    @property
    def z(self):
        return self.x[:, : self.q]

    @property
    def b(self):
        return self.x[:, self.q:]

    def destandardize(self, beta0, beta):
        """Map (intercept, coefficients) on the standardized scale back to the
        original covariate scale. Fitted values are unchanged."""
        beta = np.asarray(beta, dtype=float)
        beta_orig = beta / self.scale
        beta0_orig = float(beta0) - float(self.mean @ beta_orig)
        return beta0_orig, beta_orig

    def subset(self, rows):
        """Row subset sharing the same scaling (no restandardization)."""
        return StandardizedDesign(self.x[rows], self.mean, self.scale, self.q)


@dataclass(frozen=True)
class ExternalRanks:
    """Per-observation ranks of external risk scores by the >=-count rule."""

    r: np.ndarray            # (n,) integer ranks in 1..n


def ge_counts(values, ref) -> np.ndarray:
    """The >=-count rank rule: #{j : values_i >= ref_j} for each i.

    A binary search in the sorted reference, O((n + m) log m); equal values
    count, so ties share the max-style rank of their group.
    """
    return np.searchsorted(np.sort(ref), values, side="right").astype(np.int64)


def midranks(values) -> np.ndarray:
    """Average ranks: tied values share the mean of the ranks their group
    spans. A value's largest rank counts the values at or below it and its
    smallest is n + 1 minus the count at or above it, both ``ge_counts``."""
    a = np.asarray(values, dtype=float)
    return (ge_counts(a, a) + a.size + 1 - ge_counts(-a, -a)) / 2.0


def kendall_tau_b(a, b) -> float:
    """Kendall's tau-b: sum_ij sign(a_i - a_j) sign(b_i - b_j) over
    sqrt((n^2 - z_a)(n^2 - z_b)), z counting the tied ordered pairs (i = j
    included). The signs are those of the ``ge_counts`` ranks, which order
    and tie values exactly as the values do. NaN when either input is constant.
    """
    ra, rb = ge_counts(a, a), ge_counts(b, b)
    sa = np.sign(ra[:, None] - ra[None, :])
    sb = np.sign(rb[:, None] - rb[None, :])
    pairs = np.count_nonzero(sa) * np.count_nonzero(sb)
    if pairs == 0:
        return float("nan")
    return float(np.sum(sa * sb) / np.sqrt(float(pairs)))


def external_ranks(scores) -> ExternalRanks:
    """Rank each score by counting how many scores it is >= to (self included).

    Distinct scores yield a permutation of 1..n; tied scores share the
    max-style rank of their tie group.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.shape[0] < 1:
        raise EmptyData("scores must be a nonempty 1-d array")
    if not np.all(np.isfinite(s)):
        raise NonFiniteScore("external scores contain non-finite values")
    return ExternalRanks(r=ge_counts(s, s))


def standardize(raw: RawDataset | np.ndarray, q: int | None = None) -> StandardizedDesign:
    """Center each column and rescale so the column sum of squares is n - 1.

    Accepts either a RawDataset or a bare (n, p) array plus ``q``.
    """
    if isinstance(raw, RawDataset):
        x = raw.x
        q = raw.q
    else:
        x = np.asarray(raw, dtype=float)
        if x.ndim != 2 or x.size == 0:
            raise EmptyData("design must be a nonempty 2-d array")
        if q is None:
            q = x.shape[1]
    n = x.shape[0]
    if n < 2:
        raise EmptyData("standardization needs at least 2 rows")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("design contains NaN or infinite values")
    mean = x.mean(axis=0)
    centered = x - mean
    ss = (centered ** 2).sum(axis=0)
    if np.any(ss <= 0.0):
        bad = int(np.flatnonzero(ss <= 0.0)[0])
        raise ConstantColumn(f"column {bad} has zero variance")
    scale = np.sqrt(ss / (n - 1))
    return StandardizedDesign(x=centered / scale, mean=mean, scale=scale, q=int(q))


def load_schema(path) -> dict:
    """Read a JSON sidecar schema: outcome, conventional, novel, score columns."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            schema = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(schema, dict):
        raise SchemaMismatch(f"{path}: schema must be a JSON object")
    for key in ("outcome", "conventional"):
        if key not in schema:
            raise SchemaMismatch(f"schema missing required key {key!r}")
    schema.setdefault("novel", [])
    schema.setdefault("score", None)
    return schema


def _parse_column(rows, name):
    out = np.empty(len(rows), dtype=float)
    for i, row in enumerate(rows):
        cell = row[name].strip()
        if cell in MISSING_TOKENS:
            raise MissingValue(f"missing value in column {name!r}, data row {i + 1}")
        try:
            out[i] = float(cell)
        except ValueError as exc:
            raise ParseError(f"cannot parse {cell!r} in column {name!r}, row {i + 1}") from exc
        if not np.isfinite(out[i]):
            raise NonFiniteValue(f"non-finite value {cell!r} in column {name!r}, row {i + 1}")
    return out


def read_rows(path, columns) -> list[dict]:
    """Data rows of a UTF-8 CSV file with a header row, as dicts keyed by the
    header names with surrounding spaces stripped. The header must name every
    one of ``columns``. A file that cannot be opened raises ``OSError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file, header row required")
        header = [h.strip() for h in reader.fieldnames]
        rows = list(reader)
    if any(None in row.values() or None in row for row in rows):
        raise ParseError(f"{path}: ragged rows detected")
    for name in columns:
        if name not in header:
            raise SchemaMismatch(f"column {name!r} not present in {path}")
    return [{k.strip(): v for k, v in row.items()} for row in rows]


def load_dataset(path, schema: dict) -> RawDataset:
    """Load a UTF-8 CSV with a header row into a RawDataset.

    ``schema`` maps roles to column names: ``outcome`` (str), ``conventional``
    (list of str), ``novel`` (list of str) and optional ``score`` (str).
    """
    novel = list(schema.get("novel") or [])
    used = [schema["outcome"]] + list(schema["conventional"]) + novel
    if schema.get("score"):
        used.append(schema["score"])
    try:
        rows = read_rows(path, used)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    y = _parse_column(rows, schema["outcome"])
    z = np.column_stack([_parse_column(rows, c) for c in schema["conventional"]])
    if novel:
        b = np.column_stack([_parse_column(rows, c) for c in novel])
    else:
        b = np.empty((len(rows), 0))
    scores = _parse_column(rows, schema["score"]) if schema.get("score") else None
    return RawDataset(y=y, z=z, b=b, scores=scores)
