"""Seeded benchmark inputs, generated with the benchmark's own numpy code.

The fit and LOOCV workloads draw data from the study-1b recipe:
z ~ N(0, I_4), b1 = 0.4 z1 + e1, b2 = 0.25 z1 + 0.5 z3 + 0.1 z4 + e2,
y = x beta_I + N(0, 1) with x = [z, b1, b2], external score = z beta_E.
The package never generates these inputs, so a change to it cannot change
them. Each run draws one input set per pass from (seed, workload, pass).
"""

from __future__ import annotations

import json
import os

import numpy as np

BETA_EXTERNAL = (1.0, 0.8, 0.6, 0.4)
BETA_INTERNAL = (1.0, 0.8, 0.6, 0.4, 0.5, 0.5)
Q = len(BETA_EXTERNAL)

# Stream keys keep the workloads' draws independent for one seed.
STREAMS = {"fit-n100": 1, "loocv-cli-n100": 2, "simulate-1b-marginal": 3}


def rng_for(workload, seed, pass_index):
    return np.random.default_rng([int(seed), STREAMS[workload], int(pass_index)])


def study1b(rng, n):
    """Return (x, y, scores) for n rows of the study-1b recipe."""
    z = rng.standard_normal((n, Q))
    e = rng.standard_normal((n, 2))
    b1 = 0.4 * z[:, 0] + e[:, 0]
    b2 = 0.25 * z[:, 0] + 0.5 * z[:, 2] + 0.1 * z[:, 3] + e[:, 1]
    x = np.column_stack([z, b1, b2])
    y = x @ np.asarray(BETA_INTERNAL) + rng.standard_normal(n)
    return x, y, z @ np.asarray(BETA_EXTERNAL)


COLUMNS = ("y", "z1", "z2", "z3", "z4", "b1", "b2", "score")
SCHEMA = {"outcome": "y", "conventional": ["z1", "z2", "z3", "z4"],
          "novel": ["b1", "b2"], "score": "score"}


def write_csv(directory, x, y, scores):
    """Write the data and its schema sidecar; repr() round-trips every float
    exactly, so the CLI reads back the very numbers held in memory."""
    os.makedirs(directory, exist_ok=True)
    data = os.path.join(directory, "data.csv")
    schema = os.path.join(directory, "schema.json")
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for i in range(y.shape[0]):
            row = (y[i], *x[i], scores[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(SCHEMA, fh)
    return data, schema
