"""Rank-association-penalized regression (RASPER): fit linear risk models
while penalizing discordance with an external model's risk rankings."""

from .concordance import (
    ConcordanceSpec,
    PairWeights,
    build_marginal_sampler,
    jj_coefficient,
    pair_weights,
)
from .data_model import (
    ExternalRanks,
    RawDataset,
    StandardizedDesign,
    external_ranks,
    load_dataset,
    standardize,
)
from .selection import HyperGrid, SelectionReport, build_grid, degrees_of_freedom, loocv_score, select
from .solver import (
    FitResult,
    PenalizedProblem,
    default_nu,
    fit_rasper,
    mm_step,
    penalized_objective,
)
from .survival import NomogramInput, SurvivalSample, km_curve, nomogram_score, pseudovalues, rmst

__all__ = [
    "ConcordanceSpec", "PairWeights", "build_marginal_sampler", "pair_weights",
    "ExternalRanks", "RawDataset", "StandardizedDesign", "external_ranks",
    "load_dataset", "standardize",
    "HyperGrid", "SelectionReport", "build_grid", "degrees_of_freedom",
    "loocv_score", "select",
    "FitResult", "PenalizedProblem", "default_nu", "fit_rasper",
    "jj_coefficient", "mm_step", "penalized_objective",
    "NomogramInput", "SurvivalSample", "km_curve", "nomogram_score",
    "pseudovalues", "rmst",
]

__version__ = "0.1.0"
