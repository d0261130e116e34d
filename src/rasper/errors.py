"""Exception hierarchy shared across the package."""


class RasperError(Exception):
    """Base class for all package errors."""


class EmptyData(RasperError):
    pass


class ConstantColumn(RasperError):
    """A covariate column has zero sample variance and must be dropped."""


class NonFiniteScore(RasperError):
    pass


class NonFiniteValue(RasperError):
    """A data cell, design entry or outcome is NaN or infinite."""


class InvalidValue(RasperError, ValueError):
    """A value is out of its allowed range, such as a nonpositive time."""


class ParseError(RasperError):
    pass


class SchemaMismatch(RasperError):
    pass


class MissingValue(RasperError):
    pass


class DegenerateWeights(RasperError):
    """All pairwise concordance weights are zero: no rank information."""


class DimensionMismatch(RasperError):
    pass


class SingularDesign(RasperError):
    pass


class NonpositiveConcordance(RasperError):
    pass


class NonSPDSystem(RasperError):
    """The MM linear system lost positive definiteness (indicates a weight bug)."""


class SingularSystem(RasperError):
    pass


class InvalidBounds(RasperError):
    pass


class FoldFailure(RasperError):
    """One or more leave-one-out folds failed to fit."""
