"""Domain errors. Validation failures always name their first witness.

A subclass states its message as a `str.format` template, whose names in order
of first use (the root name for `{result.space.n}`) are its fields: passed
positionally or by name, kept as attributes, and with the error's `__dict__`
all it needs to rebuild, so `pickle` and `copy` give an equal error, notes
included. A class without a template takes a message, as `Exception` does.
"""

import re
from inspect import Parameter, Signature


class DistSetError(Exception):
    """Base class for every error raised by this package."""

    template: str | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "template" in cls.__dict__:
            names = dict.fromkeys(re.findall(r"\{(\w+)", cls.template))
            kind = Parameter.POSITIONAL_OR_KEYWORD
            cls.__signature__ = Signature([Parameter(name, kind) for name in names])

    def __init__(self, *args, **kwargs) -> None:
        if self.template is None:
            super().__init__(*args, **kwargs)
            return
        fields = self.__signature__.bind(*args, **kwargs).arguments
        self.__dict__.update(fields)
        super().__init__(self.template.format(**fields))

    def __reduce__(self):
        if self.template is None:
            return type(self), self.args, self.__dict__
        return type(self), tuple(map(self.__dict__.get, self.__signature__.parameters)), self.__dict__


class AsymmetricMatrix(DistSetError):
    template = "dist[{i}][{j}] != dist[{j}][{i}]"


class NonzeroDiagonal(DistSetError):
    template = "dist[{i}][{i}] != 0"


class NonpositiveOffDiagonal(DistSetError):
    template = "dist[{i}][{j}] <= 0 off the diagonal"


class TriangleViolation(DistSetError):
    template = "dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]"


class EmptySelection(DistSetError):
    template = "point selection is empty"


class IndexOutOfRange(DistSetError):
    template = "point index {index} out of range for a space on {n} points"


class InvalidDescription(DistSetError):
    """A distance-set description component violates its parameter constraints."""


class UnsupportedDescription(DistSetError):
    """A description component is not of a known kind. Raised by
    DistanceSetDesc, the only place that checks component types."""


class NotRealizable(DistSetError):
    template = "the set is not the distance set of any Polish metric space"


class NonpositiveGlueDistance(DistSetError):
    template = "glue distance must be positive"


class InvalidTreeData(DistSetError):
    template = "tree data rejected: {clause}"


class BadDistancePair(DistSetError):
    template = "need 0 < r < rp <= 2r: {reason}"


class GuardrailExceeded(DistSetError):
    template = (
        "search on {n} points exceeds the guardrail of {bound}; "
        "raise it explicitly or via DISTSET_MAX_POINTS"
    )


class ZeroNotInDomain(DistSetError):
    template = "tabulated function must include 0 in its domain"


class PoolExhausted(DistSetError):
    template = "no admissible pool value remains for input {point}"


class SpectrumNotInA(DistSetError):
    template = "space realizes distance {value} outside the allowed set"


class InvariantViolation(DistSetError):
    """A one-point extension does not satisfy the two-sided distance bounds,
    or a stage demand has no completion over A, which the 4-values condition
    rules out."""


class FourValuesFails(DistSetError):
    template = "four-values condition fails at (a, b, c, d, x) = {witness}"


class BudgetTooSmall(DistSetError):
    """Saturation was not reached within the size budget; `result` is the partial stage."""

    template = "stage stalled unsaturated at {result.space.n} points; raise the size budget"
