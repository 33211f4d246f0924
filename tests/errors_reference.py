"""Test-only reference: distset.errors as it was when each class wrote its own
__init__, kept verbatim below this docstring.

tests/test_errors.py builds every error of both modules from the same
arguments and requires the same message, args, repr, attributes and field
order; the templated classes add only BadDistancePair's `reason`.
"""

from __future__ import annotations


class DistSetError(Exception):
    """Base class for every error raised by this package."""


class AsymmetricMatrix(DistSetError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")


class NonzeroDiagonal(DistSetError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"dist[{i}][{i}] != 0")


class NonpositiveOffDiagonal(DistSetError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] <= 0 off the diagonal")


class TriangleViolation(DistSetError):
    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]")


class EmptySelection(DistSetError):
    def __init__(self) -> None:
        super().__init__("point selection is empty")


class IndexOutOfRange(DistSetError):
    def __init__(self, index: int, n: int):
        self.index, self.n = index, n
        super().__init__(f"point index {index} out of range for a space on {n} points")


class InvalidDescription(DistSetError):
    """A distance-set description component violates its parameter constraints."""


class UnsupportedDescription(DistSetError):
    """A description component is not of a known kind. Raised by
    DistanceSetDesc, the only place that checks component types."""


class NotRealizable(DistSetError):
    def __init__(self) -> None:
        super().__init__("the set is not the distance set of any Polish metric space")


class NonpositiveGlueDistance(DistSetError):
    def __init__(self) -> None:
        super().__init__("glue distance must be positive")


class InvalidTreeData(DistSetError):
    def __init__(self, clause: str):
        self.clause = clause
        super().__init__(f"tree data rejected: {clause}")


class BadDistancePair(DistSetError):
    def __init__(self, reason: str):
        super().__init__(f"need 0 < r < rp <= 2r: {reason}")


class GuardrailExceeded(DistSetError):
    def __init__(self, n: int, bound: int):
        self.n, self.bound = n, bound
        super().__init__(
            f"search on {n} points exceeds the guardrail of {bound}; "
            f"raise it explicitly or via DISTSET_MAX_POINTS"
        )


class ZeroNotInDomain(DistSetError):
    def __init__(self) -> None:
        super().__init__("tabulated function must include 0 in its domain")


class PoolExhausted(DistSetError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"no admissible pool value remains for input {point}")


class SpectrumNotInA(DistSetError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"space realizes distance {value} outside the allowed set")


class InvariantViolation(DistSetError):
    """A one-point extension does not satisfy the two-sided distance bounds,
    or a stage demand has no completion over A, which the 4-values condition
    rules out."""


class FourValuesFails(DistSetError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"four-values condition fails at (a, b, c, d, x) = {witness}")


class BudgetTooSmall(DistSetError):
    """Saturation was not reached within the size budget.

    Carries the partial stage so strict callers can still inspect it.
    """

    def __init__(self, result):
        self.result = result
        super().__init__(
            f"stage stalled unsaturated at {result.space.n} points; raise the size budget"
        )
