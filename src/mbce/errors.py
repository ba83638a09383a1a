"""Exception types shared across the package."""

from __future__ import annotations

import sys


class MbceError(Exception):
    """Base class for every input or verdict error raised by this package."""


class NumberTooLong(MbceError):
    """A value has more digits than Python converts between int and str, so
    it can be printed into no report, and no report holding it could be read."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(
            f"a value has more than {limit} digits, the limit of Python's int-string"
            " conversion (sys.get_int_max_str_digits()); no report can hold it"
        )


class InternalDisagreement(Exception):
    """Two routes that agree on paper disagreed, or a solver invariant broke.

    A bug, never an input problem, so deliberately not an MbceError: nothing
    that relabels input errors may swallow it, and the CLI maps it to exit 4.
    Raised explicitly (not by ``assert``) so ``python -O`` keeps the check.
    """


class EmptySpace(MbceError):
    """A game was declared with no states or no actions."""


class RepeatedLabel(MbceError):
    """Two states or two actions of a game share a label; reports name rows
    by label, so each must name one row."""


class DimensionMismatch(MbceError):
    """Two objects that must share a shape do not."""


class NotADistribution(MbceError):
    """A probability vector has a negative entry or does not sum to one."""


class ZeroPriorState(MbceError):
    """The prior puts zero mass on some state; conditioning would divide by it."""


class StateMarginalMismatch(MbceError):
    """An outcome's state marginal differs from the prior it is paired with."""


class EmptyPolytope(MbceError):
    """An optimization was requested over a polytope with no points."""


class UnsupportableAction(MbceError):
    """An action carrying positive mass is optimal at no belief."""

    def __init__(self, action: int):
        self.action = action
        super().__init__(f"action {action} is optimal at no belief but carries positive mass")


class InfeasibleFlow(MbceError):
    """A decision rule was requested from a flow that does not meet all demands."""


class CoreViolation(MbceError):
    """The menu weights exceed the action mass available on some subset."""

    def __init__(self, subset: frozenset[int], deficit):
        self.subset = subset
        self.deficit = deficit
        super().__init__(
            f"menu mass inside {sorted(subset)} exceeds the action mass on it by {-deficit}"
        )


class NotBayesPlausible(MbceError):
    """The posterior distribution does not average back to the prior."""


class ImplementationInfeasible(MbceError):
    """No decision rule paired with the given posteriors yields the target marginal."""

    def __init__(self, subset: frozenset[int], deficit):
        self.subset = subset
        self.deficit = deficit
        super().__init__(
            f"posteriors confined to actions {sorted(subset)} carry more mass than the"
            f" target marginal grants them (excess {-deficit})"
        )


class TooManyActionsForSubsetCheck(MbceError):
    """Subset enumeration over the action set was refused as too large."""


class ProductTooLarge(MbceError):
    """The product action space exceeds the profile cap."""


class StageMarginalMismatch(MbceError):
    """Adjacent stage outcomes disagree on the marginal they must share."""


class InvalidGeneratorInput(MbceError):
    """A seeded generator was given a count or size it cannot draw from."""


class ParseError(MbceError):
    """An input document could not be parsed; carries the document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ValidationError(MbceError):
    """An input document parsed but violates a structural requirement."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
