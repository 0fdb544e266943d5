"""Exception hierarchy shared across the package.

Every error carries in ``report`` the axiom report behind it, if any (given by
keyword, None by default); the CLI's exit-1 error documents write it out.
"""


class LucekitError(Exception):
    """Base class for all package-specific errors."""

    def __init__(self, *args, report=None):
        super().__init__(*args)
        self.report = report


class UnknownChoiceSetError(LucekitError):
    """A choice set was queried that is not part of the relevant family."""


class SubsetViolationError(LucekitError):
    """A set argument is not contained in the set it must be a subset of."""


class FamilySizeError(LucekitError):
    """An enumeration-based operation refused a universe that is too large."""


class NotRationalError(LucekitError):
    """A correspondence (given or revealed) fails the weak axiom.

    ``report`` holds the failing WARP report; it is None when the support
    holds WARP but its pairs rank no weak order (the message names the set).
    """


class ChoiceAxiomError(LucekitError):
    """A rule required to satisfy the choice axiom does not.

    ``report`` holds the choice-axiom report with the blocking witnesses.
    """


class MissingPairsError(LucekitError):
    """Pairwise recovery needs a two-element set the family lacks."""


class DegenerateOddsError(LucekitError):
    """Within-class odds came out zero or infinite during weight recovery."""


class ReconstructionMismatchError(LucekitError):
    """Resynthesis from a decomposition failed to reproduce the input rule."""


class CountsOffSupportError(LucekitError):
    """A dataset assigns positive counts outside the given correspondence."""


class DocumentError(LucekitError):
    """A serialized document is malformed, or has unknown kind/version."""
