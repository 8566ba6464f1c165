"""Exception types shared across the package.

Each class carries the process exit code the command line front end
returns for it, so new failure modes should get their own class here
rather than a bare ValueError.  A subclass inherits its parent's code
unless it sets its own.
"""


class FloparrError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class ParseFailure(FloparrError):
    """User input that did not parse, or a file that could not be read or written."""

    exit_code = 2


class InvalidType(ParseFailure):
    """Family outside {A, D, E}, rank out of bounds, or bad node ids."""


class EmptySurvivingSet(FloparrError):
    """Every node was contracted; no coordinates survive."""

    exit_code = 3


class MixedKinds(FloparrError):
    """Product of a central and a windowed arrangement, or unequal radii."""


class UnknownChamber(FloparrError):
    """Chamber id outside the enumerated graph."""

    exit_code = 5


class NonComposable(FloparrError):
    """Paths or words whose endpoints do not match up."""


class Unreachable(FloparrError):
    """No positive path between the requested chambers."""


class Overflow(FloparrError):
    """An enumeration, a window, a rank or a dimension exceeded its cap, or a
    number has more digits than Python will write."""

    exit_code = 4


class MissingEdgeAssignment(FloparrError):
    """A representation check needs a group element for every edge."""


class BaseMismatch(FloparrError):
    """Groupoid words compared from different base chambers or endpoints."""


class NotRankTwo(FloparrError):
    """Plotting is defined for two-dimensional arrangements only."""

    exit_code = 6
