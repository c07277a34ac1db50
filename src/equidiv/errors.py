"""Shared exception types, and the default search budget."""


class EquidivError(Exception):
    """Base class for errors raised by this package."""


class FormatError(EquidivError):
    """Malformed input: bad file syntax, bad cycle notation, invalid table."""


class BudgetExceeded(EquidivError):
    """A search or enumeration exceeded its configured budget.

    Raised instead of guessing; callers can retry with a larger budget.
    """


#: Search nodes a solver run may use, unless ``--budget`` says otherwise.
DEFAULT_NODE_LIMIT = 10_000_000
