"""Exception hierarchy shared across the toolkit."""


class TxbisimError(Exception):
    """Base class for all toolkit errors."""


class ParseError(TxbisimError):
    """Raised on malformed process or formula text.

    Carries the 1-based source position when one is known.
    """

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col

    @classmethod
    def at(cls, message, text, pos):
        """The error located at character offset ``pos`` of ``text``."""
        line_start = text.rfind("\n", 0, pos) + 1
        return cls(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


class UndefinedNameError(ParseError):
    """A process file refers to a name that is not in scope."""


class InvalidTermError(TxbisimError):
    """A term constructor was given arguments outside its contract."""


class UnguardedRecursionError(TxbisimError):
    """Unfolding a recursive call re-reached itself without consuming a prefix."""


class StateBudgetError(TxbisimError):
    """State-space exploration exceeded the configured budget."""

    def __init__(self, budget, frontier):
        super().__init__(
            f"state budget of {budget} exceeded; next unexplored state: {frontier}"
        )
        self.budget = budget
        self.frontier = frontier


class AlphabetLimitError(TxbisimError):
    """The environment alphabet is too large for subset enumeration."""


class MethodDisagreementError(TxbisimError):
    """The two independent decision procedures returned different verdicts."""


class WitnessError(TxbisimError):
    """A produced witness relation or formula failed its re-validation."""
