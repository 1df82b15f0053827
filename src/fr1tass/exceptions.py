"""Exception types shared across the workbench."""


class Fr1tassError(Exception):
    """Base class for all workbench errors."""


class ModeError(Fr1tassError):
    """Operation applied to a machine in the wrong acceptance mode."""


class AlphabetMismatchError(Fr1tassError):
    """Two machines were combined but their input alphabets differ."""


class ErasingInputError(Fr1tassError):
    """Operation requires a non-erasing machine but got erasing transitions."""


class PcpInstanceError(Fr1tassError):
    """Malformed correspondence-problem instance."""


class IndexOutOfRangeError(Fr1tassError, IndexError):
    """Candidate index sequence is empty or references a missing word pair."""


class PreconditionError(Fr1tassError):
    """Input machine does not satisfy an operation's precondition."""


class LimitExceededError(Fr1tassError):
    """Caller-imposed step budget ran out before the run reached a verdict."""
