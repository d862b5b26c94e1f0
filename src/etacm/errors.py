"""Exception hierarchy shared by all modules.

PreconditionError maps to CLI exit code 2, PrecisionExhausted to 3.
"""


class EtaCMError(Exception):
    """Base class for all library errors."""


class PreconditionError(EtaCMError, ValueError):
    """An operation's stated precondition does not hold for the given input."""


class InvalidDiscriminant(PreconditionError):
    pass


class InvalidB(PreconditionError):
    pass


class NoSolution(PreconditionError):
    pass


class ConditionsViolated(PreconditionError):
    pass


class NoTrace(PreconditionError):
    pass


class NoRationalJRoot(EtaCMError):
    pass


class ZeroConstantTerm(PreconditionError):
    pass


class WrongDegree(PreconditionError):
    pass


class MalformedHeader(EtaCMError, ValueError):
    pass


class CoefficientParseFailure(EtaCMError, ValueError):
    pass


class InterpolationSingular(EtaCMError):
    pass


class PrecisionExhausted(EtaCMError):
    """A certified error bound could not be met within the precision budget."""
