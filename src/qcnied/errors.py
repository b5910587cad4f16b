"""Exception types shared across the package.

The CLI maps these onto exit codes: parse problems exit 2, domain
failures exit 1. A failed invariant check raises AssertionError, not
one of these, and exits 3, as does a surveillance trip.
"""


class QcniedError(Exception):
    """Base class for all package errors."""


# field construction / element handling

class ReducibleModulus(QcniedError):
    pass


class BadDegree(QcniedError):
    pass


class DivisionByZero(QcniedError):
    pass


class OutOfRange(QcniedError):
    pass


class BadDigit(QcniedError):
    pass


# shape mismatches

class SizeMismatch(QcniedError):
    pass


# condition checking / sampling

class EtaTooSmall(QcniedError):
    pass


class BudgetExhausted(QcniedError):
    pass


# enumeration guards

class TooLarge(QcniedError):
    pass


# cryptosystem

class WeightTooHigh(QcniedError):
    pass


class DecodeFailure(QcniedError):
    pass


# bound computations

class StructureViolation(QcniedError):
    pass


class InfeasibleSupport(QcniedError):
    pass


# file formats

class ParseError(QcniedError):
    pass
