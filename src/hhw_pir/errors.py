"""Exception types shared across the package."""


class NotPrime(ValueError):
    """The claimed characteristic is not a prime number."""


class DegreeTooSmall(ValueError):
    """An extension degree is below the minimum the construction needs."""


class FieldTooLarge(ValueError):
    """The requested field exceeds the desk-scale sizes this package supports."""


class ReducibleModulus(ValueError):
    """A field modulus factors, so its quotient ring is not a field."""


class BadSplit(ValueError):
    """A basis split position is outside the open interval (0, s)."""


class IndexOutOfRange(IndexError):
    """A column or block index is outside its valid range."""


class RankDeficientGenerator(ValueError):
    """A generator matrix does not have full row rank."""


class NotInformationSet(ValueError):
    """The selected columns do not form an invertible submatrix."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling hit its retry cap; almost surely an RNG bug."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class DecodeFailure(RuntimeError):
    """Response decoding hit an inconsistency and cannot recover the file."""


class InvalidParams(ValueError):
    """A scheme parameter tuple violates its constraints."""


class BadArguments(ValueError):
    """Arguments to a counting function are out of range."""


class MatrixFileError(ValueError):
    """A serialized matrix file is malformed or truncated."""


class SelftestFailure(RuntimeError):
    """A check of the built-in selftest battery did not hold."""
