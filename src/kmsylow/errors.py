"""Exception hierarchy shared across the toolkit."""


class KmError(Exception):
    """Base class for all toolkit errors."""


class GcmError(KmError):
    """A matrix failed generalized-Cartan validation."""

    def __init__(self, message, s=None, t=None):
        super().__init__(message)
        self.s = s
        self.t = t


class DiagonalNotTwo(GcmError):
    pass


class PositiveOffDiagonal(GcmError):
    pass


class AsymmetricZero(GcmError):
    pass


class UnknownLabel(KmError):
    pass


class ZeroVector(KmError):
    pass


class NotPositiveRealRoot(KmError):
    pass


class CharacteristicTooSmall(KmError):
    pass


class HeightExceedsCutoff(KmError):
    pass


class HypothesisViolated(KmError):
    pass


class EnumerationCapExceeded(KmError):
    pass


class ChainNotNested(KmError):
    pass


class NotAFiltration(KmError):
    """A leading-term map does not come from a central filtration with
    elementary abelian layers."""


class TruncationTooShallow(KmError):
    pass
