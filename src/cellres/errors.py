"""Exception hierarchy shared across the package.

Everything derives from CellresError so callers (and the CLI) can map
"input was bad" (exit 2) versus "a verified property failed" (exit 1).
"""


class CellresError(Exception):
    pass


class InputError(CellresError):
    """Malformed input or an operation bound exceeded; CLI exit code 2."""


class MalformedMonomial(InputError):
    pass


class DuplicateGenerator(InputError):
    pass


class NonMinimalGenerators(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class TooManyGenerators(InputError):
    pass


class SearchSpaceTooLarge(InputError):
    pass


class PreconditionError(CellresError):
    """A guarded mathematical precondition failed; CLI exit code 1."""


class NotInIdeal(PreconditionError):
    pass


class NotLinearQuotients(PreconditionError):
    pass


class NotRegular(PreconditionError):
    pass


class NotCointerval(PreconditionError):
    pass


class AlphaNotInSet(PreconditionError):
    pass


class DegenerateChain(PreconditionError):
    pass


class NotDegenerate(PreconditionError):
    pass


class SymbolNotInComplex(PreconditionError):
    pass


class VerificationError(CellresError):
    """A property that should hold by construction failed its check."""


class NonCommutingChainMap(VerificationError):
    pass


class OrientationClash(VerificationError):
    pass


class MismatchWithAlgebraicDifferential(VerificationError):
    pass


class NonMonotoneLabels(VerificationError):
    pass
