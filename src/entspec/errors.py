"""Exception types shared across the package.

Each class carries the short tag used in error reports and exit-code
messages; the tag is the stable identifier, the class name is sugar.
"""


class EntspecError(Exception):
    tag = "Error"

    def __init__(self, message=""):
        super().__init__(f"{self.tag}: {message}" if message else self.tag)


class ZeroStateError(EntspecError):
    tag = "ZeroState"


class BadCutError(EntspecError):
    tag = "BadCut"


class UnnormalizedError(EntspecError):
    tag = "Unnormalized"


class BadAlphaError(EntspecError):
    tag = "BadAlpha"


class NoDecompositionError(EntspecError):
    tag = "NoDecomposition"


class EtaTooSmallError(EntspecError):
    tag = "EtaTooSmall"


class TimeTooLongError(EntspecError):
    tag = "TimeTooLong"


class BelowThresholdError(EntspecError):
    tag = "BelowThreshold"


class TooLargeError(EntspecError):
    tag = "TooLarge"


class GapClosedError(EntspecError):
    tag = "GapClosed"


class DegenerateError(EntspecError):
    tag = "Degenerate"


class ZOutOfRangeError(EntspecError):
    tag = "ZOutOfRange"


class MismatchError(EntspecError):
    tag = "Mismatch"


class UnsupportedLocalityError(EntspecError):
    tag = "UnsupportedLocality"


class IntermediateTooLargeError(EntspecError):
    tag = "IntermediateTooLarge"


class StepTooCoarseError(EntspecError):
    tag = "StepTooCoarse"


class BoundVacuousError(EntspecError):
    tag = "BoundVacuous"
