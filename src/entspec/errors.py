"""Exception types shared across the package.

Each message starts with the class name less "Error", the short tag used in
error reports and exit-code messages.
"""


class EntspecError(Exception):
    def __init__(self, message=""):
        tag = type(self).__name__.removesuffix("Error")
        super().__init__(f"{tag}: {message}" if message else tag)


class ZeroStateError(EntspecError):
    pass


class BadCutError(EntspecError):
    pass


class UnnormalizedError(EntspecError):
    pass


class BadAlphaError(EntspecError):
    pass


class NoDecompositionError(EntspecError):
    pass


class EtaTooSmallError(EntspecError):
    pass


class TimeTooLongError(EntspecError):
    pass


class BelowThresholdError(EntspecError):
    pass


class TooLargeError(EntspecError):
    pass


class GapClosedError(EntspecError):
    pass


class DegenerateError(EntspecError):
    pass


class ZOutOfRangeError(EntspecError):
    pass


class MismatchError(EntspecError):
    pass


class IntermediateTooLargeError(EntspecError):
    pass


class StepTooCoarseError(EntspecError):
    pass


class CheckFailedError(EntspecError):
    pass
