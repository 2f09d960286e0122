"""Error messages start with a stable tag: the class name less "Error"."""

import entspec.errors as errors

TAGS = [
    "ZeroState", "BadCut", "Unnormalized", "BadAlpha", "NoDecomposition", "EtaTooSmall",
    "TimeTooLong", "BelowThreshold", "TooLarge", "GapClosed", "Degenerate", "ZOutOfRange",
    "Mismatch", "IntermediateTooLarge", "StepTooCoarse",
    "CheckFailed",
]


def test_each_error_message_starts_with_its_tag():
    subclasses = errors.EntspecError.__subclasses__()
    assert sorted(cls.__name__ for cls in subclasses) == sorted(f"{t}Error" for t in TAGS)
    for tag in TAGS:
        cls = getattr(errors, f"{tag}Error")
        assert str(cls("why")) == f"{tag}: why"
        assert str(cls()) == tag
