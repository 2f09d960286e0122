"""The package's one exception type: an input it refuses or a numeric outcome."""


class EntspecError(Exception):
    pass
