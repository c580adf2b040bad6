"""The package's one exception type."""


class BiftError(Exception):
    """An input the package refuses: the front-end prints its message as
    one ``error:`` line and exits 2."""
