"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "ParseError",
    "SupercatError",
]


class SupercatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SupercatError, ValueError):
    """A path string contains a character outside the chosen alphabet.

    ``index`` is the 0-based position of the offending character.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which leave out index
        return type(self), (self.args[0], self.index)


class DomainError(SupercatError, ValueError):
    """An argument lies outside an operation's documented domain."""
