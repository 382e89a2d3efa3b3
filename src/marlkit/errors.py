"""Exception types shared across the toolkit.

These names are part of the public contract: environments, interfaces and the
harness raise them instead of bare ValueErrors so callers can tell a bad
action apart from a bad pipeline or a bad config.
"""


class MarlkitError(Exception):
    """Base class for all toolkit errors."""


class SpaceMismatch(MarlkitError):
    """A value does not satisfy the space it was checked against."""


class EpisodeOver(MarlkitError):
    """step() was called after done, or before the first reset()."""


class InvalidPartition(MarlkitError):
    """A slot partition is overlapping, non-covering, or not contiguous."""


class SetupError(MarlkitError):
    """An interface or wrapper could not be set up on the given specs."""


class ConfigError(MarlkitError):
    """An environment or harness configuration is invalid."""


class RegistryError(MarlkitError):
    """An unknown registry name was requested."""


class FormatError(MarlkitError):
    """A replay or config file could not be parsed."""


def add_context(exc: Exception, message: str, note: str, cause: BaseException | None) -> None:
    """Raise a MarlkitError again from cause as its class and attributes with message as
    its text, not running its __init__ again; note any other exception."""
    if isinstance(exc, MarlkitError):
        err = Exception.__new__(type(exc), message)
        err.__dict__.update(exc.__dict__)
        raise err from cause
    exc.add_note(note)
