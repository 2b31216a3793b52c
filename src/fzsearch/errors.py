"""Exception types shared across the toolkit."""


class FzError(Exception):
    """Base class for all toolkit errors."""


class EmptyKeyword(FzError):
    """Raised when normalization leaves no letters."""


class BadParameter(FzError):
    """Raised for parameter values outside the supported range."""


class AuthFailure(FzError):
    """Raised when an authenticated ciphertext fails to decrypt."""


class EditBoundExceeded(FzError):
    """Raised when a request's edit bound exceeds the index's build bound."""


class DuplicateUser(FzError):
    """Raised when enrolling a user id that already exists."""


class UnknownUser(FzError):
    """Raised when revoking a user id that was never enrolled."""


class BadMagic(FzError):
    """Raised when a file does not start with the expected magic bytes."""


class VersionUnsupported(FzError):
    """Raised when a file carries an unknown format version."""


class Truncated(FzError):
    """Raised when a file ends before its declared content."""


class BadResponse(FzError):
    """Raised when a server reply does not follow the wire protocol."""
