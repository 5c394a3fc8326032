"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class ConfigError(ValidationError):
    """A run configuration is malformed or out of range."""


class FormatError(Exception):
    """Base class for file-format parse failures."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class BadVersionError(FormatError):
    """File carries an unsupported format version."""


class TruncatedFileError(FormatError):
    """File body is shorter than the header promises."""


class NonzeroPaddingError(FormatError):
    """Padding bits in the final byte of a bit file are not zero."""


class BadSymbolError(FormatError):
    """Trace body contains a byte outside the defined symbol values."""


class BitSourceExhaustedError(RuntimeError):
    """A bit source ran out of bits mid-computation."""
