"""Exception types shared across the package."""


class SkmError(Exception):
    """Base class for data and numeric errors raised by this library."""


class DataFormatError(SkmError):
    """Malformed CSV file or model file."""


class KernelSpecError(SkmError):
    """Invalid kernel parameters or an unsupported family/space combination."""


class DegenerateDataError(SkmError):
    """Data has no spread, so a bandwidth heuristic would return zero."""
