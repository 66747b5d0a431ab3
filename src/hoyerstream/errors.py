"""Shared exception types."""


class DimensionError(ValueError):
    """A matrix or frame has the wrong shape for the requested operation."""


class FrameFormatError(ValueError):
    """An on-disk matrix or frame file is malformed."""
