"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it: usage/config 1, data/format 2
(the default), numeric 3.
"""


class LangtailError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(LangtailError):
    """Invalid parameter combination or out-of-range argument."""

    exit_code = 1


class FormatError(LangtailError):
    """File does not carry the expected magic/version."""


class TruncationError(LangtailError):
    """File ended before the declared payload was complete."""


class DataError(LangtailError):
    """Payload violates a value-level invariant (non-finite, zero-norm, ...)."""


class IoError(LangtailError):
    """Underlying I/O failure while reading or writing an artifact."""


class ShapeError(LangtailError):
    """Operand dimensions do not agree."""


class DegenerateGraphError(LangtailError):
    """Graph has an isolated node; the normalized Laplacian is undefined."""


class EmptyMaskError(LangtailError):
    """Entity has no effective mask points in any scene."""


class EmptyBatchError(LangtailError):
    """Every item in the batch is ignored; the loss is undefined."""


class NumericError(LangtailError):
    """Non-finite loss or gradient during training, or a LAPACK eigensolver or
    SVD that did not converge."""

    exit_code = 3


class NormalizationError(LangtailError):
    """A feature row has (near-)zero norm and cannot be L2-normalized."""

    exit_code = 3
