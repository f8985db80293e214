"""Exception hierarchy shared by all modules.

Every error raised by the package derives from EksftError so callers (the
CLI in particular) can map failures to exit codes: ConfigError means the
user gave us something unusable (exit 2), everything else is a runtime
failure (exit 1).
"""


class EksftError(Exception):
    """Base class for all package errors."""


class ConfigError(EksftError):
    """Invalid configuration value or combination."""


class InputError(EksftError):
    """Invalid runtime input (bad token ids, malformed distributions, ...)."""


class DimensionError(InputError):
    """Tensor shape mismatch at a kernel boundary."""


class LengthError(InputError):
    """Sequence exceeds the model's context window."""


class NumericError(EksftError):
    """Non-finite value where a finite one is required."""


class CheckpointError(EksftError):
    """Base class for checkpoint load failures."""


class ManifestError(CheckpointError):
    """Checkpoint manifest is missing, malformed, or fails its hash check."""


class ShapeMismatchError(CheckpointError):
    """Stored tensor shapes disagree with the manifest or the config."""


class TruncatedBlobError(CheckpointError):
    """Weight blob missing, or its length differs from what the manifest promises."""


class GenerationError(EksftError):
    """Dataset generation cannot satisfy the requested spec."""


class TokenizationError(InputError):
    """Text contains a character outside the vocabulary."""


class ExportError(EksftError):
    """Report/plot export failed (e.g. required CSV column missing)."""
