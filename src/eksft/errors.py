"""Exception hierarchy shared by all modules.

Every error raised by the package derives from EksftError so callers (the
CLI in particular) can map failures to exit codes: ConfigError means the
user gave us something unusable (exit 2), everything else is a runtime
failure (exit 1). `check_field_types` is the one type check of the config
dataclasses, and the one place where a float field given as an integer
becomes a float.
"""

import dataclasses

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


class EksftError(Exception):
    """Base class for all package errors."""


class ConfigError(EksftError):
    """Invalid configuration value or combination."""


def check_field_types(config) -> None:
    """Raise ConfigError naming the first field of dataclass `config` whose value
    is not of its default's type. An int field takes no bool; a float field
    takes an int too, but no bool, and stores it as a float, so `1` and `1.0`
    make one config; str and bool fields take only their own type."""
    for f in dataclasses.fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
            raise ConfigError(f"{f.name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if kind is float:
            object.__setattr__(config, f.name, float(value))  # the dataclasses are frozen


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
    """Manifest missing, malformed or unlike its config's, or the blob's digest is not its sha256."""


class ShapeMismatchError(CheckpointError):
    """Stored tensor shapes disagree with the manifest or the config."""


class TruncatedBlobError(CheckpointError):
    """Weight blob missing, or its length differs from the manifest's total_nbytes (8 per float64)."""


class GenerationError(EksftError):
    """Dataset generation cannot satisfy the requested spec."""


class TokenizationError(InputError):
    """Text contains a character outside the vocabulary."""


class ExportError(EksftError):
    """Report/plot export failed (e.g. required CSV column missing)."""
