"""Shared exception types."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class NumericsError(ArithmeticError):
    """A forward computation produced NaN or Inf from finite inputs."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or incompatible."""


class DataError(ValueError):
    """An input data file is malformed."""
