"""Exception types shared across the toolkit."""


class OneGraphError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(OneGraphError, ValueError):
    """Operand shapes or dtypes are incompatible."""


class RangeError(OneGraphError, ValueError):
    """A numeric range or domain precondition was violated."""


class GraphError(OneGraphError):
    """Structural problem in a compute graph."""


class CycleError(GraphError):
    """The graph contains a cycle."""


class CoverageError(OneGraphError):
    """A quantization profile does not cover a required tensor."""


class CalibrationError(OneGraphError):
    """Calibration cannot proceed (e.g. empty dataset)."""


class DivergenceError(OneGraphError):
    """Training diverged; carries the step whose loss or updated factors became non-finite."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class FormatError(OneGraphError):
    """A serialized artifact is malformed (magic, version, truncation, checksum)."""


class PackError(OneGraphError):
    """An adapter cannot be packed or does not match the model's slots."""


class BindError(OneGraphError):
    """Runtime adapter binding failed or a required binding is missing."""


class ModelSpecError(OneGraphError):
    """The textual model description could not be parsed."""
