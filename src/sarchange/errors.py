"""Exception types shared across the package."""


class ChangeDetectionError(Exception):
    """Base class for every error raised by this package."""


class FormatError(ChangeDetectionError):
    """A file does not conform to its declared format."""


class TruncationError(FormatError):
    """A file's payload disagrees in size with what its header promises."""


class ShapeError(ChangeDetectionError):
    """Array dimensions disagree with what an operation requires."""


class ParameterError(ChangeDetectionError):
    """A parameter or input value is outside its allowed range."""


class DegenerateTrainingError(ChangeDetectionError):
    """Training data holds no labeled pixel or no varying feature."""


class ConvergenceError(ChangeDetectionError):
    """An iterative solver ran out of steps or broke its own invariant."""


class PipelineStageError(ChangeDetectionError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
