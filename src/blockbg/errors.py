"""Exception types shared across the pipeline.

Everything raised deliberately by this package derives from PipelineError,
so callers (and the CLI) can separate pipeline failures from programming
errors. Bad argument *values* raise ValueError / IndexError as usual.
"""


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class PnmError(PipelineError):
    """Netpbm codec failure; the message names the defect."""


class SequenceTooShort(PipelineError):
    """A frame sequence needs at least two frames."""


class InconsistentSequence(PipelineError):
    """Frames in a sequence disagree on dimensions, or a frame's file
    changed after it was first read.

    ``index`` is the offending frame index.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class FrameTooSmall(PipelineError):
    """A frame or grid geometry fell below the supported minimum."""


class ShapeMismatch(PipelineError):
    """Two pixel regions that must agree on shape do not."""


class ModelIncomplete(PipelineError):
    """A background model with unsettled cells was used for subtraction."""


class SceneSpecError(PipelineError):
    """A benchmark scene description could not be parsed."""


class ConfigError(PipelineError):
    """Bad configuration input (CLI/config file); maps to usage exit code."""
