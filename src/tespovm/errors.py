"""Exception types shared across the pipeline."""


class SchemaError(ValueError):
    """A config or artifact file violates its schema."""


class CalibrationError(RuntimeError):
    """Histogram calibration could not produce a usable peak structure."""


class EstimationError(RuntimeError):
    """Likelihood estimation is impossible, e.g. every probe is degenerate."""


class LineageError(RuntimeError):
    """Artifacts produced by different pipeline runs were mixed."""
