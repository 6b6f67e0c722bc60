"""Exception types shared across the power-delivery model."""


class PdnxError(Exception):
    """Base class for all model errors."""


class ZeroConnections(PdnxError):
    """A parallel via field was requested with zero connections."""


class LoadExceedsRating(PdnxError):
    """A converter was asked for more output current than its rating."""


class MarginExceeded(PdnxError):
    """Periphery placement needs more ring depth than the interposer margin."""


class AreaExceeded(PdnxError):
    """Under-die placement occupies more than the full die shadow."""


class DegenerateGrid(PdnxError):
    """Two VR sites collapse onto one grid node even after refinement."""


class SingularSystem(PdnxError):
    """The resistive grid has nodes unreachable from any source."""


class Unsatisfiable(PdnxError):
    """The requested operating point does not exist.

    Raised when a two-stage plan's intermediate plane has no operating
    point (its losses grow faster than the power the stage passes on), and
    when a stage's plane passes on no power or one of its VRs draws
    negative power.
    """


class TargetUnreachable(PdnxError):
    """Calibration search could not reach the requested target.

    The message includes the best residual found so the caller can decide
    whether the partial result is usable.
    """

    def __init__(self, message: str, best_value: float | None = None,
                 best_residual: float | None = None):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual


class ConfigError(PdnxError):
    """Bad run configuration (unknown dataset, unparseable field, bad units)."""
