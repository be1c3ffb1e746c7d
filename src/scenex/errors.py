"""Exception hierarchy shared across the package."""


class ScenexError(Exception):
    """Base class for all package errors."""


class GeometryError(ScenexError):
    """Degenerate or invalid planar geometry."""


class MapFormatError(ScenexError):
    """Map file fails to parse or violates structural invariants."""


class OffMapError(ScenexError):
    """A pose could not be matched to any lane within the matching distance."""


class RouteSelectionError(ScenexError):
    """A route selector index out of range, or no routes to select from."""


class SchemaError(ScenexError):
    """Track CSV or config file violates the documented schema."""


class InsufficientHistoryError(ScenexError):
    """Not enough frames before the requested current frame."""


class SynthParamError(ScenexError):
    """Synthetic scene template parameters out of range."""


class ModelError(ScenexError):
    """A behavior model could not produce a trajectory."""


class ChildRunError(ScenexError):
    """A child-scenario aborted; identifies the failing participant."""

    def __init__(self, track_id, step, model_kind, message):
        super().__init__(
            f"track {track_id} failed at step {step} (model {model_kind}): {message}"
        )
        self.track_id = track_id
        self.step = step
        self.model_kind = model_kind


class EnumerationCapError(ScenexError):
    """Exhaustive assignment enumeration would exceed the configured cap."""


class ConfigError(ScenexError):
    """Run configuration invalid."""
