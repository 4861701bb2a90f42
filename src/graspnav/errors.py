"""Exception hierarchy shared across the package.

Everything raised on purpose derives from GraspNavError so callers can
catch one base type at the CLI boundary and map it to an exit code.
"""


class GraspNavError(Exception):
    """Base class for all errors raised by this package."""


class FileFormatError(GraspNavError):
    """A file on disk failed structural validation; message names the record."""


class ConfigError(GraspNavError):
    """A config block or scene spec contained unknown or invalid fields."""


class InvalidRotationError(GraspNavError):
    """A 3x3 matrix is not a proper rotation (orthonormal, det +1)."""


class InvalidDepthError(GraspNavError):
    """A depth value is zero or negative where a positive depth is required."""


class OutOfBoundsError(GraspNavError):
    """A pixel coordinate or index lies outside its valid range."""


class BehindCameraError(GraspNavError):
    """A point to project lies on or behind the camera plane."""


class DegenerateInputError(GraspNavError):
    """Input has too few points or no spatial extent for the operation."""


class DegenerateGeometryError(GraspNavError):
    """A direction vector required to be nonzero has (near) zero length."""


class DegenerateBBoxError(GraspNavError):
    """A bounding box has zero area where positive area is required."""


class NoPlaneFoundError(GraspNavError):
    """Plane search ended below the minimum inlier fraction."""


class UnsupportedQueryError(GraspNavError):
    """No instance in the scene carries an embedding to query against."""


class InstanceNotFoundError(GraspNavError):
    """An instance id is not present in the scene."""


class EmptySceneError(GraspNavError):
    """No obstacle points remain after the requested exclusions."""


class StageError(GraspNavError):
    """A planning stage left nothing to continue with; ``reason`` names the
    failure in episode reports."""

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class LocalizationError(StageError):
    """The queried object could not be localized in the scene."""


class NoGraspError(StageError):
    """No grasp candidates remain to select from."""


class NoPoseError(StageError):
    """No valid body candidates remain to select from."""


class InvalidAxisError(GraspNavError):
    """A motion axis is unusable for the requested plan (near vertical)."""


class MissingDepthError(GraspNavError):
    """A detection region contains no valid depth samples."""


class GenerationError(GraspNavError):
    """Synthetic scene generation could not satisfy its constraints."""
