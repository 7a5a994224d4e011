"""Exception types shared across the library.

Every failure mode that a caller can act on gets its own class; operations
never signal errors through sentinel return values.
"""


class RFlowError(Exception):
    """Base class for all library errors."""


class OutOfManifold(RFlowError):
    """Coordinates violate a hard chart constraint (e.g. left the unit disk)."""


class SingularBase(RFlowError):
    """A cross-section was requested at a point where the field vanishes."""


class BetaTooLarge(RFlowError):
    """Requested rescale factor exceeds the flow's admissible maximum."""


class GammaTooLarge(RFlowError):
    """Sphere radius factor exceeds the section radius."""


class Timeout(RFlowError):
    """Integration step budget exhausted (orbit likely stalls near a singularity)."""


class NoCrossing(RFlowError):
    """No section crossing was found inside the search window."""


class LeftTube(RFlowError):
    """A crossing exists but lies outside the section's rescaled radius."""

    def __init__(self, message, hit_time=None, offset=None):
        super().__init__(message)
        self.hit_time = hit_time
        self.offset = offset


class StepTooCoarse(RFlowError):
    """Orbit sampling step too large for the requested separation scale."""


class Saturated(RFlowError):
    """All entropy fit windows hit the sample-count ceiling; increase samples."""


class BudgetExhausted(RFlowError):
    """A point pair never separated within the horizon budget."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
