"""rflowlab: a numerical laboratory for rescaled expansiveness of flows.

Rescaled cross-sections and holonomy maps, local R-stable/R-unstable sets
on membership grids, expansiveness and uniform-expansiveness scans, and
topological entropy estimation via separated sets, with three built-in
reference flows (a singular solid-torus flow, the cat-map suspension, and
a rigid rotation).
"""

from .errors import (
    BetaTooLarge,
    BudgetExhausted,
    GammaTooLarge,
    LeftTube,
    NoCrossing,
    OutOfManifold,
    RFlowError,
    Saturated,
    SingularBase,
    StepTooCoarse,
    Timeout,
)
from .flows import (
    FLOW_NAMES,
    FlowSpec,
    LAMBDA_MINUS,
    LAMBDA_PLUS,
    RescaleConstants,
    field_norm,
    get_flow,
    sample_points,
)
from .geometry import ModelManifold, Point

__version__ = "0.1.0"
