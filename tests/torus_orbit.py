"""Closed-form orbits of the solid torus flow, the oracle of several tests.

dx/dt = rho(x) = min(|x|, 1), x reduced to [-2, 2). The orbit time tau(x)
below has dtau/dt = 1 on every piece: exponential growth on (0, 1], unit
speed through [1, 2) and [-2, -1], exponential decay on [-1, 0). The disk
x = 0 is singular, and transverse coordinates never move.
"""

import math


def orbit_time(x):
    """tau(x) for x off the singular disk; x = 1 at tau = 0."""
    x = (x + 2.0) % 4.0 - 2.0
    if 0.0 < x <= 1.0:
        return math.log(x)
    if x > 1.0:
        return x - 1.0
    if x <= -1.0:
        return x + 3.0
    return 2.0 - math.log(-x)


def orbit_x(tau):
    """The x coordinate, in [-2, 2), at orbit time tau."""
    if tau <= 0.0:
        return math.exp(tau)
    if tau < 1.0:
        return tau + 1.0
    if tau <= 2.0:
        return tau - 3.0
    return -math.exp(2.0 - tau)


def x_after(x0, t):
    """The x coordinate time t after x0."""
    return orbit_x(orbit_time(x0) + t)
