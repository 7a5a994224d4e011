"""Flow map, orbit sampling, and event-located section crossings.

One integrator serves every caller: an adaptive embedded Dormand-Prince
5(4) pair with error-per-unit-step control (local error <= tol * h per
accepted step, so roughly tol per unit time) that advances a batch of
points together. Every catalog field is invariant under the deck maps of
its manifold, so states are carried in the universal cover of the chart
and wrapped into the fundamental domain only on output; crossing the glued
fiber of a mapping torus needs no special handling during a step.

Section crossings use standard event location on the exact flow (Hairer,
Norsett and Wanner, Solving ODEs I, section II.6): the plane function is
evaluated at the integrated states of a scan grid, the first sign change
is bracketed, and a bracketed secant polishes the root against exact
re-integration until the residual meets the event tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeftTube, NoCrossing, Timeout
from .geometry import Point, _readonly

T_MAX_DEFAULT = 200.0
DEFAULT_TOL = 1e-9
MAX_STEPS_DEFAULT = 200_000

# Dormand-Prince 5(4) tableau
_A21 = 1 / 5
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


@dataclass
class OrbitSegment:
    """Dense orbit samples: strictly monotone times, canonical points."""

    times: np.ndarray
    points: list
    step_tolerance: float


@dataclass
class CrossingEvent:
    """A located section-plane crossing."""

    hit_point: Point
    hit_time: float
    residual: float
    offset_coords: np.ndarray | None = None
    offset_norm: float | None = None


def _rk_step(fn, y, f0, h):
    """One DP5(4) step; returns (y_new, f_new, err_inf). f_new is FSAL."""
    k1 = f0
    k2 = fn(y + h * (_A21 * k1))
    k3 = fn(y + h * (_A3[0] * k1 + _A3[1] * k2))
    k4 = fn(y + h * (_A4[0] * k1 + _A4[1] * k2 + _A4[2] * k3))
    k5 = fn(y + h * (_A5[0] * k1 + _A5[1] * k2 + _A5[2] * k3 + _A5[3] * k4))
    k6 = fn(y + h * (_A6[0] * k1 + _A6[1] * k2 + _A6[2] * k3 + _A6[3] * k4
                     + _A6[4] * k5))
    y5 = y + h * (_B5[0] * k1 + _B5[2] * k3 + _B5[3] * k4 + _B5[4] * k5
                  + _B5[5] * k6)
    k7 = fn(y5)
    err = h * (_ERR[0] * k1 + _ERR[2] * k3 + _ERR[3] * k4 + _ERR[4] * k5
               + _ERR[5] * k6 + _ERR[6] * k7)
    return y5, k7, float(np.max(np.abs(err)))


def _initial_step(y, f0, duration):
    scale = (1.0 + float(np.max(np.abs(y)))) / (1.0 + float(np.max(np.abs(f0))))
    return min(duration, max(1e-8, 0.01 * scale))


def flow_map(f, x: Point, t: float, tol: float = DEFAULT_TOL,
             max_steps: int = MAX_STEPS_DEFAULT, t_max: float = T_MAX_DEFAULT) -> Point:
    """The flow of ``f`` applied to ``x`` for signed time ``t``.

    phi_0 is the identity exactly; |t| must not exceed ``t_max``.
    """
    if abs(t) > t_max:
        raise ValueError(f"|t|={abs(t)} exceeds t_max={t_max}")
    if t == 0.0:
        return x
    y = orbit_batch(f, x.coords[None], np.array([t]), tol, max_steps)[0, 0]
    return Point(_readonly(y))


def _states_at(f, coords, times, tol, max_steps):
    """Wrapped states of one orbit at strictly increasing times of any sign."""
    out = np.empty((times.size, coords.size))
    neg = times < 0
    if np.any(neg):
        out[neg] = orbit_batch(f, coords[None], times[neg][::-1], tol,
                               max_steps)[0, ::-1]
    if not np.all(neg):
        out[~neg] = orbit_batch(f, coords[None], times[~neg], tol, max_steps)[0]
    return out


def orbit(f, x: Point, times, tol: float = DEFAULT_TOL,
          max_steps: int = MAX_STEPS_DEFAULT) -> OrbitSegment:
    """Sample the orbit of x at strictly monotone times (any sign, 0 allowed)."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    states = _states_at(f, x.coords, times, tol, max_steps)
    return OrbitSegment(times=times, points=[Point(_readonly(s)) for s in states],
                        step_tolerance=tol)


def orbit_batch(f, coords, times, tol: float = DEFAULT_TOL,
                max_steps: int = MAX_STEPS_DEFAULT):
    """Sample many orbits at shared times; returns wrapped (n, m, d) array.

    Runs in the universal cover with shared adaptive steps (error controlled
    by the worst point of the batch); steps are shortened to land on each
    sample time. Times must be monotone away from zero, single sign.
    """
    coords = np.asarray(coords, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.empty((coords.shape[0], times.size, coords.shape[1]))
    if times.size == 0:
        return out
    signs = np.sign(times[np.abs(times) > 0])
    if signs.size and (np.any(signs > 0) and np.any(signs < 0)):
        raise ValueError("orbit_batch times must share one sign")
    sign = 1.0 if (signs.size == 0 or signs[0] > 0) else -1.0
    abst = np.abs(times)
    if np.any(np.diff(abst) <= 0):
        raise ValueError("orbit_batch times must be monotone away from zero")

    def fn(y):
        return sign * f.field(y)

    y = coords.copy()
    f0 = fn(y)
    h = _initial_step(y, f0, float(abst[-1]) if abst[-1] > 0 else 1.0)
    s = 0.0
    steps = 0
    for j, target in enumerate(abst):
        while s < target - 1e-14:
            if steps >= max_steps:
                raise Timeout(f"{f.name}: batch step budget exhausted at t={s:.6g}")
            hh = min(h, target - s)
            y_new, f_new, err = _rk_step(fn, y, f0, hh)
            steps += 1
            if err > tol * hh and hh > 1e-13:
                h = hh * max(0.2, 0.9 * (tol * hh / err) ** 0.2)
                continue
            s += hh
            y, f0 = y_new, f_new
            h = hh * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol * hh / err) ** 0.2)))
        out[:, j, :] = y
    return f.manifold.wrap_array(out)


def first_crossing(f, y: Point, target, window, direction: str = "forward",
                   tol: float = DEFAULT_TOL, event_tol: float = 1e-10,
                   radius_slack: float = 1.0, max_steps: int = MAX_STEPS_DEFAULT,
                   t_max: float = T_MAX_DEFAULT) -> CrossingEvent:
    """First crossing of the target section plane inside a time window.

    The plane function is g(s) = <phi_s(y) - base, n> with n the unit field
    direction at the target base. It is evaluated at the integrated states
    of a 0.01-spaced grid over the window; the scan (forward: ascending,
    backward: descending) brackets the first sign change, and a bracketed
    secant (Illinois) polishes the root by re-integrating from the grid
    state at the bracket's first end. The result has |g| <= event_tol, or
    NoCrossing is raised. A hit farther than radius_slack times the section
    radius from the base raises LeftTube.
    """
    w_lo, w_hi = float(window[0]), float(window[1])
    if w_hi < w_lo:
        raise ValueError("window must be (lo, hi) with lo <= hi")
    if max(-w_lo, w_hi) > t_max:
        raise ValueError(f"window reaches beyond |t| = t_max = {t_max}")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    m = f.manifold
    base = target.frame.base.coords
    nhat = target.frame.field_dir

    n_grid = int(math.ceil((w_hi - w_lo) / 0.01)) + 1
    grid = np.linspace(w_lo, w_hi, n_grid)
    states = _states_at(f, y.coords, grid, tol, max_steps)
    disps = m.displacement(base, states)
    gvals = disps @ nhat
    if direction == "backward":
        grid, states, disps, gvals = grid[::-1], states[::-1], disps[::-1], gvals[::-1]
    hits = np.abs(gvals) <= event_tol
    changes = np.zeros(n_grid, dtype=bool)
    changes[1:] = (gvals[1:] > 0) != (gvals[:-1] > 0)
    first = np.flatnonzero(hits | changes)
    if first.size == 0:
        raise NoCrossing(f"{f.name}: no section crossing in window "
                         f"[{w_lo:.6g}, {w_hi:.6g}]")
    i = int(first[0])
    if hits[i]:
        s_hit, g_hit, w_hit, disp = float(grid[i]), float(gvals[i]), states[i], disps[i]
    else:
        a, b = float(grid[i - 1]), float(grid[i])
        ga, gb = float(gvals[i - 1]), float(gvals[i])
        s0, y0 = a, states[i - 1]

        def g_exact(s):
            w = orbit_batch(f, y0[None], np.array([s - s0]), tol, max_steps)[0, 0]
            d = m.displacement(base, w)
            return float(np.dot(d, nhat)), w, d

        # bracketed secant (Illinois) on the exact flow
        s_hit = None
        side = 0
        for _ in range(80):
            if abs(b - a) < 1e-15 or abs(gb - ga) < 1e-300:
                break
            mid = (a * gb - b * ga) / (gb - ga)
            if not (min(a, b) <= mid <= max(a, b)):
                mid = 0.5 * (a + b)
            gm, w_m, d_m = g_exact(mid)
            if abs(gm) <= event_tol:
                s_hit, g_hit, w_hit, disp = mid, gm, w_m, d_m
                break
            if (gm > 0) == (ga > 0):
                a, ga = mid, gm
                if side == -1:
                    gb *= 0.5
                side = -1
            else:
                b, gb = mid, gm
                if side == 1:
                    ga *= 0.5
                side = 1
        if s_hit is None:
            s_hit = 0.5 * (a + b)
            g_hit, w_hit, disp = g_exact(s_hit)
            if abs(g_hit) > event_tol:
                raise NoCrossing(f"{f.name}: crossing residual {g_hit:.3g} near "
                                 f"t={s_hit:.6g} above event_tol {event_tol:.3g}")

    offset_vec = disp - g_hit * nhat
    u = target.frame.axes @ offset_vec
    off = float(np.linalg.norm(u))
    if off > target.radius * radius_slack + 1e-12:
        raise LeftTube(
            f"{f.name}: crossing at t={s_hit:.6g} lies {off:.3g} from the base "
            f"(section radius {target.radius:.3g})",
            hit_time=s_hit, offset=off,
        )
    return CrossingEvent(hit_point=Point(_readonly(w_hit)), hit_time=float(s_hit),
                         residual=float(g_hit), offset_coords=u, offset_norm=off)
