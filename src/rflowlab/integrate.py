"""Flow map, orbit sampling, and event-located section crossings.

One integrator serves every caller: an adaptive embedded Dormand-Prince
5(4) pair with error-per-unit-step control (local error <= tol * h per
accepted step, so roughly tol per unit time) that advances a batch of
points together. Every catalog field is invariant under the deck maps of
its manifold, so states are carried in the universal cover of the chart
and wrapped into the fundamental domain only on output; crossing the glued
fiber of a mapping torus needs no special handling during a step.

Steps are chosen toward the last requested time only, which is landed on
exactly; earlier sample times are filled from the pair's dense-output
polynomial (Hairer, Norsett and Wanner, Solving ODEs I, section II.6;
Dormand and Prince, and Shampine, 1986), so asking for more samples never
changes the trajectory.

Section crossings use standard event location (same reference): the
plane function is scanned over dense samples of the window, which only
brackets the first sign change; the bracket is re-evaluated on the exact
flow, and a bracketed secant polishes the root against exact
re-integration until the residual meets the event tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeftTube, NoCrossing, Timeout
from .geometry import Point, _readonly

DEFAULT_TOL = 1e-9
T_MAX = 200.0           # |t| bound of flow_map and first_crossing windows
MAX_STEPS = 200_000     # orbit_batch step budget; Timeout past it

# Dormand-Prince 5(4) tableau
_A21 = 1 / 5
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
# continuous extension of the pair (Hairer, Norsett and Wanner, Solving
# ODEs I, section II.6: the coefficients of dopri5's CONTD5)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


@dataclass
class OrbitSegment:
    """Dense orbit samples: strictly monotone times, canonical points."""

    times: np.ndarray
    points: list


@dataclass
class CrossingEvent:
    """A located section-plane crossing."""

    hit_point: Point
    hit_time: float
    residual: float
    offset_coords: np.ndarray | None = None


def _rk_step(fn, y, f0, h):
    """One DP5(4) step; returns (y_new, f_new, err_inf, stages).

    f_new is FSAL; stages are (k1, k3, k4, k5, k6, k7) for dense output.
    """
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
    return y5, k7, float(np.max(np.abs(err))), (k1, k3, k4, k5, k6, k7)


def _dense(y, y_new, h, stages, theta):
    """States at fractions theta of an accepted step from y to y_new.

    The fourth-order Dormand-Prince interpolant; returns (n, m, d) for
    theta of shape (m,).
    """
    k1, k3, k4, k5, k6, k7 = stages
    r2 = y_new - y
    r3 = h * k1 - r2
    r4 = r2 - h * k7 - r3
    r5 = h * (_D[0] * k1 + _D[2] * k3 + _D[3] * k4 + _D[4] * k5 + _D[5] * k6
              + _D[6] * k7)
    th = theta[None, :, None]
    return y[:, None] + th * (r2[:, None] + (1.0 - th) * (
        r3[:, None] + th * (r4[:, None] + (1.0 - th) * r5[:, None])))


def _initial_step(y, f0, duration):
    scale = (1.0 + float(np.max(np.abs(y)))) / (1.0 + float(np.max(np.abs(f0))))
    return min(duration, max(1e-8, 0.01 * scale))


def flow_map(f, x: Point, t: float, tol: float = DEFAULT_TOL) -> Point:
    """The flow of ``f`` applied to ``x`` for signed time ``t``.

    phi_0 is the identity exactly; |t| must not exceed ``T_MAX``.
    """
    if abs(t) > T_MAX:
        raise ValueError(f"|t|={abs(t)} exceeds T_MAX={T_MAX}")
    if t == 0.0:
        return x
    y = orbit_batch(f, x.coords[None], np.array([t]), tol)[0, 0]
    return Point(_readonly(y))


def _states_at(f, coords, times, tol):
    """Wrapped states of one orbit at strictly increasing times of any sign."""
    out = np.empty((times.size, coords.size))
    neg = times < 0
    if np.any(neg):
        out[neg] = orbit_batch(f, coords[None], times[neg][::-1], tol)[0, ::-1]
    if not np.all(neg):
        out[~neg] = orbit_batch(f, coords[None], times[~neg], tol)[0]
    return out


def orbit(f, x: Point, times, tol: float = DEFAULT_TOL) -> OrbitSegment:
    """Sample the orbit of x at strictly monotone times (any sign, 0 allowed)."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    states = _states_at(f, x.coords, times, tol)
    return OrbitSegment(times=times, points=[Point(_readonly(s)) for s in states])


def orbit_batch(f, coords, times, tol: float = DEFAULT_TOL):
    """Sample many orbits at shared times; returns wrapped (n, m, d) array.

    Runs in the universal cover with shared adaptive steps (error controlled
    by the worst point of the batch) toward the last time, which is landed
    on exactly; earlier times are filled from the dense-output polynomial
    of the step that contains them, so they never shorten a step and the
    last sample equals that of a call with the last time alone. Times must
    be monotone away from zero, single sign. More than ``MAX_STEPS``
    attempted steps raise Timeout.
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

    target = float(abst[-1])
    y = coords.copy()
    f0 = fn(y)
    h = _initial_step(y, f0, target if target > 0 else 1.0)
    s = 0.0
    steps = 0
    j = 0   # first time not yet filled
    while s < target - 1e-14:
        if steps >= MAX_STEPS:
            raise Timeout(f"{f.name}: batch step budget exhausted at t={s:.6g}")
        hh = min(h, target - s)
        y_new, f_new, err, stages = _rk_step(fn, y, f0, hh)
        steps += 1
        accepted = not (err > tol * hh and hh > 1e-13)
        k = min(int(np.searchsorted(abst, s + hh, side="right")), abst.size - 1)
        if accepted and k > j:
            out[:, j:k] = _dense(y, y_new, hh, stages, (abst[j:k] - s) / hh)
            j = k
        del stages    # kept through the next step, they would raise peak memory
        if not accepted:
            h = hh * max(0.2, 0.9 * (tol * hh / err) ** 0.2)
            continue
        s += hh
        y, f0 = y_new, f_new
        h = hh * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol * hh / err) ** 0.2)))
    out[:, j:] = y[:, None]
    return f.manifold.wrap_array(out)


def first_crossing(f, y: Point, target, window, tol: float = DEFAULT_TOL,
                   event_tol: float = 1e-10,
                   radius_slack: float = 1.0) -> CrossingEvent:
    """First crossing of the target section plane inside a time window.

    The plane function is g(s) = <phi_s(y) - base, n> with n the unit field
    direction at the target base. The orbit is carried exactly to the
    window start, and g is scanned over dense-output states on a 0.01-spaced
    grid of the window in ascending time. The scan only brackets: the first
    grid point with |g| <= event_tol, or the ends of the first sign change,
    are evaluated again on the exact flow (landed from the window start, a
    bracket's far end from its near end) until the first flagged point or
    bracket holds on exact values, and a bracketed secant (Illinois)
    polishes the root by exact re-integration from the bracket's first
    end. The result has |g| <= event_tol, or NoCrossing is raised. A hit
    farther than radius_slack times the section radius from the base raises
    LeftTube; that decision is made on the exact hit.
    """
    w_lo, w_hi = float(window[0]), float(window[1])
    if w_hi < w_lo:
        raise ValueError("window must be (lo, hi) with lo <= hi")
    if max(-w_lo, w_hi) > T_MAX:
        raise ValueError(f"window reaches beyond |t| = T_MAX = {T_MAX}")
    m = f.manifold
    base = target.frame.base.coords
    nhat = target.frame.field_dir

    def land(start, dt):
        """The state dt after ``start``, landed on exactly."""
        return orbit_batch(f, start[None], np.array([dt]), tol)[0, 0]

    y_lo = land(y.coords, w_lo)
    n_grid = int(math.ceil((w_hi - w_lo) / 0.01)) + 1
    rel = np.linspace(0.0, w_hi - w_lo, n_grid)
    states = orbit_batch(f, y_lo[None], rel, tol)[0]
    states[0] = y_lo    # wrapping again need not give back the same bits
    disps = m.displacement(base, states)
    gvals = disps @ nhat
    exact = np.zeros(n_grid, dtype=bool)
    exact[0] = True
    while True:
        hits = np.abs(gvals) <= event_tol
        changes = np.zeros(n_grid, dtype=bool)
        changes[1:] = (gvals[1:] > 0) != (gvals[:-1] > 0)
        first = np.flatnonzero(hits | changes)
        if first.size == 0:
            raise NoCrossing(f"{f.name}: no section crossing in window "
                             f"[{w_lo:.6g}, {w_hi:.6g}]")
        i = int(first[0])
        ends = np.array([i]) if hits[i] else np.array([i - 1, i])
        stale = ends[~exact[ends]]
        if stale.size == 0:
            break
        for k in stale:
            # a bracket's far end is landed from its near end, as in the polish
            k0 = ends[0] if k != ends[0] and exact[ends[0]] else 0
            states[k] = land(states[k0], rel[k] - rel[k0])
            exact[k] = True
        disps[stale] = m.displacement(base, states[stale])
        gvals[stale] = disps[stale] @ nhat
    if hits[i]:
        k = ends[0]
        s_hit = w_lo + float(rel[k])
        w_hit, disp, g_hit = states[k], disps[k], float(gvals[k])
    else:
        ka, kb = ends
        a, b = w_lo + float(rel[ka]), w_lo + float(rel[kb])
        ga, gb = float(gvals[ka]), float(gvals[kb])
        s0, y0 = a, states[ka]

        def g_exact(s):
            w = land(y0, s - s0)
            d = m.displacement(base, w)
            return float(np.dot(d, nhat)), d, w

        # bracketed secant (Illinois) on the exact flow
        s_hit = None
        side = 0
        for _ in range(80):
            if abs(b - a) < 1e-15 or abs(gb - ga) < 1e-300:
                break
            mid = (a * gb - b * ga) / (gb - ga)
            if not (min(a, b) <= mid <= max(a, b)):
                mid = 0.5 * (a + b)
            gm, d_m, w_m = g_exact(mid)
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
            g_hit, disp, w_hit = g_exact(s_hit)
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
                         residual=float(g_hit), offset_coords=u)
