"""Flow map, orbit sampling, and event-located section crossings.

One integrator serves every caller: an adaptive embedded Dormand-Prince
5(4) pair with error-per-unit-step control (local error <= tol * h per
accepted step, so roughly tol per unit time) run on a batch of points.
Each point of the batch is its own run: it keeps its own step size, time
cursor and FSAL stage, is stepped only while unfinished, and no other
point's error or step touches its arithmetic, so a point gives the same
bits in any batch as alone. Every catalog field is invariant under the
deck maps of its manifold, so states are carried in the universal cover of
the chart and wrapped into the fundamental domain only on output; crossing
the glued fiber of a mapping torus needs no special handling during a step.
A field may return a view with row stride 0 when every point of a batch
gets the same value; each stage sum of a step is then formed once, on one
column, for every row alike: the same numbers, so the same bits.

Steps are chosen toward the last requested time only, which is landed on
exactly; earlier sample times are filled from the pair's dense-output
polynomial (Hairer, Norsett and Wanner, Solving ODEs I, section II.6;
Dormand and Prince, and Shampine, 1986), so asking for more samples never
changes the trajectory.

A field with kinks (a flow's ``switch``) would defeat the error estimate
of a step across one, which assumes a smooth field. A step that changes
the switch's sign is therefore taken again, to end just past the zero
that ``_illinois`` locates on the dense interpolant (the same reference,
and Gear and Osterby, ACM TOMS 10, 1984), so no accepted step straddles a
kink by more than a few tolerances. A kink the orbits only approach (an
equilibrium such as the solid torus's singular disk) is crossed by no
step's end but can be by its inner stages: a step longer than 1.02 / lam,
lam the field's rate of change estimated from its first two stages, is
taken again, and no step proposes more than 1.01 / lam. A caller that integrates the same
points again, such as one holonomy horizon after another, can pass each
point's last proposed step on (``steps``) instead of starting again from
a small guess.

Section crossings use standard event location (same reference). The
search starts from the exact state it is given, the anchor, which lies in
its window (for a holonomy, y(t) as the tube batch landed it), with one
dense leg back to the window start and, only if that leg's scan flags
nothing, one forward. The scan of the plane function only brackets the
first sign change; the bracket's ends are landed again from the nearer
exact leg end, and ``_illinois``, the same routine as for the kinks,
polishes the root against exact re-integration until the residual meets
the event tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeftTube, NoCrossing, Timeout
from .geometry import Point, _readonly

DEFAULT_TOL = 1e-9
T_MAX = 200.0           # |t| bound of flow_map, holonomy and crossing windows
MAX_STEPS = 200_000     # step budget of each orbit_batch row; Timeout past it
EVENT_TOL = 1e-10       # |g| a located section crossing must meet
# How far past a switching zero a step may end, in tolerances. The stages a
# step evaluates at its end lie beyond the kink, which puts about d / 60 per
# unit step into the error estimate of a step that ends d past it (per unit
# jump of the field's derivative); d = 4 tol keeps that under a tenth of the
# tolerance.
_LAND_REACH = 4.0

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
class CrossingEvent:
    """A located section-plane crossing."""

    hit_point: Point
    hit_time: float
    residual: float
    offset_coords: np.ndarray | None = None


def _rk_step(field, y, f0, h):
    """One DP5(4) step of signed size h (one entry per row).

    States are held transposed, (d, n): each coordinate is a contiguous
    row, so per-row step sizes broadcast along it; ``field`` sees (n, d)
    views. A stage the field gives every row alike, as a view with row
    stride 0, is carried as one (d, 1) column through the stage sums and
    the error estimate: each row's operands are the same numbers, so each
    row's bits are too. Whether to share is the field's choice. Returns
    (y_new, f_new, err, stages, k2): f_new is FSAL, as the field gave it;
    err is each row's largest error component (one entry for all rows
    when they share it); stages are (k1, k3, k4, k5, k6, k7) for dense
    output and k2 is the field at the first inner stage, each (d, n) or a
    shared (d, 1) column.
    """
    k1 = f0[:, :1] if not f0.strides[1] else f0
    k2 = field((y + h * (_A21 * k1)).T).T
    k2 = k2[:, :1] if not k2.strides[1] else k2
    k3 = field((y + h * (_A3[0] * k1 + _A3[1] * k2)).T).T
    k3 = k3[:, :1] if not k3.strides[1] else k3
    k4 = field((y + h * (_A4[0] * k1 + _A4[1] * k2 + _A4[2] * k3)).T).T
    k4 = k4[:, :1] if not k4.strides[1] else k4
    k5 = field((y + h * (_A5[0] * k1 + _A5[1] * k2 + _A5[2] * k3
                         + _A5[3] * k4)).T).T
    k5 = k5[:, :1] if not k5.strides[1] else k5
    k6 = field((y + h * (_A6[0] * k1 + _A6[1] * k2 + _A6[2] * k3 + _A6[3] * k4
                         + _A6[4] * k5)).T).T
    k6 = k6[:, :1] if not k6.strides[1] else k6
    y5 = y + h * (_B5[0] * k1 + _B5[2] * k3 + _B5[3] * k4 + _B5[4] * k5
                  + _B5[5] * k6)
    f_new = field(y5.T).T
    k7 = f_new[:, :1] if not f_new.strides[1] else f_new
    err = h * (_ERR[0] * k1 + _ERR[2] * k3 + _ERR[3] * k4 + _ERR[4] * k5
               + _ERR[5] * k6 + _ERR[6] * k7)
    err = np.maximum.reduce(np.abs(err))
    return y5, f_new, err, (k1, k3, k4, k5, k6, k7), k2


def _dense_coeffs(y, y_new, h, stages):
    """Coefficients of the fourth-order Dormand-Prince interpolant of
    steps of signed sizes h from y to y_new, transposed as in _rk_step."""
    k1, k3, k4, k5, k6, k7 = stages
    r2 = y_new - y
    r3 = h * k1 - r2
    r4 = r2 - h * k7 - r3
    r5 = h * (_D[0] * k1 + _D[2] * k3 + _D[3] * k4 + _D[4] * k5 + _D[5] * k6
              + _D[6] * k7)
    return y, r2, r3, r4, r5


def _dense(coeffs, th):
    """Interpolated states at step fractions th, one per column."""
    y, r2, r3, r4, r5 = coeffs
    return y + th * (r2 + (1.0 - th) * (r3 + th * (r4 + (1.0 - th) * r5)))


def _initial_step(f0, duration):
    """Each row's first trial step, 0.01 at unit speed, from its own field
    value alone: rows where the field agrees take the same steps."""
    return np.minimum(duration, np.maximum(
        1e-8, 0.02 / (1.0 + np.maximum.reduce(np.abs(f0)))))


def _illinois(g, a, b, ga, gb, width, gtol=None):
    """Bracketed secant (Illinois; Dowell and Jarratt, BIT 11, 1971) on
    each row's bracket a < b, whose values ga, gb lie on either side of a
    zero of g (side meaning ``> 0`` or not). ``g`` maps one point per row
    to one value per row. A row stops when its bracket is narrower than
    its ``width``, or, given ``gtol``, when a point has |g| <= gtol, which
    becomes both of its ends. Returns the final (a, b)."""
    a_last = b_last = np.zeros(a.shape, dtype=bool)    # end moved last time
    for _ in range(60):
        act = b - a > width
        if not np.count_nonzero(act):
            break
        mid = np.minimum(np.maximum((a * gb - b * ga) / (gb - ga), a), b)
        gm = g(mid)
        move_a = act & ((gm > 0) == (ga > 0))
        move_b = act ^ move_a
        # an end kept twice in a row has its value halved
        gb = np.where(move_a & a_last, 0.5 * gb, gb)
        ga = np.where(move_b & b_last, 0.5 * ga, ga)
        a, ga = np.where(move_a, mid, a), np.where(move_a, gm, ga)
        b, gb = np.where(move_b, mid, b), np.where(move_b, gm, gb)
        a_last, b_last = move_a | (a_last & ~act), move_b | (b_last & ~act)
        if gtol is not None:
            hit = act & (np.abs(gm) <= gtol)
            a, b = np.where(hit, mid, a), np.where(hit, mid, b)
    return a, b


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


def orbit(f, x: Point, times, tol: float = DEFAULT_TOL) -> list:
    """The orbit of x as canonical points at ``times``, which take one sign
    and are monotone away from zero (0 allowed), as in ``orbit_batch``."""
    return [Point(_readonly(s))
            for s in orbit_batch(f, x.coords[None], times, tol)[0]]


def orbit_batch(f, coords, times, tol: float = DEFAULT_TOL, steps=None):
    """Sample many orbits at shared times; returns wrapped (n, m, d) array.

    Runs in the universal cover. Each row is its own adaptive DP5(4) run:
    its own step size, time cursor and FSAL stage, toward the last time,
    which it lands on exactly; rows that get there drop out of the batch.
    Earlier times are filled from the dense-output polynomial of the step
    that contains them, so they never shorten a step and the last sample
    equals that of a call with the last time alone. No row's arithmetic
    depends on another row, so each row is bit-identical to the same point
    run alone. A stage the field gives every row alike (a view with row
    stride 0, as on a section grid of a catalog flow) is summed once, as
    one column shared by all rows.

    When the flow has a ``switch`` and a row's trial step changes its
    sign, the row locates the zero on that step's dense interpolant and
    takes the step again, to just past the zero, so no accepted step
    straddles a kink of the field by more than ``_LAND_REACH * tol``. Its
    steps also stay within about 1 / lam, lam the field's rate of change,
    so that no inner stage crosses a kink that the orbit only approaches.

    ``steps``, if given, holds each row's first trial step (NaN or 0 for
    the default guess) and is overwritten with each row's next proposed
    step, so a chain of calls continues each row's step size.

    Times must be monotone away from zero, single sign. A batch of no
    points returns (0, m, d) at once. More than ``MAX_STEPS`` attempted
    steps raise Timeout.
    """
    coords = np.asarray(coords, dtype=float)
    times = np.asarray(times, dtype=float)
    m = times.size
    out = np.empty((coords.shape[0], m, coords.shape[1]))
    if m == 0:
        return out
    sign = -1.0 if times[-1] < 0 else 1.0
    abst = np.abs(times)
    if m > 1:
        if np.any(sign * times < 0):
            raise ValueError("orbit_batch times must share one sign")
        if np.any(np.diff(abst) <= 0):
            raise ValueError("orbit_batch times must be monotone away from zero")
    if not coords.shape[0]:         # no rows, no steps
        return out
    target = float(abst[-1])
    if not target > 1e-14:
        out[:] = coords[:, None]
        return f.manifold.wrap_array(out)

    field, switch = f.field, f.switch
    done = target - 1e-14
    y = coords.T.copy()             # transposed, as _rk_step holds states
    f0 = field(y.T).T
    h = _initial_step(f0, target)
    if steps is not None:
        h = np.where(steps > 0, steps, h)
    n = y.shape[1]
    rows = np.arange(n)             # each live row's index in the batch
    s = np.zeros(n)                 # time cursor
    if m > 1:
        inner = abst[:-1]               # sample times filled from dense output
        j = np.zeros(n, dtype=np.intp)  # first sample time not yet filled
    if switch is not None:
        reach = _LAND_REACH * tol
        up = switch(y.T) > 0        # the side of the switch each row is on
        land = np.full(n, np.inf)   # a step that ends just past a located zero
        diff = np.empty_like(y)     # k2 - k1 of each live row's step
    for attempt in range(MAX_STEPS + 1):
        if attempt == MAX_STEPS:
            raise Timeout(f"{f.name}: batch step budget exhausted at "
                          f"t={float(np.min(s)):.6g}")
        hh = np.minimum(h, target - s)
        if switch is not None:
            hh = np.minimum(hh, land)
        hs = hh if sign > 0 else -hh
        # a step that every row shares, as at a horizon all rows are capped
        # at, is passed as a scalar: the same bits, and faster on a large grid
        y_new, f_new, err, stages, k2 = _rk_step(
            field, y, f0,
            hs[0] if hs.size > 1 and not np.count_nonzero(hs != hs[0]) else hs)
        tol_h = tol * hh
        # err == 0 (or below 1e-300) grows the step fivefold
        h_next = hh * np.minimum(5.0, np.maximum(
            0.2, 0.9 * (tol_h / np.maximum(err, 1e-300)) ** 0.2))
        # a step at the minimum size is taken whatever its error
        rejected = (err > tol_h) & (hh > 1e-13)
        if switch is not None:
            g_new = switch(y_new.T)
            up_new = g_new > 0
            # the error estimate of a landing step measures the kink; past
            # it, the step size from before it still holds
            landed = (land < np.inf) & ~rejected
            h_next[landed] = np.maximum(h[landed], h_next[landed])
            land[:] = np.inf
            cross = up_new != up
            # lam = |k2 - k1| / |stage 2 - y| is the field's rate of change
            # at the step's start. The later stages of a step much longer
            # than 1 / lam can overshoot an equilibrium the orbit only nears
            # (those of x' = -x cross 0 from h = 1.035 on), and where the
            # field has a kink there, as rho = |x| has at the singular disk,
            # the error estimate misses it. No row proposes more than
            # 1.01 / lam, and a step longer than 1.02 / lam that crosses no
            # switch zero is taken again; a unit step at unit rate, as a
            # holonomy chain next to the singular disk takes per horizon,
            # stays one step.
            # rows that share k1 and k2 share lam: one entry for them all
            k1 = stages[0]
            buf = diff[:, :max(k1.shape[1], k2.shape[1])]
            d21 = np.maximum.reduce(np.abs(np.subtract(k2, k1, out=buf),
                                           out=buf))
            n1 = np.maximum.reduce(np.abs(k1, out=buf))  # 5 |stage 2 - y| / h
            wide = d21 * np.maximum(h_next, hh) > (1.01 * _A21) * n1 * hh
            if np.count_nonzero(wide):      # over 1.01 / lam
                w = np.flatnonzero(wide)
                if d21.size > 1:
                    d21, n1 = d21[w], n1[w]
                s2 = _A21 * n1
                h_next[w] = np.minimum(h_next[w], 1.01 * s2 * hh[w] / d21)
                rejected[w] |= ((d21 > 1.02 * s2) & ~cross[w]
                                & (hh[w] > 1e-13))
            n_cross = np.count_nonzero(cross)
            if n_cross:
                # a step that ends more than reach past the zero is taken
                # again, to just past it; rows that all cross together (a
                # grid in a section across the kink) are read without a copy
                c = np.flatnonzero(cross) if n_cross < cross.size else slice(None)
                coeffs = _dense_coeffs(y[:, c], y_new[:, c], hs[c],
                                       [k if k.shape[1] == 1 else k[:, c]
                                        for k in stages])
                g0 = switch(y[:, c].T)
                th = _illinois(lambda x: switch(_dense(coeffs, x).T),
                               np.zeros_like(g0), np.ones_like(g0), g0,
                               g_new[c], 0.125 * reach / hh[c])[1]
                again = (1.0 - th) * hh[c] > reach
                redo = np.arange(cross.size)[c][again]
                land[redo] = th[again] * hh[redo] + 0.25 * reach
                rejected[redo] = True
                h_next[redo] = h[redo]
        ok = ~rejected
        n_ok = np.count_nonzero(ok)
        if not n_ok:                # no row moves
            h = h_next
            continue
        every = n_ok == ok.size     # all rows move: no select, no new arrays
        s_new = s + hh if every else np.where(ok, s + hh, s)
        if m > 1:
            # the last time is filled on arrival; a rejected step fills none
            k = np.where(ok, np.searchsorted(inner, s_new, side="right"), j)
            _fill_samples(out, rows, abst, s, hh, hs, j, k, y, y_new, stages)
        del stages    # kept through the next step, they would raise peak memory
        if every:
            y, f0 = y_new, f_new
            if switch is not None:
                up = up_new
        else:
            y = np.where(ok, y_new, y)
            f0 = np.where(ok, f_new, f0)
            if switch is not None:
                up = np.where(ok, up_new, up)
        s = s_new
        fin = s >= done
        if np.count_nonzero(fin):
            if m > 1:
                for r in np.flatnonzero(fin & (j < m - 1)):
                    out[rows[r], j[r]:] = y[:, r]
            if steps is not None:
                # a step cut short to land on the last time keeps the
                # proposal from before it
                steps[rows[fin]] = np.maximum(h_next[fin], np.where(
                    h_next[fin] < hh[fin], 0.0, h[fin]))
            out[rows[fin], m - 1] = y[:, fin].T
            keep = ~fin
            if not np.count_nonzero(keep):
                break
            rows, s, h_next = rows[keep], s[keep], h_next[keep]
            y, f0 = y[:, keep], f0[:, keep]
            if m > 1:
                j = j[keep]
            if switch is not None:
                up, land = up[keep], land[keep]
        h = h_next
    return f.manifold.wrap_array(out)


def _fill_samples(out, rows, abst, s, hh, hs, j, k, y, y_new, stages):
    """Write each row's samples j..k-1 from the dense output of its step
    and advance j."""
    cnt = k - j
    most = int(np.maximum.reduce(cnt))
    if not most:
        return
    coeffs = _dense_coeffs(y, y_new, hs, stages)
    if int(cnt.min()) == most and j.min() == j.max():
        # rows in step fill one block of columns. Every row of a constant
        # field is (cat_suspension's), where a gather of the coefficients
        # per sample would copy them once per sample time
        cols = slice(int(j[0]), int(j[0]) + most)
        th = ((abst[cols] - s[:, None]) / hh[:, None])[:, :, None]
        out[rows, cols] = _dense([c.T[:, None] for c in coeffs], th)
    else:
        pair = np.repeat(np.arange(rows.size), cnt)    # the row of each sample
        cols = np.arange(pair.size) + np.repeat(j - (np.cumsum(cnt) - cnt), cnt)
        out[rows[pair], cols] = _dense(np.stack(coeffs)[:, :, pair],
                                       (abst[cols] - s[pair]) / hh[pair]).T
    j += cnt


def first_crossing(f, y: Point, target, window, tol: float = DEFAULT_TOL,
                   radius_slack: float = 1.0, t0: float = 0.0,
                   steps=None) -> CrossingEvent:
    """First crossing of the target section plane inside a time window.

    y is the orbit's state at time t0, on whose clock the window and every
    reported time are; t0 must lie in the window, else ValueError. The
    plane function is g(s) = <phi_s(y) - base, n> with n the unit field
    direction at the target base. The scan grid, at most 0.01 apart, is
    built outward from y, the anchor. One dense leg runs back from it and
    lands on the window start; the leg forward runs only when [window
    start, t0] flags nothing. The scan, in ascending time, only brackets:
    the first grid point with |g| <= EVENT_TOL, or the ends of the first
    sign change, are landed again (a bracket's far end from its near end,
    others from the nearer of the window start and the anchor) until they
    hold on exact values, and ``_illinois`` polishes the root by exact
    re-integration from the bracket's first end. The result has |g| <=
    EVENT_TOL, or NoCrossing is raised. A hit farther than radius_slack
    times the section radius from the base raises LeftTube; that decision
    is made on the exact hit. ``steps`` is as in ``orbit_batch``, for the
    first leg.
    """
    w_lo, w_hi = float(window[0]), float(window[1])
    if not w_lo <= t0 <= w_hi:
        raise ValueError(f"t0={t0:.6g} lies outside the window "
                         f"[{w_lo:.6g}, {w_hi:.6g}]")
    if max(-w_lo, w_hi) > T_MAX:
        raise ValueError(f"window reaches beyond |t| = T_MAX = {T_MAX}")
    m, base, nhat = f.manifold, target.base.coords, target.normal
    # every integration continues the last's step
    steps = np.full(1, np.nan) if steps is None else steps

    def land(start, dt):
        """The state dt after ``start``, landed on exactly."""
        return orbit_batch(f, start[None], np.array([dt]), tol, steps)[0, 0]

    y_a = y.coords                      # the anchor; times are from t0
    back, fwd = (np.linspace(0.0, d, int(math.ceil(abs(d) / 0.01)) + 1)
                 for d in (w_lo - t0, w_hi - t0))
    ia = back.size - 1                  # the anchor's node
    rel = np.concatenate((back[::-1], fwd[1:]))
    states = np.concatenate((orbit_batch(f, y_a[None], back[1:], tol, steps)[0, ::-1],
                             y_a[None], np.empty((fwd.size - 1, y_a.size))))
    exact = np.isin(np.arange(rel.size), (0, ia))
    for n in (ia + 1, rel.size) if 0 < ia < rel.size - 1 else (rel.size,):
        if n > ia + 1:      # nothing flagged up to the anchor: the forward leg
            states[ia + 1:] = orbit_batch(f, y_a[None], fwd, tol, steps)[0, 1:]
        disps = m.displacement(base, states[:n])
        gvals = disps @ nhat
        while True:
            hits = np.abs(gvals) <= EVENT_TOL
            changes = np.zeros(n, dtype=bool)
            changes[1:] = (gvals[1:] > 0) != (gvals[:-1] > 0)
            first = np.flatnonzero(hits | changes)
            if first.size == 0:
                break
            i = int(first[0])
            ends = np.array([i]) if hits[i] else np.array([i - 1, i])
            stale = ends[~exact[ends]]
            if stale.size == 0:
                break
            for k in stale:
                # a bracket's far end is landed from its near end, as in the
                # polish; any other from the window start or the anchor
                k0 = ends[0] if k != ends[0] and exact[ends[0]] else \
                    (0 if k < ia - k else ia)
                states[k] = land(states[k0], rel[k] - rel[k0])
                exact[k] = True
            disps[stale] = m.displacement(base, states[stale])
            gvals[stale] = disps[stale] @ nhat
        if first.size:
            break
    else:
        raise NoCrossing(f"{f.name}: no section crossing in window "
                         f"[{w_lo:.6g}, {w_hi:.6g}]")
    if hits[i]:
        k = ends[0]
        s_hit = float(rel[k])
        w_hit, disp, g_hit = states[k], disps[k], float(gvals[k])
    else:
        ka, kb = ends

        def g_exact(s):
            """g at s[0] by re-integration, whose state is kept as the hit's."""
            nonlocal w_hit, disp, g_hit
            w_hit = land(states[ka], s[0] - rel[ka])
            disp = m.displacement(base, w_hit)
            g_hit = float(np.dot(disp, nhat))
            return np.array([g_hit])

        a, b = _illinois(g_exact, rel[ka:ka + 1], rel[kb:kb + 1],
                         gvals[ka:ka + 1], gvals[kb:kb + 1], 1e-15, EVENT_TOL)
        s_hit = float(0.5 * (a[0] + b[0]))
        if a[0] != b[0]:        # no point met EVENT_TOL: take the middle
            g_exact([s_hit])
    s_hit = t0 + s_hit
    if abs(g_hit) > EVENT_TOL:
        raise NoCrossing(f"{f.name}: crossing residual {g_hit:.3g} near "
                         f"t={s_hit:.6g} above EVENT_TOL {EVENT_TOL:.3g}")

    u = target.axes @ (disp - g_hit * nhat)
    off = float(np.linalg.norm(u))
    if off > target.radius * radius_slack + 1e-12:
        raise LeftTube(f"{f.name}: crossing at t={s_hit:.6g} lies {off:.3g} from "
                       f"the base (section radius {target.radius:.3g})",
                       hit_time=s_hit, offset=off)
    return CrossingEvent(hit_point=Point(_readonly(w_hit)), hit_time=float(s_hit),
                         residual=float(g_hit), offset_coords=u)
