"""Local R-stable/R-unstable sets, R-dynamical balls, R-stable-point
detection, the expansiveness characterization, and uniform-expansiveness
scans.

Membership grids discretize the rescaled cross-section at a base point:
a cell belongs to the local stable set when, at every holonomy step
1 <= k <= n_max, its image exists and stays within the rescaled tolerance
``tolerance_factor * ||X(P_k(x))||`` of the base orbit (unstable sets use
the backward maps). Cell membership is decided at cell centers only, the
whole grid marches in one shared batch per step with early exit on first
violation, and the base point itself travels as the batch's center cell, so
its distance to the reference orbit is exactly zero at every step.

"For all n" is truncated at n_max. When the base orbit leaves the regular
region before n_max (the field norm underflows or the step budget runs
out), the grid reports the horizon actually certified; cells alive at
truncation stay members at that horizon. ``truncation_reason`` names the
truncation, and a cell with ``fail_step > horizon_certified`` was alive at
it, so a trivial set stays distinguishable from an undecidable region.

Results carry what their callers read. A grid holds its cells' states, the
certified horizon and its section; the beta, t and n_max that made it stay
with the caller, as do the eta, beta and t of a uniform-expansiveness
report. A rescaled dynamical ball is returned as its membership grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    BetaTooLarge,
    BudgetExhausted,
    GammaTooLarge,
    SingularBase,
    Timeout,
)
from .flows import FlowSpec, field_norm
from .geometry import Point
from .integrate import DEFAULT_TOL, orbit_batch
# unused here: perfbench/bench_trace.py patches it; ROADMAP item 1 drops it
from .integrate import first_crossing  # noqa: F401
from .sections import (RADIUS_SLACK, SINGULAR_NORM, CrossSection,
                       make_section, section_point)

# per-cell error states
CELL_OK = 0
CELL_OUTSIDE_SECTION = 1
CELL_OUT_OF_MANIFOLD = 2
CELL_LEFT_TUBE = 3
CELL_NO_CROSSING = 4

ERROR_NAMES = {
    CELL_OK: "ok",
    CELL_OUTSIDE_SECTION: "outside_section",
    CELL_OUT_OF_MANIFOLD: "out_of_manifold",
    CELL_LEFT_TUBE: "left_tube",
    CELL_NO_CROSSING: "no_crossing",
}


def _cell_offsets(res: int, w: float):
    """Section coordinates of the cell centers along either grid axis."""
    return (np.arange(res) - res // 2) * w


@lru_cache(maxsize=1)
def _rows_format(res: int, w: float):
    """The grid CSV body as a %-format: each row's ``i,j,u,v,``, then
    ``%s`` for its tail, in row-major order."""
    offs = [f"{v:.17g}" for v in _cell_offsets(res, w).tolist()]
    return "".join(f"{i},{j},{u},{v},%s"
                   for i, u in enumerate(offs) for j, v in enumerate(offs))


@dataclass
class RSetGrid:
    """Membership grid of a local R-stable or R-unstable set, or of a
    rescaled dynamical ball."""

    section: CrossSection
    resolution: int
    membership: np.ndarray        # (res, res) bool
    component_labels: np.ndarray  # (res, res) int, -1 outside members
    fail_step: np.ndarray         # first violated step; horizon+1 if never
    error_state: np.ndarray       # (res, res) int8
    horizon_certified: int
    truncation_reason: Optional[str]
    cellwidth: float

    @property
    def center(self):
        c = self.resolution // 2
        return (c, c)

    def cell_coords(self):
        offs = _cell_offsets(self.resolution, self.cellwidth)
        return np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1)

    def counts(self):
        states, freq = np.unique(self.error_state, return_counts=True)
        tally = {ERROR_NAMES[int(s)]: int(c) for s, c in zip(states, freq)}
        return {"members": int(np.sum(self.membership)), "error_states": tally}

    def to_csv(self, path):
        # (component, member, error state) as one key: each distinct row
        # tail is formatted once
        key = (((self.component_labels + 1) * 2 + self.membership) * 8
               + self.error_state).ravel().tolist()
        tails = {k: f"{k // 8 % 2},{k // 16 - 1},{ERROR_NAMES[k % 8]}\n"
                 for k in set(key)}
        body = _rows_format(self.resolution, self.cellwidth) \
            % tuple(map(tails.__getitem__, key))
        with open(path, "w", newline="") as fh:
            fh.write("i,j,u,v,member,component,error_state\n")
            fh.write(body)


@dataclass
class UniformExpansivenessReport:
    A: float
    N_eta: Optional[int]
    witnesses: list                  # (point_index, direction_index, N)
    skipped_pairs: int
    exhausted_pair: Optional[tuple]  # (x, y) that never separated
    vacuous: bool = False


@dataclass
class ExpansivityVerdict:
    per_point: list   # dicts: point, trivial, witness (or None), member counts

    @property
    def overall(self) -> str:
        """A witness at any point is a counterexample."""
        if any(not e["trivial_intersection"] for e in self.per_point):
            return "counterexample-found"
        return "consistent-with-R-expansive"


@dataclass
class _Propagation:
    fail_step: np.ndarray
    error_state: np.ndarray
    horizon: int
    truncation_reason: Optional[str]
    tracks: Optional[list]  # per step: (alive flat indices, positions)


def _propagate_points(f: FlowSpec, section: CrossSection, t: float,
                      coords_u, sign: int, n_max: int, tol_factor: float,
                      beta: float, tol: float = DEFAULT_TOL,
                      record_tracks: bool = False):
    """Holonomy steps of section points, row 0 the base, until each fails.

    Each row carries its step size from one horizon to the next, so a
    row's step continues where its last horizon left it.
    """
    m = f.manifold
    coords_u = np.asarray(coords_u, dtype=float)
    n_pts = coords_u.shape[0]
    fail_step = np.full(n_pts, n_max + 1, dtype=int)
    error_state = np.zeros(n_pts, dtype=np.int8)

    raw = section.base.coords + coords_u @ section.axes
    off = m.off_disk(raw)
    error_state[off] = CELL_OUT_OF_MANIFOLD
    fail_step[off] = 0

    # the base travels with the batch; distances are relative to it exactly
    if np.linalg.norm(coords_u[0]) > 1e-15:
        raise ValueError("row 0 of coords_u must be the base point")

    alive_idx = np.flatnonzero(~off)
    Y = m.wrap_array(raw[alive_idx])
    horizon = n_max
    trunc = None
    step_t = sign * t
    tracks = [] if record_tracks else None
    steps = np.full(alive_idx.size, np.nan)   # each row's next trial step

    for k in range(1, n_max + 1):
        try:
            Y_new = orbit_batch(f, Y, np.array([step_t]), tol=tol,
                                steps=steps)[:, 0, :]
        except Timeout:
            horizon = k - 1
            trunc = "timeout"
            break
        bx = Y_new[0]
        fvec = f.field(bx)
        n_x = float(np.linalg.norm(fvec))
        if n_x <= SINGULAR_NORM:
            horizon = k - 1
            trunc = "singular_base"
            break
        nhat = fvec / n_x
        disp = m.displacement(bx, Y_new)
        resid = disp @ nhat
        d = np.linalg.norm(disp, axis=-1)

        # every catalog flow carries each row exactly onto the plane through
        # the carried base (row 0, residual zero); a row off it has no
        # crossing at this step
        off_plane = np.abs(resid) > max(1e-7 * (1.0 + abs(t)), 100.0 * tol)
        tol_k = tol_factor * n_x
        guard_k = RADIUS_SLACK * beta * n_x
        fail_tube = d > guard_k
        fail_tol = d > tol_k * (1.0 + 1e-9) + 1e-15
        fails = off_plane | fail_tube | fail_tol
        fails[0] = False
        if np.any(fails):
            rows = np.flatnonzero(fails)
            cells = alive_idx[rows]
            fail_step[cells] = k
            error_state[cells[fail_tube[rows]]] = CELL_LEFT_TUBE
            error_state[cells[off_plane[rows]]] = CELL_NO_CROSSING
        keep = ~fails
        alive_idx = alive_idx[keep]
        Y = Y_new[keep]
        steps = steps[keep]
        if record_tracks:
            tracks.append((alive_idx.copy(), Y.copy()))

    return _Propagation(fail_step=fail_step, error_state=error_state,
                        horizon=horizon, truncation_reason=trunc,
                        tracks=tracks)


def _march_grid(f, section, resolution, t, sign, n_max, tolerance_factor,
                beta, tol) -> RSetGrid:
    """The membership grid over ``section``, components not yet labelled.

    In-disk cells are propagated as one batch with the center cell as row
    0; cells outside the disk are outside the section domain.
    """
    res = resolution
    if res % 2 == 0 or res < 3:
        raise ValueError("resolution must be odd and >= 3")
    w = 2.0 * section.radius / res
    offs = _cell_offsets(res, w)
    U = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1)
    flat_u = U.reshape(-1, 2)
    inside = np.linalg.norm(flat_u, axis=-1) <= section.radius + 1e-12
    center = (res // 2) * res + res // 2
    inside[center] = False
    cells = np.concatenate(([center], np.flatnonzero(inside)))
    run = _propagate_points(f, section, t, flat_u[cells], sign, n_max,
                            tolerance_factor, beta, tol=tol)
    fail_step = np.zeros(res * res, dtype=int)
    error_state = np.full(res * res, CELL_OUTSIDE_SECTION, dtype=np.int8)
    fail_step[cells] = run.fail_step
    error_state[cells] = run.error_state
    fail_step = fail_step.reshape(res, res)
    error_state = error_state.reshape(res, res)
    membership = (fail_step > run.horizon) \
        & (error_state != CELL_OUTSIDE_SECTION) \
        & (error_state != CELL_OUT_OF_MANIFOLD)
    return RSetGrid(
        section=section, resolution=res, membership=membership,
        component_labels=np.full((res, res), -1, dtype=int),
        fail_step=fail_step, error_state=error_state,
        horizon_certified=run.horizon, truncation_reason=run.truncation_reason,
        cellwidth=w,
    )


def _shrunken_section(f: FlowSpec, x: Point, beta: float, t: float,
                      direction: str):
    """The section at x shrunk by L^-t, its factor beta / L^t and the step
    sign of ``direction``, once direction, t and beta are checked."""
    if direction not in ("stable", "unstable"):
        raise ValueError("direction must be 'stable' or 'unstable'")
    if t <= 0:
        raise ValueError("t must be positive (direction picks the sign)")
    if beta > f.rescale.beta0 + 1e-12:
        raise BetaTooLarge(f"beta={beta} exceeds beta0={f.rescale.beta0}")
    factor = beta / f.rescale.L ** t
    return (make_section(f, x, factor), factor,
            1 if direction == "stable" else -1)


def compute_rset(f: FlowSpec, x: Point, beta: float, t: float, n_max: int,
                 resolution: int, direction: str = "stable",
                 tol: float = DEFAULT_TOL,
                 with_components: bool = True) -> RSetGrid:
    """Membership grid of the local R-stable or R-unstable set at x.

    The grid covers the shrunken section of radius (beta / L^t)||X(x)||.
    A cell is a member when every holonomy image through the certified
    horizon exists and satisfies d <= (beta / L^t) * ||X||, the shrunken
    factor again.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    section, factor, sign = _shrunken_section(f, x, beta, t, direction)
    grid = _march_grid(f, section, resolution, t, sign, n_max, factor, beta,
                       tol)
    if with_components:
        connected_component(grid)
    return grid


def connected_component(g: RSetGrid) -> RSetGrid:
    """Label face-adjacent components of the member set, in place.

    Row-major discovery order makes labels deterministic; the component of
    the center cell is the connected local set CW.
    """
    res = g.resolution
    cells = np.flatnonzero(g.membership).tolist()
    unseen = set(cells)
    labels = np.full(res * res, -1, dtype=int)
    next_label = 0
    for start in cells:
        if start not in unseen:
            continue
        unseen.remove(start)
        component = [start]
        for a in component:  # grows while it is walked: breadth first
            j = a % res
            for nb in (a + res, a - res, a + 1 if j < res - 1 else -1,
                       a - 1 if j else -1):
                if nb in unseen:
                    unseen.remove(nb)
                    component.append(nb)
        labels[component] = next_label
        next_label += 1
    g.component_labels = labels.reshape(res, res)
    return g


def cw_cells(g: RSetGrid):
    """Boolean mask of the center cell's component."""
    return g.component_labels == g.component_labels[g.center]


def sphere_reach(g: RSetGrid, gamma: float) -> bool:
    """Does CW meet the sphere of radius gamma * ||X(base)|| (one cellwidth band)?"""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return True
    target = gamma * g.section.base_field_norm
    if target > g.section.radius + 1e-12:
        raise GammaTooLarge(f"gamma radius {target:.3g} exceeds section radius "
                            f"{g.section.radius:.3g}")
    coords = g.cell_coords()
    unorm = np.linalg.norm(coords, axis=-1)
    band = np.abs(unorm - target) <= g.cellwidth
    return bool(np.any(band & cw_cells(g)))


def dynamical_ball(f: FlowSpec, x: Point, n: int, epsilon: float, t: float,
                   resolution: int, tol: float = DEFAULT_TOL) -> RSetGrid:
    """The n-step forward rescaled dynamical ball on the section at x, as
    its membership grid (components labelled).

    Domain and tolerance both use the un-shrunken factor epsilon; the i = 0
    condition is the section-disk membership itself.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    section = make_section(f, x, epsilon)
    return connected_component(
        _march_grid(f, section, resolution, t, 1, n, epsilon, epsilon, tol))


def membership_predicate(f: FlowSpec, x: Point, beta: float, t: float,
                         n_max: int, direction: str, coords_u,
                         tol: float = DEFAULT_TOL, record_tracks: bool = False):
    """Fail steps for explicit section points (no grid): the same test
    compute_rset applies per cell with its default tolerance. Returns
    (fail_step, propagation)."""
    section, factor, sign = _shrunken_section(f, x, beta, t, direction)
    rows = np.vstack([np.zeros(2), np.asarray(coords_u, dtype=float)])
    run = _propagate_points(f, section, t, rows, sign, n_max, factor, beta,
                            tol=tol, record_tracks=record_tracks)
    return run.fail_step[1:], run


def detect_rstable_point(f: FlowSpec, x: Point, t: float, eps_list, eta_grid,
                         n_max: int = 12, resolution: int = 61,
                         tol: float = DEFAULT_TOL):
    """One-sided R-stable-point test on finite (eps, eta) grids.

    For each eps the test asks for some eta whose full subgrid of section
    points lies in the stable set at horizon n_max. Etas whose subgrid
    radius resolves to fewer than two cellwidths are skipped as untestable
    at this resolution; "False" therefore certifies a failing eps, while
    "True" is evidence at the tested scales only.
    """
    cert = []
    for eps in eps_list:
        grid = compute_rset(f, x, eps, t, n_max, resolution, "stable", tol=tol,
                            with_components=False)
        coords = grid.cell_coords()
        unorm = np.linalg.norm(coords, axis=-1)
        in_disk = grid.error_state != CELL_OUTSIDE_SECTION
        non_member = in_disk & ~grid.membership \
            & (grid.error_state != CELL_OUT_OF_MANIFOLD)
        r_inner = float(np.min(unorm[non_member])) if np.any(non_member) else np.inf
        L = f.rescale.L
        found = None
        for eta in sorted(eta_grid, reverse=True):
            if eta >= eps:
                continue
            eta_radius = (eta / L ** t) * grid.section.base_field_norm
            if eta_radius < 2.0 * grid.cellwidth:
                continue  # below grid resolution: not testable
            if eta_radius < r_inner:
                found = eta
                break
        cert.append({"eps": eps, "eta": found, "r_inner": r_inner,
                     "cellwidth": grid.cellwidth,
                     "horizon": grid.horizon_certified})
        if found is None:
            return False, cert
    return True, cert


def check_expansivity(f: FlowSpec, points, beta: float, t: float, n_max: int,
                      resolution: int, tol: float = DEFAULT_TOL) -> ExpansivityVerdict:
    """Intersect stable and unstable membership grids at each sampled point.

    A counterexample is a non-center cell that belongs to both sets, i.e.
    its two-sided holonomy orbit survived both certified horizons inside
    the rescaled tolerance.
    """
    per_point = []
    for x in points:
        gs = compute_rset(f, x, beta, t, n_max, resolution, "stable", tol=tol,
                          with_components=False)
        gu = compute_rset(f, x, beta, t, n_max, resolution, "unstable", tol=tol,
                          with_components=False)
        inter = gs.membership & gu.membership
        c = gs.center
        non_center = inter.copy()
        non_center[c] = False
        witness = None
        if np.any(non_center):
            i, j = np.argwhere(non_center)[0]
            coords = gs.cell_coords()[i, j]
            witness = {"cell": (int(i), int(j)),
                       "u": float(coords[0]), "v": float(coords[1]),
                       "stable_horizon": gs.horizon_certified,
                       "unstable_horizon": gu.horizon_certified}
        entry = {
            "point": [float(v) for v in x.coords],
            "trivial_intersection": witness is None,
            "witness": witness,
            "stable_members": int(np.sum(gs.membership)),
            "unstable_members": int(np.sum(gu.membership)),
            "intersection_cells": int(np.sum(inter)),
            "stable_horizon": gs.horizon_certified,
            "unstable_horizon": gu.horizon_certified,
        }
        per_point.append(entry)
    return ExpansivityVerdict(per_point=per_point)


def uniform_expansiveness_scan(f: FlowSpec, sample_points, eta: float,
                               beta: float, t: float, horizon_budget: int,
                               n_directions: int = 16,
                               tol: float = DEFAULT_TOL,
                               on_budget: str = "raise") -> UniformExpansivenessReport:
    """Smallest two-sided horizon separating eta-distant section points.

    For each sampled x, points y at distance just above eta on the section
    are carried through the holonomy maps: x's directions ride one batch per
    sign, under the grid's membership test at tolerance beta, and a pair
    separates at the first step where d(P_i(x), P_i(y)) > beta * ||X(P_i(x))||
    in either direction. N_eta is the largest first separation index over
    all pairs. A pair that never separates within horizon_budget raises
    BudgetExhausted (or is recorded as the failure witness with
    on_budget="report"), the first such pair in direction order.
    """
    pts = list(sample_points)
    norms = np.array([field_norm(f, p) for p in pts])
    if np.any(norms <= SINGULAR_NORM):
        raise SingularBase("sampled set touches the singular region")
    A = float(np.min(norms))
    if eta >= beta * float(np.max(norms)):
        # no section can hold a point at distance > eta: empty premise
        return UniformExpansivenessReport(
            A=A, N_eta=0, witnesses=[], skipped_pairs=len(pts) * n_directions,
            exhausted_pair=None, vacuous=True)
    if eta > beta * A + 1e-12:
        raise ValueError(f"eta={eta} must satisfy eta <= beta * A = {beta * A:.3g}")

    witnesses = []
    skipped = 0
    N_eta = 0
    r_y = 1.02 * eta
    angles = 2.0 * np.pi * np.arange(n_directions) / n_directions
    # row 0 is the base, row 1 + d the point in direction d
    rows = np.array([(0.0, 0.0)] + [(r_y * math.cos(a), r_y * math.sin(a))
                                    for a in angles])
    for p_idx, x in enumerate(pts):
        sec = make_section(f, x, beta)
        if r_y >= sec.radius:
            skipped += n_directions
            continue
        # a pair separates at its first failed step in either direction
        first = np.minimum(*(
            _propagate_points(f, sec, t, rows, sign, horizon_budget, beta,
                              beta, tol=tol).fail_step[1:] for sign in (1, -1)))
        for d_idx, n_sep in enumerate(first.tolist()):
            if n_sep > horizon_budget:
                y = section_point(f, sec, rows[1 + d_idx])
                if on_budget == "report":
                    return UniformExpansivenessReport(
                        A=A, N_eta=None, witnesses=witnesses, skipped_pairs=skipped,
                        exhausted_pair=([float(v) for v in x.coords],
                                        [float(v) for v in y.coords]))
                raise BudgetExhausted(
                    f"{f.name}: pair never separated within {horizon_budget} steps",
                    witness=(x, y))
            witnesses.append((p_idx, d_idx, n_sep))
            N_eta = max(N_eta, n_sep)
    return UniformExpansivenessReport(
        A=A, N_eta=N_eta, witnesses=witnesses, skipped_pairs=skipped,
        exhausted_pair=None)
