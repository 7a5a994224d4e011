"""Local R-stable/R-unstable sets, R-dynamical balls, R-stable-point
detection, the expansiveness characterization, and uniform-expansiveness
scans.

Membership grids discretize the rescaled cross-section at a base point:
a cell belongs to the local stable set when, at every holonomy step
1 <= k <= n_max, its image exists and stays within the rescaled tolerance
``tolerance_factor * ||X(P_k(x))||`` of the base orbit (unstable sets use
the backward maps). Cell membership is decided at cell centers only, with
early exit on first violation; the grids of one direction march together,
their tails sharing batches, and each base point travels as its grid's
center cell, so its distance to the reference orbit is exactly zero.

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
from itertools import chain
from typing import Optional

import numpy as np

from .errors import (
    BetaTooLarge,
    BudgetExhausted,
    GammaTooLarge,
    RFlowError,
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


class _Propagation:
    """One grid's holonomy chain: its live rows while it marches, then its
    result; ``tracks`` holds per step (alive row indices, positions)."""

    def __init__(self, f, section, coords_u, tol_factor, beta, n_max,
                 record_tracks):
        # the base travels with the batch; distances are relative to it exactly
        if np.linalg.norm(coords_u[0]) > 1e-15:
            raise ValueError("row 0 of coords_u must be the base point")
        raw = section.base.coords + coords_u @ section.axes
        off = f.manifold.off_disk(raw)
        self.fail_step = np.where(off, 0, n_max + 1)
        self.error_state = (off * CELL_OUT_OF_MANIFOLD).astype(np.int8)
        self.alive_idx = np.flatnonzero(~off)
        self.Y = f.manifold.wrap_array(raw[self.alive_idx])
        self.steps = np.full(self.alive_idx.size, np.nan)  # next trial steps
        self.tol_factor, self.beta, self.horizon = tol_factor, beta, n_max
        self.k, self.truncation_reason, self.error = 0, None, None
        self.tracks = [] if record_tracks else None

    def advance(self, f, Y_new, t, tol):
        """Step k + 1, given each live row's image under it."""
        k = self.k + 1
        bx = Y_new[0]
        fvec = f.field(bx)
        n_x = float(np.linalg.norm(fvec))
        if n_x <= SINGULAR_NORM:
            self.horizon, self.truncation_reason = self.k, "singular_base"
            return
        disp = f.manifold.displacement(bx, Y_new)
        d = np.linalg.norm(disp, axis=-1)

        # every catalog flow carries each row exactly onto the plane through
        # the carried base (row 0, residual zero); a row off it has no
        # crossing at this step
        off_plane = np.abs(disp @ (fvec / n_x)) > max(1e-7 * (1.0 + abs(t)),
                                                      100.0 * tol)
        fail_tube = d > RADIUS_SLACK * self.beta * n_x
        fails = off_plane | fail_tube \
            | (d > self.tol_factor * n_x * (1.0 + 1e-9) + 1e-15)
        fails[0] = False
        if np.any(fails):
            rows = np.flatnonzero(fails)
            cells = self.alive_idx[rows]
            self.fail_step[cells] = k
            self.error_state[cells[fail_tube[rows]]] = CELL_LEFT_TUBE
            self.error_state[cells[off_plane[rows]]] = CELL_NO_CROSSING
        keep = ~fails
        self.alive_idx = self.alive_idx[keep]
        self.Y = Y_new[keep]
        self.steps = self.steps[keep]
        self.k = k
        if self.tracks is not None:
            self.tracks.append((self.alive_idx.copy(), self.Y.copy()))


def _step(f, call, t, sign, tol):
    """One holonomy step of each grid of ``call``, in one orbit_batch call;
    a call of several grids that raises is taken again grid by grid."""
    if len(call) > 1:
        Y = np.concatenate([g.Y for g in call])
        steps = np.concatenate([g.steps for g in call])
    else:   # its own arrays: a copy of a full grid would raise peak memory
        Y, steps = call[0].Y, call[0].steps
    try:
        Y_new = orbit_batch(f, Y, np.array([sign * t]), tol=tol,
                            steps=steps)[:, 0]
    except RFlowError as exc:
        if len(call) > 1:
            for g in call:
                _step(f, [g], t, sign, tol)
        elif isinstance(exc, Timeout):
            call[0].horizon, call[0].truncation_reason = call[0].k, "timeout"
        else:
            call[0].horizon, call[0].error = call[0].k, exc
        return
    start = 0
    for g, end in zip(call, np.cumsum([g.alive_idx.size for g in call])):
        g.steps = steps[start:end]
        g.advance(f, Y_new[start:end], t, tol)
        start = end


def _propagate_points(f: FlowSpec, t: float, sign: int, n_max: int, grids,
                      tol: float = DEFAULT_TOL, record_tracks: bool = False,
                      cap: Optional[int] = None):
    """Holonomy steps of many grids' section points, row 0 of each grid
    its base, until each row fails or its grid truncates; yields (i,
    propagation) for grid i as it finishes, or (i, error) for an
    RFlowError other than Timeout in a call of grid i alone.

    ``grids`` holds (section, coords_u, tol_factor, beta) per grid, or,
    given ``cap`` (the most rows any grid is given), yields them as each
    starts. A grid steps alone while it holds more than cap / 2 rows, then
    waits in a pool, stepped whenever its rows reach cap and, once every
    grid has started, until empty: its grids packed in start order into
    calls of at most cap rows. Each row keeps the bits of its grid alone.
    """
    if cap is None:
        grids = list(grids)
        cap = max((len(spec[1]) for spec in grids), default=0)
    pool = []
    for i, spec in enumerate(chain(grids, [None])):   # None: all started
        if spec is not None:
            g = _Propagation(f, *spec, n_max, record_tracks)
            while g.k < g.horizon and g.alive_idx.size > cap / 2:
                _step(f, [g], t, sign, tol)
            pool.append((i, g))
        while True:
            yield from ((j, g if g.error is None else g.error)
                        for j, g in pool if g.k == g.horizon)
            pool = [(j, g) for j, g in pool if g.k < g.horizon]
            if not pool or spec is not None and sum(
                    g.alive_idx.size for _, g in pool) < cap:
                break
            calls, rows = [], cap    # start order, greedily, <= cap rows
            for _, g in pool:
                if rows + g.alive_idx.size > cap:
                    calls.append([])
                    rows = 0
                calls[-1].append(g)
                rows += g.alive_idx.size
            for call in calls:
                _step(f, call, t, sign, tol)


def _march_grids(f, points, res, t, sign, n_max, factor, beta, tol,
                 with_components):
    """Membership grids over the sections of factor ``factor`` at
    ``points``, marched and yielded as by ``_propagate_points``; cells
    outside the disk are outside the section domain.
    """
    if res % 2 == 0 or res < 3:
        raise ValueError("resolution must be odd and >= 3")
    center = (res // 2) * res + res // 2
    sections, cells = [make_section(f, x, factor) for x in points], []
    for section in sections:
        offs = _cell_offsets(res, 2.0 * section.radius / res)
        u = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1)
        inside = (np.linalg.norm(u, axis=-1) <= section.radius + 1e-12).ravel()
        inside[center] = False
        idx = np.concatenate(([center], np.flatnonzero(inside)))
        # grids of one resolution nearly always share a layout: one copy
        cells.append(cells[-1] if cells and np.array_equal(cells[-1], idx)
                     else idx)

    def specs():
        for section, idx in zip(sections, cells):
            offs = _cell_offsets(res, 2.0 * section.radius / res)
            yield (section, np.stack((offs[idx // res], offs[idx % res]), -1),
                   factor, beta)

    cap = max((c.size for c in cells), default=0)
    for i, run in _propagate_points(f, t, sign, n_max, specs(), tol, cap=cap):
        if isinstance(run, RFlowError):
            yield i, run
            continue
        # cells outside the section or the manifold failed at step 0
        fail_step = np.zeros((res, res), dtype=int)
        fail_step.flat[cells[i]] = run.fail_step
        error_state = np.full((res, res), CELL_OUTSIDE_SECTION, dtype=np.int8)
        error_state.flat[cells[i]] = run.error_state
        grid = RSetGrid(
            section=sections[i], resolution=res,
            membership=fail_step > run.horizon,
            component_labels=np.full((res, res), -1, dtype=int),
            fail_step=fail_step, error_state=error_state,
            horizon_certified=run.horizon,
            truncation_reason=run.truncation_reason,
            cellwidth=2.0 * sections[i].radius / res,
        )
        yield i, connected_component(grid) if with_components else grid


def _alone(marched):
    """The one result of a one-grid march; an error is raised."""
    [(_, run)] = marched
    if isinstance(run, RFlowError):
        raise run
    return run


def raise_first_error(results):
    """Raise the first RFlowError of ``results``, (point index, direction)
    -> result, in that order, its message prefixed ``point I DIRECTION: ``."""
    for (i, direction), res in sorted(results.items()):
        if isinstance(res, RFlowError):
            res.args = (f"point {i} {direction}: {res}",)
            raise res


def _shrink(f: FlowSpec, beta: float, t: float, direction: str):
    """The section factor beta / L^t and step sign of a checked direction."""
    if direction not in ("stable", "unstable"):
        raise ValueError("direction must be 'stable' or 'unstable'")
    if t <= 0:
        raise ValueError("t must be positive (direction picks the sign)")
    if beta > f.rescale.beta0 + 1e-12:
        raise BetaTooLarge(f"beta={beta} exceeds beta0={f.rescale.beta0}")
    return beta / f.rescale.L ** t, 1 if direction == "stable" else -1


def rset_grids(f: FlowSpec, points, beta: float, t: float, n_max: int,
               resolution: int, direction: str = "stable",
               tol: float = DEFAULT_TOL, with_components: bool = True):
    """Membership grids of the local R-stable or R-unstable sets at
    ``points``, marched together: yields (i, grid) for ``points[i]`` as it
    finishes, or (i, error) for an RFlowError of its march. A grid covers
    the shrunken section of radius (beta / L^t)||X(x)||; a cell is a
    member when every holonomy image through the certified horizon exists
    and satisfies d <= (beta / L^t) * ||X||, the shrunken factor again.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    factor, sign = _shrink(f, beta, t, direction)
    return _march_grids(f, points, resolution, t, sign, n_max, factor, beta,
                        tol, with_components)


def compute_rset(f: FlowSpec, x: Point, beta: float, t: float, n_max: int,
                 resolution: int, direction: str = "stable",
                 tol: float = DEFAULT_TOL,
                 with_components: bool = True) -> RSetGrid:
    """Membership grid of the local R-stable or R-unstable set at x, as
    ``rset_grids`` marches it."""
    return _alone(rset_grids(f, [x], beta, t, n_max, resolution, direction,
                             tol, with_components))


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
    return _alone(_march_grids(f, [x], resolution, t, 1, n, epsilon, epsilon,
                               tol, True))


def membership_predicate(f: FlowSpec, x: Point, beta: float, t: float,
                         n_max: int, direction: str, coords_u,
                         tol: float = DEFAULT_TOL, record_tracks: bool = False):
    """Fail steps for explicit section points (no grid): the same test
    compute_rset applies per cell with its default tolerance. Returns
    (fail_step, propagation)."""
    factor, sign = _shrink(f, beta, t, direction)
    rows = np.vstack([np.zeros(2), np.asarray(coords_u, dtype=float)])
    run = _alone(_propagate_points(
        f, t, sign, n_max, [(make_section(f, x, factor), rows, factor, beta)],
        tol, record_tracks))
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
    pts = list(points)
    grids = {(i, d): g for d in ("stable", "unstable")
             for i, g in rset_grids(f, pts, beta, t, n_max, resolution, d,
                                    tol=tol, with_components=False)}
    raise_first_error(grids)
    per_point = []
    for p_idx, x in enumerate(pts):
        gs, gu = grids[p_idx, "stable"], grids[p_idx, "unstable"]
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
    are carried through the holonomy maps: every x's directions ride one
    march per sign, under the grid's membership test at tolerance beta, and
    a pair separates at the first step where d(P_i(x), P_i(y)) >
    beta * ||X(P_i(x))|| in either direction. N_eta is the largest first
    separation index over all pairs. A pair that never separates within
    horizon_budget raises BudgetExhausted (or is recorded as the failure
    witness with on_budget="report"), the first such pair in direction
    order; a march error first is raised as ``raise_first_error`` names it.
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
    secs = [make_section(f, x, beta) for x in pts]
    live = [p_idx for p_idx, sec in enumerate(secs) if r_y < sec.radius]
    runs = {(live[j], d): run for sign, d in ((1, "stable"), (-1, "unstable"))
            for j, run in _propagate_points(f, t, sign, horizon_budget, [
                (secs[p_idx], rows, beta, beta) for p_idx in live], tol)}
    for p_idx, (x, sec) in enumerate(zip(pts, secs)):
        if r_y >= sec.radius:
            skipped += n_directions
            continue
        pair = {(p_idx, d): runs[p_idx, d] for d in ("stable", "unstable")}
        raise_first_error(pair)
        # a pair separates at its first failed step in either direction
        first = np.minimum(*(run.fail_step[1:] for run in pair.values()))
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
