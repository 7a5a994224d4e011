"""Rescaled cross-sections and holonomy maps between them.

A cross-section at a regular point x is the disk of radius beta * ||X(x)||
in the hyperplane normal to the field. It carries an orthonormal frame of
that hyperplane; every built-in manifold is flat, so the exponential map
at x is chart addition along the frame followed by wrapping. The holonomy
over time t sends a point y near x on its section to the first crossing
of the section rebuilt at phi_t(x). The result holds the image, its
coordinates in the target frame, the hit time and residual, the target
section, and a flag recording whether the orbit segment stayed inside the
rescaled tube d(phi_s(x), phi_s(y)) <= beta * ||X(phi_s(x))|| at sampled
times. The image's distance to the target base is not stored:
``f.manifold.distance(result.target.base, result.image)`` gives it.

The tube check is ``tube_batch``: one integration of many (base, y) pairs
that share t, from any bases, with one vectorized tube test. Its rows are
bit-identical to one-pair batches, so ``holonomy`` given a pair's row
returns what it returns running that pair alone; each crossing search is
still one ``first_crossing`` per pair.

Frames along an orbit are kept continuous by seeding each Gram-Schmidt run
with the previous frame's axes carried over in the chart. The seed is not
pushed through the gluing's linear identification; for the built-in flows
the canonical frame is constant in the chart and this convention is what
makes holonomy coordinates comparable with the closed-form section maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BetaTooLarge, LeftTube, NoCrossing, SingularBase, Timeout
from .flows import FlowSpec
from .geometry import Point, _readonly
from .integrate import DEFAULT_TOL, T_MAX, first_crossing, orbit_batch
# unused here: perfbench/bench_trace.py patches it; ROADMAP item 1 drops it
from .integrate import flow_map  # noqa: F401

SINGULAR_NORM = 1e-12
# A holonomy image farther than this many section radii (beta * ||X||) from
# the base orbit has left the tube: the holonomy command's crossing check
# and a membership grid's left_tube test both stop there.
RADIUS_SLACK = 4.0


@dataclass(frozen=True)
class CrossSection:
    """Disk of radius beta * ||X(base)|| normal to the field at base."""

    base: Point
    axes: np.ndarray        # (d-1, d), rows orthonormal and orthogonal to normal
    normal: np.ndarray      # unit field direction at base
    beta: float
    base_field_norm: float

    @property
    def radius(self) -> float:
        return self.beta * self.base_field_norm


@dataclass
class HolonomyResult:
    image: Point
    hit_time: float
    tube_ok: bool
    image_coords: np.ndarray
    target: CrossSection
    residual: float


@dataclass
class HolonomyOrbit:
    """Stepwise holonomy results; stops at the first per-step error."""

    results: list
    error: Optional[Exception]
    error_step: Optional[int]


def make_section(f: FlowSpec, x: Point, beta: float,
                 seed_axes=None) -> CrossSection:
    """Build the rescaled cross-section at a regular point.

    The frame is deterministic: Gram-Schmidt runs over the seed axes, then
    over the standard basis without the axis most aligned with the field.
    Those d - 1 axes alone span the normal hyperplane, so the frame is
    always complete.
    """
    fvec = f.field(x.coords)
    n = float(np.linalg.norm(fvec))
    if n <= SINGULAR_NORM:
        raise SingularBase(f"{f.name}: ||X|| = {n:.3e} at {x}")
    if beta > f.rescale.beta0 + 1e-12:
        raise BetaTooLarge(f"beta={beta} exceeds beta0={f.rescale.beta0} "
                           f"for {f.name}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    d = fvec / n
    dim = f.manifold.chart_dims
    drop = int(np.argmax(np.abs(d)))
    cands = [] if seed_axes is None else list(np.asarray(seed_axes, dtype=float))
    cands += [np.eye(dim)[ax] for ax in range(dim) if ax != drop]
    axes = []
    for c in cands:
        v = c - np.dot(c, d) * d
        for a in axes:
            v = v - np.dot(v, a) * a
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            axes.append(v / nv)
        if len(axes) == dim - 1:
            break
    return CrossSection(base=x, axes=_readonly(axes), normal=_readonly(d),
                        beta=beta, base_field_norm=n)


def section_point(f: FlowSpec, section: CrossSection, u) -> Point:
    """The section point with frame coefficients u: the flat exp map."""
    u = np.asarray(u, dtype=float)
    return f.manifold.wrap(section.base.coords + u @ section.axes)


def _tube_samples(t: float) -> np.ndarray:
    n = max(32, int(math.ceil(abs(t) / 0.05)))
    return np.linspace(0.0, t, n + 1)


def holonomy(f: FlowSpec, source: CrossSection, t: float, y: Point,
             tol: float = DEFAULT_TOL, radius_slack: float = 1.0,
             tube=None) -> HolonomyResult:
    """Holonomy P over time t from the source section to the one at phi_t(base).

    ``tube`` is this pair's row of a ``tube_batch`` over time t; without
    it, a one-pair batch is run here. The row's target base phi_t(base)
    sets the target section, and the crossing of its plane is searched
    from y(t), with y's next step size, inside one window of half-width
    beta * ||X(phi_t(base))|| around t: an image on the target plane at t
    hits at exactly t. ``radius_slack`` relaxes the target-radius
    containment check (slack > 1 lets callers measure how far outside the
    tube an image lands instead of erroring).
    """
    if tube is None:
        (tube,) = tube_batch(f, [source], t, [y], tol)
    tube_ok, base_t, y_t, step = tube
    target = make_section(f, Point(_readonly(base_t)), source.beta,
                          seed_axes=source.axes)
    w = max(target.radius, 1e-9)
    event = first_crossing(f, Point(y_t), target, (t - w, t + w), tol,
                           radius_slack, t0=t, steps=np.array([step]))
    return HolonomyResult(image=event.hit_point, hit_time=event.hit_time,
                          tube_ok=tube_ok, image_coords=event.offset_coords,
                          target=target, residual=event.residual)


def tube_batch(f: FlowSpec, sources, t: float, ys,
               tol: float = DEFAULT_TOL) -> list:
    """Rescaled-tube checks of many pairs over one time t, in one batch.

    Pair i is the base of ``sources[i]`` and the point ``ys[i]`` on its
    section. One ``orbit_batch`` runs the interleaved rows ``[base_i,
    y_i]`` to the tube sample times, and one field call and one
    ``distance_array`` test d(phi_s(base), phi_s(y)) <= beta *
    ||X(phi_s(base))|| at every sample. Rows are bit-identical to their
    solo runs, so each pair's row equals its one-pair batch. Returns one
    ``(tube_ok, phi_t(base), y(t), y's next step)`` per pair.
    """
    if abs(t) > T_MAX:
        raise ValueError(f"|t|={abs(t)} exceeds T_MAX={T_MAX}")
    times = np.unique(_tube_samples(t))
    ordered = times if t >= 0 else times[::-1]
    rows = np.array([c for s, y in zip(sources, ys)
                     for c in (s.base.coords, y.coords)])
    steps = np.full(len(rows), np.nan)
    states = orbit_batch(f, rows, ordered, tol=tol, steps=steps)
    base_s, y_s = states[0::2], states[1::2]
    betas = np.array([s.beta for s in sources])[:, None]
    bounds = betas * np.linalg.norm(f.field(base_s), axis=-1)
    dists = f.manifold.distance_array(base_s, y_s)
    ok = np.all(dists <= bounds * (1 + 1e-9) + 1e-12, axis=1)
    return list(zip(ok.tolist(), base_s[:, -1].copy(), y_s[:, -1].copy(),
                    steps[1::2].tolist()))


def holonomy_orbit(f: FlowSpec, x: Point, beta: float, t: float, n: int,
                   y: Point, tol: float = DEFAULT_TOL) -> HolonomyOrbit:
    """Compose holonomy over |n| steps of signed size t, rebuilding sections.

    ``n < 0`` walks the backward maps. Stops at the first step error and
    reports how far it got.
    """
    results = []
    if n == 0:
        return HolonomyOrbit(results=results, error=None, error_step=None)
    step_t = t if n > 0 else -t
    try:
        sec = make_section(f, x, beta)
    except (SingularBase, BetaTooLarge) as exc:
        return HolonomyOrbit(results=results, error=exc, error_step=0)
    cur_y = y
    for k in range(1, abs(n) + 1):
        try:
            res = holonomy(f, sec, step_t, cur_y, tol=tol)
        except (NoCrossing, LeftTube, Timeout, SingularBase) as exc:
            return HolonomyOrbit(results=results, error=exc, error_step=k)
        results.append(res)
        sec = res.target
        cur_y = res.image
    return HolonomyOrbit(results=results, error=None, error_step=None)
