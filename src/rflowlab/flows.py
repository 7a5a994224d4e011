"""Catalog of vector fields with analytic metadata.

Three built-in flows on flat model manifolds:

``solid_torus``
    The cylinder [-2, 2] x D with its end disks identified (x-period 4).
    Field (rho(x), 0, 0) with rho = 1 on [-2, -1] u [1, 2] and rho = |x| on
    [-1, 1]; the disk {0} x D is the singular set. Transverse motion is
    exactly isometric while the field norm decays along orbits, so every
    local rescaled stable/unstable set collapses to its base point.

``cat_suspension``
    Unit-speed suspension of the toral automorphism [[2, 1], [1, 1]]:
    chart T^2 x [0, 1) where crossing s = 1 applies the automorphism to the
    torus coordinates. Non-singular, transversally hyperbolic; entropy
    log((3 + sqrt 5)/2).

``rigid_rotation``
    Constant unit field (1, 0, 0) on the same solid torus chart. Holonomy
    is the identity on disks: the non-expansive, zero-entropy control.

Each flow carries ``rescale`` constants (L, beta0, t_min): L bounds the
one-time-unit growth of rescaled comparisons over time steps of at least
t_min, and beta0 caps the admissible section radius factor. For the
suspension the expansion happens at the gluing crossing in one jump, so L
must absorb one extra crossing over short times; the catalog uses the
squared top eigenvalue, with t_min = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Gluing, ModelManifold, Point

SQRT5 = math.sqrt(5.0)
LAMBDA_PLUS = (3.0 + SQRT5) / 2.0
LAMBDA_MINUS = (3.0 - SQRT5) / 2.0
CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])
_HALF_PI = 0.5 * math.pi

FLOW_NAMES = ("solid_torus", "cat_suspension", "rigid_rotation")


@dataclass(frozen=True)
class RescaleConstants:
    """Per-unit-time expansion bound L >= 1, maximal section factor beta0,
    and the least time step t_min for which L holds."""

    L: float
    beta0: float
    t_min: float = 0.0


@dataclass(frozen=True)
class FlowSpec:
    name: str
    manifold: ModelManifold
    # vectorized (..., d) -> (..., d), wraps internally; invariant under every
    # deck map of the manifold. A field (and a switch) may declare the
    # coordinates it reads as ``axes``, a tuple; orbit_batch then integrates
    # rows that agree in those bits once. The declaration lives on the
    # callable, so a replaced or wrapped field, which has none, never
    # inherits one: it is taken to read every coordinate.
    field: Callable
    singular_set_description: str         # where ||X|| <= sections.SINGULAR_NORM
    rescale: RescaleConstants
    analytic_holonomy: Optional[Callable] = None   # (base, t, u) -> image coords
    known_entropy: Optional[float] = None
    # vectorized (..., d) -> (...) whose zeros are the surfaces where the
    # field has a kink; the integrator ends steps just past them. Its sign
    # must change at each kink an orbit crosses. None: the field is smooth.
    switch: Optional[Callable] = None


# ----------------------------------------------------------------- manifolds

def solid_torus_manifold() -> ModelManifold:
    return ModelManifold(
        name="solid_torus",
        chart_dims=3,
        periodic_axes=(4.0, None, None),
        axis_origins=(-2.0, 0.0, 0.0),
        gluing=None,
        disk_axes=(1, 2),
    )


def cat_suspension_manifold() -> ModelManifold:
    return ModelManifold(
        name="cat_suspension",
        chart_dims=3,
        periodic_axes=(1.0, 1.0, 1.0),
        axis_origins=(0.0, 0.0, 0.0),
        gluing=Gluing(axis=2, matrix=CAT_MATRIX.copy(), target_axes=(0, 1)),
        disk_axes=None,
    )


# -------------------------------------------------------------------- fields

def _reduce_x(x):
    """x (a float array or scalar) reduced into [-2, 2] by the 4-period;
    exact (x itself) for |x| < 2."""
    return x - 4.0 * np.rint(x / 4.0)


def _rho(x):
    """Speed profile of the solid torus flow, 4-periodic in the chart."""
    return np.minimum(np.abs(_reduce_x(x)), 1.0)


def _solid_torus_switch(coords):
    """cos(pi x / 2): zero at every odd x, where rho has its kinks |x| = 1."""
    return np.cos(_HALF_PI * coords[..., 0])


def _solid_torus_field(coords):
    coords = np.asarray(coords, dtype=float)
    out = np.empty_like(coords)     # in coords' memory layout, as integrate wants
    out[..., 1:] = 0.0
    out[..., 0] = _rho(coords[..., 0])
    return out


# the coordinates each callable reads (see FlowSpec.field)
_solid_torus_field.axes = _solid_torus_switch.axes = (0,)


def _constant_field(direction):
    direction = np.asarray(direction, dtype=float)

    def field(coords):
        out = np.empty_like(coords, dtype=float)
        out[...] = direction
        return out

    field.axes = ()
    return field


# --------------------------------------------------------- analytic holonomy

def _nearest_lift(u):
    return u - np.round(u)


def _cat_holonomy(base: Point, t: float, u):
    """Section-return map of the suspension in canonical section coordinates.

    Crossing the gluing k = floor(s0 + t) times applies the automorphism k
    times to the transverse offset; the result is reduced to the nearest
    torus representative (local lift).
    """
    s0 = float(base.coords[2])
    k = int(math.floor(s0 + t))
    m = np.linalg.matrix_power(CAT_MATRIX, k)
    u = np.asarray(u, dtype=float)
    return _nearest_lift(u @ m.T)


def _disk_isometric_holonomy(base: Point, t: float, u):
    """Flows that move disks rigidly return section offsets unchanged."""
    return np.asarray(u, dtype=float).copy()


# -------------------------------------------------------------------- catalog

_CATALOG = {f.name: f for f in (
    FlowSpec(
        name="solid_torus",
        manifold=solid_torus_manifold(),
        field=_solid_torus_field,
        singular_set_description="the disk {0} x D where the speed profile vanishes",
        rescale=RescaleConstants(L=math.e, beta0=0.25),
        analytic_holonomy=_disk_isometric_holonomy,
        known_entropy=0.0,
        switch=_solid_torus_switch,
    ),
    FlowSpec(
        name="cat_suspension",
        manifold=cat_suspension_manifold(),
        field=_constant_field((0.0, 0.0, 1.0)),
        singular_set_description="empty (unit suspension field)",
        # One gluing crossing multiplies transverse offsets by up to
        # lambda_plus in a single jump; L = lambda_plus**2 makes the shrunken
        # holonomy domain valid for every time step t >= t_min = 1/2.
        rescale=RescaleConstants(L=LAMBDA_PLUS**2, beta0=0.25, t_min=0.5),
        analytic_holonomy=_cat_holonomy,
        known_entropy=math.log(LAMBDA_PLUS),
    ),
    FlowSpec(
        name="rigid_rotation",
        manifold=solid_torus_manifold(),
        field=_constant_field((1.0, 0.0, 0.0)),
        singular_set_description="empty (constant unit field)",
        rescale=RescaleConstants(L=1.0, beta0=0.25),
        analytic_holonomy=_disk_isometric_holonomy,
        known_entropy=0.0,
    ),
)}


def get_flow(name: str) -> FlowSpec:
    """Look up a built-in flow by name."""
    if name not in _CATALOG:
        raise KeyError(f"unknown flow {name!r}; available: {FLOW_NAMES}")
    return _CATALOG[name]


# ----------------------------------------------------------------- operations

def field_norm(f: FlowSpec, x: Point) -> float:
    return float(np.linalg.norm(f.field(x.coords)))


def sample_points(f: FlowSpec, n: int, seed: int = 0, x_range=None,
                  disk_radius_max=None):
    """Seeded sample of canonical points, away from chart boundaries.

    For the solid-torus chart flows ``x_range = (lo, hi)`` restricts |x| to
    [lo, hi] (both signs); default covers the whole circle. Points lie
    within ``disk_radius_max`` (default 0.6) of the core circle. The
    suspension samples the unit cube.
    """
    rng = np.random.default_rng(seed)
    m = f.manifold
    if m.disk_axes is None:     # the suspension's unit cube
        raw = rng.uniform(0.0, 1.0, size=(n, 3))
    else:                       # the solid torus chart
        if x_range is None:
            x = rng.uniform(-2.0, 2.0, size=n)
        else:
            lo, hi = x_range
            mag = rng.uniform(lo, hi, size=n)
            sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
            x = mag * sign
        if disk_radius_max is None:
            disk_radius_max = 0.6
        r = disk_radius_max * np.sqrt(rng.uniform(size=n))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        raw = np.stack([x, r * np.cos(th), r * np.sin(th)], axis=1)
    rows = m.wrap_array(raw)    # one call for the whole sample
    rows.setflags(write=False)
    return [Point(r) for r in rows]
