"""Flat model manifolds: quotients of Euclidean space.

A :class:`ModelManifold` is a chart ``R^d`` reduced by per-axis translations
(periodic axes), optionally one axis whose identification also applies a
linear map to two designated transverse axes (the glued axis of a mapping
torus), and optionally a pair of axes constrained to the closed unit disk.
Only the manifold reads that structure: ``off_disk`` names the rows
beyond the disk, and ``deck_copies`` lists the deck images that a
chart-Euclidean neighbor search needs.

Every built-in manifold is flat, and distances search deck representatives:
exact translation minimization on periodic axes, and at most one crossing
of the glued axis. ``displacement(p, q)`` takes the shortest of q's images
one level down, on, and one level up the glued axis (ties to the lowest
level); ``distance_array`` also takes p's images one level down and up.
The distance is therefore the shorter displacement norm of (p, q) and
(q, p), bit for bit, and equals that of (p, q) on a common transverse fiber
and for separations below a quarter period that do not cross the glued
fiber. When the gluing map is not an isometry, comparisons across the
glued fiber inherit its stretch and the two orders differ.

A glued candidate's computed norm is at least |z| (1 - 2u) for its
glued-axis component z, and z differs from ds -+ per (ds the in-sheet
candidate's component) by a few units u of roundoff. A glued candidate with
|ds -+ per| > best (1 + 1e-12) + 1e-12 per, best the in-sheet norm, can
therefore neither beat nor tie it and is never computed; the candidates
that are computed take the same float operations in the same order as an
exhaustive search, so results are its exact bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import OutOfManifold

_DISK_SLACK = 1e-9


def _readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _norm(d):
    """Row norms of (..., d) with the bits of ``np.linalg.norm(d, axis=-1)``,
    which sums three axes in order, without its per-row loop."""
    sq = d[..., 0] * d[..., 0]
    for ax in range(1, d.shape[-1]):
        sq = sq + d[..., ax] * d[..., ax]
    return np.sqrt(sq)


@dataclass(frozen=True)
class Point:
    """A canonical chart point (coordinates wrapped into the fundamental domain)."""

    coords: np.ndarray

    def __repr__(self):
        vals = ", ".join(f"{c:.6g}" for c in self.coords)
        return f"Point({vals})"


@dataclass(frozen=True)
class Gluing:
    """Identification applied when crossing one axis boundary.

    Crossing the upper boundary of ``axis`` subtracts its period and applies
    ``matrix`` to the coordinates listed in ``target_axes``; crossing the
    lower boundary applies the inverse.
    """

    axis: int
    matrix: np.ndarray
    target_axes: tuple
    _powers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def power(self, k):
        if k not in self._powers:
            self._powers[k] = np.linalg.matrix_power(self.matrix, k)
        return self._powers[k]


@dataclass(frozen=True)
class ModelManifold:
    name: str
    chart_dims: int
    periodic_axes: tuple            # per axis: float period or None
    axis_origins: tuple             # lower edge of the fundamental domain per axis
    gluing: Gluing | None = None
    disk_axes: tuple | None = None  # pair of axes constrained to the closed unit disk
    disk_radius: float = 1.0

    # ------------------------------------------------------------------ wrap

    @cached_property
    def _periodic(self):
        """Periodic axes as (index, origins, periods), keyed by whether the
        glued axis is among them. Adjacent axes are a slice and shared values
        scalars, so numpy runs one flat loop rather than one per point."""
        glued = self.gluing.axis if self.gluing is not None else None
        tables = {}
        for key in (True, False):
            axes = [ax for ax, per in enumerate(self.periodic_axes)
                    if per is not None and (key or ax != glued)]
            lo, per = ([v[ax] for ax in axes]
                       for v in (self.axis_origins, self.periodic_axes))
            lo, per = (v[0] if len(set(v)) == 1 else np.array(v)
                       for v in (lo, per))
            if axes and axes == list(range(axes[0], axes[-1] + 1)):
                axes = slice(axes[0], axes[-1] + 1)
            tables[key] = axes, lo, per
        return tables

    def _into_domain(self, x, glued=True):
        """Translate x in place into the fundamental domain on the periodic
        axes, the glued axis included only when ``glued``. The arithmetic
        runs in place: full-size temporaries would raise peak memory."""
        axes, lo, per = self._periodic[glued]
        v = x[..., axes]
        v -= lo
        np.mod(v, per, out=v)
        v += lo
        x[..., axes] = v    # a no-op where v is a view
        return x

    def wrap_array(self, raw):
        """Map raw chart coordinates to canonical representatives, vectorized.

        Raises OutOfManifold if any row is ``off_disk``. Wrapping is
        idempotent.
        """
        arr = np.array(raw, dtype=float)
        shape = arr.shape
        out = arr.reshape(-1, self.chart_dims)
        g = self.gluing
        if g is not None:
            lo, per = self.axis_origins[g.axis], self.periodic_axes[g.axis]
            level = np.floor((out[:, g.axis] - lo) / per).astype(int)
            z = out[:, g.axis] - level * per
            # z just below a fiber can round up onto the next one, the lower
            # edge of the sheet above: take it there
            top = z >= lo + per
            level[top] += 1
            z[top] = lo
            i, j = g.target_axes
            for k in np.unique(level[level != 0]):
                sel = level == k
                out[sel, i], out[sel, j] = self._glue(-int(k), out[sel, i],
                                                      out[sel, j])
            out[:, g.axis] = z
        self._into_domain(out)
        off = self.off_disk(out)
        if np.count_nonzero(off):
            worst = float(np.max(_norm(out[off][:, self.disk_axes])))
            raise OutOfManifold(f"{self.name}: disk coordinates reach radius "
                                f"{worst:.6g} > {self.disk_radius}")
        return out.reshape(shape)

    def off_disk(self, x):
        """Rows of x, (n, d), beyond the disk by more than a 1e-9 slack."""
        if self.disk_axes is None:
            return np.zeros(len(x), dtype=bool)
        i, j = self.disk_axes
        lim = (self.disk_radius + _DISK_SLACK) ** 2
        return x[:, i] ** 2 + x[:, j] ** 2 > lim

    def wrap(self, raw) -> Point:
        return Point(_readonly(self.wrap_array(np.asarray(raw, dtype=float))))

    # ------------------------------------------------------------ deck search

    def _glue(self, k, xi, xj):
        """Target-axis coordinates pushed k levels through the gluing: the
        gluing matrix's power -k applied to (xi, xj)."""
        m = self.gluing.power(-k)
        return m[0, 0] * xi + m[0, 1] * xj, m[1, 0] * xi + m[1, 1] * xj

    def _deck_image(self, x, k):
        """Coordinates of x pushed k levels through the gluing (a new array):
        the target axes glued, the glued axis shifted by k periods."""
        g = self.gluing
        i, j = g.target_axes
        out = np.array(x, dtype=float)
        out[..., i], out[..., j] = self._glue(k, out[..., i], out[..., j])
        out[..., g.axis] += k * self.periodic_axes[g.axis]
        return out

    def deck_copies(self, points, reach):
        """Deck images of ``points`` (n, d) such that chart-Euclidean balls
        of radius ``reach`` around the variants see every quotient neighbor.

        Returns ``(variants, copies, owner)``. The variants are the points
        and, on a glued manifold, their images one level up and one level
        down, the other periodic axes wrapped into the domain (a pure
        translation). The copies are every variant and its translates across
        each non-glued periodic axis within ``reach`` of an edge: one shift
        vector in {0, +1, -1}^k per translate. ``owner`` holds each copy's
        point index.
        """
        variants = [np.asarray(points, dtype=float)]
        if self.gluing is not None:
            variants += [self._into_domain(self._deck_image(variants[0], k),
                                           glued=False) for k in (1, -1)]
        rows = np.concatenate(variants)
        owner = np.tile(np.arange(len(variants[0])), len(variants))
        glued = self.gluing.axis if self.gluing is not None else None
        # per non-glued periodic axis and shift: the rows it moves
        edges = [(ax, per, {0: True, 1: rows[:, ax] < lo + reach,
                            -1: rows[:, ax] > lo + per - reach})
                 for ax, (lo, per) in enumerate(zip(self.axis_origins,
                                                    self.periodic_axes))
                 if per is not None and ax != glued]
        copies, owners = [], []
        for shift in itertools.product((0, 1, -1), repeat=len(edges)):
            keep = np.ones(len(rows), dtype=bool)
            delta = np.zeros(self.chart_dims)
            for (ax, per, near), s in zip(edges, shift):
                keep &= near[s]
                delta[ax] = s * per
            copies.append(rows[keep] + delta)
            owners.append(owner[keep])
        return variants, np.concatenate(copies), np.concatenate(owners)

    def _reduce(self, d):
        """Translation-reduce a fresh chart difference in place on every
        periodic axis but the glued one."""
        glued = self.gluing.axis if self.gluing is not None else None
        for ax, per in enumerate(self.periodic_axes):
            if per is not None and ax != glued:
                d[..., ax] -= per * np.rint(d[..., ax] / per)
        return d

    def _deck_search(self, p, q, p_images):
        """Shortest q-image difference from p, (..., d), and the flat norms
        of the shortest candidate, p's images included when ``p_images``.

        The in-sheet candidate is computed for every pair, a glued one only
        where its glued-axis bound (module docstring) lets it count. Ties go
        to the lowest level of q, as an argmin over (-1, 0, +1) takes them.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        best = self._reduce(q - p)
        norm = _norm(best).reshape(-1)
        flat_best = best.reshape(-1, self.chart_dims)
        ax = self.gluing.axis
        per = self.periodic_axes[ax]
        gap = best[..., ax].reshape(-1)
        lim = norm * (1.0 + 1e-12) + 1e-12 * per
        # q one level down or p one level up can count only where
        # |gap - per| <= lim, the reverse pair where |gap + per| <= lim;
        # testing one side of each keeps a superset of those pairs
        down = np.flatnonzero(gap >= per - lim)
        up = np.flatnonzero(gap <= lim - per)

        def rows(x, idx):
            if x.shape == best.shape:
                return x.reshape(-1, self.chart_dims)[idx]
            return np.broadcast_to(x, best.shape)[
                np.unravel_index(idx, best.shape[:-1])]

        for k, idx in ((-1, down), (1, up)):
            if idx.size == 0:
                continue
            pk, qk = rows(p, idx), rows(q, idx)
            d = self._reduce(self._deck_image(qk, k) - pk)
            dn = _norm(d)
            win = dn <= norm[idx] if k < 0 else dn < norm[idx]
            norm[idx[win]] = dn[win]
            flat_best[idx[win]] = d[win]
            if p_images:
                dn = _norm(self._reduce(qk - self._deck_image(pk, -k)))
                norm[idx] = np.minimum(norm[idx], dn)
        return best, norm

    def displacement(self, p, q):
        """Deck-minimal chart vector w with q ~ p + w, vectorized over (..., d).

        Candidates: translation wrap on periodic axes, plus at most one
        crossing of the glued axis with the identification applied to q.
        """
        if self.gluing is None:
            return self._reduce(np.subtract(q, p, dtype=float))
        return self._deck_search(p, q, p_images=False)[0]

    # --------------------------------------------------------------- distance

    def distance_array(self, p, q):
        """Chart distance, vectorized; symmetric by construction.

        The candidates of ``displacement`` and p's own glued images.
        """
        if self.gluing is None:
            return _norm(self._reduce(np.subtract(q, p, dtype=float)))
        best, norm = self._deck_search(p, q, p_images=True)
        return norm.reshape(best.shape[:-1])[()]

    def distance(self, p: Point, q: Point) -> float:
        return float(self.distance_array(p.coords, q.coords))
