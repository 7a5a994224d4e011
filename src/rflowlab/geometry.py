"""Flat model manifolds: quotients of Euclidean space.

A :class:`ModelManifold` is a chart ``R^d`` reduced by per-axis translations
(periodic axes), optionally one axis whose identification also applies a
linear map to two designated transverse axes (the glued axis of a mapping
torus), and optionally a pair of axes constrained to the closed unit disk.

Because every built-in manifold is flat, the exponential map at a point is
chart addition followed by wrapping, and distances use a bounded search over
deck representatives: exact translation minimization on periodic axes, and
at most one crossing of the glued axis. When the gluing applies a linear map
that is not an isometry, comparisons that cross the glued fiber inherit its
stretch; the distance stays exact for points on a common transverse fiber
and for separations well below a quarter period, which is where every
rescaled comparison in this library lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateField, OutOfManifold

_DISK_SLACK = 1e-9
_ORTHO_TOL = 1e-10


def _readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


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
class NormalFrame:
    """Orthonormal basis of the hyperplane normal to a field direction."""

    base: Point
    axes: np.ndarray        # (d-1, d), rows orthonormal and orthogonal to field_dir
    field_dir: np.ndarray   # unit vector


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

    def wrap_array(self, raw):
        """Map raw chart coordinates to canonical representatives, vectorized.

        Raises OutOfManifold if any disk-constrained pair has norm above
        ``disk_radius`` (with 1e-9 slack). Wrapping is idempotent.
        """
        arr = np.array(raw, dtype=float)
        shape = arr.shape
        out = arr.reshape(-1, self.chart_dims)
        g = self.gluing
        if g is not None:
            per = self.periodic_axes[g.axis]
            lo = self.axis_origins[g.axis]
            k = np.floor((out[:, g.axis] - lo) / per).astype(int)
            if np.any(k != 0):
                i, j = g.target_axes
                for kv in np.unique(k):
                    if kv == 0:
                        continue
                    sel = k == kv
                    m = g.power(int(kv))
                    vi = out[sel, i].copy()
                    vj = out[sel, j].copy()
                    out[sel, i] = m[0, 0] * vi + m[0, 1] * vj
                    out[sel, j] = m[1, 0] * vi + m[1, 1] * vj
                out[:, g.axis] -= k * per
        for ax, per in enumerate(self.periodic_axes):
            if per is None:
                continue
            lo = self.axis_origins[ax]
            out[:, ax] = lo + np.mod(out[:, ax] - lo, per)
        if self.disk_axes is not None:
            i, j = self.disk_axes
            r2 = out[:, i] ** 2 + out[:, j] ** 2
            lim = (self.disk_radius + _DISK_SLACK) ** 2
            if np.any(r2 > lim):
                worst = float(np.sqrt(np.max(r2)))
                raise OutOfManifold(
                    f"{self.name}: disk coordinates reach radius {worst:.6g} "
                    f"> {self.disk_radius}"
                )
        return out.reshape(shape)

    def wrap(self, raw) -> Point:
        return Point(_readonly(self.wrap_array(np.asarray(raw, dtype=float))))

    # ------------------------------------------------------------ displacement

    def displacement(self, p, q):
        """Deck-minimal chart vector w with q ~ p + w, vectorized over (..., d).

        Candidates: translation wrap on periodic axes, plus at most one
        crossing of the glued axis with the identification applied to q.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self.gluing is None:
            return self._wrap_delta(q - p)
        g = self.gluing
        per = self.periodic_axes[g.axis]
        i, j = g.target_axes
        cands = []
        for k in (-1, 0, 1):
            qk = np.array(np.broadcast_to(q, np.broadcast(p, q).shape), dtype=float)
            if k != 0:
                m = g.power(-k)
                vi = qk[..., i].copy()
                vj = qk[..., j].copy()
                qk[..., i] = m[0, 0] * vi + m[0, 1] * vj
                qk[..., j] = m[1, 0] * vi + m[1, 1] * vj
                qk[..., g.axis] += k * per
            d = qk - p
            d = self._wrap_delta(d, skip_axis=g.axis)
            cands.append(d)
        stack = np.stack(cands)                       # (3, ..., d)
        norms = np.linalg.norm(stack, axis=-1)        # (3, ...)
        best = np.argmin(norms, axis=0)
        return np.take_along_axis(stack, best[None, ..., None], axis=0)[0]

    def _wrap_delta(self, d, skip_axis=None):
        d = np.array(d, dtype=float)
        for ax, per in enumerate(self.periodic_axes):
            if per is None or ax == skip_axis:
                continue
            d[..., ax] -= per * np.round(d[..., ax] / per)
        return d

    # --------------------------------------------------------------- distance

    def _deck_image(self, q, k):
        """Coordinates of q pushed k levels through the gluing."""
        g = self.gluing
        per = self.periodic_axes[g.axis]
        i, j = g.target_axes
        m = g.power(-k)
        out = np.array(q, dtype=float, copy=True)
        vi = out[..., i].copy()
        vj = out[..., j].copy()
        out[..., i] = m[0, 0] * vi + m[0, 1] * vj
        out[..., j] = m[1, 0] * vi + m[1, 1] * vj
        out[..., g.axis] += k * per
        return out

    def distance_array(self, p, q):
        """Chart distance, vectorized; symmetric by construction.

        Distance-only fast path: accumulates a running minimum over deck
        candidates without materializing displacement vectors.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self.gluing is None:
            return np.linalg.norm(self._wrap_delta(q - p), axis=-1)
        ax = self.gluing.axis
        best = np.linalg.norm(self._wrap_delta(q - p, skip_axis=ax), axis=-1)
        for k in (-1, 1):
            d = np.linalg.norm(
                self._wrap_delta(self._deck_image(q, k) - p, skip_axis=ax),
                axis=-1)
            best = np.minimum(best, d)
            d = np.linalg.norm(
                self._wrap_delta(q - self._deck_image(p, k), skip_axis=ax),
                axis=-1)
            best = np.minimum(best, d)
        return best

    def distance(self, p: Point, q: Point) -> float:
        return float(self.distance_array(p.coords, q.coords))

    # ----------------------------------------------------------------- frames

    def normal_frame(self, x: Point, field_dir, seed_axes=None) -> NormalFrame:
        """Orthonormal completion of ``field_dir`` at ``x``.

        Deterministic: candidate vectors are either the given seed axes
        (used to keep frames continuous along an orbit) or the standard
        basis with the axis most aligned to the field removed, processed in
        order with Gram-Schmidt.
        """
        d = np.asarray(field_dir, dtype=float)
        n = np.linalg.norm(d)
        if n < 1e-12:
            raise DegenerateField(f"field direction norm {n:.3e} below 1e-12")
        d = d / n
        dim = self.chart_dims
        cands = []
        if seed_axes is not None:
            cands.extend(np.asarray(a, dtype=float) for a in seed_axes)
        drop = int(np.argmax(np.abs(d)))
        cands.extend(np.eye(dim)[ax] for ax in range(dim) if ax != drop)
        cands.extend(np.eye(dim)[ax] for ax in range(dim))  # fill-in fallback
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
        if len(axes) < dim - 1:
            raise DegenerateField("could not complete an orthonormal frame")
        return NormalFrame(base=x, axes=_readonly(np.array(axes)), field_dir=_readonly(d))

    # -------------------------------------------------------------------- exp

    def exp(self, frame: NormalFrame, v) -> Point:
        """Exponential map: chart translation along the frame, then wrap."""
        v = np.asarray(v, dtype=float)
        raw = frame.base.coords + v @ frame.axes
        return self.wrap(raw)


# Spec-level operation surface -------------------------------------------------

def wrap(m: ModelManifold, raw) -> Point:
    return m.wrap(raw)


def distance(m: ModelManifold, p: Point, q: Point) -> float:
    return m.distance(p, q)


def normal_frame(m: ModelManifold, x: Point, field_dir, seed_axes=None) -> NormalFrame:
    return m.normal_frame(x, field_dir, seed_axes=seed_axes)


def exp_map(m: ModelManifold, frame: NormalFrame, v) -> Point:
    return m.exp(frame, v)
