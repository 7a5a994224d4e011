"""Topological entropy estimation via maximal separated sets.

A pair of samples is (t, eps)-separated when their orbits are farther than
eps apart (strict inequality) at some sampled time in [0, t]. The sampled
times are the cached times up to t taken with the stride that
``_validate_step`` allows, plus the last cached time up to t, so the
horizon endpoint is always tested. Counts are greedy maximal separated
subsets in fixed index order: a sample is accepted when it is separated
from every previously accepted one.

Each sample's orbit is integrated once and cached. Work is done per
accepted sample, not per candidate: its time-zero eps-neighbors come from
one lookup in a cell grid of the manifold's ``deck_copies`` (any sample
farther than eps at time zero is separated from it at every horizon), and
one distance table over the strided cached times and the horizon endpoints
gives its separation from each neighbor at every horizon. The neighbors it
fails to separate from are blocked, and the greedy pass jumps straight to
the next sample that is neither accepted nor blocked. Entropy reads no
deck structure itself: the quotient is the manifold's business.

``entropy_estimate`` fills the whole (t, eps) table by extending each
accepted set as t grows: each column is seeded with the previous column's
accepted set, which keeps counts non-decreasing in t by construction, and
accepts further samples that are separated from every member at the
column's horizon. Seeded members stay even where a stride makes separation
non-monotone in t (a shorter horizon's endpoint can fall off the stride of
a longer one). The growth exponent
per eps comes from a least-squares fit of log counts over the largest
unsaturated prefix of the time grid (counts below 0.8 of the sample budget).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import Saturated, StepTooCoarse
from .flows import FlowSpec, sample_points
from .integrate import orbit_batch

SATURATION_FRACTION = 0.8


@dataclass
class EntropyReport:
    flow_name: str
    sample_spec: dict
    eps_list: list
    t_list: list
    counts: np.ndarray          # (n_eps, n_t) ints
    slopes: list                # per eps, None when saturated
    windows: list               # per eps, (first index, last index) of the fit
    verdict: float              # slope at the smallest eps
    uncertainty: float          # max pairwise slope spread
    monotone_in_t: bool
    monotone_in_eps: bool

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["eps", "t", "count"])
            for i, eps in enumerate(self.eps_list):
                for j, t in enumerate(self.t_list):
                    w.writerow([f"{eps:.17g}", f"{t:.17g}",
                                int(self.counts[i, j])])

    def to_json(self, path):
        payload = {
            "flow": self.flow_name,
            "sample_spec": self.sample_spec,
            "eps_list": list(map(float, self.eps_list)),
            "t_list": list(map(float, self.t_list)),
            "slopes": [None if s is None else float(s) for s in self.slopes],
            "windows": [list(map(int, w)) if w is not None else None
                        for w in self.windows],
            "verdict": float(self.verdict),
            "uncertainty": float(self.uncertainty),
            "monotone_in_t": self.monotone_in_t,
            "monotone_in_eps": self.monotone_in_eps,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_dat(self, path_pattern):
        """Two-column (t, count) plot files, one per eps."""
        paths = []
        for i, eps in enumerate(self.eps_list):
            path = str(path_pattern).format(eps=f"{eps:g}".replace(".", "p"))
            with open(path, "w") as fh:
                for j, t in enumerate(self.t_list):
                    fh.write(f"{t:.17g} {int(self.counts[i, j])}\n")
            paths.append(path)
        return paths


class _OrbitCache:
    """Wrapped orbit samples for every point on a shared time grid."""

    def __init__(self, f: FlowSpec, pts_coords, t_max, step, extra_times=(),
                 tol=1e-7):
        base = np.arange(0.0, t_max + 0.5 * step, step)
        times = np.unique(np.concatenate([base, np.asarray(extra_times, float),
                                          [0.0, t_max]]))
        times = times[(times >= 0.0) & (times <= t_max + 1e-12)]
        self.times = times
        self.orbits = orbit_batch(f, pts_coords, times, tol=tol)  # (n, m, d)
        self.manifold = f.manifold

    def index_upto(self, t):
        return int(np.searchsorted(self.times, t + 1e-12))


# Cells per axis stay at most this many (plus one), so the int64 cell keys
# of a 3-dimensional chart cannot overflow whatever eps is.
_MAX_CELLS_PER_AXIS = 2 ** 20


def _neighbor_screen(manifold, pos, eps):
    """Return ``neighbors(j)``: sorted indices within eps of ``pos[j]``.

    A cell grid holds deck copies of every point, sorted by the key of
    their cubic cell, whose side is at least the search radius
    eps (1 + 1e-9): a ball of that radius lies in the 3^d cells around its
    center. Only occupied cells are indexed, by a binary search in the
    sorted keys. Around a cell on the grid's edge some of those keys name
    cells on the far side; that only adds candidates, which the distance
    test drops. The glued identification is not an isometry, so each
    query takes balls around the point and its own deck images (the
    variants of ``ModelManifold.deck_copies``); copies inside them are
    then confirmed with the exact quotient distance. The relation is
    symmetric, so a candidate that an accepted sample does not list is
    more than eps from it at time zero.
    """
    variants, copies, owner = manifold.deck_copies(pos, eps)
    radius = eps * (1.0 + 1e-9)
    lo = copies.min(axis=0)
    span = copies.max(axis=0) - lo
    side = max(radius, float(span.max()) / _MAX_CELLS_PER_AXIS)
    shape = (span // side).astype(np.int64) + 1
    weight = np.cumprod(np.r_[1, shape[:0:-1]])[::-1]   # row-major key

    def keys_of(x):
        return np.floor((x - lo) / side).astype(np.int64) @ weight

    keys = keys_of(copies)
    order = np.argsort(keys, kind="stable")
    keys, copies, owner = keys[order], copies[order], owner[order]
    # one key range per row of 3 cells along the last axis
    rows = np.array(list(itertools.product((-1, 0, 1),
                                           repeat=copies.shape[1] - 1)),
                    dtype=np.int64) @ weight[:-1]
    queries = np.stack(variants, axis=1)                 # (n, variants, d)
    query_keys = keys_of(queries)[..., None] + rows      # (n, variants, rows)

    def neighbors(j):
        start = np.searchsorted(keys, query_keys[j].ravel() - 1)
        stop = np.searchsorted(keys, query_keys[j].ravel() + 1, side="right")
        n_in = stop - start
        idx = np.repeat(start - np.cumsum(n_in) + n_in, n_in) + np.arange(
            n_in.sum())
        d = copies[idx] - np.repeat(queries[j], n_in.reshape(
            len(variants), -1).sum(axis=1), axis=0)
        near = idx[np.einsum("ij,ij->i", d, d) <= radius * radius]
        ids = np.unique(owner[near])
        ids = ids[ids != j]
        return ids[manifold.distance_array(pos[j], pos[ids]) <= eps]

    return neighbors


def _separated_counts(cache: _OrbitCache, eps: float, horizons,
                      stride: int):
    """Greedy maximal separated set sizes, one per horizon.

    ``horizons`` are increasing cached-time counts m; horizon m samples
    the times ``0, stride, 2 stride, ... < m`` and ``m - 1`` (the caller
    guarantees the strided step still meets the eps/2 bound). Each horizon
    extends the previous one's accepted set.
    """
    orbits = cache.orbits
    n = orbits.shape[0]
    last = np.asarray(horizons) - 1
    # only the strided times and the horizon endpoints are ever read
    cols = np.union1d(np.arange(0, last[-1] + 1, stride), last)
    on_stride = cols % stride == 0
    at = np.searchsorted(cols, last)
    neighbors = _neighbor_screen(cache.manifold, orbits[:, 0, :], eps)
    taken = np.zeros(n, dtype=bool)
    blocked = np.zeros((n, last.size), dtype=bool)
    counts = []
    for c in range(last.size):
        i = 0
        while True:
            free = np.flatnonzero(~(taken[i:] | blocked[i:, c]))
            if free.size == 0:
                break
            j = i + int(free[0])
            taken[j] = True
            i = j + 1
            nbr = neighbors(j)
            # rows only matter for candidates still free at some horizon
            nbr = nbr[~(taken[nbr] | blocked[nbr, c:].all(axis=1))]
            if nbr.size:
                ex = cache.manifold.distance_array(
                    orbits[j, cols], orbits[nbr].take(cols, axis=1)) > eps
                seen = np.logical_or.accumulate(ex & on_stride, axis=1)
                blocked[nbr] |= ~(seen[:, at] | ex[:, at])
        counts.append(int(np.count_nonzero(taken)))
    return counts


def _grid_samples(f: FlowSpec, shape, seed: int = 0, jitter: bool = True):
    """Stratified lattice sample on the suspension chart.

    A stratified cloud resolves much finer transverse scales than a Poisson
    cloud of the same size (one point per cell, deterministic coverage).
    The exact integer lattice is invariant under the torus automorphism and
    its pair differences quantize, which stalls separated counts at lattice
    fractions; a per-point uniform jitter inside each cell removes the
    resonance, so jitter stays on unless explicitly disabled.
    """
    if f.manifold.disk_axes is not None:
        raise ValueError("grid sampling is defined on the suspension chart only")
    n1, n2, n3 = (int(v) for v in shape)
    axes = [np.arange(k) / k for k in (n1, n2, n3)]
    g = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in g], axis=1)
    if jitter:
        rng = np.random.default_rng(seed)
        pts = pts + rng.uniform(0.0, 1.0, size=pts.shape) / np.array(
            [n1, n2, n3], dtype=float)
    else:
        pts = pts + 0.5 / np.array([n1, n2, n3], dtype=float)
    return np.mod(pts, 1.0)


def _max_field_norm(cache: _OrbitCache, f: FlowSpec) -> float:
    return float(np.max(np.linalg.norm(
        f.field(cache.orbits.reshape(-1, cache.orbits.shape[-1])), axis=-1)))


def _validate_step(max_norm: float, eps: float, step: float) -> int:
    """Check the sampling bound and return the coarsest admissible stride.

    Sampling two orbits every h time units misses their largest distance
    by at most h max||X||, which stays below eps/2 when
    ``h <= eps / (2 max||X||)``; ``step`` must meet that bound. The stride
    is the largest number of cached steps that still meets it: a horizon
    with m cached times samples indices ``0, stride, 2 stride, ... < m``
    and ``m - 1``, so its endpoint is tested even off the stride.
    """
    bound = eps / (2.0 * max_norm)
    if step > bound + 1e-12:
        raise StepTooCoarse(
            f"orbit_step={step} exceeds eps / (2 max||X||) = {bound:.4g}")
    return max(1, int(math.floor(bound / step)))


def entropy_estimate(f: FlowSpec, sample_spec: dict, eps_list, t_list,
                     orbit_step: float, tol: float = 1e-7,
                     fit_window=None) -> EntropyReport:
    """Separated-set counts over a (t, eps) table with growth-rate fits.

    ``sample_spec`` needs ``count`` and ``seed``; ``x_range`` and
    ``disk_radius_max`` restrict the sampling region on the solid-torus
    chart (used to keep clear of the singular disk), while ``grid`` asks
    for a stratified lattice on the suspension.

    The fit for each eps runs over the largest prefix of ``t_list`` whose
    counts stay below 0.8 of the sample budget; ``fit_window=(lo, hi)``
    additionally clips the fitted range, which keeps warm-up transients
    (and sample-resolution tails) out of the slope while the full table is
    still computed and reported.
    """
    eps_list = list(map(float, eps_list))
    t_list = list(map(float, t_list))
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")

    seed = int(sample_spec.get("seed", 0))
    if sample_spec.get("grid") is not None:
        coords = _grid_samples(f, sample_spec["grid"], seed=seed,
                               jitter=bool(sample_spec.get("jitter", True)))
        n = coords.shape[0]
        sample_spec = dict(sample_spec, count=n)
    else:
        n = int(sample_spec["count"])
        pts = sample_points(f, n, seed=seed,
                            x_range=sample_spec.get("x_range"),
                            disk_radius_max=sample_spec.get("disk_radius_max"))
        coords = np.stack([p.coords for p in pts])

    cache = _OrbitCache(f, coords, max(t_list), orbit_step,
                        extra_times=t_list, tol=tol)
    max_norm = _max_field_norm(cache, f)
    strides = [_validate_step(max_norm, eps, orbit_step) for eps in eps_list]

    horizons = [cache.index_upto(t) for t in t_list]
    counts = np.array([_separated_counts(cache, eps, horizons, stride)
                       for eps, stride in zip(eps_list, strides)], dtype=int)

    monotone_t = bool(np.all(np.diff(counts, axis=1) >= 0))
    monotone_eps = bool(np.all(np.diff(counts, axis=0) >= 0))  # eps decreasing

    ceiling = SATURATION_FRACTION * n
    slopes, windows = [], []
    for ei in range(len(eps_list)):
        row = counts[ei]
        m = int(np.argmax(row >= ceiling)) if np.any(row >= ceiling) else len(row)
        idx = np.arange(m)
        if fit_window is not None:
            lo, hi = float(fit_window[0]), float(fit_window[1])
            tt_all = np.array(t_list)
            idx = idx[(tt_all[idx] >= lo - 1e-12) & (tt_all[idx] <= hi + 1e-12)]
        if idx.size < 3:
            slopes.append(None)
            windows.append(None)
            continue
        tt = np.array(t_list)[idx]
        yy = np.log(row[idx].astype(float))
        slope = float(np.polyfit(tt, yy, 1)[0])
        slopes.append(slope)
        windows.append((int(idx[0]), int(idx[-1])))
    if all(s is None for s in slopes):
        raise Saturated("all fit windows saturated; increase the sample count")

    valid = [s for s in slopes if s is not None]
    verdict = valid[-1]     # eps decreases: the smallest eps with a fit
    uncertainty = max(abs(a - b) for a in valid for b in valid) if len(valid) > 1 else 0.0

    return EntropyReport(
        flow_name=f.name, sample_spec=dict(sample_spec), eps_list=eps_list,
        t_list=t_list, counts=counts, slopes=slopes, windows=windows,
        verdict=float(verdict), uncertainty=float(uncertainty),
        monotone_in_t=monotone_t, monotone_in_eps=monotone_eps,
    )
