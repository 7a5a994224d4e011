"""Reference computations that tests check the library against.

None of these is reached by a command, demo or acceptance criterion, so
they live beside the tests rather than in the package.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import rflowlab.entropy as ent
from rflowlab.flows import get_flow


HASHES = Path(__file__).resolve().parents[1] / "configs" / "HASHES.txt"


def pinned_hashes():
    """``configs/HASHES.txt`` as a dict from each listed name (``<config>/
    <file>`` or ``demos/<stem>/stdout``) to its SHA-256, and a note that
    names the listing's Python and numpy versions when this interpreter
    runs others (empty when they agree)."""
    header, *lines = HASHES.read_text().splitlines()
    here = f"# python {sys.version.split()[0]} numpy {np.__version__}"
    note = "" if header == here else \
        f"listing made under {header[2:]}, this run under {here[2:]}\n"
    return dict(line.rsplit(" ", 1) for line in lines), note


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def listing_diff(pinned: dict, got: dict) -> str:
    """The listing lines that differ: ``- name sha`` as pinned, ``+ name sha``
    as got, by name."""
    return "\n".join(f"{sign} {name} {side[name]}"
                     for name in sorted(pinned.keys() | got.keys())
                     if pinned.get(name) != got.get(name)
                     for sign, side in (("-", pinned), ("+", got))
                     if name in side)


def reversed_flow(f):
    """The flow of -X on the same manifold (stable and unstable sets swap)."""
    base_field = f.field
    base_hol = f.analytic_holonomy

    def neg_field(coords):
        return -base_field(coords)

    rev_hol = None
    if base_hol is not None:
        def rev_hol(base, t, u):
            return base_hol(base, -t, u)

    return replace(f, name=f.name + "_reversed", field=neg_field,
                   analytic_holonomy=rev_hol)


def sheared_rotation():
    """``rigid_rotation``'s chart under the field (1 + y^2, 0, 0).

    Its orbits are (x + (1 + y^2) s, y, z), so every section is normal to
    x and a section point's speed toward the target plane varies across
    the section: its crossing time is ``sheared_hit_time``, and its offset
    u comes back unchanged, as ``analytic_holonomy`` says."""
    def field(coords):
        coords = np.asarray(coords, dtype=float)
        out = np.zeros_like(coords)
        out[..., 0] = 1.0 + coords[..., 1] ** 2
        return out

    return replace(get_flow("rigid_rotation"), name="sheared_rotation",
                   field=field)


def sheared_hit_time(base_y, y, t):
    """When the sheared rotation carries a point at height y to the plane
    that a base at height base_y (and the same x) reaches at time t."""
    return (1.0 + base_y ** 2) * t / (1.0 + y ** 2)


def helical_flow(omega):
    """``rigid_rotation``'s chart under the field (1, -omega z, omega y).

    The flow is a screw motion: ``helical_orbit`` in closed form. A section
    plane's function g(s) = <phi_s(y) - base, n> is a sinusoid of frequency
    omega in time, so unlike the sheared rotation's linear one it bends
    inside a scan interval, and a secant step lands beside the root."""
    def field(coords):
        coords = np.asarray(coords, dtype=float)
        out = np.empty_like(coords)
        out[..., 0] = 1.0
        out[..., 1] = -omega * coords[..., 2]
        out[..., 2] = omega * coords[..., 1]
        return out

    return replace(get_flow("rigid_rotation"), name="helical_flow",
                   field=field, analytic_holonomy=None)


def helical_orbit(omega, p, s):
    """The helical flow's orbit of the chart point p at times s, unwrapped:
    (x + s, R(omega s)(y, z)), one row per time."""
    s = np.asarray(s, dtype=float)
    c, sn = np.cos(omega * s), np.sin(omega * s)
    return np.stack([p[0] + s, c * p[1] - sn * p[2], sn * p[1] + c * p[2]],
                    axis=-1)


def field_derivative_bound(f, points, step=1e-5):
    """sup ||DX|| over ``points`` (n, d), by central differences of the
    catalog field. A stencil across a kink of a Lipschitz field reads a
    difference quotient, which never exceeds the field's Lipschitz bound,
    so no point needs to be kept away from the kinks."""
    d = f.manifold.chart_dims
    jacs = np.zeros(points.shape[:1] + (d, d))
    for ax in range(d):
        e = np.zeros(d)
        e[ax] = step
        jacs[:, :, ax] = (f.field(points + e) - f.field(points - e)) / (2 * step)
    return float(np.max(np.linalg.norm(jacs, ord=2, axis=(1, 2))))


def section_coords(f, section, p):
    """Coefficients of p in the section frame (deck-minimal displacement)."""
    disp = f.manifold.displacement(section.base.coords, p.coords)
    return section.axes @ disp


def separated_count(f, samples, t, eps, orbit_step, tol=1e-7):
    """Greedy maximal (t, eps)-separated subset size among the samples: the
    single-horizon case of ``entropy_estimate``'s table."""
    coords = np.stack([p.coords for p in samples])
    cache = ent._OrbitCache(f, coords, max(t, orbit_step), orbit_step,
                            extra_times=[t], tol=tol)
    stride = ent._validate_step(ent._max_field_norm(cache, f), eps, orbit_step)
    return ent._separated_counts(cache, eps, [cache.index_upto(t)], stride)[0]
