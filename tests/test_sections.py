"""Cross-sections and holonomy: construction, the analytic section-map
oracle, rescaled-tube containment, injectivity, and stepwise orbits."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    helical_flow,
    helical_orbit,
    section_coords,
    sheared_hit_time,
    sheared_rotation,
)
from rflowlab.errors import (
    BetaTooLarge,
    LeftTube,
    NoCrossing,
    OutOfManifold,
    SingularBase,
    Timeout,
)
from rflowlab import integrate, sections
from rflowlab.flows import CAT_MATRIX, LAMBDA_PLUS, get_flow, sample_points
from rflowlab.integrate import EVENT_TOL, first_crossing, flow_map
from rflowlab.sections import holonomy, holonomy_orbit, make_section, section_point

TORUS = get_flow("solid_torus")
CAT = get_flow("cat_suspension")
RIGID = get_flow("rigid_rotation")
SHEARED = sheared_rotation()


def _pt(flow, coords):
    return flow.manifold.wrap(coords)


def test_make_section_radius():
    sec = make_section(TORUS, _pt(TORUS, (-0.5, 0.0, 0.0)), 0.1)
    assert sec.radius == pytest.approx(0.05)
    sec = make_section(CAT, _pt(CAT, (0.3, 0.3, 0.3)), 0.1)
    assert sec.radius == pytest.approx(0.1)


def test_make_section_singular_base():
    with pytest.raises(SingularBase):
        make_section(TORUS, _pt(TORUS, (0.0, 0.2, 0.0)), 0.1)


def test_make_section_beta_too_large():
    with pytest.raises(BetaTooLarge):
        make_section(CAT, _pt(CAT, (0.3, 0.3, 0.3)), 0.5)


def test_radius_linear_in_beta():
    x = _pt(TORUS, (-0.7, 0.1, 0.0))
    r1 = make_section(TORUS, x, 0.05).radius
    r2 = make_section(TORUS, x, 0.10).radius
    assert r2 == pytest.approx(2 * r1)


def test_section_coords_roundtrip():
    sec = make_section(CAT, _pt(CAT, (0.4, 0.6, 0.3)), 0.1)
    u = np.array([0.03, -0.04])
    p = section_point(CAT, sec, u)
    assert np.allclose(section_coords(CAT, sec, p), u, atol=1e-12)


def _constant_flow(flow, direction):
    """``flow`` with the constant field ``direction`` in place of its own."""
    d = np.asarray(direction, dtype=float)
    return replace(flow, field=lambda c: np.broadcast_to(d, np.shape(c)))


def test_section_frame_canonical_torus():
    sec = make_section(TORUS, _pt(TORUS, (0.5, 0.0, 0.0)), 0.1)
    assert np.allclose(sec.axes, [[0, 1, 0], [0, 0, 1]], atol=1e-12)


def test_section_frame_canonical_cat():
    sec = make_section(CAT, _pt(CAT, (0.2, 0.3, 0.4)), 0.1)
    assert np.allclose(sec.axes, [[1, 0, 0], [0, 1, 0]], atol=1e-12)


def test_section_frame_orthonormal_random():
    rng = np.random.default_rng(3)
    x = _pt(CAT, (0.5, 0.5, 0.5))
    for _ in range(200):
        d = rng.normal(size=3)
        sec = make_section(_constant_flow(CAT, d), x, 0.1)
        dhat = d / np.linalg.norm(d)
        assert np.allclose(sec.normal, dhat, atol=1e-15)
        assert np.allclose(sec.axes @ sec.axes.T, np.eye(2), atol=1e-10)
        assert np.max(np.abs(sec.axes @ dhat)) < 1e-10


@st.composite
def _frame_directions(draw):
    """Exact axes, directions within 1e-3 of one, and the diagonal."""
    kind = draw(st.sampled_from(("axis", "near", "diagonal")))
    if kind == "diagonal":
        return np.ones(3) / math.sqrt(3.0)
    d = np.zeros(3)
    d[draw(st.integers(0, 2))] = draw(st.sampled_from((1.0, -1.0)))
    if kind == "near":
        d += draw(st.lists(st.floats(-1e-3, 1e-3), min_size=3, max_size=3))
    return d


@settings(max_examples=300, deadline=None)
@given(d=_frame_directions(),
       seeds=st.sampled_from(("absent", "random", "parallel")),
       vecs=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                     min_size=1, max_size=3))
def test_section_frame_is_complete_for_any_direction_and_seed(d, seeds, vecs):
    """The standard axes other than the one most aligned with the field
    span the normal plane, so Gram-Schmidt over the seeds and then them
    always ends with d - 1 axes. 1e-6 bounds the roundoff of a seed kept
    with a residual just above the 1e-8 threshold."""
    seed_axes = {"absent": None, "random": vecs, "parallel": [d, -2.0 * d]}[seeds]
    sec = make_section(_constant_flow(CAT, d), _pt(CAT, (0.5, 0.5, 0.5)), 0.1,
                       seed_axes=seed_axes)
    assert sec.axes.shape == (2, 3)
    assert np.allclose(sec.normal, d / np.linalg.norm(d), atol=1e-15)
    assert np.allclose(sec.axes @ sec.axes.T, np.eye(2), atol=1e-6)
    assert np.max(np.abs(sec.axes @ sec.normal)) < 1e-6


def test_section_point_zero_is_base():
    x = _pt(TORUS, (0.5, 0.1, -0.2))
    p = section_point(TORUS, make_section(TORUS, x, 0.1), (0.0, 0.0))
    assert np.allclose(p.coords, x.coords, atol=1e-15)


def test_section_point_flat_translation():
    sec = make_section(TORUS, _pt(TORUS, (0.5, 0.0, 0.0)), 0.1)
    p = section_point(TORUS, sec, (0.3, 0.0))
    assert np.allclose(p.coords, (0.5, 0.3, 0.0), atol=1e-12)


def test_section_point_local_isometry():
    rng = np.random.default_rng(5)
    x = _pt(CAT, (0.4, 0.6, 0.3))
    sec = make_section(CAT, x, 0.1)
    for _ in range(500):
        v = rng.uniform(-1, 1, size=2)
        v *= rng.uniform(0, 0.2) / max(np.linalg.norm(v), 1e-12)
        p = section_point(CAT, sec, v)
        assert abs(CAT.manifold.distance(x, p) - np.linalg.norm(v)) <= 1e-9


def test_section_point_propagates_out_of_manifold():
    sec = make_section(TORUS, _pt(TORUS, (0.5, 0.9, 0.0)), 0.1)
    with pytest.raises(OutOfManifold):
        section_point(TORUS, sec, (0.5, 0.0))


def test_holonomy_rejects_times_beyond_t_max():
    """Checked before the tube batch, which would otherwise allocate
    ceil(|t| / 0.05) samples first."""
    x = _pt(CAT, (0.2, 0.8, 0.6))
    sec = make_section(CAT, x, 0.1)
    with mock.patch.object(sections, "orbit_batch",
                           side_effect=AssertionError("tube batch ran")):
        for t in (300.0, -300.0):
            with pytest.raises(ValueError, match="T_MAX"):
                holonomy(CAT, sec, t, x)


def test_holonomy_base_maps_to_base():
    x = _pt(CAT, (0.2, 0.8, 0.6))
    sec = make_section(CAT, x, 0.1)
    res = holonomy(CAT, sec, 1.0, x)
    assert res.hit_time == pytest.approx(1.0, abs=1e-9)
    assert CAT.manifold.distance(res.target.base, res.image) <= 1e-9
    assert res.tube_ok


def test_holonomy_matches_analytic_map_small():
    """Numerical holonomy vs the closed-form section map, forward and back."""
    rng = np.random.default_rng(31)
    beta = 0.1
    L = CAT.rescale.L
    for t in (1.0, 2.0, -1.0, 5.0, -5.0, 3.5):
        dom = beta / L ** abs(t)
        for _ in range(25):
            x = _pt(CAT, rng.uniform(0, 1, size=3))
            sec = make_section(CAT, x, beta)
            u = rng.uniform(-1, 1, size=2)
            u *= rng.uniform(0, 0.95) * dom / max(np.linalg.norm(u), 1e-12)
            y = section_point(CAT, sec, u)
            res = holonomy(CAT, sec, t, y)
            expect = CAT.analytic_holonomy(x, t, u)
            assert np.linalg.norm(res.image_coords - expect) < 1e-6


def test_holonomy_solid_torus_disk_isometry():
    x = _pt(TORUS, (0.5, 0.0, 0.0))
    sec = make_section(TORUS, x, 0.1)
    y = _pt(TORUS, (0.5, 0.01, 0.0))
    res = holonomy(TORUS, sec, 1.0, y)
    assert np.allclose(res.image.coords[1:], (0.01, 0.0), atol=1e-9)
    assert res.image.coords[0] == pytest.approx(res.target.base.coords[0], abs=1e-9)
    assert np.allclose(res.image_coords, section_coords(TORUS, sec, y), atol=1e-9)


def test_rescaled_tube_property_sampled():
    """tube_ok holds for y inside the beta / L^t domain (both example flows)."""
    rng = np.random.default_rng(32)
    beta = 0.1
    for flow, tmin in ((CAT, 0.5), (TORUS, 0.05)):
        L = flow.rescale.L
        for _ in range(40):
            t = rng.uniform(tmin, 3.0)
            if flow is TORUS:
                x = sample_points(flow, 1, seed=rng.integers(1 << 30),
                                  x_range=(0.1, 1.9))[0]
            else:
                x = _pt(flow, rng.uniform(0, 1, size=3))
            sec = make_section(flow, x, beta)
            u = rng.uniform(-1, 1, size=2)
            u *= rng.uniform(0, 0.95) * (beta / L ** t) * sec.base_field_norm \
                / max(np.linalg.norm(u), 1e-12)
            y = section_point(flow, sec, u)
            res = holonomy(flow, sec, t, y, radius_slack=4.0)
            assert res.tube_ok, (flow.name, t, u)


def _base(flow, a, b, c):
    """A regular base point from three unit draws."""
    if flow is CAT:
        return _pt(CAT, (a, b, c))
    x = math.copysign(0.2 + 1.7 * abs(2 * a - 1), a - 0.5)  # |x| in [0.2, 1.9]
    return _pt(flow, (x, 0.6 * b * math.cos(2 * math.pi * c),
                      0.6 * b * math.sin(2 * math.pi * c)))


unit = st.floats(0.0, 1.0)


@settings(max_examples=15, deadline=None)
@given(flow=st.sampled_from([TORUS, CAT, RIGID]), a=unit, b=unit, c=unit,
       t=st.floats(0.5, 3.0), backward=st.booleans(),
       angle=st.floats(0.0, 2 * math.pi), frac=st.floats(0.0, 0.98))
def test_holonomy_matches_analytic_property(flow, a, b, c, t, backward, angle, frac):
    """y shares the base's along-field coordinate, so it hits at time t:
    the crossing search starts at y(t) from the tube batch, finds the hit
    there, exactly at t, and integrates once, back to the window start (a
    spy on ``integrate.orbit_batch``, which the tube batch does not go
    through)."""
    t = -t if backward else t
    x = _base(flow, a, b, c)
    if flow is CAT:
        # on the glued fiber the section coordinates are defined only up to A
        s_end = x.coords[2] + t
        assume(abs(s_end - round(s_end)) > 1e-6)
    beta = 0.1
    sec = make_section(flow, x, beta)
    dom = beta / flow.rescale.L ** abs(t) * sec.base_field_norm
    u = frac * dom * np.array([math.cos(angle), math.sin(angle)])
    with mock.patch.object(integrate, "orbit_batch",
                           wraps=integrate.orbit_batch) as spy:
        res = holonomy(flow, sec, t, section_point(flow, sec, u),
                       radius_slack=4.0)
    assert spy.call_count == 1
    assert res.hit_time == t
    assert abs(res.residual) <= 1e-10
    assert np.linalg.norm(res.image_coords - flow.analytic_holonomy(x, t, u)) <= 1e-6


def _sheared_case(bx, r, th, a, b):
    """A base of the sheared rotation, its section at beta = 0.1, and the
    section point at offset (a, b) section radii."""
    base = _pt(SHEARED, (bx, r * math.cos(th), r * math.sin(th)))
    sec = make_section(SHEARED, base, 0.1)
    u = sec.radius * np.array([a, b])
    return base, sec, u, section_point(SHEARED, sec, u)


# |t| <= 3 keeps the next crossing of the target plane, one x-period of 4
# later at speed <= 1.64, out of every window drawn here
SHEARED_DRAWS = dict(bx=st.floats(-1.9, 1.9), r=st.floats(0.0, 0.6),
                     th=st.floats(0.0, 2 * math.pi), a=st.floats(-1.4, 1.4),
                     b=st.floats(-1.4, 1.4), t=st.floats(0.05, 3.0),
                     backward=st.booleans(), tol=st.sampled_from((1e-7, 1e-9)))


@settings(max_examples=80, deadline=None)
@given(**SHEARED_DRAWS)
def test_holonomy_matches_sheared_closed_form(bx, r, th, a, b, t, backward, tol):
    """Where the crossing time varies across the section: the hit time is
    ``sheared_hit_time`` and the image is u; NoCrossing exactly where that
    time leaves the window t +- radius, else LeftTube exactly where u
    leaves the radius, with LeftTube's hit time on the same clock as t."""
    t = -t if backward else t
    base, sec, u, y = _sheared_case(bx, r, th, a, b)
    hit = sheared_hit_time(base.coords[1], y.coords[1], t)
    w = sec.radius      # the target base keeps its height, so its radius
    late, wide = abs(hit - t) - w, np.linalg.norm(u) - w
    assume(abs(late) > 1e-9 * (1.0 + abs(t)) and abs(wide) > 1e-9)
    if late > 0 or wide > 0:
        with pytest.raises(NoCrossing if late > 0 else LeftTube) as exc:
            holonomy(SHEARED, sec, t, y, tol=tol)
        if late <= 0:
            assert abs(exc.value.hit_time - hit) <= 10 * tol * (1.0 + abs(t))
        return
    res = holonomy(SHEARED, sec, t, y, tol=tol)
    assert abs(res.hit_time - hit) <= 10 * tol * (1.0 + abs(t))
    assert abs(res.residual) <= EVENT_TOL
    assert np.allclose(res.image_coords, u, rtol=0.0, atol=10 * tol)


def _outcome(call):
    """``call()``'s result as bits, or its error's type, message and hit time."""
    try:
        res = call()
    except (LeftTube, NoCrossing) as exc:
        return type(exc), str(exc), getattr(exc, "hit_time", None)
    tgt = res.target
    return tuple(np.asarray(v).tobytes() for v in (
        res.image.coords, res.hit_time, res.tube_ok, res.image_coords,
        res.residual, tgt.base.coords, tgt.axes, tgt.normal, tgt.beta,
        tgt.base_field_norm))


@settings(max_examples=60, deadline=None)
@given(flow=st.sampled_from([CAT, RIGID, TORUS, SHEARED]),
       t=st.floats(0.05, 3.0), backward=st.booleans(),
       pairs=st.lists(st.tuples(unit, unit, unit, st.floats(-1.4, 1.4),
                                st.floats(-1.4, 1.4)), min_size=1, max_size=6))
def test_tube_batch_rows_match_their_one_pair_batches(flow, t, backward, pairs):
    """A tube batch of pairs from different bases (on the solid torus,
    bases on both sides of the kink |x| = 1): each row's tube flag, target
    base, y(t) and next step have the bits of that pair's one-pair batch,
    and ``holonomy`` given the row returns what it returns without it,
    field by field, or raises the same error with the same hit time."""
    t = -t if backward else t
    secs, ys = [], []
    for a, b, c, ua, ub in pairs:
        sec = make_section(flow, _base(flow, a, b, c), 0.1)
        secs.append(sec)
        ys.append(section_point(flow, sec, sec.radius * np.array([ua, ub])))
    rows = sections.tube_batch(flow, secs, t, ys)
    assert len(rows) == len(pairs)
    for sec, y, row in zip(secs, ys, rows):
        (solo,) = sections.tube_batch(flow, [sec], t, [y])
        assert type(row[0]) is bool
        assert [np.asarray(v).tobytes() for v in row] == \
            [np.asarray(v).tobytes() for v in solo]
        assert _outcome(lambda: holonomy(flow, sec, t, y, tube=row)) == \
            _outcome(lambda: holonomy(flow, sec, t, y))


@settings(max_examples=120, deadline=None)
@given(**SHEARED_DRAWS, span=st.floats(0.05, 0.5), frac=st.floats(0.001, 0.999),
       k=st.integers(0, 1000),
       where=st.sampled_from(("first", "last", "grid", "before", "after")),
       at=st.one_of(st.just(0.0), st.floats(0.001, 0.999)))
def test_first_crossing_matches_sheared_closed_form(bx, r, th, a, b, t, backward,
                                                    tol, span, frac, k, where, at):
    """y is landed with flow_map at the anchor, the window's start or the
    inner point a fraction ``at`` of the way along, and passed with that
    time as t0. On the 0.01 scan grid built outward from the anchor:
    windows whose first or last interval holds the hit, windows with the
    hit within 5e-10 of an inner grid point (the scan flags that point, or
    a bracket that must be landed again on the exact flow), and windows
    that end before the hit or begin after it (NoCrossing). An anchor at
    the start scans one leg, forward; an inner one scans the leg back to
    the start, then the forward leg if the hit lies past the anchor."""
    t = -t if backward else t
    base, sec, u, y = _sheared_case(bx, r, th, a, b)
    target = make_section(SHEARED, flow_map(SHEARED, base, t), 0.1,
                          seed_axes=sec.axes)
    hit = sheared_hit_time(base.coords[1], y.coords[1], t)
    wide = np.linalg.norm(u) - target.radius
    assume(abs(wide) > 1e-9)
    c = at * span       # the anchor's time from the window start
    back, fwd = (np.linspace(0.0, d, int(math.ceil(abs(d) / 0.01)) + 1)
                 for d in (-c, span - c))
    rel = c + np.concatenate((back[::-1], fwd[1:]))     # the grid, from lo
    lo = {"first": hit - frac * rel[1],
          "last": hit - rel[-2] - frac * (span - rel[-2]),
          "grid": hit - rel[1 + k % (rel.size - 2)] - (frac - 0.5) * 1e-9,
          "before": hit - span - 1e-6 - 0.3 * frac,
          "after": hit + 1e-6 + 0.3 * frac}[where]
    t0 = lo + c
    y0 = flow_map(SHEARED, y, t0, tol=tol)
    if where in ("before", "after") or wide > 0:
        with pytest.raises(NoCrossing if where in ("before", "after")
                           else LeftTube):
            first_crossing(SHEARED, y0, target, (lo, lo + span), tol=tol, t0=t0)
        return
    ev = first_crossing(SHEARED, y0, target, (lo, lo + span), tol=tol, t0=t0)
    assert abs(ev.hit_time - hit) <= 10 * tol * (1.0 + abs(t))
    assert abs(ev.residual) <= EVENT_TOL
    assert np.allclose(ev.offset_coords, u, rtol=0.0, atol=10 * tol)


HELIX_OMEGA = 30.0


def test_holonomy_polishes_the_helical_flows_curved_plane_function():
    """The helical flow's plane function bends inside a 0.01 scan interval.
    An independent root, the first sign change of the closed-form g on the
    scan's grid bisected, checks holonomy's hit time within 10 tol (1 + t),
    or LeftTube where that root lies beyond the section radius. A spy on
    ``integrate.orbit_batch`` (which the tube batch does not go through)
    bounds first_crossing's exact integrations per crossing: the leg back
    from y(t) to the window start, the forward leg, the re-landed bracket
    ends and the polish steps. Regula falsi without the Illinois halving
    keeps one bracket end and stalls on the bent side; on these draws it
    took up to 18 calls."""
    flow = helical_flow(HELIX_OMEGA)
    rng = np.random.default_rng(2)
    tol, calls = 1e-7, []
    for _ in range(60):
        r, th = rng.uniform(0.02, 0.2), rng.uniform(0.0, 2 * math.pi)
        base = _pt(flow, (rng.uniform(-1.9, 1.9), r * math.cos(th),
                          r * math.sin(th)))
        t = float(rng.choice((0.5, 1.0, 2.0)))
        sec = make_section(flow, base, 0.1)
        y = section_point(flow, sec, sec.radius * rng.uniform(-1.0, 1.0, 2))
        # the screw motion keeps ||X||, so the target radius is the source's
        target = helical_orbit(HELIX_OMEGA, base.coords, t)
        nhat = flow.field(target) / np.linalg.norm(flow.field(target))

        def disp(s):
            d = helical_orbit(HELIX_OMEGA, y.coords, s) - target
            d[..., 0] -= 4.0 * np.rint(d[..., 0] / 4.0)
            return d

        lo, hi = t - sec.radius, t + sec.radius
        grid = lo + np.linspace(0.0, hi - lo,
                                int(math.ceil((hi - lo) / 0.01)) + 1)
        g = disp(grid) @ nhat
        change = np.flatnonzero(np.diff(g > 0))
        # a grid value near zero could flag a point, or flip a sign, on the
        # integrated flow: no independent root there
        if change.size == 0 or np.any(np.abs(g[:change[0] + 2]) <= 1e-6):
            continue
        a, b = grid[change[0]], grid[change[0] + 1]
        for _ in range(100):
            mid = 0.5 * (a + b)
            if (disp(mid) @ nhat > 0) == (g[change[0]] > 0):
                a = mid
            else:
                b = mid
        root = 0.5 * (a + b)
        wide = np.linalg.norm(disp(root)) - sec.radius
        if abs(wide) <= 1e-6:
            continue
        with mock.patch.object(integrate, "orbit_batch",
                               wraps=integrate.orbit_batch) as spy:
            if wide > 0:
                with pytest.raises(LeftTube):
                    holonomy(flow, sec, t, y, tol=tol)
            else:
                res = holonomy(flow, sec, t, y, tol=tol)
                assert abs(res.hit_time - root) <= 10 * tol * (1.0 + t)
                assert abs(res.residual) <= EVENT_TOL
        calls.append(spy.call_count)
    assert len(calls) >= 50
    assert max(calls) <= 12, sorted(calls)


def test_holonomy_injectivity_probe():
    rng = np.random.default_rng(33)
    x = _pt(CAT, (0.35, 0.55, 0.45))
    sec = make_section(CAT, x, 0.1)
    dom = 0.1 / CAT.rescale.L
    images = []
    for _ in range(60):
        u = rng.uniform(-1, 1, size=2)
        u *= rng.uniform(0.05, 0.95) * dom / max(np.linalg.norm(u), 1e-12)
        res = holonomy(CAT, sec, 1.0, section_point(CAT, sec, u))
        images.append(res.image_coords)
    images = np.array(images)
    for i in range(len(images)):
        d = np.linalg.norm(images - images[i], axis=1)
        d[i] = np.inf
        assert np.min(d) > 1e-9


def test_holonomy_orbit_empty():
    x = _pt(CAT, (0.2, 0.2, 0.2))
    out = holonomy_orbit(CAT, x, 0.1, 1.0, 0, x)
    assert out.results == [] and out.error is None


def test_holonomy_orbit_matrix_powers():
    x = _pt(CAT, (0.31, 0.41, 0.59))
    sec_dom = 0.1 / CAT.rescale.L ** 3
    u = np.array([0.6, -0.3]) * sec_dom
    sec = make_section(CAT, x, 0.1)
    y = section_point(CAT, sec, u)
    out = holonomy_orbit(CAT, x, 0.1, 1.0, 3, y)
    assert out.error is None and len(out.results) == 3
    m = np.eye(2)
    for k in range(3):
        m = CAT_MATRIX @ m
        expect = m @ u
        got = out.results[k].image_coords
        assert np.linalg.norm(got - expect) < 1e-6, k
    # offsets grow with the top eigenvalue
    n0 = np.linalg.norm(u)
    n3 = np.linalg.norm(out.results[2].image_coords)
    assert n3 > LAMBDA_PLUS ** 2 * n0


def test_holonomy_orbit_torus_offset_point_leaves_tube():
    """Constant transverse offsets outlive the shrinking rescaled radius."""
    x = _pt(TORUS, (-0.5, 0.0, 0.0))
    y = _pt(TORUS, (-0.5, 0.005, 0.0))
    out = holonomy_orbit(TORUS, x, 0.1, 1.0, 40, y)
    assert isinstance(out.error, LeftTube)
    assert out.error_step <= 10
    # transverse coordinates and hit times are exact while the orbit exists
    for res in out.results:
        assert res.hit_time == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(res.image.coords[1:], (0.005, 0.0), atol=1e-9)


def test_holonomy_orbit_torus_base_chain_reaches_singular_region():
    """The base orbit itself stops with an explicit error once ||X|| underflows."""
    x = _pt(TORUS, (-0.5, 0.0, 0.0))
    out = holonomy_orbit(TORUS, x, 0.1, 1.0, 40, x)
    assert isinstance(out.error, (SingularBase, Timeout))
    assert 20 <= out.error_step <= 35
