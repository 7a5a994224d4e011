"""Flow map correctness: identities, analytic solutions, group property,
time reversal, an independent scipy cross-check, and crossing location."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflowlab import integrate
from rflowlab.errors import LeftTube, NoCrossing
from rflowlab.flows import CAT_MATRIX, get_flow, sample_points
from rflowlab.integrate import first_crossing, flow_map, orbit, orbit_batch
from rflowlab.sections import make_section

TORUS = get_flow("solid_torus")
CAT = get_flow("cat_suspension")
RIGID = get_flow("rigid_rotation")


def _pt(flow, coords):
    return flow.manifold.wrap(coords)


def test_flow_map_identity_at_zero():
    x = _pt(TORUS, (0.3, 0.1, 0.2))
    assert flow_map(TORUS, x, 0.0) is x


def test_rigid_rotation_period_four():
    x = _pt(RIGID, (0.0, 0.5, 0.0))
    y = flow_map(RIGID, x, 4.0)
    assert np.allclose(y.coords, x.coords, atol=1e-8)


def test_solid_torus_exponential_escape():
    x = _pt(TORUS, (0.5, 0.0, 0.0))
    y = flow_map(TORUS, x, math.log(2.0))
    assert np.allclose(y.coords, (1.0, 0.0, 0.0), atol=1e-8)


def test_solid_torus_decay_toward_singular_disk():
    x = _pt(TORUS, (-0.5, 0.2, 0.1))
    y = flow_map(TORUS, x, 3.0)
    assert y.coords[0] == pytest.approx(-0.5 * math.exp(-3.0), abs=1e-8)
    assert np.allclose(y.coords[1:], (0.2, 0.1), atol=1e-10)


def test_cat_suspension_crosses_gluing():
    v = np.array([0.2, 0.3])
    x = _pt(CAT, (v[0], v[1], 0.25))
    y = flow_map(CAT, x, 1.0)
    expect = (CAT_MATRIX @ v) % 1.0
    assert np.allclose(y.coords[:2], expect, atol=1e-9)
    assert y.coords[2] == pytest.approx(0.25, abs=1e-9)


def test_group_property():
    rng = np.random.default_rng(21)
    tol = 1e-9
    for flow in (TORUS, CAT, RIGID):
        for _ in range(100):
            raw = rng.uniform(0.05, 0.95, size=3)
            if flow.manifold.disk_axes is not None:
                raw = np.array([rng.uniform(-1.9, 1.9), 0.4 * raw[1], 0.4 * raw[2]])
            x = flow.manifold.wrap(raw)
            a, b = rng.uniform(0.1, 1.5, size=2)
            one = flow_map(flow, flow_map(flow, x, a, tol=tol), b, tol=tol)
            two = flow_map(flow, x, a + b, tol=tol)
            assert flow.manifold.distance(one, two) <= 10 * tol * (a + b + 1)


def test_time_reversal():
    rng = np.random.default_rng(22)
    tol = 1e-9
    for flow in (TORUS, CAT, RIGID):
        for _ in range(30):
            raw = rng.uniform(0.05, 0.95, size=3)
            if flow.manifold.disk_axes is not None:
                raw = np.array([rng.uniform(-1.9, 1.9), 0.4 * raw[1], 0.4 * raw[2]])
            x = flow.manifold.wrap(raw)
            t = rng.uniform(0.2, 5.0)
            back = flow_map(flow, flow_map(flow, x, t, tol=tol), -t, tol=tol)
            assert flow.manifold.distance(back, x) <= 10 * tol * (2 * t + 1)


def test_transverse_coordinates_preserved():
    """Rigid rotation and suspension move transverse coordinates only at gluings."""
    x = _pt(RIGID, (0.3, 0.25, -0.4))
    y = flow_map(RIGID, x, 2.7)
    assert np.allclose(y.coords[1:], x.coords[1:], atol=1e-10)
    x = _pt(CAT, (0.3, 0.7, 0.1))
    y = flow_map(CAT, x, 0.5)  # no gluing crossed
    assert np.allclose(y.coords[:2], x.coords[:2], atol=1e-10)


def test_against_scipy_oracle():
    """Independent check of the custom integrator on the solid torus."""
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        return TORUS.field(y)

    x0 = np.array([-1.7, 0.3, -0.2])
    t_end = 2.5
    ref = solve_ivp(rhs, (0, t_end), x0, rtol=1e-11, atol=1e-12, method="DOP853")
    ours = flow_map(TORUS, _pt(TORUS, x0), t_end, tol=1e-10)
    assert np.allclose(ours.coords, ref.y[:, -1], atol=1e-7)


def test_orbit_sampling_monotone():
    x = _pt(TORUS, (0.5, 0.1, 0.0))
    times = np.array([-1.0, -0.5, 0.0, 0.25, 0.5])
    seg = orbit(TORUS, x, times)
    assert len(seg.points) == 5
    assert np.allclose(seg.points[2].coords, x.coords, atol=1e-12)
    xs = [p.coords[0] for p in seg.points]
    assert all(np.diff(xs) > 0)  # rightward drift on (0, 1)


def test_orbit_batch_against_scipy_oracle():
    """Batched orbits agree with scipy's DOP853 at every sample time."""
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        return TORUS.field(y)

    rng = np.random.default_rng(23)
    pts = np.stack([rng.uniform(-1.9, 1.9, size=8),
                    rng.uniform(-0.4, 0.4, size=8),
                    rng.uniform(-0.4, 0.4, size=8)], axis=1)
    times = np.array([0.0, 0.5, 1.0, 2.0])
    batch = orbit_batch(TORUS, pts, times, tol=1e-10)
    for i in range(8):
        ref = solve_ivp(rhs, (0.0, times[-1]), pts[i], t_eval=times,
                        rtol=1e-11, atol=1e-12, method="DOP853")
        for j in range(times.size):
            assert TORUS.manifold.distance_array(batch[i, j], ref.y[:, j]) < 1e-7


def _step_ends(flow, pts, t, tol):
    """|s| at the ends of the accepted steps of ``orbit_batch`` to t alone."""
    calls = []
    real = integrate._rk_step

    def spy(fn, y, f0, h):
        calls.append((y, h))
        return real(fn, y, f0, h)

    with mock.patch.object(integrate, "_rk_step", spy):
        orbit_batch(flow, pts, np.array([t]), tol)
    # a step is accepted when the next step starts from a new state
    accepted = [h for (y, h), nxt in zip(calls, calls[1:] + [(None, 0)])
                if nxt[0] is not y]
    return np.cumsum(accepted)


@settings(max_examples=60, deadline=None)
@given(flow=st.sampled_from((TORUS, CAT, RIGID)),
       seed=st.integers(0, 2**16), n=st.integers(1, 4),
       tol=st.sampled_from((1e-9, 1e-7)), t=st.floats(0.05, 4.0),
       sign=st.sampled_from((1.0, -1.0)), with_zero=st.booleans(),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
       data=st.data())
def test_sample_times_never_change_the_trajectory(flow, seed, n, tol, t, sign,
                                                 with_zero, fractions, data):
    """The last sample is the single-time landing, bit for bit, and every
    sample lies within a fixed bound of the landing at its own time."""
    pts = np.stack([p.coords for p in sample_points(flow, n, seed=seed)])
    ends = _step_ends(flow, pts, sign * t, tol)
    picked = data.draw(st.lists(st.sampled_from(list(ends)), max_size=4))
    times = np.unique(np.r_[[t * x for x in fractions], picked,
                            [0.0] if with_zero else []])
    times = sign * np.r_[times[times < t], t]
    samples = orbit_batch(flow, pts, times, tol)
    assert np.array_equal(samples[:, -1],
                          orbit_batch(flow, pts, times[-1:], tol)[:, 0])
    for j, tau in enumerate(times):
        # Gronwall growth e^|t| (the fields are 1-Lipschitz) times a slack
        # for a step that straddles a kink of the solid torus speed profile
        bound = 100 * tol * math.exp(abs(tau))
        landed = orbit_batch(flow, pts, times[j:j + 1], tol)[:, 0]
        assert np.all(flow.manifold.distance_array(samples[:, j], landed)
                      <= bound), (j, tau)


# ------------------------------------------- solid torus closed-form oracle
#
# dx/dt = rho(x) = min(|x|, 1), x reduced to [-2, 2). The orbit time
# tau(x) below has dtau/dt = 1 on every piece: exponential growth on
# (0, 1], unit speed through [1, 2) and [-2, -1], exponential decay on
# [-1, 0). Transverse coordinates never move.

def _torus_tau(x):
    x = (x + 2.0) % 4.0 - 2.0
    if 0.0 < x <= 1.0:
        return math.log(x)
    if x > 1.0:
        return x - 1.0
    if x <= -1.0:
        return x + 3.0
    return 2.0 - math.log(-x)


def _torus_x(tau):
    if tau <= 0.0:
        return math.exp(tau)
    if tau < 1.0:
        return tau + 1.0
    if tau <= 2.0:
        return tau - 3.0
    return -math.exp(2.0 - tau)


def _torus_error_ratio(pts, times, tol):
    """Distance of orbit_batch's samples from the closed form, over tol e^|t|."""
    got = orbit_batch(TORUS, pts, times, tol)
    want = np.array([[(_torus_x(_torus_tau(p[0]) + t), p[1], p[2])
                      for t in times] for p in pts])
    err = TORUS.manifold.distance_array(got, want)
    return err / (tol * np.exp(np.abs(times)))


@settings(max_examples=60, deadline=None)
@given(sign=st.sampled_from((1.0, -1.0)),
       mags=st.lists(st.floats(1e-6, 1.0, exclude_max=True),
                     min_size=1, max_size=4),
       disk=st.floats(-0.4, 0.4), tol=st.sampled_from((1e-7, 1e-9)),
       t=st.floats(0.05, 4.0), fractions=st.lists(st.floats(0.01, 1.0),
                                                  max_size=6))
def test_solid_torus_matches_closed_form_away_from_kinks(sign, mags, disk,
                                                         tol, t, fractions):
    """Orbits that cross no kink of rho: x0 in (-1, 0) forward, decaying
    toward the singular disk, and x0 in (0, 1) backward."""
    pts = np.array([(-sign * m, disk, -0.5 * disk) for m in mags])
    times = sign * np.unique(np.r_[[t * x for x in fractions], t])
    assert np.all(_torus_error_ratio(pts, times, tol) <= 1.0)


TORUS_KINK_ROW = 39   # x0 = 0.794, crosses the kink at x = 1 near t = 0.23


@pytest.mark.xfail(strict=True, reason="the batch's shared steps straddle "
                   "the kink of rho at x = 1 without error control")
def test_solid_torus_batch_meets_tolerance_across_kinks():
    pts = np.stack([p.coords for p in sample_points(TORUS, 40, seed=5)])
    times = np.linspace(0.0, 2.0, 41)[1:]
    assert np.all(_torus_error_ratio(pts, times, 1e-7) <= 1.0)


def test_solid_torus_kink_point_alone_meets_tolerance():
    """The row the batch misses above meets the tolerance on its own steps."""
    pts = np.stack([p.coords for p in sample_points(TORUS, 40, seed=5)])
    row = pts[TORUS_KINK_ROW:TORUS_KINK_ROW + 1]
    assert row[0, 0] == pytest.approx(0.794, abs=1e-3)
    times = np.linspace(0.0, 2.0, 41)[1:]
    assert np.max(_torus_error_ratio(row, times, 1e-7)) <= 1.0


def test_first_crossing_at_base():
    x = _pt(CAT, (0.4, 0.6, 0.3))
    sec = make_section(CAT, x, 0.1)
    ev = first_crossing(CAT, x, sec, window=(-0.01, 0.01))
    assert abs(ev.hit_time) <= 1e-9
    assert abs(ev.residual) <= 1e-10
    assert CAT.manifold.distance(ev.hit_point, x) <= 1e-9


def test_first_crossing_cat_gluing():
    base = _pt(CAT, (0.7, 0.5, 0.0))
    sec = make_section(CAT, base, 0.25)
    y = _pt(CAT, (0.2, 0.3, 0.5))
    ev = first_crossing(CAT, y, sec, window=(0.0, 1.0))
    assert ev.hit_time == pytest.approx(0.5, abs=1e-9)
    # the hit sits on the identified fiber; compare as manifold points
    assert CAT.manifold.distance(ev.hit_point, base) <= 1e-9
    assert np.allclose(ev.offset_coords, (0.0, 0.0), atol=1e-9)


def test_first_crossing_left_tube():
    base = _pt(RIGID, (0.0, 0.0, 0.0))
    sec = make_section(RIGID, base, 0.1)
    y = _pt(RIGID, (2.0, 0.5, 0.0))
    with pytest.raises(LeftTube) as exc:
        first_crossing(RIGID, y, sec, window=(0.0, 4.0))
    assert exc.value.hit_time == pytest.approx(2.0, abs=1e-6)


def test_first_crossing_no_crossing():
    base = _pt(RIGID, (0.0, 0.0, 0.0))
    sec = make_section(RIGID, base, 0.1)
    y = _pt(RIGID, (1.0, 0.0, 0.0))
    with pytest.raises(NoCrossing):
        first_crossing(RIGID, y, sec, window=(0.0, 0.5))


def test_first_crossing_residual_meets_event_tol_or_raises():
    """An event_tol below the float resolution of g cannot be met: raise."""
    base = _pt(CAT, (0.7, 0.5, 0.0))
    sec = make_section(CAT, base, 0.25)
    y = _pt(CAT, (0.2, 0.3, 0.5))
    try:
        ev = first_crossing(CAT, y, sec, window=(0.0, 1.0), event_tol=1e-20)
    except NoCrossing:
        return
    assert abs(ev.residual) <= 1e-20


def test_t_max_validation():
    x = _pt(RIGID, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        flow_map(RIGID, x, 500.0)
