"""Flow map correctness: identities, analytic solutions, group property,
time reversal, an independent scipy cross-check, and crossing location."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import sheared_rotation
from rflowlab import integrate
from rflowlab.errors import LeftTube, NoCrossing
from rflowlab.flows import CAT_MATRIX, get_flow, sample_points
from rflowlab.integrate import first_crossing, flow_map, orbit, orbit_batch
from rflowlab.sections import make_section
from torus_orbit import x_after

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
    """One backward and one forward call, each from time 0 away from it."""
    x = _pt(TORUS, (0.5, 0.1, 0.0))
    back = orbit(TORUS, x, [0.0, -0.5, -1.0])
    fwd = orbit(TORUS, x, [0.0, 0.25, 0.5])
    assert len(back) == len(fwd) == 3
    for seg in (back, fwd):
        assert np.allclose(seg[0].coords, x.coords, atol=1e-12)
    xs = [p.coords[0] for p in back[::-1] + fwd[1:]]
    assert all(np.diff(xs) > 0)  # rightward drift on (0, 1)


@pytest.mark.parametrize("times", [[-1.0, 0.0, 0.5], [0.5, 0.0, -1.0],
                                   [0.0, 0.5, 0.25]])
def test_orbit_rejects_mixed_signs_and_unordered_times(times):
    with pytest.raises(ValueError):
        orbit(TORUS, _pt(TORUS, (0.5, 0.1, 0.0)), times)


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


def _row_steps(calls):
    """Per ``_rk_step`` call of one ``orbit_batch`` run, each row's |h| and
    whether the row accepted the step.

    Rows keep their order and only finished rows leave the batch, so the
    next call's states are, in order, each staying row's new state (an
    accepted step) or its old one (a rejected step); a row missing from
    the next call accepted its last step and finished.
    """
    out = []
    nxt_states = [c[0] for c in calls[1:]] + [np.empty((0, 0))]
    for (y, h, y_new), nxt in zip(calls, nxt_states):
        col, acc = 0, []
        for i in range(y.shape[1]):
            stay = col < nxt.shape[-1]
            if stay and np.array_equal(nxt[:, col], y_new[:, i]):
                acc.append(True)
                col += 1
            elif stay and np.array_equal(nxt[:, col], y[:, i]):
                acc.append(False)
                col += 1
            else:
                acc.append(True)
        out.append((np.abs(h), np.array(acc)))
    return out


def _spy_steps(run):
    """``run()`` under a spy on ``_rk_step``; returns ``_row_steps``."""
    calls = []
    real = integrate._rk_step

    def spy(field, y, f0, h):
        res = real(field, y, f0, h)
        calls.append((y, h, res[0]))
        return res

    with mock.patch.object(integrate, "_rk_step", spy):
        run()
    return _row_steps(calls)


def _step_ends(flow, pts, t, tol):
    """|s| at the ends of the accepted steps of each point's run to t."""
    ends = []
    for p in pts:
        steps = _spy_steps(lambda: orbit_batch(flow, p[None], np.array([t]), tol))
        ends += list(np.cumsum([h[0] for h, acc in steps if acc[0]]))
    return np.array(sorted(ends))


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
        # for the dense-output polynomial between step ends
        bound = 100 * tol * math.exp(abs(tau))
        landed = orbit_batch(flow, pts, times[j:j + 1], tol)[:, 0]
        assert np.all(flow.manifold.distance_array(samples[:, j], landed)
                      <= bound), (j, tau)


# ------------------------------------------- solid torus closed-form oracle

def _torus_error_ratio(pts, times, tol):
    """Distance of orbit_batch's samples from the closed form, over tol e^|t|."""
    got = orbit_batch(TORUS, pts, times, tol)
    want = np.array([[(x_after(p[0], t), p[1], p[2]) for t in times]
                     for p in pts])
    err = TORUS.manifold.distance_array(got, want)
    return err / (tol * np.exp(np.abs(times)))


@settings(max_examples=60, deadline=None)
@given(sign=st.sampled_from((1.0, -1.0)),
       mags=st.lists(st.floats(1e-6, 1.0, exclude_max=True),
                     min_size=1, max_size=4),
       disk=st.floats(-0.4, 0.4), tol=st.sampled_from((1e-7, 1e-9)),
       t=st.floats(0.05, 4.0), fractions=st.lists(st.floats(0.01, 1.0),
                                                  max_size=6))
# steps toward the singular disk grew to h = 1.28, where DP5's stages
# overshoot the kink of rho at x = 0 (1.16 tol e^t)
@example(sign=1.0, mags=[1e-5], disk=0.0, tol=1e-7, t=2.0, fractions=[])
def test_solid_torus_matches_closed_form_away_from_kinks(sign, mags, disk,
                                                         tol, t, fractions):
    """Orbits that cross no kink of rho: x0 in (-1, 0) forward, decaying
    toward the singular disk, and x0 in (0, 1) backward."""
    pts = np.array([(-sign * m, disk, -0.5 * disk) for m in mags])
    times = sign * np.unique(np.r_[[t * x for x in fractions], t])
    assert np.all(_torus_error_ratio(pts, times, tol) <= 1.0)


# starts on the kinks of rho at |x| = 1 and within 1e-9 of them
KINK_STARTS = (1.0, 1.0 - 1e-9, 1.0 + 1e-9, -1.0, -1.0 - 1e-9, -1.0 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(sign=st.sampled_from((1.0, -1.0)),
       xs=st.lists(st.one_of(
           st.tuples(st.floats(1e-6, 2.0), st.sampled_from((1.0, -1.0))).map(
               lambda mag_side: mag_side[0] * mag_side[1]),
           st.sampled_from(KINK_STARTS)), min_size=1, max_size=4),
       disk=st.floats(-0.4, 0.4), tol=st.sampled_from((1e-7, 1e-9)),
       t=st.floats(0.05, 4.0), fractions=st.lists(st.floats(0.01, 1.0),
                                                  max_size=6))
def test_solid_torus_matches_closed_form_across_kinks(sign, xs, disk, tol, t,
                                                      fractions):
    """Orbits headed for a kink of rho at |x| = 1, in both time directions,
    some starting on a kink or within 1e-9 of one: every sample within
    tol e^|t| of the closed form. The starts the test above covers, moving
    toward the singular disk, are mapped across x = 0 onto this domain."""
    # sign * x in (-1, 0) decays toward the singular disk without a kink
    xs = [-x if -1.0 < sign * x < 0.0 else x for x in xs]
    pts = np.array([(x, disk, -0.5 * disk) for x in xs])
    times = sign * np.unique(np.r_[[t * x for x in fractions], t])
    assert np.all(_torus_error_ratio(pts, times, tol) <= 1.0)


def test_solid_torus_decaying_side_meets_tolerance():
    """A start in the domain of the closed-form test above, toward the
    singular disk, where DP5 stages of a step longer than 1 / rho would
    overshoot the kink of rho at x = 0 (1.45 tol e^t without the cap)."""
    pts = np.array([[-6e-6, 0.375, 0.0]])
    assert np.all(_torus_error_ratio(pts, np.array([2.0]), 1e-7) <= 1.0)


def test_steps_next_to_the_singular_disk_stay_within_the_rate_bound():
    """Next to the disk, where the error test passes any step, a row's
    steps stay within about 1 / |x'/x| = 1: a unit horizon stays one step,
    and a trial step of 2 is taken again as 1.01 and 0.99."""
    for x0, sign in ((-1e-12, 1.0), (3e-13, -1.0)):   # both decay to x = 0
        p = np.array([[x0, 0.2, 0.0]])

        def run(t):
            return _spy_steps(lambda: orbit_batch(
                TORUS, p, np.array([sign * t]), 1e-9, np.array([5.0])))

        assert [(h[0], acc[0]) for h, acc in run(1.0)] == [(1.0, True)]
        steps = run(2.0)
        assert [acc[0] for _, acc in steps] == [False, True, True]
        assert [round(h[0], 9) for h, _ in steps] == [2.0, 1.01, 0.99]


TORUS_KINK_ROW = 39   # x0 = 0.794, crosses the kink at x = 1 near t = 0.23


def test_solid_torus_batch_meets_tolerance_across_kinks():
    pts = np.stack([p.coords for p in sample_points(TORUS, 40, seed=5)])
    times = np.linspace(0.0, 2.0, 41)[1:]
    assert np.all(_torus_error_ratio(pts, times, 1e-7) <= 1.0)


def test_solid_torus_kink_point_alone_meets_tolerance():
    """The batch row above that crosses a kink soonest, run on its own."""
    pts = np.stack([p.coords for p in sample_points(TORUS, 40, seed=5)])
    row = pts[TORUS_KINK_ROW:TORUS_KINK_ROW + 1]
    assert row[0, 0] == pytest.approx(0.794, abs=1e-3)
    times = np.linspace(0.0, 2.0, 41)[1:]
    assert np.max(_torus_error_ratio(row, times, 1e-7)) <= 1.0


@settings(max_examples=40, deadline=None)
@given(flow=st.sampled_from((TORUS, CAT, RIGID)),
       seed=st.integers(0, 2**16), n=st.integers(2, 6),
       tol=st.sampled_from((1e-9, 1e-7)), t=st.floats(0.05, 3.0),
       sign=st.sampled_from((1.0, -1.0)),
       fractions=st.lists(st.floats(0.01, 1.0), max_size=5))
def test_each_row_is_bit_identical_to_the_row_run_alone(flow, seed, n, tol, t,
                                                       sign, fractions):
    """Two chained calls that carry each row's step size: every row's
    samples and carried step equal those of the row's own chain, bit for
    bit."""
    pts = np.stack([p.coords for p in sample_points(flow, n, seed=seed)])
    times = sign * np.unique(np.r_[[t * x for x in fractions], t])
    steps = np.full(n, np.nan)
    first = orbit_batch(flow, pts, times, tol, steps)
    second = orbit_batch(flow, first[:, -1], times, tol, steps)
    for i in range(n):
        alone = np.full(1, np.nan)
        a = orbit_batch(flow, pts[i:i + 1], times, tol, alone)
        b = orbit_batch(flow, a[:, -1], times, tol, alone)
        assert np.array_equal(a[0], first[i]) and np.array_equal(b[0], second[i])
        assert alone[0] == steps[i]


def _section_grid(flow, n, x0, rng):
    """n points of a section grid normal to the field: on the solid torus
    they share x = x0 (the field reads x only), on the suspension the
    height s = x0 (the field is constant)."""
    disk = rng.uniform(-0.4, 0.4, size=(n, 2))
    if flow is TORUS:
        return np.column_stack([np.full(n, x0), disk])
    return np.column_stack([disk, np.full(n, x0)])


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(("kink", "disk", "gluing")),
       seed=st.integers(0, 2**16), n=st.integers(2, 7),
       tol=st.sampled_from((1e-9, 1e-7)), t=st.floats(0.05, 3.0),
       sign=st.sampled_from((1.0, -1.0)), mag=st.floats(0.0, 1.0),
       fractions=st.lists(st.floats(0.01, 1.0), max_size=5),
       carried=st.booleans())
def test_shared_section_grids_are_bit_identical_to_each_row_alone(
        case, seed, n, tol, t, sign, mag, fractions, carried):
    """Grids whose rows all get the same field value: solid-torus rows that
    share x, headed across the kink at |x| = 1 (``kink``) or toward the
    singular disk (``disk``), and suspension rows that cross the gluing.
    Two chained calls equal each row's own chain, bit for bit, carried step
    included, also when the rows start from different carried steps; and
    ``_rk_step`` steps one row for rows that start alike, and every row
    when their carried steps differ."""
    rng = np.random.default_rng(seed)
    if case == "kink":      # sign * x0 in [0.5, 1.1]: before, on or past x = +-1
        flow, x0 = TORUS, sign * (0.5 + 0.6 * mag)
    elif case == "disk":    # sign * x0 in [-0.5, 0): decays toward x = 0
        flow, x0 = TORUS, -sign * (1e-12 + 0.5 * mag)
    else:                   # s0 within t of the glued fiber s = 0 ~ 1
        flow, x0 = CAT, 0.5 + sign * (0.5 - mag * min(t, 1.0))
    pts = _section_grid(flow, n, x0, rng)
    times = sign * np.unique(np.r_[[t * x for x in fractions], t])
    steps = rng.uniform(0.01, 1.0, size=n) if carried else np.full(n, np.nan)
    first_steps = steps.copy()
    calls = []
    real = integrate._rk_step

    def spy(field, y, f0, h):
        calls.append(y.shape[1])
        return real(field, y, f0, h)

    with mock.patch.object(integrate, "_rk_step", spy):
        first = orbit_batch(flow, pts, times, tol, steps)
        second = orbit_batch(flow, first[:, -1], times, tol, steps)
    for i in range(n):
        alone = first_steps[i:i + 1].copy()
        a = orbit_batch(flow, pts[i:i + 1], times, tol, alone)
        b = orbit_batch(flow, a[:, -1], times, tol, alone)
        assert np.array_equal(a[0], first[i]) and np.array_equal(b[0], second[i])
        assert alone[0] == steps[i]
    assert calls[0] == n if carried else set(calls) == {1}


@settings(max_examples=80, deadline=None)
@given(flow=st.sampled_from((TORUS, CAT)), seed=st.integers(0, 2**16),
       n=st.integers(2, 9), tol=st.sampled_from((1e-9, 1e-7)),
       t=st.floats(0.05, 3.0), sign=st.sampled_from((1.0, -1.0)),
       mag=st.floats(0.0, 1.0), nan_row=st.booleans(),
       fractions=st.lists(st.floats(0.01, 1.0), max_size=4))
def test_mixed_batches_keep_each_rows_solo_bits(flow, seed, n, tol, t, sign,
                                                mag, nan_row, fractions):
    """A batch whose rows share the coordinates the flow reads in some
    places and not in others: the read coordinate (x on the solid torus,
    the height on the suspension) drawn from a few values, headed across
    the kink at |x| = 1, toward the singular disk, +0.0 and -0.0; carried
    steps drawn from NaN, 0.0 and two sizes, so rows of one key can carry
    different steps; optionally a NaN in an unread coordinate. Each row's
    samples and carried step equal its solo run's, bit for bit."""
    rng = np.random.default_rng(seed)
    pool = np.array([sign * (0.5 + 0.6 * mag), -sign * (1e-12 + 0.5 * mag),
                     0.0, -0.0])
    pts = rng.uniform(-0.4, 0.4, size=(n, 3))
    read = 0 if flow is TORUS else 2
    pts[:, read] = pool[rng.integers(pool.size, size=n)]
    if nan_row:
        pts[rng.integers(n), 1 if read == 0 else 0] = np.nan
    steps = np.array([np.nan, 0.0, 0.05, 0.4])[rng.integers(4, size=n)]
    first_steps = steps.copy()
    times = sign * np.unique(np.r_[[t * x for x in fractions], t])
    out = orbit_batch(flow, pts, times, tol, steps)
    for i in range(n):
        alone = first_steps[i:i + 1].copy()
        a = orbit_batch(flow, pts[i:i + 1], times, tol, alone)
        assert np.array_equal(a[0].view(np.int64), out[i].view(np.int64))
        assert alone.view(np.int64)[0] == steps.view(np.int64)[i]


def test_a_replaced_field_runs_every_row():
    """A field put into a catalog flow with ``dataclasses.replace`` declares
    no ``axes``, so it inherits none from the flow's own field: on the
    sheared rotation, whose speed reads y, every row of a section grid
    normal to x is stepped, and each moves at its own speed."""
    f = sheared_rotation()
    y = np.linspace(-0.5, 0.5, 5)
    pts = np.column_stack([np.full(5, 0.3), y, np.zeros(5)])
    calls = []
    real = integrate._rk_step

    def spy(field, y, f0, h):
        calls.append(y.shape[1])
        return real(field, y, f0, h)

    with mock.patch.object(integrate, "_rk_step", spy):
        out = orbit_batch(f, pts, np.array([0.5, 1.0]), 1e-9)
    assert calls and set(calls) == {5}
    assert np.allclose(out[:, -1, 0], 0.3 + (1.0 + y ** 2), atol=1e-9)


def test_kink_crossing_step_counts_stay_pinned():
    """Rows that cross x = 1 land on the kink instead of being rejected
    across it: the attempted and rejected row steps of a small batch,
    counted on ``_rk_step``, stay at or under their pinned counts (73 and
    12; shared steps that straddled the kink took 728 and 444)."""
    pts = np.array([(x, 0.1, 0.0) for x in (0.5, 0.7, 0.9, 0.99)])
    steps = _spy_steps(lambda: orbit_batch(TORUS, pts, np.array([1.0]), 1e-9))
    attempted = sum(acc.size for _, acc in steps)
    rejected = sum(int(np.sum(~acc)) for _, acc in steps)
    assert attempted <= 73 and rejected <= 12, (attempted, rejected)


def test_steps_at_the_minimum_size_are_taken_whatever_their_error():
    """A step of at most 1e-13 is accepted even where its error test fails,
    so a tolerance no step can meet still ends: one row to t = 5e-14 at
    tol 1e-300 takes one step."""
    calls = []
    real = integrate._rk_step

    def spy(field, y, f0, h):
        res = real(field, y, f0, h)
        calls.append((np.abs(h), res[2]))
        return res

    x = np.array([[0.5, 0.1, 0.0]])
    with mock.patch.object(integrate, "_rk_step", spy):
        got = orbit_batch(CAT, x, np.array([5e-14]), 1e-300)
    assert len(calls) == 1
    h, err = calls[0]
    assert h[0] == 5e-14 and err[0] > 1e-300 * h[0]
    assert np.allclose(got[0, 0], x[0], atol=1e-13)


def _exp_rows(p, c):
    """g(x) = exp(p x) - c, one (p, c) per row: root log(c) / p, steep on
    the right for large p."""
    return lambda x: np.exp(p * x) - c


def test_illinois_rows_keep_their_solo_bits():
    """Rows with different brackets, functions and widths in one call end
    with the same bits as each row alone."""
    p, c = np.array([1.0, 4.0, 10.0, 3.0]), np.array([1.5, 3.0, 2.0, 0.2])
    a, b = np.array([0.0, 0.1, 0.0, -2.0]), np.array([1.0, 0.5, 1.0, 0.0])
    width = np.array([1e-12, 1e-6, 0.0, 1e-9])
    g = _exp_rows(p, c)
    got = integrate._illinois(g, a, b, g(a), g(b), width, 1e-13)
    for r in range(p.size):
        rs = slice(r, r + 1)
        g1 = _exp_rows(p[rs], c[rs])
        solo = integrate._illinois(g1, a[rs], b[rs], g1(a[rs]), g1(b[rs]),
                                   width[rs], 1e-13)
        assert got[0][r] == solo[0][0] and got[1][r] == solo[1][0], r


def test_illinois_stops_on_width_or_on_g():
    """Without a |g| stop each row ends with its bracket, still around the
    root, no wider than its own width; with one, a row may end on a point
    with |g| <= gtol, both of its ends there."""
    p, c = np.array([1.0, 4.0, 10.0]), np.array([1.5, 3.0, 2.0])
    g = _exp_rows(p, c)
    lo, hi = np.zeros(3), np.ones(3)
    width = np.array([1e-3, 1e-7, 1e-12])
    a, b = integrate._illinois(g, lo, hi, g(lo), g(hi), width)
    root = np.log(c) / p
    assert np.all(b - a <= width)
    assert np.all((a <= root) & (root <= b))
    assert np.all((g(a) <= 0) & (g(b) > 0))
    a, b = integrate._illinois(g, lo, hi, g(lo), g(hi), 0.0, 1e-12)
    assert np.array_equal(a, b)
    assert np.all(np.abs(g(a)) <= 1e-12)


def test_illinois_converges_where_plain_regula_falsi_stalls():
    """exp(10 x) - 2 on [0, 1] is steep on its right, so regula falsi
    without the halving keeps the right end and creeps up from the left.
    Illinois halves the kept end's value and meets |g| <= 1e-12 within 20
    evaluations; the plain method does not within 60."""
    fn, calls = _exp_rows(10.0, 2.0), []

    def g(x):
        calls.append(x)
        return fn(x)

    lo, hi = np.zeros(1), np.ones(1)
    a, b = integrate._illinois(g, lo, hi, fn(lo), fn(hi), 0.0, 1e-12)
    assert a[0] == b[0] and abs(fn(a[0])) <= 1e-12
    assert len(calls) <= 20
    a, b, ga, gb = 0.0, 1.0, fn(0.0), fn(1.0)
    for _ in range(60):
        mid = (a * gb - b * ga) / (gb - ga)
        gm = fn(mid)
        assert abs(gm) > 1e-12
        if (gm > 0) == (ga > 0):
            a, ga = mid, gm
        else:
            b, gb = mid, gm


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


@pytest.mark.parametrize("window, t0", [((0.5, 1.0), 0.0), ((1.0, 0.5), 0.7),
                                        ((0.0, 1.0), 1.5)])
def test_first_crossing_needs_t0_in_its_window(window, t0):
    base = _pt(RIGID, (0.0, 0.0, 0.0))
    sec = make_section(RIGID, base, 0.1)
    with pytest.raises(ValueError, match="window"):
        first_crossing(RIGID, _pt(RIGID, (1.0, 0.0, 0.0)), sec, window, t0=t0)


def test_first_crossing_residual_meets_event_tol_or_raises(monkeypatch):
    """An EVENT_TOL below the float resolution of g cannot be met: raise."""
    base = _pt(CAT, (0.7, 0.5, 0.0))
    sec = make_section(CAT, base, 0.25)
    y = _pt(CAT, (0.2, 0.3, 0.5))
    monkeypatch.setattr(integrate, "EVENT_TOL", 1e-20)
    try:
        ev = first_crossing(CAT, y, sec, window=(0.0, 1.0))
    except NoCrossing:
        return
    assert abs(ev.residual) <= 1e-20


def test_t_max_validation():
    x = _pt(RIGID, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        flow_map(RIGID, x, 500.0)


@pytest.mark.parametrize("times", ([1.0], [-1.0], [0.5, 1.0, 2.0],
                                   [-0.25, -0.5, -3.0]))
def test_empty_batches_return_at_once(times):
    """A batch of no points takes no step and returns (0, m, d)."""
    with mock.patch.object(integrate, "_rk_step",
                           side_effect=AssertionError("stepped")):
        for flow in (TORUS, CAT, RIGID):
            got = orbit_batch(flow, np.empty((0, 3)), times)
            assert got.shape == (0, len(times), 3)
