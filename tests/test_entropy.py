"""Separated-set counts and entropy estimates at module-test scale."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import rflowlab.entropy as ent
from oracles import separated_count
from rflowlab.entropy import entropy_estimate
from rflowlab.errors import Saturated, StepTooCoarse
from rflowlab.flows import LAMBDA_PLUS, get_flow, sample_points

TORUS = get_flow("solid_torus")
CAT = get_flow("cat_suspension")
RIGID = get_flow("rigid_rotation")


def _line_samples(xs):
    return [RIGID.manifold.wrap((float(x), 0.0, 0.0)) for x in xs]


def test_count_one_when_nothing_separates():
    pts = _line_samples([0.0, 0.01, 0.02, 0.03])
    assert separated_count(RIGID, pts, 0.0, 0.2, 0.05) == 1


def test_rigid_counts_independent_of_t():
    pts = sample_points(RIGID, 300, seed=51)
    c0 = separated_count(RIGID, pts, 0.0, 0.2, 0.05)
    c4 = separated_count(RIGID, pts, 4.0, 0.2, 0.05)
    assert c0 == c4


def test_greedy_equals_brute_force_on_line_instances():
    """Rigid-rotation samples on an axis arc: the separation graph is an
    interval packing, where a left-to-right greedy is exactly maximal."""
    rng = np.random.default_rng(52)
    for trial in range(5):
        xs = np.sort(rng.uniform(-0.9, 0.9, size=40))
        eps = float(rng.uniform(0.05, 0.3))
        pts = _line_samples(xs)
        got = separated_count(RIGID, pts, 1.0, eps, 0.05)
        # DP oracle: maximum subset with pairwise gaps > eps
        best = np.ones(len(xs), dtype=int)
        for i in range(len(xs)):
            for j in range(i):
                if xs[i] - xs[j] > eps:
                    best[i] = max(best[i], best[j] + 1)
        assert got == int(np.max(best)), (trial, eps)


def test_step_too_coarse():
    pts = sample_points(CAT, 50, seed=53)
    with pytest.raises(StepTooCoarse):
        separated_count(CAT, pts, 1.0, 0.1, 0.2)


def test_entropy_rigid_slope_zero():
    rep = entropy_estimate(RIGID, {"count": 500, "seed": 54}, [0.2, 0.1],
                           [0.0, 1.0, 2.0, 3.0, 4.0], 0.05)
    assert abs(rep.verdict) <= 0.02
    assert rep.monotone_in_t and rep.monotone_in_eps


def test_entropy_cat_growth_rate_coarse():
    rep = entropy_estimate(CAT, {"count": 3000, "seed": 55}, [0.2],
                           [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 0.05)
    assert rep.monotone_in_t
    assert rep.slopes[0] == pytest.approx(np.log(LAMBDA_PLUS), rel=0.35)


def test_entropy_torus_bounded_growth_coarse():
    rep = entropy_estimate(
        TORUS,
        {"count": 1500, "seed": 56, "x_range": (0.05, 1.95),
         "disk_radius_max": 0.95},
        [0.2], [2.0, 3.0, 4.0, 5.0, 6.0], 0.05)
    assert abs(rep.verdict) <= 0.1


def test_entropy_saturated():
    with pytest.raises(Saturated):
        entropy_estimate(CAT, {"count": 30, "seed": 57}, [0.05],
                         [0.0, 1.0, 2.0, 3.0], 0.025)


def test_entropy_deterministic():
    spec = {"count": 400, "seed": 58}
    a = entropy_estimate(CAT, spec, [0.2], [0.0, 1.0, 2.0], 0.05)
    b = entropy_estimate(CAT, spec, [0.2], [0.0, 1.0, 2.0], 0.05)
    assert np.array_equal(a.counts, b.counts)


def _pairwise_neighbors(manifold, pos, eps):
    """Per sample, sorted indices within eps by an all-pairs distance scan."""
    d = manifold.distance_array(pos[:, None, :], pos[None, :, :])
    np.fill_diagonal(d, np.inf)
    return [np.flatnonzero(row <= eps) for row in d]


def _assert_screen_matches_pairwise(m, coords, eps):
    """The grid screen lists exactly the all-pairs neighbors, symmetrically;
    returns the number of ordered neighbor pairs."""
    neighbors = ent._neighbor_screen(m, coords, eps)
    got = [neighbors(i) for i in range(len(coords))]
    want = _pairwise_neighbors(m, coords, eps)
    for i, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), (m.name, eps, i)
    pairs = {(i, int(j)) for i, ids in enumerate(got) for j in ids}
    assert pairs == {(j, i) for i, j in pairs}, m.name
    return len(pairs)


def _near_edges(m, coords, eps, rng, count):
    """``coords`` with ``count`` points per periodic axis moved within eps
    of that axis's edges (on the cat suspension, the glued fiber too)."""
    coords = coords.copy()
    for ax, per in enumerate(m.periodic_axes):
        if per is None:
            continue
        sel = rng.choice(len(coords), count, replace=False)
        off = rng.uniform(1e-6, eps, sel.size)
        lo = m.axis_origins[ax]
        coords[sel, ax] = np.where(rng.random(sel.size) < 0.5,
                                   lo + off, lo + per - off)
    return coords


def test_neighbor_screen_grid_matches_pairwise():
    """The cell-grid deck-copy screen finds exactly the all-pairs
    neighbors, and the relation is symmetric, also for points within eps
    of the glued fiber and of the periodic edges."""
    eps = 0.2
    rng = np.random.default_rng(60)
    for flow in (CAT, TORUS):
        m = flow.manifold
        pts = sample_points(flow, 400, seed=60)
        coords = _near_edges(m, np.stack([p.coords for p in pts]), eps, rng,
                             100)
        assert _assert_screen_matches_pairwise(m, coords, eps) > len(coords)


@settings(max_examples=30, deadline=None)
@given(flow=st.sampled_from([CAT, TORUS, RIGID]),
       eps=st.floats(0.01, 0.6), seed=st.integers(0, 2**31 - 1),
       n=st.integers(2, 150))
def test_neighbor_screen_matches_pairwise_for_any_eps(flow, eps, seed, n):
    m = flow.manifold
    rng = np.random.default_rng(seed)
    coords = np.stack([p.coords for p in sample_points(flow, n, seed=seed)])
    _assert_screen_matches_pairwise(m, _near_edges(m, coords, eps, rng,
                                                   n // 3), eps)


@pytest.mark.parametrize("flow", [CAT, TORUS, RIGID], ids=lambda f: f.name)
def test_neighbor_screen_tiny_eps_keys_cells_not_a_dense_table(flow):
    """At eps = 1e-6 the grid would have ~1e19 cells; only occupied ones are
    indexed. Pairs 1e-7 apart are found, also across each periodic edge and
    the glued fiber."""
    m = flow.manifold
    coords = np.stack([p.coords for p in sample_points(flow, 60, seed=61)])
    twins = coords[:20].copy()
    twins[:, 0] += 1e-7
    for ax, per in enumerate(m.periodic_axes):
        if per is not None:     # a pair straddling the upper edge of ax
            coords[20 + ax, ax] = m.axis_origins[ax] + per - 2e-7
            twins[10 + ax] = coords[20 + ax]
            twins[10 + ax, ax] += 4e-7
    coords = m.wrap_array(np.concatenate([coords, twins]))
    assert _assert_screen_matches_pairwise(m, coords, 1e-6) >= 2 * 20


@pytest.mark.parametrize("flow", [CAT, TORUS, RIGID], ids=lambda f: f.name)
def test_neighbor_screen_eps_beyond_the_chart(flow):
    """An eps wider than the whole chart makes every pair a neighbor."""
    m = flow.manifold
    coords = np.stack([p.coords for p in sample_points(flow, 40, seed=62)])
    assert _assert_screen_matches_pairwise(m, coords, 10.0) == 40 * 39


def test_a_horizon_reads_only_its_strided_times_and_its_endpoint():
    """Hand-made orbits on an axis of the solid torus chart, stride 2 and
    horizons of 2 and 5 cached times. B (index 2) is within eps of A (0)
    except at time 1, the first horizon's endpoint, which the second
    horizon does not sample; C (1) blocks B at the first horizon only. So
    B stays out at both horizons."""
    x = np.array([[0.0, 0.0, 0.0, 0.0, 0.0],        # A
                  [0.3, 0.3, 0.6, 0.6, 0.6],        # C
                  [0.15, 0.35, 0.15, 0.15, 0.15]])  # B
    orbits = np.zeros(x.shape + (3,))
    orbits[..., 0] = x
    cache = SimpleNamespace(orbits=orbits, manifold=TORUS.manifold)
    assert ent._separated_counts(cache, 0.2, [2, 5], 2) == [2, 2]


def test_report_serialization(tmp_path):
    rep = entropy_estimate(RIGID, {"count": 200, "seed": 59}, [0.2, 0.1],
                           [0.0, 1.0, 2.0], 0.05)
    csv_path = tmp_path / "counts.csv"
    json_path = tmp_path / "summary.json"
    rep.to_csv(csv_path)
    rep.to_json(json_path)
    dats = rep.to_dat(tmp_path / "counts_eps{eps}.dat")
    assert csv_path.read_text().startswith("eps,t,count\n")
    assert "verdict" in json_path.read_text()
    assert len(dats) == 2


def _greedy_oracle(flow, cache, eps, t_list, step):
    """Greedy separated-set sizes by an all-pairs scan, one per horizon.

    A pair is separated at horizon t when its distance exceeds eps at some
    cached time of the stride-subsampled prefix up to t or at the last
    cached time up to t. Candidates are taken in index order, each horizon
    starting from the previous horizon's accepted set.
    """
    orbits, times = cache.orbits, cache.times
    max_norm = np.max(np.linalg.norm(
        flow.field(orbits.reshape(-1, orbits.shape[-1])), axis=-1))
    stride = max(1, math.floor(eps / (2.0 * max_norm) / step))
    n = orbits.shape[0]
    accepted, counts = [], []
    for t in t_list:
        m = int(np.searchsorted(times, t + 1e-12))
        sub = orbits[:, sorted(set(range(0, m, stride)) | {m - 1})]
        for i in range(n):
            if i in accepted:
                continue
            far = np.max(flow.manifold.distance_array(sub[i], sub[accepted]),
                         axis=-1) > eps
            if np.all(far):
                accepted.append(i)
        counts.append(len(accepted))
    return counts


@settings(max_examples=12, deadline=None)
@given(flow=st.sampled_from([CAT, TORUS, RIGID]), n=st.integers(100, 200),
       seed=st.integers(0, 2**31 - 1), eps=st.sampled_from([0.25, 0.3, 0.45]),
       step=st.sampled_from([0.05, 0.025]),
       dt=st.sampled_from([0.25, 0.2, 0.35]), n_t=st.integers(3, 5))
@example(flow=CAT, n=200, seed=1, eps=0.25, step=0.05, dt=0.25, n_t=5)
def test_counts_match_brute_force_greedy(flow, n, seed, eps, step, dt, n_t):
    """entropy_estimate and separated_count agree with an all-pairs greedy,
    including horizons whose endpoints fall off the stride (eps 0.25 with
    step 0.05 is stride 2, and t = 0.25 is cached time index 5)."""
    eps_list = [eps, 0.75 * eps]
    t_list = [k * dt for k in range(n_t)]
    try:
        rep = entropy_estimate(flow, {"count": n, "seed": seed}, eps_list,
                               t_list, step)
    except Saturated:
        reject()
    coords = np.stack([p.coords for p in sample_points(flow, n, seed=seed)])
    cache = ent._OrbitCache(flow, coords, max(t_list), step,
                            extra_times=t_list)
    for ei, e in enumerate(eps_list):
        assert list(rep.counts[ei]) == _greedy_oracle(flow, cache, e, t_list,
                                                      step)

    t = t_list[-1]
    pts = sample_points(flow, n, seed=seed)
    single = ent._OrbitCache(flow, coords, max(t, step), step, extra_times=[t])
    assert separated_count(flow, pts, t, eps, step) == _greedy_oracle(
        flow, single, eps, [t], step)[0]
