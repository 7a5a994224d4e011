"""Local R-stable/unstable sets, dynamical balls, expansiveness checks,
and the uniform-expansiveness scan, at module-test scale.

Linear oracle for the suspension: transverse offsets map through powers of
the automorphism, so stable membership requires the expanding component to
stay under the tolerance for every step, which pins strip widths, ball
widths, and separation horizons in closed form.
"""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import reversed_flow, sheared_rotation
from rflowlab import integrate, rsets
from rflowlab.errors import (BetaTooLarge, BudgetExhausted, GammaTooLarge,
                             NoCrossing, SingularBase, Timeout)
from rflowlab.flows import CAT_MATRIX, LAMBDA_PLUS, get_flow, sample_points
from rflowlab.integrate import DEFAULT_TOL, flow_map
from rflowlab.rsets import (
    CELL_NO_CROSSING,
    CELL_OUT_OF_MANIFOLD,
    CELL_OUTSIDE_SECTION,
    ERROR_NAMES,
    RSetGrid,
    check_expansivity,
    compute_rset,
    connected_component,
    cw_cells,
    detect_rstable_point,
    dynamical_ball,
    membership_predicate,
    rset_grids,
    sphere_reach,
    _propagate_points,
    uniform_expansiveness_scan,
)
from rflowlab.sections import (
    SINGULAR_NORM,
    make_section,
    section_point,
    tube_batch,
)
from torus_orbit import x_after

TORUS = get_flow("solid_torus")
CAT = get_flow("cat_suspension")
RIGID = get_flow("rigid_rotation")

EIGVALS, EIGVECS = np.linalg.eigh(CAT_MATRIX)
E_MINUS = EIGVECS[:, 0]   # contracting eigendirection
E_PLUS = EIGVECS[:, 1]    # expanding eigendirection


def _pt(flow, coords):
    return flow.manifold.wrap(coords)


def _in_disk(grid):
    return grid.error_state != CELL_OUTSIDE_SECTION


# --------------------------------------------------------------- solid torus

def test_torus_rset_center_only():
    x = _pt(TORUS, (-0.5, 0.2, 0.0))
    for direction in ("stable", "unstable"):
        g = compute_rset(TORUS, x, 0.1, 1.0, 40, 41, direction)
        assert g.membership[g.center]
        assert g.counts()["members"] == 1
        assert g.truncation_reason in (None, "singular_base", "timeout")


def test_torus_expanding_side_center_only():
    x = _pt(TORUS, (0.5, 0.0, 0.1))
    g = compute_rset(TORUS, x, 0.1, 1.0, 40, 41, "stable")
    assert g.counts()["members"] == 1


def test_singular_base_raises():
    with pytest.raises(SingularBase):
        compute_rset(TORUS, _pt(TORUS, (0.0, 0.2, 0.0)), 0.1, 1.0, 5, 21, "stable")


# -------------------------------------------------------------- cat stable set

def test_cat_stable_strip_geometry():
    """At n_max = 4 the members form a 1-2 cell strip along the contracting
    eigendirection spanning the section disk."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    g = compute_rset(CAT, x, 0.1, 1.0, 4, 101, "stable")
    coords = g.cell_coords()
    mem = g.membership
    R = g.section.radius
    a = np.abs(coords @ E_PLUS)
    assert np.max(a[mem]) <= 2.5 * g.cellwidth
    # cells crossed by the contracting axis, inside the disk, are members
    on_axis = a < 0.45 * g.cellwidth
    in_disk = _in_disk(g)
    far = np.linalg.norm(coords, axis=-1) > 0.2 * R
    covered = mem[on_axis & in_disk & far]
    assert covered.all()
    # the component through the center spans most of the disk
    reach = np.max(np.linalg.norm(coords, axis=-1)[cw_cells(g)])
    assert reach > 0.9 * R


def test_cat_stable_large_horizon_collapses():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    g = compute_rset(CAT, x, 0.1, 1.0, 12, 101, "stable")
    coords = g.cell_coords()
    a = np.abs(coords @ E_PLUS)
    # any surviving cell must hug the contracting axis at sub-cell distance
    assert np.all(a[g.membership] <= 0.01 * g.cellwidth + 1e-15)
    assert g.counts()["members"] <= 3


def test_vacuous_tolerance_membership_is_existence():
    """With an infinite tolerance factor a cell fails only by leaving the
    tube of RADIUS_SLACK section radii: at n = 3 every cell of the shrunken
    section stays inside it, so every cell's orbit exists and survives."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    beta, t = 0.1, 1.0
    section = make_section(CAT, x, beta / CAT.rescale.L ** t)
    offs = (np.arange(41) - 20) * (2.0 * section.radius / 41)
    cells = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    cells = cells[np.linalg.norm(cells, axis=-1) <= section.radius]
    cells = cells[np.argsort(np.linalg.norm(cells, axis=-1), kind="stable")]
    [(_, run)] = _propagate_points(CAT, t, 1, 3, [(section, cells, np.inf, beta)])
    assert run.horizon == 3 and run.truncation_reason is None
    assert np.all(run.fail_step == 4) and np.all(run.error_state == 0)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("flow", [TORUS, CAT, RIGID], ids=lambda f: f.name)
def test_carried_grid_rows_land_on_the_target_plane(flow, reverse):
    """Each row a holonomy step carries ends exactly on the plane through
    the carried base, one to four steps either way, so no row of
    ``_propagate_points`` fails as having no crossing: the section is normal
    to an axis along which every catalog field moves all its points alike."""
    f = reversed_flow(flow) if reverse else flow
    rng = np.random.default_rng(17)
    kw = {"x_range": (0.1, 1.9)} if flow.manifold.disk_axes else {}
    for x in sample_points(flow, 6, seed=18, **kw):
        section = make_section(f, x, 0.1)
        r = section.radius * np.sqrt(rng.uniform(size=50))
        th = rng.uniform(0.0, 2.0 * np.pi, size=50)
        cells = np.vstack([np.zeros(2), np.stack([r * np.cos(th),
                                                  r * np.sin(th)], axis=1)])
        for sign in (1, -1):
            # infinite tolerances keep every row alive through all four steps
            [(_, run)] = _propagate_points(
                f, 1.0, sign, 4, [(section, cells, np.inf, np.inf)],
                record_tracks=True)
            assert not np.any(run.error_state == CELL_NO_CROSSING)
            assert len(run.tracks) == run.horizon >= 1
            for alive, Y in run.tracks:
                assert alive.size == cells.shape[0]
                nhat = f.field(Y[0]) / np.linalg.norm(f.field(Y[0]))
                resid = f.manifold.displacement(Y[0], Y) @ nhat
                assert np.all(resid == 0.0)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("flow", [TORUS, CAT, RIGID], ids=lambda f: f.name)
def test_holonomy_tube_batch_ends_at_the_target_base_on_its_plane(flow, reverse):
    """``holonomy`` takes phi_t(base) from its tube batch and scans one
    window around t. Both rest on this: each pair's base row at t has the
    bits of ``flow_map``, and phi_t(y) lies exactly on the target plane,
    for both signs of t and, on the solid torus, across its kink |x| = 1.
    The draws of each t run as one batch of pairs from every base."""
    f = reversed_flow(flow) if reverse else flow
    rng = np.random.default_rng(19)
    kw = {"x_range": (0.1, 1.9)} if flow.manifold.disk_axes else {}
    kinks_crossed = {1.0: 0, -1.0: 0}
    pairs = {t: [] for t in (1.0, -1.0, 2.5, -2.5)}
    for x in sample_points(flow, 6, seed=20, **kw):
        section = make_section(f, x, 0.1)
        for t, batch in pairs.items():
            for _ in range(3):
                u = rng.uniform(-0.7, 0.7, size=2) * section.radius
                batch.append((section, section_point(f, section, u)))
    for t, batch in pairs.items():
        secs, ys = zip(*batch)
        rows = tube_batch(f, secs, t, ys, DEFAULT_TOL)
        assert len(rows) == len(batch)
        for section, (_, base_t, y_t, _) in zip(secs, rows):
            x = section.base
            assert np.array_equal(base_t, flow_map(f, x, t).coords)
            nhat = f.field(base_t) / np.linalg.norm(f.field(base_t))
            assert f.manifold.displacement(base_t, y_t) @ nhat == 0.0
            if f.switch is not None and \
                    f.switch(x.coords) * f.switch(base_t) < 0:
                kinks_crossed[np.sign(t)] += 1
    if flow is TORUS:
        assert min(kinks_crossed.values()) > 0


def test_rows_carried_off_the_target_plane_fail_as_no_crossing():
    """A field whose speed along the section normal varies across the
    section carries rows off the target plane; each fails at step 1 as
    having no crossing, while the base travels on."""
    f = sheared_rotation()
    section = make_section(f, _pt(f, (0.3, 0.3, 0.0)), 0.1)
    th = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    cells = 0.5 * section.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    dy = (cells @ section.axes)[:, 1]
    cells = np.vstack([np.zeros(2), cells[np.abs(dy) > 1e-3]])
    [(_, run)] = _propagate_points(f, 1.0, 1, 2, [(section, cells, np.inf, np.inf)])
    assert run.horizon == 2
    assert run.fail_step[0] == 3 and run.error_state[0] == 0
    assert np.all(run.fail_step[1:] == 1)
    assert np.all(run.error_state[1:] == CELL_NO_CROSSING)


def test_membership_monotone_in_horizon():
    """Members through horizon n are the cells whose first failed step
    lies past n (cells off the section or the manifold fail at step 0);
    at the certified horizon they are the grid's members."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    g = compute_rset(CAT, x, 0.1, 1.0, 6, 61, "stable")
    prev = None
    for n in range(1, g.horizon_certified + 1):
        cur = g.fail_step > n
        if prev is not None:
            assert np.all(cur <= prev)  # member at n implies member at n-1
        prev = cur
    assert np.array_equal(prev, g.membership)


def test_membership_scale_invariant_in_beta():
    """Doubling beta scales the grid geometry; membership per cell index
    is unchanged on these transversally linear flows (monotone in beta)."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    g1 = compute_rset(CAT, x, 0.05, 1.0, 5, 41, "stable")
    g2 = compute_rset(CAT, x, 0.10, 1.0, 5, 41, "stable")
    assert np.array_equal(g1.membership, g2.membership)


def test_stable_unstable_duality():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    rev = reversed_flow(CAT)
    gu = compute_rset(CAT, x, 0.1, 1.0, 5, 41, "unstable")
    gs_rev = compute_rset(rev, x, 0.1, 1.0, 5, 41, "stable")
    assert np.array_equal(gu.membership, gs_rev.membership)
    x2 = _pt(TORUS, (-0.5, 0.1, 0.0))
    gu2 = compute_rset(TORUS, x2, 0.1, 1.0, 10, 21, "unstable")
    gs2 = compute_rset(reversed_flow(TORUS), x2, 0.1, 1.0, 10, 21, "stable")
    assert np.array_equal(gu2.membership, gs2.membership)


# ------------------------------------------------------------------ CSV bytes

def _csv_writer_oracle(grid, path):
    """The row-by-row ``csv.writer`` loop that ``to_csv`` must reproduce."""
    coords = grid.cell_coords()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "j", "u", "v", "member", "component", "error_state"])
        for i in range(grid.resolution):
            for j in range(grid.resolution):
                w.writerow([
                    i, j,
                    f"{coords[i, j, 0]:.17g}", f"{coords[i, j, 1]:.17g}",
                    int(grid.membership[i, j]),
                    int(grid.component_labels[i, j]),
                    ERROR_NAMES[int(grid.error_state[i, j])],
                ])


def _bare_grid(membership, labels, error_state, cellwidth):
    """A grid with the given cells and no section behind it."""
    return RSetGrid(
        section=None, resolution=membership.shape[0], membership=membership,
        component_labels=labels, fail_step=np.full(membership.shape, 2),
        error_state=error_state, horizon_certified=1, truncation_reason=None,
        cellwidth=cellwidth)


def _random_grid(rng, resolution, cellwidth):
    shape = (resolution, resolution)
    states = np.array(sorted(ERROR_NAMES), dtype=np.int8)
    error_state = rng.choice(states, size=shape)
    error_state.flat[:len(states)] = states        # every state appears
    membership = rng.random(shape) < 0.5
    labels = np.where(membership, rng.integers(0, 12, size=shape), -1)
    labels.flat[0], labels.flat[1] = -1, 0
    return _bare_grid(membership, labels, error_state, cellwidth)


def _assert_csv_matches_oracle(grid, tmp_path):
    grid.to_csv(tmp_path / "new.csv")
    _csv_writer_oracle(grid, tmp_path / "oracle.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "oracle.csv").read_bytes()
    assert len(new.splitlines()) == grid.resolution ** 2 + 1
    return new


@pytest.mark.parametrize("resolution", [3, 101])
def test_to_csv_bytes_match_csv_writer_oracle(tmp_path, resolution):
    """Random grids at two cell widths of one resolution, written A, B, A
    so a row layout reused across cell widths would show, then the stable
    and unstable grids of one solid-torus point."""
    rng = np.random.default_rng(resolution)
    width_a, width_b = 0.1 / 3.0 / resolution, 0.07 / resolution
    for width in (width_a, width_b, width_a):
        new = _assert_csv_matches_oracle(
            _random_grid(rng, resolution, width), tmp_path)
        us = {float(line.split(b",")[2]) for line in new.splitlines()[1:]}
        assert min(us) < 0.0 and 0.0 in us and max(us) > 0.0
        assert max(us) == pytest.approx(width * (resolution // 2))
    x = _pt(TORUS, (-0.5, 0.2, 0.0))
    for direction in ("stable", "unstable"):
        _assert_csv_matches_oracle(
            compute_rset(TORUS, x, 0.1, 1.0, 3, resolution, direction),
            tmp_path)


# ------------------------------------------------------------------ components

def _flood_fill_oracle(membership):
    """Labels by a flood from every cell in row-major order."""
    res = membership.shape[0]
    labels = np.full((res, res), -1, dtype=int)
    next_label = 0
    for i in range(res):
        for j in range(res):
            if not membership[i, j] or labels[i, j] >= 0:
                continue
            stack = [(i, j)]
            labels[i, j] = next_label
            while stack:
                a, b = stack.pop()
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < res and 0 <= nb < res \
                            and membership[na, nb] and labels[na, nb] < 0:
                        labels[na, nb] = next_label
                        stack.append((na, nb))
            next_label += 1
    return labels


@settings(max_examples=80, deadline=None)
@given(half=st.integers(1, 20),
       density=st.one_of(st.floats(0.05, 0.95), st.sampled_from((0.0, 1.0))),
       seed=st.integers(0, 2**32 - 1))
@example(half=1, density=1.0, seed=0)
@example(half=20, density=1.0, seed=0)
@example(half=20, density=0.0, seed=0)
def test_connected_component_matches_flood_fill_oracle(half, density, seed):
    """Random member masks (density 0 and 1: none and all), odd
    resolutions 3 to 41: the same labels as a flood from every cell."""
    res = 2 * half + 1
    membership = np.random.default_rng(seed).random((res, res)) < density
    g = _bare_grid(membership, np.full((res, res), -1),
                   np.zeros((res, res), dtype=np.int8), 0.01)
    connected_component(g)
    want = _flood_fill_oracle(membership)
    assert g.component_labels.dtype == want.dtype
    assert np.array_equal(g.component_labels, want)


def test_connected_component_center_only():
    x = _pt(TORUS, (-0.5, 0.2, 0.0))
    g = compute_rset(TORUS, x, 0.1, 1.0, 40, 21, "stable")
    assert np.sum(cw_cells(g)) == 1


def test_connected_component_full_grid():
    x = _pt(RIGID, (0.3, 0.1, 0.0))
    g = compute_rset(RIGID, x, 0.1, 1.0, 5, 21, "stable")
    in_disk = _in_disk(g)
    assert np.array_equal(g.membership, in_disk)  # identity holonomy
    assert np.sum(cw_cells(g)) == np.sum(in_disk)


def test_face_adjacency_separates_diagonal_clusters():
    x = _pt(RIGID, (0.3, 0.1, 0.0))
    g = compute_rset(RIGID, x, 0.1, 1.0, 1, 5, "stable")
    g.membership[:] = False
    c = g.resolution // 2
    g.membership[c, c] = True
    g.membership[c + 1, c + 1] = True  # corner touch only
    connected_component(g)
    assert g.component_labels[c, c] != g.component_labels[c + 1, c + 1]


# ----------------------------------------------------------------- sphere reach

def test_sphere_reach_cat_both_directions():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    gamma = 0.5 * 0.1 / CAT.rescale.L  # 0.5 * beta / L^t at t = 1
    for direction in ("stable", "unstable"):
        g = compute_rset(CAT, x, 0.1, 1.0, 4, 101, direction)
        assert sphere_reach(g, gamma)


def test_sphere_reach_torus_false():
    x = _pt(TORUS, (-0.5, 0.2, 0.0))
    g = compute_rset(TORUS, x, 0.1, 1.0, 40, 41, "stable")
    gamma = 4.0 * g.cellwidth / g.section.base_field_norm
    assert not sphere_reach(g, gamma)


def test_sphere_reach_gamma_zero_and_too_large():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    g = compute_rset(CAT, x, 0.1, 1.0, 3, 21, "stable")
    assert sphere_reach(g, 0.0)
    with pytest.raises(GammaTooLarge):
        sphere_reach(g, 10.0)


# ------------------------------------------------------------- dynamical balls

def test_ball_n0_is_the_disk():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    ball = dynamical_ball(CAT, x, 0, 0.1, 1.0, 41)
    assert np.array_equal(ball.membership, _in_disk(ball))


def test_ball_n0_counts_no_cell_outside_the_manifold():
    """Cells of the section disk beyond the solid torus are out of the
    manifold at n = 0 exactly as at n = 1, never members."""
    x = _pt(RIGID, (0.5, 0.95, 0.0))
    grids = [dynamical_ball(RIGID, x, n, 0.25, 1.0, 21) for n in (0, 1)]
    sec = grids[0].section
    raw = sec.base.coords + grids[0].cell_coords() @ sec.axes
    i, j = RIGID.manifold.disk_axes
    outside = np.hypot(raw[..., i], raw[..., j]) > 1.0 + 1e-9
    assert np.any(outside & _in_disk(grids[0]))
    assert not np.any(grids[0].membership & outside)
    for g in grids:
        assert np.array_equal(g.error_state == CELL_OUT_OF_MANIFOLD,
                              outside & _in_disk(g))


def test_ball_nesting():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    balls = [dynamical_ball(CAT, x, n, 0.1, 1.0, 41) for n in range(0, 11)]
    for small, big in zip(balls[1:], balls[:-1]):
        assert np.all(small.membership <= big.membership)


def test_ball_width_shrinks_by_top_eigenvalue():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    widths = []
    for n in range(0, 3):
        ball = dynamical_ball(CAT, x, n, 0.1, 1.0, 141)
        coords = ball.cell_coords()
        a = np.abs(coords @ E_PLUS)
        widths.append(np.max(a[ball.membership]))
    for w0, w1 in zip(widths, widths[1:]):
        assert w0 / w1 == pytest.approx(LAMBDA_PLUS, rel=0.2)


# -------------------------------------------------------------- R-stable points

def test_detect_rstable_rigid_true():
    x = _pt(RIGID, (0.3, 0.1, 0.0))
    ok, cert = detect_rstable_point(RIGID, x, 1.0, [0.1, 0.05],
                                    [0.05, 0.025, 0.0125])
    assert ok
    assert all(c["eta"] is not None for c in cert)


def test_detect_rstable_cat_false():
    x = _pt(CAT, (0.31, 0.62, 0.47))
    ok, cert = detect_rstable_point(CAT, x, 1.0, [0.1], [0.05, 0.025, 0.0125])
    assert not ok
    assert cert[-1]["eta"] is None


def test_detect_rstable_torus_false():
    x = _pt(TORUS, (-0.5, 0.2, 0.0))
    ok, _ = detect_rstable_point(TORUS, x, 1.0, [0.1], [0.05, 0.025])
    assert not ok


# ------------------------------------------------------------- expansiveness

def test_expansivity_cat_consistent():
    pts = sample_points(CAT, 5, seed=41)
    verdict = check_expansivity(CAT, pts, 0.1, 1.0, 12, 41)
    assert verdict.overall == "consistent-with-R-expansive"
    assert all(e["trivial_intersection"] for e in verdict.per_point)


def test_expansivity_torus_consistent():
    pts = sample_points(TORUS, 5, seed=42, x_range=(0.1, 1.0))
    verdict = check_expansivity(TORUS, pts, 0.1, 1.0, 40, 41)
    assert verdict.overall == "consistent-with-R-expansive"


def test_expansivity_rigid_counterexample_everywhere():
    pts = sample_points(RIGID, 5, seed=43)
    verdict = check_expansivity(RIGID, pts, 0.1, 1.0, 8, 41)
    assert verdict.overall == "counterexample-found"
    assert all(not e["trivial_intersection"] for e in verdict.per_point)
    assert all(e["witness"] is not None for e in verdict.per_point)


# --------------------------------------------------- uniform expansiveness scan

def test_uef_cat_horizon_matches_growth_rate():
    pts = sample_points(CAT, 4, seed=44)
    rep = uniform_expansiveness_scan(CAT, pts, 0.01, 0.1, 1.0, 12,
                                     n_directions=16)
    expected = int(np.ceil(np.log(0.1 / 0.01) / np.log(LAMBDA_PLUS)))
    assert abs(rep.N_eta - expected) <= 1
    assert rep.exhausted_pair is None


def test_uef_rigid_budget_exhausted():
    pts = sample_points(RIGID, 2, seed=45)
    with pytest.raises(BudgetExhausted) as exc:
        uniform_expansiveness_scan(RIGID, pts, 0.01, 0.1, 1.0, 10,
                                   n_directions=4)
    assert exc.value.witness is not None
    rep = uniform_expansiveness_scan(RIGID, pts, 0.01, 0.1, 1.0, 10,
                                     n_directions=4, on_budget="report")
    assert rep.N_eta is None and rep.exhausted_pair is not None


def test_uef_vacuous():
    pts = sample_points(RIGID, 2, seed=46)
    rep = uniform_expansiveness_scan(RIGID, pts, 0.15, 0.1, 1.0, 5)
    assert rep.vacuous and rep.N_eta == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_uef_cat_witnesses_match_closed_form(seed):
    """On the suspension a section offset u is carried to A^i u after i
    unit steps (A^-i u backward), so a pair first separates at the least
    i >= 1 with max(|A^i u|, |A^-i u|) > beta.

    The seed draws eta, the number of directions and three bases, so that
    each example is a fresh draw of all three."""
    rng = np.random.default_rng(seed)
    eta, n_dirs = rng.uniform(0.002, 0.09), int(rng.integers(1, 24))
    beta, budget = 0.1, 12
    powers = [np.linalg.matrix_power(CAT_MATRIX, i) for i in range(1, budget + 1)]
    powers_inv = [np.linalg.inv(a) for a in powers]
    expected = []
    for d in range(n_dirs):
        ang = 2.0 * np.pi * d / n_dirs
        u = 1.02 * eta * np.array([math.cos(ang), math.sin(ang)])
        grow = np.array([max(np.linalg.norm(a @ u), np.linalg.norm(b @ u))
                         for a, b in zip(powers, powers_inv)])
        assume(np.all(np.abs(grow - beta) > 1e-6 * beta))
        expected.append(1 + int(np.argmax(grow > beta)))
    pts = sample_points(CAT, 3, seed=seed)
    rep = uniform_expansiveness_scan(CAT, pts, eta, beta, 1.0, budget,
                                     n_directions=n_dirs)
    assert rep.witnesses == [(p, d, n) for p in range(3)
                             for d, n in enumerate(expected)]
    assert rep.N_eta == max(expected) and rep.skipped_pairs == 0


def test_uef_rigid_exhausted_pair_is_the_first_direction():
    """No pair separates under the isometric flow: the first pair tried,
    point 0 and its direction-0 section point, is the one reported."""
    pts = sample_points(RIGID, 2, seed=45)
    eta, beta = 0.01, 0.1
    y = section_point(RIGID, make_section(RIGID, pts[0], beta),
                      1.02 * eta * np.array([1.0, 0.0]))
    pair = ([float(v) for v in pts[0].coords], [float(v) for v in y.coords])
    rep = uniform_expansiveness_scan(RIGID, pts, eta, beta, 1.0, 6,
                                     n_directions=3, on_budget="report")
    assert rep.exhausted_pair == pair and rep.witnesses == []
    with pytest.raises(BudgetExhausted) as exc:
        uniform_expansiveness_scan(RIGID, pts, eta, beta, 1.0, 6,
                                   n_directions=3)
    x, y_raised = exc.value.witness
    assert (list(x.coords), list(y_raised.coords)) == pair


# ------------------------------------------------------- contraction of members

def test_membership_predicate_rejects_beta_above_beta0():
    """Checked up front, as compute_rset does, not at the first straggler."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    with pytest.raises(BetaTooLarge):
        membership_predicate(CAT, x, 0.3, 1.0, 2, "stable", [[0.0, 0.001]])


@pytest.mark.parametrize("direction, t", [("stabel", 1.0), ("", 1.0),
                                          ("stable", -1.0), ("unstable", 0.0)])
def test_membership_predicate_rejects_what_compute_rset_rejects(direction, t):
    """A misspelt direction once ran the backward maps, and t <= 0 raised
    BetaTooLarge from the section it shrank by L^-t: both grid entry points
    now raise the same ValueError before any step."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    errors = []
    for call in (lambda: compute_rset(CAT, x, 0.1, t, 2, 5, direction),
                 lambda: membership_predicate(CAT, x, 0.1, t, 2, direction,
                                              [[0.0, 0.001]])):
        with mock.patch.object(rsets, "orbit_batch",
                               side_effect=AssertionError("a step ran")), \
                pytest.raises(ValueError) as exc:
            call()
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_stable_set_contracts_with_bottom_eigenvalue():
    """Forward images of verified stable-set points shrink by the bottom
    eigenvalue per step (10 percent envelope, n <= 6)."""
    x = _pt(CAT, (0.31, 0.62, 0.47))
    beta, t, n_max = 0.1, 1.0, 16
    R = (beta / CAT.rescale.L ** t) * 1.0
    radii = np.array([-0.9, -0.5, -0.25, 0.25, 0.5, 0.9]) * R
    coords = np.outer(radii, E_MINUS)
    fail, run = membership_predicate(CAT, x, beta, t, n_max, "stable", coords,
                                     tol=1e-10, record_tracks=True)
    assert np.all(fail > n_max), fail  # all verified members at this horizon
    lam_minus = float(EIGVALS[0])
    diam_prev = 1.8 * R
    for k in range(6):
        alive, pos = run.tracks[k]
        pts = pos[1:]  # skip the base row
        dmat = CAT.manifold.distance_array(pts[:, None, :], pts[None, :, :])
        diam = float(np.max(dmat))
        ratio = diam / diam_prev
        assert ratio == pytest.approx(lam_minus, rel=0.10), k
        diam_prev = diam


# ------------------------------------------- per-row steps through the grid

@pytest.mark.parametrize("flow, coords, n_max", [
    (CAT, (0.31, 0.62, 0.47), 5),
    (TORUS, (0.56, 0.1, 0.0), 40),    # crosses x = 1, then decays to x = 0
    (TORUS, (-1.3, 0.2, -0.1), 40),   # crosses x = -1
])
@pytest.mark.parametrize("direction", ["stable", "unstable"])
def test_grid_cell_equals_the_cell_run_alone(flow, coords, n_max, direction):
    """Every cell's fail step and error state in the full grid equal those
    of the cell propagated with its base alone, through membership_predicate."""
    x = _pt(flow, coords)
    g = compute_rset(flow, x, 0.1, 1.0, n_max, 21, direction,
                     with_components=False)
    cells = np.argwhere(_in_disk(g))
    rng = np.random.default_rng(7)
    picked = cells[rng.choice(len(cells), size=12, replace=False)]
    u = g.cell_coords()[picked[:, 0], picked[:, 1]]
    for (i, j), uv in zip(picked, u):
        fail, run = membership_predicate(flow, x, 0.1, 1.0, n_max, direction,
                                         uv[None])
        assert run.horizon == g.horizon_certified
        assert fail[0] == g.fail_step[i, j]
        assert run.error_state[1] == g.error_state[i, j]


def test_torus_horizon_is_the_closed_form_step_to_the_singular_disk():
    """horizon_certified is one less than the first step k whose closed-form
    base point has |x| <= SINGULAR_NORM (n_max if none). Points whose |x| at
    that step lies within 1 % of the cutoff are skipped: the cutoff is below
    the integration tolerance, so rounding decides there."""
    t, n_max = 1.0, 40
    checked = 0
    for x in sample_points(TORUS, 8, seed=105, x_range=(0.1, 1.0)):
        for direction, sign in (("stable", 1.0), ("unstable", -1.0)):
            xs = np.array([abs(x_after(x.coords[0], sign * k * t))
                           for k in range(1, n_max + 1)])
            below = np.flatnonzero(xs <= SINGULAR_NORM)
            want = int(below[0]) if below.size else n_max
            if below.size and abs(xs[below[0]] / SINGULAR_NORM - 1.0) <= 0.01:
                continue
            g = compute_rset(TORUS, x, 0.1, t, n_max, 3, direction,
                             with_components=False)
            assert g.horizon_certified == want, (x.coords, direction)
            checked += 1
    assert checked >= 12


def test_propagation_carries_step_sizes_across_horizons():
    """On the suspension every horizon after the first takes one DP5 step:
    each row starts from the step size its last horizon proposed."""
    steps_per_call, count = [], [0]
    real_step, real_batch = integrate._rk_step, rsets.orbit_batch

    def step(*args):
        count[0] += 1
        return real_step(*args)

    def batch(*args, **kwargs):
        count[0] = 0
        out = real_batch(*args, **kwargs)
        steps_per_call.append(count[0])
        return out

    x = _pt(CAT, (0.31, 0.62, 0.47))
    coords = 0.001 * np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    with mock.patch.object(integrate, "_rk_step", step), \
            mock.patch.object(rsets, "orbit_batch", batch):
        fail, run = membership_predicate(CAT, x, 0.1, 1.0, 6, "stable", coords)
    assert len(steps_per_call) == 6
    assert steps_per_call[0] > 1 and steps_per_call[1:] == [1] * 5


# ------------------------------------------------- many grids in one march

def _torus_points(xs, seed):
    """Solid-torus points at the given x, within 0.6 of the core circle."""
    rng = np.random.default_rng(seed)
    r = 0.6 * np.sqrt(rng.uniform(size=len(xs)))
    th = rng.uniform(0.0, 2.0 * np.pi, size=len(xs))
    return [_pt(TORUS, (x, a * math.cos(b), a * math.sin(b)))
            for x, a, b in zip(xs, r, th)]


def _assert_same_grid(g, alone):
    for name in ("membership", "fail_step", "error_state"):
        assert np.array_equal(getattr(g, name), getattr(alone, name)), name
    assert (g.horizon_certified, g.truncation_reason) == \
        (alone.horizon_certified, alone.truncation_reason)


@st.composite
def _march_draw(draw):
    """A flow, 1 to 5 of its points, a direction and a small grid. On the
    solid torus |x| runs from 0.05 to 1.9, so orbits cross the kink at
    |x| = 1 and come near the singular disk x = 0."""
    flow = draw(st.sampled_from([CAT, RIGID, TORUS]))
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    if flow is TORUS:
        xs = draw(st.lists(st.floats(0.05, 1.9), min_size=n, max_size=n))
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n,
                              max_size=n))
        pts = _torus_points([s * x for s, x in zip(signs, xs)], seed)
    else:
        pts = sample_points(flow, n, seed=seed)
    return (flow, pts, draw(st.sampled_from(("stable", "unstable"))),
            draw(st.sampled_from((3, 5, 7, 9))), draw(st.integers(1, 40)),
            seed)


@settings(max_examples=25, deadline=None)
@given(case=_march_draw())
@example(case=(TORUS, _torus_points([0.56, -0.3, 1.2, -1.7, 0.9], 0), "stable",
               5, 40, 0))
def test_grids_marched_together_equal_each_grid_marched_alone(case):
    """Each grid of a march of many equals its one-grid ``compute_rset``
    in every cell, horizon and truncation, and, with tracks recorded, each
    row's positions at every step equal those of its grid marched alone:
    grids that share an ``orbit_batch`` call keep each row's bits."""
    flow, pts, direction, res, n_max, seed = case
    marched = dict(rset_grids(flow, pts, 0.1, 1.0, n_max, res, direction,
                              with_components=False))
    assert sorted(marched) == list(range(len(pts)))
    for i, x in enumerate(pts):
        _assert_same_grid(marched[i], compute_rset(
            flow, x, 0.1, 1.0, n_max, res, direction, with_components=False))

    rng = np.random.default_rng(seed)
    sign = 1 if direction == "stable" else -1
    specs = []
    for x in pts:
        sec = make_section(flow, x, 0.1)
        r = sec.radius * np.sqrt(rng.uniform(size=6))
        th = rng.uniform(0.0, 2.0 * np.pi, size=6)
        rows = np.vstack([np.zeros(2), np.stack([r * np.cos(th),
                                                 r * np.sin(th)], axis=1)])
        specs.append((sec, rows, 0.1 / 3.0, 0.1))
    together = dict(_propagate_points(flow, 1.0, sign, n_max, specs,
                                      record_tracks=True))
    for i, spec in enumerate(specs):
        [(_, alone)] = _propagate_points(flow, 1.0, sign, n_max, [spec],
                                         record_tracks=True)
        run = together[i]
        assert run.horizon == alone.horizon
        assert np.array_equal(run.fail_step, alone.fail_step)
        assert len(run.tracks) == len(alone.tracks)
        for (idx, pos), (idx_a, pos_a) in zip(run.tracks, alone.tracks):
            assert np.array_equal(idx, idx_a) and np.array_equal(pos, pos_a)


@pytest.mark.parametrize("error", [Timeout, NoCrossing])
def test_a_failing_grid_of_a_shared_call_fails_as_alone(monkeypatch, error):
    """One grid of a shared ``orbit_batch`` call raises at its step 6: the
    call is taken again grid by grid. A Timeout truncates that grid at
    horizon 5, as when it marches alone; any other error is that grid's
    result, and is what ``compute_rset`` raises for it. Every other grid
    is unchanged."""
    pts = _torus_points([0.56, -0.3, 1.2, -1.7, 0.9], 1)
    args = (0.1, 1.0, 40, 5, "stable")
    clean = dict(rset_grids(TORUS, pts, *args, with_components=False))
    _, run = membership_predicate(TORUS, pts[2], 0.1, 1.0, 40, "stable",
                                  np.zeros((0, 2)), record_tracks=True)
    before_6 = run.tracks[4][1][0]      # the base of grid 2 after step 5
    real, raised = rsets.orbit_batch, []

    def spy(f, coords, *a, **k):
        if np.any(np.all(coords == before_6, axis=1)):
            raised.append(len(coords))
            raise error("injected")
        return real(f, coords, *a, **k)

    monkeypatch.setattr(rsets, "orbit_batch", spy)
    marched = dict(rset_grids(TORUS, pts, *args, with_components=False))
    assert raised[0] > 1 and raised[1:] == [1]    # shared, then alone
    for i in (0, 1, 3, 4):
        _assert_same_grid(marched[i], clean[i])
    if error is Timeout:
        alone = compute_rset(TORUS, pts[2], *args, with_components=False)
        _assert_same_grid(marched[2], alone)
        assert (alone.horizon_certified, alone.truncation_reason) == \
            (5, "timeout")
    else:
        assert type(marched[2]) is NoCrossing
        with pytest.raises(NoCrossing):
            compute_rset(TORUS, pts[2], *args, with_components=False)
