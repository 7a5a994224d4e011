"""Flow catalog: field values, norms, singular sets, rescale constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import field_derivative_bound, reversed_flow
from rflowlab.flows import LAMBDA_PLUS, field_norm, get_flow, sample_points

TORUS = get_flow("solid_torus")
CAT = get_flow("cat_suspension")
RIGID = get_flow("rigid_rotation")


def _pt(flow, coords):
    return flow.manifold.wrap(coords)


def _sample_coords(flow, n, seed):
    return np.stack([p.coords for p in sample_points(flow, n, seed=seed)])


def test_solid_torus_field_values():
    assert np.allclose(TORUS.field(_pt(TORUS, (0.0, 0.2, 0.0)).coords), (0, 0, 0))
    assert np.allclose(TORUS.field(_pt(TORUS, (-0.5, 0.0, 0.0)).coords), (0.5, 0, 0))
    assert np.allclose(TORUS.field(_pt(TORUS, (1.5, 0.0, 0.0)).coords), (1.0, 0, 0))


def test_field_norms():
    assert field_norm(TORUS, _pt(TORUS, (-0.5, 0, 0))) == pytest.approx(0.5)
    assert field_norm(TORUS, _pt(TORUS, (0.0, 0.3, 0.1))) == 0.0
    assert field_norm(CAT, _pt(CAT, (0.12, 0.9, 0.4))) == pytest.approx(1.0)
    assert field_norm(RIGID, _pt(RIGID, (1.7, 0.2, 0.1))) == pytest.approx(1.0)


def test_field_continuity_lipschitz():
    """||X(p) - X(q)|| <= Lip * d(p, q) on nearby random pairs."""
    rng = np.random.default_rng(9)
    for flow in (TORUS, CAT, RIGID):
        lip = field_derivative_bound(flow, _sample_coords(flow, 500, seed=1))
        pts = np.stack([p.coords for p in sample_points(flow, 10_000, seed=5)])
        delta = rng.normal(size=pts.shape) * 1e-3
        if flow.manifold.disk_axes is not None:
            qs = pts.copy()
            qs[:, 0] += delta[:, 0]  # perturb along the axis only, stay in disk
        else:
            qs = pts + delta
        qs = flow.manifold.wrap_array(qs)
        dv = np.linalg.norm(flow.field(pts) - flow.field(qs), axis=-1)
        dd = flow.manifold.distance_array(pts, qs)
        assert np.all(dv <= lip * dd + 1e-10)


def test_field_is_pure():
    x = _pt(TORUS, (0.37, 0.11, -0.05)).coords
    a = TORUS.field(x)
    b = TORUS.field(x)
    assert np.array_equal(a, b)


def test_lipschitz_estimates():
    """The catalog's L is exp(sup ||DX||) where the flow's growth is in its
    chart derivative; the cat suspension's growth is all in the gluing jump,
    which the chart derivative never sees, so its L is the analytic bound."""
    for flow, n in ((RIGID, 300), (TORUS, 1000)):
        sup = field_derivative_bound(flow, _sample_coords(flow, n, seed=0))
        assert math.exp(sup) == pytest.approx(flow.rescale.L, rel=1e-6)
    assert field_derivative_bound(CAT, _sample_coords(CAT, 300, seed=0)) == 0.0
    assert CAT.rescale.L == pytest.approx(LAMBDA_PLUS ** 2)


def test_rescale_invariants():
    for flow in (TORUS, CAT, RIGID):
        assert flow.rescale.L >= 1.0
        assert flow.rescale.beta0 > 0.0
        assert flow.rescale.t_min == (0.5 if flow is CAT else 0.0)


def test_reversed_flow_negates_field():
    rev = reversed_flow(CAT)
    x = _pt(CAT, (0.1, 0.2, 0.3))
    assert np.allclose(rev.field(x.coords), -CAT.field(x.coords))
    assert rev.name == "cat_suspension_reversed"


def test_singular_set_is_the_zero_disk():
    xs = np.linspace(-2, 2, 2001)
    pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
    norms = np.linalg.norm(TORUS.field(pts), axis=-1)
    assert np.all((norms > 0) == (np.abs(xs) > 1e-12))


@pytest.mark.parametrize("x", [1e-15, -1e-15, 1e-12, -1e-12, 3e-13, 0.25,
                               -0.75, 1.0 - 1e-16, 1.999999])
def test_speed_is_exact_near_the_singular_disk(x):
    # rho(x) = |x| on [-1, 1] must not round x to the float grid of x + 2
    assert TORUS.field(np.array([x, 0.0, 0.0]))[0] == min(abs(x), 1.0)


def _batch(draw_kind, n, rng):
    """A 2-D batch of n points of one kind: random rows, rows that share x
    exactly, x a mix of +0.0 and -0.0, or rows that share x but one NaN."""
    coords = rng.uniform(-6.0, 6.0, size=(n, 3))   # x past its 4-period too
    if draw_kind == "shared_x":
        coords[:, 0] = coords[0, 0]
    elif draw_kind == "signed_zero":
        coords[:, 0] = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)
    elif draw_kind == "nan_row":
        coords[:, 0] = coords[0, 0]
        coords[rng.integers(n), rng.integers(3)] = np.nan
    return coords


@settings(max_examples=150, deadline=None)
@given(flow=st.sampled_from((TORUS, CAT, RIGID)), n=st.integers(1, 8),
       kind=st.sampled_from(("random", "shared_x", "signed_zero", "nan_row")),
       seed=st.integers(0, 2**16), layout=st.sampled_from(("C", "F")))
def test_field_of_a_batch_is_the_stack_of_its_rows(flow, n, kind, seed, layout):
    """A 2-D batch keeps its shape and gives each row the bits of the row
    alone; a batch of more than two rows that all get one value shares one
    row, and a shared result cannot be written into."""
    coords = np.asarray(_batch(kind, n, np.random.default_rng(seed)),
                        order=layout)
    out = flow.field(coords)
    assert out.shape == coords.shape
    alone = np.stack([flow.field(coords[i:i + 1])[0] for i in range(n)])
    assert np.array_equal(out.view(np.int64), alone.view(np.int64))
    assert np.array_equal(out.view(np.int64),
                          np.stack([flow.field(c) for c in coords]).view(np.int64))
    one_value = flow is not TORUS or kind in ("shared_x", "signed_zero")
    if n > 2 and one_value:
        assert out.strides[0] == 0
    if out.strides[0] == 0:
        with pytest.raises(ValueError):
            out[0, 0] = 1.0
