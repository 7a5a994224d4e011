"""Chart wrapping, deck-aware distances, frames, and the flat exp map."""

import numpy as np
import pytest

from rflowlab.errors import DegenerateField, OutOfManifold
from rflowlab.flows import CAT_MATRIX, cat_suspension_manifold, solid_torus_manifold
from rflowlab.geometry import Gluing, distance, exp_map, normal_frame, wrap

TORUS = solid_torus_manifold()
CAT = cat_suspension_manifold()


def test_wrap_periodic_x():
    p = wrap(TORUS, (2.5, 0.0, 0.0))
    assert p.coords[0] == pytest.approx(-1.5, abs=1e-12)


def test_wrap_interior_fixed_point():
    p = wrap(TORUS, (0.3, 0.2, 0.1))
    assert np.allclose(p.coords, (0.3, 0.2, 0.1), atol=1e-15)


def test_wrap_applies_gluing_matrix():
    v = np.array([0.3, 0.4])
    p = wrap(CAT, (v[0], v[1], 1.0))
    expect = CAT_MATRIX @ v % 1.0
    assert np.allclose(p.coords[:2], expect, atol=1e-12)
    assert p.coords[2] == pytest.approx(0.0, abs=1e-12)


def test_wrap_inverse_gluing_below():
    v = np.array([0.3, 0.4])
    p = wrap(CAT, (v[0], v[1], -0.25))
    inv = np.linalg.inv(CAT_MATRIX)
    expect = (inv @ v) % 1.0
    assert np.allclose(p.coords[:2], expect, atol=1e-12)
    assert p.coords[2] == pytest.approx(0.75, abs=1e-12)


def test_wrap_idempotent_random():
    rng = np.random.default_rng(7)
    for m, lo, hi in ((TORUS, (-6, -1, -1), (6, 1, 1)), (CAT, (-3, -3, -3), (3, 3, 3))):
        raw = rng.uniform(lo, hi, size=(10_000, 3))
        if m is TORUS:
            # keep the disk coordinates inside the unit disk
            r = np.sqrt(raw[:, 1] ** 2 + raw[:, 2] ** 2)
            scale = np.where(r > 0.98, 0.98 / np.maximum(r, 1e-9), 1.0)
            raw[:, 1] *= scale
            raw[:, 2] *= scale
        once = m.wrap_array(raw)
        twice = m.wrap_array(once)
        assert np.allclose(once, twice, atol=1e-9)


def test_glue_powers_belong_to_their_gluing():
    """Fresh gluings never see matrix powers cached for an earlier one."""
    rng = np.random.default_rng(11)
    wrong = 0
    for _ in range(2000):
        m = rng.integers(-3, 4, size=(2, 2)).astype(float)
        g = Gluing(axis=2, matrix=m, target_axes=(0, 1))
        wrong += not np.array_equal(g.power(2), m @ m)
    assert wrong == 0


def test_out_of_manifold_on_disk_violation():
    with pytest.raises(OutOfManifold):
        wrap(TORUS, (0.0, 0.9, 0.9))


def test_distance_wraparound():
    p = wrap(TORUS, (-1.9, 0.0, 0.0))
    q = wrap(TORUS, (1.9, 0.0, 0.0))
    assert distance(TORUS, p, q) == pytest.approx(0.2, abs=1e-12)


def test_distance_identity():
    p = wrap(CAT, (0.3, 0.7, 0.2))
    assert distance(CAT, p, p) == 0.0


def test_distance_torus_translates():
    p = wrap(CAT, (0.1, 0.1, 0.0))
    q = wrap(CAT, (0.9, 0.9, 0.0))
    assert distance(CAT, p, q) == pytest.approx(np.hypot(0.2, 0.2), abs=1e-12)


def test_distance_through_gluing_is_small():
    # points just on either side of the identified fiber
    v = np.array([0.3, 0.4])
    p = wrap(CAT, (v[0], v[1], 0.999))
    img = CAT_MATRIX @ v % 1.0
    q = wrap(CAT, (img[0], img[1], 0.001))
    assert distance(CAT, p, q) == pytest.approx(0.002, abs=1e-9)


def test_distance_symmetry_exact():
    rng = np.random.default_rng(11)
    for m in (TORUS, CAT):
        for _ in range(300):
            raw = rng.uniform(-0.5, 1.5, size=(2, 3))
            if m is TORUS:
                raw[:, 1:] *= 0.3
            p, q = m.wrap(raw[0]), m.wrap(raw[1])
            assert distance(m, p, q) == distance(m, q, p)


def test_triangle_inequality_sampled():
    """Triangle inequality where the chart metric is exact.

    Solid torus: translations only, any triple. Suspension: triples away
    from the identified fiber (crossing comparisons are quasi-metric, see
    the geometry module docstring).
    """
    rng = np.random.default_rng(13)
    raw = rng.uniform(-4, 4, size=(10_000, 3, 3))
    raw[:, :, 1:] *= 0.15
    pts = TORUS.wrap_array(raw)
    d01 = TORUS.distance_array(pts[:, 0], pts[:, 1])
    d12 = TORUS.distance_array(pts[:, 1], pts[:, 2])
    d02 = TORUS.distance_array(pts[:, 0], pts[:, 2])
    assert np.all(d02 <= d01 + d12 + 1e-9)
    raw = rng.uniform(0, 1, size=(10_000, 3, 3))
    raw[:, :, 2] = 0.3 + 0.4 * raw[:, :, 2]      # pairwise s-gaps < 1/2: no crossing
    raw[:, :, :2] *= 0.08                        # local transverse offsets
    pts = CAT.wrap_array(raw)
    d01 = CAT.distance_array(pts[:, 0], pts[:, 1])
    d12 = CAT.distance_array(pts[:, 1], pts[:, 2])
    d02 = CAT.distance_array(pts[:, 0], pts[:, 2])
    assert np.all(d02 <= d01 + d12 + 1e-9)


def test_normal_frame_canonical_torus():
    x = wrap(TORUS, (0.5, 0.0, 0.0))
    fr = normal_frame(TORUS, x, (1.0, 0.0, 0.0))
    assert np.allclose(fr.axes, [[0, 1, 0], [0, 0, 1]], atol=1e-12)


def test_normal_frame_canonical_cat():
    x = wrap(CAT, (0.2, 0.3, 0.4))
    fr = normal_frame(CAT, x, (0.0, 0.0, 1.0))
    assert np.allclose(fr.axes, [[1, 0, 0], [0, 1, 0]], atol=1e-12)


def test_normal_frame_orthonormal_random():
    rng = np.random.default_rng(3)
    x = wrap(CAT, (0.5, 0.5, 0.5))
    for _ in range(200):
        d = rng.normal(size=3)
        fr = normal_frame(CAT, x, d)
        dhat = d / np.linalg.norm(d)
        gram = fr.axes @ fr.axes.T
        assert np.allclose(gram, np.eye(2), atol=1e-10)
        assert np.max(np.abs(fr.axes @ dhat)) < 1e-10


def test_normal_frame_degenerate():
    x = wrap(TORUS, (0.5, 0.0, 0.0))
    with pytest.raises(DegenerateField):
        normal_frame(TORUS, x, (0.0, 0.0, 1e-13))


def test_exp_zero_is_base():
    x = wrap(TORUS, (0.5, 0.1, -0.2))
    fr = normal_frame(TORUS, x, (1.0, 0.0, 0.0))
    p = exp_map(TORUS, fr, (0.0, 0.0))
    assert np.allclose(p.coords, x.coords, atol=1e-15)


def test_exp_flat_translation():
    x = wrap(TORUS, (0.5, 0.0, 0.0))
    fr = normal_frame(TORUS, x, (1.0, 0.0, 0.0))
    p = exp_map(TORUS, fr, (0.3, 0.0))
    assert np.allclose(p.coords, (0.5, 0.3, 0.0), atol=1e-12)


def test_exp_local_isometry():
    rng = np.random.default_rng(5)
    x = wrap(CAT, (0.4, 0.6, 0.3))
    fr = normal_frame(CAT, x, (0.0, 0.0, 1.0))
    for _ in range(500):
        v = rng.uniform(-1, 1, size=2)
        v *= rng.uniform(0, 0.2) / max(np.linalg.norm(v), 1e-12)
        p = exp_map(CAT, fr, v)
        assert abs(distance(CAT, x, p) - np.linalg.norm(v)) <= 1e-9


def test_exp_propagates_out_of_manifold():
    x = wrap(TORUS, (0.5, 0.9, 0.0))
    fr = normal_frame(TORUS, x, (1.0, 0.0, 0.0))
    with pytest.raises(OutOfManifold):
        exp_map(TORUS, fr, (0.5, 0.0))
