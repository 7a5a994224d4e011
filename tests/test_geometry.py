"""Chart wrapping and deck-aware distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflowlab.errors import OutOfManifold
from rflowlab.flows import CAT_MATRIX, cat_suspension_manifold, solid_torus_manifold
from rflowlab.geometry import Gluing

TORUS = solid_torus_manifold()
CAT = cat_suspension_manifold()


def test_wrap_periodic_x():
    p = TORUS.wrap((2.5, 0.0, 0.0))
    assert p.coords[0] == pytest.approx(-1.5, abs=1e-12)


def test_wrap_interior_fixed_point():
    p = TORUS.wrap((0.3, 0.2, 0.1))
    assert np.allclose(p.coords, (0.3, 0.2, 0.1), atol=1e-15)


def test_wrap_applies_gluing_matrix():
    v = np.array([0.3, 0.4])
    p = CAT.wrap((v[0], v[1], 1.0))
    expect = CAT_MATRIX @ v % 1.0
    assert np.allclose(p.coords[:2], expect, atol=1e-12)
    assert p.coords[2] == pytest.approx(0.0, abs=1e-12)


def test_wrap_inverse_gluing_below():
    v = np.array([0.3, 0.4])
    p = CAT.wrap((v[0], v[1], -0.25))
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


@pytest.mark.parametrize("z", [-5.55e-17, -1e-17, -1.1e-16, 0.0, 1e-17])
def test_wrap_at_the_glued_fiber_lands_on_the_right_sheet(z):
    """z + 1 can round to the period itself for z just below the glued
    fiber; the point must still land next to its neighbours across the
    fiber, with its glued coordinate in [0, 1), and wrap to itself."""
    p = CAT.wrap_array(np.array([0.3, 0.2, z]))
    near = CAT.wrap_array(np.array([0.3, 0.2, 1e-9]))
    assert 0.0 <= p[2] < 1.0
    assert CAT.distance_array(p, near) == pytest.approx(1e-9, abs=1e-12)
    assert np.array_equal(CAT.wrap_array(p), p)


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
        TORUS.wrap((0.0, 0.9, 0.9))


def test_distance_wraparound():
    p = TORUS.wrap((-1.9, 0.0, 0.0))
    q = TORUS.wrap((1.9, 0.0, 0.0))
    assert TORUS.distance(p, q) == pytest.approx(0.2, abs=1e-12)


def test_distance_identity():
    p = CAT.wrap((0.3, 0.7, 0.2))
    assert CAT.distance(p, p) == 0.0


def test_distance_torus_translates():
    p = CAT.wrap((0.1, 0.1, 0.0))
    q = CAT.wrap((0.9, 0.9, 0.0))
    assert CAT.distance(p, q) == pytest.approx(np.hypot(0.2, 0.2), abs=1e-12)


def test_distance_through_gluing_is_small():
    # points just on either side of the identified fiber
    v = np.array([0.3, 0.4])
    p = CAT.wrap((v[0], v[1], 0.999))
    img = CAT_MATRIX @ v % 1.0
    q = CAT.wrap((img[0], img[1], 0.001))
    assert CAT.distance(p, q) == pytest.approx(0.002, abs=1e-9)


def test_distance_symmetry_exact():
    rng = np.random.default_rng(11)
    for m in (TORUS, CAT):
        for _ in range(300):
            raw = rng.uniform(-0.5, 1.5, size=(2, 3))
            if m is TORUS:
                raw[:, 1:] *= 0.3
            p, q = m.wrap(raw[0]), m.wrap(raw[1])
            assert m.distance(p, q) == m.distance(q, p)


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


# ------------------------------------------------ deck search: exact oracles

_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_STEP = st.floats(-0.14, 0.14)        # |w| < sqrt(3) * 0.14 < 1/4


def _cat_pair(data, crossing):
    """A canonical pair on the suspension's exactness domain.

    Either q = wrap(p + w) with |w| below a quarter period (crossing the
    glued fiber only when ``crossing``), or p and q on a common transverse
    fiber with any transverse offset.
    """
    p = np.array([data.draw(_UNIT) for _ in range(3)])
    if data.draw(st.booleans()):
        q = np.array([data.draw(_UNIT), data.draw(_UNIT), p[2]])
        return p, q
    w = np.array([data.draw(_STEP) for _ in range(3)])
    if not crossing:
        w[2] = np.clip(w[2], -p[2], 0.999 - p[2])
    return p, CAT.wrap_array(p + w)


def _brute_force_displacements(p, q):
    """Every deck candidate q_k - p with |k| <= 2, transverse axes reduced."""
    out = []
    for k in range(-2, 3):
        qk = np.array(q, dtype=float)
        qk[:2] = np.linalg.matrix_power(CAT_MATRIX, -k) @ q[:2]
        qk[2] += k
        d = qk - p
        d[:2] -= np.rint(d[:2])
        out.append(d)
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_displacement_is_a_minimal_deck_vector(data):
    p, q = _cat_pair(data, crossing=True)
    disp = CAT.displacement(p, q)
    cands = _brute_force_displacements(p, q)
    assert np.min(np.abs(cands - disp).max(axis=1)) <= 1e-12
    assert np.linalg.norm(disp) <= np.min(np.linalg.norm(cands, axis=1)) + 1e-12


def _norm(v):
    # the library's reduction (axis=-1); np.linalg.norm(v) sums in another order
    return np.linalg.norm(v, axis=-1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distance_is_the_displacement_norm_where_exact(data):
    p, q = _cat_pair(data, crossing=False)
    assert CAT.distance_array(p, q) == _norm(CAT.displacement(p, q))
    assert CAT.distance_array(q, p) == _norm(CAT.displacement(q, p))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distance_is_the_shorter_displacement_of_either_order(data):
    """Across the glued fiber the two orders differ by the gluing's stretch;
    the distance is the shorter of them, bit for bit."""
    p, q = _cat_pair(data, crossing=True)
    assert CAT.distance_array(p, q) == min(_norm(CAT.displacement(p, q)),
                                           _norm(CAT.displacement(q, p)))


# Exhaustive deck searches, every candidate computed for every pair: the
# reference oracles whose bits the pruned search must reproduce.

def _reference_wrap_delta(m, d, skip_axis=None):
    d = np.array(d, dtype=float)
    for ax, per in enumerate(m.periodic_axes):
        if per is None or ax == skip_axis:
            continue
        d[..., ax] -= per * np.round(d[..., ax] / per)
    return d


def _reference_deck_image(m, q, k):
    g = m.gluing
    mk = g.power(-k)
    i, j = g.target_axes
    out = np.array(q, dtype=float, copy=True)
    vi = out[..., i].copy()
    vj = out[..., j].copy()
    out[..., i] = mk[0, 0] * vi + mk[0, 1] * vj
    out[..., j] = mk[1, 0] * vi + mk[1, 1] * vj
    out[..., g.axis] += k * m.periodic_axes[g.axis]
    return out


def _reference_displacement(m, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if m.gluing is None:
        return _reference_wrap_delta(m, q - p)
    shape = np.broadcast(p, q).shape
    cands = []
    for k in (-1, 0, 1):
        qk = np.array(np.broadcast_to(q, shape), dtype=float)
        if k != 0:
            qk = _reference_deck_image(m, qk, k)
        cands.append(_reference_wrap_delta(m, qk - p, skip_axis=m.gluing.axis))
    stack = np.stack(cands)
    best = np.argmin(np.linalg.norm(stack, axis=-1), axis=0)
    return np.take_along_axis(stack, best[None, ..., None], axis=0)[0]


def _reference_distance(m, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if m.gluing is None:
        return np.linalg.norm(_reference_wrap_delta(m, q - p), axis=-1)
    ax = m.gluing.axis
    best = np.linalg.norm(_reference_wrap_delta(m, q - p, skip_axis=ax), axis=-1)
    for k in (-1, 1):
        for d in (_reference_deck_image(m, q, k) - p,
                  q - _reference_deck_image(m, p, k)):
            best = np.minimum(best, np.linalg.norm(
                _reference_wrap_delta(m, d, skip_axis=ax), axis=-1))
    return best


def _edge_points(rng, n):
    """Canonical points mixed with points on, and within 1e-9 of, the glued
    fiber and the periodic edges (both sides)."""
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    edges = np.array([0.0, 1e-9, 3e-10, -1e-9, 1.0, 1.0 - 1e-9,
                      np.nextafter(1.0, 0.0), 1.0 + 1e-9, 0.5])
    for ax in range(3):
        hit = rng.uniform(size=n) < 0.3
        pts[hit, ax] = rng.choice(edges, size=int(hit.sum()))
    return pts


def _tie_pairs():
    """Pairs whose in-sheet and glued candidates tie exactly or nearly.

    (0, 0) is fixed by the cat map, so an s-gap of exactly 1/2 ties the
    in-sheet candidate with a glued one; (0.25, 0.25) against (0.5, 0)
    ties with nonzero transverse parts. The map sends (0.5, 0) to a
    translate of (0, 0.5), so from (0, 0.5) with an s-gap near 1/4 both
    candidates have norm near 3/4. Sweeping the start level and the gap's
    last bits gives near-ties decided by rounding, where the estimate
    |ds -+ per| and a candidate's own glued component differ.
    """
    p = [(0.0, 0.0, 0.25), (0.0, 0.0, 0.75), (0.25, 0.25, 0.25),
         (0.25, 0.25, 0.75), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]
    q = [(0.0, 0.0, 0.75), (0.0, 0.0, 0.25), (0.5, 0.0, 0.75),
         (0.5, 0.0, 0.25), (0.0, 0.0, 0.5), (0.5, 0.5, 0.0)]
    s = np.linspace(0.0, 0.75, 1201)
    for start, gap, lift in (((0.0, 0.0), 0.5, 2.0 ** -53),
                             ((0.0, 0.5), 0.25, 2.0 ** -54)):
        end = (0.0, 0.0) if start == (0.0, 0.0) else (0.5, 0.0)
        for j in range(-3, 4):
            p += [(*start, a) for a in s]
            q += [(*end, a + gap + j * lift) for a in s]
    return np.array(p), np.array(q)


def _bits(a):
    a = np.asarray(a)
    return a.shape, np.ascontiguousarray(a).view(np.uint64).tobytes()


def _same(got, want):
    return type(got) is type(want) and _bits(got) == _bits(want)


@pytest.mark.parametrize("m", [CAT, TORUS], ids=["cat", "torus"])
def test_deck_search_matches_the_unpruned_reference_bit_for_bit(m):
    rng = np.random.default_rng(21)
    pts = _edge_points(rng, 2400)
    if m is TORUS:
        pts[:, 0] = 4.0 * pts[:, 0] - 2.0
        pts[:, 1:] = 0.6 * pts[:, 1:] - 0.3
    tp, tq = _tie_pairs()
    cases = [(pts[i], pts[i + 1]) for i in range(0, 400, 2)]
    cases += [(tp[i], tq[i]) for i in range(0, len(tp), 97)]
    cases += [(pts[:600], pts[600:1200]), (tp, tq),
              (pts[0], pts[1200:1300]),
              (pts[1300:1900].reshape(20, 30, 3), pts[1900:1930]),
              (pts[1930:1940, None], pts[1940:1970][None])]
    for p, q in cases:
        for a, b in ((p, q), (q, p)):
            assert _same(m.displacement(a, b), _reference_displacement(m, a, b))
            assert _same(m.distance_array(a, b), _reference_distance(m, a, b))
