"""Shapes, norms, faces, and triangular sets.

Derived expectations are computed by independent oracles before being
asserted: polygon norms against a ray-boundary-intersection oracle built on
brute-force vertex enumeration, faces against the same vertex list.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from larg_lab.anchoring import good_enumeration
from larg_lab.exact import BoundaryAmbiguityError, SqrtExt
from larg_lab.geometry import (
    GeometryError,
    Line,
    LpShape,
    PolygonShape,
    Vec2,
    diamond_l1,
    distance,
    is_triangular_set,
    rational_hexagon,
    regular_hexagon,
    shape_from_json,
    shape_to_json,
    square_linf,
    truncated_distance,
)
from larg_lab.larg import in_range_pairs, sample_larg
from larg_lab.pointsets import PointSet, Window
from larg_lab.stepiso import PointMap, is_isometry, is_step_isometry

F = Fraction

# ---------------------------------------------------------------------------
# oracle: polygon boundary via brute-force vertex enumeration + ray crossing


def oracle_vertices(generators):
    """All feasible pairwise intersections of the signed face lines."""
    signed = []
    for gx, gy in generators:
        signed.append((float(gx), float(gy)))
        signed.append((-float(gx), -float(gy)))
    pts = []
    for (ax, ay), (bx, by) in itertools.combinations(signed, 2):
        den = ax * by - ay * bx
        if abs(den) < 1e-12:
            continue
        x = (by - ay) / den
        y = (ax - bx) / den
        if all(px * x + py * y <= 1 + 1e-9 for px, py in signed):
            pts.append((x, y))
    # dedupe and walk counterclockwise
    uniq = []
    for p in pts:
        if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < 1e-9 for q in uniq):
            uniq.append(p)
    uniq.sort(key=lambda p: math.atan2(p[1], p[0]))
    return uniq


def oracle_polygon_norm(generators, x):
    """||x|| = ||x||_2 / ||b||_2 with b the boundary point on the ray 0 -> x."""
    xf = (float(x[0]), float(x[1]))
    if xf == (0.0, 0.0):
        return 0.0
    verts = oracle_vertices(generators)
    k = len(verts)
    for i in range(k):
        v1, v2 = verts[i], verts[(i + 1) % k]
        # solve t*x = v1 + s*(v2-v1), t >= 0, s in [0,1]
        ex, ey = v2[0] - v1[0], v2[1] - v1[1]
        den = xf[0] * (-ey) - xf[1] * (-ex)
        if abs(den) < 1e-15:
            continue
        t = (v1[0] * (-ey) + v1[1] * ex) / den
        s = (xf[0] * v1[1] - xf[1] * v1[0]) / den
        if t > 0 and -1e-9 <= s <= 1 + 1e-9:
            b = (t * xf[0], t * xf[1])
            return math.hypot(*xf) / math.hypot(*b)
    raise AssertionError("ray did not cross the boundary")


# ---------------------------------------------------------------------------
# Vec2 / Line basics


def test_vec2_arithmetic_is_generic():
    a = Vec2(Fraction(1, 2), Fraction(-3, 4))
    b = Vec2(Fraction(1, 3), Fraction(1, 4))
    assert (a + b).x == Fraction(5, 6)
    assert (a - b).y == -1
    assert a.dot(b) == Fraction(1, 6) - Fraction(3, 16)
    assert (2 * a).x == 1
    assert a.is_exact() and not Vec2(0.5, 0.25).is_exact()


def test_vec2_rejects_non_finite():
    with pytest.raises(GeometryError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(GeometryError):
        Vec2(float("inf"), 0.0)


def test_line_validation_and_sides():
    with pytest.raises(GeometryError):
        Line(Vec2(0, 0), 1)
    ell = Line(Vec2(1, 0), Fraction(1, 2))
    assert ell.side_of(Vec2(0, 7)) == -1
    assert ell.side_of(Vec2(Fraction(1, 2), -2)) == 0
    assert ell.side_of(Vec2(1, 0)) == 1


# ---------------------------------------------------------------------------
# polygon norms


def test_linf_norm_example():
    assert square_linf().norm(Vec2(3, -2)) == 3


def test_l1_norm_example_matches_ray_oracle():
    expected = oracle_polygon_norm([(1, 1), (1, -1)], (3, -2))
    assert abs(expected - 5.0) < 1e-12
    assert diamond_l1().norm(Vec2(3, -2)) == 5


def test_polygon_norm_equals_ray_oracle_randomized():
    rng = np.random.default_rng(20260814)
    shapes = [
        [(1, 0), (0, 1)],
        [(1, 1), (1, -1)],
        [(1, 0), (0, 1), (1, 1)],
        [(1, 0), (1, 2), (-1, 3)],
    ]
    checked = 0
    for gens in shapes:
        shape = PolygonShape([Vec2(float(a), float(b)) for a, b in gens])
        for _ in range(2600):
            x = rng.uniform(-10, 10, size=2)
            if abs(x[0]) + abs(x[1]) < 1e-6:
                continue
            got = shape.norm(Vec2(float(x[0]), float(x[1])))
            want = oracle_polygon_norm(gens, x)
            assert abs(got - want) <= 1e-9 * max(1.0, want)
            checked += 1
    assert checked >= 10_000


def test_norm_axioms_randomized():
    rng = np.random.default_rng(7)
    shapes = [
        square_linf(),
        diamond_l1(),
        rational_hexagon(),
        regular_hexagon(),
        LpShape(2),
        LpShape(3.5),
    ]
    for _ in range(1700):
        sh = shapes[rng.integers(len(shapes))]
        x = Vec2(*(float(v) for v in rng.uniform(-5, 5, 2)))
        y = Vec2(*(float(v) for v in rng.uniform(-5, 5, 2)))
        lam = float(rng.uniform(-3, 3))
        nx, ny = sh.norm(x), sh.norm(y)
        assert nx >= 0
        assert abs(sh.norm(lam * x) - abs(lam) * nx) <= 1e-9 * (1 + abs(lam) * nx)
        assert sh.norm(x + y) <= nx + ny + 1e-9
        assert sh.norm(-x) == pytest.approx(nx, abs=1e-12)  # point symmetry
    assert square_linf().norm(Vec2(0, 0)) == 0


def test_exact_mode_norm_is_exact():
    sh = rational_hexagon()
    x = Vec2(Fraction(3, 7), Fraction(-2, 5))
    n = sh.norm(x)
    assert isinstance(n, Fraction)
    assert n == max(Fraction(3, 7), Fraction(2, 5), abs(Fraction(3, 7) - Fraction(2, 5)))


def test_sandwich_bound_against_euclidean():
    rng = np.random.default_rng(99)
    for sh in (square_linf(), diamond_l1(), regular_hexagon()):
        verts = [v.to_floats() for v in sh.vertices()]
        radii = [math.hypot(*v) for v in verts]
        r_max, r_min = max(radii), min(radii)
        # faces can come closer to the origin than any vertex
        for g in sh.generators:
            r_min = min(r_min, 1.0 / math.hypot(*g.to_floats()))
        for _ in range(500):
            x = rng.uniform(-4, 4, 2)
            e = math.hypot(*x)
            n = sh.norm(Vec2(float(x[0]), float(x[1])))
            assert e / r_max - 1e-9 <= n <= e / r_min + 1e-9


# ---------------------------------------------------------------------------
# shape validation


def test_polygon_shape_validation():
    with pytest.raises(GeometryError):
        PolygonShape([Vec2(1, 0)])
    with pytest.raises(GeometryError):
        PolygonShape([Vec2(1, 0), Vec2(-2, 0)])  # parallel pair
    with pytest.raises(GeometryError):
        PolygonShape([Vec2(1, 0), Vec2(0, 0)])
    # misscaled (redundant) generator is rejected when the boundary is built
    bad = PolygonShape([Vec2(1, 0), Vec2(0, 1), Vec2(Fraction(1, 4), Fraction(1, 4))])
    with pytest.raises(GeometryError):
        bad.vertices()


def test_redundant_generator_rejected():
    # a face line that only touches a corner of the shape repeats that vertex
    for diag in ((F(1, 2), F(1, 2)), (0.5, 0.5)):
        square4 = PolygonShape([Vec2(1, 0), Vec2(0, 1), Vec2(*diag), Vec2(diag[0], -diag[1])])
        with pytest.raises(GeometryError, match="redundant generator"):
            square4.vertices()
    assert len(PolygonShape([Vec2(1, 0), Vec2(0, 1), Vec2(F(2, 3), F(2, 3))]).vertices()) == 6


def test_sqrt_points_refused_under_float_generators():
    # every pair here is decided by the float filters alone (no distance is
    # near 1 or an integer), so only the up-front check can refuse them
    hexa = regular_hexagon()
    pts = (Vec2(SqrtExt(0, 1, 2), 0), Vec2(SqrtExt(5, 3, 2), F(1, 3)), Vec2(F(1, 2), SqrtExt(9, 1, 2)))
    ps = PointSet(pts, Window(F(-20), F(-20), F(20), F(20)), 0, mode="rational")
    calls = {
        "distance": lambda: distance(hexa, pts[0], pts[1]),
        "in_range_pairs": lambda: in_range_pairs(ps, hexa, 1),
        "sample_larg": lambda: sample_larg(ps, hexa, 1, 0.5, edge_seed=1),
        "good_enumeration": lambda: good_enumeration(ps, hexa),
        "is_step_isometry": lambda: is_step_isometry(PointMap(ps, pts), hexa),
        "is_isometry": lambda: is_isometry(PointMap(ps, pts), hexa),
    }
    for name, call in calls.items():
        with pytest.raises(GeometryError, match="SqrtExt"):
            call()
    # exact generators take the same points
    rhex = rational_hexagon()
    assert distance(rhex, pts[0], pts[1]) == max(abs(a.dot(pts[0] - pts[1])) for a in rhex.generators)
    assert is_step_isometry(PointMap(ps, pts), rational_hexagon()).ok


def test_lp_shape_validation():
    for p in (1, 0.5, float("inf")):
        with pytest.raises(GeometryError):
            LpShape(p)


def test_is_box():
    assert square_linf().is_box()
    assert not rational_hexagon().is_box()
    assert not LpShape(2).is_box()


# ---------------------------------------------------------------------------
# truncated distance


def test_truncated_distance_examples():
    assert truncated_distance(square_linf(), Vec2(0.2, 0.0), Vec2(1.7, 0.0)) == 1
    # integer coordinates are exact, so an exactly-integer distance is fine
    assert truncated_distance(square_linf(), Vec2(0, 0), Vec2(2, 0)) == 2
    # floor(sqrt(2)) = 1: the oracle bound 1^2 <= 2 < 2^2 pins the floor
    assert 1 * 1 <= 2 < 2 * 2
    assert truncated_distance(LpShape(2), Vec2(0.0, 0.0), Vec2(1.0, 1.0)) == 1


def test_truncated_distance_boundary_refusal_in_float_mode():
    with pytest.raises(BoundaryAmbiguityError):
        truncated_distance(square_linf(), Vec2(0.0, 0.0), Vec2(2.0 + 1e-12, 0.0))


def test_truncated_distance_exact_mode():
    sh = rational_hexagon()
    a = Vec2(Fraction(0), Fraction(0))
    b = Vec2(Fraction(9, 10), Fraction(9, 10))
    assert distance(sh, a, b) == Fraction(9, 5)
    assert truncated_distance(sh, a, b) == 1


# ---------------------------------------------------------------------------
# L^p norm


def lp_touch_normal(p, th):
    """Boundary point b of the L^p circle at parameter th and the outer
    normal a scaled so a.b = 1."""
    c, s = math.cos(th), math.sin(th)
    bx, by = (math.copysign(abs(t) ** (2.0 / p), t) for t in (c, s))
    ax, ay = (math.copysign(abs(t) ** (p - 1.0), t) for t in (bx, by))
    return Vec2(bx, by), Vec2(ax, ay)


def test_smooth_generators_touch_scaling():
    for p in (1.5, 2.0, 4.0):
        sh = LpShape(p)
        for k in range(16):
            b, a = lp_touch_normal(p, math.pi * k / 16)
            assert sh.norm(b) == pytest.approx(1.0, abs=1e-12)
            assert a.dot(b) == pytest.approx(1.0, abs=1e-12)


def test_smooth_generators_p2_count4_example():
    sh = LpShape(2)
    assert sh.norm(Vec2(1.0, 0.0)) == 1.0
    assert sh.norm(Vec2(3.0, -4.0)) == pytest.approx(5.0, abs=1e-12)


def test_smooth_generators_p4_count64_example():
    sh = LpShape(4)
    assert sh.norm(Vec2(1.0, 1.0)) == pytest.approx(2.0 ** 0.25, abs=1e-12)


def test_smooth_approximation_monotone_and_below():
    # ||x||_p is nonincreasing in p
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = Vec2(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        prev = math.inf
        for p in (1.5, 2.0, 3.0, 8.0):
            val = LpShape(p).norm(x)
            assert val <= prev + 1e-12
            prev = val


def test_smooth_generators_validation():
    with pytest.raises(GeometryError):
        LpShape(1.0)
    with pytest.raises(GeometryError):
        LpShape(math.inf)


# ---------------------------------------------------------------------------
# faces


def face_vertices(shape, a):
    """Vertices on the face line a.x = 1, as float pairs."""
    return sorted(v.to_floats() for v in shape.vertices() if a.dot(v) == 1)


def test_face_of_diamond_matches_vertex_oracle():
    verts = oracle_vertices([(1, 1), (1, -1)])
    assert len(verts) == 4
    got = face_vertices(diamond_l1(), Vec2(1, 1))
    assert got == [(0.0, 1.0), (1.0, 0.0)]
    # both endpoints appear in the oracle's vertex list
    for pt in got:
        assert any(abs(pt[0] - v[0]) + abs(pt[1] - v[1]) < 1e-9 for v in verts)


def test_face_of_accepts_negation_and_rejects_strangers():
    assert face_vertices(diamond_l1(), Vec2(-1, -1)) == [(-1.0, 0.0), (0.0, -1.0)]
    # right direction, wrong scale: the line 2x + 2y = 1 misses every vertex
    assert face_vertices(diamond_l1(), Vec2(2, 2)) == []


def test_hexagon_faces_cover_boundary():
    sh = rational_hexagon()
    assert len(sh.vertices()) == 6
    for g in sh.generators:
        for a in (g, -g):
            assert len(face_vertices(sh, a)) == 2


# ---------------------------------------------------------------------------
# triangular sets


def test_triangular_examples():
    x, y, z = Vec2(0, 0), Vec2(2, 0), Vec2(1, 1)
    # sup metric: distances 2, 1, 1 fail the strict inequality
    assert is_triangular_set(square_linf(), x, y, z) is False
    # euclidean: 2, sqrt2, sqrt2 pass
    assert is_triangular_set(LpShape(2), x, y, z) is True


def test_triangular_collinear_and_duplicates():
    assert (
        is_triangular_set(square_linf(), Vec2(0, 0), Vec2(1, 0), Vec2(3, 0)) is False
    )
    with pytest.raises(GeometryError):
        is_triangular_set(square_linf(), Vec2(0, 0), Vec2(0, 0), Vec2(1, 0))


def test_triangular_invariance_exact():
    # translation invariance is exact in rational mode; polygon metrics have
    # thick triangle-equality regions, so float translation can flip the
    # strict comparison there and only the exact mode can assert equality
    rng = np.random.default_rng(5)
    sh = rational_hexagon()
    for _ in range(200):
        raw = rng.integers(-3000, 3000, (4, 2))
        pts = [Vec2(Fraction(int(a), 1000), Fraction(int(b), 1000)) for a, b in raw[:3]]
        if pts[0] == pts[1] or pts[1] == pts[2] or pts[0] == pts[2]:
            continue
        t = Vec2(Fraction(int(raw[3][0]), 500), Fraction(int(raw[3][1]), 500))
        base = is_triangular_set(sh, *pts)
        assert is_triangular_set(sh, *(p + t for p in pts)) == base
        for perm in itertools.permutations(pts):
            assert is_triangular_set(sh, *perm) == base


def test_triangular_invariance_float_away_from_ties():
    rng = np.random.default_rng(6)
    sh = regular_hexagon()
    kept = 0
    while kept < 150:
        pts = [Vec2(float(a), float(b)) for a, b in rng.uniform(-3, 3, (3, 2))]
        d = sorted(
            [
                distance(sh, pts[0], pts[1]),
                distance(sh, pts[1], pts[2]),
                distance(sh, pts[0], pts[2]),
            ]
        )
        if abs(d[0] + d[1] - d[2]) < 1e-6:
            continue  # borderline: strictness is not float-stable there
        t = Vec2(float(rng.uniform(-9, 9)), float(rng.uniform(-9, 9)))
        base = is_triangular_set(sh, *pts)
        assert is_triangular_set(sh, *(p + t for p in pts)) == base
        kept += 1


# ---------------------------------------------------------------------------
# line helpers


def test_parallel_line_distance_generator_scale():
    # x = 1/2 and -4x = -10 (x = 5/2): feet on the x-axis are 2 apart
    sh = square_linf()
    assert distance(sh, Vec2(Fraction(1, 2), 0), Vec2(Fraction(5, 2), 0)) == 2


def test_parallel_line_distance_non_generator_normal():
    # diagonal lines under the sup metric: the unit square reaches x + y = 2,
    # so x + y = 0 and x + y = 4 are 4 / 2 apart; (0,0) and (2,2) realise it
    sh = square_linf()
    assert distance(sh, Vec2(0, 0), Vec2(2, 2)) == 2


def test_integer_parallel():
    # the parallel at metric distance z moves the offset by z times the
    # shape's reach along the normal, 1 for a generator of the diamond
    sh = diamond_l1()
    ell = Line(Vec2(1, 1), Fraction(1, 3))
    up = Line(ell.normal, ell.offset + 2)
    assert up.offset == Fraction(7, 3)
    assert up.side_of(Vec2(Fraction(7, 6), Fraction(7, 6))) == 0
    assert distance(sh, Vec2(Fraction(1, 6), Fraction(1, 6)), Vec2(Fraction(7, 6), Fraction(7, 6))) == 2


# ---------------------------------------------------------------------------
# serialization


def test_shape_json_round_trip_polygonal():
    sh = rational_hexagon()
    text = shape_to_json(sh)
    back = shape_from_json(text)
    assert isinstance(back, PolygonShape)
    assert back.generators == sh.generators
    assert all(g.is_exact() for g in back.generators)


def test_shape_json_round_trip_float_and_lp():
    sh = regular_hexagon()
    back = shape_from_json(shape_to_json(sh))
    for g, h in zip(sh.generators, back.generators):
        assert g.to_floats() == h.to_floats()
    lp = shape_from_json(shape_to_json(LpShape(2.5)))
    assert isinstance(lp, LpShape) and lp.p == 2.5


def test_shape_json_reads_older_lp_files():
    # older files carry a generator budget that no longer exists
    lp = shape_from_json('{"kind": "lp", "p": 3.0, "generator_budget": 32}')
    assert isinstance(lp, LpShape) and lp.p == 3.0


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "polygonal", "generators": [["1/0", "0/1"], ["0/1", "1/1"]]}',
        '{"kind": "polygonal", "generators": [["abc", "0/1"], ["0/1", "1/1"]]}',
        '{"kind": "lp", "p": "abc"}',
    ],
)
def test_shape_json_refuses_a_malformed_scalar(text):
    with pytest.raises(GeometryError, match="^malformed shape JSON: "):
        shape_from_json(text)


def test_shape_json_rejects_unknown_kind():
    with pytest.raises(GeometryError):
        shape_from_json('{"kind": "weird"}')

