"""Fractional-part maps, step-isometry verdicts, line respect, graph pairs."""

import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from larg_lab import larg, stepiso
from larg_lab.exact import FLOAT, BoundaryAmbiguityError, SqrtExt, exact_div, field_of
from larg_lab.geometry import (
    Line,
    LpShape,
    PolygonShape,
    Vec2,
    box_shape,
    diamond_l1,
    distance,
    rational_hexagon,
    regular_hexagon,
    square_linf,
)
from larg_lab.experiments import ExperimentError, back_and_forth_isomorphism
from larg_lab.larg import GeoGraph, sample_larg
from larg_lab.pointsets import (
    PointSet,
    Window,
    rescale_to_idf,
    sample_poisson_window,
)
from larg_lab.stepiso import (
    Interleaving1D,
    PointMap,
    StepIsoError,
    apply_fractional_map,
    box_product_point_map,
    canonical_interleaving,
    explicit_1d_point_map,
    is_isometry,
    is_step_isometry,
    pointmap_to_json,
    respects_line,
)

F = Fraction


def identity_map(ps):
    return PointMap(ps, ps.points)


def box_image(shape, g1, g2, v):
    """The image of one point under the box product map."""
    return box_product_point_map(PointSet((v,), Window(0, 0, 1, 1), 0), shape, g1, g2).images[0]


# ---------------------------------------------------------------------------
# oracles


def oracle_distance(shape, x: Vec2, y: Vec2):
    """Independent distance: max |a.(x - y)| over the generators, exact for
    exact data, or the L^p sum of |dx|^p and |dy|^p in float."""
    if isinstance(shape, LpShape):
        dx, dy = abs(float(x.x - y.x)), abs(float(x.y - y.y))
        return (dx**shape.p + dy**shape.p) ** (1.0 / shape.p)
    return max(abs(a.dot(x - y)) for a in shape.generators)


def oracle_floor_distance(shape, x: Vec2, y: Vec2) -> int:
    """Independent truncation; floats within 1e-9 of an integer are refused."""
    d = oracle_distance(shape, x, y)
    if isinstance(d, float) and abs(d - round(d)) < 1e-9:
        raise BoundaryAmbiguityError(f"{d!r} is too close to an integer")
    return math.floor(d)


def oracle_scan(pts, ims, value, fails):
    """Brute-force scan of pairs i < j in lexicographic order: the first pair
    whose values fail, as (pair, left, right, 1-based position), or None.
    A refused value raises BoundaryAmbiguityError naming its pair."""
    pos = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            pos += 1
            try:
                left, right = value(pts[i], pts[j]), value(ims[i], ims[j])
            except BoundaryAmbiguityError:
                raise BoundaryAmbiguityError(f"pair ({i}, {j})") from None
            if fails(left, right):
                return (i, j), left, right, pos
    return None


def oracle_step_iso(shape, pts, ims):
    """First pair whose truncated distance changes (see oracle_scan)."""
    return oracle_scan(
        pts, ims, lambda x, y: oracle_floor_distance(shape, x, y), lambda a, b: a != b
    )


def oracle_isometry(shape, pts, ims, tol):
    """First pair whose distances differ by more than tol (see oracle_scan)."""
    return oracle_scan(
        pts, ims, lambda x, y: oracle_distance(shape, x, y), lambda d, e: abs(d - e) > tol
    )


def line_set(values, mode="rational") -> PointSet:
    pts = tuple(Vec2(v, F(0) if mode == "rational" else 0.0) for v in values)
    w = (
        Window(F(-100), F(-1), F(100), F(1))
        if mode == "rational"
        else Window(-100.0, -1.0, 100.0, 1.0)
    )
    return PointSet(pts, w, seed=0, mode=mode)


def idf_line_values(rng, n, span=20):
    """Random rationals with pairwise non-integer differences."""
    fracs = rng.choice(np.arange(1, 1 << 20), size=n, replace=False)
    zs = rng.integers(-span, span, size=n)
    return [int(z) + F(int(k), 1 << 20) for z, k in zip(zs, fracs)]


# ---------------------------------------------------------------------------
# Interleaving1D


def test_interleaving_validation():
    with pytest.raises(StepIsoError):
        Interleaving1D(())
    with pytest.raises(StepIsoError):
        Interleaving1D(((F(1, 4), F(1, 4)),))  # must start at (0, 0)
    with pytest.raises(StepIsoError):
        Interleaving1D(((0, 0), (F(1, 2), F(0))))  # u not increasing
    with pytest.raises(StepIsoError):
        Interleaving1D(((0, 0), (F(3, 2), F(1, 2))))  # t outside [0, 1)
    g = Interleaving1D.two_piece(F(1, 2), F(1, 3))
    with pytest.raises(StepIsoError):
        g(F(3, 2))


def test_interleaving_field_refusals():
    # knots, and a knot and an argument, must share a field; each case
    # ended in a bare TypeError from a comparison
    r2, r3 = SqrtExt(-1, 1, 2), SqrtExt(-1, 1, 3)
    for knots in (((0, 0), (r2 / 2, F(1, 4)), (r3, F(1, 2))), ((0, 0), (0.25, F(1, 4)), (r2, F(1, 2)))):
        with pytest.raises(StepIsoError, match="no common field"):
            Interleaving1D(knots)
    g = Interleaving1D(((0, 0), (r2, F(1, 4))))
    assert g.field == 2 and canonical_interleaving().field == 0
    assert Interleaving1D.two_piece(0.5, 0.25).field == FLOAT
    assert g(F(1, 2)) == F(1, 4) + (F(1, 2) - r2) * exact_div(F(3, 4), 1 - r2)
    for call in (lambda: g(0.3), lambda: apply_fractional_map(g, 2.3)):
        with pytest.raises(StepIsoError, match="^a float and a SqrtExt have no common field$"):
            call()
    with pytest.raises(StepIsoError, match="^radicands \\[2, 3\\] have no common field$"):
        g(SqrtExt(0, F(1, 9), 3))


def test_interleaving_identity_and_pieces():
    ident = Interleaving1D.identity()
    assert ident(F(3, 7)) == F(3, 7)
    g = canonical_interleaving()
    assert g(F(0)) == 0
    assert g(F(1, 4)) == F(1, 6)
    assert g(F(1, 2)) == F(1, 3)
    assert g(F(3, 4)) == F(2, 3)
    # monotone across the knot
    assert g(F(49, 100)) < g(F(1, 2)) < g(F(51, 100))


def test_explicit_map_values():
    g = canonical_interleaving()
    assert [apply_fractional_map(g, x) for x in (F(1, 4), F(3, 4), F(3))] == [F(1, 6), F(2, 3), 3]
    assert apply_fractional_map(g, 0.25) == pytest.approx(1 / 6)
    # the explicit map is the lift on a sweep, integer parts preserved
    xs = [F(k, 5) for k in range(-12, 12)]
    for x, w in zip(xs, explicit_1d_point_map(line_set(xs)).images):
        assert w == Vec2(apply_fractional_map(g, x), 0)
        assert math.floor(w.x) == math.floor(x)


@pytest.mark.parametrize("scale", [1, 10, 10**3, 10**6])
def test_explicit_map_float_images_are_the_lift(scale):
    # float lines and a float set: x goes to the scalar lift of the
    # canonical interleaving bit for bit, and y keeps its bits, signed
    # zeros and tiny negatives included
    rng = np.random.default_rng(scale)
    g = canonical_interleaving()
    special = [0.0, 0.5, 1.5, -0.5, float(F(1, 3)), -2.75, math.nextafter(0.5, 1), scale]
    xs = np.unique(np.concatenate((special, rng.integers(-10**9, 10**9, 2000) / 10**9 * scale)))
    ys = rng.integers(-10**9, 10**9, len(xs)) / 10**9 * scale
    ys[: len(xs) // 2] = 0.0
    ys[:3] = -0.0, -1e-20, -0.3
    w = Window(-float(scale), -float(scale), float(scale), float(scale))
    for ps in (line_set(xs.tolist(), mode="float"), PointSet(tuple(map(Vec2, xs.tolist(), ys.tolist())), w, 0)):
        got = explicit_1d_point_map(ps).images.as_array()
        want = np.array([(apply_fractional_map(g, p.x), p.y) for p in ps.points])
        assert got.tobytes() == want.tobytes()
        assert got[:, 1].tobytes() == ps.as_array()[:, 1].tobytes()


def test_fractional_order_preserved():
    # strict fractional order must survive the map; 10^4 random pairs
    rng = np.random.default_rng(7)
    maps = [canonical_interleaving(), Interleaving1D.two_piece(F(1, 5), F(4, 5))]
    xs = idf_line_values(rng, 200)
    count = 0
    for g in maps:
        ys = [apply_fractional_map(g, x) for x in xs]
        for i in range(len(xs)):
            for j in range(len(xs)):
                if i == j:
                    continue
                fx, fy = xs[i] % 1, xs[j] % 1
                gx, gy = ys[i] % 1, ys[j] % 1
                assert (fx < fy) == (gx < gy)
                count += 1
    assert count >= 10_000


# ---------------------------------------------------------------------------
# box product maps


def test_box_product_componentwise():
    sh = square_linf()
    g = canonical_interleaving()
    v = Vec2(F(1, 4), F(3, 4))
    w = box_image(sh, g, g, v)
    assert (w.x, w.y) == (F(1, 6), F(2, 3))
    # oracle: the axes are the dual coordinates of the L-inf square
    assert w.x == apply_fractional_map(g, v.x)
    assert w.y == apply_fractional_map(g, v.y)


def test_box_product_identity_and_lattice():
    sh = diamond_l1()
    ident = Interleaving1D.identity()
    for v in (Vec2(F(1, 3), F(2, 7)), Vec2(F(-5, 2), F(9, 4))):
        assert box_image(sh, ident, ident, v) == v
    g = canonical_interleaving()
    for v in (Vec2(0, 0), Vec2(3, -2)):
        # both dual coordinates are integers, so nothing moves
        assert box_image(sh, g, g, v) == Vec2(F(v.x), F(v.y))


def test_box_product_rejects_non_box():
    with pytest.raises(StepIsoError):
        box_image(rational_hexagon(), None, None, Vec2(0, 0))
    with pytest.raises(StepIsoError):
        box_image(LpShape(2), None, None, Vec2(0, 0))


def test_box_product_slanted_shape_round_trip():
    # dual coordinates of the image must be the mapped dual coordinates
    sh = box_shape(Vec2(F(1), F(1)), Vec2(F(1), F(-1)))
    g1 = canonical_interleaving()
    g2 = Interleaving1D.two_piece(F(1, 3), F(1, 7))
    a1, a2 = sh.generators
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = Vec2(F(int(rng.integers(-40, 40)), 16), F(int(rng.integers(-40, 40)), 16))
        w = box_image(sh, g1, g2, v)
        assert a1.dot(w) == apply_fractional_map(g1, a1.dot(v))
        assert a2.dot(w) == apply_fractional_map(g2, a2.dot(v))


def reference_box_product_map(shape, g1, g2, v):
    """The per-point formula the lanes replace: both dual coordinates through
    apply_fractional_map, then the 2 x 2 solve, in scalar arithmetic."""
    a1, a2 = shape.generators
    w1 = apply_fractional_map(g1, a1.dot(v))
    w2 = apply_fractional_map(g2, a2.dot(v))
    den = a1.cross(a2)
    return Vec2(exact_div(w1 * a2.y - w2 * a1.y, den), exact_div(a1.x * w2 - a2.x * w1, den))


def outcome(fn):
    """("ok", value) or ("raised", exception type, message)."""
    try:
        return ("ok", fn())
    except Exception as err:  # the refusal itself is compared
        return ("raised", type(err), str(err))


def assert_same_images(got, want):
    """Equal outcomes: the same error, or images equal in value and type,
    floats bit for bit (sign of zero included), SqrtExt over the same d."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
        return
    assert len(got[1]) == len(want[1])
    for w, r in zip(got[1], want[1]):
        for c, e in ((w.x, r.x), (w.y, r.y)):
            assert type(c) is type(e), (w, r)
            if isinstance(e, float):
                assert c.hex() == e.hex(), (w, r)
            else:
                assert c == e, (w, r)
            if isinstance(e, SqrtExt):
                assert c.d == e.d


# integer boxes, then generators over the denominators 15 and 2, and a
# generator over Q(sqrt 2)
BOXES = (
    box_shape(Vec2(1, 0), Vec2(0, 1)),
    box_shape(Vec2(1, 1), Vec2(1, -1)),
    box_shape(Vec2(1, 0), Vec2(1, 2)),
    box_shape(Vec2(F(1, 3), F(2, 5)), Vec2(F(-1, 2), 1)),
    box_shape(Vec2(1, 0), Vec2(SqrtExt(0, 1, 2), 1)),
)
KNOT_POOL = (F(1, 10), F(2, 7), F(1, 3), F(1, 2), F(5, 8))
# knots over Q(sqrt 2) cut the rational dual coordinates of a rational map too
SQRT2_KNOT_POOL = KNOT_POOL + (SqrtExt(-1, 1, 2),)


@st.composite
def interleavings(draw, pool=KNOT_POOL):
    """Maps with 1-3 knots taken from pool; KNOT_POOL has 1/3 and 2/7."""
    k = draw(st.integers(1, 3))
    pick = st.lists(st.sampled_from(pool), min_size=k - 1, max_size=k - 1, unique=True)
    return Interleaving1D(((0, 0),) + tuple(zip(sorted(draw(pick)), sorted(draw(pick)))))


def _float_coords():
    """Floats of every kind the float lane must repeat bit for bit: plain,
    integers (s = 0), just below an integer, tiny negatives (s rounds up to
    1.0, which the scalar formula refuses) and the doubles next to a knot."""
    near_knots = [
        c for t in KNOT_POOL for f in (float(t),) for c in (f, math.nextafter(f, 2), math.nextafter(f, -1))
    ]
    return st.one_of(
        st.floats(-20, 20),
        st.integers(-6, 6).map(float),
        st.integers(-6, 6).map(lambda k: math.nextafter(k, -math.inf)),
        st.sampled_from([-1e-20, -1e-300, -0.0]),
        st.sampled_from(near_knots),
    )


_fractions = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
_EXACT_COORDS = {
    "int": st.integers(-6, 6),
    "fraction": st.one_of(
        _fractions, st.builds(lambda k, t: k + t, st.integers(-3, 3), st.sampled_from(KNOT_POOL))
    ),
    "sqrt2": st.builds(lambda a, b: SqrtExt.make(a, b, 2), _fractions, _fractions),
    "sqrt3": st.builds(lambda a, b: SqrtExt.make(a, b, 3), _fractions, _fractions),
}


@st.composite
def box_domains(draw):
    """Distinct points of one kind (int, Fraction, SqrtExt over d = 2 or 3,
    float) or a mix of Fraction points and float points."""
    kind = draw(st.sampled_from(sorted(_EXACT_COORDS) + ["float", "mixed"]))
    if kind == "mixed":
        points = st.one_of(*(st.tuples(c, c) for c in (_EXACT_COORDS["fraction"], _float_coords())))
    else:
        coords = _float_coords() if kind == "float" else _EXACT_COORDS[kind]
        points = st.tuples(coords, coords)
    pairs = draw(st.lists(points, min_size=1, max_size=25, unique_by=lambda xy: (xy[0] + 0, xy[1] + 0)))
    return [Vec2(x, y) for x, y in pairs]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BOXES), interleavings(SQRT2_KNOT_POOL), interleavings(SQRT2_KNOT_POOL), box_domains())
# float(1/3) < 1/3 and float(2/7) < 2/7 lie on the first piece, where the
# image differs in the last bit from the second piece's
@example(BOXES[0], Interleaving1D(((0, 0), (F(1, 3), F(1, 10)))), Interleaving1D(((0, 0), (F(2, 7), F(1, 10)))),
         [Vec2(float(F(1, 3)), float(F(2, 7))), Vec2(math.nextafter(float(F(1, 3)), 1), 0.5)])
@example(BOXES[2], canonical_interleaving(), canonical_interleaving(),
         [Vec2(2.5, 0.25), Vec2(-1e-20, 0.5), Vec2(3.0, 1.0)])
@example(BOXES[1], Interleaving1D(((0, 0), (F(2, 7), F(1, 10)), (F(1, 3), F(1, 2)))), canonical_interleaving(),
         [Vec2(F(-7, 3), F(2, 7)), Vec2(F(5, 4), F(1, 12)), Vec2(0, 3)])
# the dual coordinates of both generators over one denominator
@example(BOXES[3], canonical_interleaving(), Interleaving1D(((0, 0), (F(2, 7), F(1, 10)))),
         [Vec2(F(-7, 3), F(2, 7)), Vec2(F(5, 4), F(1, 12)), Vec2(0, 3), Vec2(F(1, 2), F(-1, 3))])
# a rational map cut at sqrt(2) - 1, and a generator over Q(sqrt 2)
@example(BOXES[2], Interleaving1D(((0, 0), (SqrtExt(-1, 1, 2), F(1, 3)))), canonical_interleaving(),
         [Vec2(F(2, 5), F(0)), Vec2(F(-3, 7), F(1, 2)), Vec2(F(5, 12), F(1, 3))])
@example(BOXES[4], canonical_interleaving(), Interleaving1D(((0, 0), (F(1, 3), SqrtExt(-1, 1, 2)))),
         [Vec2(F(2, 5), F(0)), Vec2(F(-3, 7), F(1, 2)), Vec2(SqrtExt(F(1, 3), 1, 2), F(1, 3))])
def test_box_product_point_map_matches_scalar_reference(shape, g1, g2, pts):
    exact = all(v.is_exact() for v in pts)
    ps = PointSet(tuple(pts), Window(-100, -100, 100, 100), 0, "rational" if exact else "float")
    gens = [c for a in shape.generators for c in (a.x, a.y)]
    knots = [c for g in (g1, g2) for knot in g.knots for c in knot]
    try:
        field_of(gens + knots + [c for v in pts for c in (v.x, v.y)], ValueError)
    except ValueError:  # a float or another radicand beside sqrt(2): refused up front
        with pytest.raises(StepIsoError, match="no common field"):
            box_product_point_map(ps, shape, g1, g2)
        return
    want = outcome(
        lambda: PointMap.from_function(ps, lambda v: reference_box_product_map(shape, g1, g2, v)).images
    )
    assert_same_images(outcome(lambda: box_product_point_map(ps, shape, g1, g2).images), want)
    for v in pts:
        assert_same_images(
            outcome(lambda: (box_image(shape, g1, g2, v),)),
            outcome(lambda: (reference_box_product_map(shape, g1, g2, v),)),
        )


# one map per lane: float, integer over Q, integer over Q(sqrt 2), and a
# float set of Vec2s holding exact points (both lanes)
_R2 = SqrtExt(0, 1, 2)
_G2 = Interleaving1D(((0, 0), (F(2, 7), F(1, 10)), (F(1, 2), F(5, 8))))
_LANE_MAPS = {
    "float": lambda: (sample_poisson_window(Window(-3.0, -2.0, 6.0, 6.0), 3.0, seed=7), square_linf()),
    "rational": lambda: (
        sample_poisson_window(Window(F(-3), F(-2), F(4), F(4)), 3.0, seed=7, mode="rational"),
        box_shape(Vec2(1, 0), Vec2(1, 2)),
    ),
    "sqrt2": lambda: (
        sample_poisson_window(Window(F(-1), F(0), _R2 + 1, F(2)), 8.0, seed=7, mode="rational"),
        square_linf(),
    ),
    "mixed": lambda: (
        PointSet(
            (Vec2(F(1, 3), F(-5, 2)), Vec2(0.25, 1.75), Vec2(F(7, 4), 2), Vec2(-1.5, 0.125)),
            Window(-4.0, -4.0, 4.0, 4.0),
            3,
        ),
        box_shape(Vec2(1, 1), Vec2(1, -1)),
    ),
}


# sha256 prefixes of each lane's map file as the Vec2-per-image maps wrote it
_LANE_JSON = {
    "float": "ab936d7f62fe58d7",
    "rational": "69d4ae7970454158",
    "sqrt2": "b3987b2191d2e2c5",
    "mixed": "d2629e2dc2c705e2",
}


@pytest.mark.parametrize("lane", sorted(_LANE_MAPS))
def test_box_map_images_match_the_scalar_reference(lane):
    ps, shape = _LANE_MAPS[lane]()
    g = canonical_interleaving()
    pm = box_product_point_map(ps, shape, g, _G2)
    images = pm.images
    assert isinstance(images, PointSet) and len(images) == len(ps)
    assert (images.window, images.seed) == (ps.window, ps.seed)
    assert images.mode == ("float" if images.field == FLOAT else "rational")
    want = [reference_box_product_map(shape, g, _G2, v) for v in ps.points]
    assert_same_images(("ok", [images[j] for j in range(len(ps))]), ("ok", want))
    assert_same_images(("ok", images), ("ok", want))
    assert hashlib.sha256(pointmap_to_json(pm).encode()).hexdigest()[:16] == _LANE_JSON[lane]


def test_repeated_box_image_is_refused_as_before():
    # 1000.1 and the next double share an image: the lower piece has slope 2/3
    x = 1000.1
    ps = PointSet((Vec2(x, 0.5), Vec2(0.25, 0.5), Vec2(math.nextafter(x, 2e3), 0.5)), Window(0.0, 0.0, 2e3, 1.0), 0)
    g = canonical_interleaving()
    w = reference_box_product_map(square_linf(), g, g, ps[2])
    message = f"map is not injective: image {w} repeats"
    with pytest.raises(StepIsoError, match=f"^{re.escape(message)}$"):
        box_product_point_map(ps, square_linf(), g, g)
    with pytest.raises(StepIsoError, match=f"^{re.escape(message)}$"):
        PointMap.from_function(ps, lambda v: reference_box_product_map(square_linf(), g, g, v))


def test_replace_takes_vec2_images():
    ps, shape = _LANE_MAPS["rational"]()
    pm = box_product_point_map(ps, shape, canonical_interleaving(), _G2)
    assert replace(pm, images=tuple(pm.images)) == pm
    moved = list(pm.images)
    moved[0] = moved[0] + Vec2(F(1, 7), F(0))
    other = replace(pm, images=tuple(moved))
    assert isinstance(other.images, PointSet) and other.images[0] == moved[0] and other != pm
    with pytest.raises(StepIsoError, match="not injective"):
        replace(pm, images=tuple(moved[:1] * 2 + moved[2:]))
    with pytest.raises(StepIsoError, match="images for"):
        replace(pm, images=tuple(moved[1:]))


# ---------------------------------------------------------------------------
# PointMap


def test_point_map_validation():
    ps = line_set([F(0), F(1, 2)])
    with pytest.raises(StepIsoError):
        PointMap(ps, (Vec2(F(0), F(0)),))
    with pytest.raises(StepIsoError):
        PointMap(ps, (Vec2(F(0), F(0)), Vec2(F(0), F(0))))
    pm = identity_map(ps)
    assert len(pm) == 2 and pm.kind == "arbitrary"


# ---------------------------------------------------------------------------
# is_step_isometry


def test_identity_is_step_isometry():
    ps = sample_poisson_window(
        Window(F(0), F(0), F(3), F(3)), 10.0, seed=2, mode="rational"
    )
    v = is_step_isometry(identity_map(ps), rational_hexagon())
    assert v.ok and v.witness is None


def test_explicit_1d_map_is_step_isometry_not_isometry():
    rng = np.random.default_rng(11)
    for trial in range(30):
        ps = line_set(idf_line_values(rng, 40))
        pm = explicit_1d_point_map(ps)
        assert is_step_isometry(pm, square_linf()).ok
        assert oracle_step_iso(square_linf(), ps.points, pm.images) is None
    # witness pair at fractional parts 0 and 1/2: distances 1/2 vs 1/3
    pair = line_set([F(0), F(1, 2)])
    verdict = is_isometry(explicit_1d_point_map(pair), square_linf())
    assert not verdict.ok
    assert verdict.witness == (0, 1)
    assert (verdict.left, verdict.right) == (F(1, 2), F(1, 3))


def test_obvious_violation_reported():
    ps = line_set([F(0), F(1, 2)])
    stretched = PointMap(ps, (Vec2(F(0), F(0)), Vec2(F(3, 2), F(0))))
    v = is_step_isometry(stretched, square_linf())
    assert not v.ok and v.witness == (0, 1)
    assert (v.left, v.right) == (0, 1)


def idf_box_sample(shape, n, seed, window=6):
    """Rational sample rescaled until both generator projections are idf."""
    ps = sample_poisson_window(
        Window(F(-window), F(-window), F(window), F(window)),
        n / (4.0 * window * window),
        seed=seed,
        mode="rational",
    )
    _, out = rescale_to_idf(ps, list(shape.generators), seed=seed)
    return out


def test_box_product_step_iso_on_idf_samples():
    g = canonical_interleaving()
    for shape in (square_linf(), box_shape(Vec2(F(1), F(1)), Vec2(F(1), F(-1)))):
        ps = idf_box_sample(shape, 60, seed=5)
        pm = box_product_point_map(ps, shape, g, Interleaving1D.two_piece(F(2, 5), F(1, 5)))
        verdict = is_step_isometry(pm, shape)
        assert verdict.ok, verdict
        assert oracle_step_iso(shape, ps.points, pm.images) is None
        assert not is_isometry(pm, shape).ok


def test_box_product_identity_components_is_isometry():
    sh = square_linf()
    ps = idf_box_sample(sh, 40, seed=9)
    ident = Interleaving1D.identity()
    pm = box_product_point_map(ps, sh, ident, ident)
    assert is_isometry(pm, sh).ok


def test_hexagon_breaks_box_construction():
    # the same construction over a hexagon's first two generators must fail
    hexa = rational_hexagon()
    box = box_shape(*hexa.generators[:2])
    ps = idf_box_sample(box, 400, seed=13)
    pm = box_product_point_map(ps, box, canonical_interleaving(), canonical_interleaving())
    assert is_step_isometry(pm, box).ok
    verdict = is_step_isometry(pm, hexa)
    assert not verdict.ok
    want = oracle_step_iso(hexa, ps.points, pm.images)
    assert (verdict.witness, verdict.left, verdict.right, verdict.checked) == want
    i, j = verdict.witness
    assert oracle_floor_distance(hexa, ps[i], ps[j]) == verdict.left
    assert oracle_floor_distance(hexa, pm.images[i], pm.images[j]) == verdict.right


def test_float_lane_matches_exact_lane():
    hexa = rational_hexagon()
    box = box_shape(*hexa.generators[:2])
    ps = idf_box_sample(box, 150, seed=21)
    pm = box_product_point_map(ps, box, canonical_interleaving(), Interleaving1D.identity())
    exact_verdict = is_step_isometry(pm, hexa)
    ps_f = PointSet(
        tuple(Vec2(*p.to_floats()) for p in ps.points),
        Window(*(float(c) for c in (ps.window.x0, ps.window.y0, ps.window.x1, ps.window.y1))),
        seed=0,
    )
    pm_f = PointMap(ps_f, tuple(Vec2(*w.to_floats()) for w in pm.images))
    float_verdict = is_step_isometry(pm_f, hexa)
    assert float_verdict.ok == exact_verdict.ok
    assert float_verdict.witness == exact_verdict.witness


def test_float_boundary_refused():
    ps = PointSet((Vec2(0.0, 0.0), Vec2(1.0, 0.0)), Window(-1.0, -1.0, 2.0, 2.0), 0)
    with pytest.raises(BoundaryAmbiguityError, match=r"\(0, 1\)"):
        is_step_isometry(identity_map(ps), square_linf())
    # 200 points on a line with no distance near an integer, plus one at
    # distance 1 from point `near`: rows 0..80 fill the first block, so the
    # refusal of row 150 comes from a later one
    xs = [0.00731 * k for k in range(200)]
    for near in (150, 0):
        line = line_set(xs + [xs[near] + 1.0], mode="float")
        with pytest.raises(BoundaryAmbiguityError, match=rf"\({near}, 200\)"):
            is_step_isometry(identity_map(line), square_linf())
    # an image distance on an integer is refused like a domain one
    pair = line_set([0.0, 1.5], mode="float")
    with pytest.raises(BoundaryAmbiguityError, match=r"\(0, 1\)"):
        is_step_isometry(PointMap(pair, (Vec2(0.0, 0.0), Vec2(1.0, 0.0))), square_linf())
    # a clear failure before the near pair (0, 200) is returned, not refused
    moved = list(line.points)
    moved[5] = Vec2(moved[5].x + 5.0, 0.0)
    v = is_step_isometry(PointMap(line, tuple(moved)), square_linf())
    assert (v.ok, v.witness, v.left, v.right, v.checked) == (False, (0, 5), 0, 5, 5)


def test_cancelling_sqrt_parts_decided_exactly():
    # 1 - (sqrt2 - 1)^36 lies just below 1, but its parts are about 3e13 and
    # cancel, so the float filter sees it near 1 only if float() keeps that
    s = F(1)
    for _ in range(36):
        s = s * SqrtExt(-1, 1, 2)
    ps = line_set([F(0), 1 - s])
    pm = PointMap(ps, (Vec2(F(0), F(0)), Vec2(F(3, 2), F(0))))
    v = is_step_isometry(pm, square_linf())
    assert (v.ok, v.witness, v.left, v.right) == (False, (0, 1), 0, 1)


def test_lp_shape_lane():
    xs = [(i // 7) + ((i * 13) % 97) / 97.0 for i in range(40)]
    ps = line_set(xs, mode="float")
    pm = explicit_1d_point_map(ps)
    images_clean = tuple(Vec2(float(w.x), 0.0) for w in pm.images)
    pm = PointMap(ps, images_clean)
    assert is_step_isometry(pm, LpShape(2)).ok
    assert not is_isometry(pm, LpShape(2)).ok
    # 1.95 -> 2.02 crosses 2, though 1.95^2.5 and 2.02^2.5 share the floor 5
    pair = line_set([0.0, 1.95], mode="float")
    v = is_step_isometry(PointMap(pair, (Vec2(0.0, 0.0), Vec2(2.02, 0.0))), LpShape(2.5))
    assert (v.ok, v.witness, v.left, v.right) == (False, (0, 1), 1, 2)


_SHAPES = {
    "square": square_linf(),
    "rational_hexagon": rational_hexagon(),
    "regular_hexagon": regular_hexagon(),
    "box": box_shape(Vec2(F(1), F(0)), Vec2(F(1), F(2))),
    "diamond": diamond_l1(),
    "lp2": LpShape(2),
    "lp2.5": LpShape(2.5),
    "lp3": LpShape(3),
}


@st.composite
def map_problems(draw):
    """A map, a shape and a block size.  Points are float, Fraction or
    a + b*sqrt(2); fine random coordinates, or a half-integer lattice whose
    integer distances send every pair through the exact confirmation.
    Images are a translation, a translation with a few points nudged, or
    with some points reflected through point 0 (which keeps every distance
    from point 0, so no pair of row 0 fails), the canonical box-product map,
    or a slight scaling."""
    kind = draw(st.sampled_from(["float", "fraction", "sqrt"]))
    names = sorted(_SHAPES)
    if kind == "sqrt":
        names.remove("regular_hexagon")  # float generators times SqrtExt
    shape = _SHAPES[draw(st.sampled_from(names))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    lattice = draw(st.booleans())
    den = 2 if lattice else int(rng.choice([97, 1 << 10]))
    cells = rng.choice((8 * den) ** 2, n, replace=False)
    coords = [(F(int(k) // (8 * den), den), F(int(k) % (8 * den), den)) for k in cells]
    # one irrational part for the whole lattice keeps its distances rational
    shared = F(int(rng.integers(1, 4)), 4)

    def scalar(x):
        if kind == "float":
            return float(x)
        if kind == "fraction":
            return x
        b = shared if lattice else F(int(rng.integers(-3, 4)), 8)
        return SqrtExt.make(x, b, 2)

    pts = tuple(Vec2(scalar(x), scalar(y)) for x, y in coords)
    ps = PointSet(pts, Window(F(-1), F(-1), F(9), F(9)), 0, "float" if kind == "float" else "rational")
    t = Vec2(*(scalar(F(int(rng.integers(-20, 20)), 7)) for _ in range(2)))
    how = draw(st.sampled_from(["translate", "nudge", "reflect", "box", "scale"]))
    if how == "box":
        pm = box_product_point_map(ps, square_linf(), canonical_interleaving(), canonical_interleaving())
    elif how == "scale":
        pm = PointMap.from_function(ps, lambda p: p * scalar(F(65, 64)))
    else:
        ims = [p + t for p in pts]
        for k in rng.choice(n, min(n, 3), replace=False):
            if how == "nudge":
                ims[k] = ims[k] + Vec2(scalar(F(int(rng.integers(1, 16)), 64)), scalar(F(0)))
            elif how == "reflect" and k:
                ims[k] = pts[0] * 2 - pts[k] + t
        if len(set((w.x, w.y) for w in ims)) < n:
            ims = [p + t for p in pts]
        pm = PointMap(ps, tuple(ims))
    block = draw(st.sampled_from([1, 7, 64, larg._BLOCK_CELLS, 1 << 16]))
    return pm, shape, block


def assert_verdict_matches(check, oracle):
    """The check's verdict (or refusal) equals the oracle's scan."""
    try:
        want = oracle()
    except BoundaryAmbiguityError as err:
        pair = str(err)
        with pytest.raises(BoundaryAmbiguityError, match=re.escape(pair)):
            check()
        return
    v = check()
    if want is None:
        assert v.ok and v.witness is None
        return
    pair, left, right, pos = want
    assert (v.ok, v.witness, v.checked) == (False, pair, pos)
    for got, exp in ((v.left, left), (v.right, right)):
        if isinstance(exp, float):
            assert got == pytest.approx(exp, rel=1e-12, abs=1e-300)
        else:
            assert got == exp and type(got) is type(exp)


@settings(max_examples=120, deadline=None)
@given(map_problems())
def test_checks_match_brute_force(problem):
    pm, shape, block = problem
    pts, ims = pm.domain.points, pm.images.points
    exact = all(p.is_exact() for p in pts + ims)
    tol = 0 if exact and not isinstance(shape, LpShape) else 1e-9
    with mock.patch.object(larg, "_BLOCK_CELLS", block):
        assert_verdict_matches(
            lambda: is_step_isometry(pm, shape), lambda: oracle_step_iso(shape, pts, ims)
        )
        assert_verdict_matches(
            lambda: is_isometry(pm, shape), lambda: oracle_isometry(shape, pts, ims, tol)
        )


def test_blocks_of_more_rows_than_the_default():
    # at 1 << 16 cells the scan's first block takes all 200 rows, more than
    # the default block size allows; a lower-triangle mask sized for the
    # default leaves the diagonal of the last rows unmasked, and a distance
    # of 0 is refused as within the guard of an integer
    ps = sample_poisson_window(Window(0.0, 0.0, 0.7, 0.7), 500.0, seed=3)
    assert len(ps) >= 200
    ps = PointSet(ps.points[:200], ps.window, ps.seed)
    pm = PointMap.from_function(ps, lambda p: p + Vec2(0.25, 0.5))
    with mock.patch.object(larg, "_BLOCK_CELLS", 1 << 16):
        for check in (is_step_isometry, is_isometry):
            v = check(pm, square_linf())
            assert (v.ok, v.checked) == (True, 200 * 199 // 2)


# ---------------------------------------------------------------------------
# the per-projection certificate of the step check


_OCTAGON = PolygonShape([Vec2(1, 0), Vec2(0, 1), Vec2(F(3, 4), F(3, 4)), Vec2(F(3, 4), F(-3, 4))])
_CHECK_SHAPES = {
    "square": square_linf(),
    "box": box_shape(Vec2(F(1), F(0)), Vec2(F(1), F(2))),
    "rational_hexagon": rational_hexagon(),
    "regular_hexagon": regular_hexagon(),
    "octagon": _OCTAGON,
    "lp2": LpShape(2),
}


def _no_certificate(dom_cols, *_):
    return np.zeros(dom_cols.shape[1], dtype=bool)


def _float_map(dom, img):
    ps = PointSet(tuple(Vec2(*p) for p in dom), Window(-10.0, -10.0, 10.0, 10.0), 0)
    return PointMap(ps, tuple(Vec2(*w) for w in img))


def _aside_map(dom, img):
    """A float map with a fixed point (5.45, 5.85) put first: row 0 is
    scanned before the certificate is built, so the pair of the other two
    points is left to the certificate."""
    return _float_map([(5.45, 5.85)] + dom, [(5.45, 5.85)] + img)


# the pair of the last two points is certified by one broken certificate
# and lies within the guard of an integer, or fails, under the square: the
# circular gap between fractional parts near 0 and near 1 dropped, the
# floor offset test dropped, the rank test dropped, margin 0 (fractional
# parts tied), and a column left out that is constant on one side only (the
# x of a vertical line whose last image moves off it)
_MUTANT_CASES = (
    _aside_map([(2.0 + 1e-11, 0.25), (1.0 - 1e-11, 0.6)], [(2.0 + 1e-11, 0.25), (1.0 - 1e-11, 0.6)]),
    _aside_map([(0.2, 0.3), (1.5, 0.7)], [(0.2, 0.3), (2.5, 0.7)]),
    _aside_map([(0.2, 0.1), (1.8, 0.6)], [(0.8, 0.1), (1.2, 0.6)]),
    _aside_map([(0.3, 0.1), (1.3 + 1e-12, 0.6)], [(0.3, 0.1), (1.3 + 1e-12, 0.6)]),
    _float_map([(0.3, 5.85), (0.3, 0.1), (0.3, 0.5)], [(0.3, 5.85), (0.3, 0.1), (1.55, 0.5)]),
)


@st.composite
def certificate_problems(draw):
    """A map, a shape to check it under and a block size.  Points are float
    or Fraction, on both sides of 0, their fractional parts on a grid of
    2^-20.  Then points other than the first move, so that fractional parts
    cluster near 0 and 1 and near each other: onto a lattice point or within
    1e-10 of one, two points just above and just below lattice points, or
    one point an integer step from another plus 0, 1e-10 or 1/256 along an
    axis (some sets take many such moves).  Maps are box-product maps under
    an integer box of BOXES or translations by an integer or non-integer vector;
    one image may be nudged by 1 or 1/64 along an axis, that of the point
    moved by a step if there is one.  Some sets are collinear: every point
    shares its x or its y, and the nudge moves an image off the line.  The
    first point may lie 40 apart across the nudge, so that the first row,
    scanned before the certificate is built, keeps its floors under the
    square.  Half of the maps are checked under their own box.
    """
    exact = draw(st.booleans())
    line = draw(st.sampled_from([None, None, 0, 1]))  # the shared coordinate, if any
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiny = F(1, 10**10) if exact else 1e-10

    def num(c):
        return c if exact else float(c)

    def integer():
        return num(int(rng.integers(-6, 6)))

    n = int(rng.integers(2, 31))
    pts = [[integer() + num(F(int(rng.integers(0, 1 << 20)), 1 << 20)) for _ in "xy"] for _ in range(n)]
    moves = [draw(st.sampled_from(["lattice", "near", "wrap", "step"]))]
    if draw(st.booleans()):
        moves += ["lattice", "near", "step"] * draw(st.sampled_from([0, n // 3]))
    k, axis = int(rng.integers(1, n)), int(rng.integers(2))  # the nudge
    for move in moves:
        i, j, a = (int(v) for v in rng.integers((1, 1, 0), (n, n, 2)))
        lattice = [integer(), integer()]
        if move == "lattice":
            pts[j] = lattice
        elif move == "near":
            pts[j] = [c + int(rng.choice([-2, -1, 1, 2])) * tiny / 2 for c in lattice]
        elif move == "wrap":
            pts[i] = [lattice[0] + tiny / 2, lattice[1] + tiny / 4]
            pts[j] = [integer() - tiny / 2, integer() - tiny / 4]
        else:
            sliver = (0, tiny, -tiny, F(1, 256), F(-1, 256))[int(rng.integers(5))]
            pts[j] = [num(c + int(rng.integers(-3, 4)) + (sliver if b == a else 0)) for b, c in enumerate(pts[i])]
            k, axis = j, a
    if line is not None:
        axis = line
        for p in pts:
            p[line] = pts[0][line]
    if draw(st.booleans()):
        pts[0][1 - axis] += num(40)
    assume(len({(float(x), float(y)) for x, y in pts}) == n)
    ps = PointSet(tuple(Vec2(*p) for p in pts), Window(-50, -50, 50, 50), 0, "rational" if exact else "float")
    box = draw(st.sampled_from(BOXES[:3]))  # the integer boxes, whose draws catch the certificate's mutants
    how = draw(st.sampled_from(["box", "box", "integer", "shift"]))
    if how == "box":
        try:
            pm = box_product_point_map(ps, box, draw(interleavings()), draw(interleavings()))
        except StepIsoError:  # a fractional part rounded up to 1.0
            assume(False)
        ims = list(pm.images)
    else:
        t = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) if how == "integer" else (F(3, 7), F(-5, 4))
        ims = [p + Vec2(*(num(c) for c in t)) for p in ps.points]
    nudge = draw(st.sampled_from([0, 1, 0, 1, F(1, 64)]))
    if nudge:
        ims[k] = ims[k] + Vec2(*(num(nudge if b == axis else 0) for b in (0, 1)))
    assume(len(set((w.x, w.y) for w in ims)) == n)
    shape = box if draw(st.booleans()) else draw(st.sampled_from(list(_CHECK_SHAPES.values())))
    return PointMap(ps, tuple(ims)), shape, draw(st.sampled_from([1, 7, 64, larg._BLOCK_CELLS]))


@settings(max_examples=300, deadline=None)
@given(certificate_problems())
@example((_MUTANT_CASES[0], square_linf(), larg._BLOCK_CELLS))
@example((_MUTANT_CASES[1], square_linf(), larg._BLOCK_CELLS))
@example((_MUTANT_CASES[2], square_linf(), larg._BLOCK_CELLS))
@example((_MUTANT_CASES[3], square_linf(), larg._BLOCK_CELLS))
@example((_MUTANT_CASES[4], square_linf(), larg._BLOCK_CELLS))
def test_certificate_matches_the_full_scan(problem):
    pm, shape, block = problem
    with mock.patch.object(larg, "_BLOCK_CELLS", block):
        got = outcome(lambda: is_step_isometry(pm, shape))
        with mock.patch.object(stepiso, "_certified", _no_certificate):
            want = outcome(lambda: is_step_isometry(pm, shape))
    assert got == want  # Verdict equality ignores scanned
    if got[0] == "ok" and got[1].ok:
        assert got[1].scanned <= want[1].scanned == len(pm) * (len(pm) - 1) // 2


def test_collinear_points_certify():
    # every point ties in y on both sides; that column is left out
    ps = line_set(idf_line_values(np.random.default_rng(3), 1000))
    v = is_step_isometry(explicit_1d_point_map(ps), square_linf())
    assert v.ok and v.checked == 1000 * 999 // 2
    assert v.scanned <= v.checked // 10


def test_box_map_scans_few_pairs():
    ps = sample_poisson_window(Window(0.0, 0.0, 50.0, 50.0), 1.7, seed=1)
    ps = PointSet(ps.points[:4000], ps.window, ps.seed)
    g = canonical_interleaving()
    v = is_step_isometry(box_product_point_map(ps, square_linf(), g, g), square_linf())
    assert v.ok and v.checked == 4000 * 3999 // 2
    assert v.scanned <= v.checked // 100


def test_identity_under_lp_scans_every_pair():
    ps = sample_poisson_window(Window(0.0, 0.0, 10.0, 10.0), 3.0, seed=2)
    n = len(ps)
    v = is_step_isometry(identity_map(ps), LpShape(2))
    assert v.ok and v.checked == v.scanned == n * (n - 1) // 2


_NO_NUMPY_MA = """
import sys
from larg_lab.anchoring import good_enumeration
from larg_lab.experiments import ExperimentConfig, run_decay_experiment
from larg_lab.geometry import Vec2, box_shape, rational_hexagon, square_linf
from larg_lab.larg import GeoGraph, sample_larg
from larg_lab.pointsets import Window, sample_poisson_window
from larg_lab.stepiso import box_product_point_map, canonical_interleaving, is_isometry, is_step_isometry
g = canonical_interleaving()
for mode, win in (("float", Window(0.0, 0.0, 8.0, 8.0)), ("rational", Window(0, 0, 8, 8))):
    ps = sample_poisson_window(win, 2.0, seed=3, mode=mode)
    for shape in (square_linf(), box_shape(Vec2(1, 0), Vec2(1, 2))):
        pm = box_product_point_map(ps, shape, g, g)
        is_step_isometry(pm, shape), is_isometry(pm, shape)
    sample_larg(ps, rational_hexagon(), 1, 0.5, edge_seed=1)
    good_enumeration(ps, rational_hexagon())
GeoGraph("ref", 4, 0.5, 1, 0, [(2, 3), (0, 1), (0, 1)])
run_decay_experiment(ExperimentConfig(n_values=(3, 4, 5), trials=20))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_library_paths_do_not_import_numpy_ma():
    # np.unique without return_index/inverse/counts, and np.setdiff1d,
    # np.median and np.isin's sort path through it, import numpy.ma (tens of
    # ms of CPU in a fresh process)
    src = os.path.dirname(os.path.dirname(larg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# is_isometry extras


def test_translation_is_isometry():
    ps = sample_poisson_window(
        Window(F(0), F(0), F(2), F(2)), 15.0, seed=4, mode="rational"
    )
    t = Vec2(F(5, 7), F(-2, 3))
    pm = PointMap.from_function(ps, lambda p: p + t)
    for shape in (square_linf(), diamond_l1(), rational_hexagon()):
        assert is_isometry(pm, shape).ok
        assert is_step_isometry(pm, shape).ok
    # a move far below float resolution still breaks exact data at tol 0
    line = line_set([F(0), F(1, 4), F(2)])
    eps = F(1, 10**30)
    v = is_isometry(PointMap(line, line.points[:2] + (Vec2(2 + eps, F(0)),)), square_linf())
    assert (v.ok, v.witness, v.left, v.right, v.checked) == (False, (0, 2), 2, 2 + eps, 2)


def test_isometry_across_radicands_fails_at_the_pair():
    # domain over sqrt(2), images over sqrt(3): the sides are not joined, and
    # at tol 0 their exact distances compare unequal instead of raising
    R2, R3 = SqrtExt(0, 1, 2), SqrtExt(0, 1, 3)
    ps = PointSet((Vec2(R2, F(0)), Vec2(F(1, 2), F(0))), Window(F(-2), F(-2), F(2), F(2)), 0, "rational")
    v = is_isometry(PointMap(ps, (Vec2(R3, F(0)), Vec2(F(1, 2), F(0)))), square_linf())
    assert (v.ok, v.witness, v.left, v.right) == (False, (0, 1), R2 - F(1, 2), R3 - F(1, 2))


def test_isometry_of_sqrt2_domain_with_float_images():
    # exact distances over sqrt(2) beside float ones are compared by
    # exact.close, never by subtracting a float from a SqrtExt
    R2 = SqrtExt(0, 1, 2)
    ps = PointSet((Vec2(0, 0), Vec2(R2, 0), Vec2(0, 2 * R2)), Window(F(-4), F(-4), F(4), F(4)), 0, "rational")
    floats = tuple(Vec2(float(v.x), float(v.y)) for v in ps.points)
    assert is_isometry(PointMap(ps, floats), square_linf()).ok
    moved = (floats[0], Vec2(float(R2) + 0.5, 0.0), floats[2])
    v = is_isometry(PointMap(ps, moved), square_linf())
    assert (v.ok, v.witness) == (False, (0, 1))
    assert (v.left, v.right, v.checked) == (R2, float(R2) + 0.5, 1)


def test_isometry_tolerance_float():
    ps = line_set([0.0, 0.4], mode="float")
    wiggled = PointMap(ps, (Vec2(0.0, 0.0), Vec2(0.4 + 5e-7, 0.0)))
    assert not is_isometry(wiggled, square_linf()).ok


# ---------------------------------------------------------------------------
# respects_line


def test_respects_line_explicit_map():
    values = [F(k, 100) for k in range(1, 100, 7) if k != 50]
    ps = line_set(values)
    pm = explicit_1d_point_map(ps)
    ell = Line(Vec2(1, 0), F(1, 2))
    ell_img = Line(Vec2(1, 0), F(1, 3))
    assert respects_line(pm, ell, ell_img)
    # oracle: direct side check point by point
    for v, w in zip(ps.points, pm.images):
        assert (v.x < F(1, 2)) == (w.x < F(1, 3))
    # rescaling the line equations changes nothing
    assert respects_line(pm, Line(Vec2(3, 0), F(3, 2)), Line(Vec2(7, 0), F(7, 3)))


def test_respects_line_identity_and_swap():
    ps = line_set([F(0), F(1)])
    ell = Line(Vec2(1, 0), F(1, 2))
    assert respects_line(identity_map(ps), ell, ell)
    swap = PointMap(ps, (ps[1], ps[0]))
    assert not respects_line(swap, ell, ell)


def test_respects_line_point_on_line_rejected():
    ps = line_set([F(1, 2), F(2)])
    ell = Line(Vec2(1, 0), F(1, 2))
    with pytest.raises(StepIsoError):
        respects_line(identity_map(ps), ell, ell)


# ---------------------------------------------------------------------------
# candidate maps between graph pairs


def is_graph_isomorphism(g, h, pmap):
    """Does pmap's point permutation carry g's adjacency onto h's?"""
    index = {p: k for k, p in enumerate(pmap.domain.points)}
    perm = np.array([index[w] for w in pmap.images])
    return np.array_equal(g.adjacency_matrix(), h.adjacency_matrix()[np.ix_(perm, perm)])


def test_stat_check_same_seed_identity():
    ps = sample_poisson_window(Window(0.0, 0.0, 2.0, 2.0), 20.0, seed=6)
    sh = square_linf()
    g = sample_larg(ps, sh, 1, 0.5, edge_seed=3)
    h = sample_larg(ps, sh, 1, 0.5, edge_seed=3)
    assert is_graph_isomorphism(g, h, identity_map(ps))
    v = is_step_isometry(identity_map(ps), sh)
    assert v.ok and v.witness is None and v.checked == len(ps) * (len(ps) - 1) // 2


def test_stat_check_rejects_non_isomorphism():
    pts = PointSet((Vec2(F(0), F(0)), Vec2(F(1, 2), F(0))), Window(F(-1), F(-1), F(1), F(1)), 0, "rational")
    ref = pts.fingerprint()
    g = GeoGraph(ref, 2, 0.5, 1, 0, frozenset({(0, 1)}))
    h = GeoGraph(ref, 2, 0.5, 1, 1, frozenset())
    assert not is_graph_isomorphism(g, h, identity_map(pts))
    # neither bijection of two points carries one edge onto none
    assert back_and_forth_isomorphism(g, h, pts, square_linf()) == ("none", None)


def test_stat_check_planted_point_reflection():
    # edges keyed by exact distance make any isometry an isomorphism
    base = [Vec2(F(1, 3), F(1, 7)), Vec2(F(2, 5), F(-3, 8)), Vec2(F(9, 11), F(1, 2))]
    pts = tuple(base) + tuple(-v for v in base)
    ps = PointSet(pts, Window(F(-2), F(-2), F(2), F(2)), 0, "rational")
    sh = rational_hexagon()
    rng = np.random.default_rng(17)
    coin: dict = {}
    edges = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = distance(sh, pts[i], pts[j])
            if d < 1:
                if d not in coin:
                    coin[d] = bool(rng.random() < 0.5)
                if coin[d]:
                    edges.add((i, j))
    g = GeoGraph(ps.fingerprint(), len(pts), 0.5, 1, 0, frozenset(edges))
    reflection = PointMap.from_function(ps, lambda p: -p)
    assert is_graph_isomorphism(g, g, reflection)
    assert is_step_isometry(reflection, sh).ok
    assert is_isometry(reflection, sh).ok


def test_stat_check_counts_crossings_and_bound():
    pts = (
        Vec2(F(0), F(0)),
        Vec2(F(1, 2), F(0)),
        Vec2(F(10), F(0)),
        Vec2(F(10), F(3, 2)),
    )
    ps = PointSet(pts, Window(F(-1), F(-1), F(11), F(2)), 0, "rational")
    sh = square_linf()
    swap = PointMap(ps, (pts[2], pts[3], pts[0], pts[1]))
    # pairs (0,1) and (2,3) swap in-range and out-of-range sides: each needs
    # the in-range side's coin to be a non-edge, chance (1-p) apiece
    crossings = [
        (i, j)
        for i in range(4)
        for j in range(i + 1, 4)
        if (distance(sh, pts[i], pts[j]) < 1) != (distance(sh, swap.images[i], swap.images[j]) < 1)
    ]
    assert crossings == [(0, 1), (2, 3)]
    assert (1 - 0.5) ** len(crossings) == 0.25
    v = is_step_isometry(swap, sh)
    assert not v.ok and v.witness == (0, 1) and v.checked == 1
    assert (v.left, v.right) == (0, 1)


def test_stat_check_requires_shared_point_set():
    ps = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 10.0, seed=8)
    other = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 10.0, seed=9)
    sh = square_linf()
    g = sample_larg(ps, sh, 1, 0.5, edge_seed=0)
    h = sample_larg(other, sh, 1, 0.5, edge_seed=0)
    with pytest.raises(ExperimentError, match="not sampled over this point set"):
        back_and_forth_isomorphism(g, h, ps, sh)
