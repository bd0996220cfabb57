"""JSON round trips of shapes, point sets and point maps.

Every value comes back equal.  Fractions, SqrtExt values and floats keep
their type (a float's repr round-trips exactly through JSON); an int comes
back as the equal Fraction, since files write every rational as "num/den"
and a + b*sqrt(d) as "num/den+num/den*sqrt(d)".
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from larg_lab.exact import SqrtExt
from larg_lab.geometry import (
    GeometryError,
    LpShape,
    PolygonShape,
    Vec2,
    shape_from_json,
    shape_to_json,
)
from larg_lab.pointsets import (
    PointSet,
    Window,
    pointset_from_json,
    pointset_to_json,
    sample_poisson_window,
)
from larg_lab.stepiso import PointMap, pointmap_from_json, pointmap_to_json

exact_scalars = st.one_of(
    st.integers(-(10**20), 10**20),
    st.fractions(max_denominator=10**12).filter(lambda q: abs(q) < 10**12),
)
float_scalars = st.floats(allow_nan=False, allow_infinity=False, width=64)
scalars = st.one_of(exact_scalars, float_scalars)


def assert_same_scalar(back, orig):
    assert back == orig
    if isinstance(orig, float):
        assert type(back) is float
    else:
        # int and Fraction both come back as Fraction
        assert type(back) is Fraction


def assert_same_vec(back, orig):
    assert_same_scalar(back.x, orig.x)
    assert_same_scalar(back.y, orig.y)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(scalars, scalars), min_size=2, max_size=4))
def test_polygon_shape_round_trip(coords):
    try:
        shape = PolygonShape([Vec2(x, y) for x, y in coords])
    except GeometryError:
        assume(False)  # zero or parallel generators
    back = shape_from_json(shape_to_json(shape))
    assert isinstance(back, PolygonShape)
    assert len(back.generators) == len(shape.generators)
    for g, h in zip(back.generators, shape.generators):
        assert_same_vec(g, h)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
def test_lp_shape_round_trip(p):
    back = shape_from_json(shape_to_json(LpShape(p)))
    assert isinstance(back, LpShape) and back.p == p


@st.composite
def point_sets(draw):
    mode = draw(st.sampled_from(["float", "rational"]))
    coord = exact_scalars if mode == "rational" else scalars
    # distinct as PointSet counts them: 0 == -0.0 == Fraction(0)
    pts = draw(
        st.lists(st.tuples(coord, coord), max_size=12, unique_by=lambda xy: (xy[0] + 0, xy[1] + 0))
    )
    x0, y0 = draw(scalars), draw(scalars)
    x1, y1 = (c + draw(st.fractions(min_value=1, max_value=100)) for c in (x0, y0))
    assume(x1 > x0 and y1 > y0)  # a float corner may absorb the extent
    window = Window(x0, y0, x1, y1)
    return PointSet(
        tuple(Vec2(x, y) for x, y in pts),
        window,
        draw(st.integers(-(2**63), 2**64)),
        mode=mode,
        alpha=draw(scalars),
    )


def assert_same_point_set(back, ps):
    assert back == ps
    for v, w in zip(back.points, ps.points):
        assert_same_vec(v, w)
    for c in ("x0", "y0", "x1", "y1"):
        assert_same_scalar(getattr(back.window, c), getattr(ps.window, c))
    assert_same_scalar(back.alpha, ps.alpha)
    assert back.seed == ps.seed and back.mode == ps.mode


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_point_set_round_trip(ps):
    assert_same_point_set(pointset_from_json(pointset_to_json(ps)), ps)


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.data())
def test_point_map_round_trip(ps, data):
    images = data.draw(
        st.lists(
            st.tuples(scalars, scalars),
            min_size=len(ps),
            max_size=len(ps),
            unique_by=lambda xy: (xy[0] + 0, xy[1] + 0),
        )
    )
    pmap = PointMap(ps, tuple(Vec2(x, y) for x, y in images))
    back = pointmap_from_json(pointmap_to_json(pmap))
    assert back == pmap
    assert_same_point_set(back.domain, ps)
    for v, w in zip(back.images, pmap.images):
        assert_same_vec(v, w)


def test_sqrt2_point_set_round_trip():
    # a rational-mode sample of a window with an irrational corner lives in
    # Q(sqrt 2); its values, their types and its fingerprint come back
    window = Window(Fraction(0), Fraction(0), SqrtExt(0, 1, 2), Fraction(1))
    ps = sample_poisson_window(window, 5.0, seed=1, mode="rational")
    assert ps.field == 2 and any(isinstance(v.x, SqrtExt) for v in ps.points)
    text = pointset_to_json(ps)
    assert "*sqrt(2)" in text
    back = pointset_from_json(text)
    assert back == ps and back.field == 2
    assert back.fingerprint() == ps.fingerprint()
    pairs = [(b, o) for v, w in zip(back.points, ps.points) for b, o in ((v.x, w.x), (v.y, w.y))]
    pairs += [(getattr(back.window, c), getattr(ps.window, c)) for c in ("x0", "y0", "x1", "y1")]
    for b, o in pairs:
        assert b == o
        assert type(b) is (SqrtExt if isinstance(o, SqrtExt) else Fraction)
