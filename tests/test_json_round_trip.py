"""JSON round trips of shapes, point sets and point maps.

Every value comes back equal.  Fractions and floats keep their type (a
float's repr round-trips exactly through JSON); an int comes back as the
equal Fraction, since files write every exact scalar as "num/den".
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from larg_lab.geometry import (
    GeometryError,
    LpShape,
    PolygonShape,
    Vec2,
    shape_from_json,
    shape_to_json,
)
from larg_lab.pointsets import PointSet, Window, pointset_from_json, pointset_to_json
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
    flags = draw(st.dictionaries(st.tuples(scalars, scalars), st.booleans(), max_size=4))
    return PointSet(
        tuple(Vec2(x, y) for x, y in pts),
        window,
        draw(st.integers(-(2**63), 2**64)),
        mode=mode,
        alpha=draw(scalars),
        idf_per_generator=flags,
    )


def assert_same_point_set(back, ps):
    assert back == ps
    for v, w in zip(back.points, ps.points):
        assert_same_vec(v, w)
    for c in ("x0", "y0", "x1", "y1"):
        assert_same_scalar(getattr(back.window, c), getattr(ps.window, c))
    assert_same_scalar(back.alpha, ps.alpha)
    assert back.seed == ps.seed and back.mode == ps.mode
    assert back.idf_per_generator == ps.idf_per_generator


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_point_set_round_trip(ps):
    assert_same_point_set(pointset_from_json(pointset_to_json(ps)), ps)


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.sampled_from(["arbitrary", "box-product", "explicit-1d"]), st.data())
def test_point_map_round_trip(ps, kind, data):
    images = data.draw(
        st.lists(
            st.tuples(scalars, scalars),
            min_size=len(ps),
            max_size=len(ps),
            unique_by=lambda xy: (xy[0] + 0, xy[1] + 0),
        )
    )
    pmap = PointMap(ps, tuple(Vec2(x, y) for x, y in images), kind)
    back = pointmap_from_json(pointmap_to_json(pmap))
    # the fractional-map components are not stored; this map has none
    assert back == pmap
    assert_same_point_set(back.domain, ps)
    for v, w in zip(back.images, pmap.images):
        assert_same_vec(v, w)
