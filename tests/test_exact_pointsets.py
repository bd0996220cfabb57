"""The point-set layer against its Vec2 and Fraction references.

Sampling, `is_idf`, `rescale_to_idf` and the projection floors of
`experiments._floor_table` run on the stored columns: a float64 array, or
integer numerators over one denominator.  The references below are the
implementations they replaced, kept verbatim in spirit: one Vec2 per draw,
one Fraction or SqrtExt operation per coordinate.  The column lanes must
give the same points (values, types and order), the same alpha, the same
idf answers and the same floor tables, or the same error.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from larg_lab.exact import FLOAT_INTEGER_GUARD, BoundaryAmbiguityError, SqrtExt, guarded_floor, is_exact
from larg_lab.experiments import _floor_table
from larg_lab.geometry import PolygonShape, Vec2, box_shape, rational_hexagon, regular_hexagon, square_linf
from larg_lab.pointsets import (
    PointSet,
    PointSetError,
    Window,
    _golden_candidates,
    is_idf,
    pointset_to_json,
    rescale_to_idf,
    sample_poisson_window,
)

F = Fraction
R2, R3 = SqrtExt(0, 1, 2), SqrtExt(0, 1, 3)
_RATIONAL_DEN = 1 << 40


# ---------------------------------------------------------------------------
# Fraction references


def ref_sample_float(window: Window, intensity: float, seed: int) -> PointSet:
    """The float sampler: one Vec2 per draw, duplicates dropped by value."""
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(intensity * float(window.area())))
    pts, seen = [], set()
    w, h = float(window.x1 - window.x0), float(window.y1 - window.y0)
    x0, y0 = float(window.x0), float(window.y0)
    while len(pts) < n:
        for u, v in rng.random((n - len(pts), 2)):
            p = Vec2(x0 + w * float(u), y0 + h * float(v))
            if (p.x, p.y) not in seen:
                seen.add((p.x, p.y))
                pts.append(p)
    return PointSet(tuple(pts), window, seed)


def ref_sample_rational(window: Window, intensity: float, seed: int) -> PointSet:
    """The rational sampler: Fraction arithmetic per coordinate, duplicates
    dropped by value."""
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(intensity * float(window.area())))
    pts, seen = [], set()
    w = window.x1 - window.x0
    h = window.y1 - window.y0
    while len(pts) < n:
        block = rng.integers(0, _RATIONAL_DEN, size=(n - len(pts), 2))
        for ku, kv in block:
            p = Vec2(
                window.x0 + w * Fraction(int(ku), _RATIONAL_DEN),
                window.y0 + h * Fraction(int(kv), _RATIONAL_DEN),
            )
            if (p.x, p.y) not in seen:
                seen.add((p.x, p.y))
                pts.append(p)
    return PointSet(tuple(pts), window, seed, mode="rational")


def ref_is_idf(values) -> bool:
    """Exact values by their set of fractional parts, floats by the guard."""
    vals = list(values)
    if not vals:
        return True
    if all(is_exact(v) for v in vals):
        return len({v - math.floor(v) for v in vals}) == len(vals)
    fr = sorted(float(v) % 1.0 for v in vals)
    for a, b in zip(fr, fr[1:]):
        if b - a < FLOAT_INTEGER_GUARD:
            return False
    return not (len(fr) > 1 and (fr[0] + 1.0) - fr[-1] < FLOAT_INTEGER_GUARD)


def ref_rescale(points: PointSet, generators, seed: int = 0):
    """The rescaling loop: Fraction projections times each candidate alpha."""
    obstruction = None
    for alpha in _golden_candidates(seed):
        ok = True
        for a in generators:
            if not ref_is_idf([a.dot(v) * alpha for v in points.points]):
                ok = False
                obstruction = (alpha, a)
                break
        if ok:
            flags = {(a.x, a.y): True for a in generators}
            return alpha, replace(
                points,
                points=tuple(Vec2(v.x * alpha, v.y * alpha) for v in points.points),
                window=points.window.scaled(alpha),
                alpha=points.alpha * alpha,
                idf_per_generator={**points.idf_per_generator, **flags},
            )
    raise PointSetError(
        "no idf rescaling found in 64 candidates; "
        f"last obstruction: alpha={obstruction[0]} generator={obstruction[1]}"
    )


def ref_floor_table(points: PointSet, shape: PolygonShape):
    """The floor table from Fraction projections: a float filter, then
    guarded_floor of the projection difference near an integer."""
    pts = points.points
    tables = []
    for a in shape.generators:
        proj = [a.dot(v) for v in pts]
        col = np.array([float(t) for t in proj])
        diff = col[:, None] - col[None, :]
        tab = np.floor(diff)
        guard = FLOAT_INTEGER_GUARD * (1.0 + np.abs(col).max(initial=0.0))
        near = np.abs(diff - np.rint(diff)) < guard
        np.fill_diagonal(near, False)
        np.fill_diagonal(tab, 0.0)
        for u, v in zip(*np.nonzero(near)):
            tab[u, v] = guarded_floor(proj[u] - proj[v], what=f"projection difference ({u}, {v})")
        tables.append(tab.astype(np.int64).tolist())
    return tables


def outcome(fn, *args):
    """fn(*args), or the class and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def typed(points):
    return [(type(c), c) for v in points for c in (v.x, v.y)]


# ---------------------------------------------------------------------------
# strategies

# rationals with small denominators, so projections often differ by integers
small_rationals = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]))
coordinates = st.one_of(st.integers(-3, 3), small_rationals)


def near_zero(d):
    """sqrt(d) - c for the rational c just below it: about 1e-13, so
    differences that include it sit next to an integer yet are irrational."""
    return SqrtExt(0, 1, d) - F(math.isqrt(d * 10**26), 10**13)


@st.composite
def scalars(draw, d):
    """An int, a Fraction, or (for d > 0) a SqrtExt over d, some of them
    within 1e-12 of a rational."""
    c = draw(coordinates)
    if d and draw(st.booleans()):
        if draw(st.booleans()):
            return c + draw(st.sampled_from([1, -1])) * near_zero(d)
        return SqrtExt(c, draw(st.sampled_from([F(1), F(-1), F(1, 2)])), d)
    return c


def exact_sets(d):
    """Point sets over Q, or over Q(sqrt(d)) when d > 0, with ints beside
    Fractions and negative coordinates; some points sit an integer vector
    away from another, so alpha = 1 fails."""

    @st.composite
    def build(draw):
        pts = draw(st.lists(st.builds(Vec2, scalars(d), scalars(d)), min_size=1, max_size=10))
        for _ in range(draw(st.integers(0, 2))):
            v = draw(st.sampled_from(pts))
            pts.append(Vec2(v.x + draw(st.integers(-2, 2)), v.y + draw(st.integers(-2, 2))))
        unique = {}
        for v in pts:
            unique.setdefault(tuple(F(c) if isinstance(c, int) else c for c in (v.x, v.y)), v)
        return PointSet(tuple(unique.values()), Window(F(-9), F(-9), F(9), F(9)), 0, "rational")

    return build()


float_sets = st.lists(
    st.builds(Vec2, st.integers(-12, 12).map(lambda k: k / 4), st.floats(-3, 3, allow_nan=False)),
    min_size=1,
    max_size=8,
    unique_by=lambda v: (v.x, v.y),
).map(lambda pts: PointSet(tuple(pts), Window(-9.0, -9.0, 9.0, 9.0), 0))

SQRT3_HEXAGON = PolygonShape([Vec2(1, 0), Vec2(F(1, 2), R3 / 2), Vec2(F(-1, 2), R3 / 2)])
# shape name -> (shape, the radicand of its generators)
SHAPES = {
    "square": (square_linf(), 0),
    "box": (box_shape(Vec2(1, 0), Vec2(1, 2)), 0),
    "fraction-box": (box_shape(Vec2(F(1, 3), F(2, 5)), Vec2(F(-1, 2), 1)), 0),
    "hexagon": (rational_hexagon(), 0),
    "sqrt3-hexagon": (SQRT3_HEXAGON, 3),
}


@st.composite
def problems(draw):
    """A shape and a point set sharing a field with its generators."""
    shape, d = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    kind = draw(st.sampled_from(["float", "rational", "sqrt"] if d == 0 else ["rational", "sqrt"]))
    if kind == "float":
        return shape, draw(float_sets)
    return shape, draw(exact_sets(0 if kind == "rational" else d or draw(st.sampled_from([2, 5]))))


# ---------------------------------------------------------------------------
# sampler


@st.composite
def windows(draw):
    """Exact windows: ints beside Fractions, negative corners, and axes over
    sqrt(2) or sqrt(3), one radicand per axis."""

    def axis():
        lo = draw(coordinates)
        width = draw(st.sampled_from([F(1), F(1, 3), 2, F(5, 2)]))
        if draw(st.booleans()):
            r = draw(st.sampled_from([R2, R3]))
            shift = draw(st.sampled_from([r, -r, r / 3]))
            return (lo + shift, lo + shift + width) if draw(st.booleans()) else (lo, lo + width * r)
        return lo, lo + width

    (x0, x1), (y0, y1) = axis(), axis()
    return Window(x0, y0, x1, y1)


@settings(max_examples=150, deadline=None)
@given(windows(), st.sampled_from([0.5, 3.0, 12.0]), st.integers(0, 2**31))
@example(Window(0, 0, 1, 1), 12.0, 1)
@example(Window(R2, F(0), R2 + 1, F(1, 2)), 12.0, 2)
@example(Window(R2, R3, R2 + 1, R3 + 1), 12.0, 3)  # two radicands: refused alike
def test_rational_sampler_matches_fraction_reference(window, intensity, seed):
    got = outcome(sample_poisson_window, window, intensity, seed, "rational")
    want = outcome(ref_sample_rational, window, intensity, seed)
    if isinstance(want, tuple):
        assert got == want
        return
    assert typed(got.points) == typed(want.points)
    assert got.field == want.field


# a window 16 doubles wide on each axis, so the float sampler repeats rows
# and draws again; 40 points on average leave the 256 rows far from full
_ULP = math.ulp(1e6)
DENSE_FLOAT_WINDOW = Window(1e6, 1e6, 1e6 + 16 * _ULP, 1e6 + 16 * _ULP)


@st.composite
def column_set_cases(draw):
    """Arguments of `column_and_vec2_sets`; the sets are built in the test,
    so that no repr of a drawn example reads their points first."""
    kind = draw(st.sampled_from(["float", "dense-float", "rational", "rescaled"]))
    seed = draw(st.integers(0, 2**31))
    intensity = draw(st.sampled_from([0.5, 3.0, 12.0]))
    shape = draw(st.sampled_from(["square", "box", "fraction-box", "hexagon"]))
    if kind == "float":
        x0, y0 = draw(st.integers(-3, 3)) / 2, draw(st.floats(-5, 5))
        window = Window(x0, y0, x0 + draw(st.sampled_from([1.0, 2.5])), y0 + 1.5)
    elif kind == "dense-float":
        window = DENSE_FLOAT_WINDOW
        intensity = draw(st.integers(1, 40)) / float(window.area())
    else:
        window = draw(windows())
    return kind, window, intensity, seed, shape


def column_and_vec2_sets(kind, window, intensity, seed, shape):
    """A set from the samplers or `rescale_to_idf`, which store columns, and
    the same set built from the references' Vec2s."""
    if kind in ("float", "dense-float"):
        return sample_poisson_window(window, intensity, seed), ref_sample_float(window, intensity, seed)
    got = outcome(sample_poisson_window, window, intensity, seed, "rational")
    want = outcome(ref_sample_rational, window, intensity, seed)
    if kind == "rescaled" and isinstance(got, PointSet):
        gens = SHAPES[shape][0].generators
        got = outcome(rescale_to_idf, got, gens, seed)
        want = outcome(ref_rescale, want, gens, seed)
        got, want = (got, want) if isinstance(want[0], type) else (got[1], want[1])
    return got, want


@settings(max_examples=200, deadline=None)
@given(column_set_cases())
@example(("dense-float", DENSE_FLOAT_WINDOW, 1e19, 1, "square"))
def test_column_sets_match_vec2_sets(case):
    got, want = column_and_vec2_sets(*case)
    if not isinstance(want, PointSet):
        assert got == want
        return
    # read before the tuple is built, so from the columns (an empty float
    # sample is the empty tuple, whose field is Q)
    built = lambda: "points" in vars(got) and len(got) > 0
    assert not built()
    assert (len(got), got.field, got.fingerprint()) == (len(want), want.field, want.fingerprint())
    assert pointset_to_json(got) == pointset_to_json(want)
    assert got.as_array().shape == want.as_array().shape == (len(want), 2)
    assert got.as_array().tobytes() == want.as_array().tobytes()
    assert not got.as_array().flags.writeable
    assert got == want and want == got
    assert [got[i] for i in range(len(got))] == list(want.points)
    assert not built()
    assert typed(got.points) == typed(want.points)

    # both tuples are refused alike once a bad point joins them
    meta = (want.window, want.seed, want.mode, want.alpha, want.idf_per_generator)
    extras = [(Vec2(R2, 0), Vec2(R3, 1)), (Vec2(F(1, 7), 0.25),)]
    if len(want):
        extras.append((want.points[len(want) // 2],))
    for extra in extras:
        refusal = outcome(PointSet, want.points + extra, *meta)
        assert outcome(PointSet, got.points + extra, *meta) == refusal
        # a float beside rationals makes a float set, refused in rational mode only
        assert want.mode == "float" and extra is extras[1] or refusal[0] is PointSetError
    rational = (want.window, want.seed, "rational")
    assert outcome(PointSet, got.points, *rational) == outcome(PointSet, want.points, *rational)


# ---------------------------------------------------------------------------
# is_idf


@st.composite
def mixed_values(draw):
    """Rationals and SqrtExt values over sqrt(2) and sqrt(3), with rational
    and irrational parts chosen so that keys of the two radicands coincide."""
    vals = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(small_rationals)
        kind = draw(st.sampled_from([0, 2, 3]))
        vals.append(SqrtExt(a, draw(st.sampled_from([F(1), F(-1, 3)])), kind) if kind else a)
    for _ in range(draw(st.integers(0, 2))):
        if vals:
            vals.append(draw(st.sampled_from(vals)) + draw(st.integers(-2, 2)))
    return vals


@settings(max_examples=300, deadline=None)
@given(mixed_values())
@example([R2, R3, F(3, 2)])
@example([R2, R3 + 1])
@example([R2, R2 + 1])
@example([1, F(3)])
def test_is_idf_matches_fractional_parts(values):
    assert is_idf(values) is ref_is_idf(values)


def test_is_idf_keeps_radicands_apart():
    # sqrt(2) and sqrt(3) + 1 have equal (A mod D, B) keys in their own fields
    assert is_idf([R2, R3 + 1]) is True
    assert is_idf([R2, R2 + 1]) is False
    assert is_idf([F(1, 2), R2 + F(1, 2), R3 - F(1, 2)]) is True


# ---------------------------------------------------------------------------
# rescaling


@settings(max_examples=200, deadline=None)
@given(problems(), st.integers(0, 50))
def test_rescale_matches_fraction_reference(problem, seed):
    shape, points = problem
    got = outcome(rescale_to_idf, points, shape.generators, seed)
    want = outcome(ref_rescale, points, shape.generators, seed)
    if isinstance(want[0], type):
        assert got == want
        return
    (alpha, out), (ref_alpha, ref) = got, want
    assert (type(alpha), alpha) == (type(ref_alpha), ref_alpha)
    assert typed(out.points) == typed(ref.points)
    assert (out.window, out.alpha, out.idf_per_generator) == (ref.window, ref.alpha, ref.idf_per_generator)


def test_rescale_matches_reference_when_alpha_is_not_one():
    # x-projections 1/2 and 3/2, and sqrt 2 and sqrt 2 + 1, differ by 1
    square = square_linf().generators
    for pts in (
        (Vec2(0, 0), Vec2(F(1, 2), F(1, 5)), Vec2(F(3, 2), F(1, 3))),
        (Vec2(R2, F(1, 3)), Vec2(R2 + 1, F(1, 2))),
    ):
        ps = PointSet(pts, Window(F(-9), F(-9), F(9), F(9)), 0, "rational")
        alpha, out = rescale_to_idf(ps, square, 1)
        ref_alpha, ref = ref_rescale(ps, square, 1)
        assert alpha != 1
        assert (alpha, typed(out.points)) == (ref_alpha, typed(ref.points))


def test_rescale_refuses_generators_over_another_radicand():
    # the projections on (sqrt 3, 0) of points over sqrt(2) have no field;
    # rescaling refuses them as every kernel refuses such a shape
    ps = PointSet((Vec2(F(1, 3), R2), Vec2(F(1, 2), F(0))), Window(F(-9), F(-9), F(9), F(9)), 0, "rational")
    with pytest.raises(PointSetError, match=r"radicands \[2, 3\] have no common field"):
        rescale_to_idf(ps, [Vec2(R3, 0), Vec2(0, 1)])


# ---------------------------------------------------------------------------
# floor tables


# a float set holding exact points: (0, 1) differ by exactly 1 in x, which
# the float columns put within the guard of -1
MIXED_FLOAT_SET = PointSet(
    (Vec2(F(1, 3), F(0)), Vec2(F(4, 3), F(1, 7)), Vec2(0.5, 0.25), Vec2(F(7, 3), F(2))), Window(-9.0, -9.0, 9.0, 9.0), 0
)


@st.composite
def floor_problems(draw):
    """The problems, float generators (the regular hexagon) over Q sets, and
    float sets of Vec2s holding exact points beside floats."""
    kind = draw(st.sampled_from(["problem", "problem", "float-generators", "mixed"]))
    if kind == "problem":
        return draw(problems())
    if kind == "float-generators":
        return regular_hexagon(), draw(exact_sets(0))
    shape = SHAPES[draw(st.sampled_from(["square", "box", "fraction-box", "hexagon"]))][0]
    # a float equal to an exact point is the same Vec2: keep the first
    pts = tuple(dict.fromkeys(draw(exact_sets(0)).points + draw(float_sets).points))
    return shape, PointSet(pts, Window(-9.0, -9.0, 9.0, 9.0), 0)


@settings(max_examples=400, deadline=None)
@given(floor_problems())
@example(
    (
        square_linf(),
        PointSet(
            (Vec2(near_zero(2), F(1, 3)), Vec2(F(0), F(1, 2)), Vec2(1 - near_zero(2), F(0)), Vec2(F(-1), -near_zero(2))),
            Window(F(-9), F(-9), F(9), F(9)), 0, "rational",
        ),
    )
)
@example(
    (
        regular_hexagon(),
        PointSet(
            (Vec2(F(1, 3), F(0)), Vec2(F(4, 3), F(1, 7)), Vec2(F(1, 2), F(1, 4))),
            Window(F(-9), F(-9), F(9), F(9)), 0, "rational",
        ),
    )
)
@example((square_linf(), MIXED_FLOAT_SET))
def test_floor_table_matches_fraction_reference(problem):
    shape, points = problem
    got = outcome(_floor_table, points, shape)
    want = outcome(ref_floor_table, points, shape)
    assert got == want


def test_floor_table_float_boundary_refused_alike():
    # quarter-spaced floats sit at exact integer differences
    pts = PointSet((Vec2(0.25, 0.5), Vec2(1.25, 0.75), Vec2(2.0, 0.0)), Window(-9.0, -9.0, 9.0, 9.0), 0)
    for fn in (_floor_table, ref_floor_table):
        with pytest.raises(BoundaryAmbiguityError, match=r"\(0, 1\)"):
            fn(pts, square_linf())
