"""Windowed samplers, idf structure, rescaling, and PointSet round trips."""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from larg_lab.exact import FLOAT, SqrtExt
from larg_lab.geometry import Vec2, box_shape, distance, rational_hexagon, square_linf
from larg_lab.larg import in_range_pairs, sample_larg
from larg_lab.pointsets import (
    PointSet,
    PointSetError,
    Window,
    is_idf,
    pointset_from_json,
    pointset_to_json,
    projections,
    rescale_to_idf,
    sample_poisson_window,
)
from larg_lab.stepiso import box_product_point_map, canonical_interleaving, is_step_isometry


def poisson_tail_outside(lam: float, lo: int, hi: int) -> float:
    """Oracle: P(N < lo or N > hi) for N ~ Poisson(lam), by direct summation."""
    total = 0.0
    for k in range(lo, hi + 1):
        total += math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
    return 1.0 - total


# ---------------------------------------------------------------------------
# windows


def test_window_validation_and_area():
    with pytest.raises(PointSetError):
        Window(0, 0, 0, 1)
    w = Window(Fraction(0), Fraction(0), Fraction(3), Fraction(2))
    assert w.area() == 6
    assert w.scaled(Fraction(-2)) == Window(-6, -4, 0, 0)


def in_window(w, v) -> bool:
    return w.x0 <= v.x <= w.x1 and w.y0 <= v.y <= w.y1


# ---------------------------------------------------------------------------
# poisson sampler


def test_poisson_count_within_oracle_band():
    # oracle says mass outside [50, 150] is < 1e-4 for lambda = 100
    assert poisson_tail_outside(100.0, 50, 150) < 1e-4
    ps = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 100.0, seed=42)
    assert 50 <= len(ps) <= 150
    assert all(in_window(ps.window, p) for p in ps.points)


def test_poisson_determinism_bit_identical():
    w = Window(0.0, 0.0, 2.0, 1.0)
    a = sample_poisson_window(w, 30.0, seed=7)
    b = sample_poisson_window(w, 30.0, seed=7)
    assert a.points == b.points
    assert a.fingerprint() == b.fingerprint()
    c = sample_poisson_window(w, 30.0, seed=8)
    assert a.points != c.points


def test_poisson_mean_count_tracks_intensity():
    # density proxy: over 100 seeds the mean count stays within 5% of lam*area
    lam_area = 1000.0
    counts = [
        len(sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), lam_area, seed=s))
        for s in range(100)
    ]
    assert abs(np.mean(counts) - lam_area) / lam_area < 0.05


def test_poisson_rational_mode_exact_points():
    w = Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2))
    ps = sample_poisson_window(w, 10.0, seed=3, mode="rational")
    assert ps.mode == "rational"
    assert all(p.is_exact() for p in ps.points)
    # same seed, same draw
    again = sample_poisson_window(w, 10.0, seed=3, mode="rational")
    assert ps.points == again.points


def test_empty_point_set_array_is_n_by_2():
    # the docstring's n x 2 holds at n = 0, so column slices still work
    for window, mode in (
        (Window(0.0, 0.0, 1.0, 1.0), "float"),
        (Window(Fraction(0), Fraction(0), Fraction(1), Fraction(1)), "rational"),
    ):
        ps = PointSet((), window, seed=0, mode=mode)
        arr = ps.as_array()
        assert arr.shape == (0, 2) and arr.dtype == float
        assert arr[:, 0].shape == (0,)


def test_poisson_rejects_bad_inputs():
    unit = Window(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(PointSetError):
        sample_poisson_window(unit, 0.0, seed=1)
    with pytest.raises(PointSetError):
        sample_poisson_window(unit, 5.0, seed=1, mode="odd")
    with pytest.raises(PointSetError):
        sample_poisson_window(unit, 5.0, seed=1, mode="rational")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PointSetError, match=f"intensity must be positive and finite, got {bad!r}"):
            sample_poisson_window(unit, bad, seed=1)
    # the mean count intensity * area: no finite float (an exact area past
    # the float range, a float area that overflows), or too large for numpy
    for window, intensity, mean in (
        (Window(Fraction(0), Fraction(0), Fraction(10**200), Fraction(10**200)), 1.0, "inf"),
        (Window(0.0, 0.0, 1e200, 1e200), 1.0, "inf"),
        (unit, 1e30, r"1e\+30"),
    ):
        with pytest.raises(PointSetError, match=f"mean point count {mean} .* is too large to sample"):
            sample_poisson_window(window, intensity, seed=1)
    for bound in (math.inf, -math.inf, math.nan):
        with pytest.raises(PointSetError, match=f"window bound {bound!r} is not finite"):
            Window(0.0, 0.0, bound, 1.0)
        with pytest.raises(PointSetError, match="not finite"):
            Window(bound, 0.0, 1.0, 1.0)


# the sampler's output at the commit before point sets stored columns:
# name -> (set, fingerprint(), sha256 of pointset_to_json); the files have
# since dropped their "flags" section and nothing else
def _pinned_sets():
    R2 = SqrtExt(0, 1, 2)
    F = Fraction
    rational = sample_poisson_window(Window(F(0), F(0), F(3, 2), F(3, 2)), 8.0, seed=4, mode="rational")
    unit_alpha, rescaled = rescale_to_idf(rational, [Vec2(1, 0), Vec2(1, 2)], seed=1)
    alpha, scaled = rescale_to_idf(rational, [Vec2(1 << 40, 0), Vec2(1 << 40, 1 << 41)], seed=1)
    assert (unit_alpha, alpha) == (1, F(10059505, 1346269))
    return {
        "float": (
            sample_poisson_window(Window(0.0, 0.0, 3.0, 2.0), 20.0, seed=7),
            "eff724181324d4c7",
            "a2e14a18b78edeaa613be93c081211a33ca1725ea10823497663a5a36ffc1a88",
        ),
        "rational": (
            rational,
            "09810ba14364e066",
            "6556e29ec9fd34d749d880f451b33f105f811963c6c2e36d531e041cddaa650c",
        ),
        "sqrt2": (
            sample_poisson_window(Window(F(0), F(-1), R2 + 1, F(2)), 6.0, seed=3, mode="rational"),
            "00dbe146ab324afc",
            "32cc58b379bc09eb3aecd64cc9d9fe7d4ca90de06b5079cc97cc26f6d7c3ee92",
        ),
        "rescaled": (
            rescaled,
            "09810ba14364e066",
            "6556e29ec9fd34d749d880f451b33f105f811963c6c2e36d531e041cddaa650c",
        ),
        "rescaled-alpha": (
            scaled,
            "775bce2a71c03f0c",
            "1a3017eb7a2f9d0df357a95e57afc71dd6d7cc5b4b12ef2e56902121d97d5ec1",
        ),
    }


def test_sampler_output_is_pinned():
    for name, (ps, fp, digest) in _pinned_sets().items():
        assert (name, ps.fingerprint()) == (name, fp)
        assert (name, hashlib.sha256(pointset_to_json(ps).encode()).hexdigest()) == (name, digest)


def test_float_kernels_leave_the_vec2_tuple_unbuilt():
    # the float sweep, the edge coins, the box map and the step check read
    # the arrays of the domain and the images, and build a Vec2 only for a
    # pair near a boundary
    ps = sample_poisson_window(Window(0.0, 0.0, 6.0, 6.0), 10.0, seed=3)
    box = box_shape(Vec2(1, 0), Vec2(1, 2))
    for shape in (square_linf(), rational_hexagon(), box):
        assert len(sample_larg(ps, shape, 1, 0.5, 7).edges) > 0
        assert len(in_range_pairs(ps, shape, 1)[0]) > 0
    pmap = box_product_point_map(ps, box, canonical_interleaving(), canonical_interleaving())
    assert is_step_isometry(pmap, box).ok
    for pts in (ps, pmap.images):
        assert "points" not in vars(pts)
        assert len(pts.points) == len(pts)


# ---------------------------------------------------------------------------
# product sets (unions of per-interval draws on each axis)


def interval_union_product(window, per_interval, seed, exact=False):
    """Per axis, `per_interval` draws in each integer interval meeting the
    window, kept inside it; the point set is the product of the two axes."""
    rng = np.random.default_rng(seed)

    def axis(lo, hi):
        vals = set()
        for z in range(math.floor(lo), math.ceil(hi)):
            for k in rng.integers(0, 1 << 20, per_interval):
                v = z + Fraction(int(k), 1 << 20)
                if lo <= v <= hi:
                    vals.add(v if exact else float(v))
        return sorted(vals)

    xs, ys = axis(window.x0, window.x1), axis(window.y0, window.y1)
    pts = tuple(Vec2(x, y) for x in xs for y in ys)
    return PointSet(pts, window, seed, mode="rational" if exact else "float")


def test_interval_union_is_a_product_set():
    w = Window(0.0, 0.0, 2.5, 1.5)
    ps = interval_union_product(w, per_interval=3, seed=11)
    xs = sorted(set(projections(ps.points, Vec2(1, 0))))
    ys = sorted(set(projections(ps.points, Vec2(0, 1))))
    assert len(ps) == len(xs) * len(ys)
    # every integer interval intersecting the range contributed
    for z in range(0, 3):
        assert any(z < x < z + 1 for x in xs)
    assert all(in_window(w, p) for p in ps.points)


def test_interval_union_same_contract_as_poisson():
    w = Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2))
    ps = interval_union_product(w, per_interval=2, seed=5, exact=True)
    assert ps.mode == "rational" and all(p.is_exact() for p in ps.points)
    again = interval_union_product(w, per_interval=2, seed=5, exact=True)
    assert again.points == ps.points and again.fingerprint() == ps.fingerprint()
    back = pointset_from_json(pointset_to_json(ps))
    assert back.points == ps.points and back.fingerprint() == ps.fingerprint()


# ---------------------------------------------------------------------------
# idf predicates


def test_is_idf_examples():
    assert is_idf([0.1, 0.25, 1.4]) is True
    assert is_idf([0.3, 2.3]) is False
    assert is_idf([Fraction(1, 10), Fraction(1, 4), Fraction(7, 5)]) is True
    assert is_idf([Fraction(3, 10), Fraction(23, 10)]) is False
    assert is_idf([]) is True
    assert is_idf([Fraction(1, 2), Fraction(1, 2)]) is False  # difference 0


def test_is_idf_float_wraparound():
    assert is_idf([0.9999999999, 2.0000000001]) is False
    assert is_idf([0.2, 1.7]) is True


def test_projections():
    pts = [Vec2(1, 2), Vec2(Fraction(1, 2), Fraction(1, 3))]
    assert projections(pts, Vec2(1, 1)) == [3, Fraction(5, 6)]


# ---------------------------------------------------------------------------
# rescaling


def _flat_set(values, mode="rational"):
    pts = tuple(Vec2(v, Fraction(0) if mode == "rational" else 0.0) for v in values)
    w = (
        Window(Fraction(-10), Fraction(-1), Fraction(10), Fraction(1))
        if mode == "rational"
        else Window(-10.0, -1.0, 10.0, 1.0)
    )
    return PointSet(pts, w, seed=0, mode=mode)


def test_rescale_clears_integer_differences():
    ps = _flat_set([Fraction(0), Fraction(1, 2), Fraction(3, 2)])
    gens = [Vec2(1, 0)]
    assert not is_idf(projections(ps.points, gens[0]))  # 1/2 and 3/2 differ by 1
    alpha, out = rescale_to_idf(ps, gens, seed=1)
    assert is_idf(projections(out.points, gens[0]))
    assert out.alpha == alpha != 0
    # scaling is a single multiplier applied to everything, window included
    assert out.points[1].x / ps.points[1].x == out.alpha
    assert out.window.x1 == ps.window.x1 * out.alpha


def test_rescale_keeps_already_idf_scale():
    ps = _flat_set([Fraction(1, 10), Fraction(1, 4), Fraction(7, 5)])
    alpha, out = rescale_to_idf(ps, [Vec2(1, 0)], seed=0)
    assert alpha == 1 and out.alpha == 1
    assert out.points == ps.points


def test_rescale_for_other_generators_may_break_earlier_idf():
    # why a set records no idf claim: the second rescale takes alpha a, the
    # candidate after 1 at seed 0, and 1/a on the x axis becomes 1
    a = Fraction(14416123, 1346269)
    F = Fraction
    pts = (Vec2(F(0), F(0)), Vec2(1 / a, F(1, 3)), Vec2(F(1, 7), F(1)))
    ps = PointSet(pts, Window(F(-1), F(-1), F(2), F(2)), 0, "rational")
    alpha, once = rescale_to_idf(ps, [Vec2(1, 0)], seed=0)
    assert alpha == 1 and is_idf(projections(once.points, Vec2(1, 0)))
    alpha, twice = rescale_to_idf(once, [Vec2(0, 1)], seed=0)
    assert alpha == a and twice.alpha == a
    assert is_idf(projections(twice.points, Vec2(0, 1)))
    assert not is_idf(projections(twice.points, Vec2(1, 0)))


def test_rescale_multi_generator():
    ps = PointSet(
        (
            Vec2(Fraction(0), Fraction(0)),
            Vec2(Fraction(1, 3), Fraction(2, 3)),
            Vec2(Fraction(5, 7), Fraction(1, 7)),
            Vec2(Fraction(2), Fraction(1)),
        ),
        Window(Fraction(-3), Fraction(-3), Fraction(3), Fraction(3)),
        seed=0,
        mode="rational",
    )
    gens = list(rational_hexagon().generators)
    _, out = rescale_to_idf(ps, gens, seed=2)
    for a in gens:
        assert is_idf(projections(out.points, a))


def test_rescale_impossible_names_obstruction():
    # two distinct points share the x-projection: difference 0 for every alpha
    ps = PointSet(
        (Vec2(Fraction(0), Fraction(0)), Vec2(Fraction(0), Fraction(1))),
        Window(Fraction(-1), Fraction(-1), Fraction(1), Fraction(2)),
        seed=0,
        mode="rational",
    )
    with pytest.raises(PointSetError, match="obstruction"):
        rescale_to_idf(ps, [Vec2(1, 0)], seed=0)


# ---------------------------------------------------------------------------
# structural flags


def test_check_pairwise_noninteger():
    # on a horizontal line the sup distance is |dx|, so no pair sits at an
    # integer distance iff the x projections are integer-difference-free
    sh = square_linf()
    for xs, want in (([Fraction(0), Fraction(1, 2), Fraction(9, 4)], True), ([Fraction(0), Fraction(2)], False)):
        ps = _flat_set(xs)
        dists = [distance(sh, u, v) for i, u in enumerate(ps.points) for v in ps.points[i + 1 :]]
        assert all(d != math.floor(d) for d in dists) is want
        assert is_idf(projections(ps.points, Vec2(1, 0))) is want


def test_probe_density():
    # every probe of a 24 x 24 grid inside the window is within 0.25 of the
    # dense sample, and the single-point set leaves probes uncovered
    sh = square_linf()
    probes = [Vec2((i + 0.5) / 24, (j + 0.5) / 24) for i in range(24) for j in range(24)]

    def worst(ps):
        return max(min(distance(sh, q, p) for p in ps.points) for q in probes)

    dense = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 400.0, seed=9)
    assert worst(dense) <= 0.25
    sparse = PointSet((Vec2(0.05, 0.05),), Window(0.0, 0.0, 1.0, 1.0), seed=0, mode="float")
    assert worst(sparse) > 0.25


# ---------------------------------------------------------------------------
# validation and serialization


def test_pointset_rejects_duplicates_and_mode_mismatch():
    w = Window(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(PointSetError):
        PointSet((Vec2(0.5, 0.5), Vec2(0.5, 0.5)), w, seed=0)
    with pytest.raises(PointSetError):
        PointSet((Vec2(0.5, 0.5),), w, seed=0, mode="rational")
    # an int and the equal Fraction are one point, in Q and in Q(sqrt 2)
    F, r2 = Fraction, SqrtExt(0, 1, 2)
    exact = Window(F(0), F(0), F(3), F(3))
    with pytest.raises(PointSetError, match=r"duplicate point Vec2\(x=Fraction\(1, 1\), y=Fraction\(0, 1\)\)"):
        PointSet((Vec2(1, 0), Vec2(F(1), F(0))), exact, seed=0, mode="rational")
    with pytest.raises(PointSetError, match="duplicate point"):
        PointSet((Vec2(r2, 0), Vec2(F(1, 2), 1), Vec2(r2 + 1 - 1, F(0))), exact, seed=0, mode="rational")
    assert len(PointSet((Vec2(r2, 0), Vec2(r2, 1)), exact, seed=0, mode="rational")) == 2
    # in a float set, 1/3 and its rounding share a float row but are two
    # points, while 1/2 and 0.5 are one; -0.0 and 0.0 are one
    assert len(PointSet((Vec2(F(1, 3), 0), Vec2(1 / 3, 0.0), Vec2(-0.0, 1.0)), w, seed=0)) == 3
    with pytest.raises(PointSetError, match=r"duplicate point Vec2\(x=0\.5, y=0\.0\)"):
        PointSet((Vec2(F(1, 3), 0), Vec2(F(1, 2), 0), Vec2(1 / 3, 0.0), Vec2(0.5, 0.0)), w, seed=0)
    with pytest.raises(PointSetError, match=r"duplicate point Vec2\(x=0\.0, y=1\.0\)"):
        PointSet((Vec2(-0.0, 1.0), Vec2(0.0, 1.0)), w, seed=0)


def test_pointset_refuses_mixed_radicands():
    # SqrtExt values over different radicands do not compare, so no distance
    # between such points has an answer; the set is refused when it is made
    F = Fraction
    a, b = Vec2(SqrtExt(0, 1, 2), 0), Vec2(F(1, 2), SqrtExt(9, 1, 3))
    with pytest.raises(TypeError):
        distance(rational_hexagon(), a, b)
    w = Window(F(-1), F(-1), F(20), F(20))
    with pytest.raises(PointSetError, match=r"radicands \[2, 3\]"):
        PointSet((a, b), w, seed=0, mode="rational")
    # one radicand is fine; a replace that mixes them is refused too
    ps = PointSet((a, Vec2(F(1, 2), SqrtExt(9, 1, 2))), w, seed=0, mode="rational")
    assert distance(rational_hexagon(), *ps.points) > 0
    with pytest.raises(PointSetError, match=r"radicands \[2, 3\]"):
        replace(ps, points=(a, b))


def test_pointset_refuses_a_float_beside_a_sqrt():
    # the float filter of in_range_pairs could answer pair (0, 1) of such a
    # set, while distance cannot compute it; the set is refused when made
    a, b = Vec2(0.5, 0.0), Vec2(SqrtExt(0, 1, 2), 0)
    with pytest.raises(TypeError):
        distance(rational_hexagon(), a, b)
    with pytest.raises(PointSetError, match="a float and a SqrtExt have no common field"):
        PointSet((a, b), Window(-1.0, -1.0, 2.0, 2.0), seed=0)
    # floats beside rationals, and rationals beside a radicand, keep a field
    assert PointSet((a, Vec2(Fraction(1, 3), 0)), Window(-1.0, -1.0, 2.0, 2.0), seed=0).field == FLOAT
    assert PointSet((b, Vec2(Fraction(1, 3), 0)), Window(-1, -1, 2, 2), seed=0, mode="rational").field == 2


def test_pointset_json_round_trip_rational():
    ps = sample_poisson_window(
        Window(Fraction(0), Fraction(0), Fraction(2), Fraction(1)),
        20.0,
        seed=13,
        mode="rational",
    )
    _, ps = rescale_to_idf(ps, [Vec2(1, 0)], seed=0)
    back = pointset_from_json(pointset_to_json(ps))
    assert back.points == ps.points
    assert back.mode == "rational" and back.alpha == ps.alpha
    assert back.window == ps.window
    assert back.fingerprint() == ps.fingerprint()


def test_pointset_json_round_trip_float():
    ps = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 50.0, seed=21)
    back = pointset_from_json(pointset_to_json(ps))
    assert back.points == ps.points  # float repr round-trips exactly via json


def test_fingerprint_survives_json_round_trip():
    # an int coordinate reads back as the equal Fraction, and hashes as one
    F = Fraction
    ps = PointSet((Vec2(1, 2), Vec2(F(1, 2), 0)), Window(F(0), F(0), F(3), F(3)), 0, mode="rational")
    back = pointset_from_json(pointset_to_json(ps))
    assert back.points == ps.points
    assert ps.fingerprint() == back.fingerprint() == "ca01d87e4c13fe53"
    # Fraction, float and SqrtExt sets keep the fingerprints they had before
    kept = {
        "d574d10fced32154": PointSet(
            (Vec2(F(1, 3), F(-2, 5)), Vec2(F(7, 2), F(0))), Window(F(0), F(0), F(4), F(4)), 0, mode="rational"
        ),
        "9e2f9f2bf8801f34": PointSet((Vec2(0.25, 1.5), Vec2(-3.0, 2.0)), Window(-4.0, -4.0, 4.0, 4.0), 0),
        "5c5f8f171802a50b": PointSet(
            (Vec2(SqrtExt(1, 1, 2), F(1, 2)), Vec2(F(0), SqrtExt(F(1, 3), -1, 2))),
            Window(F(-4), F(-4), F(4), F(4)),
            0,
            mode="rational",
        ),
    }
    for fp, kept_set in kept.items():
        assert kept_set.fingerprint() == fp


def _per_point_fingerprint(ps: PointSet) -> str:
    # reference: one sha256 update per point, ints hashed as the equal Fraction
    frac = lambda c: Fraction(c) if isinstance(c, int) else c
    h = hashlib.sha256(ps.mode.encode())
    for v in ps.points:
        h.update(repr((frac(v.x), frac(v.y))).encode())
    return h.hexdigest()[:16]


def test_fingerprint_matches_per_point_reference():
    F, R2 = Fraction, SqrtExt(0, 1, 2)
    make = [
        lambda: sample_poisson_window(Window(0.0, 0.0, 3.0, 2.0), 40.0, seed=2),
        lambda: PointSet((Vec2(1, 0.5), Vec2(-2.0, 3), Vec2(0.0, -0.0)), Window(-4.0, -4.0, 4.0, 4.0), 0),
        lambda: sample_poisson_window(Window(F(0), F(0), F(2), F(2)), 10.0, seed=3, mode="rational"),
        lambda: PointSet((Vec2(1, F(2, 3)), Vec2(F(-1, 2), 0), Vec2(3, 4)), Window(F(-4), F(-4), F(4), F(4)), 0, "rational"),
        lambda: sample_poisson_window(Window(F(0), F(-1), R2 + 1, F(2)), 6.0, seed=5, mode="rational"),
        lambda: PointSet((Vec2(R2, 1), Vec2(F(1, 2), R2 * 3 - 1)), Window(F(-4), F(-4), F(4), F(4)), 0, "rational"),
    ]
    for build in make:
        ps = build()
        got = ps.fingerprint()  # before the Vec2 tuple of a sampled set is built
        assert len(ps) and got == _per_point_fingerprint(build())


def test_pointset_json_reads_older_files():
    # older files carry idf and pairwise_noninteger flags, which are not read
    text = (
        '{"seed": 4, "alpha": "1/1", "window": ["0/1", "0/1", "1/1", "1/1"], '
        '"mode": "rational", "points": [["1/2", "1/3"], ["1/4", "2/3"]]%s}'
    )
    flags = ', "flags": {"idf_per_generator": [["1/1", "0/1", true]], "pairwise_noninteger": true}'
    ps = pointset_from_json(text % flags)
    assert ps.points == (Vec2(Fraction(1, 2), Fraction(1, 3)), Vec2(Fraction(1, 4), Fraction(2, 3)))
    assert ps == pointset_from_json(text % "")
    assert pointset_to_json(ps) == text % "" and pointset_from_json(pointset_to_json(ps)) == ps


@pytest.mark.parametrize(
    "key, value", [("window", ["1/0", "0/1", "1/1", "1/1"]), ("points", [["1/0", "1/3"]]), ("alpha", "x")]
)
def test_pointset_json_refuses_a_malformed_scalar(key, value):
    obj = {"seed": 4, "alpha": "1/1", "window": ["0/1", "0/1", "1/1", "1/1"], "mode": "rational", "points": [["1/2", "1/3"]]}
    obj[key] = value
    with pytest.raises(PointSetError, match="^malformed point-set JSON: "):
        pointset_from_json(json.dumps(obj))


@pytest.mark.parametrize("seed", ["1.5", "true", '"1"'])
def test_pointset_json_refuses_a_seed_that_is_no_int(seed):
    text = '{"seed": %s, "window": ["0/1", "0/1", "1/1", "1/1"], "mode": "rational", "points": [["1/2", "1/3"]]}' % seed
    with pytest.raises(PointSetError, match="^seed must be an integer, got "):
        pointset_from_json(text)
