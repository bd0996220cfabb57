"""Line-family growth, windowing, and mod-1 offset density."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from larg_lab.exact import SqrtExt, exact_div, fractional_part
from larg_lab.geometry import Vec2, rational_hexagon, square_linf
from larg_lab.grids import GridError, LineFamily, generate_grid, grid_offsets, offset_gaps

F = Fraction

HEX_GENS = rational_hexagon().generators
BOX_GENS = square_linf().generators
SQRT2_M1 = SqrtExt(-1, 1, 2)  # sqrt(2) - 1
GOLDEN_M1 = SqrtExt(F(-1, 2), F(1, 2), 5)  # (sqrt(5) - 1) / 2


# ---------------------------------------------------------------------------
# oracles


def oracle_line_fracs(r, z1_values):
    """Mod-1 offsets of lines with offsets z1*r + z2: direct enumeration."""
    return {fractional_part(z1 * r) for z1 in z1_values}


def reference_grid_offsets(family: LineFamily, a: Vec2) -> list:
    """grid_offsets line by line: fractional_part of each offset, deduped
    on the values in line order, sorted by float."""
    fracs = dict.fromkeys(fractional_part(ell.offset) for ell in family.lines_with_normal(a))
    return sorted(fracs, key=float)


def assert_same_offsets(family: LineFamily):
    """grid_offsets equals the reference for every normal: values, types, order."""
    for a in family.generators:
        got, want = grid_offsets(family, a), reference_grid_offsets(family, a)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]


def line_keys(family: LineFamily):
    return {(ell.normal, ell.offset) for ell in family.all_lines()}


def two_point_base(r):
    return (Vec2(F(0), F(0)), Vec2(r, F(0)))


# ---------------------------------------------------------------------------
# structure


def test_box_case_stops_at_level_zero():
    fam = generate_grid((Vec2(F(0), F(0)),), BOX_GENS, 4, 3)
    assert len(fam.levels) == 5
    assert all(lv == () for lv in fam.levels[1:])
    # integer grid: offsets -3..3 per axis
    assert len(fam.levels[0]) == 2 * 7
    assert grid_offsets(fam, Vec2(F(1), F(0))) == [0]
    assert grid_offsets(fam, Vec2(F(0), F(1))) == [0]


def test_depth_zero_is_level_zero_only():
    base = two_point_base(F(1, 3))
    fam = generate_grid(base, HEX_GENS, 0, 2)
    assert len(fam.levels) == 1
    for b in base:
        for g in HEX_GENS:
            assert any(
                ell.normal == g and ell.offset == g.dot(b) for ell in fam.levels[0]
            )


def test_window_rule_holds_everywhere():
    base = two_point_base(SQRT2_M1)
    fam = generate_grid(base, HEX_GENS, 3, 2)
    for ell in fam.all_lines():
        shifts = [abs(ell.offset - ell.normal.dot(b)) for b in base]
        assert min(shifts) <= 2


def test_no_duplicate_lines_and_sorted_levels():
    fam = generate_grid(two_point_base(SQRT2_M1), HEX_GENS, 3, 2)
    keys = [(ell.normal, ell.offset) for ell in fam.all_lines()]
    assert len(keys) == len(set(keys))
    for lv in fam.levels:
        order = [(HEX_GENS.index(ell.normal), float(ell.offset)) for ell in lv]
        assert order == sorted(order)


def test_monotone_in_depth():
    rng = np.random.default_rng(5)
    for _ in range(12):
        b2 = Vec2(F(int(rng.integers(1, 12)), 7), F(int(rng.integers(-8, 8)), 5))
        base = (Vec2(F(0), F(0)), b2)
        prev: set = set()
        for depth in range(3):
            fam = generate_grid(base, HEX_GENS, depth, 1)
            cur = line_keys(fam)
            assert prev <= cur
            prev = cur


def test_validation_errors():
    origin = (Vec2(F(0), F(0)),)
    with pytest.raises(GridError):
        generate_grid((), HEX_GENS, 1, 2)
    with pytest.raises(GridError):
        generate_grid(origin, (Vec2(F(1), F(0)), Vec2(F(2), F(0)), Vec2(F(-1), F(0))), 1, 2)
    with pytest.raises(GridError):
        generate_grid(origin, (Vec2(F(0), F(0)), Vec2(F(1), F(0))), 1, 2)
    with pytest.raises(GridError):
        generate_grid(origin, HEX_GENS, -1, 2)
    with pytest.raises(GridError):
        generate_grid(origin, HEX_GENS, 1, 0)
    fam = generate_grid(origin, HEX_GENS, 1, 2)
    with pytest.raises(GridError):
        grid_offsets(fam, Vec2(F(2), F(2)))


def test_parallel_generators_deduplicate():
    gens = (Vec2(F(1), F(0)), Vec2(F(2), F(0)), Vec2(F(0), F(1)))
    fam = generate_grid((Vec2(F(0), F(0)),), gens, 1, 2)
    assert fam.generators == (Vec2(F(1), F(0)), Vec2(F(0), F(1)))


# ---------------------------------------------------------------------------
# offset arithmetic


def test_sqrt2_offsets_reach_lemma_range():
    fam = generate_grid(two_point_base(SQRT2_M1), HEX_GENS, 6, 5)
    a = Vec2(F(1), F(0))
    offsets = {ell.offset for ell in fam.lines_with_normal(a)}
    for z1 in range(-3, 4):
        for z2 in range(-3, 4):
            assert z1 * SQRT2_M1 + z2 in offsets
    # conversely each offset is z1*r + z2 with small certified coefficients
    achieved = set()
    for c in offsets:
        if isinstance(c, SqrtExt):
            z1 = c.b
            z2 = c.a + c.b
        else:
            z1 = 0
            z2 = c
        assert z1 == int(z1) and z2 == int(z2)
        assert abs(z1) <= 2**6
        achieved.add(int(z1))
    # mod-1 offsets match the direct z1-enumeration oracle exactly
    fracs = grid_offsets(fam, a)
    assert set(fracs) == oracle_line_fracs(SQRT2_M1, achieved)
    assert max(offset_gaps(fracs)) < 0.1


def test_golden_ratio_offsets_dense_mod_one():
    fam = generate_grid(two_point_base(GOLDEN_M1), HEX_GENS, 6, 5)
    a = Vec2(F(1), F(0))
    achieved = set()
    for ell in fam.lines_with_normal(a):
        c = ell.offset
        if isinstance(c, SqrtExt):
            z1 = 2 * c.b  # offsets are (z2 - z1/2) + (z1/2) sqrt(5)
            assert z1 == int(z1)
            achieved.add(int(z1))
        else:
            achieved.add(0)
    fracs = grid_offsets(fam, a)
    assert set(fracs) == oracle_line_fracs(GOLDEN_M1, achieved)
    gaps = offset_gaps(fracs)
    assert max(gaps) < 0.1
    # three-distance structure: consecutive gaps take few distinct values
    assert len({round(g, 9) for g in gaps}) <= 3


def test_rational_r_offsets_never_dense():
    fam = generate_grid(two_point_base(F(1, 3)), HEX_GENS, 6, 5)
    fracs = grid_offsets(fam, Vec2(F(1), F(0)))
    assert set(fracs) <= {F(0), F(1, 3), F(2, 3)}
    assert min(offset_gaps(fracs)) >= 1 / 3 - 1e-12


def test_float_input_refused():
    base_q = two_point_base(F(5, 8))
    base_f = tuple(Vec2(float(b.x), float(b.y)) for b in base_q)
    gens_f = tuple(Vec2(float(g.x), float(g.y)) for g in HEX_GENS)
    with pytest.raises(GridError, match="float"):
        generate_grid(base_f, HEX_GENS, 1, 2)
    with pytest.raises(GridError, match="float"):
        generate_grid(base_q, gens_f, 1, 2)
    with pytest.raises(GridError, match="float"):
        generate_grid(base_q, HEX_GENS, 1, 2.0)


def test_mixed_radicands_refused():
    base = (Vec2(SqrtExt(0, 1, 2), F(0)), Vec2(F(0), SqrtExt(0, 1, 3)))
    with pytest.raises(GridError, match="radicands"):
        generate_grid(base, HEX_GENS, 1, 2)


# ---------------------------------------------------------------------------
# integer offsets against a direct exact reference


def reference_levels(base, gens, depth, window):
    """Line sets per level by direct exact arithmetic: intersect every new
    line with every line seen so far and project the point on the other
    normals, then add the windowed integer parallels."""

    def windowed(a, c):
        out = set()
        for b in base:
            pb = a.dot(b)
            lo, hi = -math.floor(c + window - pb), math.floor(pb + window - c)
            out.update((a, c + z) for z in range(lo, hi + 1))
        return out

    seen, levels = set(), []
    level = set().union(*(windowed(a, a.dot(b)) for a in gens for b in base))
    while True:
        level -= seen
        seen |= level
        levels.append(level)
        if len(levels) > depth:
            return levels
        hits = set()
        for a1, c1 in level:
            for a2, c2 in seen:
                det = a1.cross(a2)
                if det == 0:
                    continue
                x = Vec2(
                    exact_div(c1 * a2.y - c2 * a1.y, det),
                    exact_div(a1.x * c2 - a2.x * c1, det),
                )
                hits.update((a3, a3.dot(x)) for a3 in gens if a3 not in (a1, a2))
        level = set().union(*(windowed(a, c) for a, c in hits))


GEN_FAMILIES = {
    "hexagon": HEX_GENS,
    "diagonal": (Vec2(F(1), F(0)), Vec2(F(0), F(1)), Vec2(F(1), F(-1))),
    "non-unit": (Vec2(F(1), F(0)), Vec2(F(0), F(1)), Vec2(F(1), F(2))),
    "sqrt2-normal": (Vec2(F(1), F(0)), Vec2(F(0), F(1)), Vec2(F(1), SqrtExt(0, 1, 2))),
}


@st.composite
def grid_problems(draw):
    """Base points over Q or one Q(sqrt d), a generator family, depth, window."""
    family = draw(st.sampled_from(sorted(GEN_FAMILIES)))
    d = 2 if family == "sqrt2-normal" else draw(st.sampled_from([None, 2, 3, 5]))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=9)

    def scalar():
        a = draw(small)
        if d is None or draw(st.booleans()):
            return a
        return SqrtExt.make(a, draw(small), d)

    base = tuple(Vec2(scalar(), scalar()) for _ in range(draw(st.integers(1, 2))))
    depth = draw(st.integers(0, 2))
    window = draw(st.sampled_from([F(1, 2), 1]))
    return base, GEN_FAMILIES[family], depth, window


@settings(max_examples=50, deadline=None)
@given(grid_problems())
def test_generate_grid_matches_reference(problem):
    base, gens, depth, window = problem
    fam = generate_grid(base, gens, depth, window)
    # the reference is quadratic in exact arithmetic; keep each example small
    assume(len(fam) <= 250)
    want = reference_levels(base, fam.generators, depth, window)
    assert len(fam.levels) == depth + 1
    for lv, ref in zip(fam.levels, want):
        assert {(ell.normal, ell.offset) for ell in lv} == ref
        assert len(lv) == len(ref)
        order = [(fam.generators.index(ell.normal), float(ell.offset)) for ell in lv]
        assert order == sorted(order)
        assert all(isinstance(ell.offset, (F, SqrtExt)) for ell in lv)


def test_four_classes_match_reference_at_depth_three():
    # with four direction classes the offsets' denominators keep growing
    # (c1 = (c3 + c4) / 2 halves them again at every level), which only the
    # common denominator D0 * L^depth covers
    gens = (Vec2(F(1), F(0)), Vec2(F(0), F(1)), Vec2(F(1), F(1)), Vec2(F(1), F(-1)))
    base = (Vec2(F(0), F(0)), Vec2(F(1, 3), F(1, 2)))
    fam = generate_grid(base, gens, 3, F(1, 2))
    want = reference_levels(base, fam.generators, 3, F(1, 2))
    assert [{(ell.normal, ell.offset) for ell in lv} for lv in fam.levels] == want
    assert max(ell.offset.denominator for ell in fam.levels[3]) >= 24  # D0 = 6


def test_grid_offsets_match_reference_on_benchmark_bases():
    # the benchmark's grids: a shifted base with spacing sqrt(2) - 1 (window
    # 2) and with spacing 1/3 (window 5), both to depth 6
    t = Vec2(F(5, 13), F(9, 13))
    for r, window in ((SQRT2_M1, 2), (F(1, 3), 5)):
        assert_same_offsets(generate_grid((t, t + Vec2(r, F(0))), HEX_GENS, 6, window))


@settings(max_examples=50, deadline=None)
@given(grid_problems())
def test_grid_offsets_match_reference(problem):
    assert_same_offsets(generate_grid(*problem))
