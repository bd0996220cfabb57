"""Tests for decay experiments and the box comparison demo."""

import dataclasses
import functools
import json
import math
import os
from fractions import Fraction
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from larg_lab import cli, experiments, larg
from larg_lab.anchoring import AnchoringError, good_enumeration
from larg_lab.exact import BoundaryAmbiguityError, close, exact_div, guarded_floor, is_exact
from larg_lab.experiments import (
    BoxDemoReport,
    DecayRow,
    ExperimentConfig,
    ExperimentError,
    _apply,
    _coin_rows,
    _extension_candidates,
    _floor_codes,
    _floor_table,
    _point_lookup,
    _surviving_trials,
    _trial_seed,
    _trial_seeds,
    back_and_forth_isomorphism,
    box_isomorphism_demo,
    box_to_linf_transform,
    paper_decay_bound,
    rows_from_csv,
    rows_to_csv,
    run_decay_experiment,
    shape_from_spec,
    wilson_interval,
)
from larg_lab.geometry import (
    LpShape,
    PolygonShape,
    Vec2,
    box_shape,
    diamond_l1,
    distance,
    rational_hexagon,
    regular_hexagon,
    shape_from_json,
    square_linf,
)
from larg_lab.larg import GeoGraph, pair_uniform, pair_uniform_array, sample_larg
from larg_lab.pointsets import (
    PointSet,
    Window,
    pointset_from_json,
    pointset_to_json,
    rescale_to_idf,
    sample_poisson_window,
)


def hex_enumeration(intensity=10.0, seed=5, size=Fraction(3, 2), shape=None):
    pts = sample_poisson_window(
        Window(Fraction(0), Fraction(0), size, size), intensity, seed=seed, mode="rational"
    )
    return good_enumeration(pts, shape or rational_hexagon())


class TestConfig:
    def test_defaults_round_trip_through_json(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg

    def test_window_reads_exact_strings_and_keeps_numbers(self):
        got = ExperimentConfig(window=["0", "1/2", 2, 2.5]).window
        assert got == (0, Fraction(1, 2), 2, 2.5)
        assert [type(c) for c in got] == [Fraction, Fraction, int, float]
        assert ExperimentConfig(window=(Fraction(1, 3), 0, 1, 1)).window[0] == Fraction(1, 3)
        for bad in ("0011", ["0", "0", "1"], ("0", "0", "1", "1", "1"), None):
            with pytest.raises(ExperimentError, match=r"window must be four numbers \(x0, y0, x1, y1\)"):
                ExperimentConfig(window=bad)
        for bad in (["0", "0", "1", None], [0, 0, 1, True], [0, 0, "one", 1], [0, 0, "1/0", 1], [0, 0, [1], 1]):
            with pytest.raises(ExperimentError, match=r"bad window .* is no number or exact string"):
                ExperimentConfig(window=bad)

    def test_rejects_bad_fields(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_values=(10, 5))
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_values=(5, 5))
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_values=(2, 5))
        with pytest.raises(ExperimentError):
            ExperimentConfig(p=0.0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(trials=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(mode="integer")
        with pytest.raises(ExperimentError):
            ExperimentConfig(window=(0.0, 0.0, 1.0))
        for policy in ("identity", "greedy"):
            with pytest.raises(ExperimentError, match=f"unknown anchor policy '{policy}'"):
                ExperimentConfig.from_json(json.dumps({"anchor_policy": policy}))

    def test_from_json_requires_mapping(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig.from_json("[1, 2, 3]")
        with pytest.raises(ExperimentError):
            ExperimentConfig.from_json('{"p": 0.5, "rounds": 3}')

    def test_legacy_anchor_policy_key_gives_the_same_rows(self):
        # older configs carry "anchor_policy": "exhaustive", the one search
        plain = {"n_values": [3, 4, 5], "trials": 40, "intensity": 60.0, "base_seed": 9}
        legacy = ExperimentConfig.from_json(json.dumps({**plain, "anchor_policy": "exhaustive"}))
        assert legacy == ExperimentConfig.from_json(json.dumps(plain))
        assert run_decay_experiment(legacy) == run_decay_experiment(ExperimentConfig(**plain))


class TestShapeSpec:
    def test_named_shapes(self):
        assert shape_from_spec("hexagon").generators == rational_hexagon().generators
        assert shape_from_spec("square").generators == square_linf().generators
        assert shape_from_spec("diamond").generators == diamond_l1().generators
        assert shape_from_spec("lp:2").p == 2.0

    def test_box_spec_parses_fractions(self):
        shape = shape_from_spec("box:1,1;1,-1")
        assert shape.is_box()
        assert shape.generators == (Vec2(Fraction(1), Fraction(1)), Vec2(Fraction(1), Fraction(-1)))

    def test_box_spec_reads_cli_scalars(self):
        # the sqrt(2) box of a shape file, written as a spec
        want = shape_from_json('{"kind": "polygonal", "generators": [["1/1", "0/1"], ["0/1+1/1*sqrt(2)", "1/1"]]}')
        assert shape_from_spec("box:1,0;0/1+1/1*sqrt(2),1").generators == want.generators

    def test_malformed_specs_raise(self):
        bad_boxes = ("box:", "box:1,0,0;0,1", "box:1/0,0;0,1", "box:1,0;0,1;1,1", "box:1,0;0/1+1/1*sqrt(4),1")
        for bad in ("heptagon", "lp:zero", "box:1,1", "box:1,1;2,2") + bad_boxes:
            with pytest.raises(ExperimentError):
                shape_from_spec(bad)
        for bad, count in (("box:1,1", 1), ("box:1,0;0,1;1,1", 3)):
            with pytest.raises(ExperimentError, match=f"^bad box spec '{bad}': box spec needs 2 generators, got {count}$"):
                shape_from_spec(bad)


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4901, abs=1e-3)
        assert hi == pytest.approx(0.9433, abs=1e-3)

    def test_zero_successes_has_honest_upper(self):
        lo, hi = wilson_interval(0, 200)
        assert lo == 0.0
        assert 0.0 < hi < 0.03

    def test_full_successes(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert 0.9 < lo < 1.0


class TestDecayBound:
    def test_matches_direct_formula_for_hexagon(self):
        # three generator directions: polynomial factor n^(2*3+2)
        for n in (3, 5, 10, 40):
            assert paper_decay_bound(n, 3, 0.5) == pytest.approx(n**8 * 0.5 ** (n - 1))

    def test_monotone_decay_eventually(self):
        vals = [paper_decay_bound(n, 3, 0.5) for n in (40, 60, 80)]
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_degenerate_input(self):
        with pytest.raises(ExperimentError):
            paper_decay_bound(2, 3, 0.5)
        with pytest.raises(ExperimentError):
            paper_decay_bound(5, 1, 0.5)


def ref_linear_part(m, w):
    # L with L(m1-m0) = w1-w0 and L(m2-m0) = w2-w0, its four quotients
    # written out; None for collinear images
    d1, d2 = m[1] - m[0], m[2] - m[0]
    e1, e2 = w[1] - w[0], w[2] - w[0]
    det = d1.cross(d2)
    if e1.cross(e2) == 0:
        return None
    return (
        exact_div(e1.x * d2.y - e2.x * d1.y, det),
        exact_div(e2.x * d1.x - e1.x * d2.x, det),
        exact_div(e1.y * d2.y - e2.y * d1.y, det),
        exact_div(e2.y * d1.x - e1.y * d2.x, det),
    )


def ref_inverse_transpose(L):
    a, b, c, d = L
    det = a * d - b * c
    if det == 0:
        return None
    return (exact_div(d, det), exact_div(-c, det), exact_div(-b, det), exact_div(a, det))


def ref_is_shape_symmetry(shape, Lit):
    # y -> L y keeps the norm, tested through the dual action Lit = L^-T
    if isinstance(shape, LpShape):
        a, b, c, d = Lit
        if shape.p == 2:
            checks = (a * a + c * c - 1, b * b + d * d - 1, a * b + c * d)
        else:
            checks = ((abs(a) - 1) * (abs(b) - 1), (abs(c) - 1) * (abs(d) - 1), a * b, c * d, a * c, b * d)
        return all(close(v, 0) for v in checks)
    signed = shape.signed_generators()
    for g in shape.generators:
        img = _apply(Lit, g)
        if not any(close(img.x, h.x) and close(img.y, h.y) for h in signed):
            return False
    return True


def reference_extension_candidates(enum, n, seen=None):
    """The scalar candidate loop: every pair distance of V_n computed by the
    scalar distance, then u1, u2, u3 tried in V_n order.  The linear part
    and the symmetry test (through L^-T) are the test's own.  `seen`, when
    given, counts the triples the symmetry test rejects and the candidates
    cut short by a later point mapped off the sample or onto a used image."""
    vn = enum.order[:n]
    if n == 3:
        return tuple(permutations(vn, 3))

    pts = enum.point_set.points
    shape = enum.shape
    lookup = _point_lookup(enum.point_set)
    m = tuple(pts[i] for i in vn[:3])
    rest = tuple(pts[i] - m[0] for i in vn[3:])
    d01 = distance(shape, m[0], m[1])
    d02 = distance(shape, m[0], m[2])
    d12 = distance(shape, m[1], m[2])
    pair_d = {}
    for i, u in enumerate(vn):
        for v in vn[i + 1 :]:
            d = pair_d[(u, v)] = distance(shape, pts[u], pts[v])
            pair_d[(v, u)] = d
    out = []
    for u1 in vn:
        for u2 in vn:
            if u2 == u1 or pair_d[(u1, u2)] != d01:
                continue
            for u3 in vn:
                if u3 == u1 or u3 == u2:
                    continue
                if pair_d[(u1, u3)] != d02 or pair_d[(u2, u3)] != d12:
                    continue
                w = (pts[u1], pts[u2], pts[u3])
                L = ref_linear_part(m, w)
                if L is None:
                    continue
                Lit = ref_inverse_transpose(L)
                if Lit is None or not ref_is_shape_symmetry(shape, Lit):
                    if seen is not None:
                        seen["rejected"] += 1
                    continue
                images = [u1, u2, u3]
                for x in rest:
                    idx = lookup(w[0] + _apply(L, x))
                    if idx is None or idx in images:
                        if seen is not None:
                            seen["broken"] += 1
                        break
                    images.append(idx)
                else:
                    out.append(tuple(images))
    return tuple(out)


def predicted_agreement(enum, in_range, n, p):
    """The exact probability that two independent samples agree on V_n under
    some reference candidate; in_range(u, v), u < v, is the range test.

    A candidate pits each G coin against a different H coin, so one candidate
    agrees with probability the product over the pairs of V_n of p* = p^2 +
    (1-p)^2 (both sides in range), 1-p (one side) or 1 (neither).  Several
    candidates are summed over the coin states of the union of their
    in-range coins."""
    prefix = enum.order[:n]
    cands = reference_extension_candidates(enum, n)
    pairs = list(combinations(range(n), 2))

    def key(u, v):
        return (u, v) if u < v else (v, u)

    if len(cands) == 1:
        (f,) = cands
        prob = 1.0
        for a, b in pairs:
            g, h = in_range(*key(prefix[a], prefix[b])), in_range(*key(f[a], f[b]))
            prob *= p * p + (1 - p) ** 2 if g and h else (1 - p if g or h else 1.0)
        return prob
    sides = [(0, prefix)] + [(1, f) for f in cands]
    coins = sorted({(side, key(f[a], f[b])) for side, f in sides for a, b in pairs if in_range(*key(f[a], f[b]))})
    assert len(coins) <= 16
    total = 0.0
    for state in product((False, True), repeat=len(coins)):
        edge = dict(zip(coins, state))
        g = [edge.get((0, key(prefix[a], prefix[b])), False) for a, b in pairs]
        if any(g == [edge.get((1, key(f[a], f[b])), False) for a, b in pairs] for f in cands):
            total += p ** sum(state) * (1 - p) ** (len(coins) - sum(state))
    return total


def binomial_p_value(k, trials, q):
    """Exact two-sided binomial p-value of k successes in `trials` at rate q:
    the probability of every count no likelier than k, each term taken in
    log space through math.lgamma."""

    def log_pmf(j):
        log_choose = math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
        return log_choose + j * math.log(q) + (trials - j) * math.log1p(-q)

    cut = log_pmf(k) + 1e-7
    return min(1.0, sum(math.exp(v) for v in map(log_pmf, range(trials + 1)) if v <= cut))


def holm_rejections(p_values, alpha):
    """Indices of the p-values Holm's step-down procedure rejects at
    family-wise error alpha."""
    out = []
    for rank, i in enumerate(sorted(range(len(p_values)), key=p_values.__getitem__)):
        if p_values[i] > alpha / (len(p_values) - rank):
            break
        out.append(i)
    return out


# CI's dense and sparse decay configs, as decay_inputs arguments, with p and
# the rows at which a wrong program can show: the unit window's pairs are all
# in range, so only [0, 3]^2 exercises the range mask
DECAY_CHECK_CONFIGS = [
    (("hexagon", (0, 0, 1, 1), 120.0, "rational", 1), 0.5, (3, 4, 5)),
    (("hexagon", (0, 0, 3, 3), 8.0, "rational", 9), 0.9, (3, 4, 5, 6, 7, 8, 10)),
]


class TestDecayPrediction:
    """Every checked row against its exact prediction, which reads neither the
    row engine nor its candidate search: one exact binomial p-value per row,
    Holm's correction over the rows at family-wise error 1e-3."""

    TRIALS = 20_000

    def test_predictions(self):
        got = [
            predicted_agreement(*decay_inputs(*inputs), n, p)
            for inputs, p, n_values in DECAY_CHECK_CONFIGS
            for n in n_values
        ]
        assert got[:3] == [0.3125, 2**-6, 2**-10]
        assert got[3:] == pytest.approx([0.5912, 0.3707, 0.2044, 0.07578, 0.02304, 0.005743, 1.968e-4], rel=1e-3)

    def test_rows_match_prediction(self):
        report = []
        for (spec, window, intensity, mode, seed), p, n_values in DECAY_CHECK_CONFIGS:
            cfg = ExperimentConfig(
                shape=spec, window=window, intensity=intensity, mode=mode, n_values=n_values,
                p=p, trials=self.TRIALS, base_seed=seed,
            )
            enum, in_range = decay_inputs(spec, window, intensity, mode, seed)
            for row in run_decay_experiment(cfg):
                q = predicted_agreement(enum, in_range, row.n, p)
                report.append((spec, window, row.n, row.successes, q, binomial_p_value(row.successes, row.trials, q)))
        assert holm_rejections([r[-1] for r in report], 1e-3) == [], report

    def test_decision_rule(self):
        for trials, q in ((30, 0.5), (40, 0.07)):
            pmf = [math.comb(trials, j) * q**j * (1 - q) ** (trials - j) for j in range(trials + 1)]
            for k in range(trials + 1):
                want = sum(v for v in pmf if v <= pmf[k] * (1 + 1e-7))
                assert binomial_p_value(k, trials, q) == pytest.approx(min(1.0, want), rel=1e-9)
        assert holm_rejections([0.01, 0.04, 0.03, 0.005], 0.05) == [3, 0]
        assert holm_rejections([0.02, 0.2], 0.01) == []


# linear maps (a, b, c, d), x -> (a x + b y, c x + d y), that keep each norm
# and the square window when applied about its centre
_SYMMETRIES = {
    "hexagon": ((1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0)),
    "regular-hexagon": ((1, 0, 0, 1), (-1, 0, 0, -1), (1, 0, 0, -1), (-1, 0, 0, 1)),
    "lp": (
        (1, 0, 0, 1), (-1, 0, 0, -1), (1, 0, 0, -1), (-1, 0, 0, 1),
        (0, 1, 1, 0), (0, -1, -1, 0), (0, 1, -1, 0), (0, -1, 1, 0),
    ),
}


def symmetric_point_set(spec, sample):
    """sample together with its images under the shape's symmetry group,
    taken about the centre of the (square) window."""
    w = sample.window
    cx, cy = (w.x0 + w.x1) / 2, (w.y0 + w.y1) / 2
    seen, pts = set(), []
    for a, b, c, d in _SYMMETRIES["lp" if spec.startswith("lp:") else spec]:
        for v in sample.points:
            x, y = v.x - cx, v.y - cy
            img = Vec2(cx + a * x + b * y, cy + c * x + d * y)
            if img not in seen:
                seen.add(img)
                pts.append(img)
    return PointSet(tuple(pts), w, sample.seed, mode=sample.mode)


_LATTICE_OCTAGON = PolygonShape(
    [Vec2(1, 0), Vec2(0, 1), Vec2(Fraction(2, 3), Fraction(2, 3)), Vec2(Fraction(2, 3), Fraction(-2, 3))]
)


class TestCandidateReference:
    """The float-filtered candidates are the scalar loop's, in its order."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["hexagon", "regular-hexagon", "lp:1.5", "lp:2", "lp:3"]),
        st.sampled_from(["rational", "float"]),
        st.sampled_from([1, 2, 3]),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def test_matches_scalar_loop(self, spec, mode, side, symmetric, seed):
        size = Fraction(side) if mode == "rational" else float(side)
        # about 50 points, or about 6 before the symmetry closure
        intensity = (6.0 if symmetric else 50.0) / side**2
        pts = sample_poisson_window(Window(0 * size, 0 * size, size, size), intensity, seed=seed, mode=mode)
        if symmetric:
            pts = symmetric_point_set(spec, pts)
        try:
            enum = good_enumeration(pts, shape_from_spec(spec))
        except AnchoringError:
            assume(False)
        lookup = _point_lookup(pts)
        for n in range(3, min(12, len(enum.order)) + 1):
            assert _extension_candidates(enum, n, lookup) == reference_extension_candidates(enum, n)

    @pytest.mark.parametrize("spec", ["hexagon", "regular-hexagon", "lp:2"])
    def test_symmetric_sets_have_several_candidates(self, spec):
        several = 0
        for seed in range(6):
            sample = sample_poisson_window(
                Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2)), 1.5, seed=seed, mode="rational"
            )
            try:
                enum = good_enumeration(symmetric_point_set(spec, sample), shape_from_spec(spec))
            except AnchoringError:
                continue
            lookup = _point_lookup(enum.point_set)
            for n in range(4, min(12, len(enum.order)) + 1):
                want = reference_extension_candidates(enum, n)
                assert _extension_candidates(enum, n, lookup) == want
                several += len(want) > 1
        assert several > 0

    def test_lattice_patches_reject_and_cut_short(self):
        # 7x7 patches of (1/3)Z^2 and (2/5)Z^2: many anchor images keep the
        # anchor distances, so the symmetry test rejects some and later
        # points fall off the patch or onto a used image for others
        seen = {"rejected": 0, "broken": 0}
        most = 0
        for step in (Fraction(1, 3), Fraction(2, 5)):
            pts = tuple(Vec2(i * step, j * step) for i in range(7) for j in range(7))
            ps = PointSet(pts, Window(Fraction(0), Fraction(0), 7 * step, 7 * step), 0, mode="rational")
            for shape in (LpShape(2), _LATTICE_OCTAGON):
                enum = good_enumeration(ps, shape)
                lookup = _point_lookup(ps)
                for n in (4, 5, 8, 12, 20):
                    want = reference_extension_candidates(enum, n, seen)
                    assert _extension_candidates(enum, n, lookup) == want
                    most = max(most, len(want))
        assert seen["rejected"] > 0 and seen["broken"] > 0 and most > 1

    def test_scalar_distance_calls_on_benchmark_rows(self):
        # the benchmark's decay config at seed 1: the scalar loop made 1046
        # distance calls over these rows
        pts = sample_poisson_window(Window(0, 0, 1, 1), 120.0, seed=1127523868, mode="rational")
        enum = good_enumeration(pts, rational_hexagon())
        lookup = _point_lookup(pts)
        counted = mock.Mock(side_effect=distance)
        with mock.patch.object(experiments, "distance", counted):
            cands = [_extension_candidates(enum, n, lookup) for n in (3, 4, 5, 10, 20, 40)]
        assert [len(c) for c in cands] == [6, 1, 1, 1, 1, 1]
        assert counted.call_count <= 100


def graph_agrees(G, H, prefix, candidates) -> bool:
    """The whole-graph reference of a decay trial: does some candidate f
    carry G's V_n (`prefix`) onto H with adjacency intact, every pair of
    V_n an edge of G exactly when its image under f is an edge of H?"""
    pairs = list(combinations(range(len(prefix)), 2))
    return any(all(G.has_edge(prefix[a], prefix[b]) == H.has_edge(f[a], f[b]) for a, b in pairs) for f in candidates)


class TestPartialIsomorphism:
    def test_graph_agrees_with_itself(self):
        # exact points under a float-valued metric included: the identity
        # is a candidate whatever the type of the distances
        for shape in (rational_hexagon(), regular_hexagon(), LpShape(2)):
            enum = hex_enumeration(shape=shape)
            G = sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=11)
            for n in (3, 4, 6):
                assert graph_agrees(G, G, enum.order[:n], reference_extension_candidates(enum, n)), shape

    def test_candidates_reduce_to_identity_prefix(self):
        enum = hex_enumeration()
        assert _extension_candidates(enum, 6, _point_lookup(enum.point_set)) == (tuple(enum.order[:6]),)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["hexagon", "regular-hexagon", "lp:2", "lp:3"]),
        st.sampled_from(["rational", "float"]),
        st.integers(0, 10**6),
    )
    def test_candidates_are_isometries_containing_identity(self, spec, mode, seed):
        size = Fraction(3, 2) if mode == "rational" else 1.5
        pts = sample_poisson_window(Window(0 * size, 0 * size, size, size), 12.0, seed=seed, mode=mode)
        try:
            enum = good_enumeration(pts, shape_from_spec(spec))
        except AnchoringError:
            assume(False)
        shape, p = enum.shape, pts.points
        lookup = _point_lookup(pts)
        for n in range(3, min(10, len(enum.order)) + 1):
            prefix = enum.order[:n]
            cands = _extension_candidates(enum, n, lookup)
            assert tuple(prefix) in cands
            for images in cands if n >= 4 else ():
                assert len(set(images)) == n
                for a in range(n):
                    for b in range(a + 1, n):
                        want = distance(shape, p[prefix[a]], p[prefix[b]])
                        got = distance(shape, p[images[a]], p[images[b]])
                        if is_exact(want) and is_exact(got):
                            assert got == want
                        else:
                            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_flipped_edge_breaks_agreement(self):
        enum = hex_enumeration()
        G = sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=11)
        vn = set(enum.order[:6])
        flip = min(e for e in G.edges if e[0] in vn and e[1] in vn)
        H = dataclasses.replace(G, edges=frozenset(G.edges ^ {flip}))
        assert not graph_agrees(G, H, enum.order[:6], reference_extension_candidates(enum, 6))

    def test_three_point_prefix_often_agrees(self):
        enum = hex_enumeration()
        cands = reference_extension_candidates(enum, 3)
        hits = sum(
            graph_agrees(
                sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=100 + t),
                sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=500 + t),
                enum.order[:3],
                cands,
            )
            for t in range(30)
        )
        assert hits == 13


class TestDecayExperiment:
    CFG = ExperimentConfig(n_values=(3, 5, 8), trials=40, intensity=60.0, base_seed=9)

    def test_rows_are_deterministic(self):
        assert run_decay_experiment(self.CFG) == run_decay_experiment(self.CFG)

    def test_row_bookkeeping(self):
        rows = run_decay_experiment(self.CFG)
        assert [r.n for r in rows] == [3, 5, 8]
        for r in rows:
            assert 0 <= r.successes <= r.trials == 40
            assert r.fraction == pytest.approx(r.successes / r.trials)
            assert 0.0 <= r.ci_lo <= r.fraction <= r.ci_hi <= 1.0
            assert r.paper_bound == pytest.approx(paper_decay_bound(r.n, 3, 0.5))

    def test_agreement_fades_with_n(self):
        rows = run_decay_experiment(self.CFG)
        assert rows[0].fraction > rows[-1].fraction
        assert rows[-1].successes == 0

    def test_exact_points_under_float_metric(self):
        # the regular hexagon measures rational points in float; the rows
        # must not depend on the sampling mode
        rows = {}
        for mode, window in (("rational", (0, 0, 1, 1)), ("float", (0.0, 0.0, 1.0, 1.0))):
            cfg = ExperimentConfig(
                shape="regular-hexagon", window=window, mode=mode, n_values=(3, 4, 5, 8),
                intensity=60.0, p=0.7, trials=100, base_seed=9,
            )
            rows[mode] = [r.successes for r in run_decay_experiment(cfg)]
        assert rows["rational"] == rows["float"]

    def test_prefix_beyond_the_enumeration_is_refused(self):
        cfg = dataclasses.replace(self.CFG, n_values=(3, 10_000), trials=1)
        with pytest.raises(ExperimentError, match="enumeration places .* points; largest requested n is 10000"):
            run_decay_experiment(cfg)

    def test_box_shape_is_rejected(self):
        cfg = ExperimentConfig(shape="square", n_values=(3,), trials=1)
        with pytest.raises(ExperimentError):
            run_decay_experiment(cfg)
        cfg = ExperimentConfig(shape="lp:2", n_values=(3,), trials=1)
        with pytest.raises(ExperimentError):
            run_decay_experiment(cfg)

    def test_csv_and_json_outputs(self, tmp_path):
        # the run writes no file: callers write the rows, and the config
        # carries no output paths
        cfg = dataclasses.replace(self.CFG, n_values=(3,), trials=5)
        rows = run_decay_experiment(cfg)
        rows_to_csv(rows, tmp_path / "rows.csv")
        assert rows_from_csv(tmp_path / "rows.csv") == list(rows)
        assert rows[0].n == 3
        with pytest.raises(ExperimentError, match="bad config"):
            ExperimentConfig.from_json(json.dumps({"out_csv": str(tmp_path / "rows.csv")}))


def reference_successes(cfg: ExperimentConfig) -> list:
    """Per-row success counts from whole sampled graphs, trial by trial:
    graph_agrees over the candidates of reference_extension_candidates,
    which share neither the row engine's candidate search nor its coins."""
    shape = shape_from_spec(cfg.shape)
    points = sample_poisson_window(
        Window(*cfg.window), cfg.intensity, seed=cfg.base_seed, mode=cfg.mode
    )
    enum = good_enumeration(points, shape)
    pts, ref = points.points, points.fingerprint()
    us, vs = np.array(
        [
            (u, v)
            for u in range(len(pts))
            for v in range(u + 1, len(pts))
            if distance(shape, pts[u], pts[v]) < 1
        ]
    ).T

    def graph(seed):
        # sample_larg's graph without its exact pair loop on every call
        keep = pair_uniform_array(seed, us, vs) < cfg.p
        edges = frozenset(zip(us[keep].tolist(), vs[keep].tolist()))
        return GeoGraph(ref, len(pts), cfg.p, 1, seed, edges)

    for seed in (_trial_seed(cfg.base_seed, 3, 0, 0), _trial_seed(cfg.base_seed, 3, 0, 1)):
        assert graph(seed) == sample_larg(points, shape, 1, cfg.p, edge_seed=seed)

    out = []
    for n in cfg.n_values:
        prefix, cands = enum.order[:n], reference_extension_candidates(enum, n)
        trials = ((graph(_trial_seed(cfg.base_seed, n, t, side)) for side in (0, 1)) for t in range(cfg.trials))
        out.append(sum(graph_agrees(G, H, prefix, cands) for G, H in trials))
    return out


class TestDecayEquivalence:
    """The per-row coin matrices count what whole-graph trials count."""

    CFG = ExperimentConfig(n_values=(3, 4, 5, 8), trials=40, intensity=60.0, base_seed=9)

    def check_against_reference(self, cfg):
        assert [r.successes for r in run_decay_experiment(cfg)] == reference_successes(cfg)

    def test_rows_match_graph_reference(self):
        self.check_against_reference(self.CFG)

    def test_out_of_range_pairs_match_graph_reference(self):
        # every pair of V_n is in range in the unit window; here V_4 on has
        # pairs out of range, and at p = 0.9 their missing edge rarely agrees
        # with a coin drawn without the range test
        self.check_against_reference(
            dataclasses.replace(self.CFG, window=(0, 0, 3, 3), intensity=8.0, p=0.9, trials=100)
        )

    def test_recorded_rows(self):
        # successes recorded from the graph-per-trial implementation
        cfg = ExperimentConfig(
            shape="hexagon",
            window=(0, 0, 1, 1),
            intensity=120.0,
            mode="rational",
            n_values=(3, 4, 5, 6, 10),
            p=0.5,
            trials=200,
            base_seed=1127523868,
        )
        assert [r.successes for r in run_decay_experiment(cfg)] == [70, 5, 0, 0, 0]


@functools.lru_cache(maxsize=None)
def decay_inputs(spec, window, intensity, mode, seed):
    """The enumeration of a decay config's point set, and the in-range test
    of a pair u < v by the scalar distance."""
    shape = shape_from_spec(spec)
    points = sample_poisson_window(Window(*window), intensity, seed=seed, mode=mode)
    pts = points.points

    @functools.lru_cache(maxsize=None)
    def in_range(u, v):
        return distance(shape, pts[u], pts[v]) < 1

    return good_enumeration(points, shape), in_range


def full_matrix_successes(cfg: ExperimentConfig) -> list:
    """Per-row success counts from the full trials x pairs coin matrices,
    every pair drawn in every trial: a trial succeeds when some candidate
    matches the G coins on all pairs, (e_g == e_h).all().any()."""
    enum, in_range = decay_inputs(cfg.shape, cfg.window, cfg.intensity, cfg.mode, cfg.base_seed)
    out = []
    for n in cfg.n_values:
        prefix = enum.order[:n]
        cands = _extension_candidates(enum, n, _point_lookup(enum.point_set))
        a, b = np.triu_indices(n, 1)
        gu, gv = np.asarray(prefix)[a], np.asarray(prefix)[b]
        images = np.asarray(cands).reshape(len(cands), n)
        hu, hv = images[:, a].ravel(), images[:, b].ravel()

        def coins(side, us, vs):
            mask = np.array([in_range(*sorted((int(u), int(v)))) for u, v in zip(us, vs)], dtype=bool)
            return np.array(
                [
                    (pair_uniform_array(_trial_seed(cfg.base_seed, n, t, side), us, vs) < cfg.p) & mask
                    for t in range(cfg.trials)
                ]
            )

        e_g = coins(0, gu, gv)
        e_h = coins(1, hu, hv).reshape(cfg.trials, len(cands), len(a))
        out.append(int((e_g[:, None, :] == e_h).all(axis=2).any(axis=1).sum()))
    return out


# (shape spec, sampling mode) and (window, intensity): [0, 3]^2 at intensity
# 8 is the window where V_n has pairs out of range
ROW_SHAPES = [("hexagon", "rational"), ("regular-hexagon", "float")]
ROW_WINDOWS = [((0, 0, 1, 1), 60.0), ((0, 0, 3, 3), 8.0)]


class TestRowEngine:
    """Rows walked in chunks of pairs count what the full coin matrices count."""

    @example(("hexagon", "rational"), ROW_WINDOWS[1], 0.98, 300, (3, 4, 20, 40), 9)
    @example(("regular-hexagon", "float"), ROW_WINDOWS[1], 0.98, 7, (5, 40), 12)
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(ROW_SHAPES),
        st.sampled_from(ROW_WINDOWS),
        st.sampled_from([0.02, 0.5, 0.98]),
        st.sampled_from([1, 7, 300]),
        st.sets(st.integers(3, 40), min_size=1, max_size=4).map(lambda ns: tuple(sorted(ns))),
        st.sampled_from([9, 12]),
    )
    def test_rows_match_full_matrix_count(self, shape, window, p, trials, n_values, seed):
        (spec, mode), (box, intensity) = shape, window
        cfg = ExperimentConfig(
            shape=spec, window=box, intensity=intensity, mode=mode, n_values=n_values,
            p=p, trials=trials, base_seed=seed,
        )
        got = [r.successes for r in run_decay_experiment(cfg)]
        assert got == full_matrix_successes(cfg)

    # the decay configs above have one candidate from n = 4 on; random
    # images give a trial several candidates that die in different chunks
    @example(0.98, 300, 12, 12, 0)
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([0.02, 0.5, 0.98]),
        st.sampled_from([1, 7, 300]),
        st.integers(3, 40),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    def test_candidates_match_full_matrix_count(self, p, trials, n, cands, seed):
        rng = np.random.default_rng(seed)
        prefix = rng.choice(60, n, replace=False)
        images = np.array([rng.choice(60, n, replace=False) for _ in range(cands)])
        a, b = np.triu_indices(n, 1)
        gu, gv, hu, hv = prefix[a], prefix[b], images[:, a], images[:, b]
        g_in, h_in = rng.random(gu.shape) < 0.8, rng.random(hu.shape) < 0.8
        seeds = [_trial_seeds(seed, n, trials, side) for side in (0, 1)]
        e_g = np.array([(pair_uniform_array(int(s), gu, gv) < p) & g_in for s in seeds[0]])
        e_h = np.array([(pair_uniform_array(int(s), hu, hv) < p) & h_in for s in seeds[1]])
        want = int((e_g[:, None, :] == e_h).all(axis=2).any(axis=1).sum())
        assert _surviving_trials(*seeds, gu, gv, g_in, hu, hv, h_in, p) == want


GOLDEN_ROWS = os.path.join(os.path.dirname(__file__), "data", "golden_decay_rows.json")


class TestGoldenRows:
    """Rows recorded from the pair-by-pair candidate and coin code."""

    with open(GOLDEN_ROWS, encoding="utf-8") as fh:
        RECORDED = json.load(fh)

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_rows_match_recording(self, name):
        entry = self.RECORDED[name]
        got = run_decay_experiment(ExperimentConfig(**entry["config"]))
        assert [dataclasses.asdict(r) for r in got] == entry["rows"]["exhaustive"]


class TestCsv:
    ROWS = [
        DecayRow(5, 200, 13, 0.065, 0.0384, 0.10812, 24414.0625),
        DecayRow(10, 200, 0, 0.0, 0.0, 0.0188, 195312.5),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows_to_csv(self.ROWS, path)
        assert rows_from_csv(path) == self.ROWS

    def test_header_is_fixed(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows_to_csv(self.ROWS, path)
        head = path.read_text().splitlines()[0]
        assert head == "n,trials,successes,fraction,ci_lo,ci_hi,paper_bound"

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("n,wins\n3,1\n")
        with pytest.raises(ExperimentError):
            rows_from_csv(path)

    @pytest.mark.parametrize("edit", [lambda row: row + ",7", lambda row: ",".join(row.split(",")[:2])], ids=["8-cells", "2-cells"])
    def test_row_of_wrong_length_rejected(self, tmp_path, edit):
        # a row of 8 cells loaded with its last cell dropped; one of 2 ended in a TypeError
        path = tmp_path / "rows.csv"
        rows_to_csv(self.ROWS, path)
        lines = path.read_text().splitlines()
        cells = len(edit(lines[2]).split(","))
        path.write_text("\n".join(lines[:2] + [edit(lines[2])]) + "\n")
        with pytest.raises(ExperimentError, match=f"CSV line 3 has {cells} cells, not 7"):
            rows_from_csv(path)


class TestBoxTransform:
    def test_axis_box_gives_identity(self):
        assert box_to_linf_transform(square_linf()) == ((1, 0), (0, 1))

    def test_diamond_rows_are_its_generators(self):
        shape = box_shape(Vec2(Fraction(1), Fraction(1)), Vec2(Fraction(1), Fraction(-1)))
        assert box_to_linf_transform(shape) == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))

    def test_non_box_rejected(self):
        with pytest.raises(ExperimentError):
            box_to_linf_transform(rational_hexagon())

    def test_distance_identity_is_exact(self):
        shape = box_shape(Vec2(Fraction(2), Fraction(1)), Vec2(Fraction(-1), Fraction(3)))
        (a, b), (c, d) = box_to_linf_transform(shape)
        linf = square_linf()
        pts = sample_poisson_window(
            Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2)), 15.0, seed=2, mode="rational"
        )
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                u, v = pts[i], pts[j]
                tu = Vec2(a * u.x + b * u.y, c * u.x + d * u.y)
                tv = Vec2(a * v.x + b * v.y, c * v.x + d * v.y)
                assert distance(shape, u, v) == distance(linf, tu, tv)


def box_pair(seed_g, seed_h, points, shape, p=0.5):
    G = sample_larg(points, shape, 1, p, edge_seed=seed_g)
    H = sample_larg(points, shape, 1, p, edge_seed=seed_h)
    return G, H


class TestBackAndForth:
    def idf_points(self, shape, size=Fraction(3, 2), intensity=6.0, seed=4):
        raw = sample_poisson_window(
            Window(Fraction(0), Fraction(0), size, size), intensity, seed=seed, mode="rational"
        )
        _, pts = rescale_to_idf(raw, shape.generators, seed=3)
        return pts

    def test_same_seed_pair_maps_identically(self):
        shape = square_linf()
        pts = self.idf_points(shape)
        G, H = box_pair(7, 7, pts, shape)
        status, mapping = back_and_forth_isomorphism(G, H, pts, shape)
        assert status == "isomorphic"
        assert mapping == tuple(range(len(pts)))

    def test_exhausted_budget_reports_undetermined(self):
        shape = square_linf()
        pts = self.idf_points(shape)
        G, H = box_pair(7, 8, pts, shape)
        status, mapping = back_and_forth_isomorphism(G, H, pts, shape, budget=1)
        assert (status, mapping) == ("undetermined", None)

    def test_forced_disagreement_reports_none(self):
        # two points within range: floors rule out the swap, adjacency the identity
        shape = square_linf()
        pts = self.idf_points(shape, size=Fraction(1, 2), intensity=8.0, seed=1)
        assert len(pts) >= 2
        G, H = box_pair(7, 7, pts, shape)
        flip = min(G.edges) if G.edges else (0, 1)
        H = dataclasses.replace(H, edges=frozenset(H.edges ^ {flip}))
        status, mapping = back_and_forth_isomorphism(G, H, pts, shape)
        assert (status, mapping) == ("none", None)

    @staticmethod
    def scalar_floor_table(points, shape):
        """The scalar rule cell by cell, row-major; the diagonal is 0."""
        pts, tables = points.points, []
        for a in shape.generators:
            proj = [a.dot(v) for v in pts]
            exact = all(not isinstance(t, float) for t in proj)
            tab = [[0] * len(pts) for _ in pts]
            for u in range(len(pts)):
                for v in range(len(pts)):
                    if u != v:
                        diff = proj[u] - proj[v]
                        tab[u][v] = math.floor(diff) if exact else guarded_floor(
                            diff, what=f"projection difference ({u}, {v})"
                        )
            tables.append(tab)
        return tables

    def test_floor_table_matches_scalar_rule(self):
        # rational samples, and a lattice whose differences are exact integers
        # and sit on the float filter's boundary
        lattice = PointSet(
            tuple(Vec2(Fraction(i, 3), Fraction(j, 2)) for i in range(8) for j in range(5)),
            Window(Fraction(0), Fraction(0), Fraction(3), Fraction(3)), 0, "rational",
        )
        for shape in (square_linf(), box_shape(Vec2(1, 0), Vec2(1, 2)), rational_hexagon()):
            for pts in (self.idf_points(shape, intensity=20.0), lattice):
                assert _floor_table(pts, shape).tolist() == self.scalar_floor_table(pts, shape)
        # float points far from integer differences pass the filter alone
        floats = PointSet(
            tuple(Vec2(0.1 + 0.3819 * k, 0.05 + (0.6180339887 * k * k) % 1.9) for k in range(12)),
            Window(0.0, 0.0, 5.0, 2.0), 0,
        )
        assert _floor_table(floats, square_linf()).tolist() == self.scalar_floor_table(floats, square_linf())
        # a float pair at integer difference is refused, naming the first one
        near = PointSet(
            (Vec2(0.25, 0.5), Vec2(0.75, 0.1), Vec2(1.25, 0.9), Vec2(1.75, 0.3)),
            Window(0.0, 0.0, 2.0, 1.0), 0,
        )
        for fn in (_floor_table, self.scalar_floor_table):
            with pytest.raises(BoundaryAmbiguityError, match=r"\(0, 2\)"):
                fn(near, square_linf())

    def test_float_points_searched(self):
        # the diagonal is 0 for every point set, so floats are not refused there
        shape = square_linf()
        pts = PointSet(
            tuple(Vec2(0.1 + 0.3819 * k, 0.05 + (0.6180339887 * k * k) % 1.9) for k in range(6)),
            Window(0.0, 0.0, 5.0, 2.0), 0,
        )
        G, H = box_pair(7, 7, pts, shape)
        assert back_and_forth_isomorphism(G, H, pts, shape) == ("isomorphic", tuple(range(6)))

    def test_non_polygon_rejected(self):
        from larg_lab.geometry import LpShape

        pts = self.idf_points(square_linf())
        G, H = box_pair(7, 7, pts, square_linf())
        with pytest.raises(ExperimentError):
            back_and_forth_isomorphism(G, H, pts, LpShape(2.0))


def reference_back_and_forth(G, H, points, shape, budget):
    """The recursive search, one floor table at a time: (status, mapping,
    budget units used). Each level is one Python frame."""
    n = len(points)
    floors = _floor_table(points, shape).tolist()
    fwd, bwd = {}, {}
    used = 0
    adj_g, adj_h = G.adjacency_matrix().tolist(), H.adjacency_matrix().tolist()

    class Exhausted(Exception):
        pass

    def consistent(u, w, mapped, adj_u, adj_w):
        for u2, w2 in mapped.items():
            if adj_u[u][u2] != adj_w[w][w2]:
                return False
            for tab in floors:
                if tab[u][u2] != tab[w][w2]:
                    return False
        return True

    def extend():
        nonlocal used
        if len(fwd) == n:
            return True
        mapped, other, adj_m, adj_o = (fwd, bwd, adj_g, adj_h) if len(fwd) % 2 == 0 else (bwd, fwd, adj_h, adj_g)
        v = min(x for x in range(n) if x not in mapped)
        for c in range(n):
            if c in other:
                continue
            if used == budget:
                raise Exhausted
            used += 1
            if consistent(v, c, mapped, adj_m, adj_o):
                mapped[v], other[c] = c, v
                if extend():
                    return True
                del mapped[v], other[c]
        return False

    try:
        found = extend()
    except Exhausted:
        return ("undetermined", None, used)
    if not found:
        return ("none", None, used)
    return ("isomorphic", tuple(fwd[u] for u in range(n)), used)


@st.composite
def search_problems(draw):
    """Two graphs over one idf-rescaled sample, often sharing their coins."""
    spec = draw(st.sampled_from(["square", "box:2,0;0,2", "box:1,0;1,2", "hexagon"]))
    side = Fraction(draw(st.integers(1, 6)), 2)
    intensity = draw(st.sampled_from([3.0, 5.0, 8.0, 12.0, 20.0, 30.0]))
    mode = draw(st.sampled_from(["rational", "float"]))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    seed = draw(st.integers(0, 10**6))
    shape = shape_from_spec(spec)
    raw = sample_poisson_window(Window(Fraction(0), Fraction(0), side, side), intensity, seed=seed, mode=mode)
    assume(len(raw) <= 40)
    _, pts = rescale_to_idf(raw, shape.generators, seed=1)
    G = sample_larg(pts, shape, 1, p, edge_seed=2 * seed)
    H = G if draw(st.booleans()) else sample_larg(pts, shape, 1, p, edge_seed=2 * seed + 1)
    return G, H, pts, shape


class TestSearchReference:
    """The stack search against the recursive one, result and budget alike."""

    @settings(max_examples=150, deadline=None)
    @given(search_problems(), st.sampled_from([1, 2, 5, 20, 100, 500, 2000, 20000]))
    def test_matches_recursive_search(self, problem, budget):
        G, H, pts, shape = problem
        status, mapping, _ = reference_back_and_forth(G, H, pts, shape, budget)
        assert back_and_forth_isomorphism(G, H, pts, shape, budget) == (status, mapping)

    @settings(max_examples=40, deadline=None)
    @given(search_problems())
    def test_exact_budget_boundary(self, problem):
        # with exactly the units the reference used the result is the same;
        # one unit less stops the search on its last candidate
        G, H, pts, shape = problem
        status, mapping, used = reference_back_and_forth(G, H, pts, shape, 20000)
        assume(status != "undetermined" and used > 0)
        assert back_and_forth_isomorphism(G, H, pts, shape, used) == (status, mapping)
        if used > 1:
            assert back_and_forth_isomorphism(G, H, pts, shape, used - 1) == ("undetermined", None)

    def test_boundary_turns_none_into_undetermined(self):
        shape = square_linf()
        raw = sample_poisson_window(
            Window(Fraction(0), Fraction(0), Fraction(3, 2), Fraction(3, 2)), 6.0, seed=4, mode="rational"
        )
        _, pts = rescale_to_idf(raw, shape.generators, seed=3)
        G, H = box_pair(7, 8, pts, shape)
        status, _, used = reference_back_and_forth(G, H, pts, shape, 20000)
        assert status == "none" and used > 1
        assert back_and_forth_isomorphism(G, H, pts, shape, used) == ("none", None)
        assert back_and_forth_isomorphism(G, H, pts, shape, used - 1) == ("undetermined", None)

    def test_deep_search_runs_without_recursion(self):
        # 1113 points: the recursive search overflows Python's stack here
        shape = shape_from_spec("box:2,0;0,2")
        raw = sample_poisson_window(Window(Fraction(0), Fraction(0), Fraction(30), Fraction(30)), 1.3, seed=3, mode="rational")
        _, pts = rescale_to_idf(raw, shape.generators, seed=0)
        assert len(pts) == 1113
        G = sample_larg(pts, shape, 1, 0.5, edge_seed=11)
        assert back_and_forth_isomorphism(G, G, pts, shape, 10**7) == ("isomorphic", tuple(range(len(pts))))


class TestFloorCodes:
    @staticmethod
    def assert_codes_rank_floor_tuples(points, shape):
        codes = _floor_codes(points, shape)
        floors = _floor_table(points, shape)
        n = len(points)
        assert codes.shape == (n, n) and codes.dtype == np.int64
        tuples = [tuple(floors[:, u, v].tolist()) for u in range(n) for v in range(n)]
        rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
        # dense lexicographic ranks: below n^2, so 2 * code + 1 fits any int64
        assert codes.ravel().tolist() == [rank[t] for t in tuples]

    @pytest.mark.parametrize("spec", ["square", "box:1,0;1,2", "hexagon"])
    def test_codes_are_dense_ranks_of_floor_tuples(self, spec):
        shape = shape_from_spec(spec)
        raw = sample_poisson_window(
            Window(Fraction(0), Fraction(0), Fraction(3), Fraction(3)), 4.0, seed=2, mode="rational"
        )
        _, pts = rescale_to_idf(raw, shape.generators, seed=1)
        self.assert_codes_rank_floor_tuples(pts, shape)

    def test_huge_window(self):
        # floors near 10^12 under three generators: a mixed-radix pack of the
        # floors would need about 10^36 codes
        side = Fraction(10**12)
        pts = sample_poisson_window(Window(Fraction(0), Fraction(0), side, side), 30 / side**2, seed=5, mode="rational")
        assert len(pts) >= 20
        floors = _floor_table(pts, rational_hexagon())
        assert np.abs(floors).max() > 10**11
        self.assert_codes_rank_floor_tuples(pts, rational_hexagon())


class TestBoxDemo:
    def test_rejects_integer_spaced_sample(self):
        from larg_lab.pointsets import PointSet

        # x-projections 1/3 and 4/3 differ by exactly 1
        pts = PointSet(
            (Vec2(Fraction(1, 3), Fraction(1, 2)), Vec2(Fraction(4, 3), Fraction(1, 7))),
            Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2)),
            seed=0,
            mode="rational",
        )
        with pytest.raises(ExperimentError):
            box_isomorphism_demo(pts, square_linf(), 0.5, seeds=(1, 2))

    def test_report_accounting(self):
        shape = square_linf()
        raw = sample_poisson_window(
            Window(Fraction(0), Fraction(0), Fraction(3, 2), Fraction(3, 2)), 4.0, seed=6, mode="rational"
        )
        _, pts = rescale_to_idf(raw, shape.generators, seed=3)
        report = box_isomorphism_demo(pts, shape, 0.5, seeds=tuple(range(12)))
        assert isinstance(report, BoxDemoReport)
        assert report.trials == 12
        assert report.found + report.none + report.undetermined == 12
        assert report.success_rate == pytest.approx(report.found / 12)
        assert len(report.outcomes) == 12


    @pytest.mark.parametrize("count", [0, 1])
    def test_refuses_fewer_than_two_points(self, count):
        pts = PointSet(
            (Vec2(Fraction(1, 3), Fraction(1, 2)),)[:count],
            Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2)),
            seed=0,
            mode="rational",
        )
        with pytest.raises(ExperimentError, match=f"the sample has {count} points"):
            box_isomorphism_demo(pts, square_linf(), 0.5, seeds=(1, 2))

    @pytest.mark.parametrize("spec", ["square", "box:1,0;1,2"])
    def test_trials_search_the_graphs_sample_larg_draws(self, spec):
        # each trial's codes are twice the floor codes plus the adjacency of
        # sample_larg at the trial's two edge seeds
        shape = shape_from_spec(spec)
        raw = sample_poisson_window(
            Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2)), 5.0, seed=8, mode="rational"
        )
        _, pts = rescale_to_idf(raw, shape.generators, seed=3)
        floors = _floor_codes(pts, shape)
        seeds = (0, 5, 2**40)
        with mock.patch.object(experiments, "_search", wraps=experiments._search) as search:
            report = box_isomorphism_demo(pts, shape, 0.4, seeds=seeds, budget=300)
        assert search.call_count == len(seeds)
        for s, call, status in zip(seeds, search.call_args_list, report.outcomes):
            codes, budget = call.args
            graphs = [sample_larg(pts, shape, 1, 0.4, edge_seed=_trial_seed(s, 0, 0, side)) for side in (0, 1)]
            assert budget == 300
            for code, G in zip(codes, graphs):
                assert np.array_equal(code, 2 * floors + G.adjacency_matrix())
            assert back_and_forth_isomorphism(*graphs, pts, shape, 300)[0] == status


GOLDEN_BOX_DEMO = os.path.join(os.path.dirname(__file__), "data", "golden_box_demo.json")


class TestGoldenBoxDemo:
    """Box-demo reports recorded from the recursive search over per-trial graphs."""

    with open(GOLDEN_BOX_DEMO, encoding="utf-8") as fh:
        RECORDED = json.load(fh)

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_report_matches_recording(self, name, tmp_path):
        entry = self.RECORDED[name]
        cfg, out = tmp_path / "box.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(entry["config"]))
        assert cli.main(["experiment", "box-demo", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == entry["report"]


class TestBoxBeatsHexagon:
    def test_small_box_ball_agrees_more_often_than_hexagon(self):
        # box ball (half-size square) sits inside the hexagon ball, so far
        # fewer pairs fall within range and agreement survives more coin flips
        hexa = rational_hexagon()
        small_box = box_shape(Vec2(Fraction(2), Fraction(0)), Vec2(Fraction(0), Fraction(2)))
        raw = sample_poisson_window(
            Window(Fraction(0), Fraction(0), Fraction(2), Fraction(2)), 3.0, seed=3, mode="rational"
        )
        _, pts = rescale_to_idf(raw, small_box.generators + hexa.generators, seed=3)
        trials = 200
        box_hits = hex_hits = 0
        for s in range(trials):
            G, H = box_pair(_trial_seed(s, 1, 0, 0), _trial_seed(s, 1, 0, 1), pts, small_box)
            box_hits += back_and_forth_isomorphism(G, H, pts, small_box)[0] == "isomorphic"
            G, H = box_pair(_trial_seed(s, 1, 0, 0), _trial_seed(s, 1, 0, 1), pts, hexa)
            hex_hits += back_and_forth_isomorphism(G, H, pts, hexa)[0] == "isomorphic"
        assert hex_hits < box_hits
        assert box_hits > trials // 3


class TestTrialSeeds:
    def test_distinct_across_coordinates(self):
        seen = {
            _trial_seed(b, n, t, side)
            for b in range(3)
            for n in (3, 5)
            for t in range(10)
            for side in (0, 1)
        }
        assert len(seen) == 3 * 2 * 10 * 2

    def test_fits_in_64_bits(self):
        assert 0 <= _trial_seed(2**63, 40, 10**6, 1) < 2**64


class TestCoinRows:
    @pytest.mark.parametrize("cells", [1, 7, 1 << 14])
    def test_blocks_match_per_trial_rows(self, cells):
        rng = np.random.default_rng(3)
        us = rng.integers(0, 60, 25)
        vs = us + rng.integers(1, 9, 25)
        in_range = rng.random(25) < 0.8
        want = np.array(
            [
                (pair_uniform_array(_trial_seed(11, 6, t, 1), us, vs) < 0.4) & in_range
                for t in range(13)
            ]
        )
        with mock.patch.object(larg, "_BLOCK_CELLS", cells):
            got = _coin_rows(_trial_seeds(11, 6, 13, 1), us, vs, in_range, 0.4)
        assert got.dtype == bool and np.array_equal(got, want)

    @pytest.mark.parametrize("cells", [1, 7, larg._BLOCK_CELLS])
    @pytest.mark.parametrize("base", [-1, -(2**63) - 5, 2**64, 2**64 + 12345, 2**70 + 3])
    def test_rows_match_scalar_coins(self, cells, base):
        rng = np.random.default_rng(4)
        us = rng.integers(0, 40, 30)
        vs = (us + rng.integers(1, 9, 30)) % 45  # some pairs have u > v
        in_range = rng.random(30) < 0.8
        want = np.array(
            [
                [
                    bool(r) and pair_uniform(_trial_seed(base, 7, t, 0), int(u), int(v)) < 0.6
                    for u, v, r in zip(us, vs, in_range)
                ]
                for t in range(11)
            ]
        )
        with mock.patch.object(larg, "_BLOCK_CELLS", cells):
            got = _coin_rows(_trial_seeds(base, 7, 11, 0), us, vs, in_range, 0.6)
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(-(2**70), 2**70),
        st.integers(3, 50),
        st.integers(0, 40),
        st.sampled_from([0, 1]),
    )
    def test_per_trial_tables_match_scalar_pair_uniform(self, base, n, trials, side):
        seeds = _trial_seeds(base, n, trials, side)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [_trial_seed(base, n, t, side) for t in range(trials)]
        lo, hi = np.triu_indices(6, 1)
        verts, k = np.unique(lo, return_inverse=True)
        got = larg._table_hashes(larg._vertex_table(seeds, verts), k, hi) / 2.0**64
        want = np.array(
            [[pair_uniform(int(s), int(a), int(b)) for a, b in zip(lo, hi)] for s in seeds]
        ).reshape(got.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_graph_searches_accept_a_reloaded_point_set():
    # graphs name their set by fingerprint; a set with int coordinates keeps
    # it through JSON, where the ints come back as Fractions
    sample = sample_poisson_window(
        Window(Fraction(0), Fraction(0), Fraction(3, 2), Fraction(3, 2)), 10.0, seed=5, mode="rational"
    )
    ps = PointSet(sample.points + (Vec2(1, 1), Vec2(0, 1)), sample.window, 5, mode="rational")
    back = pointset_from_json(pointset_to_json(ps))
    assert any(isinstance(c, int) for v in ps.points for c in (v.x, v.y))
    shape = rational_hexagon()
    G = sample_larg(ps, shape, 1, 0.5, edge_seed=1)
    H = sample_larg(ps, shape, 1, 0.5, edge_seed=2)
    outcome, _ = back_and_forth_isomorphism(G, H, back, shape, budget=50)
    assert outcome in ("isomorphic", "none", "undetermined")
