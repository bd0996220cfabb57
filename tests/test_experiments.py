"""Tests for decay experiments and the box comparison demo."""

import dataclasses
import functools
import json
import math
import os
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from larg_lab import experiments, larg
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
    _floor_table,
    _point_lookup,
    _surviving_trials,
    _trial_seed,
    _trial_seeds,
    back_and_forth_isomorphism,
    box_isomorphism_demo,
    box_to_linf_transform,
    paper_decay_bound,
    partial_isomorphism_exists,
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
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

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
            ExperimentConfig(anchor_policy="greedy")
        with pytest.raises(ExperimentError):
            ExperimentConfig(window=(0.0, 0.0, 1.0))

    def test_from_json_requires_mapping(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig.from_json("[1, 2, 3]")
        with pytest.raises(ExperimentError):
            ExperimentConfig.from_json('{"p": 0.5, "rounds": 3}')


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

    def test_malformed_specs_raise(self):
        for bad in ("heptagon", "lp:zero", "box:1,1", "box:1,1;2,2"):
            with pytest.raises(ExperimentError):
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
            want = reference_extension_candidates(enum, n)
            assert _extension_candidates(enum, n) == want
            assert _extension_candidates(enum, n, lookup) == want

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
            for n in range(4, min(12, len(enum.order)) + 1):
                want = reference_extension_candidates(enum, n)
                assert _extension_candidates(enum, n) == want
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
                for n in (4, 5, 8, 12, 20):
                    want = reference_extension_candidates(enum, n, seen)
                    assert _extension_candidates(enum, n) == want
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


class TestPartialIsomorphism:
    def test_graph_agrees_with_itself(self):
        # exact points under a float-valued metric included: the identity
        # is a candidate whatever the type of the distances
        for shape in (rational_hexagon(), regular_hexagon(), LpShape(2)):
            enum = hex_enumeration(shape=shape)
            G = sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=11)
            for n in (3, 4, 6):
                assert partial_isomorphism_exists(G, G, enum, n), shape

    def test_candidates_reduce_to_identity_prefix(self):
        enum = hex_enumeration()
        assert _extension_candidates(enum, 6) == (tuple(enum.order[:6]),)

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
        for n in range(3, min(10, len(enum.order)) + 1):
            prefix = enum.order[:n]
            cands = _extension_candidates(enum, n)
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

    def test_collinear_anchor_rejected(self):
        sample = hex_enumeration().point_set
        line = tuple(Vec2(Fraction(i, 7), Fraction(1, 11)) for i in (1, 2, 3))
        pts = dataclasses.replace(sample, points=sample.points + line)
        enum = good_enumeration(pts, rational_hexagon())
        first = tuple(range(len(sample), len(pts)))
        rest = [i for i in enum.order if i not in first]
        enum = dataclasses.replace(enum, order=first + tuple(rest[: len(enum.order) - 3]))
        G = sample_larg(pts, enum.shape, 1, 0.5, edge_seed=11)
        for n in (3, 4):
            with pytest.raises(ExperimentError, match="triangular"):
                partial_isomorphism_exists(G, G, enum, n)

    def test_flipped_edge_breaks_agreement(self):
        enum = hex_enumeration()
        G = sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=11)
        vn = set(enum.order[:6])
        flip = min(e for e in G.edges if e[0] in vn and e[1] in vn)
        H = dataclasses.replace(G, edges=frozenset(G.edges ^ {flip}))
        assert not partial_isomorphism_exists(G, H, enum, 6)

    def test_three_point_prefix_often_agrees(self):
        enum = hex_enumeration()
        hits = sum(
            partial_isomorphism_exists(
                sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=100 + t),
                sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=500 + t),
                enum,
                3,
            )
            for t in range(30)
        )
        assert hits == 13

    def test_rejects_mismatched_inputs(self):
        enum = hex_enumeration()
        G = sample_larg(enum.point_set, enum.shape, 1, 0.5, edge_seed=11)
        other = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 20.0, seed=1)
        F = sample_larg(other, square_linf(), 1, 0.5, edge_seed=11)
        with pytest.raises(ExperimentError):
            partial_isomorphism_exists(G, F, enum, 3)
        with pytest.raises(ExperimentError):
            partial_isomorphism_exists(G, G, enum, 2)
        with pytest.raises(ExperimentError):
            partial_isomorphism_exists(G, G, enum, len(enum.order) + 1)


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

    def test_identity_policy_is_stricter(self):
        loose = ExperimentConfig(n_values=(3,), trials=40, intensity=60.0, base_seed=9)
        strict = dataclasses.replace(loose, anchor_policy="identity")
        assert run_decay_experiment(strict)[0].successes <= run_decay_experiment(loose)[0].successes

    def test_exact_points_under_float_metric(self):
        # the regular hexagon measures rational points in float; the rows
        # must not depend on the sampling mode, and the identity's successes
        # are a subset of the exhaustive policy's
        rows = {}
        for mode, window in (("rational", (0, 0, 1, 1)), ("float", (0.0, 0.0, 1.0, 1.0))):
            for policy in ("identity", "exhaustive"):
                cfg = ExperimentConfig(
                    shape="regular-hexagon", window=window, mode=mode, n_values=(3, 4, 5, 8),
                    intensity=60.0, p=0.7, trials=100, base_seed=9, anchor_policy=policy,
                )
                rows[mode, policy] = [r.successes for r in run_decay_experiment(cfg)]
        for ident, exh in zip(rows["rational", "identity"], rows["rational", "exhaustive"]):
            assert exh >= ident
        assert rows["rational", "exhaustive"] == rows["float", "exhaustive"]
        assert rows["rational", "identity"] == rows["float", "identity"]

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


def reference_successes(cfg: ExperimentConfig) -> dict:
    """Per-policy success counts from whole sampled graphs, trial by trial."""
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

    out = {"identity": [], "exhaustive": []}
    for n in cfg.n_values:
        prefix = enum.order[:n]
        same = iso = 0
        for t in range(cfg.trials):
            G, H = (graph(_trial_seed(cfg.base_seed, n, t, side)) for side in (0, 1))
            same += all(
                G.has_edge(u, v) == H.has_edge(u, v)
                for i, u in enumerate(prefix)
                for v in prefix[i + 1 :]
            )
            iso += partial_isomorphism_exists(G, H, enum, n)
        out["identity"].append(same)
        out["exhaustive"].append(iso)
    return out


class TestDecayEquivalence:
    """The per-row coin matrices count what whole-graph trials count."""

    CFG = ExperimentConfig(n_values=(3, 4, 5, 8), trials=40, intensity=60.0, base_seed=9)

    def check_against_reference(self, cfg):
        want = reference_successes(cfg)
        for policy in ("identity", "exhaustive"):
            got = [
                r.successes
                for r in run_decay_experiment(dataclasses.replace(cfg, anchor_policy=policy))
            ]
            assert got == want[policy], policy

    def test_both_policies_match_graph_reference(self):
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
        recorded = {"identity": [32, 5, 0, 0, 0], "exhaustive": [70, 5, 0, 0, 0]}
        for policy, successes in recorded.items():
            rows = run_decay_experiment(dataclasses.replace(cfg, anchor_policy=policy))
            assert [r.successes for r in rows] == successes, policy


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
        cands = (prefix,) if cfg.anchor_policy == "identity" else _extension_candidates(enum, n)
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

    @example(("hexagon", "rational"), ROW_WINDOWS[1], 0.98, 300, (3, 4, 20, 40), "exhaustive", 9)
    @example(("regular-hexagon", "float"), ROW_WINDOWS[1], 0.98, 7, (5, 40), "identity", 12)
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(ROW_SHAPES),
        st.sampled_from(ROW_WINDOWS),
        st.sampled_from([0.02, 0.5, 0.98]),
        st.sampled_from([1, 7, 300]),
        st.sets(st.integers(3, 40), min_size=1, max_size=4).map(lambda ns: tuple(sorted(ns))),
        st.sampled_from(["identity", "exhaustive"]),
        st.sampled_from([9, 12]),
    )
    def test_rows_match_full_matrix_count(self, shape, window, p, trials, n_values, policy, seed):
        (spec, mode), (box, intensity) = shape, window
        cfg = ExperimentConfig(
            shape=spec, window=box, intensity=intensity, mode=mode, n_values=n_values,
            p=p, trials=trials, base_seed=seed, anchor_policy=policy,
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
        for policy, rows in entry["rows"].items():
            cfg = ExperimentConfig(**entry["config"], anchor_policy=policy)
            got = [dataclasses.asdict(r) for r in run_decay_experiment(cfg)]
            assert got == rows, policy


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
                assert _floor_table(pts, shape) == self.scalar_floor_table(pts, shape)
        # float points far from integer differences pass the filter alone
        floats = PointSet(
            tuple(Vec2(0.1 + 0.3819 * k, 0.05 + (0.6180339887 * k * k) % 1.9) for k in range(12)),
            Window(0.0, 0.0, 5.0, 2.0), 0,
        )
        assert _floor_table(floats, square_linf()) == self.scalar_floor_table(floats, square_linf())
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
    assert partial_isomorphism_exists(G, H, good_enumeration(back, shape), 3) in (True, False)
