"""The benchmark's output checks accept correct results and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q

Each test builds a small correct result with larg_lab, confirms its check
passes, corrupts one thing (drops an edge, raises a success count, moves a
witness, drops a grid line, flips a box outcome) and confirms the check
fails.
"""

import copy
import dataclasses
import json
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import larg_lab as L  # noqa: E402
import larg_lab.cli  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _points(window, n, seed, mode="float"):
    return workloads.first_points(L, window, n, seed, mode)


def test_graph_check_rejects_dropped_and_extra_edges():
    hexagon = L.rational_hexagon()
    for pts, shape in (
        (_points(L.Window(0.0, 0.0, 1.5, 1.5), 300, 3), hexagon),
        (_points(L.Window(0.0, 0.0, 1.5, 1.5), 300, 4), L.LpShape(2.0)),
        (_points(L.Window(F(0), F(0), F(2), F(2)), 60, 5, "rational"), hexagon),
    ):
        G = L.sample_larg(pts, shape, 1, 0.5, edge_seed=11)
        assert checks.check_graph(pts.points, shape, 0.5, 11, G.edges) == []
        edges = sorted(G.edges)
        assert checks.check_graph(pts.points, shape, 0.5, 11, edges[1:])
        far = next((u, v) for u in range(len(pts)) for v in range(u + 1, len(pts)) if (u, v) not in G.edges)
        assert checks.check_graph(pts.points, shape, 0.5, 11, edges + [far])
        assert checks.check_graph(pts.points, shape, 0.5, 12, G.edges)


def test_decay_check_rejects_raised_success_count():
    with open(os.path.join(HERE, "expected_decay.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    rows = expected["rows"]
    cfg = expected["config"]
    args = (cfg["n_values"], cfg["trials"], cfg["p"], 3)
    assert checks.check_decay_rows(rows, *args, recorded=rows) == []
    raised = copy.deepcopy(rows)
    raised[0]["successes"] += 1
    assert checks.check_decay_rows(raised, *args, recorded=rows)
    assert checks.check_decay_rows(raised, *args)
    raised[1]["successes"] = cfg["trials"] + 1
    assert checks.check_decay_rows(raised, *args)


def test_witness_check_rejects_moved_witness():
    g = L.canonical_interleaving()
    pts = _points(L.Window(0.0, 0.0, 10.0, 10.0), 300, 7)
    pmap = L.box_product_point_map(pts, L.square_linf(), g, g)
    regular = L.regular_hexagon()
    verdict = L.is_step_isometry(pmap, regular)
    assert checks.check_witness(verdict, pmap, regular, truncate=True) == []
    i, j = verdict.witness
    moved = dataclasses.replace(verdict, witness=(i, j + 1))
    assert checks.check_witness(moved, pmap, regular, truncate=True)
    assert checks.check_witness(dataclasses.replace(verdict, ok=True, witness=None), pmap, regular, True)

    box = L.box_shape(L.Vec2(F(1), F(0)), L.Vec2(F(1), F(2)))
    rpts = _points(L.Window(F(0), F(0), F(5), F(5)), 80, 8, "rational")
    rmap = L.box_product_point_map(rpts, box, g, g)
    iso = L.is_isometry(rmap, box)
    assert checks.check_witness(iso, rmap, box, truncate=False) == []
    i, j = iso.witness
    assert checks.check_witness(dataclasses.replace(iso, witness=(i, j + 1)), rmap, box, truncate=False)


def test_decidable_subset_removes_pairs_the_float_lane_refuses():
    pts = _points(L.Window(0.0, 0.0, 10.0, 10.0), 50, 6)
    near = L.Vec2(pts[0].x + 3.0 + 1e-11, pts[0].y)
    boundary = L.PointSet(pts.points + (near,), pts.window, pts.seed)
    g = L.canonical_interleaving()
    square = L.square_linf()
    try:
        L.is_step_isometry(L.box_product_point_map(boundary, square, g, g), square)
    except L.BoundaryAmbiguityError:
        pass
    else:
        raise AssertionError("the float lane accepted a pair at an integer distance")
    kept = workloads.decidable_subset(L, boundary)
    assert kept.points == pts.points
    assert L.is_step_isometry(L.box_product_point_map(kept, square, g, g), square).ok


def test_step_pass_and_box_map_checks_reject_corruption():
    g = L.canonical_interleaving()
    box = L.box_shape(L.Vec2(F(1), F(0)), L.Vec2(F(1), F(2)))
    pts = _points(L.Window(F(0), F(0), F(5), F(5)), 80, 9, "rational")
    pmap = L.box_product_point_map(pts, box, g, g)
    verdict = L.is_step_isometry(pmap, box)
    assert checks.check_step_pass(verdict, len(pmap)) == []
    assert checks.check_step_pass(dataclasses.replace(verdict, checked=verdict.checked - 1), len(pmap))
    assert checks.check_box_map(pmap, box) == []
    images = list(pmap.images)
    images[0] = L.Vec2(images[0].x + F(1, 7), images[0].y)
    assert checks.check_box_map(dataclasses.replace(pmap, images=tuple(images)), box)


def test_grid_check_rejects_dropped_line():
    gens = L.rational_hexagon().generators
    r = L.SqrtExt(-1, 1, 2)
    t = L.Vec2(F(3, 13), F(5, 13))
    base = (t, t + L.Vec2(r, F(0)))
    family = L.generate_grid(base, gens, 4, 2)
    assert checks.check_grid(family, base, 2, 4) == []
    levels = list(family.levels)
    levels[2] = levels[2][1:]
    dropped = dataclasses.replace(family, levels=tuple(levels))
    assert checks.check_grid(dropped, base, 2, 4)

    shift = {a: a.dot(t) for a in gens}
    offsets = {a: L.grid_offsets(family, a) for a in gens}
    assert checks.check_dense_offsets(offsets, shift, r, reach=1) == []
    a = gens[0]
    missing = dict(offsets)
    missing[a] = [c for c in offsets[a] if c != checks.frac(shift[a] + r)]
    assert checks.check_dense_offsets(missing, shift, r, reach=1)

    base3 = (t, t + L.Vec2(F(1, 3), F(0)))
    third = {a: L.grid_offsets(L.generate_grid(base3, gens, 3, 2), a) for a in gens}
    assert checks.check_rational_offsets(third, shift, 3) == []
    third[a] = third[a] + [checks.frac(shift[a] + F(1, 2))]
    assert checks.check_rational_offsets(third, shift, 3)


def test_box_checks_reject_flipped_outcome(tmp_path):
    cfg = {"shape": "box:2,0;0,2", "window": ["0", "0", "2", "2"], "intensity": 3.0,
           "seed": 3, "mode": "rational", "p": 0.5, "trials": 6, "budget": 4000}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(cfg))
    payload = json.loads(workloads.cli(L, ["experiment", "box-demo", "--config", str(path)]))
    assert checks.check_box_demo(payload, 6) == []
    flipped = dict(payload, outcomes=list(payload["outcomes"]))
    flipped["outcomes"][0] = "none" if flipped["outcomes"][0] != "none" else "isomorphic"
    assert checks.check_box_demo(flipped, 6)

    small_box = L.box_shape(L.Vec2(F(2), F(0)), L.Vec2(F(0), F(2)))
    raw = L.sample_poisson_window(L.Window(F(0), F(0), F(2), F(2)), 3.0, seed=3, mode="rational")
    _, pts = L.rescale_to_idf(raw, small_box.generators, seed=0)
    for s in range(1, 40):
        G = L.sample_larg(pts, small_box, 1, 0.5, edge_seed=2 * s)
        H = L.sample_larg(pts, small_box, 1, 0.5, edge_seed=2 * s + 1)
        found = L.back_and_forth_isomorphism(G, H, pts, small_box, 4000)
        assert checks.check_isomorphism(found, G, H, pts, small_box) == []
        if found[0] == "isomorphic":
            break
    else:
        raise AssertionError("no isomorphic pair of samples to corrupt")
    assert checks.check_isomorphism(("none", found[1]), G, H, pts, small_box)
    assert checks.check_isomorphism(("isomorphic", None), G, H, pts, small_box)
    mapping = list(found[1])
    mapping[0] = mapping[1]
    assert checks.check_isomorphism(("isomorphic", tuple(mapping)), G, H, pts, small_box)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_spec()
