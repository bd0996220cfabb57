"""LARG sampling: edge coins, thresholds, compatibility, graph files."""

import math
from fractions import Fraction

import numpy as np
import pytest

from larg_lab.geometry import (
    LpShape,
    Vec2,
    distance,
    rational_hexagon,
    regular_hexagon,
    square_linf,
)
from larg_lab.larg import (
    GeoGraph,
    LargError,
    compatibility_probability,
    load_graph,
    pair_compatible,
    pair_uniform,
    pair_uniform_array,
    sample_larg,
    save_graph,
)
from larg_lab.pointsets import PointSet, Window, sample_poisson_window


def tiny_cluster(n: int, spread: float = 0.4, seed: int = 0) -> PointSet:
    rng = np.random.default_rng(seed)
    pts = []
    seen = set()
    while len(pts) < n:
        x, y = rng.random(2) * spread
        if (x, y) not in seen:
            seen.add((x, y))
            pts.append(Vec2(float(x), float(y)))
    return PointSet(tuple(pts), Window(0.0, 0.0, 1.0, 1.0), seed=seed)


# ---------------------------------------------------------------------------
# pair streams


def test_pair_uniform_symmetric_and_deterministic():
    assert pair_uniform(7, 3, 11) == pair_uniform(7, 11, 3)
    assert pair_uniform(7, 3, 11) == pair_uniform(7, 3, 11)
    assert pair_uniform(8, 3, 11) != pair_uniform(7, 3, 11)
    with pytest.raises(LargError):
        pair_uniform(7, 4, 4)


def test_pair_uniform_array_matches_scalar():
    us = np.arange(0, 200)
    vs = np.arange(1, 201) * 7 % 211 + 200  # disjoint from us
    arr = pair_uniform_array(123456789, us, vs)
    for k in range(0, 200, 17):
        assert arr[k] == pair_uniform(123456789, int(us[k]), int(vs[k]))


def test_pair_streams_nearly_uncorrelated():
    # adjacent pairs share a vertex; their coins must still look independent
    n = 10_000
    us = np.arange(n)
    a = pair_uniform_array(42, us, us + 1)
    b = pair_uniform_array(42, us + 1, us + 2)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.05
    assert abs(a.mean() - 0.5) < 0.02


def test_nested_prefix_consistency():
    # growing the point set must not disturb existing coins: same seed, same
    # pair indices -> identical adjacency on the common prefix
    small = tiny_cluster(20, seed=3)
    big = PointSet(
        small.points + (Vec2(0.9, 0.9), Vec2(0.85, 0.9)),
        small.window,
        seed=3,
    )
    g_small = sample_larg(small, square_linf(), 1, 0.5, edge_seed=99)
    g_big = sample_larg(big, square_linf(), 1, 0.5, edge_seed=99)
    for u in range(20):
        for v in range(u + 1, 20):
            assert g_small.has_edge(u, v) == g_big.has_edge(u, v)


# ---------------------------------------------------------------------------
# sampling semantics


def test_range_invariant_no_long_edges():
    ps = sample_poisson_window(Window(0.0, 0.0, 3.0, 3.0), 40.0, seed=5)
    sh = regular_hexagon()
    g = sample_larg(ps, sh, 1, 0.7, edge_seed=1)
    for u, v in g.edges:
        assert distance(sh, ps[u], ps[v]) < 1


def test_strict_threshold_excludes_exact_delta():
    # distance exactly delta (exact mode): never an edge, any seed
    pts = PointSet(
        (Vec2(Fraction(0), Fraction(0)), Vec2(Fraction(1), Fraction(0))),
        Window(Fraction(-1), Fraction(-1), Fraction(2), Fraction(2)),
        seed=0,
        mode="rational",
    )
    for seed in range(50):
        g = sample_larg(pts, square_linf(), Fraction(1), 0.9, edge_seed=seed)
        assert not g.has_edge(0, 1)


def test_determinism_and_seed_sensitivity():
    ps = tiny_cluster(40, seed=1)
    g1 = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=7)
    g2 = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=7)
    g3 = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=8)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    assert g1.point_set_ref == ps.fingerprint()


def test_vectorized_path_matches_scalar_path():
    # same point set through the n > 64 vectorized branch and the loop branch
    ps_big = tiny_cluster(80, seed=11)
    ps_small = PointSet(ps_big.points[:60], ps_big.window, seed=11)
    g_big = sample_larg(ps_big, regular_hexagon(), 1, 0.4, edge_seed=5)
    g_small = sample_larg(ps_small, regular_hexagon(), 1, 0.4, edge_seed=5)
    expected = {(u, v) for u, v in g_big.edges if u < 60 and v < 60}
    assert g_small.edges == expected


def test_gnp_reduction():
    # window so small every pair is in range: LARG degenerates to G(n, p)
    ps = tiny_cluster(60, spread=0.3, seed=2)
    p = 0.3
    g = sample_larg(ps, square_linf(), 1, p, edge_seed=21)
    trials = []
    for seed in range(120):
        trials.append(len(sample_larg(ps, square_linf(), 1, p, seed).edges))
    m = 60 * 59 / 2
    mean = np.mean(trials)
    sigma = math.sqrt(m * p * (1 - p))
    assert abs(mean - m * p) < 4 * sigma / math.sqrt(len(trials)) + 1e-9
    assert all(0 <= t <= m for t in trials)
    assert len(g.edges) <= m


def test_edge_fraction_matches_p():
    # binomial check at fixed pairs: fraction of present edges ~ p within 3 sigma
    ps = tiny_cluster(50, spread=0.2, seed=4)
    p = 0.42
    m = 50 * 49 // 2
    count = len(sample_larg(ps, square_linf(), 1, p, edge_seed=17).edges)
    sigma = math.sqrt(m * p * (1 - p))
    assert abs(count - m * p) <= 3 * sigma


def test_sample_larg_validation():
    ps = tiny_cluster(5)
    with pytest.raises(LargError):
        sample_larg(ps, square_linf(), 1, 0.0, edge_seed=0)
    with pytest.raises(LargError):
        sample_larg(ps, square_linf(), 1, 1.0, edge_seed=0)
    with pytest.raises(LargError):
        sample_larg(ps, square_linf(), 0, 0.5, edge_seed=0)


def test_lp_shape_sampling():
    ps = tiny_cluster(70, spread=2.0, seed=6)
    sh = LpShape(2)
    g = sample_larg(ps, sh, 1, 0.8, edge_seed=3)
    for u, v in g.edges:
        assert distance(sh, ps[u], ps[v]) < 1


def test_exact_mode_sampling():
    pts = tuple(
        Vec2(Fraction(k, 7), Fraction((3 * k) % 5, 5)) for k in range(12)
    )
    ps = PointSet(
        pts, Window(Fraction(0), Fraction(0), Fraction(2), Fraction(1)), 0, "rational"
    )
    g = sample_larg(ps, rational_hexagon(), Fraction(1), 0.5, edge_seed=2)
    sh = rational_hexagon()
    for u, v in g.edges:
        assert distance(sh, pts[u], pts[v]) < 1


# ---------------------------------------------------------------------------
# compatibility


def test_compatibility_probability_values():
    assert compatibility_probability(0.5, True) == 0.5
    assert compatibility_probability(0.9, True) == pytest.approx(0.82)
    assert compatibility_probability(0.3, False) == 1.0
    with pytest.raises(LargError):
        compatibility_probability(0.0, True)


def test_pair_compatible_and_validation():
    ps = tiny_cluster(10, seed=9)
    g = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=1)
    h = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=2)
    got = pair_compatible(g, h, (0, 1), (0, 1))
    assert got == (g.has_edge(0, 1) == h.has_edge(0, 1))
    with pytest.raises(LargError):
        pair_compatible(g, h, (0, 10), (0, 1))
    with pytest.raises(LargError):
        pair_compatible(g, h, (2, 2), (0, 1))


def test_compatible_fraction_converges_to_pstar():
    # Monte Carlo over iid (G, H) on a fixed in-range pair
    pts = PointSet(
        (Vec2(0.1, 0.1), Vec2(0.4, 0.3)), Window(0.0, 0.0, 1.0, 1.0), seed=0
    )
    for p in (0.3, 0.7):
        agree = 0
        trials = 4000
        for t in range(trials):
            g = sample_larg(pts, square_linf(), 1, p, edge_seed=2 * t)
            h = sample_larg(pts, square_linf(), 1, p, edge_seed=2 * t + 1)
            agree += pair_compatible(g, h, (0, 1), (0, 1))
        want = compatibility_probability(p, True)
        sigma = math.sqrt(want * (1 - want) / trials)
        assert abs(agree / trials - want) <= 3 * sigma


# ---------------------------------------------------------------------------
# graph files


def test_graph_file_round_trip(tmp_path):
    ps = tiny_cluster(30, seed=13)
    g = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=44)
    path = tmp_path / "graph.txt"
    save_graph(path, g)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("{")
    body = lines[1:]
    assert body == sorted(body, key=lambda s: tuple(map(int, s.split())))
    back = load_graph(path)
    assert back.edges == g.edges
    assert back.n == g.n and back.edge_seed == g.edge_seed
    assert back.point_set_ref == g.point_set_ref
    assert back == g

    # an exact delta comes back exact, not as its float approximation
    g = sample_larg(ps, square_linf(), Fraction(1, 3), 0.5, edge_seed=44)
    assert g.edges
    save_graph(path, g)
    back = load_graph(path)
    assert back == g
    assert type(back.delta) is Fraction
    # a plain JSON number still reads, as a float
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"1/3"', "0.25")
    path.write_text("\n".join(lines) + "\n")
    assert load_graph(path).delta == 0.25


def test_geograph_validation():
    with pytest.raises(LargError):
        GeoGraph("x", 3, 0.5, 1, 0, frozenset({(0, 3)}))
    with pytest.raises(LargError):
        GeoGraph("x", 3, 0.5, 1, 0, frozenset({(2, 1)}))
    g = GeoGraph("x", 3, 0.5, 1, 0, frozenset({(0, 2)}))
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)
    assert g.degree(0) == 1
    assert g.adjacency_matrix()[0, 2]
