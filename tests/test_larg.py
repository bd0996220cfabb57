"""LARG sampling: edge coins, thresholds, compatibility, graph files."""

import dataclasses
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from larg_lab import larg
from larg_lab.geometry import (
    LpShape,
    Vec2,
    distance,
    rational_hexagon,
    regular_hexagon,
    square_linf,
)
from larg_lab.larg import (
    EdgeSet,
    GeoGraph,
    LargError,
    compatibility_probability,
    in_range_pairs,
    load_graph,
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


def brute_force_pairs(points, shape, delta):
    pts = points.points
    return [
        (u, v)
        for u in range(len(pts))
        for v in range(u + 1, len(pts))
        if distance(shape, pts[u], pts[v]) < delta
    ]


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(2**63), 2**64 - 1), max_size=6),
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=20),
)
def test_pair_uniform_array_seed_vector_matches_per_seed_calls(seeds, pairs):
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    if any(u == v for u, v in pairs):
        with pytest.raises(LargError, match="distinct"):
            pair_uniform_array(seeds, us, vs)
        for s in seeds:
            with pytest.raises(LargError, match="distinct"):
                pair_uniform_array(s, us, vs)
        return
    got = pair_uniform_array(seeds, us, vs)
    assert got.shape == (len(seeds), len(pairs))
    want = np.array([pair_uniform_array(s, us, vs) for s in seeds]).reshape(got.shape)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(LargError, match="1-D"):
        pair_uniform_array([seeds], us, vs)


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

    # a lattice at spacing delta / 3: the pairs at exactly delta reach the
    # kernel's scalar boundary check and are left out
    step = Fraction(1, 9)
    pts = tuple(Vec2(i * step, j * step) for i in range(7) for j in range(7))
    ps = PointSet(pts, Window(Fraction(0), Fraction(0), Fraction(1), Fraction(1)), 0, "rational")
    u, v = in_range_pairs(ps, square_linf(), Fraction(1, 3))
    got = set(zip(u.tolist(), v.tolist()))
    assert got == set(brute_force_pairs(ps, square_linf(), Fraction(1, 3)))
    at_delta = {
        (a, b)
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
        if distance(square_linf(), pts[a], pts[b]) == Fraction(1, 3)
    }
    assert at_delta and not got & at_delta


def test_determinism_and_seed_sensitivity():
    ps = tiny_cluster(40, seed=1)
    g1 = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=7)
    g2 = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=7)
    g3 = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=8)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    assert g1.point_set_ref == ps.fingerprint()


def test_vectorized_path_matches_scalar_path():
    # the sweep kernel against a scalar distance scan, with the real block
    # size and with blocks small enough that the sweep takes many of them
    ps = tiny_cluster(80, spread=2.5, seed=11)
    for shape in (regular_hexagon(), LpShape(3)):
        want = brute_force_pairs(ps, shape, 1)
        assert 0 < len(want) < 80 * 79 // 2
        for cells in (larg._BLOCK_CELLS, 50):
            with mock.patch.object(larg, "_BLOCK_CELLS", cells):
                u, v = in_range_pairs(ps, shape, 1)
            assert list(zip(u.tolist(), v.tolist())) == want


_SHAPES = {
    "square": square_linf(),
    "rational_hexagon": rational_hexagon(),
    "regular_hexagon": regular_hexagon(),
    "lp2": LpShape(2),
    "lp3": LpShape(3),
}


@st.composite
def pair_problems(draw):
    """A point set, a shape and a delta: fine random coordinates, or a coarse
    lattice whose spacing divides delta, so some pairs sit at exactly delta."""
    shape = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    delta = draw(st.sampled_from([1, 0.3, Fraction(1, 3)]))
    mode = draw(st.sampled_from(["float", "rational"]))
    if draw(st.booleans()):
        grid, step = 12, Fraction(delta) / draw(st.integers(1, 4))
    else:
        grid, step = 1 << 20, Fraction(draw(st.sampled_from([1, 4, 16]))) / (1 << 20)
    n = draw(st.integers(2, 144))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.choice(grid * grid, n, replace=False) if grid == 12 else rng.integers(0, grid * grid, n)
    cells = [divmod(int(k), grid) for k in np.unique(flat)]
    shift = draw(st.integers(-3, 3))
    coords = [(shift + i * step, j * step) for i, j in cells]
    if mode == "float":
        pts = tuple(Vec2(float(x), float(y)) for x, y in coords)
    else:
        pts = tuple(Vec2(x, y) for x, y in coords)
    window = Window(Fraction(-4), Fraction(0), Fraction(20), Fraction(20))
    ps = PointSet(pts, window, seed=0, mode=mode)
    block = draw(st.sampled_from([1, 7, 64, larg._BLOCK_CELLS]))
    return ps, shape, delta, block


@settings(max_examples=80, deadline=None)
@given(pair_problems())
def test_in_range_pairs_matches_brute_force(problem):
    ps, shape, delta, block = problem
    with mock.patch.object(larg, "_BLOCK_CELLS", block):
        u, v = in_range_pairs(ps, shape, delta)
    assert u.dtype == v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == brute_force_pairs(ps, shape, delta)


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
    # pair agreement is read with has_edge, which is symmetric in the pair
    # and never joins a vertex to itself
    ps = tiny_cluster(10, seed=9)
    g = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=1)
    h = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=2)
    for u in range(10):
        assert not g.has_edge(u, u)
        for v in range(10):
            assert g.has_edge(u, v) == g.has_edge(v, u)
            assert h.has_edge(u, v) == h.has_edge(v, u)
    assert g.edges != h.edges


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
            agree += g.has_edge(0, 1) == h.has_edge(0, 1)
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


# ---------------------------------------------------------------------------
# edge sets


def test_edge_set_behaves_as_frozenset():
    pairs = frozenset({(0, 2), (1, 3), (0, 1), (2, 3)})
    e = GeoGraph("x", 4, 0.5, 1, 0, [(2, 3), (0, 1), (1, 3), (0, 2), (0, 1)]).edges
    assert isinstance(e, EdgeSet) and len(e) == 4
    assert e == pairs and pairs == e and not e != pairs
    assert hash(e) == hash(pairs) and {pairs: "x"}[e] == "x"
    assert e != pairs - {(0, 1)} and pairs | {(1, 2)} != e
    assert e == EdgeSet.from_pairs(pairs) and e != EdgeSet([0], [1])
    assert list(e) == sorted(pairs)
    assert all(type(w) is int for pair in e for w in pair)
    assert (1, 3) in e and (3, 1) not in e and (0, 3) not in e and (9, 9) not in e
    assert (0,) not in e and None not in e
    flipped = e ^ {(0, 1), (1, 2)}
    assert type(flipped) is frozenset and flipped == {(0, 2), (1, 2), (1, 3), (2, 3)}
    assert {(0, 1), (1, 2)} ^ e == flipped
    assert e <= pairs and e - {(0, 1)} == pairs - {(0, 1)}
    assert not GeoGraph("x", 4, 0.5, 1, 0, frozenset()).edges
    with pytest.raises(ValueError):
        e.u[0] = 3


def test_edge_set_validation():
    for bad in ([(0, 1.5)], [(0, 1, 2)], [(-1, 2)], [(1, 1)]):
        with pytest.raises(LargError):
            GeoGraph("x", 3, 0.5, 1, 0, bad)
    with pytest.raises(LargError):
        EdgeSet([1, 0], [2, 1])  # not in lexicographic order
    with pytest.raises(LargError):
        EdgeSet([0, 0], [1, 1])  # repeated pair
    with pytest.raises(LargError):
        EdgeSet([0.0], [1.0])


def test_replace_revalidates_edges():
    ps = tiny_cluster(12, seed=3)
    G = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=6)
    flip = min(G.edges)
    H = dataclasses.replace(G, edges=frozenset(G.edges ^ {flip}))
    assert isinstance(H.edges, EdgeSet)
    assert not H.has_edge(*flip) and len(H.edges) == len(G.edges) - 1
    with pytest.raises(LargError):
        dataclasses.replace(G, edges=frozenset({(0, 12)}))


def test_degree_and_adjacency_match_brute_force():
    ps = sample_poisson_window(Window(0.0, 0.0, 3.0, 3.0), 30.0, seed=8)
    G = sample_larg(ps, regular_hexagon(), 1, 0.5, edge_seed=4)
    pairs = set(G.edges)
    adj = G.adjacency_matrix()
    for u in range(G.n):
        assert G.degree(u) == sum(1 for e in pairs if u in e) == adj[u].sum()
        for v in range(G.n):
            assert adj[u, v] == ((min(u, v), max(u, v)) in pairs)
    assert pairs and G.degree(G.n) == 0


def test_geograph_pickle_and_file_round_trip(tmp_path):
    ps = tiny_cluster(25, seed=14)
    G = sample_larg(ps, rational_hexagon(), Fraction(1, 3), 0.5, edge_seed=9)
    empty = GeoGraph(ps.fingerprint(), 25, 0.5, Fraction(1, 3), 9, ())
    assert G.edges and not empty.edges
    for g in (G, empty):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert isinstance(back.edges, EdgeSet) and not back.edges.u.flags.writeable
        save_graph(tmp_path / "g.txt", g)
        assert load_graph(tmp_path / "g.txt") == g
