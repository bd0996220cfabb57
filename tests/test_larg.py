"""LARG sampling: edge coins, thresholds, compatibility, graph files."""

import dataclasses
import hashlib
import math
import pickle
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from larg_lab import larg
from larg_lab.experiments import shape_from_spec
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
    graph_lines,
    in_range_pairs,
    load_graph,
    pair_uniform,
    pair_uniform_array,
    sample_larg,
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
    # a 0-d pair gives a 0-d coin
    one = pair_uniform_array(123456789, us[3], vs[3])
    assert np.shape(one) == () and one == arr[3]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(2**63), 2**64 - 1), max_size=6),
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=20),
)
def test_vertex_table_seed_vector_matches_per_seed_calls(seeds, pairs):
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    with pytest.raises(LargError, match="one seed"):
        pair_uniform_array(seeds, us, vs)
    if any(u == v for u, v in pairs):
        for s in seeds:
            with pytest.raises(LargError, match="distinct"):
                pair_uniform_array(s, us, vs)
        return
    verts, k = np.unique(np.minimum(us, vs), return_inverse=True)
    hi = np.maximum(us, vs)
    table = larg._vertex_table(np.array([s & larg._MASK for s in seeds], dtype=np.uint64), verts)
    assert table.shape == (len(seeds), len(verts))
    got = larg._table_hashes(table, k, hi) / 2.0**64
    assert got.shape == (len(seeds), len(pairs))
    want = np.array([pair_uniform_array(s, us, vs) for s in seeds]).reshape(got.shape)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for row, s in zip(table, seeds):
        assert np.array_equal(row, larg._vertex_table(s, verts))


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
    block = draw(st.sampled_from([1, 7, 64, larg._BLOCK_CELLS, 1 << 16]))
    return ps, shape, delta, block


@settings(max_examples=80, deadline=None)
@given(pair_problems())
def test_in_range_pairs_matches_brute_force(problem):
    ps, shape, delta, block = problem
    with mock.patch.object(larg, "_BLOCK_CELLS", block):
        u, v = in_range_pairs(ps, shape, delta)
    assert u.dtype == v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == brute_force_pairs(ps, shape, delta)


@settings(max_examples=80, deadline=None)
@given(pair_problems(), st.sampled_from([0.1, 0.5, 0.9]), st.integers(-(2**63), 2**64 - 1))
def test_sample_larg_matches_brute_force(problem, p, seed):
    # coins are drawn block by block and only coin-passing pairs near delta
    # reach the scalar distance; the edges are still exactly the in-range
    # pairs whose coin is below p
    ps, shape, delta, block = problem
    with mock.patch.object(larg, "_BLOCK_CELLS", block):
        G = sample_larg(ps, shape, delta, p, edge_seed=seed)
    want = [(u, v) for u, v in brute_force_pairs(ps, shape, delta) if pair_uniform(seed, u, v) < p]
    assert list(G.edges) == want


def test_blocks_of_more_rows_than_the_default():
    # at 1 << 16 cells a block of the sweep takes 200 rows, more than the
    # default block size allows, so a lower-triangle mask sized for the
    # default leaves pairs of its last rows unmasked
    ps = tiny_cluster(200, spread=0.5, seed=4)
    want = brute_force_pairs(ps, LpShape(2), 1)
    with mock.patch.object(larg, "_BLOCK_CELLS", 1 << 16):
        u, v = in_range_pairs(ps, LpShape(2), 1)
        G = sample_larg(ps, LpShape(2), 1, 0.5, edge_seed=9)
    assert len(want) == 200 * 199 // 2
    assert list(zip(u.tolist(), v.tolist())) == want
    assert list(G.edges) == [(a, b) for a, b in want if pair_uniform(9, a, b) < 0.5]


def _digest(u, v) -> str:
    """sha256 of the little-endian int64 bytes of u, then of v."""
    h = hashlib.sha256(np.asarray(u).astype("<i8").tobytes())
    h.update(np.asarray(v).astype("<i8").tobytes())
    return h.hexdigest()[:16]


def _float_square(n: int, side: float, seed: int) -> PointSet:
    xy = np.random.default_rng(seed).random((n, 2)) * side
    return PointSet(tuple(Vec2(float(x), float(y)) for x, y in xy), Window(0.0, 0.0, side, side), seed=seed)


def _rational_near_delta() -> PointSet:
    # a lattice of step 1/3 with a copy shifted by 10^-13, so many pairs sit
    # at exactly 1 or within the float guard of it
    base = [Vec2(Fraction(i, 3), Fraction(j, 3)) for i in range(9) for j in range(9)]
    tiny = Fraction(1, 10**13)
    pts = base + [Vec2(b.x + tiny, b.y - tiny) for b in base[::3]]
    window = Window(Fraction(-1), Fraction(-1), Fraction(4), Fraction(4))
    return PointSet(tuple(pts), window, seed=0, mode="rational")


# name -> (points, shape, delta, p, edge_seed, sample_larg digest, in_range_pairs digest)
def _golden_graphs():
    box_window = Window(Fraction(0), Fraction(0), Fraction(3), Fraction(3))
    return {
        "hexagon-1.5": (_float_square(2000, 1.5, 5), rational_hexagon(), 1, 0.5, 3, "ed9d57d4238036d4", "c2b5017c5492d105"),
        "hexagon-3": (_float_square(2000, 3.0, 6), rational_hexagon(), 1, 0.5, 3, "8929d6d29d160bd1", "1b599fb1552ef3bb"),
        "lp2": (_float_square(2000, 3.0, 7), LpShape(2), 1, 0.3, 11, "1fe21a9ae36129f1", "d815ea607f46b90c"),
        "lp1.5": (_float_square(2000, 3.0, 8), LpShape(1.5), 1, 0.7, 12, "b6d5dc94936f1a6d", "98b2d45885ee7ca8"),
        "rational-near": (_rational_near_delta(), rational_hexagon(), 1, 0.5, 5, "f804c6418d45a151", "bbd0506e77cae18f"),
        "box-7/10": (
            sample_poisson_window(box_window, 100.0, seed=2, mode="rational"),
            shape_from_spec("box:1,0;1,2"),
            Fraction(7, 10),
            0.5,
            13,
            "7a4d85b19f5a2efa",
            "e8d829b75e947cdb",
        ),
    }


def test_golden_edge_digests():
    # edges and in-range pairs as the pair kernel drew them when these
    # digests were recorded; any change to the sweep must reproduce them
    for name, (ps, shape, delta, p, seed, edges, pairs) in _golden_graphs().items():
        G = sample_larg(ps, shape, delta, p, edge_seed=seed)
        got = (_digest(G.edges.u, G.edges.v), _digest(*in_range_pairs(ps, shape, delta)))
        assert (name, *got) == (name, edges, pairs)


# n -> (sample_larg digest, in_range_pairs digest); n = 2^k and 2^k + 1
# bracket each width of the pair keys
_GOLDEN_SMALL = {
    2: ("9d34149fbd1fe777", "9d34149fbd1fe777"),
    3: ("c571327cb01ac1de", "c571327cb01ac1de"),
    4: ("947e28fde0b46f57", "5e42ae9be0a73be2"),
    5: ("64412c3ea0f01282", "df0e7a5c0e28ae02"),
    8: ("e21919b0d3b0e995", "43e5bb85183db740"),
    9: ("ad65c6bbed0ecfab", "ac218662ce75f532"),
    16: ("3e9a58643d3d0044", "313dcebe8c8eb5b1"),
    17: ("b3e12000108e6ae9", "49c8e846d129ae18"),
    64: ("fbb83fee3f764bf5", "42b0f0c5435df935"),
    65: ("4bb255630101083d", "35abd5e5d808fa10"),
}


@pytest.mark.parametrize("n", sorted(_GOLDEN_SMALL))
def test_golden_small_graphs_match_brute_force(n):
    ps = tiny_cluster(n, spread=1.6, seed=n)
    for shape in (rational_hexagon(), LpShape(2)):
        want = brute_force_pairs(ps, shape, 1)
        u, v = in_range_pairs(ps, shape, 1)
        G = sample_larg(ps, shape, 1, 0.5, edge_seed=n)
        assert list(zip(u.tolist(), v.tolist())) == want
        assert list(G.edges) == [(a, b) for a, b in want if pair_uniform(n, a, b) < 0.5]
    got = (_digest(G.edges.u, G.edges.v), _digest(u, v))
    assert got == _GOLDEN_SMALL[n]


@pytest.mark.parametrize("n", [2, 3, 97])
def test_vertex_table_coins_match_pair_uniform_array(n):
    lo, hi = np.triu_indices(n, 1)
    assert lo[0] == 0 and hi[-1] == n - 1
    for seed in (0, 7, -1, 2**63, 2**64 - 1):
        got = larg._table_hashes(larg._vertex_table(seed, np.arange(n)), lo, hi) / 2.0**64
        want = pair_uniform_array(seed, lo, hi)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got[n - 2] == pair_uniform(seed, 0, n - 1)


@st.composite
def coin_probabilities(draw):
    """p in (0, 1): any float, a dyadic k / 2^m, one near 0 or near 1, then
    possibly moved to a float neighbour."""
    m = draw(st.integers(1, 60))
    p = draw(
        st.one_of(
            st.floats(0, 1, exclude_min=True, exclude_max=True),
            st.integers(1, 2 ** min(m, 53) - 1).map(lambda k: k / 2**m),
            st.floats(0, 2.0**-50, exclude_min=True),
            st.integers(1, 2**20).map(lambda k: 1 - k * 2.0**-53),
        )
    )
    for toward in draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=2)):
        p = math.nextafter(p, toward)
    assume(0 < p < 1)
    return p


@settings(max_examples=300, deadline=None)
@given(
    coin_probabilities(),
    st.lists(st.integers(0, 2**64 - 1), max_size=8),
    st.integers(-(2**63), 2**64 - 1),
    st.integers(0, 2**40),
    st.integers(1, 2**20),
)
def test_coin_threshold_matches_float_coins(p, hashes, seed, u, gap):
    # a hash h is a coin below p iff h / 2^64 < p in float64, as pair_uniform
    # and pair_uniform_array compute it
    T = int(larg._coin_threshold(p))
    for h in [0, T - 1, T, T + 1, 2**64 - 1, *hashes]:
        if 0 <= h < 2**64:
            want = bool((np.array([h], dtype=np.uint64) / 2.0**64 < p)[0])
            assert (h < T) == want, (p, h, T)
    v = u + gap
    h = larg._table_hashes(larg._vertex_table(seed, np.array([u])), np.array([0]), np.array([v]))
    assert (pair_uniform(seed, u, v) < p) == bool(h[0] < T)


def test_sample_larg_memory_follows_edges():
    # 2000 float points in [0, 1.5]^2 under the rational hexagon: about a
    # third of the pairs are in range and half of those become edges.  The
    # traced peak stays within 3x the 16 bytes per edge of the result, plus
    # the temporaries of one block of the sweep.
    rng = np.random.default_rng(5)
    ps = PointSet(
        tuple(Vec2(float(x), float(y)) for x, y in rng.random((2000, 2)) * 1.5),
        Window(0.0, 0.0, 1.5, 1.5),
        seed=5,
    )
    sample_larg(ps, rational_hexagon(), 1, 0.5, edge_seed=3)  # fills the set's caches
    tracemalloc.start()
    try:
        G = sample_larg(ps, rational_hexagon(), 1, 0.5, edge_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(G.edges) > 500_000
    assert peak <= 3 * 16 * len(G.edges) + 128 * larg._BLOCK_CELLS


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


def write_graph(path, g):
    path.write_text("".join(line + "\n" for line in graph_lines(g)))


def test_graph_file_round_trip(tmp_path):
    ps = tiny_cluster(30, seed=13)
    g = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=44)
    path = tmp_path / "graph.txt"
    write_graph(path, g)
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
    write_graph(path, g)
    back = load_graph(path)
    assert back == g
    assert type(back.delta) is Fraction
    # a plain JSON number still reads, as a float
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"1/3"', "0.25")
    path.write_text("\n".join(lines) + "\n")
    assert load_graph(path).delta == 0.25


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda lines: [lines[0].replace('"edge_seed"', '"seed"')] + lines[1:], "no key 'edge_seed'"),
        (lambda lines: ["[1, 2]"] + lines[1:], "malformed graph JSON"),
        (lambda lines: lines + ["0 1 2"], "'0 1 2' is not two vertices"),
        (lambda lines: lines + ["0 x"], "'0 x' is not two vertices"),
        (lambda lines: ["{n: 12}"] + lines[1:], "graph header is not JSON"),
    ],
    ids=["no-edge-seed", "list-header", "three-vertex-edge", "non-integer-vertex", "header-not-json"],
)
def test_malformed_graph_file_refused(tmp_path, edit, match):
    # each case ended in a KeyError, TypeError, bare ValueError or JSONDecodeError
    path = tmp_path / "graph.txt"
    write_graph(path, sample_larg(tiny_cluster(12, seed=2), square_linf(), 1, 0.5, edge_seed=3))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(LargError, match=match):
        load_graph(path)


def test_geograph_validation():
    with pytest.raises(LargError):
        GeoGraph("x", 3, 0.5, 1, 0, frozenset({(0, 3)}))
    with pytest.raises(LargError):
        GeoGraph("x", 3, 0.5, 1, 0, frozenset({(2, 1)}))
    g = GeoGraph("x", 3, 0.5, 1, 0, frozenset({(0, 2)}))
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
def test_edge_set_from_pairs_sorts_and_dedupes(pairs):
    if all(u < v for u, v in pairs):
        assert list(EdgeSet.from_pairs(pairs)) == sorted(set(pairs))
    else:
        with pytest.raises(LargError):
            EdgeSet.from_pairs(pairs)


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
    # the order is checked in blocks; a fault on either side of a block
    # boundary is still refused
    u, v = np.arange(10), np.arange(1, 11)
    for cells in (1, 2, 3, larg._BLOCK_CELLS):
        with mock.patch.object(larg, "_BLOCK_CELLS", cells):
            assert len(EdgeSet(u, v)) == 10
            for k in range(1, 10):
                with pytest.raises(LargError):
                    EdgeSet(np.r_[u[:k], u[k - 1], u[k + 1 :]], np.r_[v[:k], v[k - 1], v[k + 1 :]])
                with pytest.raises(LargError):
                    EdgeSet(u, np.r_[v[:k], u[k], v[k + 1 :]])


def test_edge_set_order_check_memory():
    # 550k sorted, contiguous int64 pairs are kept without a copy, and the
    # blocked order check allocates a small part of their bytes
    u = np.repeat(np.arange(1100, dtype=np.int64), 500)
    v = u + np.tile(np.arange(1, 501, dtype=np.int64), 1100)
    tracemalloc.start()
    try:
        e = EdgeSet(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(e) == 550_000 and e.u is u and e.v is v
    assert peak <= 0.25 * (u.nbytes + v.nbytes)


def test_replace_revalidates_edges():
    ps = tiny_cluster(12, seed=3)
    G = sample_larg(ps, square_linf(), 1, 0.5, edge_seed=6)
    flip = min(G.edges)
    H = dataclasses.replace(G, edges=frozenset(G.edges ^ {flip}))
    assert isinstance(H.edges, EdgeSet)
    assert not H.has_edge(*flip) and len(H.edges) == len(G.edges) - 1
    with pytest.raises(LargError):
        dataclasses.replace(G, edges=frozenset({(0, 12)}))


def test_adjacency_matches_brute_force():
    ps = sample_poisson_window(Window(0.0, 0.0, 3.0, 3.0), 30.0, seed=8)
    G = sample_larg(ps, regular_hexagon(), 1, 0.5, edge_seed=4)
    pairs = set(G.edges)
    adj = G.adjacency_matrix()
    assert pairs
    for u in range(G.n):
        for v in range(G.n):
            assert adj[u, v] == ((min(u, v), max(u, v)) in pairs)


def test_geograph_pickle_and_file_round_trip(tmp_path):
    ps = tiny_cluster(25, seed=14)
    G = sample_larg(ps, rational_hexagon(), Fraction(1, 3), 0.5, edge_seed=9)
    empty = GeoGraph(ps.fingerprint(), 25, 0.5, Fraction(1, 3), 9, ())
    assert G.edges and not empty.edges
    for g in (G, empty):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert isinstance(back.edges, EdgeSet) and not back.edges.u.flags.writeable
        write_graph(tmp_path / "g.txt", g)
        assert load_graph(tmp_path / "g.txt") == g
