"""Local area random graphs.

Vertices are the points of a PointSet; each unordered pair at metric distance
strictly below delta is an edge independently with probability p.  Edge coins
come from a counter-based stream keyed by (edge_seed, min(u,v), max(u,v)), so
the coin of a pair is independent of sampling order and of the window size:
growing the point set keeps every previously drawn coin, which is what makes
nested-window experiments consistent.

In-range pairs come from one kernel for float and exact point sets alike: a
float sweep in cache-sized row blocks, with the scalar distance deciding the
pairs whose float distance lies within a guard of delta.  A block's cells
with column <= row all lie in its leading square, the only part it masks;
its pairs come from the flat indices of the mask (rows repeated by their
counts, columns by one take).  Most blocks hold no cell within the guard of
delta; their pairs are all in range, and no per-pair boundary flag is
gathered for them.  sample_larg draws the coins of each block as the sweep
yields it, from a per-vertex table of the hash's seed and first-vertex
stages: a coin passes when its 64-bit hash is below _coin_threshold(p),
which decides h / 2**64 < p without the float.  Only passing pairs near
delta reach the scalar distance, and a block keeps only its edges, as keys
lo << s | hi (s bits hold any vertex index), so memory follows the edges,
not the in-range pairs.  Edges are held as sorted int64 arrays.  Every
float filter of the package takes its guard and its float distances from
here (``_guard``, ``_distances``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from .exact import (
    FLOAT_INTEGER_GUARD,
    _malformed_json,
    _require_int,
    _require_number,
    format_scalar,
    join_fields,
    parse_scalar,
)
from .geometry import GeometryError, LpShape, NormShape, PolygonShape, distance
from .pointsets import PointSet

__all__ = [
    "EdgeSet",
    "GeoGraph",
    "LargError",
    "pair_uniform",
    "pair_uniform_array",
    "in_range_pairs",
    "sample_larg",
    "compatibility_probability",
    "graph_lines",
    "load_graph",
]


class LargError(ValueError):
    pass


# splitmix64 finalizer; wraparound arithmetic mod 2^64.  A pair's coin mixes
# the seed, then absorbs min(u, v) + 1, then max(u, v) + 1.
_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix in place on the private uint64 array z (array arithmetic wraps
    without a warning)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def pair_uniform(edge_seed: int, u: int, v: int) -> float:
    """Deterministic uniform in [0, 1) for the unordered pair {u, v}."""
    if u == v:
        raise LargError("pair needs two distinct vertices")
    a, b = (u, v) if u < v else (v, u)
    h = _mix(edge_seed & _MASK)
    h = _mix(h ^ ((a + 1) * _GOLD))
    h = _mix(h ^ ((b + 1) * _GOLD))
    return h / 2.0**64


def _seed_stage(edge_seed) -> np.ndarray:
    """The hash after mixing the seed: for one seed (any int, taken mod
    2^64) a uint64 scalar, for a 1-D uint64 array of seeds an array."""
    if np.ndim(edge_seed) == 0:
        # in Python ints: numpy warns on scalar uint64 overflow
        return np.uint64(_mix(int(edge_seed) & _MASK))
    return _mix_array(np.array(edge_seed, dtype=np.uint64))


def _vertex_words(v) -> np.ndarray:
    """(v + 1) * GOLD for vertex indices v, as a new uint64 array."""
    w = np.array(v, dtype=np.uint64)
    w += np.uint64(1)
    w *= np.uint64(_GOLD)
    return w


def _absorb(h: np.ndarray, words: np.ndarray) -> np.ndarray:
    """One vertex stage, mix(h ^ words), in place on the private uint64
    array h, which has the result's shape; words come from _vertex_words."""
    h ^= words
    return _mix_array(h)


def pair_uniform_array(edge_seed, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized pair_uniform for one seed; bit-identical to the scalar
    version.  Blocks of trials draw their coins from per-trial vertex tables
    (_vertex_table) instead."""
    if np.ndim(edge_seed) != 0:
        raise LargError("edge_seed must be one seed")
    us = np.asarray(us, dtype=np.uint64)
    vs = np.asarray(vs, dtype=np.uint64)
    a = np.minimum(us, vs)
    b = np.maximum(us, vs)
    del us, vs
    if np.any(a == b):
        raise LargError("pair needs two distinct vertices")
    h = _vertex_table(edge_seed, a).reshape(a.shape)  # a 0-d pair stays 0-d
    return _absorb(h, _vertex_words(b)) / 2.0**64


def _vertex_table(edge_seed, vertices: np.ndarray) -> np.ndarray:
    """The coin hash of edge_seed after its first vertex, for each of the
    given vertices: the coin hash of vertices[k] < v is
    ``_table_hashes(table, k, v)``.

    edge_seed is one seed, giving one value per vertex, or a 1-D uint64
    array of T seeds, giving a T x len(vertices) table whose row t is the
    table of edge_seed[t].
    """
    h = np.expand_dims(_seed_stage(edge_seed), -1)
    return _mix_array(h ^ _vertex_words(vertices))


def _table_hashes(table: np.ndarray, k: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The coin hashes of pairs lo < hi, pair_uniform_array(edge_seed, lo, hi)
    times 2**64, from the _vertex_table of edge_seed whose column k holds lo;
    a table of T rows gives T rows of hashes."""
    return _absorb(np.take(table, k, axis=-1), _vertex_words(hi))


def _coin_threshold(p) -> np.uint64:
    """The smallest uint64 h with h / 2**64 >= p, for 0 < p < 1: a coin
    h / 2**64 is below p iff h < T, as the uint64 -> float64 cast is
    monotone and dividing by 2**64 is exact.  Floats below 2**64 are at
    most 2**11 apart, so T lies within 2**13 of p * 2**64."""
    c = math.ceil(p * 2.0**64)
    lo, hi = max(0, c - (1 << 13)), min(_MASK, c + (1 << 13))
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid / 2.0**64 >= p else (mid + 1, hi)
    return np.uint64(lo)


def _sorted_pairs(u: np.ndarray, v: np.ndarray) -> bool:
    """Are the pairs (u, v) all u < v and in strictly increasing
    lexicographic order?  Checked in blocks of _BLOCK_CELLS pairs, each
    overlapping the next by one, so the temporaries stay block-sized."""
    for i0 in range(0, len(u), _BLOCK_CELLS):
        bu, bv = u[i0 : i0 + _BLOCK_CELLS + 1], v[i0 : i0 + _BLOCK_CELLS + 1]
        du = np.diff(bu)
        if not ((bu < bv).all() and ((du > 0) | ((du == 0) & (bv[1:] > bv[:-1]))).all()):
            return False
    return True


class EdgeSet(Set):
    """Read-only set view of a graph's edges.

    Holds the pairs (u, v), u < v, as two int64 arrays in lexicographic
    order; iteration yields int tuples in that order.  Contiguous int64
    arrays are kept without a copy and made read-only.  Equal to, and hashes
    like, the frozenset of the same pairs; set operations such as ``^``
    return frozensets.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u, v = np.asarray(u), np.asarray(v)
        if u.ndim != 1 or u.shape != v.shape or u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
            raise LargError("edge arrays must be two integer vectors of one length")
        u, v = np.ascontiguousarray(u, dtype=np.int64), np.ascontiguousarray(v, dtype=np.int64)
        if not _sorted_pairs(u, v):
            raise LargError("edges must be pairs u < v in strictly increasing order")
        u.flags.writeable = v.flags.writeable = False
        self.u, self.v = u, v

    @classmethod
    def from_pairs(cls, pairs) -> "EdgeSet":
        """The set of an iterable of (u, v) pairs, in any order, repeats allowed."""
        arr = np.array([tuple(e) for e in pairs])
        if arr.size == 0:
            arr = np.zeros((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            raise LargError("edges must be (u, v) pairs of integers")
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]  # np.unique would import numpy.ma
        keep = np.diff(arr, axis=0, prepend=arr[:1] - 1).any(axis=1)  # first of each run
        return cls(arr[keep, 0], arr[keep, 1])

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self) -> int:
        return len(self.u)

    def __iter__(self):
        return zip(self.u.tolist(), self.v.tolist())

    def __contains__(self, pair) -> bool:
        try:
            a, b = pair
        except (TypeError, ValueError):
            return False
        lo = int(np.searchsorted(self.u, a, side="left"))
        hi = int(np.searchsorted(self.u, a, side="right"))
        k = lo + int(np.searchsorted(self.v[lo:hi], b))
        return k < hi and bool(self.v[k] == b)

    def __eq__(self, other):
        if isinstance(other, EdgeSet):
            return np.array_equal(self.u, other.u) and np.array_equal(self.v, other.v)
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        return self._hash()

    def __reduce__(self):
        return (EdgeSet, (self.u, self.v))

    def __repr__(self) -> str:
        return f"EdgeSet({list(self)!r})"


@dataclass(frozen=True)
class GeoGraph:
    """Sampled graph; vertices are indices into the originating PointSet.

    `edges` may be given as any iterable of (u, v) pairs with u < v; it is
    stored as an EdgeSet.
    """

    point_set_ref: str
    n: int
    p: float
    delta: object
    edge_seed: int
    edges: EdgeSet

    def __post_init__(self):
        edges = self.edges
        if not isinstance(edges, EdgeSet):
            edges = EdgeSet.from_pairs(edges)
            object.__setattr__(self, "edges", edges)
        if len(edges) and (edges.u[0] < 0 or edges.v.max() >= self.n):
            raise LargError(f"an edge lies outside the vertex range [0, {self.n})")

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency_matrix(self) -> np.ndarray:
        e = self.edges
        m = np.zeros((self.n, self.n), dtype=bool)
        m[e.u, e.v] = True
        m[e.v, e.u] = True
        return m


# cells (rows x candidate columns) per block of the in-range sweep, so each
# float temporary of a block takes about 128 KB
_BLOCK_CELLS = 1 << 14


def _guard(level, reach, *arrays, rel=FLOAT_INTEGER_GUARD):
    """rel times (the boundary level plus reach times the largest |coordinate|
    of the arrays).  Float error is ~1e-16 of that sum, so float values within
    the guard of the boundary are left to the scalar rule."""
    return rel * (level + reach * max(np.abs(a).max(initial=0.0) for a in arrays))


def _columns(arr: np.ndarray, shape: NormShape):
    """Float columns whose pairwise gaps make up the distance, their reach
    (the largest |column| per unit of coordinate) and the L^p exponent.

    Polygons take the generator projections x*gx + y*gy and the exponent
    None; L^p takes x and y.  No matmul: BLAS pages cost resident memory,
    and the package loads OpenBLAS with one thread because no layer calls
    BLAS (tests/test_fields.py keeps it so).
    """
    if isinstance(shape, PolygonShape):
        gens = [g.to_floats() for g in shape.generators]
        cols = np.array([arr[:, 0] * gx + arr[:, 1] * gy for gx, gy in gens])
        return cols, max(abs(gx) + abs(gy) for gx, gy in gens), None
    if isinstance(shape, LpShape):
        return arr.T, 1.0, shape.p
    raise LargError(f"unsupported shape {shape!r}")


def _row_blocks(ends: np.ndarray):
    """Row blocks (i0, i1, j1) over n rows with nondecreasing ends, each
    ends[i] > i.

    Each block is rows i0..i1 against columns i0..j1 = ends[i1 - 1]: the
    largest such block within _BLOCK_CELLS cells, or one row.  Its cells
    with column <= row all lie in its leading rows x rows square, which
    _clear_lower masks.
    """
    n = len(ends)
    max_rows = math.isqrt(_BLOCK_CELLS)
    i0 = 0
    while i0 < n:
        rows = np.arange(i0, min(n, i0 + max_rows))
        cells = (rows - i0 + 1) * (ends[rows] - i0)
        i1 = i0 + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        yield i0, i1, int(ends[i1 - 1])
        i0 = i1


def _clear_lower(mask: np.ndarray) -> np.ndarray:
    """Clear, in place, the cells with column <= row of a block's cell mask
    from _row_blocks: the lower triangle of its leading square."""
    k = len(mask)
    square = mask[:, :k]
    square &= np.arange(k) > np.arange(k)[:, None]
    return mask


def _block_gaps(cols: np.ndarray, q, rows, columns) -> np.ndarray:
    """The points `rows` against the points `columns` (index objects into
    the columns of _columns): the largest column gap (polygons, q None) or
    the sum of the gaps to the power q (L^p)."""
    acc = None
    for col in cols:
        d = col[rows, None] - col[None, columns]
        np.abs(d, out=d)
        if q is None:
            acc = d if acc is None else np.maximum(acc, d, out=acc)
        else:
            d **= q
            acc = d if acc is None else np.add(acc, d, out=acc)
    return acc


def _distances(cols: np.ndarray, q, rows, columns) -> np.ndarray:
    """Float distances: _block_gaps with the L^p root taken."""
    acc = _block_gaps(cols, q, rows, columns)
    return acc if q is None else np.power(acc, 1.0 / q, out=acc)


def _in_range_blocks(points: PointSet, shape: NormShape, delta):
    """The float sweep behind in_range_pairs and sample_larg, block by block.

    Yields, per row block, int64 original indices lo < hi of the pairs whose
    float distance is at most delta plus a guard, and a flag `sure` that
    their float distance is below delta minus the guard.  A pair not sure
    is in range iff the scalar ``distance(...) < delta`` says so.  Most
    blocks hold no pair within the guard of delta; for those `sure` is None
    (every pair is sure) and the per-pair flags are never gathered.
    """
    join_fields(shape.field, points.field, GeometryError)
    if len(points) < 2:
        return
    arr = points.as_array()
    cols, reach, q = _columns(arr, shape)
    fdelta = float(delta)
    guard = _guard(fdelta, reach, arr)
    # a block holds the largest projection gap (polygons) or the p-sum
    # |dx|^p + |dy|^p (L^p); below inner is in range, above outer is not
    inner, outer = fdelta - guard, fdelta + guard
    if q is not None:
        inner, outer = max(inner, 0.0) ** q, outer ** q

    order = np.argsort(cols[0]).astype(np.int64, copy=False)
    cols = cols[:, order]
    ends = np.searchsorted(cols[0], cols[0] + (fdelta + guard), side="right")
    for i0, i1, j1 in _row_blocks(ends):
        acc = _block_gaps(cols, q, slice(i0, i1), slice(i0, j1))
        mask = _clear_lower(acc <= outer)
        near = acc >= inner
        near &= mask
        flat = np.flatnonzero(mask)
        a = np.repeat(order[i0:i1], np.count_nonzero(mask, axis=1))
        b = np.broadcast_to(order[i0:j1], mask.shape).take(flat)
        yield np.minimum(a, b), np.maximum(a, b), acc.take(flat) < inner if near.any() else None


def _kept_keys(points: PointSet, shape: NormShape, delta, lo, hi, sure, keep=None) -> np.ndarray:
    """Keys lo << s | hi, s = (n - 1).bit_length() (so keys sort as the
    pairs do), of the pairs in `keep` (default all) that are sure (sure None:
    all are) or that the scalar distance puts in range; the arrays are the
    block's own and are overwritten."""
    if sure is not None:
        near = np.flatnonzero(~sure if keep is None else keep & ~sure)
        keep = sure if keep is None else np.logical_and(keep, sure, out=keep)
        keep[near] = [
            distance(shape, points[a], points[b]) < delta
            for a, b in zip(lo[near].tolist(), hi[near].tolist())
        ]
    lo <<= (len(points) - 1).bit_length()
    lo |= hi
    return lo if keep is None else np.compress(keep, lo)


def _decode_keys(keys: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (u, v) in lexicographic order from a list of _kept_keys arrays,
    which is emptied; the sort and the decoding reuse the joined array."""
    key = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    keys.clear()
    key.sort()
    s = (n - 1).bit_length()
    u = key >> s
    key &= (1 << s) - 1
    return u, key


def in_range_pairs(points: PointSet, shape: NormShape, delta) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs u < v with distance(shape, points[u], points[v]) < delta.

    Returns two int64 arrays in lexicographic order.  Distances are filtered
    in float; a pair whose float distance lies within a guard of delta is
    decided by the scalar ``distance(...) < delta``, which is exact for
    exact points under exact polygon generators.  Under L^p it is not:
    ``LpShape.norm`` is a float, so (0, 0) and (8/17, 15/17), at L^2
    distance exactly 1, come back in range (ROADMAP item 13).  The sweep
    sorts the points by a coordinate that never exceeds the distance (the
    first generator's projection for polygons, x for L^p), so each point is
    compared only with the points that follow it by less than delta along
    that coordinate.  A delta sample_larg refuses (LargError), and points
    with no common field with the shape (SqrtExt points under float
    generators, or two radicands; GeometryError), are refused up front.
    """
    _require_p_delta(None, LargError, delta)
    keys = [_kept_keys(points, shape, delta, *block) for block in _in_range_blocks(points, shape, delta)]
    return _decode_keys(keys, len(points))


def _in_range_test(points: PointSet, shape: NormShape, delta):
    """within(us, vs): for index arrays us, vs, whether each pair is one of
    in_range_pairs (u = v is not), by np.isin on the pairs' keys u * n + v."""
    n = len(points)
    u, v = in_range_pairs(points, shape, delta)
    keys = u * n + v

    def within(us, vs):
        return np.isin(np.minimum(us, vs) * n + np.maximum(us, vs), keys)

    return within


def _require_p_delta(p, error: type[Exception], delta=1):
    """sample_larg's rule for a graph's parameters: p in (0, 1) (None skips
    p), delta > 0 and, if a float, finite (a SqrtExt has no order against
    floats); else raise error.  The default delta leaves only p to check."""
    if p is not None and not (0.0 < p < 1.0):
        raise error(f"p must be in (0, 1), got {p}")
    if not (delta > 0):
        raise error(f"delta must be positive, got {delta}")
    if isinstance(delta, float) and not math.isfinite(delta):
        raise error(f"delta must be finite, got {delta}")


def sample_larg(
    points: PointSet, shape: NormShape, delta, p: float, edge_seed: int
) -> GeoGraph:
    """Draw the local area random graph over `points`.

    Strict threshold: pairs at distance exactly delta are never adjacent.
    The edges are the pairs of ``in_range_pairs`` whose
    ``pair_uniform(edge_seed, u, v) < p``, decided on the coin's hash
    (_coin_threshold).  Each block of the sweep draws its coins first, so
    only pairs whose coin is below p reach the scalar distance, and only
    edges are kept past the block.
    """
    _require_p_delta(p, LargError, delta)
    n = len(points)
    table = _vertex_table(edge_seed, np.arange(n))
    threshold = _coin_threshold(p)
    keys = [
        _kept_keys(points, shape, delta, lo, hi, sure, _table_hashes(table, lo, hi) < threshold)
        for lo, hi, sure in _in_range_blocks(points, shape, delta)
    ]
    return GeoGraph(
        point_set_ref=points.fingerprint(),
        n=n,
        p=float(p),
        delta=delta,
        edge_seed=edge_seed,
        edges=EdgeSet(*_decode_keys(keys, n)),
    )


def compatibility_probability(p: float, within_range: bool) -> float:
    """Chance two independent samples agree on one pair's adjacency.

    In-range pairs agree iff both coins land the same side: p^2 + (1-p)^2.
    Out-of-range pairs are never adjacent on either side, so they always agree.
    """
    _require_p_delta(p, LargError)
    if not within_range:
        return 1.0
    return p * p + (1.0 - p) * (1.0 - p)


# ---------------------------------------------------------------------------
# graph files: one JSON header line, then sorted "u v" edge lines; delta is
# written as format_scalar writes it, so an exact delta comes back exact


def graph_lines(G: GeoGraph):
    header = {
        "n": G.n,
        "p": G.p,
        "delta": format_scalar(G.delta),
        "edge_seed": G.edge_seed,
        "point_set_ref": G.point_set_ref,
    }
    yield json.dumps(header)
    for u, v in G.edges:
        yield f"{u} {v}"


def load_graph(path) -> GeoGraph:
    """Read a graph file; a malformed edge line, or a header graph_lines could
    not have written for sample_larg's output, raises LargError naming it."""
    with open(path) as fh, _malformed_json("graph", LargError):
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise LargError(f"graph header is not JSON: {exc}") from None
        edges = []
        for line in fh:
            words = line.split()
            if not words:
                continue
            try:
                u, v = map(int, words)
            except ValueError:
                raise LargError(f"graph edge line {line.strip()!r} is not two vertices") from None
            edges.append((u, v))
        if not isinstance(ref := header["point_set_ref"], str):
            raise LargError(f"point_set_ref must be a string, got {ref!r}")
        if (n := _require_int(header["n"], "n", LargError)) < 0:
            raise LargError(f"n must not be negative, got {n}")
        p = float(_require_number(header["p"], "p", LargError))
        try:
            delta = parse_scalar(header["delta"])
        except ValueError as exc:
            raise LargError(f"delta: {exc}") from None
        _require_p_delta(p, LargError, delta)
        edge_seed = _require_int(header["edge_seed"], "edge_seed", LargError)
        return GeoGraph(point_set_ref=ref, n=n, p=p, delta=delta, edge_seed=edge_seed, edges=edges)
