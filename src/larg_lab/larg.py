"""Local area random graphs.

Vertices are the points of a PointSet; each unordered pair at metric distance
strictly below delta is an edge independently with probability p.  Edge coins
come from a counter-based stream keyed by (edge_seed, min(u,v), max(u,v)), so
the coin of a pair is independent of sampling order and of the window size:
growing the point set keeps every previously drawn coin, which is what makes
nested-window experiments consistent.

In-range pairs come from one kernel for float and exact point sets alike: a
float sweep, with the scalar distance deciding the pairs whose float distance
lies within a guard of delta.  Edges are held as sorted int64 arrays.
"""

from __future__ import annotations

import json
import math
from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from .exact import format_scalar, parse_scalar
from .geometry import LpShape, NormShape, PolygonShape, distance
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
    "save_graph",
    "load_graph",
]


class LargError(ValueError):
    pass


# splitmix64 finalizer; wraparound arithmetic mod 2^64
_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def pair_uniform(edge_seed: int, u: int, v: int) -> float:
    """Deterministic uniform in [0, 1) for the unordered pair {u, v}."""
    if u == v:
        raise LargError("pair needs two distinct vertices")
    a, b = (u, v) if u < v else (v, u)
    h = _mix(edge_seed & _MASK)
    h = _mix(h ^ ((a + 1) * _GOLD))
    h = _mix(h ^ ((b + 1) * _GOLD))
    return h / 2.0**64


def pair_uniform_array(edge_seed, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized pair_uniform; bit-identical to the scalar version.

    edge_seed is one seed, giving one value per pair, or a 1-D sequence of
    T seeds, giving a T x len(us) array whose row t equals
    ``pair_uniform_array(edge_seed[t], us, vs)``.
    """
    us = np.asarray(us, dtype=np.uint64)
    vs = np.asarray(vs, dtype=np.uint64)
    a = np.minimum(us, vs)
    b = np.maximum(us, vs)
    del us, vs
    if np.any(a == b):
        raise LargError("pair needs two distinct vertices")

    def mix(z):
        # in place on arrays (a, b and a seed column are private copies), so
        # one pair array of temporaries at a time; rebinds a scalar z
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    with np.errstate(over="ignore"):
        if np.ndim(edge_seed) == 0:
            h = mix(np.uint64(edge_seed & _MASK))
        else:
            if np.ndim(edge_seed) != 1:
                raise LargError("edge_seed must be one seed or a 1-D sequence of seeds")
            h = mix(np.array([int(s) & _MASK for s in edge_seed], dtype=np.uint64)[:, None])
            a = np.repeat(a[None, :], len(h), axis=0)
            b = np.repeat(b[None, :], len(h), axis=0)
        for w in (a, b):
            w += np.uint64(1)
            w *= np.uint64(_GOLD)
            w ^= h
            h = mix(w)
    return h / 2.0**64


class EdgeSet(Set):
    """Read-only set view of a graph's edges.

    Holds the pairs (u, v), u < v, as two int64 arrays in lexicographic
    order; iteration yields int tuples in that order.  Equal to, and hashes
    like, the frozenset of the same pairs; set operations such as ``^``
    return frozensets.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u, v = np.asarray(u), np.asarray(v)
        if u.ndim != 1 or u.shape != v.shape or u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
            raise LargError("edge arrays must be two integer vectors of one length")
        u, v = u.astype(np.int64), v.astype(np.int64)
        du, dv = np.diff(u), np.diff(v)
        if not ((u < v).all() and ((du > 0) | ((du == 0) & (dv > 0))).all()):
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
        arr = np.unique(arr, axis=0)
        return cls(arr[:, 0], arr[:, 1])

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

    def degree(self, u: int) -> int:
        e = self.edges
        lo, hi = np.searchsorted(e.u, [u, u + 1])
        return int(hi - lo) + int(np.count_nonzero(e.v == u))

    def adjacency_matrix(self) -> np.ndarray:
        e = self.edges
        m = np.zeros((self.n, self.n), dtype=bool)
        m[e.u, e.v] = True
        m[e.v, e.u] = True
        return m


# cells (rows x candidate columns) per block of the in-range sweep, so each
# float temporary of a block takes about 128 KB
_BLOCK_CELLS = 1 << 14

# float distances this close to delta, relative to delta plus the coordinate
# scale, are decided by the scalar distance; float error is ~1e-16 relative
_BOUNDARY_GUARD = 1e-9


def _columns(arr: np.ndarray, shape: NormShape):
    """Float columns whose pairwise gaps make up the distance, their reach
    (the largest |column| per unit of coordinate) and the L^p exponent.

    Polygons take the generator projections x*gx + y*gy (no matmul: BLAS
    pages cost resident memory) and the exponent None; L^p takes x and y.
    """
    if isinstance(shape, PolygonShape):
        gens = [g.to_floats() for g in shape.generators]
        cols = np.array([arr[:, 0] * gx + arr[:, 1] * gy for gx, gy in gens])
        return cols, max(abs(gx) + abs(gy) for gx, gy in gens), None
    if isinstance(shape, LpShape):
        return arr.T, 1.0, shape.p
    raise LargError(f"unsupported shape {shape!r}")


def _row_blocks(ends: np.ndarray):
    """Row blocks (i0, i1, j1, upper) over n rows with nondecreasing ends.

    Each block is rows i0..i1 against columns i0..j1 = ends[i1 - 1]: the
    largest such block within _BLOCK_CELLS cells, or one row.  upper masks
    its cells with column > row.
    """
    n = len(ends)
    max_rows = math.isqrt(_BLOCK_CELLS)
    i0 = 0
    while i0 < n:
        rows = np.arange(i0, min(n, i0 + max_rows))
        cells = (rows - i0 + 1) * (ends[rows] - i0)
        i1 = i0 + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        j1 = int(ends[i1 - 1])
        yield i0, i1, j1, np.arange(i0, j1) > np.arange(i0, i1)[:, None]
        i0 = i1


def _block_gaps(cols: np.ndarray, q, i0: int, i1: int, j1: int) -> np.ndarray:
    """Rows i0..i1 against columns i0..j1: the largest column gap
    (polygons, q None) or the sum of the gaps to the power q (L^p)."""
    acc = None
    for col in cols:
        d = col[i0:i1, None] - col[None, i0:j1]
        np.abs(d, out=d)
        if q is None:
            acc = d if acc is None else np.maximum(acc, d, out=acc)
        else:
            d **= q
            acc = d if acc is None else np.add(acc, d, out=acc)
    return acc


def in_range_pairs(points: PointSet, shape: NormShape, delta) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs u < v with distance(shape, points[u], points[v]) < delta.

    Returns two int64 arrays in lexicographic order.  Distances are filtered
    in float; a pair whose float distance lies within a guard of delta is
    decided by the scalar ``distance(...) < delta``, which is exact for
    exact point sets.  The sweep sorts the points by a coordinate that never
    exceeds the distance (the first generator's projection for polygons, x
    for L^p), so each point is compared only with the points that follow it
    by less than delta along that coordinate.
    """
    n = len(points)
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    arr = points.as_array()
    cols, reach, q = _columns(arr, shape)
    fdelta = float(delta)
    guard = _BOUNDARY_GUARD * (fdelta + reach * np.abs(arr).max())
    # a block holds the largest projection gap (polygons) or the p-sum
    # |dx|^p + |dy|^p (L^p); below inner is in range, above outer is not
    inner, outer = fdelta - guard, fdelta + guard
    if q is not None:
        inner, outer = max(inner, 0.0) ** q, outer ** q

    order = np.argsort(cols[0]).astype(np.int64, copy=False)
    cols = cols[:, order]
    ends = np.searchsorted(cols[0], cols[0] + (fdelta + guard), side="right")

    # each pair is kept as one key u*n + v, which halves the pair arrays
    found_key, found_sure = [], []
    for i0, i1, j1, upper in _row_blocks(ends):
        acc = _block_gaps(cols, q, i0, i1, j1)
        r, c = np.nonzero((acc <= outer) & upper)
        a, b = order[r + i0], order[c + i0]
        found_key.append(np.minimum(a, b) * n + np.maximum(a, b))
        found_sure.append(acc[r, c] < inner)

    key = np.concatenate(found_key)
    del found_key
    keep = np.concatenate(found_sure)
    near = np.flatnonzero(~keep)
    if len(near):
        pts = points.points
        keep[near] = [
            distance(shape, pts[k // n], pts[k % n]) < delta for k in key[near].tolist()
        ]
    key = np.sort(key[keep])
    u = key // n
    return u, key - u * n


def sample_larg(
    points: PointSet, shape: NormShape, delta, p: float, edge_seed: int
) -> GeoGraph:
    """Draw the local area random graph over `points`.

    Strict threshold: pairs at distance exactly delta are never adjacent.
    """
    if not (0.0 < p < 1.0):
        raise LargError(f"p must be in (0, 1), got {p}")
    if not (delta > 0):
        raise LargError("delta must be positive")
    u, v = in_range_pairs(points, shape, delta)
    coin = pair_uniform_array(edge_seed, u, v) < p
    return GeoGraph(
        point_set_ref=points.fingerprint(),
        n=len(points),
        p=float(p),
        delta=delta,
        edge_seed=edge_seed,
        edges=EdgeSet(u[coin], v[coin]),
    )


def compatibility_probability(p: float, within_range: bool) -> float:
    """Chance two independent samples agree on one pair's adjacency.

    In-range pairs agree iff both coins land the same side: p^2 + (1-p)^2.
    Out-of-range pairs are never adjacent on either side, so they always agree.
    """
    if not (0.0 < p < 1.0):
        raise LargError(f"p must be in (0, 1), got {p}")
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


def save_graph(path, G: GeoGraph) -> None:
    with open(path, "w") as fh:
        for line in graph_lines(G):
            fh.write(line + "\n")


def load_graph(path) -> GeoGraph:
    with open(path) as fh:
        header = json.loads(fh.readline())
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    return GeoGraph(
        point_set_ref=header["point_set_ref"],
        n=int(header["n"]),
        p=float(header["p"]),
        delta=parse_scalar(header["delta"]),
        edge_seed=int(header["edge_seed"]),
        edges=edges,
    )
