"""Local area random graphs.

Vertices are the points of a PointSet; each unordered pair at metric distance
strictly below delta is an edge independently with probability p.  Edge coins
come from a counter-based stream keyed by (edge_seed, min(u,v), max(u,v)), so
the coin of a pair is independent of sampling order and of the window size:
growing the point set keeps every previously drawn coin, which is what makes
nested-window experiments consistent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exact import format_scalar, parse_scalar
from .geometry import LpShape, NormShape, PolygonShape, distance
from .pointsets import PointSet

__all__ = [
    "GeoGraph",
    "LargError",
    "pair_uniform",
    "pair_uniform_array",
    "sample_larg",
    "compatibility_probability",
    "pair_compatible",
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


def pair_uniform_array(edge_seed: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized pair_uniform; bit-identical to the scalar version."""
    us = np.asarray(us, dtype=np.uint64)
    vs = np.asarray(vs, dtype=np.uint64)
    a = np.minimum(us, vs)
    b = np.maximum(us, vs)
    if np.any(a == b):
        raise LargError("pair needs two distinct vertices")

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    with np.errstate(over="ignore"):
        h = mix(np.uint64(edge_seed & _MASK))
        h = mix(h ^ ((a + np.uint64(1)) * np.uint64(_GOLD)))
        h = mix(h ^ ((b + np.uint64(1)) * np.uint64(_GOLD)))
    return h / 2.0**64


@dataclass(frozen=True)
class GeoGraph:
    """Sampled graph; vertices are indices into the originating PointSet."""

    point_set_ref: str
    n: int
    p: float
    delta: object
    edge_seed: int
    edges: frozenset

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise LargError(f"edge ({u}, {v}) out of vertex range")

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self.edges

    def degree(self, u: int) -> int:
        return sum(1 for e in self.edges if u in e)

    def adjacency_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            m[u, v] = m[v, u] = True
        return m


def _in_range_pairs_float(points: PointSet, shape: NormShape, delta: float):
    """Index pairs at distance < delta, vectorized over generator projections."""
    arr = points.as_array()
    n = len(arr)
    if isinstance(shape, PolygonShape):
        gens = np.array([g.to_floats() for g in shape.generators])
        proj = arr @ gens.T  # n x k
        iu, jv = np.triu_indices(n, k=1)
        dist = np.abs(proj[iu] - proj[jv]).max(axis=1)
    elif isinstance(shape, LpShape):
        iu, jv = np.triu_indices(n, k=1)
        diff = np.abs(arr[iu] - arr[jv])
        dist = (diff**shape.p).sum(axis=1) ** (1.0 / shape.p)
    else:
        raise LargError(f"unsupported shape {shape!r}")
    keep = dist < delta
    return iu[keep], jv[keep]


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
    n = len(points)
    edges = set()
    if points.mode == "float" and n > 64:
        iu, jv = _in_range_pairs_float(points, shape, float(delta))
        if len(iu):
            uni = pair_uniform_array(edge_seed, iu, jv)
            for u, v in zip(iu[uni < p], jv[uni < p]):
                edges.add((int(u), int(v)))
    else:
        pts = points.points
        for u in range(n):
            for v in range(u + 1, n):
                if distance(shape, pts[u], pts[v]) < delta:
                    if pair_uniform(edge_seed, u, v) < p:
                        edges.add((u, v))
    return GeoGraph(
        point_set_ref=points.fingerprint(),
        n=n,
        p=float(p),
        delta=delta,
        edge_seed=edge_seed,
        edges=frozenset(edges),
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


def pair_compatible(
    G: GeoGraph, H: GeoGraph, pair: tuple[int, int], image_pair: tuple[int, int]
) -> bool:
    """Adjacency agreement of `pair` in G with `image_pair` in H."""
    u, v = pair
    x, y = image_pair
    for w, g in ((u, G), (v, G), (x, H), (y, H)):
        if not (0 <= w < g.n):
            raise LargError(f"vertex {w} out of range")
    if u == v or x == y:
        raise LargError("pairs need distinct endpoints")
    return G.has_edge(u, v) == H.has_edge(x, y)


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
    for u, v in sorted(G.edges):
        yield f"{u} {v}"


def save_graph(path, G: GeoGraph) -> None:
    with open(path, "w") as fh:
        for line in graph_lines(G):
            fh.write(line + "\n")


def load_graph(path) -> GeoGraph:
    with open(path) as fh:
        header = json.loads(fh.readline())
        edges = set()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.add((int(u), int(v)))
    return GeoGraph(
        point_set_ref=header["point_set_ref"],
        n=int(header["n"]),
        p=float(header["p"]),
        delta=parse_scalar(header["delta"]),
        edge_seed=int(header["edge_seed"]),
        edges=frozenset(edges),
    )
