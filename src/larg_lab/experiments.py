"""Monte Carlo experiments over LARG samples.

Two stories are measured here. For non-box shapes, independent samples over
the same point set stop admitting partial isomorphisms as the compared prefix
grows. Under a truncating norm such a partial isomorphism is a plane
isometry, fixed by the images of the anchor triangle, so the candidates for
V_n are the isometries that map the anchor into V_n, and a candidate
survives only if every in-range pair of V_n draws matching coins on both
sides. Each row also reports the reference curve n^(2k+2) (p*)^(n-1), which
is above 1 at every default n. For box shapes the opposite holds: after the
linear change of coordinates that turns the box metric into L-infinity,
back-and-forth extension respecting truncated coordinates finds explicit
isomorphisms routinely.

A decay row's candidates follow the numeric policy of ``exact``: larg's
float distances over V_n mark the pairs within larg's guard of an anchor
distance, and only those are confirmed by the scalar distance. Edge coins
are counter-based, keyed by trial seed and vertex pair, so a row draws only
the coins it reads: it walks the pairs of V_n in chunks of 16, 32, 64, ...
pairs, and a chunk draws the coins of its pairs and of their candidate
images only for the trials that still have a live candidate. A row's coin
cost thus follows its surviving trials. The trial seeds of a row are one
uint64 array, and a block of trials draws its coins from per-trial vertex
tables, one hash stage per coin; the rows are reproducible bit for bit.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import larg
from .anchoring import GoodEnumeration, good_enumeration, validate_good_enumeration
from .exact import FLOAT, FLOAT_INTEGER_GUARD, _floor_surd, close, guarded_floor, is_exact
from .geometry import (
    GeometryError,
    LpShape,
    NormShape,
    PolygonShape,
    Vec2,
    _meet,
    box_shape,
    diamond_l1,
    distance,
    is_triangular_set,
    rational_hexagon,
    regular_hexagon,
    square_linf,
)
from .larg import (
    GeoGraph,
    compatibility_probability,
    in_range_pairs,
    sample_larg,
)
from .pointsets import PointSet, Window, _idf_tests, _projection_ints, sample_poisson_window

__all__ = [
    "BoxDemoReport",
    "DecayRow",
    "ExperimentConfig",
    "ExperimentError",
    "back_and_forth_isomorphism",
    "box_isomorphism_demo",
    "box_to_linf_transform",
    "paper_decay_bound",
    "partial_isomorphism_exists",
    "rows_from_csv",
    "rows_to_csv",
    "run_decay_experiment",
    "shape_from_spec",
    "wilson_interval",
]

_MASK64 = (1 << 64) - 1


class ExperimentError(ValueError):
    pass


def _require_int(value, what: str) -> int:
    """value if it is an int (a bool is not one); else ExperimentError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExperimentError(f"{what} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# configuration


def shape_from_spec(spec: str) -> NormShape:
    """Build a shape from a short config string.

    Accepted: "hexagon", "regular-hexagon", "square", "diamond",
    "lp:<p>", and "box:ax,ay;bx,by" with exact rational components.
    """
    if not isinstance(spec, str):
        raise ExperimentError(f"shape spec must be a string, got {spec!r}")
    s = spec.strip().lower()
    if s == "hexagon":
        return rational_hexagon()
    if s == "regular-hexagon":
        return regular_hexagon()
    if s == "square":
        return square_linf()
    if s == "diamond":
        return diamond_l1()
    if s.startswith("lp:"):
        try:
            return LpShape(float(s[3:]))
        except (ValueError, GeometryError) as exc:
            raise ExperimentError(f"bad lp spec {spec!r}: {exc}") from exc
    if s.startswith("box:"):
        try:
            parts = [tok.split(",") for tok in s[4:].split(";")]
            (ax, ay), (bx, by) = parts
            return box_shape(
                Vec2(Fraction(ax), Fraction(ay)), Vec2(Fraction(bx), Fraction(by))
            )
        except (ValueError, ZeroDivisionError, GeometryError) as exc:
            raise ExperimentError(f"bad box spec {spec!r}: {exc}") from exc
    raise ExperimentError(f"unknown shape spec {spec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a decay run needs, JSON round-trippable."""

    shape: str = "hexagon"
    window: tuple = (0, 0, 1, 1)
    intensity: float = 120.0
    mode: str = "rational"
    n_values: tuple = (5, 10, 20, 40)
    p: float = 0.5
    trials: int = 200
    base_seed: int = 1
    anchor_policy: str = "exhaustive"

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "n_values", tuple(self.n_values))
        ints = [("trials", self.trials), ("base_seed", self.base_seed)]
        for what, v in ints + [("n_values entry", n) for n in self.n_values]:
            _require_int(v, what)
        numbers = all(not isinstance(c, bool) and (isinstance(c, float) or is_exact(c)) for c in self.window)
        if len(self.window) != 4 or not numbers:
            raise ExperimentError(f"window must be four numbers (x0, y0, x1, y1), got {list(self.window)!r}")
        if self.trials < 1:
            raise ExperimentError("trials must be at least 1")
        if not self.n_values or any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ExperimentError("n_values must be non-empty and strictly ascending")
        if self.n_values[0] < 3:
            raise ExperimentError("prefix sizes start at the anchor, n >= 3")
        if not 0.0 < self.p < 1.0:
            raise ExperimentError(f"p must be in (0, 1), got {self.p}")
        if isinstance(self.intensity, bool):
            raise ExperimentError(f"intensity must be a number, got {self.intensity!r}")
        if self.intensity <= 0:
            raise ExperimentError("intensity must be positive")
        if self.mode not in ("float", "rational"):
            raise ExperimentError(f"unknown sampling mode {self.mode!r}")
        if self.anchor_policy not in ("exhaustive", "identity"):
            raise ExperimentError(f"unknown anchor policy {self.anchor_policy!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ExperimentError("config JSON must be an object")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ExperimentError(f"bad config: {exc}") from exc


# ---------------------------------------------------------------------------
# statistics


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; stays honest at zero counts and small trials."""
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ExperimentError("successes must lie in [0, trials]")
    phat = successes / trials
    z = 1.96
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def paper_decay_bound(n: int, k: int, p_star: float) -> float:
    """Reference curve n^(2k+2) (p*)^(n-1); k = number of direction classes."""
    if n < 3 or k < 2:
        raise ExperimentError("bound needs n >= 3 and k >= 2")
    return float(n) ** (2 * k + 2) * p_star ** (n - 1)


@dataclass(frozen=True)
class DecayRow:
    n: int
    trials: int
    successes: int
    fraction: float
    ci_lo: float
    ci_hi: float
    paper_bound: float


# ---------------------------------------------------------------------------
# partial isomorphism search


def _linear_part(m: tuple, w: tuple):
    """Row-major L with L(m1-m0) = w1-w0 and L(m2-m0) = w2-w0, or None."""
    d1, d2 = m[1] - m[0], m[2] - m[0]  # anchors are triangular, never collinear
    e1, e2 = w[1] - w[0], w[2] - w[0]
    if e1.cross(e2) == 0:
        return None
    return (*_meet(d1, e1.x, d2, e2.x), *_meet(d1, e1.y, d2, e2.y))


def _apply(L, v: Vec2) -> Vec2:
    a, b, c, d = L
    return Vec2(a * v.x + b * v.y, c * v.x + d * v.y)


def _is_shape_symmetry(shape: NormShape, L) -> bool:
    """Does y -> L y preserve the norm? Tested on L^T: for a polygon it must
    send each generator to a signed generator, as ||L y|| = max_g |(L^T g).y|;
    under L^p it must be orthogonal (p = 2) or a signed permutation."""
    Lt = (L[0], L[2], L[1], L[3])
    if isinstance(shape, PolygonShape):
        signed = shape.signed_generators()
        for g in shape.generators:
            img = _apply(Lt, g)
            if not any(close(img.x, h.x) and close(img.y, h.y) for h in signed):
                return False
        return True
    if isinstance(shape, LpShape):
        a, b, c, d = Lt
        if shape.p == 2:
            checks = (a * a + c * c - 1, b * b + d * d - 1, a * b + c * d)
        else:
            # p != 2 admits only signed coordinate permutations
            checks = (
                (abs(a) - 1) * (abs(b) - 1),
                (abs(c) - 1) * (abs(d) - 1),
                a * b,
                c * d,
                a * c,
                b * d,
            )
        return all(close(v, 0) for v in checks)
    raise ExperimentError(f"unsupported shape {shape!r}")


def _point_lookup(points: PointSet):
    """y -> index of the point equal (exact data) or ``close`` (floats) to y."""
    pts = points.points
    if points.field != FLOAT:
        exact_index = {(v.x, v.y): i for i, v in enumerate(pts)}
        return lambda y: exact_index.get((y.x, y.y))

    scale = 1.0 / FLOAT_INTEGER_GUARD
    grid: dict = {}
    for i, v in enumerate(pts):
        grid.setdefault((round(float(v.x) * scale), round(float(v.y) * scale)), []).append(i)

    def lookup(y: Vec2):
        fx, fy = float(y.x), float(y.y)
        kx, ky = round(fx * scale), round(fy * scale)
        hits = [
            i
            for dx in (0, -1, 1)
            for dy in (0, -1, 1)
            for i in grid.get((kx + dx, ky + dy), ())
            if close(float(pts[i].x), fx) and close(float(pts[i].y), fy)
        ]
        return hits[0] if len(hits) == 1 else None

    return lookup


def _extension_candidates(enum: GoodEnumeration, n: int, lookup=None) -> tuple:
    """Images of V_n under the plane isometries that map the anchor into V_n.

    At n = 3 every ordered triple of distinct vertices counts. From n = 4 on,
    anchor images w fix the affine map f(x) = w0 + L(x - m0); f is kept when
    L preserves the norm and f sends every later point of V_n to a distinct
    point of the sample. A norm-preserving f keeps every distance, so the
    anchor distances must match first. They are filtered in float: larg's
    float distances over V_n mark the pairs within larg's guard of an
    anchor distance, and only those pairs are confirmed by the scalar
    distance, each pair once. The result is the scalar definition's own, in
    its order. `lookup` is the _point_lookup of the enumeration's point set,
    built here when not given.
    """
    vn = enum.order[:n]
    if n == 3:
        return tuple(permutations(vn, 3))

    pts = enum.point_set.points
    shape = enum.shape
    lookup = lookup or _point_lookup(enum.point_set)
    arr = enum.point_set.as_array()[list(vn)]
    cols, reach, q = larg._columns(arr, shape)
    fd = larg._distances(cols, q, slice(None), slice(None))
    anchor = ((0, 1), (0, 2), (1, 2))
    guard = larg._guard(max(fd[a] for a in anchor), reach, arr)
    near01, near02, near12 = (np.abs(fd - fd[a]) <= guard for a in anchor)

    memo = {}

    def dist(i: int, j: int):
        # scalar distance of the V_n positions i, j; the earlier point first
        key = (i, j) if i < j else (j, i)
        if key not in memo:
            memo[key] = distance(shape, pts[vn[key[0]]], pts[vn[key[1]]])
        return memo[key]

    d01, d02, d12 = (dist(*a) for a in anchor)
    m = tuple(pts[i] for i in vn[:3])
    rest = tuple(pts[i] - m[0] for i in vn[3:])
    out = []
    # the scalar check drops a repeated vertex: its distance 0 is no anchor
    # distance
    for i1, i2 in zip(*(a.tolist() for a in np.nonzero(near01))):
        if dist(i1, i2) != d01:
            continue
        for i3 in np.flatnonzero(near02[i1] & near12[i2]).tolist():
            if dist(i1, i3) != d02 or dist(i2, i3) != d12:
                continue
            u1, u2, u3 = vn[i1], vn[i2], vn[i3]
            w = (pts[u1], pts[u2], pts[u3])
            L = _linear_part(m, w)
            if L is None:
                continue
            if not _is_shape_symmetry(shape, L):
                continue
            images = [u1, u2, u3]
            for x in rest:
                idx = lookup(w[0] + _apply(L, x))
                if idx is None or idx in images:
                    break
                images.append(idx)
            else:
                out.append(tuple(images))
    return tuple(out)


def partial_isomorphism_exists(
    G: GeoGraph, H: GeoGraph, order: GoodEnumeration, n: int
) -> bool:
    """Does some plane isometry carry G's V_n onto H with adjacency intact?

    V_n is the first n points of the enumeration. The search runs over the
    plane isometries that map the anchor (the first three points) into V_n;
    such a map fixes the image of every later vertex, and the resulting map
    must match adjacency exactly. At n = 3 every ordered triple of distinct
    vertices of V_n is tried. The anchor must be a triangular set, which the
    construction needs; the rest of the enumeration is not read.
    """
    if n < 3:
        raise ExperimentError("n must be at least 3")
    if n > len(order.order):
        raise ExperimentError(
            f"enumeration places {len(order.order)} points; cannot compare n = {n}"
        )
    fp = order.point_set.fingerprint()
    if G.point_set_ref != fp or H.point_set_ref != fp:
        raise ExperimentError("graphs were not sampled over the enumeration's point set")
    if G.n != H.n or G.delta != H.delta:
        raise ExperimentError("graphs disagree on size or delta")
    m = tuple(order.point_set.points[i] for i in order.order[:3])
    if len(set(m)) < 3 or not is_triangular_set(order.shape, *m):
        raise ExperimentError("the enumeration's first three points are not a triangular set")

    prefix = order.order[:n]
    adj_g, adj_h = G.adjacency_matrix().tolist(), H.adjacency_matrix().tolist()
    for images in _extension_candidates(order, n):
        ok = True
        for a in range(n):
            row_g, row_h = adj_g[prefix[a]], adj_h[images[a]]
            for b in range(a + 1, n):
                if row_g[prefix[b]] != row_h[images[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# decay experiment


_TRIAL_MUL = 0xBF58476D1CE4E5B9


def _trial_seed(base: int, n: int, t: int, side: int) -> int:
    # disjoint deterministic streams per (row, trial, graph side)
    z = (base & _MASK64) ^ (n * 0x9E3779B97F4A7C15) ^ (t * _TRIAL_MUL)
    return (z ^ (side * 0x94D049BB133111EB)) & _MASK64


def _trial_seeds(base: int, n: int, trials: int, side: int) -> np.ndarray:
    """_trial_seed(base, n, t, side) for t in range(trials), as one uint64
    array: _trial_seed is XORs of products taken mod 2^64, and the array's
    products wrap mod 2^64, so every bit agrees."""
    seeds = np.arange(trials, dtype=np.uint64)
    seeds *= np.uint64(_TRIAL_MUL)
    seeds ^= np.uint64(_trial_seed(base, n, 0, side))
    return seeds


def _coin_rows(seeds: np.ndarray, us, vs, in_range, p: float):
    """len(seeds) x len(us) adjacency matrix of one graph side over the given pairs.

    The coin of pair (u, v) in row t is pair_uniform(seeds[t], u, v) < p,
    decided on its hash as sample_larg does (larg._coin_threshold), and a
    pair outside in_range has no edge; seeds is a uint64 array of trial
    seeds (_trial_seeds, or the rows of it still live). A block of trials,
    at most larg._BLOCK_CELLS coins or table cells (one trial at least),
    builds a trials x vertices table of the seed and first-vertex hash
    stages (larg._vertex_table over the pairs' lower vertices), so each coin
    costs the one stage of its upper vertex.
    """
    us, vs = np.asarray(us), np.asarray(vs)
    verts, k = np.unique(np.minimum(us, vs), return_inverse=True)
    hi = np.maximum(us, vs)
    rows = np.empty((len(seeds), len(us)), dtype=bool)
    step = max(1, larg._BLOCK_CELLS // max(1, len(us), len(verts)))
    threshold = larg._coin_threshold(p)
    for t0 in range(0, len(seeds), step):
        block = rows[t0 : t0 + step]
        table = larg._vertex_table(seeds[t0 : t0 + step], verts)
        np.less(larg._table_hashes(table, k, hi), threshold, out=block)
        block &= in_range
    return rows


def _surviving_trials(g_seeds, h_seeds, gu, gv, g_in, hu, hv, h_in, p: float) -> int:
    """Trials in which some candidate matches the G coins on every pair.

    gu, gv, g_in are the m pairs of V_n and their range mask; hu, hv, h_in
    are C x m, row c the images of those pairs under candidate c. The
    pairs are walked in chunks of 16, 32, 64, ... pairs, and a chunk draws
    its coins (_coin_rows) only for the trials that still have a live
    candidate; a (trial, candidate) dies on its first mismatched pair. The
    count is (e_g[:, None, :] == e_h).all(axis=2).any(axis=1).sum() over
    the full trials x pairs coin matrices e_g and e_h (C x m per trial).
    """
    live = np.arange(len(g_seeds))
    alive = np.ones((len(live), len(hu)), dtype=bool)
    j0, width = 0, 16
    while j0 < len(gu) and len(live):
        j1 = j0 + width
        e_g = _coin_rows(g_seeds[live], gu[j0:j1], gv[j0:j1], g_in[j0:j1], p)
        pairs = (x[:, j0:j1].ravel() for x in (hu, hv, h_in))
        e_h = _coin_rows(h_seeds[live], *pairs, p).reshape(len(live), len(hu), e_g.shape[1])
        alive &= (e_g[:, None, :] == e_h).all(axis=2)
        keep = alive.any(axis=1)
        live, alive = live[keep], alive[keep]
        j0, width = j1, 2 * width
    return len(live)


def run_decay_experiment(cfg: ExperimentConfig) -> list[DecayRow]:
    """Measure how often independent samples stay partially isomorphic.

    One point set and one good enumeration serve every row; each trial draws
    two independent edge sets and asks whether some extension candidate of
    the first n points (only the identity under the "identity" policy)
    matches adjacency on every pair, as partial_isomorphism_exists does. Only
    the coins of those pairs are drawn. Box shapes are rejected: their
    samples are isomorphic almost surely, which is the box demo's story, not
    a decay.
    """
    shape = shape_from_spec(cfg.shape)
    if not isinstance(shape, PolygonShape):
        raise ExperimentError(
            "decay bound needs a finite generator set; use a polygonal shape"
        )
    if shape.is_box():
        raise ExperimentError(
            "box shapes stay isomorphic almost surely; run the box demo instead"
        )
    window = Window(*cfg.window)
    points = sample_poisson_window(
        window, cfg.intensity, seed=cfg.base_seed, mode=cfg.mode
    )
    enum = good_enumeration(points, shape)
    if len(enum.order) < cfg.n_values[-1]:
        raise ExperimentError(
            f"enumeration places {len(enum.order)} points; "
            f"largest requested n is {cfg.n_values[-1]}"
        )
    validate_good_enumeration(enum)

    npts = len(points)
    eu, ev = in_range_pairs(points, shape, 1)
    in_range_keys = eu * npts + ev

    def within(us, vs):
        return np.isin(np.minimum(us, vs) * npts + np.maximum(us, vs), in_range_keys)

    p_star = compatibility_probability(cfg.p, True)
    k = len(shape.generators)
    lookup = _point_lookup(points)
    rows = []
    for n in cfg.n_values:
        prefix = enum.order[:n]
        if cfg.anchor_policy == "identity":
            cands = (prefix,)
        else:
            cands = _extension_candidates(enum, n, lookup)
        a, b = np.triu_indices(n, 1)
        gu, gv = np.asarray(prefix)[a], np.asarray(prefix)[b]
        images = np.asarray(cands, dtype=np.int64).reshape(len(cands), n)
        hu, hv = images[:, a], images[:, b]
        successes = _surviving_trials(
            *(_trial_seeds(cfg.base_seed, n, cfg.trials, side) for side in (0, 1)),
            gu, gv, within(gu, gv), hu, hv, within(hu, hv), cfg.p,
        )
        lo, hi = wilson_interval(successes, cfg.trials)
        rows.append(
            DecayRow(
                n=n,
                trials=cfg.trials,
                successes=successes,
                fraction=successes / cfg.trials,
                ci_lo=lo,
                ci_hi=hi,
                paper_bound=paper_decay_bound(n, k, p_star),
            )
        )
    return rows


# one CSV column per DecayRow field, in field order; each cell is the
# value's repr and is read back by the field's type
_CSV_FIELDS = fields(DecayRow)
_CSV_COLUMNS = tuple(f.name for f in _CSV_FIELDS)


def _write_rows(fh, rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        writer.writerow([repr(getattr(r, name)) for name in _CSV_COLUMNS])


def rows_to_csv(rows, path) -> None:
    if hasattr(path, "write"):
        _write_rows(path, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, rows)


def rows_from_csv(path) -> list[DecayRow]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != _CSV_COLUMNS:
            raise ExperimentError(f"unexpected CSV header {header!r}")
        rows = []
        for row in reader:
            if len(row) != len(_CSV_COLUMNS):
                raise ExperimentError(f"CSV line {reader.line_num} has {len(row)} cells, not {len(_CSV_COLUMNS)}")
            rows.append(DecayRow(*(f.type(cell) for f, cell in zip(_CSV_FIELDS, row))))
        return rows


# ---------------------------------------------------------------------------
# box side: exact reduction to L-infinity and back-and-forth isomorphisms


def box_to_linf_transform(shape: NormShape):
    """2x2 map T, rows the two face normals, with d_box(x,y) = d_inf(Tx,Ty).

    Row i of T reads off the projection onto generator i, so the max-of-
    projections box norm becomes the max-of-coordinates norm, exactly.
    """
    if not (isinstance(shape, PolygonShape) and shape.is_box()):
        raise ExperimentError("box_to_linf_transform needs a box shape")
    a1, a2 = shape.generators
    return ((a1.x, a1.y), (a2.x, a2.y))


def _floor_table(points: PointSet, shape: PolygonShape):
    """floors[a][u][v] = floor of a.(p_u - p_v); refuses ambiguous floats.

    A float filter floors the difference matrix of each column of
    larg._columns; cells within larg's guard of an integer are decided in
    row-major order: exact sets by the floor of the integer projections
    (`pointsets._projection_ints`), float sets by guarded_floor of a.p_u -
    a.p_v, exact for exact points.  The diagonal is exactly 0.
    """
    arr = points.as_array()
    cols, reach, _ = larg._columns(arr, shape)
    guard = larg._guard(1.0, reach, arr)
    tables = []
    for a, col, enc in zip(shape.generators, cols, _projection_ints(points, shape.generators)):
        diff = col[:, None] - col[None, :]
        tab = np.floor(diff)
        near = np.abs(diff - np.rint(diff)) < guard
        np.fill_diagonal(near, False)
        np.fill_diagonal(tab, 0.0)
        for u, v in zip(*np.nonzero(near)):
            if enc is None:
                tab[u, v] = guarded_floor(a.dot(points[u]) - a.dot(points[v]), what=f"projection difference ({u}, {v})")
            else:
                D, proj, d = enc
                tab[u, v] = _floor_surd(proj[u][0] - proj[v][0], proj[u][1] - proj[v][1], d, D)
        tables.append(tab.astype(np.int64).tolist())
    return tables


class _BudgetExhausted(Exception):
    pass


def back_and_forth_isomorphism(
    G: GeoGraph, H: GeoGraph, points: PointSet, shape: PolygonShape, budget: int = 5000
):
    """Search for an isomorphism respecting truncated generator projections.

    Alternates sides: even steps map the smallest unmapped vertex of G, odd
    steps find a preimage for the smallest unmapped vertex of H. A candidate
    must match every mapped vertex's projection floors and adjacency. Returns
    ("isomorphic", mapping), ("none", None) when the search space is
    exhausted, or ("undetermined", None) when the budget runs out first.
    """
    if not isinstance(shape, PolygonShape):
        raise ExperimentError("back-and-forth needs a polygonal shape")
    fp = points.fingerprint()
    if G.point_set_ref != fp or H.point_set_ref != fp:
        raise ExperimentError("graphs were not sampled over this point set")
    if G.n != H.n or G.delta != H.delta:
        raise ExperimentError("graphs disagree on size or delta")
    if budget < 1:
        raise ExperimentError("budget must be positive")

    n = len(points)
    floors = _floor_table(points, shape)
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    left = budget
    adj_g, adj_h = G.adjacency_matrix().tolist(), H.adjacency_matrix().tolist()

    def consistent(u: int, w: int, mapped: dict, adj_u, adj_w) -> bool:
        # may u map to w, with mapped holding the pairs (u2, w2) of u's side?
        for u2, w2 in mapped.items():
            if adj_u[u][u2] != adj_w[w][w2]:
                return False
            for tab in floors:
                if tab[u][u2] != tab[w][w2]:
                    return False
        return True

    def extend() -> bool:
        nonlocal left
        if len(fwd) == n:
            return True
        mapped, other, adj_m, adj_o = (fwd, bwd, adj_g, adj_h) if len(fwd) % 2 == 0 else (bwd, fwd, adj_h, adj_g)
        v = min(x for x in range(n) if x not in mapped)
        for c in range(n):
            if c in other:
                continue
            if left <= 0:
                raise _BudgetExhausted
            left -= 1
            if consistent(v, c, mapped, adj_m, adj_o):
                mapped[v] = c
                other[c] = v
                if extend():
                    return True
                del mapped[v]
                del other[c]
        return False

    try:
        found = extend()
    except _BudgetExhausted:
        return ("undetermined", None)
    if not found:
        return ("none", None)
    return ("isomorphic", tuple(fwd[u] for u in range(n)))


@dataclass(frozen=True)
class BoxDemoReport:
    outcomes: tuple
    found: int
    none: int
    undetermined: int
    trials: int
    success_rate: float
    budget: int


def box_isomorphism_demo(
    points: PointSet, shape: NormShape, p: float, seeds, budget: int = 5000
) -> BoxDemoReport:
    """Rate of explicit isomorphisms between independent box samples.

    Requires idf projections on both generators, the regime in which the
    infinite model makes any two samples isomorphic; at desk scale the rate
    is recorded as observed, including honest "undetermined" exhaustions.
    """
    if not (isinstance(shape, PolygonShape) and shape.is_box()):
        raise ExperimentError("box_isomorphism_demo needs a box shape")
    for a, idf in zip(shape.generators, _idf_tests(points, shape.generators)):
        if not idf(1):
            raise ExperimentError(
                f"projections on generator ({a.x}, {a.y}) are not integer-"
                "difference-free; rescale the sample first"
            )
    seeds = tuple(seeds)
    if not seeds:
        raise ExperimentError("need at least one seed")

    outcomes = []
    for s in seeds:
        G = sample_larg(points, shape, 1, p, edge_seed=_trial_seed(s, 0, 0, 0))
        H = sample_larg(points, shape, 1, p, edge_seed=_trial_seed(s, 0, 0, 1))
        status, _ = back_and_forth_isomorphism(G, H, points, shape, budget)
        outcomes.append(status)
    found = outcomes.count("isomorphic")
    return BoxDemoReport(
        outcomes=tuple(outcomes),
        found=found,
        none=outcomes.count("none"),
        undetermined=outcomes.count("undetermined"),
        trials=len(seeds),
        success_rate=found / len(seeds),
        budget=budget,
    )
