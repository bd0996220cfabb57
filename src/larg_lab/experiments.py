"""Monte Carlo experiments over LARG samples.

Two stories are measured here. For non-box shapes, independent samples over
the same point set stop admitting partial isomorphisms as the compared prefix
grows. Under a truncating norm such a partial isomorphism is a plane
isometry, fixed by the images of the anchor triangle, so the candidates for
V_n are the isometries that map the anchor into V_n, and a candidate
survives only if every in-range pair of V_n draws matching coins on both
sides. Each row also reports the reference curve n^(2k+2) (p*)^(n-1), which
is above 1 at every default n. For box shapes the infinite model makes any
two samples isomorphic; the box demo counts how often a back-and-forth
search in the box's L-infinity coordinates finds an isomorphism of two
samples on a finite window, proves "none", or spends its budget. Finds thin
out with n: 6 of 12 on a near-edgeless 6-point sample, "none" at 16 and 26.

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
from dataclasses import dataclass, fields
from itertools import permutations

import numpy as np

from . import anchoring, larg
from .anchoring import GoodEnumeration, validate_good_enumeration
from .exact import (
    FLOAT,
    FLOAT_INTEGER_GUARD,
    _require_int,
    _require_number,
    close,
    guarded_floor,
    is_exact,
    parse_scalar,
)
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
    rational_hexagon,
    regular_hexagon,
    square_linf,
)
from .larg import GeoGraph, compatibility_probability, in_range_pairs
from .pointsets import PointSet, Window, _idf_tests, sample_poisson_window

__all__ = [
    "BoxDemoReport",
    "DecayRow",
    "ExperimentConfig",
    "ExperimentError",
    "back_and_forth_isomorphism",
    "box_isomorphism_demo",
    "box_to_linf_transform",
    "paper_decay_bound",
    "rows_from_csv",
    "rows_to_csv",
    "run_decay_experiment",
    "shape_from_spec",
    "wilson_interval",
]

_MASK64 = (1 << 64) - 1


class ExperimentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def _read_window(window) -> tuple:
    """The bounds (x0, y0, x1, y1) of a config window, a list or tuple of
    four: an exact string such as "3/2" is read by parse_scalar, an int
    stays an int, a float a float and any other exact scalar as it is.
    Anything else is an ExperimentError."""
    if not (isinstance(window, (list, tuple)) and len(window) == 4):
        raise ExperimentError(f"window must be four numbers (x0, y0, x1, y1), got {window!r}")
    bounds = []
    for c in window:
        try:
            b = parse_scalar(c) if isinstance(c, str) else c
        except ValueError:
            b = None
        if isinstance(b, bool) or not (isinstance(b, float) or is_exact(b)):
            raise ExperimentError(f"bad window {list(window)!r}: {c!r} is no number or exact string")
        bounds.append(b)
    return tuple(bounds)


def shape_from_spec(spec: str) -> NormShape:
    """Build a shape from a short config string.

    Accepted: "hexagon", "regular-hexagon", "square", "diamond",
    "lp:<p>", and "box:ax,ay;bx,by" with components read by parse_scalar.
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
            gens = _parse_generators(s[4:])
            if len(gens) != 2:
                raise ExperimentError(f"box spec needs 2 generators, got {len(gens)}")
            return box_shape(*gens)
        except ValueError as exc:  # GeometryError and ExperimentError among them
            raise ExperimentError(f"bad box spec {spec!r}: {exc}") from exc
    raise ExperimentError(f"unknown shape spec {spec!r}")


def _parse_generators(text: str) -> tuple:
    """The generators of "ax,ay;bx,by;...", each component read by
    parse_scalar; a generator of other than two raises ExperimentError."""
    gens = []
    for tok in text.split(";"):
        parts = [c.strip() for c in tok.split(",")]
        if len(parts) != 2:
            raise ExperimentError(f"generator needs 2 comma-separated values, got {tok!r}")
        gens.append(Vec2(*map(parse_scalar, parts)))
    return tuple(gens)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a decay run needs, read from JSON by `from_json`."""

    shape: str = "hexagon"
    window: tuple = (0, 0, 1, 1)
    intensity: float = 120.0
    mode: str = "rational"
    n_values: tuple = (5, 10, 20, 40)
    p: float = 0.5
    trials: int = 200
    base_seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(self.n_values))
        ints = [("trials", self.trials), ("base_seed", self.base_seed)]
        for what, v in ints + [("n_values entry", n) for n in self.n_values]:
            _require_int(v, what, ExperimentError)
        _require_number(self.intensity, "intensity", ExperimentError)
        _require_number(self.p, "p", ExperimentError)
        object.__setattr__(self, "window", _read_window(self.window))
        if self.trials < 1:
            raise ExperimentError("trials must be at least 1")
        if not self.n_values or any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ExperimentError("n_values must be non-empty and strictly ascending")
        if self.n_values[0] < 3:
            raise ExperimentError("prefix sizes start at the anchor, n >= 3")
        larg._require_p_delta(self.p, ExperimentError)
        if self.intensity <= 0:
            raise ExperimentError("intensity must be positive")
        if self.mode not in ("float", "rational"):
            raise ExperimentError(f"unknown sampling mode {self.mode!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ExperimentError("config JSON must be an object")
        # older configs name the one candidate search; nothing reads the key
        policy = data.pop("anchor_policy", "exhaustive")
        if policy != "exhaustive":
            raise ExperimentError(f"unknown anchor policy {policy!r}; every row searches all candidates")
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


def _extension_candidates(enum: GoodEnumeration, n: int, lookup) -> tuple:
    """Images of V_n under the plane isometries that map the anchor into V_n.

    At n = 3 every ordered triple of distinct vertices counts. From n = 4 on,
    anchor images w fix the affine map f(x) = w0 + L(x - m0); f is kept when
    L preserves the norm and f sends every later point of V_n to a distinct
    point of the sample. A norm-preserving f keeps every distance, so the
    anchor distances must match first. They are filtered in float: larg's
    float distances over V_n mark the pairs within larg's guard of an
    anchor distance, and only those pairs are confirmed by the scalar
    distance, each pair once. The result is the scalar definition's own, in
    its order. `lookup` is the _point_lookup of the enumeration's point set.
    """
    vn = enum.order[:n]
    if n == 3:
        return tuple(permutations(vn, 3))

    pts = enum.point_set.points
    shape = enum.shape
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
    the first n points (_extension_candidates: every ordered triple at
    n = 3, the isometries that map the anchor into V_n from n = 4 on)
    matches adjacency on every pair, as the whole-graph reference of
    tests/test_experiments.py does trial by trial. Only the coins of those
    pairs are drawn. Box shapes are rejected: their samples are isomorphic
    almost surely, which is the box demo's story, not a decay.
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
    # one sweep of the in-range pairs serves the walk and the range test;
    # the validator makes its own
    pairs = in_range_pairs(points, shape, 1)
    enum = anchoring._enumerate(points, shape, pairs)
    if len(enum.order) < cfg.n_values[-1]:
        raise ExperimentError(
            f"enumeration places {len(enum.order)} points; "
            f"largest requested n is {cfg.n_values[-1]}"
        )
    validate_good_enumeration(enum)

    within = larg._in_range_test(len(points), pairs)
    p_star = compatibility_probability(cfg.p, True)
    k = len(shape.generators)
    lookup = _point_lookup(points)
    rows = []
    for n in cfg.n_values:
        prefix = enum.order[:n]
        a, b = np.triu_indices(n, 1)
        gu, gv = np.asarray(prefix)[a], np.asarray(prefix)[b]
        images = np.asarray(_extension_candidates(enum, n, lookup), dtype=np.int64).reshape(-1, n)
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


def _floor_table(points: PointSet, shape: PolygonShape) -> np.ndarray:
    """floors[a, u, v] = floor of a.(p_u - p_v), a (k, n, n) int64 array;
    refuses ambiguous floats.

    A float filter floors the difference matrix of each column of
    larg._columns; cells within larg's guard of an integer are decided in
    row-major order by guarded_floor of a.p_u - a.p_v, exact for exact
    points.  The diagonal is exactly 0.
    """
    arr = points.as_array()
    cols, reach, _ = larg._columns(arr, shape)
    guard = larg._guard(1.0, reach, arr)
    tables = []
    for a, col in zip(shape.generators, cols):
        diff = col[:, None] - col[None, :]
        tab = np.floor(diff)
        near = np.abs(diff - np.rint(diff)) < guard
        np.fill_diagonal(near, False)
        np.fill_diagonal(tab, 0.0)
        for u, v in zip(*np.nonzero(near)):
            tab[u, v] = guarded_floor(a.dot(points[u]) - a.dot(points[v]), what=f"projection difference ({u}, {v})")
        tables.append(tab.astype(np.int64))
    return np.stack(tables)


def _floor_codes(points: PointSet, shape: PolygonShape) -> np.ndarray:
    """n x n int64 codes, equal for two pairs iff every generator floors
    them alike: the dense rank of each pair's tuple of `_floor_table` floors.

    The rank is built one generator at a time, each step packing the rank so
    far with the generator's own dense rank; both are below n^2, so the
    packed value stays below n^4 and the codes below n^2, whatever the
    floors' range.
    """
    floors = _floor_table(points, shape)
    n = len(points)
    codes = np.zeros(n * n, dtype=np.int64)
    for tab in floors:
        _, rank = np.unique(tab, return_inverse=True)
        _, codes = np.unique(codes * (rank.max(initial=0) + 1) + rank.reshape(-1), return_inverse=True)
    return codes.reshape(n, n)


def _search(codes, budget: int):
    """Back-and-forth search for a map of G onto H that keeps every code.

    codes = (c_G, c_H) holds each side's n x n int pair codes; u -> w is
    consistent when c[u, x] equals the other side's c[w, y] for every mapped
    pair x -> y. Step i maps the smallest unmapped vertex of G (i even) or
    of H (i odd) to the first consistent candidate of the other side, in
    increasing order, and backtracks on a dead end. Each candidate not yet
    mapped costs one unit of the budget, consistent or not. A step finds
    the candidates matching its first mapped pair by one list search each
    and charges the unmapped ones it passes in one count. The steps live on
    a list, so any n fits. Returns ("isomorphic", images of G's vertices),
    ("none", None) or ("undetermined", None).
    """
    n = len(codes[0])
    cols = [c.T.tolist() for c in codes]  # cols[s][x][u] = c_s[u, x]
    image = ([-1] * n, [-1] * n)  # image[s][u]: where side s sends u, or -1
    mapped = ([], [])  # the mapped pairs, G's vertices and H's, in step order
    left = budget
    stack = []  # per step: [its vertex, its codes to match, its next candidate]
    while len(stack) < n:
        s = len(stack) & 1
        v = image[s].index(-1)
        stack.append([v, [cols[s][x][v] for x in mapped[s]], 0])
        while True:  # the top step's next consistent candidate, backtracking past dead ends
            s = (len(stack) - 1) & 1
            v, want, c0 = stack[-1]
            free, ys, other = image[1 - s], mapped[1 - s], cols[1 - s]
            # with no pair mapped yet, every unmapped candidate is consistent
            col, first = (other[ys[0]], want[0]) if ys else (free, -1)
            c = c0
            while True:
                try:
                    c = col.index(first, c)
                except ValueError:
                    c = n
                    break
                if free[c] == -1 and all(other[y][c] == w for y, w in zip(ys, want)):
                    break
                c += 1
            cost = free[c0 : c + 1].count(-1)
            if left < cost:
                return ("undetermined", None)
            left -= cost
            if c < n:
                stack[-1][2] = c + 1
                image[s][v], image[1 - s][c] = c, v
                mapped[s].append(v)
                mapped[1 - s].append(c)
                break
            stack.pop()
            if not stack:
                return ("none", None)
            x, y = mapped[0].pop(), mapped[1].pop()
            image[0][x] = image[1][y] = -1
    return ("isomorphic", tuple(image[0]))


def back_and_forth_isomorphism(
    G: GeoGraph, H: GeoGraph, points: PointSet, shape: PolygonShape, budget: int = 5000
):
    """Search for an isomorphism respecting truncated generator projections.

    Alternates sides: even steps map the smallest unmapped vertex of G, odd
    steps find a preimage for the smallest unmapped vertex of H. A candidate
    must match every mapped vertex's projection floors and adjacency, which
    `_search` compares as one packed code per pair (twice the pair's
    `_floor_codes` plus its adjacency), on an explicit stack. Every
    candidate considered costs one unit of the budget. Returns
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
    base = 2 * _floor_codes(points, shape)
    return _search([base + G.adjacency_matrix(), base + H.adjacency_matrix()], budget)


@dataclass(frozen=True)
class BoxDemoReport:
    outcomes: tuple
    found: int
    none: int
    undetermined: int
    trials: int
    success_rate: float


def box_isomorphism_demo(
    points: PointSet, shape: NormShape, p: float, seeds, budget: int = 5000
) -> BoxDemoReport:
    """Rate of explicit isomorphisms between independent box samples.

    Requires at least two points and idf projections on both generators,
    the regime in which the infinite model makes any two samples
    isomorphic; at desk scale the rate is recorded as observed, including
    honest "undetermined" exhaustions. Trial s compares the samples of edge
    seeds _trial_seed(s, 0, 0, 0) and _trial_seed(s, 0, 0, 1), the graphs
    sample_larg draws for them: the in-range pairs and the floor codes are
    built once, and each trial draws only its two rows of coins over those
    pairs (_coin_rows) before it runs `_search`.
    """
    if not (isinstance(shape, PolygonShape) and shape.is_box()):
        raise ExperimentError("box_isomorphism_demo needs a box shape")
    if len(points) < 2:
        raise ExperimentError(f"the sample has {len(points)} points; the demo needs at least 2")
    for a, idf in zip(shape.generators, _idf_tests(points, shape.generators)):
        if not idf(1):
            raise ExperimentError(
                f"projections on generator ({a.x}, {a.y}) are not integer-"
                "difference-free; rescale the sample first"
            )
    seeds = tuple(seeds)
    if not seeds:
        raise ExperimentError("need at least one seed")
    larg._require_p_delta(p, ExperimentError)
    if budget < 1:
        raise ExperimentError("budget must be positive")

    base = 2 * _floor_codes(points, shape)
    us, vs = in_range_pairs(points, shape, 1)
    outcomes = []
    for s in seeds:
        codes = []
        for edges in _coin_rows(np.array([_trial_seed(s, 0, 0, side) for side in (0, 1)], dtype=np.uint64), us, vs, True, p):
            code = base.copy()
            code[us[edges], vs[edges]] += 1
            code[vs[edges], us[edges]] += 1
            codes.append(code)
        status, _ = _search(codes, budget)
        outcomes.append(status)
    found = outcomes.count("isomorphic")
    return BoxDemoReport(
        outcomes=tuple(outcomes),
        found=found,
        none=outcomes.count("none"),
        undetermined=outcomes.count("undetermined"),
        trials=len(seeds),
        success_rate=found / len(seeds),
    )
