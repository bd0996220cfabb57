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

Edge coins are counter-based, keyed by trial seed and vertex pair, so each
decay row is evaluated in one pass that draws, per trial, only the coins of
the pairs inside V_n and of their candidate images; the rows are reproducible
bit for bit.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import larg
from .anchoring import GoodEnumeration, good_enumeration, validate_good_enumeration
from .exact import FLOAT_INTEGER_GUARD, exact_div, exact_floor, guarded_floor, is_exact
from .geometry import (
    GeometryError,
    LpShape,
    NormShape,
    PolygonShape,
    Vec2,
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
    pair_uniform_array,
    sample_larg,
)
from .pointsets import PointSet, Window, is_idf, sample_poisson_window

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
_REL_TOL = 1e-9


class ExperimentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def shape_from_spec(spec: str) -> NormShape:
    """Build a shape from a short config string.

    Accepted: "hexagon", "regular-hexagon", "square", "diamond",
    "lp:<p>", and "box:ax,ay;bx,by" with exact rational components.
    """
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
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if len(self.window) != 4:
            raise ExperimentError("window must be (x0, y0, x1, y1)")
        if self.trials < 1:
            raise ExperimentError("trials must be at least 1")
        if not self.n_values or any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ExperimentError("n_values must be non-empty and strictly ascending")
        if self.n_values[0] < 3:
            raise ExperimentError("prefix sizes start at the anchor, n >= 3")
        if not 0.0 < self.p < 1.0:
            raise ExperimentError(f"p must be in (0, 1), got {self.p}")
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


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval; stays honest at zero counts and small trials."""
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ExperimentError("successes must lie in [0, trials]")
    phat = successes / trials
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
    d1, d2 = m[1] - m[0], m[2] - m[0]
    e1, e2 = w[1] - w[0], w[2] - w[0]
    det = d1.cross(d2)  # anchors are triangular, never collinear
    if e1.cross(e2) == 0:
        return None
    return (
        exact_div(e1.x * d2.y - e2.x * d1.y, det),
        exact_div(e2.x * d1.x - e1.x * d2.x, det),
        exact_div(e1.y * d2.y - e2.y * d1.y, det),
        exact_div(e2.y * d1.x - e1.y * d2.x, det),
    )


def _inverse_transpose(L):
    a, b, c, d = L
    det = a * d - b * c
    if det == 0:
        return None
    return (
        exact_div(d, det),
        exact_div(-c, det),
        exact_div(-b, det),
        exact_div(a, det),
    )


def _apply(L, v: Vec2) -> Vec2:
    a, b, c, d = L
    return Vec2(a * v.x + b * v.y, c * v.x + d * v.y)


def _vec_close(u: Vec2, v: Vec2) -> bool:
    if u.is_exact() and v.is_exact():
        return u.x == v.x and u.y == v.y
    return abs(float(u.x) - float(v.x)) <= _REL_TOL and abs(float(u.y) - float(v.y)) <= _REL_TOL


def _is_shape_symmetry(shape: NormShape, Lit) -> bool:
    """Does y -> L y preserve the norm? Checked through the dual action Lit."""
    if isinstance(shape, PolygonShape):
        for g in shape.generators:
            img = _apply(Lit, g)
            if not any(_vec_close(img, h) or _vec_close(img, -h) for h in shape.generators):
                return False
        return True
    if isinstance(shape, LpShape):
        a, b, c, d = Lit
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
        return all(v == 0 if is_exact(v) else abs(float(v)) <= _REL_TOL for v in checks)
    raise ExperimentError(f"unsupported shape {shape!r}")


def _point_lookup(points: PointSet):
    """y -> index of the point equal to y (exact data) or within _REL_TOL of it."""
    pts = points.points
    if all(v.is_exact() for v in pts):
        exact_index = {(v.x, v.y): i for i, v in enumerate(pts)}
        return lambda y: exact_index.get((y.x, y.y))

    scale = 1.0 / _REL_TOL
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
            if abs(float(pts[i].x) - fx) <= _REL_TOL and abs(float(pts[i].y) - fy) <= _REL_TOL
        ]
        return hits[0] if len(hits) == 1 else None

    return lookup


def _extension_candidates(enum: GoodEnumeration, n: int) -> tuple:
    """Images of V_n under the plane isometries that map the anchor into V_n.

    At n = 3 every ordered triple of distinct vertices counts. From n = 4 on,
    anchor images w fix the affine map f(x) = w0 + L(x - m0); f is kept when
    L preserves the norm and f sends every later point of V_n to a distinct
    point of the sample. A norm-preserving f keeps every distance, so the
    anchor distances must match first.
    """
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
                L = _linear_part(m, w)
                if L is None:
                    continue
                Lit = _inverse_transpose(L)
                if Lit is None or not _is_shape_symmetry(shape, Lit):
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


def _trial_seed(base: int, n: int, t: int, side: int) -> int:
    # disjoint deterministic streams per (row, trial, graph side)
    z = (base & _MASK64) ^ (n * 0x9E3779B97F4A7C15) ^ (t * 0xBF58476D1CE4E5B9)
    return (z ^ (side * 0x94D049BB133111EB)) & _MASK64


def _coin_rows(base: int, n: int, side: int, trials: int, us, vs, in_range, p: float):
    """trials x len(us) adjacency matrix of one graph side over the given pairs.

    Coins are drawn for a block of trials per call, at most
    larg._BLOCK_CELLS cells (one trial at least) per block.
    """
    rows = np.empty((trials, len(us)), dtype=bool)
    step = max(1, larg._BLOCK_CELLS // max(1, len(us)))
    for t0 in range(0, trials, step):
        seeds = [_trial_seed(base, n, t, side) for t in range(t0, min(trials, t0 + step))]
        block = rows[t0 : t0 + len(seeds)]
        np.less(pair_uniform_array(seeds, us, vs), p, out=block)
        block &= in_range
    return rows


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
    rows = []
    for n in cfg.n_values:
        prefix = enum.order[:n]
        cands = (prefix,) if cfg.anchor_policy == "identity" else _extension_candidates(enum, n)
        a, b = np.triu_indices(n, 1)
        gu, gv = np.asarray(prefix)[a], np.asarray(prefix)[b]
        images = np.asarray(cands, dtype=np.int64).reshape(len(cands), n)
        hu, hv = images[:, a].ravel(), images[:, b].ravel()
        e_g = _coin_rows(cfg.base_seed, n, 0, cfg.trials, gu, gv, within(gu, gv), cfg.p)
        e_h = _coin_rows(cfg.base_seed, n, 1, cfg.trials, hu, hv, within(hu, hv), cfg.p)
        e_h = e_h.reshape(cfg.trials, len(cands), len(a))
        successes = int((e_g[:, None, :] == e_h).all(axis=2).any(axis=1).sum())
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

    if cfg.out_csv:
        rows_to_csv(rows, cfg.out_csv)
    if cfg.out_json:
        with open(cfg.out_json, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in rows], fh, indent=2)
    return rows


_CSV_COLUMNS = ("n", "trials", "successes", "fraction", "ci_lo", "ci_hi", "paper_bound")


def _write_rows(fh, rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [r.n, r.trials, r.successes, repr(r.fraction), repr(r.ci_lo), repr(r.ci_hi), repr(r.paper_bound)]
        )


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
        return [
            DecayRow(
                n=int(row[0]),
                trials=int(row[1]),
                successes=int(row[2]),
                fraction=float(row[3]),
                ci_lo=float(row[4]),
                ci_hi=float(row[5]),
                paper_bound=float(row[6]),
            )
            for row in reader
        ]


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

    A float filter floors the difference matrix; cells within a guard of an
    integer are decided in row-major order by the scalar rule (exact floor
    for exact data, guarded_floor for floats). The diagonal is exactly 0.
    """
    pts = points.points
    tables = []
    for a in shape.generators:
        proj = [a.dot(v) for v in pts]
        exact = all(not isinstance(t, float) for t in proj)
        col = np.array([float(t) for t in proj])
        diff = col[:, None] - col[None, :]
        tab = np.floor(diff)
        guard = FLOAT_INTEGER_GUARD * (1.0 + np.abs(col).max(initial=0.0))
        near = np.abs(diff - np.rint(diff)) < guard
        np.fill_diagonal(near, False)
        np.fill_diagonal(tab, 0.0)
        for u, v in zip(*np.nonzero(near)):
            diff_uv = proj[u] - proj[v]
            tab[u, v] = exact_floor(diff_uv) if exact else guarded_floor(
                diff_uv, what=f"projection difference ({u}, {v})"
            )
        tables.append(tab.astype(np.int64).tolist())
    return tables


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left


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
    meter = _Budget(budget)
    adj_g, adj_h = G.adjacency_matrix().tolist(), H.adjacency_matrix().tolist()

    def consistent(u: int, w: int) -> bool:
        for u2, w2 in fwd.items():
            if adj_g[u][u2] != adj_h[w][w2]:
                return False
            for tab in floors:
                if tab[u][u2] != tab[w][w2]:
                    return False
        return True

    def extend() -> bool:
        if len(fwd) == n:
            return True
        step = len(fwd)
        if step % 2 == 0:
            u = min(v for v in range(n) if v not in fwd)
            for w in range(n):
                if w in bwd:
                    continue
                if meter.left <= 0:
                    raise _BudgetExhausted
                meter.left -= 1
                if consistent(u, w):
                    fwd[u] = w
                    bwd[w] = u
                    if extend():
                        return True
                    del fwd[u]
                    del bwd[w]
        else:
            w = min(v for v in range(n) if v not in bwd)
            for u in range(n):
                if u in fwd:
                    continue
                if meter.left <= 0:
                    raise _BudgetExhausted
                meter.left -= 1
                if consistent(u, w):
                    fwd[u] = w
                    bwd[w] = u
                    if extend():
                        return True
                    del fwd[u]
                    del bwd[w]
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
    for a in shape.generators:
        if not is_idf([a.dot(v) for v in points.points]):
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
