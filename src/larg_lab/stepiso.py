"""Step-isometries: construction, verification, and counterexamples.

A step-isometry preserves the floor of every pairwise distance.  The classic
way to build one that is not an isometry: pick a strictly increasing map g of
fractional parts fixing 0 and send x to floor(x) + g(frac(x)).  Applied to
both dual coordinates of a box (parallelogram) metric this stays a
step-isometry; under any other shape it breaks, and the verifier here finds
the breaking pair.

Both checks run one pair scan under the numeric policy of ``exact``: a
float filter flags the pairs that may fail (floors that differ or a distance
near an integer; distances that may not be `exact.close`), and the scalar
distance decides each flagged pair in lexicographic order: exactly for exact
data, and for float data refusing a distance too near an integer.  The step
check filters only pairs with an end not certified by the box mechanism
(`_certified`), counted in Verdict.scanned; that share grows with n times
the guard (1% of 20,137 rational points in [0, 100]^2 under a box map).

A PointMap's images are a PointSet, stored as columns like any domain:
a float array, or integer numerators (A + B*sqrt(d))/D over one
denominator.  The explicit 1-D map lifts x by canonical_interleaving()
and leaves y alone; on exact points it is the square's box product map
with (canonical_interleaving(), identity).  Box product maps are computed
for a whole domain at once, in two lanes that both give exactly the images
of the formula in `box_product_point_map`, and write those columns directly.
Exact points under exact generators and knots take an integer lane on the
domain's stored numerators, so floors and knot comparisons are integer
sign tests and the images stay numerators.  Float points take one numpy
pass over the domain's `larg._columns` that performs the scalar formula's
float operations in its order, so the images are bit-identical.  Each map
is checked injective on its columns.

Field refusals come up front, before any image or distance.  An
Interleaving1D's `field` tags its knots (`exact.field_of`), refusing knots,
or a knot and an argument, with no common field (StepIsoError); a box map
joins the maps' fields with the generators' and the domain's
(StepIsoError), images with no common field are refused when the map is
made, and the pair scan joins the shape's tag with the domain's and with
the images' (GeometryError).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import (
    FLOAT,
    FLOAT_INTEGER_GUARD,
    BoundaryAmbiguityError,
    _floor_surd,
    _malformed_json,
    _surd_nonneg,
    close,
    exact_div,
    field_of,
    format_scalar,
    join_fields,
    parse_scalar,
    surd_ints,
    surd_value,
)
from .geometry import (
    GeometryError,
    Line,
    NormShape,
    PolygonShape,
    Vec2,
    _meet,
    distance,
    truncated_distance,
)
from . import larg
from .larg import _columns, _distances, _guard
from .pointsets import PointSet, PointSetError, _first_repeat, _projection_ints, pointset_from_json, pointset_to_json

__all__ = [
    "StepIsoError",
    "Interleaving1D",
    "canonical_interleaving",
    "apply_fractional_map",
    "PointMap",
    "explicit_1d_point_map",
    "box_product_point_map",
    "pointmap_to_json",
    "pointmap_from_json",
    "Verdict",
    "is_step_isometry",
    "is_isometry",
    "respects_line",
]


class StepIsoError(ValueError):
    pass


# ---------------------------------------------------------------------------
# fractional-part maps


@dataclass(frozen=True)
class Interleaving1D:
    """Piecewise-linear strictly increasing map of [0, 1) fixing 0.

    `knots` are (t, g(t)) pairs starting at (0, 0); the map interpolates
    linearly between knots and from the last knot to the implicit endpoint
    (1, 1).  Strict monotonicity in both coordinates keeps the fractional
    order of any two inputs, which is exactly what step-isometries need.
    """

    knots: tuple[tuple[object, object], ...]

    def __post_init__(self):
        ks = tuple((t, u) for t, u in self.knots)
        object.__setattr__(self, "knots", ks)
        self.field  # knots with no common field: StepIsoError
        if not ks or ks[0] != (0, 0):
            raise StepIsoError("first knot must be (0, 0)")
        for (t0, u0), (t, u) in zip(ks, ks[1:]):
            if not (0 <= t < 1 and 0 <= u < 1):
                raise StepIsoError(f"knot ({t}, {u}) outside [0, 1)")
            if not (t > t0 and u > u0):
                raise StepIsoError("knots must strictly increase in both coordinates")

    @classmethod
    def identity(cls) -> "Interleaving1D":
        return cls(((0, 0),))

    @classmethod
    def two_piece(cls, t, u) -> "Interleaving1D":
        """Map [0, t] linearly onto [0, u] and [t, 1) onto [u, 1)."""
        return cls(((0, 0), (t, u)))

    @property
    def field(self) -> int:
        """The knots' field tag (`exact.field_of`); knots with no common
        field raise StepIsoError."""
        return field_of((c for knot in self.knots for c in knot), StepIsoError)

    def __call__(self, s):
        join_fields(self.field, field_of((s,), StepIsoError), StepIsoError)
        if not (0 <= s < 1):
            raise StepIsoError(f"fractional part {s!r} outside [0, 1)")
        # the last piece starting at or before s; knot lists are short
        t0, u0, m = next(seg for seg in reversed(_segments(self)) if seg[0] <= s)
        return u0 + (s - t0) * m


def canonical_interleaving() -> Interleaving1D:
    """The two-piece map sending [0, 1/2] onto [0, 1/3]: the standard
    fractional interleaving whose lift is a step-isometry but not an
    isometry."""
    return Interleaving1D.two_piece(Fraction(1, 2), Fraction(1, 3))


def apply_fractional_map(g: Interleaving1D, x):
    """floor(x) + g(frac(x)): keeps the integer part, remaps the rest."""
    fl = math.floor(x)
    return fl + g(x - fl)


def _segments(g: Interleaving1D) -> list[tuple[object, object, object]]:
    """(t0, u0, slope) of each linear piece of g, the last one ending at (1, 1)."""
    ends = g.knots[1:] + ((1, 1),)
    return [(t0, u0, exact_div(u1 - u0, t1 - t0)) for (t0, u0), (t1, u1) in zip(g.knots, ends)]


def _exact_images(shape: PolygonShape, g1, g2, d: int, part: PointSet) -> tuple:
    """The integer lane: the images of the points of part, exact over
    Q(sqrt(d)) (Q for d = 0), as numerator columns (Dn, xs, ys).

    The dual coordinates u = a.v are int pairs over one denominator Du
    (`pointsets._projection_ints`), each interleaving piece is s -> m*s + c
    with m, c over one denominator E, the knots are over T and the image
    coefficients (`geometry._meet`) over K.  The floor of u, the piece it
    falls in (an integer sign test against each knot, over the map's field
    d, which knots may bring) and the image numerators are int arithmetic.
    """
    a1, a2 = shape.generators
    (Du, U1, _), (_, U2, _) = _projection_ints(part, (a1, a2))
    e1, e2 = _meet(a1, 1, a2, 0), _meet(a1, 0, a2, 1)
    K, coef = surd_ints((e1[0], e2[0], e1[1], e2[1]))
    segs = [_segments(g) for g in (g1, g2)]
    T, starts = surd_ints([t0 for sg in segs for t0, _, _ in sg])
    E, lines = surd_ints([c for sg in segs for t0, u0, m in sg for c in (m, u0 - t0 * m)])
    duals = []
    next_start, next_line = iter(starts).__next__, iter(lines).__next__
    for sg in segs:
        knots = [next_start() for _ in sg][1:]  # every piece but the first starts at a knot
        pieces = [next_line() + next_line() for _ in sg]  # (mA, mB, cA, cB)
        duals.append((knots, pieces))
    (k11a, k11b), (k12a, k12b), (k21a, k21b), (k22a, k22b) = coef
    out_x, out_y = [], []
    for u in zip(U1, U2):
        W = []
        for (UA, UB), (knots, pieces) in zip(u, duals):
            fl = _floor_surd(UA, UB, d, Du)
            SA = UA - fl * Du
            k = 0
            for tA, tB in knots:
                if not _surd_nonneg(SA * T - tA * Du, UB * T - tB * Du, d):
                    break
                k += 1
            mA, mB, cA, cB = pieces[k]
            W.append(((fl * E + cA) * Du + mA * SA + mB * UB * d, mA * UB + mB * SA + cB * Du))
        (w1a, w1b), (w2a, w2b) = W
        out_x.append((k11a * w1a + k12a * w2a + (k11b * w1b + k12b * w2b) * d,
                      k11a * w1b + k11b * w1a + k12a * w2b + k12b * w2a))
        out_y.append((k21a * w1a + k22a * w2a + (k21b * w1b + k22b * w2b) * d,
                      k21a * w1b + k21b * w1a + k22a * w2b + k22b * w2a))
    return K * E * Du, out_x, out_y


def _first_double_at_least(t) -> float:
    """The smallest double >= t: s >= it exactly when t <= s for a double s."""
    f = float(t)
    return math.nextafter(f, math.inf) if f < t else f


def _float_images(shape: PolygonShape, g1, g2, xy: np.ndarray) -> np.ndarray:
    """The float lane: the images of the rows of xy, as an array of rows.

    Every step is the float operation the scalar formula performs on float
    data, in the same order (an exact constant c enters as float(c), as
    Python's mixed arithmetic does), so the images are bit-identical; the
    dual coordinates are `larg._columns`.  Only the knot comparison t <= s
    is exact in the scalar formula; it becomes s >= the smallest double >=
    t.  The first point whose floor or fractional part the scalar formula
    refuses (s rounded up to 1.0, a non-finite dual coordinate), or whose
    image is not finite, raises that refusal.
    """
    a1, a2 = shape.generators
    bad = np.zeros(len(xy), dtype=bool)
    ws = []
    with np.errstate(all="ignore"):
        cols = _columns(xy, shape)[0]
        for u, g in zip(cols, (g1, g2)):
            fl = np.floor(u) + 0.0  # float(math.floor(u)): no -0.0
            s = u - fl
            bad |= ~((s >= 0.0) & (s < 1.0))
            segs = _segments(g)
            k = np.searchsorted([_first_double_at_least(t0) for t0, _, _ in segs], s, side="right") - 1
            t0, u0, m = (np.array([float(c) for c in col])[k] for col in zip(*segs))
            ws.append(fl + (u0 + (s - t0) * m))
        w1, w2 = ws
        den = float(a1.cross(a2))
        x = (w1 * float(a2.y) - w2 * float(a1.y)) / den
        y = (float(a1.x) * w2 - float(a2.x) * w1) / den
    images = np.column_stack((x, y))
    for j in np.flatnonzero(bad | ~np.isfinite(images).all(axis=1))[:1].tolist():
        for u, g in zip(cols, (g1, g2)):
            apply_fractional_map(g, float(u[j]))  # raises as the scalar formula does
        Vec2(*images[j].tolist())  # a non-finite image: raises as the formula's Vec2 does
    return images


def _box_images(shape: NormShape, g1, g2, domain: PointSet) -> PointSet:
    """The domain's images under the box product map, checked injective;
    refusals as in `box_product_point_map`."""
    if not (isinstance(shape, PolygonShape) and shape.is_box()):
        raise StepIsoError("box product maps need a box (two-generator) shape")
    setup = join_fields(shape.field, join_fields(g1.field, g2.field, StepIsoError), StepIsoError)
    common = join_fields(setup, domain.field, StepIsoError)

    # float setups send every point to the float lane; rational setups send
    # the exact points of a float domain built from Vec2s to the integer lane
    n = len(domain)
    rows, part = ((), None) if setup == FLOAT else domain._exact_part()
    d = 0 if common == FLOAT else common
    if n and len(rows) == n:
        cols = _exact_images(shape, g1, g2, d, part)
        field = d if any(B for col in cols[1:] for _, B in col) else 0
    elif n and not rows:
        cols, field = _float_images(shape, g1, g2, domain.as_array()), FLOAT
    else:  # both lanes, or no point: Vec2s through the checking constructor
        images = [None] * n
        if rows:
            D, xs, ys = _exact_images(shape, g1, g2, d, part)
            for j, X, Y in zip(rows, xs, ys):
                images[j] = Vec2(surd_value(*X, D, d), surd_value(*Y, D, d))
        todo = np.delete(np.arange(n), list(rows))  # a mask: np.setdiff1d imports numpy.ma
        for j, w in zip(todo.tolist(), _float_images(shape, g1, g2, domain.as_array()[todo]).tolist()):
            images[j] = Vec2(*w)
        return _image_set(tuple(images), domain)
    images = PointSet._from_columns(cols, field, domain.window, domain.seed, "float" if field == FLOAT else "rational")
    dup = _first_repeat(cols, field)
    if dup < n:
        raise StepIsoError(f"map is not injective: image {images[dup]} repeats")
    return images


def _image_set(images: tuple, domain: PointSet) -> PointSet:
    """Vec2 images as a PointSet with the domain's window and seed, through
    the checking constructor.  Images with no common field are refused
    with GeometryError, as the checks refuse them; a repeat with StepIsoError."""
    if not all(isinstance(w, Vec2) for w in images):
        raise StepIsoError("images must be Vec2")
    try:
        ps = PointSet(images, domain.window, domain.seed)
    except PointSetError:
        field_of((c for w in images for c in (w.x, w.y)), GeometryError)
        seen = set()
        w = next(w for w in images if w in seen or seen.add(w))
        raise StepIsoError(f"map is not injective: image {w} repeats") from None
    ps.mode = "float" if ps.field == FLOAT else "rational"
    return ps


# ---------------------------------------------------------------------------
# point maps


@dataclass(frozen=True)
class PointMap:
    """A finite map: domain points (by index) to image points.

    images is a PointSet with the domain's window and seed, its mode set by
    its field; Vec2 images (a tuple, as `dataclasses.replace` passes them)
    go through the checking constructor, which refuses a repeated image.
    kind is a provenance tag ("arbitrary", "box-product", "explicit-1d").
    """

    domain: PointSet
    images: PointSet
    kind: str = "arbitrary"

    def __post_init__(self):
        images = self.images if isinstance(self.images, PointSet) else tuple(self.images)
        if len(images) != len(self.domain):
            raise StepIsoError(f"{len(images)} images for {len(self.domain)} domain points")
        if not isinstance(images, PointSet):
            object.__setattr__(self, "images", _image_set(images, self.domain))

    def __len__(self):
        return len(self.images)

    @classmethod
    def from_function(cls, domain: PointSet, fn: Callable[[Vec2], Vec2], kind: str = "arbitrary") -> "PointMap":
        return cls(domain, tuple(fn(p) for p in domain.points), kind)


def explicit_1d_point_map(domain: PointSet) -> PointMap:
    """The canonical 1D counterexample (`apply_fractional_map`) on x,
    leaving y alone; meant for sets on a horizontal line, where the metric
    restricts to |dx|."""
    g = canonical_interleaving()
    return PointMap.from_function(domain, lambda p: Vec2(apply_fractional_map(g, p.x), p.y), "explicit-1d")


def box_product_point_map(
    domain: PointSet, shape: NormShape, g1: Interleaving1D, g2: Interleaving1D
) -> PointMap:
    """Apply g1, g2 to the two dual coordinates of a box shape at each
    domain point v: with generators a1, a2 the dual coordinates are
    u_i = a_i.v, and the image w is the unique point with
    a_i.w = w_i = apply_fractional_map(g_i, u_i) = floor(u_i) + g_i(frac(u_i)),
    that is w = ((w1*a2.y - w2*a1.y) / den, (a1.x*w2 - a2.x*w1) / den) with
    den = a1.cross(a2).

    Exact points under exact generators and knots take the integer lane
    (see the module docstring), every other point the float lane, which
    raises the scalar formula's refusals (a fractional part rounded up to
    1.0) for the same first point.  Generators, knots and domain with no
    common field are refused up front with StepIsoError.

    Exact points under float generators or knots, and points with one
    exact and one float coordinate, take the float lane on their
    coordinates rounded to floats; where the scalar formula rounds an exact
    product or fractional part instead, an image may differ in the last bit.
    """
    return PointMap(domain, _box_images(shape, g1, g2, domain), "box-product")


def pointmap_to_json(pmap: PointMap) -> str:
    obj = {
        "kind": pmap.kind,
        "domain": json.loads(pointset_to_json(pmap.domain)),
        "images": [[format_scalar(x), format_scalar(y)] for x, y in pmap.images._coords()],
    }
    return json.dumps(obj)


def pointmap_from_json(text: str) -> PointMap:
    obj = json.loads(text)
    with _malformed_json("map", StepIsoError):
        domain = pointset_from_json(json.dumps(obj["domain"]))
        images = tuple(Vec2(parse_scalar(x), parse_scalar(y)) for x, y in obj["images"])
        return PointMap(domain, images, obj.get("kind", "arbitrary"))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Verdict:
    """Outcome of a pairwise check; witness is the first failing pair in
    lexicographic index order, with the two compared values.

    checked is the witness's 1-based position in that order, or n(n-1)/2 for
    a map that passes.  scanned (ignored by ==) counts the pairs filtered.
    """

    ok: bool
    witness: tuple[int, int] | None = None
    left: object = None
    right: object = None
    checked: int = 0
    scanned: int = field(default=0, compare=False)


# is_isometry's filter margin inside its level (larg._guard's rel): float
# distances are off by ~1e-15 times 1 plus the coordinate scale, and the float
# level, FLOAT_INTEGER_GUARD, is far above this much of it
_ISO_GUARD = 1e-12


def _fields(pmap: PointMap, shape: NormShape) -> tuple[int, int]:
    """The field tags of the domain and of the images, each joined with the
    shape's, so data with no common field with the shape is refused up front
    (GeometryError).  The two sides are never joined with each other: their
    distances are computed apart, and an exact domain with float images is
    a legitimate input."""
    for f in (pmap.domain.field, pmap.images.field):
        join_fields(shape.field, f, GeometryError)
    return pmap.domain.field, pmap.images.field


def _certified(dom_cols: np.ndarray, img_cols: np.ndarray, q, guard) -> np.ndarray:
    """The points whose pairs the step filter cannot flag, as under a box map:
    in each generator column (A the domain's, B the images'), floor(B) -
    floor(A) is the common (median) offset, the rank by frac(A) is the rank
    by frac(B), and both circular neighbour gaps in both fractional orders
    are at least margin.  For certified i, j (F the floor, f the fractional
    part), floor(A_i - A_j) = F_i - F_j - [f_i < f_j], and A_i - A_j lies at
    least margin from every integer, f_i - f_j or 1 + f_i - f_j spanning a
    neighbour gap of i or j.  B agrees, so floor|A_i - A_j| = floor|B_i - B_j|
    in every column, the distances (the maxima) share a floor, and neither is
    within margin of an integer.  The margin, the filter's guard plus 2^-48 (1
    + the largest |column|), covers the float error.  L^p certifies nothing.

    A column constant on both sides is left out (collinear points tie in
    it): its differences, 0 up to float error, lie below margin, so below
    every tested column's, and never reach the maximum.  With no column
    left, nothing is certified.
    """
    margin = guard + 2.0**-48 * (1.0 + max(np.abs(c).max() for c in (dom_cols, img_cols)))
    cols = [(a, b) for a, b in zip(dom_cols, img_cols) if a.min() < a.max() or b.min() < b.max()]
    ok = np.full(dom_cols.shape[1], q is None and bool(cols))
    for a, b in cols:
        if not ok.any():
            break
        off = np.floor(b) - np.floor(a)
        ok &= off == np.partition(off, len(off) // 2)[len(off) // 2]
        fracs = [col - np.floor(col) for col in (a, b)]
        orders = [np.argsort(f) for f in fracs]  # a point tied with another fails either way
        for f, order in zip(fracs, orders):
            gap = np.append(np.diff(f[order]), f[order[0]] + 1.0 - f[order[-1]])
            ok[order] &= np.minimum(gap, np.roll(gap, 1)) >= margin
        ok[orders[0]] &= orders[0] == orders[1]
    return ok


def _scan_blocks(sure: np.ndarray, i0: int):
    """The pairs i < j, i >= i0, with an uncertified end in row blocks, in
    order: the block's uncertified rows against the columns from its first
    row, its certified rows against the uncertified columns from that row; a
    block is the most rows within larg._BLOCK_CELLS cells (larg._row_blocks
    if none is certified)."""
    n, unsure = len(sure), np.flatnonzero(~sure)
    before = np.concatenate(([0], np.cumsum(~sure)))
    while i0 < n and (k := len(unsure) - int(before[i0])):
        span = np.arange(i0 + 1, min(n, i0 + max(1, larg._BLOCK_CELLS // k)) + 1)
        u = before[span] - before[i0]
        cells = u * (n - i0) + (span - i0 - u) * k
        i1 = i0 + max(1, int(np.searchsorted(cells, larg._BLOCK_CELLS, side="right")))
        rows, here = np.arange(i0, i1), sure[i0:i1]
        yield (rows[~here], slice(i0, n)), (rows[here], unsure[before[i0]:])
        i0 = i1


def _pair_scan(pmap: PointMap, shape: NormShape, marks, scalar, fails, rel=FLOAT_INTEGER_GUARD,
               certify=None) -> Verdict:
    """The first pair i < j, in lexicographic order, that fails a check.

    The float filter takes both sides' distances over the row blocks of
    `_scan_blocks`, skipping pairs of points that certify(dom_cols, img_cols,
    q, guard) names; row 0 is scanned whole, as its own block, before the
    certificate is built, so a map that fails there builds none.
    marks(dd, di, guard) flags the pairs that may fail,
    guard being larg._guard at level 1 over both sides.  Each flagged pair is
    then decided in order by fails(left, right) on the scalar values
    scalar(shape, x, y) of both sides, exact for exact data.  Callers refuse
    data with no common field with the shape first (`_fields`).
    """
    dom, ims = pmap.domain, pmap.images
    n = len(dom)
    if n < 2:
        return Verdict(True, checked=0)
    xy = dom.as_array()
    img = ims.as_array()
    dom_cols, reach, q = _columns(xy, shape)
    img_cols = _columns(img, shape)[0]
    guard = _guard(1.0, reach, xy, img, rel=rel)
    at, scanned = np.arange(n), 0

    def blocks():
        yield (at[:1], slice(0, n)), (at[:0], at)
        sure = certify(dom_cols, img_cols, q, guard) if certify else np.zeros(n, dtype=bool)
        yield from _scan_blocks(sure, 1)

    for pieces in blocks():
        keys = []
        for rows, cols in pieces:
            cj = at[cols]
            scanned += len(rows) * len(cj) - int(np.searchsorted(cj, rows, side="right").sum())
            flagged = marks(_distances(dom_cols, q, rows, cols), _distances(img_cols, q, rows, cols), guard)
            lead = flagged[:, : int(np.searchsorted(cj, rows.max(initial=-1), side="right"))]
            lead &= cj[: lead.shape[1]] > rows[:, None]  # cells with column <= row
            if flagged.any():
                r, c = np.nonzero(flagged)
                keys.append(rows[r] * n + cj[c])
        for key in np.sort(np.concatenate(keys)).tolist() if keys else ():
            i, j = divmod(key, n)
            try:
                left = scalar(shape, dom[i], dom[j])
                right = scalar(shape, ims[i], ims[j])
            except BoundaryAmbiguityError as err:
                raise BoundaryAmbiguityError(f"pair ({i}, {j}): {err}") from None
            if fails(left, right):
                return Verdict(False, (i, j), left, right, i * n - i * (i + 1) // 2 + j - i, scanned)
    return Verdict(True, checked=n * (n - 1) // 2, scanned=scanned)


def is_step_isometry(pmap: PointMap, shape: NormShape) -> Verdict:
    """Do all pairs keep their truncated distance under the map?

    Exact data is decided exactly; float data raises BoundaryAmbiguityError
    (naming the pair) when a distance is too close to an integer to truncate
    safely and no earlier pair fails.  The witness carries both floors.
    A domain or images with no common field with the shape raise
    GeometryError before any pair is read.
    """

    def marks(dd, di, guard):
        # floors that differ, or a distance near an integer on either side
        near = (np.abs(dd - np.rint(dd)) < guard) | (np.abs(di - np.rint(di)) < guard)
        return near | (np.floor(dd) != np.floor(di))

    _fields(pmap, shape)
    return _pair_scan(pmap, shape, marks, truncated_distance, lambda td, ti: td != ti, certify=_certified)


def is_isometry(pmap: PointMap, shape: NormShape) -> Verdict:
    """Do all pairs keep their distance, as `exact.close` decides?

    Exact distances must be equal; once either is a float, they must agree
    within FLOAT_INTEGER_GUARD.  The witness carries both distances.
    Fields are refused as in `is_step_isometry`.
    """
    level = 0.0 if FLOAT not in _fields(pmap, shape) and isinstance(shape, PolygonShape) else FLOAT_INTEGER_GUARD

    def marks(dd, di, guard):
        return np.abs(dd - di) > level - guard

    # exact pairs are compared, never subtracted: the two sides may lie over
    # different radicands, whose values are simply unequal
    return _pair_scan(pmap, shape, marks, distance, lambda d, e: not close(d, e), _ISO_GUARD)


def respects_line(pmap: PointMap, ell: Line, ell_image: Line) -> bool:
    """Does the map send ell's open half-planes into ell_image's?

    True iff for every domain point v: a.v < r implies a'.f(v) < r' and
    a.v > r implies a'.f(v) > r'.  A domain point on ell has no side, which
    is an error; an image landing on ell_image violates both implications.
    Rescaling (a, r) to (lam*a, lam*r) with lam > 0 changes nothing.
    """
    for v, w in zip(pmap.domain.points, pmap.images):
        s = ell.side_of(v)
        if s == 0:
            raise StepIsoError(f"domain point {v} lies on the line; side undefined")
        if ell_image.side_of(w) != s:
            return False
    return True

