"""Step-isometries: construction, verification, and counterexamples.

A step-isometry preserves the floor of every pairwise distance.  The classic
way to build one that is not an isometry: pick a strictly increasing map g of
fractional parts fixing 0 and send x to floor(x) + g(frac(x)).  Applied to
both dual coordinates of a box (parallelogram) metric this stays a
step-isometry; under any other shape it breaks, and the verifier here finds
the breaking pair.

Both checks run one pair scan: a float filter computes the distances of
both sides in row blocks and flags the pairs that may fail (floors that
differ or a distance near an integer; distances that differ by about tol or
more), and the scalar distance decides each flagged pair in lexicographic
order.  That decision is exact for exact data; for float data the scalar
truncation refuses to guess when a distance sits within 1e-9 of an integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import (
    BoundaryAmbiguityError,
    FLOAT_INTEGER_GUARD,
    exact_div,
    format_scalar,
    parse_scalar,
)
from .geometry import (
    Line,
    NormShape,
    PolygonShape,
    Vec2,
    distance,
    truncated_distance,
)
from .larg import _block_gaps, _columns, _row_blocks
from .pointsets import PointSet, pointset_from_json, pointset_to_json

__all__ = [
    "StepIsoError",
    "Interleaving1D",
    "canonical_interleaving",
    "explicit_step_isometry_1d",
    "apply_fractional_map",
    "box_product_map",
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
        if not ks or ks[0] != (0, 0):
            raise StepIsoError("first knot must be (0, 0)")
        prev_t, prev_u = None, None
        for t, u in ks:
            if not (0 <= t < 1 and 0 <= u < 1):
                raise StepIsoError(f"knot ({t}, {u}) outside [0, 1)")
            if prev_t is not None and not (t > prev_t and u > prev_u):
                raise StepIsoError("knots must strictly increase in both coordinates")
            prev_t, prev_u = t, u

    @classmethod
    def identity(cls) -> "Interleaving1D":
        return cls(((0, 0),))

    @classmethod
    def two_piece(cls, t, u) -> "Interleaving1D":
        """Map [0, t] linearly onto [0, u] and [t, 1) onto [u, 1)."""
        return cls(((0, 0), (t, u)))

    def is_identity(self) -> bool:
        return all(t == u for t, u in self.knots)

    def __call__(self, s):
        if not (0 <= s < 1):
            raise StepIsoError(f"fractional part {s!r} outside [0, 1)")
        # walk to the segment containing s; knot lists are short
        i = 0
        while i + 1 < len(self.knots) and self.knots[i + 1][0] <= s:
            i += 1
        t0, u0 = self.knots[i]
        t1, u1 = self.knots[i + 1] if i + 1 < len(self.knots) else (1, 1)
        return u0 + (s - t0) * exact_div(u1 - u0, t1 - t0)


def canonical_interleaving() -> Interleaving1D:
    """The two-piece map sending [0, 1/2] onto [0, 1/3]: the standard
    fractional interleaving whose lift is a step-isometry but not an
    isometry."""
    return Interleaving1D.two_piece(Fraction(1, 2), Fraction(1, 3))


def explicit_step_isometry_1d(x):
    """floor(x) + (2/3) frac(x) on the lower half cell, else
    floor(x) + (4/3) frac(x) - 1/3.  Exact input gives exact output."""
    fl = math.floor(x)
    fr = x - fl
    if fr <= Fraction(1, 2):
        return fl + Fraction(2, 3) * fr
    return fl + Fraction(4, 3) * fr - Fraction(1, 3)


def apply_fractional_map(g: Interleaving1D, x):
    """floor(x) + g(frac(x)): keeps the integer part, remaps the rest."""
    fl = math.floor(x)
    return fl + g(x - fl)


def box_product_map(shape: NormShape, g1: Interleaving1D, g2: Interleaving1D, v: Vec2) -> Vec2:
    """Apply g1, g2 to the two dual coordinates of a box shape.

    With generators a1, a2 the dual coordinates are u_i = a_i.v; the image w
    is the unique point with a_i.w = floor(u_i) + g_i(frac(u_i)).
    """
    if not (isinstance(shape, PolygonShape) and shape.is_box()):
        raise StepIsoError("box product maps need a box (two-generator) shape")
    a1, a2 = shape.generators
    w1 = apply_fractional_map(g1, a1.dot(v))
    w2 = apply_fractional_map(g2, a2.dot(v))
    den = a1.cross(a2)
    return Vec2(
        exact_div(w1 * a2.y - w2 * a1.y, den),
        exact_div(a1.x * w2 - a2.x * w1, den),
    )


# ---------------------------------------------------------------------------
# point maps


@dataclass(frozen=True)
class PointMap:
    """A finite map: domain points (by index) to image points.

    kind is a provenance tag ("arbitrary", "box-product", "explicit-1d");
    components carries the fractional maps for constructed kinds.
    """

    domain: PointSet
    images: tuple[Vec2, ...]
    kind: str = "arbitrary"
    components: tuple[Interleaving1D, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != len(self.domain):
            raise StepIsoError(
                f"{len(self.images)} images for {len(self.domain)} domain points"
            )
        seen = set()
        for w in self.images:
            if not isinstance(w, Vec2):
                raise StepIsoError("images must be Vec2")
            key = (w.x, w.y)
            if key in seen:
                raise StepIsoError(f"map is not injective: image {w} repeats")
            seen.add(key)

    def __len__(self):
        return len(self.images)

    @classmethod
    def from_function(
        cls, domain: PointSet, fn: Callable[[Vec2], Vec2], kind: str = "arbitrary",
        components: tuple = (),
    ) -> "PointMap":
        return cls(domain, tuple(fn(p) for p in domain.points), kind, components)


def explicit_1d_point_map(domain: PointSet) -> PointMap:
    """The canonical 1D counterexample applied to x, leaving y alone.

    Meant for sets on a horizontal line, where the metric restricts to |dx|.
    """
    g = canonical_interleaving()
    return PointMap.from_function(
        domain,
        lambda p: Vec2(explicit_step_isometry_1d(p.x), p.y),
        "explicit-1d",
        (g,),
    )


def box_product_point_map(
    domain: PointSet, shape: NormShape, g1: Interleaving1D, g2: Interleaving1D
) -> PointMap:
    return PointMap.from_function(
        domain, lambda p: box_product_map(shape, g1, g2, p), "box-product", (g1, g2)
    )


def pointmap_to_json(pmap: PointMap) -> str:
    obj = {
        "kind": pmap.kind,
        "domain": json.loads(pointset_to_json(pmap.domain)),
        "images": [[format_scalar(w.x), format_scalar(w.y)] for w in pmap.images],
    }
    return json.dumps(obj)


def pointmap_from_json(text: str) -> PointMap:
    """Reload a stored map; fractional-map components are not persisted."""
    obj = json.loads(text)
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
    a map that passes.
    """

    ok: bool
    witness: tuple[int, int] | None = None
    left: object = None
    right: object = None
    checked: int = 0


# is_isometry confirms the pairs whose float |d - e| exceeds tol less this
# much times 1 plus the coordinate scale: float distances are off by ~1e-15
# times that, and the default float tol, FLOAT_INTEGER_GUARD, is far above it
_ISO_GUARD = 1e-12


def _pair_scan(pmap: PointMap, shape: NormShape, marks, scalar, fails) -> Verdict:
    """The first pair i < j, in lexicographic order, that fails a check.

    The float filter takes both sides' distances over row blocks of pairs;
    marks(dd, di, scale) flags the pairs that may fail, scale being 1 plus
    the coordinate scale.  Each flagged pair is then decided in order by
    fails(left, right) on the scalar values scalar(shape, x, y) of both
    sides, exact for exact data.
    """
    pts, ims = pmap.domain.points, pmap.images
    n = len(pts)
    if n < 2:
        return Verdict(True, checked=0)
    dom = pmap.domain.as_array()
    img = np.array([w.to_floats() for w in ims], dtype=float)
    dom_cols, reach, q = _columns(dom, shape)
    img_cols = _columns(img, shape)[0]
    scale = 1.0 + reach * max(np.abs(dom).max(), np.abs(img).max())
    for i0, i1, j1, upper in _row_blocks(np.full(n, n)):
        dd = _block_gaps(dom_cols, q, i0, i1, j1)
        di = _block_gaps(img_cols, q, i0, i1, j1)
        if q is not None:
            dd **= 1.0 / q
            di **= 1.0 / q
        rows, cols = np.nonzero(marks(dd, di, scale) & upper)
        for i, j in zip((rows + i0).tolist(), (cols + i0).tolist()):
            try:
                left = scalar(shape, pts[i], pts[j])
                right = scalar(shape, ims[i], ims[j])
            except BoundaryAmbiguityError as err:
                raise BoundaryAmbiguityError(f"pair ({i}, {j}): {err}") from None
            if fails(left, right):
                return Verdict(False, (i, j), left, right, i * n - i * (i + 1) // 2 + j - i)
    return Verdict(True, checked=n * (n - 1) // 2)


def is_step_isometry(pmap: PointMap, shape: NormShape) -> Verdict:
    """Do all pairs keep their truncated distance under the map?

    Exact data is decided exactly; float data raises BoundaryAmbiguityError
    (naming the pair) when a distance is too close to an integer to truncate
    safely and no earlier pair fails.  The witness carries both floors.
    """

    def marks(dd, di, scale):
        # floors that differ, or a distance near an integer on either side
        guard = FLOAT_INTEGER_GUARD * scale
        near = (np.abs(dd - np.rint(dd)) < guard) | (np.abs(di - np.rint(di)) < guard)
        return near | (np.floor(dd) != np.floor(di))

    return _pair_scan(pmap, shape, marks, truncated_distance, lambda td, ti: td != ti)


def is_isometry(pmap: PointMap, shape: NormShape, tol=None) -> Verdict:
    """Do all pairs keep their exact distance (within tol for floats)?

    Exact data on a polygon defaults to tol 0, other data to
    FLOAT_INTEGER_GUARD.  The witness carries both distances.
    """
    if tol is None:
        exact = all(v.is_exact() for v in pmap.domain.points + pmap.images)
        tol = 0 if exact and isinstance(shape, PolygonShape) else FLOAT_INTEGER_GUARD

    def marks(dd, di, scale):
        return np.abs(dd - di) > float(tol) - _ISO_GUARD * scale

    return _pair_scan(pmap, shape, marks, distance, lambda d, e: abs(d - e) > tol)


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

