"""Plane geometry over norm-derived metrics.

A metric here always comes from a unit shape: a convex, point-symmetric body
P with the origin in its interior, and d(x, y) = ||x - y||_P.  Two shape kinds
are supported: polygons given by generator normals (the norm is a max of
absolute dot products) and smooth L^p curves for finite p > 1 (closed-form
norm).

Scalars are exact (int, Fraction, SqrtExt) or floats; every operation here
is generic over that choice except where noted (L^p norms evaluate in
float).  Each shape carries the field tag of `exact.field_of`: a polygon
takes it from its generators, and L^p shapes are tagged Q because their
norm reads any scalar as a float.  Generators, or a polygon and the points
it measures, with no common field raise GeometryError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable

from .exact import (
    BoundaryAmbiguityError,
    _malformed_json,
    close,
    exact_div,
    field_of,
    format_scalar,
    guarded_floor,
    is_exact,
    join_fields,
    parse_scalar,
)

__all__ = [
    "Vec2",
    "Line",
    "PolygonShape",
    "LpShape",
    "BoundaryAmbiguityError",
    "distance",
    "truncated_distance",
    "is_triangular_set",
    "shape_to_json",
    "shape_from_json",
    "square_linf",
    "diamond_l1",
    "rational_hexagon",
    "regular_hexagon",
    "box_shape",
]


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Vec2:
    """Immutable plane vector; coordinates exact scalars or floats."""

    x: object
    y: object

    def __post_init__(self):
        for c in (self.x, self.y):
            if isinstance(c, float) and not math.isfinite(c):
                raise GeometryError(f"non-finite coordinate {c!r}")
            if isinstance(c, bool) or not (isinstance(c, float) or is_exact(c)):
                raise GeometryError(f"unsupported coordinate type {type(c).__name__}")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2"):
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2"):
        return self.x * other.y - self.y * other.x

    def is_exact(self) -> bool:
        return is_exact(self.x) and is_exact(self.y)

    def to_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))


def _is_zero(v: Vec2) -> bool:
    return v.x == 0 and v.y == 0


def _meet(a: Vec2, r, b: Vec2, s) -> tuple:
    """The (x, y) with a.(x, y) = r and b.(x, y) = s, by Cramer's rule; a and
    b must not be parallel."""
    den = a.cross(b)
    return exact_div(r * b.y - s * a.y, den), exact_div(a.x * s - b.x * r, den)


@dataclass(frozen=True)
class Line:
    """Oriented line a.x = r given by normal a and offset r."""

    normal: Vec2
    offset: object

    def __post_init__(self):
        if _is_zero(self.normal):
            raise GeometryError("line normal must be nonzero")

    def side_of(self, v: Vec2) -> int:
        """-1 / 0 / +1 for a.v < r / = r / > r."""
        s = self.normal.dot(v) - self.offset
        return (s > 0) - (s < 0)


# ---------------------------------------------------------------------------
# shapes


def _angle_cmp(u: Vec2, v: Vec2) -> int:
    """Counterclockwise order from angle 0, exact (no trig)."""

    def half(w: Vec2) -> int:
        # 0 for the upper half-plane including +x axis, 1 for the rest
        if w.y > 0 or (w.y == 0 and w.x > 0):
            return 0
        return 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u.cross(v)
    return 0 if c == 0 else (-1 if c > 0 else 1)


class PolygonShape:
    """Unit shape cut out by |a.x| <= 1 over a finite generator set.

    Generators are stored one per direction class; both signs are applied at
    evaluation time through the absolute value.  Each generator is scaled so
    its face line a.x = 1 supports the shape, hence the norm is
    ||x|| = max_a |a.x|.
    """

    kind = "polygonal"

    def __init__(self, generators: Iterable[Vec2]):
        gens = tuple(generators)
        if len(gens) < 2:
            raise GeometryError("need at least 2 generators to bound the plane")
        for g in gens:
            if not isinstance(g, Vec2):
                raise GeometryError("generators must be Vec2")
            if _is_zero(g):
                raise GeometryError("zero generator")
        self.field = field_of((c for g in gens for c in (g.x, g.y)), GeometryError)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if gens[i].cross(gens[j]) == 0:  # exact zero cross product
                    raise GeometryError(
                        f"generators {i} and {j} are parallel; store one per direction"
                    )
        self.generators = gens

    def __repr__(self):
        return f"PolygonShape({list(self.generators)!r})"

    def is_box(self) -> bool:
        """Exactly two direction classes: the shape is a parallelogram."""
        return len(self.generators) == 2

    def norm(self, v: Vec2):
        best = None
        for a in self.generators:
            val = abs(a.dot(v))
            if best is None or val > best:
                best = val
        return best

    def signed_generators(self) -> tuple[Vec2, ...]:
        out = []
        for g in self.generators:
            out.append(g)
            out.append(-g)
        return tuple(sorted(out, key=cmp_to_key(_angle_cmp)))

    def vertices(self) -> tuple[Vec2, ...]:
        """Polygon vertices in counterclockwise order, computed on each call.

        Valid only for properly scaled generator sets (every face line
        a.x = 1 touches the shape); redundant constraints are rejected: a
        face line that misses the shape leaves a vertex outside it, and one
        that only touches a corner makes two consecutive vertices coincide
        (``exact.close`` in both coordinates).
        """
        signed = self.signed_generators()
        k = len(signed)
        # adjacent constraint lines a.x = 1, b.x = 1
        verts = [Vec2(*_meet(signed[i], 1, signed[(i + 1) % k], 1)) for i in range(k)]
        for i, v in enumerate(verts):
            u = verts[i - 1]
            if close(v.x, u.x) and close(v.y, u.y):
                raise GeometryError(
                    f"redundant generator: the faces of {signed[i - 1]}, {signed[i]} "
                    f"and {signed[(i + 1) % k]} meet at the vertex {v}"
                )
        for v in verts:
            for a in signed:
                if a.dot(v) > 1 and not close(a.dot(v), 1):
                    raise GeometryError(
                        "generator set is not scaled to the shape: vertex "
                        f"{v} violates |{a}.x| <= 1"
                    )
        return tuple(verts)


class LpShape:
    """Smooth L^p unit circle, finite p > 1.  Norms evaluate in float."""

    kind = "lp"
    # the norm reads any scalar as a float, SqrtExt included
    field = 0

    def __init__(self, p: float):
        p = float(p)
        if not (p > 1) or math.isinf(p):
            raise GeometryError(f"p must be finite and > 1, got {p}")
        self.p = p

    def __repr__(self):
        return f"LpShape(p={self.p})"

    def is_box(self) -> bool:
        return False

    def norm(self, v: Vec2) -> float:
        x, y = abs(float(v.x)), abs(float(v.y))
        if x == 0.0 and y == 0.0:
            return 0.0
        # factor out the max to keep powers in range
        m = x if x >= y else y
        return m * ((x / m) ** self.p + (y / m) ** self.p) ** (1.0 / self.p)


NormShape = PolygonShape | LpShape


# ---------------------------------------------------------------------------
# metric operations


def distance(shape: NormShape, x: Vec2, y: Vec2):
    if shape.field:
        # a rational shape meets any scalar; other shapes refuse what has no
        # common field with them before any arithmetic
        join_fields(shape.field, field_of((x.x, x.y, y.x, y.y), GeometryError), GeometryError)
    return shape.norm(x - y)


def truncated_distance(shape: NormShape, x: Vec2, y: Vec2) -> int:
    """floor of d(x, y); refuses floats near an integer (exact.guarded_floor)."""
    d = distance(shape, x, y)
    return guarded_floor(d, what=f"distance of {x} and {y}")


def is_triangular_set(shape: NormShape, x: Vec2, y: Vec2, z: Vec2) -> bool:
    """True iff the three sorted pairwise distances satisfy a strict triangle
    inequality: d_small + d_mid > d_large.  Points must be distinct."""
    if x == y or y == z or x == z:
        raise GeometryError("triangular set needs three distinct points")
    d = sorted([distance(shape, x, y), distance(shape, y, z), distance(shape, x, z)])
    return d[0] + d[1] > d[2]


# ---------------------------------------------------------------------------
# named shapes


def square_linf() -> PolygonShape:
    """Unit square of the sup metric."""
    return PolygonShape([Vec2(1, 0), Vec2(0, 1)])


def diamond_l1() -> PolygonShape:
    """Unit diamond of the taxicab metric."""
    return PolygonShape([Vec2(1, 1), Vec2(1, -1)])


def box_shape(a1: Vec2, a2: Vec2) -> PolygonShape:
    """Parallelogram shape from two non-parallel generators."""
    return PolygonShape([a1, a2])


def rational_hexagon() -> PolygonShape:
    """Point-symmetric hexagon with rational generators (exact-mode friendly)."""
    return PolygonShape([Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)])


def regular_hexagon() -> PolygonShape:
    """Regular hexagon with unit-distance faces (float coordinates)."""
    gens = []
    for k in range(3):
        th = k * math.pi / 3.0
        gens.append(Vec2(math.cos(th), math.sin(th)))
    return PolygonShape(gens)


# ---------------------------------------------------------------------------
# serialization


def shape_to_json(shape: NormShape) -> str:
    if isinstance(shape, PolygonShape):
        gens = [[format_scalar(g.x), format_scalar(g.y)] for g in shape.generators]
        return json.dumps({"kind": "polygonal", "generators": gens})
    if isinstance(shape, LpShape):
        return json.dumps({"kind": "lp", "p": shape.p})
    raise GeometryError(f"cannot serialize {shape!r}")


def shape_from_json(text: str) -> NormShape:
    obj = json.loads(text)
    with _malformed_json("shape", GeometryError):
        kind = obj.get("kind")
        if kind == "polygonal":
            gens = [Vec2(parse_scalar(gx), parse_scalar(gy)) for gx, gy in obj["generators"]]
            return PolygonShape(gens)
        if kind == "lp":
            return LpShape(obj["p"])  # files from older versions also carry "generator_budget"
    raise GeometryError(f"unknown shape kind {kind!r}")
