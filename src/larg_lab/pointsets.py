"""Finite windowed stand-ins for countable dense sets.

Infinite models (Poisson processes) are approximated by their restriction to
an axis-aligned window.  A PointSet remembers how it was produced (seed,
scaling alpha, numeric mode) plus structural flags: integer-distance-freeness
of generator projections, verified by `rescale_to_idf`, and a pairwise
non-integer distance flag carried through JSON.  It also carries the field
tag of its coordinates (`exact.field_of`), which the kernels join with the
shape's tag; a set whose points have no common field (a float beside a
SqrtExt, or two radicands) is refused when it is made.

Rational mode draws dyadic rationals x0 + (x1 - x0)*k/2^40 so every
downstream floor/idf question has an exact answer; float mode is for Monte
Carlo throughput.  Exact work runs on integer numerators over one
denominator, the (A + B*sqrt(d))/D format of `exact.surd_ints`: the sampler
builds each coordinate once from the window's numerators and the integer
draw k, a set of rationals checks duplicates on (numerator, denominator)
keys, and the idf tests, the rescaling search and the projection floors of
`experiments` read the projections a.v as such integers
(`_projection_ints`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .exact import (
    FLOAT,
    FLOAT_INTEGER_GUARD,
    field_of,
    format_scalar,
    is_exact,
    join_fields,
    parse_scalar,
    surd_ints,
    surd_value,
)
from .geometry import Vec2

__all__ = [
    "Window",
    "PointSet",
    "PointSetError",
    "sample_poisson_window",
    "is_idf",
    "projections",
    "rescale_to_idf",
    "pointset_to_json",
    "pointset_from_json",
]

# denominator for rational-mode draws; dyadic so exactness survives scaling
_RATIONAL_DEN = 1 << 40


class PointSetError(ValueError):
    pass


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [x0, x1] x [y0, y1]."""

    x0: object
    y0: object
    x1: object
    y1: object

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise PointSetError("window must have positive extent")

    def area(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, v: Vec2) -> bool:
        return self.x0 <= v.x <= self.x1 and self.y0 <= v.y <= self.y1

    def scaled(self, alpha) -> "Window":
        c = sorted([self.x0 * alpha, self.x1 * alpha])
        d = sorted([self.y0 * alpha, self.y1 * alpha])
        return Window(c[0], d[0], c[1], d[1])


@dataclass
class PointSet:
    """Distinct plane points plus sampling provenance; treat as immutable.

    `field` is the field tag of the coordinates; points with no common
    field raise PointSetError.
    """

    points: tuple[Vec2, ...]
    window: Window
    seed: int
    mode: str = "float"
    alpha: object = 1
    idf_per_generator: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("float", "rational"):
            raise PointSetError(f"unknown mode {self.mode!r}")
        self.points = tuple(self.points)
        self.field = field_of((c for v in self.points for c in (v.x, v.y)), PointSetError)
        refuse_floats = self.mode == "rational" and self.field == FLOAT
        if self.field == 0:
            # ints and Fractions both carry a normalised numerator/denominator
            keys = [(v.x.numerator, v.x.denominator, v.y.numerator, v.y.denominator) for v in self.points]
        else:
            keys = [(v.x, v.y) for v in self.points]
        seen = set()
        for v, key in zip(self.points, keys):
            if key in seen:
                raise PointSetError(f"duplicate point {v}")
            seen.add(key)
            if refuse_floats and not v.is_exact():
                raise PointSetError(f"float coordinate {v} in rational mode")

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i) -> Vec2:
        return self.points[i]

    def as_array(self) -> np.ndarray:
        """n x 2 float array (cached)."""
        return self._array

    def fingerprint(self) -> str:
        """Content hash used as the point_set_ref of graphs sampled over this set.

        A JSON round trip keeps it: int coordinates hash as the equal Fraction.
        """
        return self._fingerprint

    @cached_property
    def _array(self) -> np.ndarray:
        if self.field == 0:
            # int / int is correctly rounded, as float(Fraction) is
            rows = [(v.x.numerator / v.x.denominator, v.y.numerator / v.y.denominator) for v in self.points]
        else:
            rows = [p.to_floats() for p in self.points]
        return np.array(rows, dtype=float).reshape(len(rows), 2)

    @cached_property
    def _fingerprint(self) -> str:
        # an int is hashed as the equal Fraction, which JSON reads it back as
        h = hashlib.sha256()
        h.update(self.mode.encode())
        for v in self.points:
            h.update(repr((_int_as_fraction(v.x), _int_as_fraction(v.y))).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# samplers


def _window_exact(window: Window) -> Window:
    for c in (window.x0, window.y0, window.x1, window.y1):
        if not is_exact(c):
            raise PointSetError("rational mode needs exact window bounds")
    return window


def _dyadic_axis(lo, hi):
    """k -> lo + (hi - lo)*k/2^40, built from integer numerators: with
    lo, hi = (A0 + B0*sqrt(d))/D, (A1 + B1*sqrt(d))/D the value is
    ((A0*2^40 + (A1 - A0)*k) + (B0*2^40 + (B1 - B0)*k)*sqrt(d)) / (D*2^40)."""
    D, ((A0, B0), (A1, B1)) = surd_ints((lo, hi))
    d = field_of((lo, hi), PointSetError)
    a, da, b, db, den = A0 * _RATIONAL_DEN, A1 - A0, B0 * _RATIONAL_DEN, B1 - B0, D * _RATIONAL_DEN
    return lambda k: surd_value(a + da * k, b + db * k, den, d)


def sample_poisson_window(
    window: Window, intensity: float, seed: int, mode: str = "float"
) -> PointSet:
    """Homogeneous Poisson process restricted to the window.

    Point count ~ Poisson(intensity * area), positions iid uniform.  The same
    (window, intensity, seed, mode) always reproduces the same PointSet.
    """
    if intensity <= 0:
        raise PointSetError("intensity must be positive")
    area = float(window.area())
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(intensity * area))
    pts: list[Vec2] = []
    seen = set()
    if mode == "float":
        w, h = float(window.x1 - window.x0), float(window.y1 - window.y0)
        x0, y0 = float(window.x0), float(window.y0)
        while len(pts) < n:
            block = rng.random((n - len(pts), 2))
            for u, v in block:
                p = Vec2(x0 + w * float(u), y0 + h * float(v))
                if (p.x, p.y) not in seen:
                    seen.add((p.x, p.y))
                    pts.append(p)
    elif mode == "rational":
        _window_exact(window)
        # k -> lo + (hi - lo)*k/2^40 is injective, so duplicates are found on
        # the integer draws
        fx, fy = _dyadic_axis(window.x0, window.x1), _dyadic_axis(window.y0, window.y1)
        draws: list[tuple[int, int]] = []
        while len(draws) < n:
            for ku, kv in rng.integers(0, _RATIONAL_DEN, size=(n - len(draws), 2)).tolist():
                if (ku, kv) not in seen:
                    seen.add((ku, kv))
                    draws.append((ku, kv))
        pts = [Vec2(fx(ku), fy(kv)) for ku, kv in draws]
    else:
        raise PointSetError(f"unknown mode {mode!r}")
    return PointSet(tuple(pts), window, seed, mode=mode)


# ---------------------------------------------------------------------------
# idf structure


def is_idf(values: Iterable) -> bool:
    """True iff no two distinct entries differ by an integer.

    Exact inputs are decided exactly; float inputs treat differences within
    1e-9 of an integer as integer.  Exact values of one field are encoded as
    (A + B*sqrt(d))/D (`exact.surd_ints`) and keyed by (A mod D, B); values
    of different fields never differ by an integer.  Floats reduce to
    fractional parts: x - y is an integer iff frac(x) == frac(y).
    """
    vals = list(values)
    if not vals:
        return True
    if all(is_exact(v) for v in vals):
        fields: dict[int, list] = {}
        for v in vals:
            fields.setdefault(field_of((v,), PointSetError), []).append(v)
        return all(_idf_ints(*surd_ints(group)) for group in fields.values())
    fr = sorted(float(v) % 1.0 for v in vals)
    for a, b in zip(fr, fr[1:]):
        if b - a < FLOAT_INTEGER_GUARD:
            return False
    # wrap-around: 0.0000001 and 0.9999999 differ by ~an integer
    if len(fr) > 1 and (fr[0] + 1.0) - fr[-1] < FLOAT_INTEGER_GUARD:
        return False
    return True


def _idf_ints(D: int, ints: list, r: int = 1, s: int = 1) -> bool:
    """Are the values (A + B*sqrt(d))/D * r/s, (A, B) in ints, idf?

    For r != 0 two of them differ by an integer iff their B agree and their
    A*r agree mod D*s.
    """
    m = D * s
    return len({(A * r % m, B) for A, B in ints}) == len(ints)


def projections(points: Sequence[Vec2], a: Vec2) -> list:
    """Dot products a.v for v in points."""
    return [a.dot(v) for v in points]


def _golden_candidates(trials: int, seed: int):
    """Rational alpha candidates m + k*phi, phi via Fibonacci convergents.

    Exactly verifiable (they are rationals) yet non-resonant like the golden
    ratio, which is what makes a single candidate almost surely idf-clearing.
    Candidate 0 is alpha = 1 so already-idf inputs keep their scale.
    """
    yield Fraction(1)
    fib = [1, 1]
    while len(fib) < 40 + trials:
        fib.append(fib[-1] + fib[-2])
    rng = np.random.default_rng(seed)
    for t in range(trials):
        j = 30 + t % 8
        k = int(rng.integers(1, 8))
        m = int(rng.integers(0, 3))
        yield m + k * Fraction(fib[j + 1], fib[j])


def _projection_ints(points: PointSet, generators: Sequence[Vec2]) -> list:
    """Per generator a, the projections a.v of the points as (D, [(A, B)], d)
    with a.v = (A + B*sqrt(d))/D, or None when a or the points are float.

    The coordinates are encoded once; a generator with no common field with
    the points raises PointSetError.
    """
    fields = [join_fields(field_of((a.x, a.y), PointSetError), points.field, PointSetError) for a in generators]
    if points.field == FLOAT:
        return [None] * len(fields)
    D, ints = surd_ints(c for v in points.points for c in (v.x, v.y))
    xs, ys = ints[::2], ints[1::2]
    out = []
    for a, d in zip(generators, fields):
        if d == FLOAT:
            out.append(None)
            continue
        # (g + h*sqrt(d))(x + y*sqrt(d)) = (g*x + h*y*d) + (g*y + h*x)*sqrt(d)
        G, ((gx, hx), (gy, hy)) = surd_ints((a.x, a.y))
        proj = [
            (gx * xa + gy * ya + (hx * xb + hy * yb) * d, gx * xb + hx * xa + gy * yb + hy * ya)
            for (xa, xb), (ya, yb) in zip(xs, ys)
        ]
        out.append((G * D, proj, d))
    return out


def _idf_tests(points: PointSet, generators: Sequence[Vec2]) -> list:
    """Per generator a, the test alpha -> are the projections a.v * alpha
    idf?  Exact projections are encoded once (`_projection_ints`), so a test
    costs one residue per point; float ones go through `is_idf`."""
    tests = []
    for a, enc in zip(generators, _projection_ints(points, generators)):
        if enc is None:
            proj = projections(points.points, a)
            tests.append(lambda alpha, proj=proj: is_idf([t * alpha for t in proj]))
        else:
            D, ints, _ = enc
            tests.append(lambda alpha, D=D, ints=ints: _idf_ints(D, ints, alpha.numerator, alpha.denominator))
    return tests


def rescale_to_idf(
    points: PointSet,
    generators: Sequence[Vec2],
    trials: int = 64,
    seed: int = 0,
) -> tuple[object, PointSet]:
    """Scale the whole set by one alpha so every generator projection is idf.

    Returns (alpha, new PointSet) with alpha recorded on the set and
    per-generator idf flags set; raises after `trials` failed candidates,
    naming an obstruction.  Coordinates come back as alpha times the old
    ones, so ints become Fractions even when alpha is 1.
    """
    if not generators:
        raise PointSetError("need at least one generator")
    tests = _idf_tests(points, generators)
    obstruction = None
    for alpha in _golden_candidates(trials, seed):
        failed = next((a for a, test in zip(generators, tests) if not test(alpha)), None)
        if failed is not None:
            obstruction = (alpha, failed)
            continue
        if alpha == 1:
            # v * Fraction(1) without the multiplication: only ints change
            scaled = tuple(
                Vec2(_int_as_fraction(v.x), _int_as_fraction(v.y)) if isinstance(v.x, int) or isinstance(v.y, int) else v
                for v in points.points
            )
        else:
            scaled = tuple(Vec2(v.x * alpha, v.y * alpha) for v in points.points)
        flags = {(a.x, a.y): True for a in generators}
        rescaled = replace(
            points,
            points=scaled,
            window=points.window.scaled(alpha),
            alpha=points.alpha * alpha,
            idf_per_generator={**points.idf_per_generator, **flags},
        )
        return alpha, rescaled
    raise PointSetError(
        f"no idf rescaling found in {trials} candidates; "
        f"last obstruction: alpha={obstruction[0]} generator={obstruction[1]}"
    )


def _int_as_fraction(c):
    """c itself, or the equal Fraction when c is an int."""
    return Fraction(c) if isinstance(c, int) else c


# ---------------------------------------------------------------------------
# serialization


def pointset_to_json(ps: PointSet) -> str:
    obj = {
        "seed": ps.seed,
        "alpha": format_scalar(ps.alpha),
        "window": [
            format_scalar(ps.window.x0),
            format_scalar(ps.window.y0),
            format_scalar(ps.window.x1),
            format_scalar(ps.window.y1),
        ],
        "mode": ps.mode,
        "points": [[format_scalar(p.x), format_scalar(p.y)] for p in ps.points],
        "flags": {
            "idf_per_generator": [
                [format_scalar(gx), format_scalar(gy), bool(v)]
                for (gx, gy), v in sorted(
                    ps.idf_per_generator.items(), key=lambda kv: repr(kv[0])
                )
            ],
        },
    }
    return json.dumps(obj)


def pointset_from_json(text: str) -> PointSet:
    obj = json.loads(text)
    window = Window(*(parse_scalar(c) for c in obj["window"]))
    pts = tuple(Vec2(parse_scalar(x), parse_scalar(y)) for x, y in obj["points"])
    # files from older versions also carry flags["pairwise_noninteger"]
    flags = obj.get("flags", {})
    idf_flags = {
        (parse_scalar(gx), parse_scalar(gy)): bool(v)
        for gx, gy, v in flags.get("idf_per_generator", [])
    }
    return PointSet(
        pts,
        window,
        int(obj["seed"]),
        mode=obj["mode"],
        alpha=parse_scalar(obj.get("alpha", 1.0)),
        idf_per_generator=idf_flags,
    )
