"""Finite windowed stand-ins for countable dense sets.

Infinite models (Poisson processes) are approximated by their restriction to
an axis-aligned window.  A PointSet remembers how it was produced (seed,
scaling alpha, numeric mode) and the field tag of its coordinates
(`exact.field_of`); it holds no idf claim, as `is_idf` tests the points.

This module owns the point format.  A PointSet stores its coordinates once,
as columns: a float set a read-only n x 2 float64 array (`as_array`), an
exact set integer numerators (A + B*sqrt(d))/D over one denominator (the
format of `exact.surd_ints`), which the idf tests, `rescale_to_idf` and the
integer lanes of stepiso, anchoring and experiments read; a stepiso map's
images are a PointSet in the same format.  Rational mode
draws dyadic rationals x0 + (x1 - x0)*k/2^40 so every downstream floor/idf
question has an exact answer; float mode is for Monte Carlo throughput.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq
from typing import Iterable, Sequence

import numpy as np

from .exact import (
    FLOAT,
    FLOAT_INTEGER_GUARD,
    _malformed_json,
    _require_int,
    field_of,
    format_scalar,
    is_exact,
    join_fields,
    parse_scalar,
    surd_float,
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

# alpha candidates rescale_to_idf tries after alpha = 1
_IDF_TRIALS = 64


class PointSetError(ValueError):
    pass


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [x0, x1] x [y0, y1] with finite bounds."""

    x0: object
    y0: object
    x1: object
    y1: object

    def __post_init__(self):
        for c in (self.x0, self.y0, self.x1, self.y1):
            if isinstance(c, float) and not math.isfinite(c):
                raise PointSetError(f"window bound {c!r} is not finite")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise PointSetError("window must have positive extent")

    def area(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def scaled(self, alpha) -> "Window":
        c = sorted([self.x0 * alpha, self.x1 * alpha])
        d = sorted([self.y0 * alpha, self.y1 * alpha])
        return Window(c[0], d[0], c[1], d[1])


@dataclass(init=False, eq=False)
class PointSet:
    """Distinct plane points plus sampling provenance; treat as immutable.

    The constructor takes Vec2s, keeps their tuple as `points`, encodes the
    columns and checks from them that the points have a common field
    (`field`), are distinct and hold no float in rational mode;
    `dataclasses.replace` goes through it too.  The samplers and
    `rescale_to_idf` build a set from columns of distinct points, unchecked
    (`_from_columns`); `points` is built on first read.
    """

    points: tuple[Vec2, ...]
    window: Window
    seed: int
    mode: str
    alpha: object

    def __init__(self, points, window: Window, seed: int, mode: str = "float", alpha=1):
        if mode not in ("float", "rational"):
            raise PointSetError(f"unknown mode {mode!r}")
        self.points = pts = tuple(points)
        field = field_of((c for v in pts for c in (v.x, v.y)), PointSetError)
        if field == FLOAT:
            cols = np.array([v.to_floats() for v in pts], dtype=float).reshape(len(pts), 2)
        else:
            D, ints = surd_ints(c for v in pts for c in (v.x, v.y))
            cols = (D, ints[::2], ints[1::2])
        self._store(cols, field, window, seed, mode, alpha)
        dup = _first_repeat(cols, field, pts)
        if mode == "rational" and field == FLOAT:
            # the first bad point is reported, a repeat before a float
            bad = next(j for j, v in enumerate(pts) if not v.is_exact())
            if bad < dup:
                raise PointSetError(f"float coordinate {pts[bad]} in rational mode")
        if dup < len(pts):
            raise PointSetError(f"duplicate point {pts[dup]}")

    @classmethod
    def _from_columns(cls, cols, field: int, window: Window, seed: int, mode: str, alpha=1):
        ps = cls.__new__(cls)
        ps._store(cols, field, window, seed, mode, alpha)
        return ps

    def _store(self, cols, field, window, seed, mode, alpha):
        self.window = window
        self.seed = seed
        self.mode = mode
        self.alpha = alpha
        self.field = field
        self._ints = None if field == FLOAT else cols
        if field == FLOAT:
            cols.flags.writeable = False
            self._xy = cols

    @cached_property
    def points(self) -> tuple[Vec2, ...]:
        """The points as Vec2s, built from the columns on first read."""
        return tuple(Vec2(x, y) for x, y in self._coords())

    def _coords(self):
        """The (x, y) scalars: from the tuple if built, else the columns."""
        if "points" in self.__dict__:
            for v in self.points:
                yield v.x, v.y
        elif self._ints is None:
            for i in range(0, len(self), 1 << 16):  # a chunk of rows at a time
                yield from zip(*self._xy[i : i + (1 << 16)].T.tolist())
        else:
            D, xs, ys = self._ints
            for x, y in zip(xs, ys):
                yield surd_value(*x, D, self.field), surd_value(*y, D, self.field)

    def _exact_part(self):
        """The indices of the points with two exact coordinates (all of an exact
        set, none of a sampled float set) and those points as a PointSet."""
        if self._ints is not None:
            return range(len(self)), self
        pts = self.__dict__.get("points", ())
        rows = [j for j, v in enumerate(pts) if v.is_exact()]
        D, ints = surd_ints(c for j in rows for c in (pts[j].x, pts[j].y))
        return rows, PointSet._from_columns((D, ints[::2], ints[1::2]), 0, self.window, self.seed, self.mode)

    def __len__(self):
        return len(self._xy) if self._ints is None else len(self._ints[1])

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        if "points" in self.__dict__ or isinstance(i, slice):
            return self.points[i]
        if self._ints is None:
            return Vec2(*self._xy[i].tolist())
        D, xs, ys = self._ints
        return Vec2(*(surd_value(*c[i], D, self.field) for c in (xs, ys)))

    def __eq__(self, other):
        meta = lambda ps: (len(ps), ps.window, ps.seed, ps.mode, ps.alpha)
        same = isinstance(other, PointSet) and meta(self) == meta(other)
        return same and all(map(eq, self._coords(), other._coords()))

    def as_array(self) -> np.ndarray:
        """The read-only n x 2 float array (an exact set's is built once)."""
        return self._xy

    @cached_property
    def _xy(self) -> np.ndarray:
        # exact sets only; a float set stores its array when it is made
        D, xs, ys = self._ints
        cols = []
        for col in (xs, ys):
            # over Q each value is A / D, surd_float's own B == 0 branch
            vals = (A / D for A, _ in col) if self.field == 0 else (surd_float(*c, D, self.field) for c in col)
            cols.append(np.fromiter(vals, float, len(col)))
        xy = np.column_stack(cols)
        xy.flags.writeable = False
        return xy

    def fingerprint(self) -> str:
        """Content hash used as the point_set_ref of graphs sampled over this set.

        A JSON round trip keeps it: int coordinates hash as the equal Fraction.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # each point as repr((x, y)), an int as the equal Fraction (as JSON reads it)
        frac = lambda c: Fraction(c) if isinstance(c, int) else c
        h = hashlib.sha256(self.mode.encode())
        for x, y in self._coords():
            h.update(("(%r, %r)" % (frac(x), frac(y))).encode())
        return h.hexdigest()[:16]


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of an n x 2 array equal to an earlier
    row (0.0 equals -0.0).  The stable sort puts a row's first occurrence
    first among its equals."""
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    s = rows[order]
    return np.sort(order[1:][(s[1:] == s[:-1]).all(axis=1)])


def _first_repeat(cols, field: int, pts=()) -> int:
    """The index of the first point equal to an earlier one, else the count.

    Float rows are compared by `_repeats`; a row of pts, when given, counts
    only if its Vec2 repeats too, as a float row may round distinct exact
    values (1/3 and its float).  Exact rows are keyed by their numerators.
    """
    if field == FLOAT:
        return next((j for j in _repeats(cols).tolist() if not pts or pts[j] in pts[:j]), len(cols))
    keys = list(zip(*cols[1:]))
    if len(set(keys)) == len(keys):
        return len(keys)
    seen = set()
    return next(j for j, key in enumerate(keys) if key in seen or seen.add(key))


# ---------------------------------------------------------------------------
# samplers


def _distinct_draws(draw, n: int) -> np.ndarray:
    """n distinct rows from draw(m), which gives m more; repeats are dropped."""
    rows = draw(n)
    while len(rep := _repeats(rows)):
        rows = np.delete(rows, rep, axis=0)
        rows = np.concatenate((rows, draw(n - len(rows))))
    return rows


def sample_poisson_window(
    window: Window, intensity: float, seed: int, mode: str = "float"
) -> PointSet:
    """Homogeneous Poisson process restricted to the window.

    Point count ~ Poisson(intensity * area), positions iid uniform.  The same
    (window, intensity, seed, mode) always reproduces the same PointSet.  An
    intensity that is not positive and finite, or a mean count that is no
    finite float or too large for numpy's sampler, raises PointSetError.
    """
    if not (math.isfinite(intensity) and intensity > 0):
        raise PointSetError(f"intensity must be positive and finite, got {intensity!r}")
    rng = np.random.default_rng(seed)
    mean = math.inf  # an exact area past the float range
    try:
        mean = intensity * float(window.area())
        n = int(rng.poisson(mean))
    except (OverflowError, ValueError):
        raise PointSetError(f"mean point count {mean!r} (intensity times window area) is too large to sample") from None
    if mode == "float":
        w, h = float(window.x1 - window.x0), float(window.y1 - window.y0)
        x0, y0 = float(window.x0), float(window.y0)
        # x0 + w*u, as float arithmetic does it point by point
        xy = _distinct_draws(lambda m: rng.random((m, 2)) * (w, h) + (x0, y0), n)
        # no point has no float: the empty set's field is Q, as field_of says
        return PointSet._from_columns(xy, FLOAT, window, seed, mode) if n else PointSet((), window, seed, mode)
    if mode != "rational":
        raise PointSetError(f"unknown mode {mode!r}")
    # k -> lo + (hi - lo)*k/2^40 is injective, so duplicates are found on the
    # integer draws k; with lo, hi = (A0 + B0*sqrt(d))/D, (A1 + B1*sqrt(d))/D
    # the value is ((A0*2^40 + (A1 - A0)*k) + (B0*2^40 + (B1 - B0)*k)*sqrt(d)) / (D*2^40)
    axes = (window.x0, window.x1), (window.y0, window.y1)
    if not all(is_exact(c) for axis in axes for c in axis):
        raise PointSetError("rational mode needs exact window bounds")
    for axis in axes:
        field_of(axis, PointSetError)  # an axis over two radicands has no field
    D, ints = surd_ints(c for axis in axes for c in axis)
    ks = _distinct_draws(lambda m: rng.integers(0, _RATIONAL_DEN, size=(m, 2)), n).T.tolist()
    cols = [
        [(A0 * _RATIONAL_DEN + (A1 - A0) * k, B0 * _RATIONAL_DEN + (B1 - B0) * k) for k in col]
        for ((A0, B0), (A1, B1)), col in zip((ints[:2], ints[2:]), ks)
    ]
    # the points' field: that of the bounds of each axis with an irrational point
    field = field_of((c for axis, col in zip(axes, cols) if any(B for _, B in col) for c in axis), PointSetError)
    return PointSet._from_columns((D * _RATIONAL_DEN, *cols), field, window, seed, mode)


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


def _golden_candidates(seed: int):
    """Rational alpha candidates m + k*phi, phi via Fibonacci convergents.

    Exactly verifiable (they are rationals) yet non-resonant like the golden
    ratio, which is what makes a single candidate almost surely idf-clearing.
    Candidate 0 is alpha = 1 so already-idf inputs keep their scale.
    """
    yield Fraction(1)
    fib = [1, 1]
    while len(fib) < 39:
        fib.append(fib[-1] + fib[-2])
    rng = np.random.default_rng(seed)
    for t in range(_IDF_TRIALS):
        j = 30 + t % 8
        k = int(rng.integers(1, 8))
        m = int(rng.integers(0, 3))
        yield m + k * Fraction(fib[j + 1], fib[j])


def _projection_ints(points: PointSet, generators: Sequence[Vec2]) -> list:
    """Per generator a, the projections a.v of the points as (D, [(A, B)], d)
    with a.v = (A + B*sqrt(d))/D, or None when a or the points are float.

    The projections are taken from the stored numerators, all over one D; a
    generator with no common field with the points raises PointSetError.
    """
    fields = [join_fields(field_of((a.x, a.y), PointSetError), points.field, PointSetError) for a in generators]
    if points.field == FLOAT:
        return [None] * len(fields)
    D, xs, ys = points._ints
    G, gens = surd_ints(c for a, d in zip(generators, fields) if d != FLOAT for c in (a.x, a.y))
    out = []
    for d in fields:
        if d == FLOAT:
            out.append(None)
            continue
        # (g + h*sqrt(d))(x + y*sqrt(d)) = (g*x + h*y*d) + (g*y + h*x)*sqrt(d)
        (gx, hx), (gy, hy), *gens = gens
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


def rescale_to_idf(points: PointSet, generators: Sequence[Vec2], seed: int = 0) -> tuple[object, PointSet]:
    """Scale the whole set by one alpha so every generator projection is idf.

    Returns (alpha, new PointSet) with alpha multiplied into the set's
    alpha; raises after 1 + _IDF_TRIALS failed candidates, naming an
    obstruction.  The set records no idf claim: a later rescale for other
    generators may break this one's, so callers test the projections.
    Coordinates come back as alpha times the old ones, so ints become
    Fractions even when alpha is 1; an exact set is scaled on its numerators.
    """
    if not generators:
        raise PointSetError("need at least one generator")
    tests = _idf_tests(points, generators)
    obstruction = None
    for alpha in _golden_candidates(seed):
        failed = next((a for a, test in zip(generators, tests) if not test(alpha)), None)
        if failed is not None:
            obstruction = (alpha, failed)
            continue
        meta = (points.window.scaled(alpha), points.seed, points.mode, points.alpha * alpha)
        if points.field == FLOAT:
            return alpha, PointSet(tuple(Vec2(x * alpha, y * alpha) for x, y in points._coords()), *meta)
        # alpha = r/s scales (A + B*sqrt(d))/D to (A*r + B*r*sqrt(d))/(D*s)
        D, xs, ys = points._ints
        cols = [[(A * alpha.numerator, B * alpha.numerator) for A, B in col] for col in (xs, ys)]
        return alpha, PointSet._from_columns((D * alpha.denominator, *cols), points.field, *meta)
    raise PointSetError(
        f"no idf rescaling found in {_IDF_TRIALS} candidates; "
        f"last obstruction: alpha={obstruction[0]} generator={obstruction[1]}"
    )


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
        "points": [[format_scalar(x), format_scalar(y)] for x, y in ps._coords()],
    }
    return json.dumps(obj)


def pointset_from_json(text: str) -> PointSet:
    obj = json.loads(text)
    with _malformed_json("point-set", PointSetError):
        window = Window(*(parse_scalar(c) for c in obj["window"]))
        pts = tuple(Vec2(parse_scalar(x), parse_scalar(y)) for x, y in obj["points"])
        # files from older versions carry "flags", which nothing reads
        alpha = parse_scalar(obj.get("alpha", 1.0))
        seed = _require_int(obj["seed"], "seed", PointSetError)
        return PointSet(pts, window, seed, mode=obj["mode"], alpha=alpha)
