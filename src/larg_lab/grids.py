"""Families of lines grown from base points by repeated intersection.

Starting from the lines through a base set with normals drawn from a
generator list (plus their integer parallels), each level adds, for every
intersection point of two existing non-parallel lines, the lines through
that point with the remaining generator normals. With at least three
direction classes the offsets along one normal accumulate values z1*r + z2
and, for irrational r, become dense mod 1. With only two classes nothing
new ever appears.

Input is exact: its field tag (`exact.field_of`) is Q or one Q(sqrt(d));
floats and inputs with no common field are refused. Internally every
offset is a pair of ints (A, B) over one common denominator D, read as
c = (A + B*sqrt(d))/D, so growth is integer arithmetic and deduplication is
on int tuples. floor(c) is computed from the ints alone
(`exact._floor_surd`). Growth runs on translation classes: shifting a
line by L whole units, L the common denominator of the combination
coefficients, shifts every line it makes by whole units, and all in-window
whole-unit shifts are added anyway, so one line per class is intersected.
An irrational coefficient, as for the normals (1, 0), (0, 1), (1, sqrt 2),
makes such shifts irrational; then there is no period and every line is
intersected. Levels store only the lines first seen at that level, decoded
to Fraction or SqrtExt (`exact.surd_value`); `all_lines` flattens.
`grid_offsets` encodes one normal's offsets the same way and reduces them
mod 1 on the numerators.
"""

from dataclasses import dataclass

from .exact import FLOAT, _floor_surd, _require_int, field_of, surd_ints, surd_value
from .geometry import Line, Vec2, _meet

__all__ = [
    "GridError",
    "LineFamily",
    "generate_grid",
    "grid_offsets",
    "offset_gaps",
]


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class LineFamily:
    """Levels of lines; levels[i] holds the lines first appearing at level i.
    generators holds the first input generator of each direction class."""

    generators: tuple[Vec2, ...]
    levels: tuple[tuple[Line, ...], ...]

    def __len__(self):
        return sum(len(lv) for lv in self.levels)

    def all_lines(self) -> tuple[Line, ...]:
        return tuple(ell for lv in self.levels for ell in lv)

    def lines_with_normal(self, a: Vec2) -> tuple[Line, ...]:
        if a not in self.generators:
            raise GridError(f"normal {a} is not one of the family generators")
        return tuple(ell for ell in self.all_lines() if ell.normal == a)


def _dedup_direction_classes(generators) -> tuple[Vec2, ...]:
    reps: list[Vec2] = []
    for g in generators:
        if g.x == 0 and g.y == 0:
            raise GridError("zero vector cannot be a generator")
        if not any(g.cross(r) == 0 for r in reps):
            reps.append(g)
    return tuple(reps)


def generate_grid(base_points, generators, depth: int, window) -> LineFamily:
    """Grow the intersection-closed line family to the given depth.

    Every line is windowed: its offset must lie within `window` of the
    offset of some base point along the same normal. Integer parallels of
    each discovered line are added as far as the window allows, at every
    level. Input must be exact over Q or one Q(sqrt(d)).
    """
    base = tuple(base_points)
    if not base:
        raise GridError("need at least one base point")
    generators = tuple(generators)
    d = field_of([window] + [c for v in base + generators for c in (v.x, v.y)], GridError)
    if d == FLOAT:
        raise GridError("grids need exact input, not floats")
    gens = _dedup_direction_classes(generators)
    if len(gens) < 2:
        raise GridError("generators span fewer than two direction classes")
    if _require_int(depth, "depth", GridError) < 0:
        raise GridError("depth must be nonnegative")
    if not window > 0:
        raise GridError("window must be positive")

    nclasses = len(gens)
    # combination coefficients: gens[k3] = alpha * gens[k1] + beta * gens[k2], in x and in y
    combo = {}
    for k1 in range(nclasses):
        for k2 in range(nclasses):
            den = gens[k1].cross(gens[k2])
            if den == 0:
                continue
            for k3 in range(nclasses):
                if k3 == k1 or k3 == k2:
                    continue
                rx, ry = Vec2(gens[k1].x, gens[k2].x), Vec2(gens[k1].y, gens[k2].y)
                alpha, beta = _meet(rx, gens[k3].x, ry, gens[k3].y)
                combo.setdefault((k1, k2), []).append((k3, alpha, beta))
    # coef: (A, B) of alpha, then of beta, over one denominator L
    L, co = surd_ints([c for cs in combo.values() for _, alpha, beta in cs for c in (alpha, beta)])
    co = iter(co)
    coef = {key: [(k3, next(co) + next(co)) for k3, _, _ in cs] for key, cs in combo.items()}

    # a level-k value has denominator dividing D0 * L^k, so one D serves all
    D0, ints = surd_ints([window] + [g.dot(b) for g in gens for b in base])
    D = D0 * L**depth
    # a shift by L units moves every combination by whole units, and
    # windowed_parallels adds every in-window whole-unit shift: lines equal
    # mod `period` give the same lines, so one of each class intersects. An
    # irrational coefficient makes the moves irrational: no period (0).
    rational = all(q1 == q2 == 0 for cs in coef.values() for _, (_, q1, _, q2) in cs)
    period = L * D if rational else 0
    (Aw, Bw), *proj = [(A * (D // D0), B * (D // D0)) for A, B in ints]
    base_int = [proj[k * len(base) : (k + 1) * len(base)] for k in range(nclasses)]

    def windowed_parallels(k: int, values) -> set:
        # all integer shifts of each value within `window` of a base projection
        out = set()
        for A, B in values:
            for Ap, Bp in base_int[k]:
                lo = -_floor_surd(A + Aw - Ap, B + Bw - Bp, d, D)
                hi = _floor_surd(Ap + Aw - A, Bp + Bw - B, d, D)
                out.update((A + z * D, B) for z in range(lo, hi + 1))
        return out

    seen: list[set] = [set() for _ in range(nclasses)]
    older: list[list] = [[] for _ in range(nclasses)]
    levels: list[tuple[Line, ...]] = []

    def commit(new_by_class) -> list[list]:
        fresh = []
        for k in range(nclasses):
            new = new_by_class[k] - seen[k]
            seen[k] |= new
            fresh.extend((k, surd_value(A, B, D, d), A, B) for A, B in new)
        # exact value breaks float ties, so the order never depends on hashing
        fresh.sort(key=lambda e: (e[0], float(e[1]), e[1]))
        levels.append(tuple(Line(gens[k], c) for k, c, _, _ in fresh))
        frontier = [{} for _ in range(nclasses)]
        for k, _, A, B in fresh:
            frontier[k].setdefault((A % period if period else A, B), (A, B))
        return [list(f.values()) for f in frontier]

    frontier = commit([windowed_parallels(k, base_int[k]) for k in range(nclasses)])
    for _ in range(depth):
        hits: list[set] = [set() for _ in range(nclasses)]
        for (k1, k2), cs in coef.items():
            # frontier x older in both orders; frontier x frontier once
            pool = older[k2] + frontier[k2] if k1 < k2 else older[k2]
            for k3, (p1, q1, p2, q2) in cs:
                if q1 == 0 and q2 == 0:
                    hits[k3].update(
                        (p1 * A1 + p2 * A2, p1 * B1 + p2 * B2)
                        for A1, B1 in frontier[k1]
                        for A2, B2 in pool
                    )
                else:
                    hits[k3].update(
                        (
                            p1 * A1 + p2 * A2 + (q1 * B1 + q2 * B2) * d,
                            p1 * B1 + p2 * B2 + q1 * A1 + q2 * A2,
                        )
                        for A1, B1 in frontier[k1]
                        for A2, B2 in pool
                    )
        for k in range(nclasses):
            older[k].extend(frontier[k])
        if L != 1:
            hits = [{(A // L, B // L) for A, B in h} for h in hits]
        frontier = commit([windowed_parallels(k, hits[k]) for k in range(nclasses)])

    return LineFamily(gens, tuple(levels))


def grid_offsets(family: LineFamily, a: Vec2) -> list:
    """Offsets of all family lines with normal a, reduced mod 1, sorted.

    The offsets are encoded once as (A + B*sqrt(d))/D and reduced on the
    ints, A - floor*D; only the distinct residues, in the order of their
    first line, are decoded, then sorted by float value.
    """
    offsets = [ell.offset for ell in family.lines_with_normal(a)]
    d = field_of(offsets, GridError)
    D, ints = surd_ints(offsets)
    residues = dict.fromkeys((A - _floor_surd(A, B, d, D) * D, B) for A, B in ints)
    return sorted((surd_value(A, B, D, d) for A, B in residues), key=float)


def offset_gaps(offsets) -> list:
    """Circular mod-1 gaps between consecutive offsets, same order."""
    if not offsets:
        raise GridError("no offsets to measure")
    vals = sorted(float(c) for c in offsets)
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    gaps.append(vals[0] + 1.0 - vals[-1])
    return gaps
