"""Triangular anchors, determination certificates, good enumerations.

A triangular set pins an isometry down: once its three images are known,
any further point is recovered from its distances to three reference
points, provided each distance is achieved on its own face of the unit
ball and the three face normals are pairwise non-parallel. This module
derives such certificates, reconstructs points from anchor data, and
builds enumerations of finite samples in which every point past the
anchor carries a certificate.

good_enumeration and validate_good_enumeration follow the numeric policy
of ``exact``: a float filter decides what it can, and the scalar rule
(``distance``, ``determining_generator``) decides the cases within larg's
guard of a boundary.  The two share one face rule (``_face_table``) and
one range test (``larg.in_range_pairs``): the validator re-checks the
bookkeeping on its own, and tests hold the shared rules to the scalar
definitions on every pair.

Box shapes are excluded throughout: with only two face directions no
triple of pairwise non-parallel normals exists.  L^p balls have no faces:
good enumerations certify L^p samples with the norm's gradients
(``determining_generator``), and reconstruct_from_anchor refuses L^p shapes.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .exact import FLOAT_INTEGER_GUARD, close
from .geometry import (
    NormShape,
    PolygonShape,
    Vec2,
    _meet,
    distance,
    is_triangular_set,
)
from .larg import _columns, _distances, _guard, _in_range_test, in_range_pairs
from .pointsets import PointSet

__all__ = [
    "AnchoringError",
    "Certificate",
    "GoodEnumeration",
    "determining_generator",
    "good_enumeration",
    "reconstruct_from_anchor",
    "validate_good_enumeration",
]

class AnchoringError(ValueError):
    pass


def _require_non_box(shape: NormShape):
    if isinstance(shape, PolygonShape) and shape.is_box():
        raise AnchoringError("box shapes have only two face directions; anchoring needs three")


def determining_generator(shape: NormShape, v: Vec2) -> Vec2:
    """The unique signed generator g with g.v = norm(v).

    Ties (v pointing at a vertex of the dual decomposition) are refused:
    such a vector does not determine a face.
    """
    if v.x == 0 and v.y == 0:
        raise AnchoringError("zero vector has no determining generator")
    if isinstance(shape, PolygonShape):
        vals = [a.dot(v) for a in shape.generators]
        best = max(abs(c) for c in vals)
        hits = [i for i, c in enumerate(vals) if close(abs(c), best, best)]
        if len(hits) > 1:
            raise AnchoringError(
                f"distance from {v} achieved on {len(hits)} faces; no unique determining generator"
            )
        a = shape.generators[hits[0]]
        return a if vals[hits[0]] > 0 else -a
    # smooth shape: gradient of the norm at v, unique for v != 0
    vx, vy = float(v.x), float(v.y)
    n = shape.norm(Vec2(vx, vy))
    p = shape.p
    gx = math.copysign(abs(vx) ** (p - 1), vx) / n ** (p - 1)
    gy = math.copysign(abs(vy) ** (p - 1), vy) / n ** (p - 1)
    return Vec2(gx, gy)


def reconstruct_from_anchor(shape: NormShape, anchor_points, anchor_images, x: Vec2, dists) -> Vec2:
    """Recover the image of x from the anchor images and three distances.

    Each distance dists[i] = d(x, anchor_points[i]) must be achieved on a
    single face whose normal is read off the domain side; the face normals
    must be pairwise non-parallel. The image solves the first two face
    constraints; the third acts as a consistency check, and all three
    distances are re-verified against the result.  Reconstruction reads
    polygon faces: an L^p shape, whose ball has none, is refused.
    """
    m = tuple(anchor_points)
    w = tuple(anchor_images)
    s = tuple(dists)
    if len(m) != 3 or len(w) != 3 or len(s) != 3:
        raise AnchoringError("anchor needs exactly three points, images, and distances")
    if not isinstance(shape, PolygonShape):
        raise AnchoringError("reconstruction reads polygon faces; an L^p ball has none")
    _require_non_box(shape)
    if not is_triangular_set(shape, *m):
        raise AnchoringError("anchor points do not form a triangular set")
    for i in range(3):
        if x == m[i]:
            return w[i]

    gens = tuple(determining_generator(shape, x - m[i]) for i in range(3))
    for i in range(3):
        for j in range(i + 1, 3):
            if gens[i].cross(gens[j]) == 0:
                raise AnchoringError("certificate generators are pairwise parallel; invalid")
    consts = tuple(gens[i].dot(w[i]) + s[i] for i in range(3))
    y = Vec2(*_meet(gens[0], consts[0], gens[1], consts[1]))
    lhs = gens[2].dot(y)
    if not close(lhs, consts[2], max(1.0, abs(float(consts[2])))):
        raise AnchoringError(f"third face constraint violated by {lhs - consts[2]}")
    for i in range(3):
        d = distance(shape, y, w[i])
        if not close(d, s[i], max(1.0, abs(float(s[i])))):
            raise AnchoringError(f"reconstructed point misses distance {i}: {d} != {s[i]}")
    return y


# ---------------------------------------------------------------------------
# good enumerations


@dataclass(frozen=True)
class Certificate:
    """Positions (into the order) of three references and their face normals."""

    refs: tuple[int, int, int]
    generators: tuple[Vec2, Vec2, Vec2]

    def __post_init__(self):
        j, k, l = self.refs
        if not 0 <= j < k < l:
            raise AnchoringError("certificate positions must be strictly increasing")


@dataclass(frozen=True)
class GoodEnumeration:
    """An ordering with consecutive hops < 1 and per-point certificates.

    certificates[i] is None for the three anchor points and carries, for
    each later point, the references and signed generators that determine
    it. unplaced lists indices the walk could not reach or certify.
    """

    point_set: PointSet
    shape: NormShape
    order: tuple[int, ...]
    certificates: tuple
    unplaced: tuple[int, ...]

    def __post_init__(self):
        if len(self.order) != len(self.certificates):
            raise AnchoringError("one certificate slot per ordered point")

    def anchor(self) -> tuple[int, int, int]:
        return tuple(self.order[:3])


def _face_table(shape, pts, cols, guard, targets, refs):
    """The face rule for the differences pts[targets[k]] - pts[refs[k]]
    (one target serves every row): (face, sure, generator).  On the float
    projection table `cols`, row k is sure when its largest |projection|,
    of class face[k], beats the runner-up by more than
    determining_generator's tie rule (``close``) plus `guard`.
    generator(k) signs a sure row's generator by its projection;
    determining_generator, which refuses a tie, decides the other rows, and
    every row when cols is None (L^p)."""
    if cols is None:
        face, sure = None, np.zeros(len(refs), dtype=bool)
    else:
        vals = cols[:, targets] - cols[:, refs]
        mag = np.abs(vals)
        face = mag.argmax(axis=0)
        second, best = np.sort(mag, axis=0)[-2:]
        sure = best - second > FLOAT_INTEGER_GUARD * best + guard

    def generator(k):
        if not sure[k]:
            return determining_generator(shape, pts[targets[k % len(targets)]] - pts[refs[k]])
        a = shape.generators[face[k]]
        return a if vals[face[k], k] > 0 else -a

    return face, sure, generator


def _try_certificate(shape, pts, cols, guard, order, target):
    """Three placed references with pairwise non-parallel face normals.

    These are the first three positions of `order` whose distances to the
    target lie on three distinct face classes, skipping the references
    determining_generator refuses.  For polygons one ``_face_table`` over
    the placed points gives every class; determining_generator decides the
    unsure rows, and only those that can still change the answer.  L^p
    (cols None) scans with determining_generator, which finds three
    non-parallel gradients within a few references.
    """
    if cols is None:
        refs, gens = [], []
        for pos, ref_idx in enumerate(order):
            try:
                g = determining_generator(shape, pts[target] - pts[ref_idx])
            except AnchoringError:
                continue
            if any(g.cross(h) == 0 for h in gens):
                continue
            refs.append(pos)
            gens.append(g)
            if len(gens) == 3:
                return Certificate(tuple(refs), tuple(gens))
        return None

    face, sure, generator = _face_table(shape, pts, cols, guard, [target], order)
    # first sure position of each face class; the third of them bounds the
    # positions an unsure row can still claim
    classes, firsts = np.unique(np.where(sure, face, len(cols)), return_index=True)
    firsts = firsts[classes < len(cols)]
    limit = int(np.sort(firsts)[2]) if len(firsts) >= 3 else len(order)

    # (position, class, signed generator); sure rows are signed by the table
    rows = [(int(pos), int(face[pos]), None) for pos in firsts]
    for pos in np.flatnonzero(~sure[:limit]).tolist():
        try:
            g = generator(pos)
        except AnchoringError:
            continue
        rows.append((pos, next(c for c, a in enumerate(shape.generators) if a.cross(g) == 0), g))
    refs, gens = [], {}
    for pos, c, g in sorted(rows):
        if c in gens:
            continue
        gens[c] = generator(pos) if g is None else g
        refs.append(pos)
        if len(refs) == 3:
            return Certificate(tuple(refs), tuple(gens.values()))
    return None


def good_enumeration(points: PointSet, shape: NormShape) -> GoodEnumeration:
    """Order a sample so consecutive points are close and all certified.

    Builds the in-range graph (pairs at distance < 1), picks a triangular
    anchor with pairwise distances < 1, then walks: each remaining point is
    reached by a hop path through still-unplaced points, and every point
    placed must admit a certificate against the points placed so far.
    Points that cannot be reached or certified are reported unplaced.

    Numeric policy: float filters with the scalar rule deciding the cases
    near a boundary, so the result is the one the scalar definitions give.
    The in-range graph is ``larg.in_range_pairs``.  The walk's next target
    is the eligible point nearest its end by ``(float(distance), index)``;
    float distances pick the candidates within a guard of the minimum, and
    the scalar key decides among them.  Certificates read face classes off
    a float table of generator projections (``_face_table``), which
    ``validate_good_enumeration`` reads too.

    Up to six anchors are walked, and the first walk leaving the fewest
    points pending wins.  A point pending after the first walk that has no
    certificate even against all other points is hopeless: more references
    only add face classes (gradient directions for L^p), so no walk can
    place it, and every walk whose anchor does not hold it leaves it
    pending.  A later anchor that leaves out at least as many hopeless
    points as the best walk so far left pending cannot win, so its walk is
    skipped; the result is the one walking every anchor gives.

    Redundant generators (`PolygonShape.vertices`) and points with no
    common field with the shape (`larg.in_range_pairs`) raise GeometryError
    before any point is read.
    """
    _require_non_box(shape)
    if isinstance(shape, PolygonShape):
        shape.vertices()  # refuses redundant generators, whose faces only tie
    pts = points.points
    n = len(pts)
    if n < 3:
        raise AnchoringError("need at least three points")

    near = [[] for _ in range(n)]
    # lexicographic pairs u < v keep every list ascending
    for u, v in zip(*(a.tolist() for a in in_range_pairs(points, shape, 1))):
        near[u].append(v)
        near[v].append(u)
    near_sets = [set(adj) for adj in near]

    arr = points.as_array()
    cols, reach, q = _columns(arr, shape)
    guard = _guard(1.0, reach, arr)
    face_cols = None if q is not None else cols

    def nearest(end, eligible):
        # this float distance and float(distance(...)) both lie within
        # guard / 2 of the true one, so the scalar minimum is among the ties
        fd = _distances(cols, q, end, eligible)[0]
        ties = eligible[fd <= fd.min() + guard].tolist()
        if len(ties) == 1:
            return ties[0]
        return min(ties, key=lambda i: (float(distance(shape, pts[end], pts[i])), i))

    # anchor centrally: growth radiates outward, so later points keep placed
    # references on several sides, which certificates need
    xs = sorted(float(p.x) for p in pts)
    ys = sorted(float(p.y) for p in pts)
    cx, cy = xs[n // 2], ys[n // 2]
    central = sorted(
        range(n), key=lambda i: max(abs(float(pts[i].x) - cx), abs(float(pts[i].y) - cy))
    )

    def anchor_candidates():
        used = set()
        for i in central:
            if i in used:
                continue
            for a in near[i]:
                for b in near[i]:
                    if b <= a or b not in near_sets[a]:
                        continue
                    if is_triangular_set(shape, pts[i], pts[a], pts[b]):
                        used.update((i, a, b))
                        yield (i, a, b)
                        break
                else:
                    continue
                break

    def certify(order, idx):
        return _try_certificate(shape, pts, face_cols, guard, order, idx)

    def run(anchor):
        order = list(anchor)
        certificates: list = [None, None, None]
        placed = set(anchor)

        def hop_path(start, goal):
            # shortest path start -> goal through unplaced points only
            if goal in near_sets[start]:
                return [goal]
            prev = {start: None}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in near[u]:
                    if v in placed or v in prev:
                        continue
                    prev[v] = u
                    if v == goal:
                        path = []
                        cur = v
                        while cur != start:
                            path.append(cur)
                            cur = prev[cur]
                        return path[::-1]
                    queue.append(v)
            return None

        def place(idx) -> bool:
            cert = certify(order, idx)
            if cert is None:
                return False
            order.append(idx)
            certificates.append(cert)
            placed.add(idx)
            return True

        # serve targets nearest the walk's current end so it clears each
        # region before moving on; a failed point stays pending and becomes
        # eligible again after any placement, since placements only ever add
        # reference directions
        pending = np.ones(n, dtype=bool)
        pending[list(anchor)] = False
        last_try = np.full(n, -1)
        while pending.any():
            end = order[-1]
            epoch = len(order)
            eligible = np.flatnonzero(pending & (last_try < epoch))
            if not len(eligible):
                break
            u = nearest(end, eligible)
            path = hop_path(end, u)
            advanced = False
            for step in path or ():
                if not place(step):
                    last_try[step] = len(order)
                    break
                pending[step] = False
                advanced = True
            if not advanced:
                last_try[u] = epoch
        return order, certificates, set(np.flatnonzero(pending).tolist())

    best = None
    hopeless = set()
    for anchor in itertools.islice(anchor_candidates(), 6):
        if best is not None and len(hopeless - set(anchor)) >= len(best[2]):
            continue  # its walk leaves at least as many points pending
        order, certificates, pending = run(anchor)
        if best is None:
            hopeless = {u for u in pending if certify([i for i in range(n) if i != u], u) is None}
        if best is None or len(pending) < len(best[2]):
            best = (order, certificates, pending)
        if not pending:
            break
    if best is None:
        raise AnchoringError("no triangular set with pairwise distances < 1 found")

    order, certificates, pending = best

    # a point the walk could not reach may still certify against the final
    # order; splice it in wherever both walk neighbours are in range, shifting
    # the positions later certificates refer to
    changed = True
    while changed and pending:
        changed = False
        for u in sorted(pending):
            cert = certify(order, u)
            if cert is None:
                continue
            for i in range(max(cert.refs) + 1, len(order) + 1):
                if order[i - 1] not in near_sets[u]:
                    continue
                if i < len(order) and order[i] not in near_sets[u]:
                    continue
                order.insert(i, u)
                certificates.insert(i, cert)
                for pos in range(i + 1, len(order)):
                    c = certificates[pos]
                    certificates[pos] = Certificate(
                        tuple(r if r < i else r + 1 for r in c.refs), c.generators
                    )
                pending.discard(u)
                changed = True
                break

    return GoodEnumeration(
        points, shape, tuple(order), tuple(certificates), tuple(sorted(pending))
    )


def validate_good_enumeration(enum: GoodEnumeration) -> None:
    """Re-check every defining condition from scratch; raise on violation."""
    pts = enum.point_set.points
    shape = enum.shape
    _require_non_box(shape)
    order = enum.order

    if sorted(list(order) + list(enum.unplaced)) != list(range(len(pts))):
        raise AnchoringError("order and unplaced do not partition the point set")
    if len(order) < 3:
        raise AnchoringError("enumeration shorter than an anchor")
    if len({(pts[i].x, pts[i].y) for i in order}) < len(order):
        raise AnchoringError("repeated point in enumeration")

    within = _in_range_test(enum.point_set, shape, 1)
    far = np.flatnonzero(~within(order[:-1], order[1:]))
    if len(far):
        raise AnchoringError(f"consecutive points {order[far[0]]}, {order[far[0] + 1]} at distance >= 1")

    i0, i1, i2 = order[:3]
    if not within((i0, i0, i1), (i1, i2, i2)).all():
        raise AnchoringError("anchor pair at distance >= 1")
    if not is_triangular_set(shape, pts[i0], pts[i1], pts[i2]):
        raise AnchoringError("anchor is not a triangular set")

    certs = enum.certificates
    if any(c is not None for c in certs[:3]):
        raise AnchoringError("anchor points carry no certificate")
    for pos in range(3, len(order)):
        if certs[pos] is None:
            raise AnchoringError(f"point at position {pos} lacks a certificate")
        j, k, l = certs[pos].refs
        if not 0 <= j < k < l < pos:
            raise AnchoringError(f"certificate positions {certs[pos].refs} not all before {pos}")

    # one face table over the rows (point, reference), three per position
    arr = enum.point_set.as_array()
    cols, reach, q = _columns(arr, shape)
    targets = [order[pos] for pos in range(3, len(order)) for _ in range(3)]
    refs = [order[r] for cert in certs[3:] for r in cert.refs]
    generator = _face_table(shape, pts, cols if q is None else None, _guard(1.0, reach, arr), targets, refs)[2]
    for pos, cert in enumerate(certs[3:], 3):
        for row, g in zip(range(3 * pos - 9, 3 * pos - 6), cert.generators):
            if g != generator(row):
                raise AnchoringError(
                    f"certificate generator {g} does not determine the distance at position {pos}"
                )
        g1, g2, g3 = cert.generators
        if g1.cross(g2) == 0 or g1.cross(g3) == 0 or g2.cross(g3) == 0:
            raise AnchoringError(f"certificate generators at position {pos} not pairwise non-parallel")
