"""Determining generators, anchored reconstruction, good enumerations."""

import dataclasses
import itertools
import re
from collections import Counter, deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from larg_lab import anchoring, larg
from larg_lab.exact import FLOAT, SqrtExt

from larg_lab.anchoring import (
    AnchoringError,
    Certificate,
    GoodEnumeration,
    determining_generator,
    good_enumeration,
    reconstruct_from_anchor,
    validate_good_enumeration,
)
from larg_lab.geometry import (
    GeometryError,
    LpShape,
    PolygonShape,
    Vec2,
    distance,
    is_triangular_set,
    rational_hexagon,
    regular_hexagon,
    square_linf,
)
from larg_lab.pointsets import PointSet, Window, sample_poisson_window

F = Fraction
HEX = rational_hexagon()


# ---------------------------------------------------------------------------
# oracles / generators


def random_rational_vec(rng, span=4, den=64) -> Vec2:
    return Vec2(
        F(int(rng.integers(-span * den, span * den)), den),
        F(int(rng.integers(-span * den, span * den)), den),
    )


def random_triangular_anchor(rng, shape, tries=200):
    """Rejection-sample a triangular set with certifiable directions."""
    for _ in range(tries):
        m = [random_rational_vec(rng, span=1) for _ in range(3)]
        if len({(v.x, v.y) for v in m}) == 3 and is_triangular_set(shape, *m):
            return tuple(m)
    raise AssertionError("no triangular anchor found")


def forward_instance(rng, shape, image_of):
    """Anchor, its images, a nearby ground-truth point, forward distances."""
    m = random_triangular_anchor(rng, shape)
    x = random_rational_vec(rng, span=1)
    dists = tuple(distance(shape, x, mi) for mi in m)
    return m, tuple(image_of(mi) for mi in m), x, dists, image_of(x)


# ---------------------------------------------------------------------------
# determining_generator


def test_determining_generator_hexagon():
    assert determining_generator(HEX, Vec2(F(1), F(1, 5))) == Vec2(F(1), F(1))
    assert determining_generator(HEX, Vec2(F(-1), F(-1, 5))) == Vec2(F(-1), F(-1))
    assert determining_generator(HEX, Vec2(F(1, 8), F(-1))) == Vec2(F(0), F(-1))
    with pytest.raises(AnchoringError, match="faces"):
        determining_generator(HEX, Vec2(F(1), F(0)))  # tie between two faces
    with pytest.raises(AnchoringError):
        determining_generator(HEX, Vec2(F(0), F(0)))


def test_determining_generator_float_tie():
    sq = square_linf()
    assert determining_generator(sq, Vec2(0.5, -0.2)) == Vec2(F(1), F(0))
    with pytest.raises(AnchoringError):
        determining_generator(sq, Vec2(0.5, 0.5 + 1e-12))


def test_determining_generator_smooth():
    g = determining_generator(LpShape(2), Vec2(3.0, 4.0))
    assert (g.x, g.y) == pytest.approx((0.6, 0.8))
    v = Vec2(3.0, 4.0)
    assert g.dot(v) == pytest.approx(LpShape(2).norm(v))


# ---------------------------------------------------------------------------
# reconstruct_from_anchor


def test_reconstruct_identity_and_translation():
    rng = np.random.default_rng(3)
    t = Vec2(F(7, 5), F(-13, 8))
    done = 0
    while done < 40:
        try:
            m, w, x, dists, _ = forward_instance(rng, HEX, lambda v: v)
            assert reconstruct_from_anchor(HEX, m, w, x, dists) == x
            m, w, x, dists, truth = forward_instance(rng, HEX, lambda v: v + t)
            assert reconstruct_from_anchor(HEX, m, w, x, dists) == truth
        except AnchoringError:
            continue  # query not determinable from this anchor; resample
        done += 1


def test_reconstruct_many_exact_instances():
    rng = np.random.default_rng(11)
    done = 0
    while done < 150:
        t = random_rational_vec(rng, span=5)
        try:
            m, w, x, dists, truth = forward_instance(rng, HEX, lambda v: v + t)
            got = reconstruct_from_anchor(HEX, m, w, x, dists)
        except AnchoringError:
            continue  # tie or parallel certificate; instance not determinable
        assert got == truth
        done += 1


def test_reconstruct_returns_anchor_image_for_anchor_point():
    rng = np.random.default_rng(5)
    m = random_triangular_anchor(rng, HEX)
    t = Vec2(F(1), F(2))
    w = tuple(mi + t for mi in m)
    dists = tuple(distance(HEX, m[1], mi) for mi in m)
    assert reconstruct_from_anchor(HEX, m, w, m[1], dists) == m[1] + t


def test_reconstruct_rejects_bad_input():
    collinear = (Vec2(F(0), F(0)), Vec2(F(1, 4), F(0)), Vec2(F(1, 2), F(0)))
    with pytest.raises(AnchoringError, match="triangular"):
        reconstruct_from_anchor(
            HEX, collinear, collinear, Vec2(F(1), F(1, 3)), (F(1), F(1), F(1))
        )
    with pytest.raises(AnchoringError):
        reconstruct_from_anchor(square_linf(), collinear, collinear, Vec2(F(1), F(1)), (1, 1, 1))

    # two distances determined by the same face direction
    m = (Vec2(F(0), F(0)), Vec2(F(0), F(1, 3)), Vec2(F(1, 4), F(1, 6)))
    x = Vec2(F(5), F(1))
    dists = tuple(distance(HEX, x, mi) for mi in m)
    with pytest.raises(AnchoringError, match="parallel"):
        reconstruct_from_anchor(HEX, m, m, x, dists)


def test_reconstruct_rejects_inconsistent_distances():
    rng = np.random.default_rng(7)
    while True:
        try:
            m, w, x, dists, _ = forward_instance(rng, HEX, lambda v: v)
            assert reconstruct_from_anchor(HEX, m, w, x, dists) == x
            break
        except AnchoringError:
            continue
    bad = (dists[0], dists[1], dists[2] + F(1, 7))
    with pytest.raises(AnchoringError):
        reconstruct_from_anchor(HEX, m, w, x, bad)
    scrambled = (w[0] + Vec2(F(1, 3), F(5, 7)), w[1], w[2])
    with pytest.raises(AnchoringError):
        reconstruct_from_anchor(HEX, m, scrambled, x, dists)


def test_reconstruct_smooth_shape():
    rng = np.random.default_rng(9)
    shape = LpShape(2)
    m = (Vec2(0.0, 0.0), Vec2(0.5, 0.1), Vec2(0.2, 0.45))
    t = Vec2(1.25, -0.75)
    w = tuple(Vec2(mi.x + t.x, mi.y + t.y) for mi in m)
    for _ in range(25):
        x = Vec2(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        dists = tuple(distance(shape, x, mi) for mi in m)
        got = reconstruct_from_anchor(shape, m, w, x, dists)
        assert (got.x, got.y) == pytest.approx((x.x + t.x, x.y + t.y), abs=1e-7)


# ---------------------------------------------------------------------------
# good enumerations


def rational_sample(seed, size=F(3, 2), intensity=40.0):
    return sample_poisson_window(
        Window(F(0), F(0), size, size), intensity, seed=seed, mode="rational"
    )


def test_three_point_base_case():
    pts = (Vec2(F(0), F(0)), Vec2(F(1, 2), F(1, 8)), Vec2(F(1, 4), F(2, 5)))
    assert is_triangular_set(HEX, *pts)
    ps = PointSet(pts, Window(F(-1), F(-1), F(1), F(1)), 0, "rational")
    enum = good_enumeration(ps, HEX)
    assert sorted(enum.order) == [0, 1, 2]
    assert enum.certificates == (None, None, None)
    assert enum.unplaced == ()
    validate_good_enumeration(enum)


def test_dense_sample_fully_placed():
    for seed in (1, 4, 5):
        ps = rational_sample(seed)
        enum = good_enumeration(ps, HEX)
        assert enum.unplaced == ()
        assert len(enum.order) == len(ps)
        validate_good_enumeration(enum)
        # consecutive-hop oracle, independent of the validator's loop
        for a, b in zip(enum.order, enum.order[1:]):
            assert distance(HEX, ps[a], ps[b]) < 1


def test_high_intensity_window_fully_placed():
    ps = sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 500.0, seed=3)
    enum = good_enumeration(ps, HEX)
    assert enum.unplaced == ()
    validate_good_enumeration(enum)


def test_corner_point_honestly_unplaced():
    # seed 2 puts a point so close to the window corner that every other
    # point determines its distance through the same two faces; no third
    # reference direction exists, so no enumeration could certify it
    ps = rational_sample(2)
    enum = good_enumeration(ps, HEX)
    assert enum.unplaced == (69,)
    validate_good_enumeration(enum)
    gens = []
    for j in range(len(ps)):
        if j == 69:
            continue
        try:
            g = determining_generator(HEX, ps[69] - ps[j])
        except AnchoringError:
            continue
        if all(g.cross(h) != 0 for h in gens):
            gens.append(g)
    assert len(gens) == 2


def test_isolated_point_reported_unplaced():
    ps = rational_sample(4)
    pts = ps.points + (Vec2(F(30), F(30)),)
    far = PointSet(pts, Window(F(0), F(0), F(31), F(31)), 0, "rational")
    enum = good_enumeration(far, HEX)
    assert enum.unplaced == (len(pts) - 1,)
    validate_good_enumeration(enum)


def test_no_anchor_raises():
    pts = (Vec2(F(0), F(0)), Vec2(F(1, 4), F(0)), Vec2(F(1, 2), F(0)))
    ps = PointSet(pts, Window(F(-1), F(-1), F(1), F(1)), 0, "rational")
    with pytest.raises(AnchoringError, match="triangular"):
        good_enumeration(ps, HEX)


def test_box_shape_rejected():
    ps = rational_sample(1)
    with pytest.raises(AnchoringError, match="box"):
        good_enumeration(ps, square_linf())
    enum = good_enumeration(ps, HEX)
    with pytest.raises(AnchoringError, match="box"):
        validate_good_enumeration(dataclasses.replace(enum, shape=square_linf()))


def test_redundant_generators_rejected():
    # the unit square written with four generators: the diagonal faces only
    # touch its corners, where they tie, so no point could ever be placed
    square4 = PolygonShape([Vec2(1, 0), Vec2(0, 1), Vec2(F(1, 2), F(1, 2)), Vec2(F(1, 2), F(-1, 2))])
    with pytest.raises(GeometryError, match="redundant generator"):
        good_enumeration(rational_sample(1), square4)


def test_float_and_smooth_enumerations():
    ps = sample_poisson_window(Window(0.0, 0.0, 1.5, 1.5), 40.0, seed=6)
    for shape in (HEX, LpShape(2)):
        enum = good_enumeration(ps, shape)
        validate_good_enumeration(enum)
        assert len(enum.order) + len(enum.unplaced) == len(ps)
        assert len(enum.unplaced) <= 1


def test_validator_catches_corruption():
    ps = rational_sample(8)
    enum = good_enumeration(ps, HEX)
    order = list(enum.order)
    order[4], order[-1] = order[-1], order[4]
    with pytest.raises(AnchoringError):
        validate_good_enumeration(dataclasses.replace(enum, order=tuple(order)))

    certs = list(enum.certificates)
    good = certs[5]
    certs[5] = Certificate(good.refs, (good.generators[0],) * 3)
    with pytest.raises(AnchoringError):
        validate_good_enumeration(
            dataclasses.replace(enum, certificates=tuple(certs))
        )

    with pytest.raises(AnchoringError, match="partition"):
        validate_good_enumeration(dataclasses.replace(enum, unplaced=(0,)))


def _short_order(enum):
    # the first two points only; the rest unplaced
    unplaced = tuple(sorted(enum.order[2:] + enum.unplaced))
    return dataclasses.replace(enum, order=enum.order[:2], certificates=(None, None), unplaced=unplaced)


def _repeated_point(enum):
    # the first ordered point again, as one more point: the checking
    # constructor refuses a repeat, so the set is built from its columns
    ps = enum.point_set
    xy = np.vstack((ps.as_array(), ps.as_array()[enum.order[:1]]))
    twice = PointSet._from_columns(xy, FLOAT, ps.window, ps.seed, ps.mode)
    return dataclasses.replace(
        enum, point_set=twice, order=enum.order + (len(ps),), certificates=enum.certificates + (None,)
    )


def _collinear_anchor(enum):
    # three points on a horizontal line, pairwise within distance 1
    pts = (Vec2(F(0), F(0)), Vec2(F(1, 4), F(0)), Vec2(F(1, 2), F(0)))
    ps = PointSet(pts, Window(F(-1), F(-1), F(1), F(1)), 0, "rational")
    return GoodEnumeration(ps, HEX, (0, 1, 2), (None, None, None), ())


def _certified_anchor(enum):
    return corrupt_certificate(enum, 0, enum.certificates[3].refs, enum.certificates[3].generators)


def _missing_certificate(enum):
    certs = list(enum.certificates)
    certs[4] = None
    return dataclasses.replace(enum, certificates=tuple(certs))


def _late_reference(enum):
    return corrupt_certificate(enum, 3, (0, 1, 3), enum.certificates[3].generators)


def _parallel_generators(enum):
    # three earlier references whose faces are determined, two of them
    # parallel: every generator passes the face test
    pts, order = enum.point_set.points, enum.order

    def face(pos, ref):
        try:
            return determining_generator(HEX, pts[order[pos]] - pts[order[ref]])
        except AnchoringError:
            return None

    pos, refs = next(
        (pos, refs)
        for pos in range(3, len(order))
        for refs in itertools.combinations(range(pos), 3)
        if None not in (gens := [face(pos, r) for r in refs]) and gens[0].cross(gens[1]) == 0
    )
    return corrupt_certificate(enum, pos, refs, [face(pos, r) for r in refs])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_short_order, re.escape("enumeration shorter than an anchor")),
        (_repeated_point, re.escape("repeated point in enumeration")),
        (_collinear_anchor, re.escape("anchor is not a triangular set")),
        (_certified_anchor, re.escape("anchor points carry no certificate")),
        (_missing_certificate, re.escape("point at position 4 lacks a certificate")),
        (_late_reference, re.escape("certificate positions (0, 1, 3) not all before 3")),
        (_parallel_generators, r"certificate generators at position \d+ not pairwise non-parallel"),
    ],
    ids=["short-order", "repeated-point", "collinear-anchor", "certified-anchor", "missing-certificate",
         "late-reference", "parallel-generators"],
)
def test_validator_refuses_each_corruption(corrupt, message):
    # one corrupted enumeration per refusal; the float sample's enumeration
    # is valid, and each corruption changes one defining condition
    enum = good_enumeration(sample_poisson_window(Window(0.0, 0.0, 1.5, 1.5), 40.0, seed=6), HEX)
    validate_good_enumeration(enum)
    with pytest.raises(AnchoringError, match=f"^{message}$"):
        validate_good_enumeration(corrupt(enum))


def test_certificate_position_validation():
    with pytest.raises(AnchoringError):
        Certificate((2, 1, 0), (Vec2(F(1), F(0)),) * 3)


# ---------------------------------------------------------------------------
# the validator's integer lane against the scalar definitions

R2, R3 = SqrtExt(0, 1, 2), SqrtExt(0, 1, 3)
SQRT3_HEX = PolygonShape([Vec2(F(1), F(0)), Vec2(F(1, 2), R3 / 2), Vec2(F(-1, 2), R3 / 2)])


def tied_sample():
    # 30 sampled points and copies of six of them moved by (1/8, 0),
    # (0, 1/8) and (1/8, -1/8): each copy ties two faces with its original
    base = rational_sample(1).points[:30]
    moves = ((F(1, 8), F(0)), (F(0), F(1, 8)), (F(1, 8), F(-1, 8)))
    copies = tuple(v + Vec2(dx, dy) for v in base[:6] for dx, dy in moves)
    return PointSet(base + copies, Window(F(-1), F(-1), F(3), F(3)), 0, "rational")


def sqrt2_lattice():
    # 40 points with coordinates (i + j*sqrt(2))/4 over Q(sqrt(2)); under
    # the hexagon, two points sharing a coordinate, or differing by (t, -t),
    # tie two faces
    axis = [F(i, 4) + j * R2 / 4 for i in range(4) for j in range(3)]
    rng = np.random.default_rng(7)
    cells = rng.choice(len(axis) ** 2, 40, replace=False)
    pts = tuple(Vec2(axis[c % len(axis)], axis[c // len(axis)]) for c in cells.tolist())
    return PointSet(pts, Window(F(-1), F(-1), F(3), F(3)), 0, "rational")


LANE_CASES = {
    "Q-hexagon": lambda: (HEX, tied_sample()),
    "Q-octagon4": lambda: (OCTAGON4, tied_sample()),
    "Q-sqrt3-hexagon": lambda: (SQRT3_HEX, tied_sample()),
    "sqrt2-hexagon": lambda: (HEX, sqrt2_lattice()),
}


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_integer_lane_matches_scalar_rules(name):
    # every (target, reference) pair: the same in-range answer as distance,
    # the same generator as determining_generator, the same refusal of a tie
    shape, ps = LANE_CASES[name]()
    enum = good_enumeration(ps, shape)
    in_range, face = anchoring._validator_rules(enum)
    pts = ps.points
    ties = 0
    for t, r in itertools.permutations(range(len(pts)), 2):
        assert in_range(t, r) == (distance(shape, pts[t], pts[r]) < 1)
        try:
            want = determining_generator(shape, pts[t] - pts[r])
        except AnchoringError as exc:
            ties += 1
            with pytest.raises(AnchoringError, match=f"^{re.escape(str(exc))}$"):
                face(t, r)
        else:
            assert face(t, r) == want
    assert ties
    # a valid exact enumeration is checked without the scalar rules
    no_scalar = AssertionError("scalar rule called")
    with mock.patch.object(anchoring, "distance", side_effect=no_scalar), mock.patch.object(
        anchoring, "determining_generator", side_effect=no_scalar
    ):
        validate_good_enumeration(enum)


def corrupt_certificate(enum, pos, refs, generators):
    certs = list(enum.certificates)
    certs[pos] = Certificate(tuple(refs), tuple(generators))
    return dataclasses.replace(enum, certificates=tuple(certs))


@pytest.mark.parametrize("make", [tied_sample, sqrt2_lattice])
def test_validator_refuses_corrupted_certificates(make):
    ps = make()
    enum = good_enumeration(ps, HEX)
    pts, order = ps.points, enum.order

    # a certificate generator with its sign flipped
    cert = enum.certificates[5]
    flipped = (-cert.generators[0],) + cert.generators[1:]
    with pytest.raises(
        AnchoringError, match=f"^{re.escape(f'certificate generator {flipped[0]} does not determine the distance at position 5')}$"
    ):
        validate_good_enumeration(corrupt_certificate(enum, 5, cert.refs, flipped))

    # a reference whose difference to the target ties two faces, placed
    # after references that determine their faces
    def face_or_none(pos, ref):
        try:
            return determining_generator(HEX, pts[order[pos]] - pts[order[ref]])
        except AnchoringError:
            return None

    pos, tie = next(
        (pos, ref)
        for pos in range(5, len(order))
        for ref in range(2, pos)
        if face_or_none(pos, ref) is None and None not in (face_or_none(pos, 0), face_or_none(pos, 1))
    )
    with pytest.raises(AnchoringError) as want:
        determining_generator(HEX, pts[order[pos]] - pts[order[tie]])
    generators = (face_or_none(pos, 0), face_or_none(pos, 1), HEX.generators[0])
    with pytest.raises(AnchoringError, match=f"^{re.escape(str(want.value))}$"):
        validate_good_enumeration(corrupt_certificate(enum, pos, (0, 1, tie), generators))


@pytest.mark.parametrize("shift", [F(0), R2 / 4])
def test_validator_distance_one_is_out_of_range(shift):
    # hexagon distance exactly 1, with rational or sqrt(2) coordinates: the
    # validator's test is strict
    def points(*coords):
        pts = tuple(Vec2(x + shift, y) for x, y in coords)
        return PointSet(pts, Window(F(-1), F(-1), F(3), F(3)), 0, "rational")

    cert = Certificate((0, 1, 2), (Vec2(F(1), F(0)), Vec2(F(0), F(1)), Vec2(F(1), F(1))))
    certificates = (None, None, None, cert)
    # consecutive points 2, 3 differ by (1, 0)
    ps = points((0, 0), (F(1, 2), 0), (0, F(1, 2)), (1, F(1, 2)))
    enum = GoodEnumeration(ps, HEX, (0, 1, 2, 3), certificates, ())
    with pytest.raises(AnchoringError, match="^consecutive points 2, 3 at distance >= 1$"):
        validate_good_enumeration(enum)
    # anchor points 0, 2 differ by (1, 0); consecutive hops are shorter
    ps = points((0, 0), (F(1, 2), F(1, 4)), (1, 0), (F(1, 2), F(1, 2)))
    enum = GoodEnumeration(ps, HEX, (0, 1, 2, 3), certificates, ())
    with pytest.raises(AnchoringError, match="^anchor pair at distance >= 1$"):
        validate_good_enumeration(enum)


# ---------------------------------------------------------------------------
# the float-filtered enumeration against the scalar definitions


def reference_try_certificate(shape, pts, order, target_idx):
    refs = []
    gens = []
    for pos, ref_idx in enumerate(order):
        try:
            g = determining_generator(shape, pts[target_idx] - pts[ref_idx])
        except AnchoringError:
            continue
        if any(g.cross(h) == 0 for h in gens):
            continue
        refs.append(pos)
        gens.append(g)
        if len(gens) == 3:
            return Certificate(tuple(refs), tuple(gens))
    return None


def reference_good_enumeration(points, shape):
    """good_enumeration by scalar arithmetic alone: a dense loop of scalar
    distances for the in-range graph and the walk's nearest target, and
    determining_generator on every placed point for each certificate."""
    if shape.is_box():
        raise AnchoringError("box shapes have only two face directions; anchoring needs three")
    pts = points.points
    n = len(pts)
    if n < 3:
        raise AnchoringError("need at least three points")

    near = [[] for _ in range(n)]
    dist_to = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(shape, pts[i], pts[j])
            dist_to[i, j] = dist_to[j, i] = float(d)
            if d < 1:
                near[i].append(j)
                near[j].append(i)
    near_sets = [set(adj) for adj in near]

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

    def run(anchor):
        order = list(anchor)
        certificates: list = [None, None, None]
        placed = set(anchor)

        def hop_path(start, goal):
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
            cert = reference_try_certificate(shape, pts, order, idx)
            if cert is None:
                return False
            order.append(idx)
            certificates.append(cert)
            placed.add(idx)
            return True

        pending = {i for i in range(n) if i not in placed}
        last_try = dict.fromkeys(pending, -1)
        while pending:
            end = order[-1]
            epoch = len(order)
            eligible = [i for i in pending if last_try[i] < epoch]
            if not eligible:
                break
            u = min(eligible, key=lambda i: (dist_to[end, i], i))
            path = hop_path(end, u)
            advanced = False
            for step in path or ():
                if not place(step):
                    last_try[step] = len(order)
                    break
                pending.discard(step)
                advanced = True
            if not advanced:
                last_try[u] = epoch
        return order, certificates, pending

    best = None
    for anchor in itertools.islice(anchor_candidates(), 6):
        order, certificates, pending = run(anchor)
        if best is None or len(pending) < len(best[2]):
            best = (order, certificates, pending)
        if not pending:
            break
    if best is None:
        raise AnchoringError("no triangular set with pairwise distances < 1 found")

    order, certificates, pending = best
    changed = True
    while changed and pending:
        changed = False
        for u in sorted(pending):
            cert = reference_try_certificate(shape, pts, order, u)
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

    return tuple(order), tuple(certificates), tuple(sorted(pending))


# four face classes, each face a proper edge of the octagon
OCTAGON4 = PolygonShape([Vec2(F(1), F(0)), Vec2(F(0), F(1)), Vec2(F(2, 3), F(2, 3)), Vec2(F(2, 3), F(-2, 3))])
EQUIVALENCE_SHAPES = {
    "hexagon": HEX,
    "regular-hexagon": regular_hexagon(),
    "octagon4": OCTAGON4,
    "lp:2": LpShape(2),
}


@st.composite
def enumeration_problems(draw):
    """A shape, a point set of at most 36 points and a block size.

    Random samples, and subsets of a lattice of spacing 1/3 or 1/4: lattice
    points make exact distance ties and face ties.  Near-copies of a few
    lattice points, 2^-40 to 2^-29 away, add near-ties that the scalar rule
    decides either way (exactly in rational mode, within its tolerance in
    float) and differences so short that float projections lose them.
    """
    shape = EQUIVALENCE_SHAPES[draw(st.sampled_from(sorted(EQUIVALENCE_SHAPES)))]
    mode = draw(st.sampled_from(["float", "rational"]))
    block = draw(st.sampled_from([1, 7, 1 << 14]))
    cast = F if mode == "rational" else float
    if draw(st.booleans()):
        size = draw(st.sampled_from([F(1), F(3, 2), F(2)]))
        window = Window(cast(0), cast(0), cast(size), cast(size))
        ps = sample_poisson_window(
            window, draw(st.sampled_from([8.0, 15.0])), seed=draw(st.integers(0, 10**6)), mode=mode
        )
        if len(ps) > 36:
            ps = PointSet(ps.points[:36], window, ps.seed, mode)
        return shape, ps, block
    den = draw(st.sampled_from([3, 4]))
    side = 2 * den
    cells = draw(
        st.lists(st.integers(0, (side + 1) ** 2 - 1), min_size=3, max_size=32, unique=True)
    )
    pts = [(F(c % (side + 1), den), F(c // (side + 1), den)) for c in cells]
    for x, y in draw(st.lists(st.sampled_from(pts), max_size=4, unique=True)):
        # a near-copy of a lattice point, moved along one axis
        eps = F(draw(st.sampled_from([-1, 1])), 2 ** draw(st.sampled_from([29, 30, 40])))
        pts.append((x + eps, y) if draw(st.booleans()) else (x, y + eps))
    return shape, lattice_points(mode, pts), block


def lattice_points(mode, coords):
    cast = F if mode == "rational" else float
    pts = tuple(Vec2(cast(x), cast(y)) for x, y in coords)
    return PointSet(pts, Window(cast(-1), cast(-1), cast(3), cast(3)), 0, mode)


THIRD, EPS = F(1, 3), F(1, 2**29)


def enumeration_outcome(fn, points, shape):
    try:
        out = fn(points, shape)
    except AnchoringError as exc:
        return ("raises", str(exc))
    if isinstance(out, GoodEnumeration):
        return out.order, out.certificates, out.unplaced
    return out


# exact distance ties on the 1/3 lattice that float rounding breaks the
# wrong way for the walk's nearest target
@example(
    (
        LpShape(2),
        lattice_points(
            "float",
            [(0, 0), (1, 2 * THIRD), (THIRD, 0), (5 * THIRD, 0), (2 * THIRD, 0), (2 * THIRD, 4 * THIRD), (4 * THIRD, 2 * THIRD), (1, 0)],
        ),
        1,
    )
)
# a projection difference of 2^-29 that float error hides from a guard-free
# face class
@example(
    (
        regular_hexagon(),
        lattice_points(
            "float",
            [(0, 0), (THIRD, 0), (2 * THIRD, 0), (THIRD, 4 * THIRD), (0, 2), (1, 0), (0, 4 * THIRD), (THIRD, 4 * THIRD - EPS)],
        ),
        1,
    )
)
# a face the float table cannot tell apart but the scalar rule decides
@example((regular_hexagon(), lattice_points("float", [(0, 0), (THIRD, THIRD), (THIRD, 0), (0, -EPS), (THIRD - EPS, THIRD)]), 1))
@settings(max_examples=150, deadline=None)
@given(enumeration_problems())
def test_good_enumeration_matches_scalar_reference(problem):
    shape, ps, block = problem
    with mock.patch.object(larg, "_BLOCK_CELLS", block):
        got = enumeration_outcome(good_enumeration, ps, shape)
    assert got == enumeration_outcome(reference_good_enumeration, ps, shape)


# point sets with points no walk can place: a point in a window corner
# (rational and float), a point far from all others, and a float sample
# with a corner point whose first walk stalls with 111 of its 114 points
# pending, so that hopelessness must be judged against all other points,
# not against that walk's order.  The flag says whether a walk before the
# last leaves only hopeless points pending, so that the walks after it are
# skipped.
HOPELESS_CONFIGS = {
    "rational-corner": (lambda: rational_sample(2), True),
    "isolated": (
        lambda: PointSet(
            rational_sample(4).points + (Vec2(F(30), F(30)),), Window(F(0), F(0), F(31), F(31)), 0, "rational"
        ),
        False,
    ),
    "float-corner": (lambda: sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 120.0, seed=0), True),
    "float-corner-cluster": (lambda: sample_poisson_window(Window(0.0, 0.0, 1.0, 1.0), 120.0, seed=24), False),
}


@pytest.mark.parametrize("name", sorted(HOPELESS_CONFIGS))
def test_walks_that_cannot_win_are_skipped(name):
    # skipping the walks that cannot win leaves the output unchanged; once
    # a walk leaves only hopeless points pending, the certificate searches
    # stay within twice those of the busiest walk (each walk's searches have
    # its anchor as their order's first three points)
    make, skips = HOPELESS_CONFIGS[name]
    ps = make()
    calls = []
    try_certificate = anchoring._try_certificate

    def counted(shape, pts, cols, guard, order, target):
        calls.append(tuple(order[:3]))
        return try_certificate(shape, pts, cols, guard, order, target)

    with mock.patch.object(anchoring, "_try_certificate", counted):
        enum = good_enumeration(ps, HEX)
    assert enum.unplaced
    assert (enum.order, enum.certificates, enum.unplaced) == reference_good_enumeration(ps, HEX)
    if skips:
        assert len(calls) <= 2 * max(Counter(calls).values())
