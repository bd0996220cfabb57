"""Output checks for the benchmark's workloads.

Each check takes a result the program returned and returns a list of
problems; an empty list means the result is correct. The checks recompute
what they need on their own (edge coins, distances, floors, Wilson
intervals, fractional-part maps) rather than asking larg_lab, so a fault in
the program cannot hide behind the same fault in its check.
"""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

# float distances this close to a threshold may land on either side
AMBIGUOUS = 1e-9

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def pair_coins(edge_seed: int, us, vs) -> np.ndarray:
    """Uniform coin in [0, 1) of each pair u < v: splitmix64 keyed by the
    edge seed and both endpoints, the documented LARG edge stream."""
    a = np.asarray(us, dtype=np.uint64)
    b = np.asarray(vs, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(edge_seed & _MASK))
        h = _mix(h ^ ((a + np.uint64(1)) * np.uint64(_GOLD)))
        h = _mix(h ^ ((b + np.uint64(1)) * np.uint64(_GOLD)))
    return h / 2.0**64


def exact_distance(shape, x, y) -> Fraction:
    """Polygon distance max_a |a.(x - y)| in exact arithmetic; float inputs
    are taken at their exact binary values."""
    dx, dy = Fraction(x.x) - Fraction(y.x), Fraction(x.y) - Fraction(y.y)
    return max(abs(Fraction(a.x) * dx + Fraction(a.y) * dy) for a in shape.generators)


def check_graph(points, shape, p: float, edge_seed: int, edges, delta=1, chunk_cells=1 << 20):
    """Every edge is in range with coin < p, and every in-range pair with
    coin < p is an edge. Pairs are scanned in row chunks of about
    chunk_cells distances. Float distances within AMBIGUOUS of delta are
    decided exactly for exact point sets and accepted either way otherwise."""
    n = len(points)
    problems = []
    uv = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)).reshape(-1, 2)
    if len(uv) and not ((0 <= uv[:, 0]) & (uv[:, 0] < uv[:, 1]) & (uv[:, 1] < n)).all():
        return [f"an edge is not a pair u < v of the {n} vertices"]
    got = np.sort(uv[:, 0] * n + uv[:, 1])
    if (np.diff(got) == 0).any():
        return ["an edge is listed twice"]
    exact_points = all(not isinstance(c, float) for v in points for c in (v.x, v.y))
    arr = np.array([(float(v.x), float(v.y)) for v in points], dtype=float)
    if shape.kind == "polygonal":
        proj = (arr @ np.array([(float(g.x), float(g.y)) for g in shape.generators]).T).T

        def dist_rows(i0, i1):
            return np.maximum.reduce([np.abs(c[i0:i1, None] - c) for c in proj])

    else:
        q = shape.p

        def dist_rows(i0, i1):
            d = np.abs(arr[i0:i1, None, :] - arr[None, :, :])
            return (d**q).sum(axis=2) ** (1.0 / q)

    fdelta = float(delta)
    rows = max(1, chunk_cells // max(n, 1))
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        d = dist_rows(i0, i1)
        ii, jj = np.nonzero(d < fdelta + AMBIGUOUS)
        keep = jj > ii + i0
        ii, jj = ii[keep] + i0, jj[keep]
        dd = d[ii - i0, jj]
        coin = pair_coins(edge_seed, ii, jj) < p
        sure = dd < fdelta - AMBIGUOUS
        unsure = ~sure
        if exact_points and unsure.any():
            for k in np.nonzero(unsure)[0]:
                u, v = int(ii[k]), int(jj[k])
                sure[k] = exact_distance(shape, points[u], points[v]) < delta
            unsure[:] = False
        need = (ii[sure & coin] * n + jj[sure & coin]).astype(np.int64)
        allow = (ii[coin] * n + jj[coin]).astype(np.int64)
        if exact_points:
            allow = need
        lo, hi = np.searchsorted(got, [i0 * n, i1 * n])
        have = got[lo:hi]
        for c in _absent(need, have)[:3]:
            problems.append(f"missing edge ({c // n}, {c % n}): in range with coin < p")
        for c in _absent(have, allow)[:3]:
            problems.append(f"extra edge ({c // n}, {c % n}): out of range or coin >= p")
    return problems


def _absent(values, sorted_pool):
    """The entries of values that sorted_pool does not contain."""
    idx = np.minimum(np.searchsorted(sorted_pool, values), max(len(sorted_pool) - 1, 0))
    if not len(sorted_pool):
        return values
    return values[sorted_pool[idx] != values]


# ---------------------------------------------------------------------------
# decay rows


def wilson(successes: int, trials: int, z: float = 1.96):
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def read_decay_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {
                "n": int(r["n"]),
                "trials": int(r["trials"]),
                "successes": int(r["successes"]),
                "fraction": float(r["fraction"]),
                "ci_lo": float(r["ci_lo"]),
                "ci_hi": float(r["ci_hi"]),
                "paper_bound": float(r["paper_bound"]),
            }
            for r in reader
        ]


def check_decay_rows(rows, n_values, trials: int, p: float, k: int, recorded=None):
    """Rows cover n_values, counts are consistent and each fraction lies in
    its Wilson interval; when rows were recorded for this input, they match."""
    problems = []
    if [r["n"] for r in rows] != list(n_values):
        return [f"rows cover n = {[r['n'] for r in rows]}, expected {list(n_values)}"]
    p_star = p * p + (1 - p) * (1 - p)
    for r in rows:
        s, t = r["successes"], r["trials"]
        if t != trials or not 0 <= s <= t:
            problems.append(f"n={r['n']}: {s}/{t} successes with {trials} trials configured")
            continue
        lo, hi = wilson(s, t)
        if r["fraction"] != s / t:
            problems.append(f"n={r['n']}: fraction {r['fraction']} is not {s}/{t}")
        if not (math.isclose(r["ci_lo"], lo, abs_tol=1e-12) and math.isclose(r["ci_hi"], hi, abs_tol=1e-12)):
            problems.append(f"n={r['n']}: interval [{r['ci_lo']}, {r['ci_hi']}] is not Wilson's for {s}/{t}")
        if not r["ci_lo"] <= r["fraction"] <= r["ci_hi"]:
            problems.append(f"n={r['n']}: fraction outside its Wilson interval")
        bound = float(r["n"]) ** (2 * k + 2) * p_star ** (r["n"] - 1)
        if not math.isclose(r["paper_bound"], bound, rel_tol=1e-12):
            problems.append(f"n={r['n']}: reference bound {r['paper_bound']} is not {bound}")
    if recorded is not None and rows != recorded:
        problems.append("rows differ from those recorded for this seed")
    return problems


# ---------------------------------------------------------------------------
# step-isometries


def interleave(s):
    """The canonical fractional map: [0, 1/2] onto [0, 1/3] linearly, and
    [1/2, 1) onto [1/3, 1)."""
    if s < Fraction(1, 2):
        return s * Fraction(2, 3)
    return Fraction(1, 3) + (s - Fraction(1, 2)) * Fraction(4, 3)


def box_image(shape, v):
    """Image of v under the canonical box-product map of a box shape."""
    a1, a2 = shape.generators
    w = []
    for a in (a1, a2):
        u = a.dot(v)
        fl = math.floor(u)
        w.append(fl + interleave(u - fl))
    den = a1.cross(a2)
    return ((w[0] * a2.y - w[1] * a1.y) / den, (a1.x * w[1] - a2.x * w[0]) / den)


def check_box_map(pmap, shape, sample: int = 200):
    """Spot-check images against the box-product formula: exact data must
    match exactly, float data to 1e-9."""
    pts, ims = pmap.domain.points, pmap.images
    step = max(1, len(pts) // sample)
    for i in range(0, len(pts), step):
        x, y = box_image(shape, pts[i])
        w = ims[i]
        if isinstance(w.x, float) or isinstance(w.y, float):
            if abs(float(x) - w.x) > 1e-9 or abs(float(y) - w.y) > 1e-9:
                return [f"image {i} is ({w.x}, {w.y}), expected ({float(x)}, {float(y)})"]
        elif (x, y) != (w.x, w.y):
            return [f"image {i} is ({w.x}, {w.y}), expected ({x}, {y})"]
    return []


def check_step_pass(verdict, n: int):
    """A map that is a step-isometry passes with every pair checked."""
    want = n * (n - 1) // 2
    if not verdict.ok or verdict.checked != want:
        return [f"verdict ok={verdict.ok} after {verdict.checked} pairs; expected ok after {want}"]
    return []


def check_witness(verdict, pmap, shape, truncate: bool):
    """A failing verdict names a pair whose (truncated) distances really
    differ, recomputed exactly, with the verdict's two values; for float
    data the earlier pairs of the witness row must agree."""
    if verdict.ok or verdict.witness is None:
        return ["map passed, but it is not a step-isometry / isometry under this shape"]
    i, j = verdict.witness
    pts, ims = pmap.domain.points, pmap.images
    if not 0 <= i < j < len(pts):
        return [f"witness {verdict.witness} is not a pair i < j"]
    left = exact_distance(shape, pts[i], pts[j])
    right = exact_distance(shape, ims[i], ims[j])
    if truncate:
        left, right = math.floor(left), math.floor(right)
    if left == right:
        return [f"witness {verdict.witness} keeps its value {left}"]
    got = (verdict.left, verdict.right)
    if any(isinstance(v, float) for v in got):
        same = all(math.isclose(float(g), float(w), rel_tol=1e-12) for g, w in zip(got, (left, right)))
    else:
        same = (Fraction(got[0]), Fraction(got[1])) == (left, right)
    if not same:
        return [f"witness values {verdict.left}, {verdict.right} are not {left}, {right}"]
    if truncate and isinstance(pts[0].x, float):
        gens = np.array([(float(a.x), float(a.y)) for a in shape.generators])
        dom = np.array([p.to_floats() for p in pts[i : j + 1]]) @ gens.T
        img = np.array([p.to_floats() for p in ims[i : j + 1]]) @ gens.T
        dd = np.abs(dom[0] - dom[1:-1]).max(axis=1)
        di = np.abs(img[0] - img[1:-1]).max(axis=1)
        clear = (np.abs(dd - np.rint(dd)) > AMBIGUOUS) & (np.abs(di - np.rint(di)) > AMBIGUOUS)
        bad = np.nonzero(clear & (np.floor(dd) != np.floor(di)))[0]
        if bad.size:
            return [f"pair ({i}, {i + 1 + int(bad[0])}) fails before the witness {verdict.witness}"]
    return []


# ---------------------------------------------------------------------------
# grids


def _floor(x) -> int:
    """Exact floor, read from the float value when that is far from an integer."""
    f = float(x)
    if abs(f - round(f)) > 1e-6:
        return math.floor(f)
    return math.floor(x)


def _ceil(x) -> int:
    return -_floor(-x)


def check_grid(family, base, window, depth: int):
    """Levels hold distinct lines, and every integer parallel of a line that
    lies within the window of a base projection is in the family."""
    lines = [ell for lv in family.levels for ell in lv]
    if len(family.levels) != depth + 1:
        return [f"{len(family.levels)} levels for depth {depth}"]
    have = {(ell.normal, ell.offset) for ell in lines}
    if len(have) != len(lines):
        return ["a line appears twice"]
    for ell in lines:
        a, c = ell.normal, ell.offset
        for b in base:
            pb = a.dot(b)
            for z in range(_ceil(pb - window - c), _floor(pb + window - c) + 1):
                if (a, c + z) not in have:
                    return [f"line {a.x},{a.y} at offset {float(c + z):.6f} missing beside offset {float(c):.6f}"]
    return []


def frac(x):
    return x - math.floor(x)


def check_dense_offsets(offsets_by_normal, shift_by_normal, r, reach: int = 3):
    """Offsets mod 1 along each normal contain shift + z1*r + z2, |z| <= reach."""
    for a, offsets in offsets_by_normal.items():
        got = set(offsets)
        for z1 in range(-reach, reach + 1):
            for z2 in range(-reach, reach + 1):
                want = frac(shift_by_normal[a] + z1 * r + z2)
                if want not in got:
                    return [f"offset {float(want):.6f} = frac(shift + {z1}r + {z2}) missing along {a}"]
    return []


def check_rational_offsets(offsets_by_normal, shift_by_normal, den: int):
    """Offsets mod 1 along each normal stay in shift + {0, 1/den, ...}."""
    for a, offsets in offsets_by_normal.items():
        allowed = {frac(shift_by_normal[a] + Fraction(k, den)) for k in range(den)}
        extra = set(offsets) - allowed
        if extra:
            return [f"offsets {sorted(float(x) for x in extra)[:3]} along {a} leave the 1/{den} lattice"]
    return []


# ---------------------------------------------------------------------------
# box search


def check_box_demo(payload: dict, trials: int):
    """Outcome counts add up and agree with the outcome list."""
    outcomes = payload.get("outcomes", [])
    counts = (payload.get("found"), payload.get("none"), payload.get("undetermined"))
    if payload.get("trials") != trials or len(outcomes) != trials:
        return [f"{payload.get('trials')} trials and {len(outcomes)} outcomes, expected {trials}"]
    if sum(counts) != trials:
        return [f"found + none + undetermined = {sum(counts)}, expected {trials}"]
    tally = tuple(outcomes.count(k) for k in ("isomorphic", "none", "undetermined"))
    if tally != counts:
        return [f"outcome list tallies {tally}, counts say {counts}"]
    if payload["success_rate"] != payload["found"] / trials:
        return ["success rate is not found / trials"]
    return []


def check_isomorphism(outcome, G, H, points, shape):
    """An "isomorphic" result carries a bijection that keeps adjacency and
    every projection floor; other outcomes carry no mapping."""
    status, mapping = outcome
    if status not in ("isomorphic", "none", "undetermined"):
        return [f"unknown outcome {status!r}"]
    if status != "isomorphic":
        return [] if mapping is None else [f"outcome {status!r} carries a mapping"]
    n = len(points)
    if mapping is None or sorted(mapping) != list(range(n)):
        return ["isomorphic outcome without a bijection of the vertices"]
    ge, he = set(G.edges), set(H.edges)
    proj = [[a.dot(v) for v in points.points] for a in shape.generators]
    for u in range(n):
        for v in range(u + 1, n):
            wu, wv = mapping[u], mapping[v]
            if ((u, v) in ge) != ((min(wu, wv), max(wu, wv)) in he):
                return [f"pair ({u}, {v}) changes adjacency under the mapping"]
            for pr in proj:
                if math.floor(pr[u] - pr[v]) != math.floor(pr[wu] - pr[wv]):
                    return [f"pair ({u}, {v}) changes a projection floor under the mapping"]
    return []
