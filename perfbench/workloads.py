"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed in ``setup`` (point
sets and config files; this is the set-up time), runs one closed-loop pass
over larg_lab's public entry points in ``run``, and checks every result in
``check``. The two experiments go through ``larg_lab.cli.main`` exactly as
``larg-lab experiment ...`` runs them; everything else calls the library.

Sizes are chosen so one pass takes a few seconds on a 2-core machine; the
notes beside this file give the reasons for each.
"""

import contextlib
import io
import json
import math
import os
import random
import time
import traceback
from collections import defaultdict
from fractions import Fraction

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


class Ledger:
    """Operations of one pass: outcome and wall time of each call."""

    def __init__(self):
        self.errors = {}
        self.seconds = defaultdict(float)

    def call(self, op: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted in error_rate
            self.errors[op] = traceback.format_exc(limit=3)
            return None
        finally:
            self.seconds[op] += time.perf_counter() - t0
            self.errors.setdefault(op, None)


def cli(lib, argv):
    """Run ``larg-lab argv`` in this process; raise unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"larg-lab {' '.join(argv)} exited {code}: {err.getvalue()[-500:]}")
    return out.getvalue()


def seed_with_count(rng: random.Random, expected: float, slack: float) -> int:
    """A sampler seed whose Poisson point count lies within slack of its mean.

    sample_poisson_window draws its count first from numpy's default_rng(seed),
    so the count is known without sampling. Holding n steady keeps the O(n^2)
    parts of a pass from swinging with the seed.
    """
    while True:
        s = rng.randrange(1, 2**31)
        if abs(int(np.random.default_rng(s).poisson(expected)) - expected) <= slack * expected:
            return s


def first_points(lib, window, n: int, seed: int, mode: str):
    """The first n points of a Poisson sample: n points uniform in the window.

    The sample's mean count exceeds n by six standard deviations, so it
    never comes up short.
    """
    mean = n + 6 * math.sqrt(n) + 10
    raw = lib.pointsets.sample_poisson_window(window, mean / float(window.area()), seed=seed, mode=mode)
    if len(raw) < n:
        raise RuntimeError(f"sample has {len(raw)} points, fewer than {n}")
    return lib.pointsets.PointSet(raw.points[:n], raw.window, raw.seed, mode=mode)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------------


class Decay:
    """``larg-lab experiment decay``: rational hexagon, exhaustive anchors."""

    name = "decay"
    n_values = (3, 4, 5, 10, 20, 40)
    trials = 500
    intensity = 120.0
    p = 0.5

    def setup(self, lib, seed: int, outdir: str) -> dict:
        rng = random.Random(f"decay:{seed}")
        cfg = {
            "shape": "hexagon",
            "window": [0, 0, 1, 1],
            "intensity": self.intensity,
            "mode": "rational",
            "n_values": list(self.n_values),
            "p": self.p,
            "trials": self.trials,
            "base_seed": seed_with_count(rng, self.intensity, 0.02),
            "anchor_policy": "exhaustive",
        }
        path = os.path.join(outdir, "decay-config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return {"seed": seed, "config": path, "csv": os.path.join(outdir, "decay-rows.csv")}

    def run(self, lib, inp: dict, ledger: Ledger) -> dict:
        argv = ["experiment", "decay", "--config", inp["config"], "--out", inp["csv"]]
        ledger.call("decay", cli, lib, argv)
        return {}

    def check(self, lib, inp: dict, res: dict) -> dict:
        problems = []
        recorded = None
        with open(os.path.join(HERE, "expected_decay.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        if inp["seed"] == expected["seed"]:
            with open(inp["config"], encoding="utf-8") as fh:
                if json.load(fh) != expected["config"]:
                    problems.append("expected_decay.json was recorded for another config")
            recorded = expected["rows"]
        rows = checks.read_decay_csv(inp["csv"])
        return {"decay": problems + checks.check_decay_rows(rows, self.n_values, self.trials, self.p, 3, recorded)}

    def rates(self, inp: dict, res: dict, ledger: Ledger) -> dict:
        comparisons = len(self.n_values) * self.trials
        return {"decay.trials_per_s": _rate(comparisons, ledger.seconds["decay"])}


class FloatScale:
    """Float-mode graphs, float enumeration and float step-isometry checks."""

    name = "float-scale"
    graph_n = 2000
    dense_side = 1.5  # about 32% of pairs in range under the hexagon
    sparse_side = 3.0  # about 12% in range: same n, same n^2 kernel cost
    enum_n, enum_side = 120, 1.0
    map_n, map_side = 4000, 50.0

    def setup(self, lib, seed: int, outdir: str) -> dict:
        rng = random.Random(f"float-scale:{seed}")
        W = lib.pointsets.Window
        seeds = [rng.randrange(1, 2**31) for _ in range(8)]
        dense = first_points(lib, W(0.0, 0.0, self.dense_side, self.dense_side), self.graph_n, seeds[0], "float")
        sparse = first_points(lib, W(0.0, 0.0, self.sparse_side, self.sparse_side), self.graph_n, seeds[1], "float")
        enum_pts = first_points(lib, W(0.0, 0.0, self.enum_side, self.enum_side), self.enum_n, seeds[2], "float")
        map_pts = first_points(lib, W(0.0, 0.0, self.map_side, self.map_side), self.map_n, seeds[3], "float")
        return {
            "dense": dense,
            "sparse": sparse,
            "enum": enum_pts,
            "map": decidable_subset(lib, map_pts),
            "edge_seeds": seeds[4:7],
            "hexagon": lib.geometry.rational_hexagon(),
            "lp2": lib.experiments.shape_from_spec("lp:2"),
            "square": lib.geometry.square_linf(),
            "regular": lib.geometry.regular_hexagon(),
        }

    def run(self, lib, inp: dict, ledger: Ledger) -> dict:
        sample = lib.larg.sample_larg
        s1, s2, s3 = inp["edge_seeds"]
        res = {
            "dense": ledger.call("graph.dense", sample, inp["dense"], inp["hexagon"], 1, 0.5, edge_seed=s1),
            "sparse": ledger.call("graph.sparse", sample, inp["sparse"], inp["hexagon"], 1, 0.5, edge_seed=s2),
            "lp2": ledger.call("graph.lp2", sample, inp["dense"], inp["lp2"], 1, 0.5, edge_seed=s3),
        }
        enum = ledger.call("enum", lib.anchoring.good_enumeration, inp["enum"], inp["hexagon"])
        if enum is not None:
            ledger.call("enum", lib.anchoring.validate_good_enumeration, enum)
        res["enum"] = enum
        g = lib.stepiso.canonical_interleaving()
        pmap = ledger.call("map", lib.stepiso.box_product_point_map, inp["map"], inp["square"], g, g)
        res["map"] = pmap
        if pmap is not None:
            res["step.square"] = ledger.call("step.square", lib.stepiso.is_step_isometry, pmap, inp["square"])
            res["step.hexagon"] = ledger.call("step.hexagon", lib.stepiso.is_step_isometry, pmap, inp["regular"])
        return res

    def check(self, lib, inp: dict, res: dict) -> dict:
        out = {}
        for op, key, shape, seed in (
            ("graph.dense", "dense", "hexagon", 0),
            ("graph.sparse", "sparse", "hexagon", 1),
            ("graph.lp2", "dense", "lp2", 2),
        ):
            G = res[op.split(".")[1]]
            pts = inp[key].points
            out[op] = checks.check_graph(pts, inp[shape], 0.5, inp["edge_seeds"][seed], G.edges)
        enum = res["enum"]
        if len(enum.order) + len(enum.unplaced) != len(inp["enum"]):
            out["enum"] = ["order and unplaced do not cover the point set"]
        else:
            out["enum"] = []
        pmap = res["map"]
        out["map"] = checks.check_box_map(pmap, inp["square"])
        out["step.square"] = checks.check_step_pass(res["step.square"], len(pmap))
        out["step.hexagon"] = checks.check_witness(res["step.hexagon"], pmap, inp["regular"], truncate=True)
        return out

    def rates(self, inp: dict, res: dict, ledger: Ledger) -> dict:
        edges = sum(len(res[k].edges) for k in ("dense", "sparse", "lp2") if res.get(k) is not None)
        t_graph = sum(ledger.seconds[f"graph.{k}"] for k in ("dense", "sparse", "lp2"))
        verdicts = [res[k] for k in ("step.square", "step.hexagon") if res.get(k) is not None]
        t_step = ledger.seconds["step.square"] + ledger.seconds["step.hexagon"]
        return {
            "graph.edges_per_s": _rate(edges, t_graph),
            "stepiso.pairs_per_s": _rate(sum(v.checked for v in verdicts), t_step),
        }


def decidable_subset(lib, points, guard: float = 1e-7):
    """Drop the later point of every pair whose sup distance, before or after
    the canonical box-product map, lies within guard of an integer, and of
    every pair in the first two rows whose regular-hexagon distance does.

    The float lane of is_step_isometry refuses such pairs by design; about
    3% of 4000-point samples contain one. Removing them keeps every
    operation decidable without changing what the lane computes.
    """
    arr = np.array([p.to_floats() for p in points.points])

    def g(x):
        fl = np.floor(x)
        s = x - fl
        return fl + np.where(s < 0.5, s * (2.0 / 3.0), 1.0 / 3.0 + (s - 0.5) * (4.0 / 3.0))

    drop = set()
    rows = max(1, (1 << 20) // len(arr))
    for coords in (arr, g(arr)):
        x, y = coords[:, 0], coords[:, 1]
        for i0 in range(0, len(arr), rows):
            d = np.maximum(np.abs(x[i0 : i0 + rows, None] - x), np.abs(y[i0 : i0 + rows, None] - y))
            d -= np.rint(d)
            ii, jj = np.nonzero(np.abs(d) < guard)
            drop.update(int(j) for i, j in zip(ii + i0, jj) if j > i)
    kept = np.array([k for k in range(len(arr)) if k not in drop])
    th = np.arange(3) * math.pi / 3.0
    hexa = np.stack([np.cos(th), np.sin(th)], axis=1)
    for coords in (arr[kept], g(arr[kept])):
        proj = coords @ hexa.T
        for i in (0, 1):
            d = np.abs(proj[i] - proj[i + 1 :]).max(axis=1)
            drop.update(int(kept[i + 1 + k]) for k in np.nonzero(np.abs(d - np.rint(d)) < guard)[0])
    if not drop:
        return points
    keep = tuple(p for k, p in enumerate(points.points) if k not in drop)
    return lib.pointsets.PointSet(keep, points.window, points.seed, mode=points.mode)


class ExactBox:
    """Exact lanes: rational graphs, box maps, grids and box searches."""

    name = "exact-box"
    box_n, box_side = 1200, 20
    hex_n, hex_side = 200, 2
    grid_depth, grid_window = 6, 2
    third_depth, third_window = 6, 5
    demo_trials, demo_budget = 6, 5000
    demo06_trials, demo06_budget = 12, 4000
    bf_trials, bf_budget = 4, 5000

    def setup(self, lib, seed: int, outdir: str) -> dict:
        rng = random.Random(f"exact-box:{seed}")
        F = Fraction
        W = lib.pointsets.Window
        V = lib.geometry.Vec2
        seeds = [rng.randrange(1, 2**31) for _ in range(6)]
        hexagon = lib.geometry.rational_hexagon()
        t = V(F(rng.randrange(1, 13), 13), F(rng.randrange(1, 13), 13))
        r = lib.exact.SqrtExt(-1, 1, 2)  # sqrt(2) - 1
        demo = {
            "shape": "square",
            "window": ["0", "0", "3/2", "3/2"],
            "intensity": 64 / 2.25,
            "seed": seed_with_count(rng, 64.0, 0.03),
            "alpha_seed": seeds[4],
            "mode": "rational",
            "p": 0.5,
            "trials": self.demo_trials,
            "budget": self.demo_budget,
        }
        demo06 = {
            "shape": "box:2,0;0,2",
            "window": ["0", "0", "2", "2"],
            "intensity": 3.0,
            "seed": seed_with_count(rng, 12.0, 0.1),
            "alpha_seed": seeds[5],
            "mode": "rational",
            "p": 0.5,
            "trials": self.demo06_trials,
            "budget": self.demo06_budget,
        }
        paths = {}
        for key, cfg in (("demo", demo), ("demo06", demo06)):
            paths[key] = os.path.join(outdir, f"box-{key}-config.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        # the points the box demo draws, for the hexagon search over them
        square = lib.geometry.square_linf()
        raw = lib.pointsets.sample_poisson_window(
            W(F(0), F(0), F(3, 2), F(3, 2)), demo["intensity"], seed=demo["seed"], mode="rational"
        )
        _, bf_points = lib.pointsets.rescale_to_idf(raw, square.generators, seed=demo["alpha_seed"])
        return {
            "box": lib.geometry.box_shape(V(F(1), F(0)), V(F(1), F(2))),
            "box_window": W(F(0), F(0), F(self.box_side), F(self.box_side)),
            "box_seed": seeds[0],
            "alpha_seed": seeds[1],
            "hexagon": hexagon,
            "hex_points": first_points(lib, W(F(0), F(0), F(self.hex_side), F(self.hex_side)), self.hex_n, seeds[2], "rational"),
            "hex_seed": seeds[3],
            "shift": t,
            "r": r,
            "grid_base": (t, t + V(r, F(0))),
            "third_base": (t, t + V(F(1, 3), F(0))),
            "demo": paths["demo"],
            "demo06": paths["demo06"],
            "demo_out": os.path.join(outdir, "box-demo.json"),
            "demo06_out": os.path.join(outdir, "box-demo06.json"),
            "bf_points": bf_points,
            "bf_seeds": [rng.randrange(1, 2**31) for _ in range(2 * self.bf_trials)],
        }

    def run(self, lib, inp: dict, ledger: Ledger) -> dict:
        res = {}
        box = inp["box"]
        pts = ledger.call("box.sample", first_points, lib, inp["box_window"], self.box_n, inp["box_seed"], "rational")
        if pts is not None:
            scaled = ledger.call("box.rescale", lib.pointsets.rescale_to_idf, pts, box.generators, seed=inp["alpha_seed"])
            res["box.rescale"] = scaled
            if scaled is not None:
                g = lib.stepiso.canonical_interleaving()
                pmap = ledger.call("box.map", lib.stepiso.box_product_point_map, scaled[1], box, g, g)
                res["box.map"] = pmap
                if pmap is not None:
                    res["box.step"] = ledger.call("box.step", lib.stepiso.is_step_isometry, pmap, box)
                    res["box.iso"] = ledger.call("box.iso", lib.stepiso.is_isometry, pmap, box)
        res["hex.graph"] = ledger.call(
            "hex.graph", lib.larg.sample_larg, inp["hex_points"], inp["hexagon"], 1, 0.5, edge_seed=inp["hex_seed"]
        )
        gens = inp["hexagon"].generators
        for op, base, depth, window in (
            ("grid.sqrt", inp["grid_base"], self.grid_depth, self.grid_window),
            ("grid.third", inp["third_base"], self.third_depth, self.third_window),
        ):
            fam = ledger.call(op, lib.grids.generate_grid, base, gens, depth, window)
            res[op] = fam
            if fam is not None:
                res[op + ".offsets"] = ledger.call(
                    op + ".offsets", lambda f: {a: lib.grids.grid_offsets(f, a) for a in gens}, fam
                )
        for op in ("demo", "demo06"):
            ledger.call(op, cli, lib, ["experiment", "box-demo", "--config", inp[op], "--out", inp[op + "_out"]])
        outcomes = []
        seeds = inp["bf_seeds"]
        for k in range(self.bf_trials):
            G = ledger.call("bf.graph", lib.larg.sample_larg, inp["bf_points"], inp["hexagon"], 1, 0.5, edge_seed=seeds[2 * k])
            H = ledger.call("bf.graph", lib.larg.sample_larg, inp["bf_points"], inp["hexagon"], 1, 0.5, edge_seed=seeds[2 * k + 1])
            if G is not None and H is not None:
                found = ledger.call(
                    "bf", lib.experiments.back_and_forth_isomorphism, G, H, inp["bf_points"], inp["hexagon"], self.bf_budget
                )
                outcomes.append((found, G, H))
        res["bf"] = outcomes
        return res

    def check(self, lib, inp: dict, res: dict) -> dict:
        out = {}
        alpha, scaled = res["box.rescale"]
        box = inp["box"]
        problems = []
        if len(scaled) != self.box_n:
            problems.append(f"{len(scaled)} points after rescaling, expected {self.box_n}")
        for a in box.generators:
            fracs = {checks.frac(a.dot(v)) for v in scaled.points}
            if len(fracs) != len(scaled):
                problems.append(f"projections on {a} are not integer-difference-free")
        out["box.rescale"] = problems
        pmap = res["box.map"]
        out["box.map"] = checks.check_box_map(pmap, box)
        out["box.step"] = checks.check_step_pass(res["box.step"], len(pmap))
        out["box.iso"] = checks.check_witness(res["box.iso"], pmap, box, truncate=False)
        pts = inp["hex_points"]
        out["hex.graph"] = checks.check_graph(pts.points, inp["hexagon"], 0.5, inp["hex_seed"], res["hex.graph"].edges)
        gens = inp["hexagon"].generators
        t, r = inp["shift"], inp["r"]
        shift = {a: a.dot(t) for a in gens}
        out["grid.sqrt"] = checks.check_grid(res["grid.sqrt"], inp["grid_base"], self.grid_window, self.grid_depth)
        out["grid.sqrt"] += checks.check_dense_offsets(res["grid.sqrt.offsets"], shift, r)
        out["grid.third"] = checks.check_grid(res["grid.third"], inp["third_base"], self.third_window, self.third_depth)
        out["grid.third"] += checks.check_rational_offsets(res["grid.third.offsets"], shift, 3)
        for op, trials in (("demo", self.demo_trials), ("demo06", self.demo06_trials)):
            with open(inp[op + "_out"], encoding="utf-8") as fh:
                out[op] = checks.check_box_demo(json.load(fh), trials)
        with open(inp["demo_out"], encoding="utf-8") as fh:
            if json.load(fh)["n"] != len(inp["bf_points"]):
                out["demo"].append("box demo sampled a different point set")
        problems = []
        if len(res["bf"]) != self.bf_trials:
            problems.append(f"{len(res['bf'])} searches, expected {self.bf_trials}")
        for found, G, H in res["bf"]:
            problems += checks.check_isomorphism(found, G, H, inp["bf_points"], inp["hexagon"])
        out["bf"] = problems
        return out

    def rates(self, inp: dict, res: dict, ledger: Ledger) -> dict:
        graphs = [res.get("hex.graph")] + [x for _, G, H in res.get("bf", ()) for x in (G, H)]
        step = [res[k] for k in ("box.step",) if res.get(k) is not None]
        lines = sum(len(res[k]) for k in ("grid.sqrt", "grid.third") if res.get(k) is not None)
        t_grid = ledger.seconds["grid.sqrt"] + ledger.seconds["grid.third"]
        return {
            "graph.edges_per_s": _rate(
                sum(len(G.edges) for G in graphs if G is not None),
                ledger.seconds["hex.graph"] + ledger.seconds["bf.graph"],
            ),
            "stepiso.pairs_per_s": _rate(sum(v.checked for v in step), ledger.seconds["box.step"]),
            "box.trials_per_s": _rate(
                self.demo_trials + self.demo06_trials, ledger.seconds["demo"] + ledger.seconds["demo06"]
            ),
            "grid.lines_per_s": _rate(lines, t_grid),
        }


WORKLOADS = {w.name: w for w in (Decay(), FloatScale(), ExactBox())}
