"""Spans and counters recorded around the calls into larg_lab's layers.

Each larg_lab module looks its callees up in its own namespace at call time,
so replacing ``experiments.distance`` with a timing wrapper times every
distance call that ``experiments`` makes, and replacing ``larg.sample_larg``
times the benchmark's own direct calls. Nothing in larg_lab is edited: the
wrappers live only in the processes that install them.

A span records its name, start, end, parent span, pass id and thread id.
Decay trials run on pool threads; a span opened on a thread with no open
span of its own takes the main thread's innermost open span as its parent.
"""

import itertools
import json
import threading
import time
from collections import defaultdict
from fractions import Fraction

# span name -> the (module, attribute) sites it wraps; the layer is the
# part of the name before the first dot
SPAN_SITES = {
    "cli.main": [("cli", "main")],
    "pointsets.sample": [
        ("pointsets", "sample_poisson_window"),
        ("cli", "sample_poisson_window"),
        ("experiments", "sample_poisson_window"),
    ],
    "pointsets.rescale": [("pointsets", "rescale_to_idf"), ("cli", "rescale_to_idf")],
    "pointsets.is_idf": [("pointsets", "is_idf"), ("experiments", "is_idf")],
    "geometry.distance": [
        (m, "distance") for m in ("larg", "anchoring", "experiments", "stepiso", "pointsets")
    ],
    "larg.sample": [("larg", "sample_larg"), ("experiments", "sample_larg")],
    "larg.coins": [("larg", "pair_uniform_array"), ("experiments", "pair_uniform_array")],
    "anchoring.enumerate": [("anchoring", "good_enumeration"), ("experiments", "good_enumeration")],
    "anchoring.validate": [
        ("anchoring", "validate_good_enumeration"),
        ("experiments", "validate_good_enumeration"),
    ],
    "experiments.decay": [
        ("experiments", "run_decay_experiment"),
        ("cli", "run_decay_experiment"),
    ],
    "experiments.pair_check": [("experiments", "partial_isomorphism_exists")],
    "experiments.bf": [("experiments", "back_and_forth_isomorphism")],
    "experiments.box_demo": [
        ("experiments", "box_isomorphism_demo"),
        ("cli", "box_isomorphism_demo"),
    ],
    "stepiso.map": [("stepiso", "box_product_point_map")],
    "stepiso.check": [("stepiso", "is_step_isometry")],
    "stepiso.iso": [("stepiso", "is_isometry")],
    "grids.generate": [("grids", "generate_grid")],
    "grids.offsets": [("grids", "grid_offsets")],
}

# counter name -> sites whose calls are counted but not timed; these are
# called too often for a span each
COUNT_SITES = {
    "exact.floor_calls": [
        ("experiments", "exact_floor"),
        ("experiments", "guarded_floor"),
        ("grids", "exact_floor"),
    ],
    "anchoring.determining_generator_calls": [("anchoring", "determining_generator")],
}

LAYERS = ("exact", "geometry", "pointsets", "larg", "anchoring", "stepiso", "grids", "experiments", "cli")


def step_lane(args) -> str:
    """The lane is_step_isometry takes: floats anywhere select the float
    lane, int/Fraction data the integer lane, other exact data the exact one."""
    pmap, shape = args[0], args[1]
    if shape.kind != "polygonal":
        return "float"
    vecs = list(pmap.domain.points) + list(pmap.images) + list(shape.generators)
    coords = [c for v in vecs for c in (v.x, v.y)]
    if any(isinstance(c, float) for c in coords):
        return "float"
    if all(isinstance(c, (int, Fraction)) for c in coords):
        return "integer"
    return "exact"


def _grid_base_kind(args) -> str:
    coords = [c for v in args[0] for c in (v.x, v.y)]
    if all(isinstance(c, (int, Fraction)) for c in coords):
        return "fraction"
    return "sqrtext"


# span name -> fn(args, result) giving the span's attributes
def _attrs_sample(args, r):
    return {"points": len(r)}


def _attrs_larg(args, r):
    return {"edges": len(r.edges), "pairs_all": r.n * (r.n - 1) // 2}


def _attrs_coins(args, r):
    return {"coins": len(r)}


def _attrs_enum(args, r):
    return {"placed": len(r.order), "unplaced": len(r.unplaced)}


def _attrs_bf(args, r):
    return {"outcome": r[0]}


def _attrs_check(args, r):
    return {"lane": step_lane(args), "pairs": r.checked}


def _attrs_grid(args, r):
    return {"base": _grid_base_kind(args), "lines": len(r)}


ATTRS = {
    "pointsets.sample": _attrs_sample,
    "larg.sample": _attrs_larg,
    "larg.coins": _attrs_coins,
    "anchoring.enumerate": _attrs_enum,
    "experiments.bf": _attrs_bf,
    "stepiso.check": _attrs_check,
    "grids.generate": _attrs_grid,
}


class Tracer:
    """In-memory span and counter store for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.on = False
        self.spans = []  # (id, name, start, end, parent, thread, attrs)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._boundary_error = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] += k

    def install(self, lib) -> None:
        """Wrap every site in SPAN_SITES and COUNT_SITES that larg_lab has."""
        self._boundary_error = lib.exact.BoundaryAmbiguityError
        wrappers = {}
        for name, sites in SPAN_SITES.items():
            for mod, attr in sites:
                module = getattr(lib, mod)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                key = (name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self._span_wrapper(name, fn)
                setattr(module, attr, wrappers[key])
        for name, sites in COUNT_SITES.items():
            for mod, attr in sites:
                module = getattr(lib, mod)
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self._count_wrapper(name, fn))

    def _count_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            if self.on:
                self.count(name)
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        attrs_fn = ATTRS.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            attrs = None
            # the decay call's CPU time over its wall time shows what the pool buys
            cpu0 = time.process_time() if name == "experiments.decay" else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except self._boundary_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.count("exact.boundary_refusals")
                raise
            finally:
                t1 = clock()
                stack.pop()
            if attrs_fn is not None:
                attrs = attrs_fn(args, result)
            if cpu0 is not None:
                attrs = {"cpu_s": time.process_time() - cpu0}
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), attrs))
            return result

        return spanned

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, tid, attrs in self.spans:
                rec = {
                    "id": sid,
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "pass": self.pass_id,
                    "thread": tid,
                }
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
            for name, k in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "value": k, "pass": self.pass_id}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# span attributes that add up over a pass
_SUMMED = ("points", "edges", "pairs_all", "coins", "placed", "unplaced")


def summarize(spans, counts) -> dict:
    """Per-pass layer figures: self time per layer and span, call durations,
    and the counters carried by span attributes."""
    children = defaultdict(list)
    for sid, name, t0, t1, parent, tid, attrs in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    span_self = defaultdict(float)
    durations = defaultdict(list)
    totals = defaultdict(float, dict.fromkeys(_SUMMED, 0))
    for sid, name, t0, t1, parent, tid, attrs in spans:
        own = (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        layer_self[name.split(".")[0]] += own
        span_self[name] += own
        key = name
        attrs = attrs or {}
        if name == "stepiso.check":
            key = f"stepiso.check.{attrs['lane']}"
            totals[f"pairs.{attrs['lane']}"] += attrs["pairs"]
        elif name == "grids.generate":
            key = f"grids.generate.{attrs['base']}"
            totals["lines"] += attrs["lines"]
        elif name == "experiments.bf":
            totals[f"bf.{attrs['outcome']}"] += 1
        elif name == "experiments.decay":
            totals["decay_cpu_s"] += attrs["cpu_s"]
            totals["decay_wall_s"] += t1 - t0
        for field in _SUMMED:
            if field in attrs:
                totals[field] += attrs[field]
        durations[key].append(t1 - t0)
    return {
        "layer_self_s": layer_self,
        "span_self_s": dict(span_self),
        "durations": dict(durations),
        "totals": dict(totals),
        "counts": dict(counts),
    }
