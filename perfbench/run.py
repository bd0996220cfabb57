"""Benchmark for larg_lab: one workload, run for a fixed time, checked.

    python3 perfbench/run.py --workload decay|float-scale|exact-box \
        --seed N --seconds S --trace 0|1

Closed loop: passes run one after another, each in a fresh worker process
(perfbench/worker.py) on the same inputs made from the seed, until S
seconds have passed. With --trace 0 every pass is untraced and the
end-to-end metrics are medians over passes. With --trace 1 traced and
untraced passes alternate; the traced ones give the per-layer metrics, the
untraced ones the workload rates and the tracing overhead.

Prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 if an output check failed
and 2 if the benchmark could not run at all (no larg_lab sources).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("decay", "float-scale", "exact-box")
DEADLINE_S = 170.0

# setup_s and cpu_s are CPU seconds. Wall times are reported but carry no
# bound: under host load the decay pool's two threads stretch wall time by
# up to half, and import time doubles, far more than CPU time moves.
END_TO_END = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
PASS_FIGURES = [("setup_s", "s"), ("setup_wall_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

RATES = [
    ("error_rate", "ratio"),
    ("decay.trials_per_s", "1/s"),
    ("graph.edges_per_s", "1/s"),
    ("stepiso.pairs_per_s", "1/s"),
    ("box.trials_per_s", "1/s"),
    ("grid.lines_per_s", "1/s"),
]

# span key -> metric stem; each gives <stem>.p50, <stem>.tail and a call count
TIMED = {
    "pointsets.sample": "pointsets.sample_s",
    "pointsets.rescale": "pointsets.rescale_s",
    "geometry.distance": "geometry.distance_s",
    "larg.sample": "larg.sample_s",
    "larg.coins": "larg.coins_s",
    "anchoring.enumerate": "anchoring.enumerate_s",
    "anchoring.validate": "anchoring.validate_s",
    "experiments.decay": "experiments.decay_s",
    "experiments.pair_check": "experiments.pair_check_s",
    "experiments.bf": "experiments.bf_s",
    "stepiso.check.integer": "stepiso.check_s.integer",
    "stepiso.check.float": "stepiso.check_s.float",
    "stepiso.map": "stepiso.map_s",
    "stepiso.iso": "stepiso.iso_s",
    "grids.generate.sqrtext": "grids.generate_s.sqrtext",
    "grids.generate.fraction": "grids.generate_s.fraction",
    "grids.offsets": "grids.offsets_s",
}

LAYERS = ("exact", "geometry", "pointsets", "larg", "anchoring", "stepiso", "grids", "experiments", "cli")


def _calls_name(stem: str) -> str:
    return stem.replace("_s", "_calls", 1)


def _pass_counters(layers: dict) -> dict:
    """Per-pass counters of one traced pass, by metric name."""
    tot, cnt, dur = layers["totals"], layers["counts"], layers["durations"]
    decay_wall = tot.get("decay_wall_s", 0.0)
    return {
        "pointsets.points": tot.get("points", 0),
        "pointsets.idf_checks": len(dur.get("pointsets.is_idf", ())),
        "exact.floor_calls": cnt.get("exact.floor_calls", 0),
        "exact.boundary_refusals": cnt.get("exact.boundary_refusals", 0),
        "larg.edges": tot.get("edges", 0),
        "larg.pairs_all": tot.get("pairs_all", 0),
        "larg.edge_yield": tot["edges"] / tot["pairs_all"] if tot.get("pairs_all") else 0.0,
        "larg.coins": tot.get("coins", 0),
        "anchoring.placed": tot.get("placed", 0),
        "anchoring.unplaced": tot.get("unplaced", 0),
        "anchoring.determining_generator_calls": cnt.get("anchoring.determining_generator_calls", 0),
        "experiments.decay_self_s": layers["span_self_s"].get("experiments.decay", 0.0),
        "experiments.pool_parallelism": tot.get("decay_cpu_s", 0.0) / decay_wall if decay_wall else 0.0,
        "experiments.bf_found": tot.get("bf.isomorphic", 0),
        "experiments.bf_none": tot.get("bf.none", 0),
        "experiments.bf_undetermined": tot.get("bf.undetermined", 0),
        "stepiso.pairs_checked.integer": tot.get("pairs.integer", 0),
        "stepiso.pairs_checked.float": tot.get("pairs.float", 0),
        "grids.lines": tot.get("lines", 0),
        **{f"{layer}.self_s": layers["layer_self_s"].get(layer, 0.0) for layer in LAYERS},
    }


_EMPTY_LAYERS = {"totals": {}, "counts": {}, "durations": {}, "span_self_s": {}, "layer_self_s": {}}

_COUNTER_UNITS = {
    "larg.edge_yield": "ratio",
    "experiments.pool_parallelism": "ratio",
    "experiments.decay_self_s": "s",
}


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for stem in TIMED.values():
        spec += [(f"{stem}.p50", "s"), (f"{stem}.tail", "s"), (_calls_name(stem), "count")]
    for name in _pass_counters(_EMPTY_LAYERS):
        unit = "s" if name.endswith(".self_s") else _COUNTER_UNITS.get(name, "count")
        spec.append((name, unit))
    spec += [("wall_s", "s")] + RATES
    spec.append(("trace.overhead_ratio", "ratio"))
    return spec


def percentile(sorted_vals: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def tail(values: list):
    """(label, value) of the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than twenty samples."""
    vals = sorted(values)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.75, "p75"), (0.5, "p50")):
        if len(vals) * (1 - q) >= 10:
            return label, percentile(vals, q)
    return "max", vals[-1]


def run_record(workload: str, seed: int, worker_record: dict) -> dict:
    """Where and on what this run measured."""
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _tree_hash(os.path.join(ROOT, "src")),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        **worker_record,
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _tree_hash(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_pass(workload: str, seed: int, pass_id: int, traced: bool, timeout: float) -> dict:
    result = os.path.join(OUT, f"result-{workload}-pass{pass_id}.json")
    if os.path.exists(result):
        os.remove(result)
    env = {k: v for k, v in os.environ.items() if k != "LARG_LAB_THREADS"}
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
        "--pass", str(pass_id), "--trace", str(int(traced)), "--result", result,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["traced"] = traced
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "larg_lab", "__init__.py")):
        sys.stderr.write(f"run: no larg_lab sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    start = time.perf_counter()
    passes = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            traced = bool(args.trace) and len(passes) % 2 == 1
            enough = elapsed >= args.seconds and len(passes) >= (2 if args.trace else 1)
            if enough:
                break
            passes.append(run_pass(args.workload, args.seed, len(passes), traced, DEADLINE_S - elapsed))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"run: {exc}\n")
        return 2

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    record = run_record(args.workload, args.seed, passes[0]["record"])
    wall_plain = _median([p["wall_s"] for p in plain])

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes in {time.perf_counter() - start:.1f} s")
    print("record " + json.dumps(record, sort_keys=True))
    for p in passes:
        for op, msgs in p["failed"].items():
            print(f"FAILED {op}: {msgs[0].strip().splitlines()[-1]}")

    e2e = {}
    for name, unit in PASS_FIGURES:
        vals = [p[name] for p in plain]
        e2e[name] = (_median(vals), unit)
        print(f"  {name:<22} {_median(vals):12.6g} {unit:<5} median of {len(vals)} "
              f"(min {min(vals):.6g}, max {max(vals):.6g})")
    rates = {"error_rate": failed / attempted if attempted else 0.0}
    for name, _ in RATES[1:]:
        vals = [p["rates"][name] for p in plain if name in p["rates"]]
        rates[name] = _median(vals)
    for name, unit in RATES:
        shown = "n/a" if name != "error_rate" and not any(name in p["rates"] for p in plain) else f"{rates[name]:.6g}"
        print(f"  {name:<22} {shown:>12} {unit}")

    for op in plain[0]["op_seconds"] if plain else ():
        vals = [p["op_seconds"][op] for p in plain]
        print(f"    op {op:<18} {_median(vals):10.4g} s  (min {min(vals):.4g}, max {max(vals):.4g})")

    metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        layer = per_layer_values(traced, rates, wall_plain)
        units = dict(per_layer_spec())
        for name, value in layer.items():
            print(f"  {name:<44} {value[0]:12.6g} {units[name]:<6} {value[1]}")
        print(f"spans in {', '.join(p['spans_file'] for p in traced)}")
        metrics = {name: {"value": v[0], "unit": units[name]} for name, v in layer.items()}

    with open(os.path.join(OUT, f"record-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_values(traced: list, rates: dict, wall_plain: float) -> dict:
    """name -> (value, note) for every per-layer metric."""
    out = {}
    for key, stem in TIMED.items():
        durs = [d for p in traced for d in p["layers"]["durations"].get(key, ())]
        calls = _median([len(p["layers"]["durations"].get(key, ())) for p in traced])
        if durs:
            label, value = tail(durs)
            out[f"{stem}.p50"] = (percentile(sorted(durs), 0.5), f"median of {len(durs)} calls")
            out[f"{stem}.tail"] = (value, f"{label} of {len(durs)} calls")
        else:
            out[f"{stem}.p50"] = out[f"{stem}.tail"] = (0.0, "not called")
        out[_calls_name(stem)] = (calls, "calls per pass")
    counters = [_pass_counters(p["layers"]) for p in traced]
    for name in counters[0]:
        out[name] = (_median([c[name] for c in counters]), f"median of {len(counters)} traced passes")
    out["wall_s"] = (wall_plain, "median of untraced passes")
    for name, _ in RATES:
        out[name] = (rates[name], "untraced passes")
    wall_traced = _median([p["wall_s"] for p in traced])
    out["trace.overhead_ratio"] = (wall_traced / wall_plain - 1.0, f"traced {wall_traced:.4g} s / untraced {wall_plain:.4g} s - 1")
    return out


if __name__ == "__main__":
    sys.exit(main())
