"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --pass K --trace 0|1 --result FILE

Imports larg_lab from the checkout's src/, makes the workload's inputs from
the seed, runs one timed pass, reads the peak RSS, then checks every output.
With --trace 1 the span wrappers are installed before the inputs are made;
the spans go to a JSON-lines file beside the result. The result is one JSON
object written to FILE.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_id", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "larg_lab", "__init__.py")):
        sys.stderr.write(f"worker: no larg_lab package under {src}\n")
        return 2
    sys.path.insert(0, src)
    outdir = os.path.dirname(os.path.abspath(args.result))

    t0, c0 = time.perf_counter(), time.process_time()
    import larg_lab as lib
    import larg_lab.cli  # noqa: F401  (loads lib.cli, the CLI entry point)

    import numpy
    import spans
    import workloads

    if not os.path.abspath(lib.__file__).startswith(src + os.sep):
        sys.stderr.write(f"worker: imported larg_lab from {lib.__file__}, not from {src}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.pass_id)
        tracer.install(lib)
        tracer.on = True
    inp = wl.setup(lib, args.seed, outdir)
    setup_wall_s, setup_s = time.perf_counter() - t0, time.process_time() - c0

    ledger = workloads.Ledger()
    w0, c0 = time.perf_counter(), time.process_time()
    res = wl.run(lib, inp, ledger)
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.on = False

    try:
        problems = wl.check(lib, inp, res)
    except Exception:  # a result too broken to check fails its workload
        problems = {"check": [traceback.format_exc(limit=3)]}
    ops = set(ledger.errors) | set(problems)
    failed = {op: ([ledger.errors[op]] if ledger.errors.get(op) else []) + problems.get(op, []) for op in ops}
    failed = {op: msgs[:3] for op, msgs in failed.items() if msgs}

    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "op_seconds": dict(ledger.seconds),
        "rates": wl.rates(inp, res, ledger),
        "record": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "decay_pool": _pool_size(lib),
            "larg_lab_threads": os.environ.get("LARG_LAB_THREADS"),
        },
    }
    if tracer is not None:
        path = os.path.join(outdir, f"spans-{args.workload}-pass{args.pass_id}.jsonl")
        tracer.write_jsonl(path)
        out["layers"] = spans.summarize(tracer.spans, tracer.counts)
        out["spans_file"] = os.path.relpath(path, ROOT)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _pool_size(lib):
    """Threads the decay experiment's pool uses, if it still has one."""
    count = getattr(lib.experiments, "_worker_count", None)
    return count() if count is not None else None


if __name__ == "__main__":
    sys.exit(main())
