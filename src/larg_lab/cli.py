"""Command line front end.

Subcommands mirror the library layers: sample (point sets), graph (LARG
draws), stepiso (map verification), grid (line families), experiment
(Monte Carlo runs).  All file formats are the library's own JSON/CSV
serializations, so outputs feed back in as inputs.
"""

import argparse
import csv
import io
import json
import sys

from .exact import _require_int, _require_number, format_scalar, parse_scalar
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    _parse_generators,
    _read_window,
    box_isomorphism_demo,
    rows_to_csv,
    run_decay_experiment,
    shape_from_spec,
)
from .geometry import Line, PolygonShape, Vec2, shape_from_json
from .grids import generate_grid
from .larg import graph_lines, sample_larg
from .pointsets import (
    Window,
    pointset_from_json,
    pointset_to_json,
    rescale_to_idf,
    sample_poisson_window,
)
from .stepiso import (
    box_product_point_map,
    canonical_interleaving,
    explicit_1d_point_map,
    is_isometry,
    is_step_isometry,
    pointmap_from_json,
    respects_line,
)


def _parse_scalars(text: str, expect: int, what: str):
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != expect:
        raise ExperimentError(f"{what} needs {expect} comma-separated values, got {text!r}")
    return [parse_scalar(tok) for tok in parts]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_shape(path_or_spec: str):
    """A shape argument is either a JSON file or a short spec string."""
    try:
        return shape_from_json(_read(path_or_spec))
    except OSError:
        return shape_from_spec(path_or_spec)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> int:
    x0, y0, x1, y1 = _parse_scalars(args.window, 4, "--window")
    ps = sample_poisson_window(
        Window(x0, y0, x1, y1), args.intensity, seed=args.seed, mode=args.mode
    )
    if args.idf_generators:
        gens = _parse_generators(args.idf_generators)
        alpha, ps = rescale_to_idf(ps, gens, seed=args.idf_seed)
        sys.stderr.write(f"rescaled by alpha = {format_scalar(alpha)}\n")
    _emit(pointset_to_json(ps), args.out)
    return 0


def _cmd_graph(args) -> int:
    points = pointset_from_json(_read(args.points))
    shape = _load_shape(args.shape)
    delta = parse_scalar(args.delta)
    G = sample_larg(points, shape, delta, args.p, edge_seed=args.seed)
    _emit("\n".join(graph_lines(G)), args.out)
    return 0


def _cmd_stepiso(args) -> int:
    if args.map == "explicit1d":
        if not args.points:
            raise ExperimentError("--map explicit1d needs --points")
        pmap = explicit_1d_point_map(pointset_from_json(_read(args.points)))
    elif args.map == "box-product":
        if not (args.points and args.shape):
            raise ExperimentError("--map box-product needs --points and --shape")
        g = canonical_interleaving()
        pmap = box_product_point_map(
            pointset_from_json(_read(args.points)), _load_shape(args.shape), g, g
        )
    else:
        pmap = pointmap_from_json(_read(args.map))

    if args.check == "line":
        if not (args.line and args.line_image):
            raise ExperimentError("--check line needs --line and --line-image")
        ax, ay, off = _parse_scalars(args.line, 3, "--line")
        bx, by, boff = _parse_scalars(args.line_image, 3, "--line-image")
        ok = respects_line(pmap, Line(Vec2(ax, ay), off), Line(Vec2(bx, by), boff))
        verdict = {"check": "line", "ok": ok, "pairs_checked": len(pmap)}
    else:
        shape = _load_shape(args.shape) if args.shape else None
        if shape is None:
            raise ExperimentError(f"--check {args.check} needs --shape")
        v = is_step_isometry(pmap, shape) if args.check == "step" else is_isometry(pmap, shape)
        verdict = {
            "check": args.check,
            "ok": v.ok,
            "witness": list(v.witness) if v.witness else None,
            "left": None if v.left is None else format_scalar(v.left),
            "right": None if v.right is None else format_scalar(v.right),
            "pairs_checked": v.checked,
            "pairs_scanned": v.scanned,
        }
    _emit(json.dumps(verdict, indent=2), args.out)
    return 0 if verdict["ok"] else 3


def _cmd_grid(args) -> int:
    base = pointset_from_json(_read(args.base))
    shape = _load_shape(args.shape)
    if not isinstance(shape, PolygonShape):
        raise ExperimentError("grid needs a polygonal shape")
    window = parse_scalar(args.window)
    family = generate_grid(base.points, shape.generators, args.depth, window)
    keep = None
    if args.emit_offsets:
        x, y = _parse_scalars(args.emit_offsets, 2, "--emit-offsets")
        keep = Vec2(x, y)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "ax", "ay", "offset"])
    for level, lines in enumerate(family.levels):
        for ell in lines:
            if keep is not None and ell.normal != keep:
                continue
            writer.writerow(
                [
                    level,
                    format_scalar(ell.normal.x),
                    format_scalar(ell.normal.y),
                    format_scalar(ell.offset),
                ]
            )
    _emit(buf.getvalue(), args.out)
    return 0


_BOX_DEMO_KEYS = ("shape", "window", "intensity", "seed", "mode", "alpha_seed", "p", "trials", "budget")


def _cmd_experiment(args) -> int:
    cfg_text = _read(args.config)
    if args.kind == "decay":
        rows = run_decay_experiment(ExperimentConfig.from_json(cfg_text))
        rows_to_csv(rows, args.out or sys.stdout)
        for r in rows:
            sys.stderr.write(
                f"n={r.n}: {r.successes}/{r.trials} agree, "
                f"CI [{r.ci_lo:.4f}, {r.ci_hi:.4f}], bound {r.paper_bound:.3g}\n"
            )
        return 0

    cfg = json.loads(cfg_text)
    if not isinstance(cfg, dict):
        raise ExperimentError("box-demo config must be a JSON object")
    unknown = sorted(set(cfg) - set(_BOX_DEMO_KEYS))
    if unknown:
        raise ExperimentError(f"unknown box-demo config keys {unknown}; known keys are {list(_BOX_DEMO_KEYS)}")
    shape = shape_from_spec(cfg.get("shape", "square"))
    if not shape.is_box():
        raise ExperimentError("box-demo needs a box shape")
    seed, alpha_seed, trials, budget = (
        _require_int(cfg.get(key, default), key, ExperimentError)
        for key, default in (("seed", 1), ("alpha_seed", 0), ("trials", 20), ("budget", 5000))
    )
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    window = Window(*_read_window(cfg.get("window", ["0", "0", "3/2", "3/2"])))
    intensity, p = (
        float(_require_number(cfg.get(key, default), key, ExperimentError))
        for key, default in (("intensity", 4.0), ("p", 0.5))
    )
    points = sample_poisson_window(window, intensity, seed=seed, mode=cfg.get("mode", "rational"))
    alpha, points = rescale_to_idf(points, shape.generators, seed=alpha_seed)
    report = box_isomorphism_demo(points, shape, p, seeds=range(trials), budget=budget)
    payload = {
        "alpha": format_scalar(alpha),
        "n": len(points),
        "trials": report.trials,
        "found": report.found,
        "none": report.none,
        "undetermined": report.undetermined,
        "success_rate": report.success_rate,
        "outcomes": list(report.outcomes),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="larg-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Poisson point set in a window")
    p.add_argument("--window", required=True, help="x0,y0,x1,y1 (floats or fractions)")
    p.add_argument("--intensity", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["float", "rational"], default="float")
    p.add_argument("--idf-generators", help='generators "ax,ay;bx,by;..." to rescale against')
    p.add_argument("--idf-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("graph", help="sample a LARG graph over a stored point set")
    p.add_argument("--points", required=True)
    p.add_argument("--shape", required=True, help="shape JSON file or spec like 'hexagon'")
    p.add_argument("--delta", default="1")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("stepiso", help="verify a map; exit 0 if the check passes, 3 if not")
    p.add_argument("--map", required=True, help="explicit1d, box-product, or a map JSON file")
    p.add_argument("--points")
    p.add_argument("--shape")
    p.add_argument("--check", choices=["step", "iso", "line"], default="step")
    p.add_argument("--line", help="ax,ay,offset of the domain line")
    p.add_argument("--line-image", help="ax,ay,offset of its intended image")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stepiso)

    p = sub.add_parser("grid", help="grow an intersection-closed line family, emit CSV")
    p.add_argument("--base", required=True, help="point set JSON file")
    p.add_argument("--shape", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--window", required=True, help="offset window half-width W")
    p.add_argument("--emit-offsets", help="restrict rows to the generator ax,ay")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    p.add_argument("kind", choices=["decay", "box-demo"])
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
