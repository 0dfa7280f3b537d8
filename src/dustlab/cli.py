"""Command-line front end: gen, dim, john, mattila, construct.

Every randomized subcommand requires an explicit --seed and produces
byte-identical output files when repeated with the same arguments.  The
first line of every report file echoes the fully resolved configuration.

Exit codes: 0 success, 2 usage or parameter error, 3 construction or
placement failure, 4 input/output error.
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .boxdim import ScaleSchedule, box_counts, counts_csv_lines, estimate_dimension
from .cantor import alpha_for_dimension, cantor_dimension, generate_cantor
from .composite import run_pipeline
from .errors import DustError, FormatError, ParameterError
from .geometry import Alpha, BoxGrid, Square, grid_size, rasterize
from .intersect import mattila_survey
from .john import verify_john

USAGE_ERROR = 2
CONSTRUCTION_ERROR = 3
IO_ERROR = 4


#: Output destinations do not influence results, so they stay out of the
#: echoed configuration and identical runs stay byte-identical.
_NON_CONFIG_KEYS = {"func", "out", "grid_out", "out_prefix"}


def _config_line(args: argparse.Namespace, **resolved) -> str:
    items = {k: v for k, v in vars(args).items() if k not in _NON_CONFIG_KEYS}
    items.update(resolved)
    body = " ".join(f"{k}={v}" for k, v in sorted(items.items()))
    return f"# config: {body}"


def _write_lines(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_alpha(alpha, dim, alpha_flag: str, dim_flag: str) -> Alpha:
    """The dust ratio given either directly or by the dust's dimension."""
    if alpha is None and dim is None:
        raise ParameterError(f"one of {alpha_flag} or {dim_flag} is required")
    if alpha is not None and dim is not None:
        raise ParameterError(f"{alpha_flag} and {dim_flag} are mutually exclusive")
    return Alpha(alpha) if alpha is not None else alpha_for_dimension(dim)


def _seed(text: str) -> int:
    """argparse type of --seed: generator seeds are non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _parse_levels(text: str) -> ScaleSchedule:
    try:
        if ":" in text:
            fields = [int(f) for f in text.split(":")]
            lo, hi = fields[0], fields[1]
            step = fields[2] if len(fields) > 2 else 1
            return ScaleSchedule.span(lo, hi, step)
        return ScaleSchedule(tuple(int(f) for f in text.split(",")))
    except (ValueError, IndexError) as exc:
        raise ParameterError(f"bad level schedule {text!r}; use lo:hi[:step] or m1,m2,...") from exc


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(f) for f in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"bad fit window {text!r}; use lo:hi") from exc
    return lo, hi


def _load_grid(path) -> BoxGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(b"cad "):
        raise FormatError("expected a bgr grid file; rasterize addresses with gen --grid-out first")
    return formats.parse_bgr(data)


def cmd_gen(args) -> int:
    if not args.out and not args.grid_out:
        raise ParameterError("nothing to do: give --out and/or --grid-out")
    alpha = _resolve_alpha(args.alpha, args.dim, "--alpha", "--dim")
    if args.grid_out:
        grid_size(args.level)
    approx = generate_cantor(alpha, args.depth)
    print(_config_line(args, resolved_alpha=float(alpha),
                       resolved_dimension=cantor_dimension(alpha)))
    if args.out:
        formats.write_cad(alpha, args.depth, approx.codes, args.out)
        print(f"wrote {approx.count} addresses to {args.out}")
    if args.grid_out:
        grid = rasterize(approx.leaf_corners(), Square.unit(), args.level, side=approx.side)
        formats.write_bgr(grid, args.grid_out)
        print(f"wrote level-{args.level} grid to {args.grid_out}")
    return 0


def cmd_dim(args) -> int:
    grid = _load_grid(args.infile)
    schedule = _parse_levels(args.levels) if args.levels else ScaleSchedule.default_for(grid)
    window = _parse_window(args.window) if args.window else None
    counts = box_counts(grid, schedule)
    est = estimate_dimension(counts, window=window, side=grid.bounds.side)
    lines = [_config_line(args, resolved_levels=",".join(map(str, schedule.levels)))]
    lines += counts_csv_lines(counts, side=grid.bounds.side)
    lines.append(est.summary_line() + (",empty" if est.empty else ""))
    if args.out:
        _write_lines(args.out, lines)
    print("\n".join(lines))
    return 0


def cmd_john(args) -> int:
    report = verify_john(Alpha(args.alpha), args.depth, args.samples, args.seed,
                         jobs=args.jobs)
    lines = [_config_line(args)] + report.csv_lines()
    if args.out:
        _write_lines(args.out, lines)
    print(lines[0])
    print(lines[-1])
    return 0


def cmd_mattila(args) -> int:
    b_alpha = _resolve_alpha(args.b_alpha, args.b_dim, "--b-alpha", "--b-dim")
    a_grid = _load_grid(args.a_in) if args.a_in else _raster_dust(
        args.a_alpha, args.a_depth, args.level)
    b = generate_cantor(b_alpha, args.b_depth)
    survey = mattila_survey(a_grid, b, trials=args.trials, tolerance=args.tolerance,
                            seed=args.seed, jobs=args.jobs)
    lines = [_config_line(args, s=f"{survey.s:.12g}", t=f"{survey.t:.12g}")]
    lines += survey.csv_lines()
    if args.out:
        _write_lines(args.out, lines)
    print(lines[0])
    print(lines[-1])
    return 0


def _raster_dust(alpha: float, depth: int, level: int) -> BoxGrid:
    if alpha is None:
        raise ParameterError("give --a-in or --a-alpha")
    approx = generate_cantor(Alpha(alpha), depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def cmd_construct(args) -> int:
    if args.infile:
        E = _load_grid(args.infile)
    elif args.gen_alpha is not None:
        E = _raster_dust(args.gen_alpha, args.gen_depth, args.level)
    else:
        raise ParameterError("give an input grid with --in or --gen-alpha/--gen-depth")
    result = run_pipeline(E, annuli=args.annuli, trials=args.trials, seed=args.seed,
                          min_mass=args.min_mass, jobs=args.jobs)
    prefix = args.out_prefix
    with open(f"{prefix}.plan.json", "w", newline="\n") as fh:
        fh.write(result.plan.to_json())
    formats.write_bgr(result.g_grid, f"{prefix}.g.bgr")
    formats.write_bgr(result.eprime, f"{prefix}.eprime.bgr")
    lines = [_config_line(args, point=f"{result.plan.center[0]:.12g}:{result.plan.center[1]:.12g}")]
    lines += result.report.csv_lines()
    _write_lines(f"{prefix}.report.csv", lines)
    print(lines[0])
    print(f"dim_e={result.report.dim_e.slope:.6g} dim_eprime={result.report.dim_eprime.slope:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dustlab",
        description="Cantor dust experiments: generation, dimension, paths, intersections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dust approximant")
    p.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=float, help="dust dimension; resolves alpha")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", help="CAD v1 address list path")
    p.add_argument("--grid-out", dest="grid_out", help="BGR v1 raster path")
    p.add_argument("--level", type=int, default=8)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dim", help="box-count a grid and fit its dimension")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", help="schedule, lo:hi[:step] or comma list")
    p.add_argument("--window", help="fit window lo:hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("john", help="verify the center-bound path condition")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_john)

    p = sub.add_parser("mattila", help="survey intersection dimensions over random motions")
    p.add_argument("--a-in", dest="a_in", help="BGR grid for the fixed set A")
    p.add_argument("--a-alpha", dest="a_alpha", type=float)
    p.add_argument("--a-depth", dest="a_depth", type=int, default=6)
    p.add_argument("--level", type=int, default=9)
    p.add_argument("--b-alpha", dest="b_alpha", type=float)
    p.add_argument("--b-dim", dest="b_dim", type=float)
    p.add_argument("--b-depth", dest="b_depth", type=int, default=5)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=0.15)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mattila)

    p = sub.add_parser("construct", help="build the high-dimension subset pipeline")
    p.add_argument("--in", dest="infile")
    p.add_argument("--gen-alpha", dest="gen_alpha", type=float)
    p.add_argument("--gen-depth", dest="gen_depth", type=int, default=5)
    p.add_argument("--level", type=int, default=10)
    p.add_argument("--annuli", type=int, default=6)
    p.add_argument("--trials", type=int, default=480)
    p.add_argument("--min-mass", dest="min_mass", type=int, default=24)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except DustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONSTRUCTION_ERROR


def entry() -> None:
    sys.exit(main())
