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

from . import formats, geometry
from .boxdim import ScaleSchedule, counts_csv_lines, estimate_dimension, window_counts
from .cantor import CantorApproximant, alpha_for_dimension, cantor_dimension, generate_cantor
from .composite import check_pipeline, run_pipeline
from .errors import DustError, FormatError, ParameterError
from .geometry import Alpha, BoxGrid, Square, grid_size, rasterize, rasterize_bands, squares_to_quads
from .intersect import check_survey, mattila_survey
from .john import verify_john

USAGE_ERROR = 2
CONSTRUCTION_ERROR = 3
IO_ERROR = 4


#: Output destinations do not influence results, so they stay out of the
#: echoed configuration and identical runs stay byte-identical.
_NON_CONFIG_KEYS = {"func", "out", "grid_out", "out_prefix"}


def _config_line(args: argparse.Namespace, omit=(), **resolved) -> str:
    items = {k: v for k, v in vars(args).items() if k not in _NON_CONFIG_KEYS and k not in omit}
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
            lo, hi, *step = (int(f) for f in text.split(":"))
            if len(step) > 1:
                raise ValueError(f"{2 + len(step)} fields")
            levels = range(lo, hi + 1, *step)  # a zero step is a ValueError too
        else:
            levels = [int(f) for f in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad level schedule {text!r}; use lo:hi[:step] or m1,m2,...") from exc
    return ScaleSchedule(tuple(levels))


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(f) for f in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"bad fit window {text!r}; use lo:hi") from exc
    return lo, hi


def _band_height(level: int) -> int:
    """Rows of a band of ``geometry._HALVE_BAND`` cells of a level-``level`` grid, at least one."""
    return max(1, geometry._HALVE_BAND >> level)


def cmd_gen(args) -> int:
    """Write the dust's addresses and its raster; the raster is made and written a band of
    ``_band_height`` at a time (``rasterize_bands``), never held whole."""
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
        quads = squares_to_quads(approx.leaf_corners(), approx.side)
        formats.write_bgr(rasterize_bands(quads, Square.unit(), args.level, _band_height), args.grid_out)
        print(f"wrote level-{args.level} grid to {args.grid_out}")
    return 0


def cmd_dim(args) -> int:
    """Box-count a grid file in the bands ``box_counts`` takes, never holding the whole grid.  A
    malformed file is reported before a schedule that does not fit its level (``window_counts``)."""
    levels = None if args.levels is None else _parse_levels(args.levels)
    window = None if args.window is None else _parse_window(args.window)
    reader = formats.read_bgr_bands(args.infile, _band_height)
    bounds, level = next(reader)
    try:
        schedule = levels or ScaleSchedule.default_for(level)
    except ParameterError:  # a level-0 or level-1 grid: a malformed one is reported first
        list(reader)
        raise
    counts = window_counts(reader, level, schedule)
    est = estimate_dimension(counts, window=window, side=bounds.side)
    lines = [_config_line(args, resolved_levels=",".join(map(str, schedule.levels)))]
    lines += counts_csv_lines(counts, side=bounds.side)
    lines.append(est.summary_line() + (",empty" if est.empty else ""))
    if args.out:
        _write_lines(args.out, lines)
    print("\n".join(lines))
    return 0


def cmd_john(args) -> int:
    report = verify_john(Alpha(args.alpha), args.depth, args.samples, args.seed)
    lines = [_config_line(args)] + report.csv_lines()
    if args.out:
        _write_lines(args.out, lines)
    print(lines[0])
    print(lines[-1])
    return 0


def cmd_mattila(args) -> int:
    b_alpha = _resolve_alpha(args.b_alpha, args.b_dim, "--b-alpha", "--b-dim")
    check_survey(args.trials, args.tolerance, args.seed)
    a_grid = _input_grid(args.a_in, "--a-in", args.a_alpha, "--a-alpha", args.a_depth, args.level)
    b = generate_cantor(b_alpha, args.b_depth)
    survey = mattila_survey(a_grid, b, trials=args.trials, tolerance=args.tolerance, seed=args.seed)
    lines = [_config_line(args, s=f"{survey.s:.12g}", t=f"{survey.t:.12g}",
                          **_read_grid_keys(args.a_in, a_grid, "a_alpha", "a_depth"))]
    lines += survey.csv_lines()
    if args.out:
        _write_lines(args.out, lines)
    print(lines[0])
    print(lines[-1])
    return 0


def _input_grid(path: str | None, path_flag: str, alpha: float | None, alpha_flag: str, depth: int,
                level: int) -> BoxGrid:
    """The grid read from ``path`` or rastered from a dust of ratio ``alpha``: exactly one is given."""
    if path and alpha is not None:
        raise ParameterError(f"{path_flag} and {alpha_flag} are mutually exclusive")
    if path:
        return formats.read_bgr(path)
    if alpha is None:
        raise ParameterError(f"give an input grid with {path_flag} or {alpha_flag}")
    return _raster_dust(alpha, depth, level)[1]


def _read_grid_keys(path: str | None, grid: BoxGrid, *generator_keys: str) -> dict:
    """``_config_line`` arguments for an input grid: a grid read from ``path`` echoes its own
    level and none of the flags that only shape a generated grid."""
    return {"omit": generator_keys, "level": grid.level} if path else {}


def _raster_dust(alpha: Alpha | float, depth: int, level: int) -> tuple[CantorApproximant, BoxGrid]:
    grid_size(level)
    approx = generate_cantor(alpha, depth)
    return approx, rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def cmd_construct(args) -> int:
    check_pipeline(args.annuli, args.trials, args.min_mass, args.seed)
    E = _input_grid(args.infile, "--in", args.gen_alpha, "--gen-alpha", args.gen_depth, args.level)
    result = run_pipeline(E, annuli=args.annuli, trials=args.trials, seed=args.seed, min_mass=args.min_mass)
    prefix = args.out_prefix
    with open(f"{prefix}.plan.json", "w", newline="\n") as fh:
        fh.write(result.plan.to_json())
    formats.write_bgr(result.g_grid, f"{prefix}.g.bgr")
    formats.write_bgr(result.eprime, f"{prefix}.eprime.bgr")
    lines = [_config_line(args, point=f"{result.plan.center[0]:.12g}:{result.plan.center[1]:.12g}",
                          **_read_grid_keys(args.infile, E, "gen_alpha", "gen_depth"))]
    lines += result.report.csv_lines()
    _write_lines(f"{prefix}.report.csv", lines)
    print(lines[0])
    print(f"dim_e={result.report.dim_e.slope:.6g} dim_eprime={result.report.dim_eprime.slope:.6g}")
    return 0


def _gen_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=float, help="dust dimension; resolves alpha")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", help="CAD v1 address list path")
    p.add_argument("--grid-out", dest="grid_out", help="BGR v1 raster path")
    p.add_argument("--level", type=int, default=8)
    p.set_defaults(func=cmd_gen)


def _dim_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", help="schedule, lo:hi[:step] or comma list")
    p.add_argument("--window", help="fit window lo:hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dim)


def _john_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1, help="checked and echoed; runs use one thread")
    p.add_argument("--out")
    p.set_defaults(func=cmd_john)


def _mattila_parser(p: argparse.ArgumentParser) -> None:
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
    p.add_argument("--jobs", type=int, default=1, help="checked and echoed; runs use one thread")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mattila)


def _construct_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile")
    p.add_argument("--gen-alpha", dest="gen_alpha", type=float)
    p.add_argument("--gen-depth", dest="gen_depth", type=int, default=5)
    p.add_argument("--level", type=int, default=10)
    p.add_argument("--annuli", type=int, default=6)
    p.add_argument("--trials", type=int, default=480)
    p.add_argument("--min-mass", dest="min_mass", type=int, default=24)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1, help="checked and echoed; runs use one thread")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_construct)


#: Subcommand name -> (help line, function adding its flags and command to its parser).
_SUBCOMMANDS = {
    "gen": ("generate a dust approximant", _gen_parser),
    "dim": ("box-count a grid and fit its dimension", _dim_parser),
    "john": ("verify the center-bound path condition", _john_parser),
    "mattila": ("survey intersection dimensions over random motions", _mattila_parser),
    "construct": ("build the high-dimension subset pipeline", _construct_parser),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand is listed, but only ``command``'s flags are
    added, or every subcommand's when ``command`` is None."""
    parser = argparse.ArgumentParser(
        prog="dustlab",
        description="Cantor dust experiments: generation, dimension, paths, intersections")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, fill) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            fill(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run builds only its subcommand's parser; none, -h or an unknown name gets them all
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        # --jobs changes nothing: runs use one thread, and the flag is only checked and echoed
        if getattr(args, "jobs", 1) < 1:
            raise ParameterError(f"jobs must be at least 1, got {args.jobs}")
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
