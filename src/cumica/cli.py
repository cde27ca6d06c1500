"""Command-line front-end for estimation, simulation, and asymptotic tables.

One subcommand per invocation::

    cumica estimate --in data.csv --method symmetric --alpha 0.8
    cumica simulate --sources gamma:1,gamma:2,gamma:4 --method jade \
        --alpha 0.8 --n 10000 --reps 1000
    cumica asv --method symmetric --alpha 1.0 --sources gamma:1,gamma:1
    cumica optimal-alpha --pi 0.3 --mu 5
    cumica contour --family-x gamma --range-x 0.5:8 --family-y gamma \
        --range-y 0.5:8 --method compound --alpha 0.5
    cumica check-assumptions --sources gamma:1,ep:4 --method deflation --alpha 1

Exit codes: 0 success, 1 usage error, 2 numerical or assumption error.
Every run echoes its resolved configuration as a leading '#' comment, and
all numeric CSV cells round-trip exactly through ``float()``.
"""

import argparse
import contextlib
import sys
import warnings

import numpy as np

from .asymptotics import optimal_alpha
from .errors import CumicaError, InvalidSpec, MalformedInput
from .estimators import SolverOptions
from .simulation import (_ALIASES, _ASV_TABLES, _ESTIMATORS, IcModelSpec,
                         _csv_rows, _csv_table, _fmt, _replication_sample,
                         _seed_sequence, check_assumptions, contour_grid,
                         monte_carlo_experiment, read_config, resolve_method)

_METHODS = (*_ESTIMATORS, *_ALIASES)

_GRAMMAR = """\
usage: cumica <command> [flags]

commands:
  estimate           --in FILE --method {%s}
                     --alpha A [--standardizer {symmetric,fobi}] [--tol T]
                     [--restarts R] [--seed S] [--out FILE]
  simulate           --sources SPECS --method M --alpha A --n N --reps R
                     [--seed S] [--mixing {identity,random}] [--emit-data]
                     [--threads K] [--config FILE] [--out FILE]
  asv                --method M --alpha A --sources SPECS [--out FILE]
  optimal-alpha      --pi P --mu M [--grid STEP]
  contour            --family-x F --range-x LO:HI --family-y F --range-y LO:HI
                     --method M --alpha A [--steps N]
  check-assumptions  --sources SPECS --method M --alpha A

SPECS is a comma-separated list of source distributions, e.g.
gamma:2,ep:4,mix:0.3:5,normal.  Ranges are LO:HI.  --config names a
key = value file supplying any simulate flag not given on the line.
Method fobi fixes alpha at 0 and needs no --alpha.
""" % ",".join(_METHODS)


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that defers error handling to main()."""

    def error(self, message):
        raise UsageError(message)


def _echo(command, **resolved):
    """The '# cumica <command>: key=value ...' configuration banner."""
    parts = [f"{k}={_fmt(v)}" for k, v in resolved.items() if v is not None]
    return f"# cumica {command}: " + " ".join(parts) + "\n"


def _parse_range(text):
    lo, sep, hi = text.partition(":")
    if not sep or not hi:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI, got {text!r}")
    try:
        bounds = (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected numeric LO:HI, got {text!r}") from None
    return bounds


def _split_sources(text):
    specs = tuple(s.strip() for s in str(text).split(",") if s.strip())
    if not specs:
        raise UsageError("--sources needs at least one distribution spec")
    return specs


def _load_matrix(path):
    """Read a data matrix: comma-separated, '#' comments, and an optional
    header, the first non-comment line if none of its cells is a number.
    A file with no data rows raises MalformedInput."""
    fmt = {"delimiter": ",", "comments": "#", "ndmin": 2}
    X = None
    with warnings.catch_warnings():
        # numpy warns of a file with no data rows; the check below names it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        with contextlib.suppress(ValueError):
            X = np.loadtxt(path, **fmt)
        if X is None and (header := _header_line(path)):
            with contextlib.suppress(ValueError):
                X = np.loadtxt(path, skiprows=header, **fmt)
    if X is None:
        raise MalformedInput(f"{path}: not a comma-separated matrix of numbers")
    if not X.size:
        raise MalformedInput(f"{path}: no data rows")
    return X


def _header_line(path):
    """The number of the header line of the data file ``path``, or 0 if
    it has none; raises the ``MalformedInput`` naming the first other cell
    or row that does not parse.  Lines and columns count from 1."""
    header, width = 0, None
    with open(path, errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            cells = line.split("#", 1)[0]
            if not cells.strip():
                continue
            cells = cells.split(",")
            bad = [col for col, cell in enumerate(cells, 1)
                   if not _is_number(cell)]
            if width is None and not header and len(bad) == len(cells):
                header = line_no
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise MalformedInput(
                    f"{path}: line {line_no}: expected {width} columns, "
                    f"got {len(cells)}")
            if bad:
                raise MalformedInput(
                    f"{path}: line {line_no}, column {bad[0]}: "
                    f"{cells[bad[0] - 1].strip()!r} is not a number")
    return header


def _is_number(cell):
    """Whether the CSV cell ``cell`` parses as a float."""
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _write_output(text, out):
    """Write a string, or each string of an iterable in turn."""
    parts = (text,) if isinstance(text, str) else text
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        for part in parts:
            fh.write(part)


def _cmd_estimate(args):
    name = _resolve_flags(args)
    standardizer = args.standardizer
    if standardizer and name != "compound":
        raise UsageError("--standardizer applies to the compound method only")
    # fobi is compound at alpha 0, which takes the FOBI standardizer
    fobi = args.method == "fobi"
    if fobi and standardizer not in (None, "fobi"):
        raise UsageError("method fobi takes --standardizer fobi only")
    opts = SolverOptions(tol=args.tol, restarts=args.restarts, seed=args.seed)
    X = _load_matrix(args.infile)
    extra = {"standardizer": standardizer} if standardizer else {}
    est = _ESTIMATORS[name](X, args.alpha, opts=opts, **extra)
    iters = ",".join(str(i) for i in est.iterations)
    return (_echo("estimate", method=name, alpha=args.alpha,
                  standardizer="fobi" if fobi else standardizer, tol=opts.tol,
                  restarts=opts.restarts, seed=opts.seed, infile=args.infile)
            + f"# converged={est.converged} iterations={iters} "
            f"objective={est.objective!r} restarts_used={est.restarts_used}\n"
            + _csv_rows(est.W.tolist()))


_SIMULATE_KEYS = ("sources", "method", "alpha", "n", "reps", "seed",
                  "mixing", "emit_data", "threads", "out")


def _config_argv(path):
    """The simulate config file ``path`` as '--key=value' tokens, for the
    parser to check as it checks the command line's own flags; any fault
    of the file is a usage error."""
    try:
        cfg = read_config(path)
    except InvalidSpec as exc:
        raise UsageError(str(exc)) from None
    unknown = set(cfg) - set(_SIMULATE_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}; "
                         f"expected a subset of {list(_SIMULATE_KEYS)}")
    emit = cfg.pop("emit_data", "no")
    if emit.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise UsageError(f"{path}: emit_data must be yes, no, true, false, "
                         f"1 or 0, got {emit!r}")
    argv = [f"--{key}={value}" for key, value in cfg.items()]
    if emit.lower() in ("1", "true", "yes"):
        argv.append("--emit-data")
    return argv


def _require(args, *names):
    missing = [f"--{n.replace('_', '-')}" for n in names
               if getattr(args, n) is None]
    if missing:
        raise UsageError("missing required flags: " + ", ".join(missing))


def _resolve_flags(args):
    """The canonical method of --method; sets args.alpha to the effective
    weight, which is required unless the method fixes it."""
    name, args.alpha = resolve_method(args.method, args.alpha)
    _require(args, "alpha")
    return name


def _build_model(sources, mixing, seed):
    if mixing == "random":
        return IcModelSpec(sources=sources, mixing=("random", int(seed)))
    return IcModelSpec(sources=sources)


def _emit_rows(header, X):
    """Yield the header, then X as %.17g CSV, 4096 rows at a time."""
    yield header
    row_fmt = ",".join(["%.17g"] * X.shape[1]) + "\n"
    for block in np.split(X, range(4096, len(X), 4096)):
        yield (row_fmt * len(block)) % tuple(block.ravel().tolist())


def _cmd_simulate(args):
    _require(args, "sources")
    specs = _split_sources(args.sources)
    if args.emit_data:
        _require(args, "n")
        model = _build_model(specs, args.mixing, args.seed)
        # replication 0 of a Monte Carlo run with the same seed sees
        # exactly this dataset
        X, _ = _replication_sample(model, args.n,
                                   _seed_sequence(args.seed).spawn(1)[0])
        omega = model.mixing_matrix()
        return _emit_rows(
            _echo("simulate", sources=",".join(specs), n=args.n,
                  seed=args.seed, mixing=args.mixing, emit_data=True)
            + "# omega: " + _csv_rows([omega.ravel().tolist()]), X)
    _require(args, "method", "n", "reps")
    _resolve_flags(args)
    model = _build_model(specs, args.mixing, args.seed)
    res = monte_carlo_experiment(model, args.method, args.alpha, args.n,
                                 args.reps, master_seed=args.seed,
                                 threads=args.threads)
    banner = _echo("simulate", method=res.method, alpha=res.alpha, n=res.n,
                   reps=res.replications, seed=args.seed, mixing=args.mixing,
                   threads=args.threads)
    return banner + res.to_csv()


def _cmd_asv(args):
    name = _resolve_flags(args)
    specs = _split_sources(args.sources)
    table = _ASV_TABLES[name](list(specs), args.alpha)
    return (_echo("asv", method=name, alpha=args.alpha,
                  sources=",".join(specs))
            + _csv_table((), name, args.alpha, 0, 0,
                         table.offdiag + np.diag(table.diag)))


def _cmd_optimal_alpha(args):
    star, value = optimal_alpha(args.pi, args.mu, grid_tol=args.grid)
    return (_echo("optimal-alpha", pi=args.pi, mu=args.mu, grid=args.grid)
            + f"# alpha_star = {star!r}\n"
            + _csv_rows([("alpha_star", "criterion"),
                         (float(star), float(value))]))


def _cmd_contour(args):
    _resolve_flags(args)
    grid = contour_grid(args.family_x, args.range_x, args.family_y,
                        args.range_y, args.method, args.alpha,
                        steps=args.steps)
    banner = _echo("contour", method=grid.method, alpha=grid.alpha,
                   family_x=args.family_x,
                   range_x="%r:%r" % args.range_x,
                   family_y=args.family_y,
                   range_y="%r:%r" % args.range_y,
                   steps=args.steps)
    return banner + grid.to_csv()


def _cmd_check_assumptions(args):
    _resolve_flags(args)
    specs = _split_sources(args.sources)
    model = IcModelSpec(sources=specs)
    number = check_assumptions(model, args.method, args.alpha)
    return (_echo("check-assumptions", method=args.method, alpha=args.alpha,
                  sources=",".join(specs))
            + _csv_rows([("assumption", "satisfied"), (number, "true")]))


def _build_parser():
    parser = _Parser(prog="cumica", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="unmix a CSV data matrix")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--method", required=True, choices=_METHODS)
    est.add_argument("--alpha", type=float)
    est.add_argument("--standardizer", choices=["symmetric", "fobi"])
    est.add_argument("--tol", type=float, default=SolverOptions.tol)
    est.add_argument("--restarts", type=int, default=SolverOptions.restarts)
    est.add_argument("--seed", type=int, default=SolverOptions.seed)
    est.add_argument("--out")
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate",
                         help="Monte Carlo validation, or --emit-data")
    sim.add_argument("--sources")
    sim.add_argument("--method", choices=_METHODS)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--n", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mixing", choices=["identity", "random"],
                     default="identity")
    sim.add_argument("--emit-data", dest="emit_data", action="store_true")
    sim.add_argument("--threads", type=int)
    sim.add_argument("--config")
    sim.add_argument("--out")
    sim.set_defaults(func=_cmd_simulate)

    asv = sub.add_parser("asv", help="analytic asymptotic-variance table")
    asv.add_argument("--method", required=True, choices=_METHODS)
    asv.add_argument("--alpha", type=float)
    asv.add_argument("--sources", required=True)
    asv.add_argument("--out")
    asv.set_defaults(func=_cmd_asv)

    opt = sub.add_parser("optimal-alpha",
                         help="best weight for a normal location mixture")
    opt.add_argument("--pi", type=float, required=True)
    opt.add_argument("--mu", type=float, required=True)
    opt.add_argument("--grid", type=float, default=1e-3)
    opt.set_defaults(func=_cmd_optimal_alpha, out=None)

    con = sub.add_parser("contour",
                         help="pair criterion over a parameter grid")
    con.add_argument("--family-x", required=True)
    con.add_argument("--range-x", type=_parse_range, required=True)
    con.add_argument("--family-y", required=True)
    con.add_argument("--range-y", type=_parse_range, required=True)
    con.add_argument("--method", required=True, choices=_METHODS)
    con.add_argument("--alpha", type=float)
    con.add_argument("--steps", type=int, default=40)
    con.set_defaults(func=_cmd_contour, out=None)

    chk = sub.add_parser("check-assumptions",
                         help="identifiability check for a source model")
    chk.add_argument("--sources", required=True)
    chk.add_argument("--method", required=True, choices=_METHODS)
    chk.add_argument("--alpha", type=float)
    chk.set_defaults(func=_cmd_check_assumptions, out=None)

    return parser


def run(argv=None):
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go first, so the line's own flags win
            argv = sys.argv[1:] if argv is None else list(argv)
            args = parser.parse_args(
                [*argv[:1], *_config_argv(args.config), *argv[1:]])
        text = args.func(args)
        _write_output(text, args.out)
    except (UsageError, OSError) as exc:
        sys.stderr.write(_GRAMMAR)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CumicaError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    return 0


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
