"""Command line front end: gen, run, sweep, validate.

Config files are flat JSON key-value documents; any flag given on the
command line overrides the same key from the file.  A config the program
rejects, or an instance past its oracle's size cap, prints one `kmachine:
error: ...` line on stderr and exits with 2; exit code 1 means some row or
criterion failed.
"""

import argparse
import sys
import time

from .graphs import GraphError, dump_edge_list, generate
from .harness import (
    HarnessError,
    fit_scaling,
    format_csv,
    load_config,
    run_experiment,
    run_sweep,
)
from .machines import ConversionError
from .oracles import OracleError
from .programs import ConfigError


def _ints(text):
    return [int(x) for x in text.split(",") if x]


def _add_override_flags(p):
    p.add_argument("--algorithm")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--wmax", type=int)
    p.add_argument("--model")
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=_ints, help="comma separated machine counts")
    p.add_argument("--seeds", type=_ints, help="comma separated seeds")
    p.add_argument("--w", dest="W", type=int, help="link bandwidth in bits")
    p.add_argument("--gamma", type=float)
    p.add_argument("--tokens-per-node", dest="tokens_per_node", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=int)
    p.add_argument("--source", type=int)
    p.add_argument("--out")


def _emit(text, out):
    """Write text to the file `out`, else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args):
    g = generate(args.model, args.n, args.seed, p=args.p, wmax=args.wmax)
    _emit(dump_edge_list(g), args.out)
    return 0


def _config_from_args(args):
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "sweep", "fn")}
    return load_config(args.config, overrides)


def cmd_run(args):
    cfg = _config_from_args(args)
    rows = run_experiment(cfg)
    _emit(format_csv(rows), cfg.out)
    return 0 if all(r["success"] for r in rows) else 1


def cmd_sweep(args):
    cfg = _config_from_args(args)
    rows = run_sweep(cfg, args.sweep)
    _emit(format_csv(rows), cfg.out)  # kept even when the rows admit no fit
    fit = fit_scaling(rows, args.sweep)
    other = ""
    if fit.other is not None:
        other = f", {'n' if args.sweep == 'k' else 'k'} exponent {fit.other:.4f}"
    print(
        f"# sweep {args.sweep}: slope {fit.slope:.4f}{other}, intercept "
        f"{fit.intercept:.4f}, R^2 {fit.r2:.4f}",
        file=sys.stderr,
    )
    return 0 if all(r["success"] for r in rows) else 1


def cmd_validate(args):
    from .acceptance import validate_all

    last = time.perf_counter()

    def echo(line):
        # the battery runs its criteria one after another and prints one
        # verdict line as each finishes, so the time since the previous line
        # is that criterion's wall time
        nonlocal last
        now = time.perf_counter()
        print(line)
        print(f"# {line.split(':', 1)[0]}: {now - last:.2f} s", file=sys.stderr)
        last = now

    results, csv_text, ok = validate_all(seed=args.seed, echo=echo)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    summary = f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
    print(summary)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="kmachine",
        description="simulate per-vertex graph algorithms and price their "
        "communication on a bandwidth-limited machine network",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a generated graph as an edge list")
    g.add_argument("--model", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--p", type=float)
    g.add_argument("--wmax", type=int)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="run one experiment config")
    r.add_argument("--config", required=True)
    _add_override_flags(r)
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="run a config and fit a scaling law")
    s.add_argument("--config", required=True)
    s.add_argument("--sweep", choices=["k", "n"], default="k")
    _add_override_flags(s)
    s.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("validate", help="run the full validation battery")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--out", help="write all validation rows as CSV")
    v.set_defaults(fn=cmd_validate)

    args = ap.parse_args(argv)
    # these are what a bad config or bad flags raise, unlike a program fault;
    # an oracle refuses an instance past its size cap only after the run
    try:
        return args.fn(args)
    except (HarnessError, ConfigError, GraphError, ConversionError, OracleError) as exc:
        print(f"kmachine: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
