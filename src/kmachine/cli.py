"""Command line front end: gen, run, sweep, validate.

Config files are flat JSON key-value documents; every key is also a flag
(`--tokens-per-node`), read as the file reads it, that overrides the file.
A config, flag or output file the program rejects, or an instance past its
oracle's size cap, prints one `kmachine: error: ...` line on stderr and
exits with 2; exit code 1 means some row or criterion failed.
"""

import argparse
import json
import os
import sys
import time
from contextlib import suppress
from pathlib import Path

from .graphs import GraphError, dump_edge_list, generate
from .harness import (
    CONFIG_KEYS,
    HarnessError,
    fit_scaling,
    format_csv,
    load_config,
    run_experiment,
)
from .machines import ConversionError
from .oracles import OracleError
from .programs import ConfigError


def _value(text):
    """A flag's value as a config file holds it: JSON (`4`, `0.5`, `true`),
    else, if it holds a comma, a list of JSON values (`64,128`), else text."""
    for doc in (text, f"[{text}]") if "," in text else (text,):
        with suppress(ValueError):
            return json.loads(doc)
    return text


def _add_config_flags(p, keys=CONFIG_KEYS, required=()):
    """One flag per config key: `--` + the key, lower-cased, `_` as `-`.  A
    flag that is not given is absent, so the file's value stands."""
    for key in keys:
        p.add_argument("--" + key.lower().replace("_", "-"), dest=key, type=_value,
                       required=key in required, default=argparse.SUPPRESS)


def _emit(out):
    """The writer of a command's text: to the file `out`, else to stdout.
    The file is opened to append here, before anything runs, and removed
    again if that created it, so a refused run leaves no file."""
    if not out:
        return sys.stdout.write
    if not isinstance(out, str):
        raise HarnessError(f"out must be a string, got {out!r}")
    existed = os.path.lexists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise HarnessError(f"cannot write {out!r}: {exc.strerror}")
    if not existed:
        os.remove(out)
    return Path(out).write_text


def cmd_gen(args):
    emit = _emit(args.out)
    g = generate(args.model, args.n, args.seed, p=args.p, wmax=args.wmax)
    emit(dump_edge_list(g))
    return 0


def _config_from_args(args):
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS}
    return load_config(args.config, overrides)


def cmd_run(args):
    cfg = _config_from_args(args)
    emit = _emit(cfg.out)
    rows = run_experiment(cfg)
    emit(format_csv(rows))
    return 0 if all(r["success"] for r in rows) else 1


def cmd_sweep(args):
    cfg = _config_from_args(args)
    emit = _emit(cfg.out)
    rows = run_experiment(cfg)
    emit(format_csv(rows))  # kept even when the rows admit no fit
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

    emit = _emit(args.out)
    results, csv_text, ok = validate_all(seed=args.seed, echo=echo)
    if args.out:
        emit(csv_text)
    summary = f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
    print(summary)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a refused flag is refused as a bad config is
        raise HarnessError(message)


def main(argv=None):
    ap = _Parser(
        prog="kmachine",
        description="simulate per-vertex graph algorithms and price their "
        "communication on a bandwidth-limited machine network",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a generated graph as an edge list")
    _add_config_flags(g, ("model", "n", "p", "wmax", "out"), required=("model", "n"))
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen, p=None, wmax=None, out=None)

    r = sub.add_parser("run", help="run one experiment config")
    r.add_argument("--config", required=True)
    _add_config_flags(r)
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="run a config and fit a scaling law")
    s.add_argument("--config", required=True)
    s.add_argument("--sweep", choices=["k", "n"], default="k")
    _add_config_flags(s)
    s.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("validate", help="run the full validation battery")
    v.add_argument("--seed", type=int, default=7)
    _add_config_flags(v, ("out",))  # all validation rows as CSV
    v.set_defaults(fn=cmd_validate, out=None)

    # these are what bad flags or a bad config raise, unlike a program fault;
    # an oracle refuses an instance past its size cap only after the run
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (HarnessError, ConfigError, GraphError, ConversionError, OracleError) as exc:
        print(f"kmachine: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
