"""Command-line entry points: run, check, dump-wkb."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from time import perf_counter

from . import acceptance
from . import experiments as ex
from . import sphere_basis as sb
from . import wkb_engine as wkb


def _cmd_run(args) -> int:
    try:
        config = ex.load_config(args.config)
        start = perf_counter()
        report = ex.run(config)
    except (ex.ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    elapsed = perf_counter() - start
    for check in report.checks:
        print(acceptance.format_line(config.experiment, check, elapsed))
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    report = acceptance.acceptance_suite()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    n_pass = sum(c.passed for c in report.checks)
    print(f"{n_pass}/{len(report.checks)} checks passed")
    return 0 if report.passed else 1


def _cmd_dump_wkb(args) -> int:
    try:
        r = args.r or wkb.band_radius(args.ell)
        profile = wkb.wkb_approximant(args.ell, args.m, args.case, r,
                                      args.eta1, args.eta2, args.n_theta)
        v_exact = sb.legendre_band(args.ell, args.m, args.m,
                                   profile.thetas).values_v[0]
    except (ValueError, wkb.TurningPointError) as err:
        print(f"dump-wkb error: {err}", file=sys.stderr)
        return 2
    env = wkb.envelope(profile)
    rows = zip(profile.thetas, profile.q, profile.action, profile.y, v_exact, env)
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(ex.format_rows(("theta", "Q", "S", "y", "v_exact", "envelope"), rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclab",
        description="spectral-cluster laboratory on the 2-sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="flat key-value config file")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the full acceptance suite")
    p_check.add_argument("--out", help="write the JSON acceptance report here")
    p_check.set_defaults(func=_cmd_check)

    p_dump = sub.add_parser("dump-wkb", help="dump one WKB profile as CSV")
    p_dump.add_argument("--ell", type=int, required=True)
    p_dump.add_argument("--m", type=int, required=True)
    p_dump.add_argument("--case", choices=("2", "inf"), required=True)
    p_dump.add_argument("--r", type=int, default=None,
                        help="window width (default ceil(sqrt(ell)))")
    p_dump.add_argument("--eta1", type=float, default=wkb.DEFAULT_ETA1)
    p_dump.add_argument("--eta2", type=float, default=wkb.DEFAULT_ETA2)
    p_dump.add_argument("--n-theta", type=int, default=201)
    p_dump.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_dump.set_defaults(func=_cmd_dump_wkb)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream; not an error
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
