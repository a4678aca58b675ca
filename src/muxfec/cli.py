"""Command-line front end: build, verify, rates, simulate, dump.

Exit codes: 0 success/verified, 1 usage or input error, 2 verification
failure.  stdout carries data only; diagnostics go to stderr as a JSON
object so batch drivers can parse failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__, codespec
from .analysis import gain_table, rate_report
from .channel import random_erasure_sequence, write_trace
from .decoder import verify_achievable
from .muxcode import build_mux_code, select_parameters
from .stream import simulate_stream

DEFAULT_SEED = 0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser errors raise UsageError; add_subparsers gives subcommands this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MUXFEC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"MUXFEC_SEED is not an integer: {env!r}") from exc
    return DEFAULT_SEED


def _parse_range(text: str) -> range:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected LO:HI") from exc
    if hi < lo:
        raise UsageError(f"bad range {text!r}, expected LO <= HI")
    return range(lo, hi + 1)


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failed write of an output file into a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _check_out(path: str) -> None:
    """Reject an output path that cannot be a file before any work is done."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")


def _load_spec(path: str):
    try:
        return codespec.load(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load spec: {exc}") from exc


def cmd_build(args) -> int:
    seed = _seed_from(args)
    try:
        params = select_parameters(args.tv, args.tu, args.b, args.n, T_u_prime=args.tu_prime)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.out:
        _check_out(args.out)
    try:
        code = build_mux_code(params, seed=seed)
    except RuntimeError as exc:
        _err({"error": "verification", "detail": str(exc)})
        return 2
    if args.out:
        with _writing(args.out):
            codespec.save(code, args.out)
    rates = rate_report(params.T_v, params.T_u, params.B, params.N)
    report = {
        "T_v": params.T_v,
        "T_u": params.T_u,
        "B": params.B,
        "N": params.N,
        "regime": params.regime,
        "k_v": params.k_v,
        "k_u": params.k_u,
        "n": params.n,
        "q": code.field.q,
        "seed": seed,
        "sum_rate": f"{params.k_v + params.k_u}/{params.n}",
        "sum_rate_decimal": rates["mux_sum_rate"],
        "separate_rate_decimal": rates["separate_sum_rate"],
        "gain_percent": rates["gain_percent"],
        "spec_file": args.out,
    }
    print(json.dumps(report, indent=1))
    return 0


def cmd_verify(args) -> int:
    code = _load_spec(args.spec)
    ch = code.verification_channel()
    if args.w is not None:
        if args.w <= code.params.B:
            raise UsageError(f"--w must exceed B={code.params.B}")
        ch = type(ch)(args.w, ch.B, ch.N)
    if args.report:
        _check_out(args.report)
    result = verify_achievable(code, ch)
    payload = result.to_dict()
    payload["W"] = ch.W
    text = json.dumps(payload, indent=1)
    if args.report:
        with _writing(args.report), open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if result.passed else 2


def cmd_rates(args) -> int:
    try:
        table = gain_table(args.b, args.n, _parse_range(args.tv_range), _parse_range(args.tu_range))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.csv:
        sys.stdout.write(table.to_csv(exact=args.exact))
    else:
        print(json.dumps(table.to_dict(exact=args.exact), indent=1))
    return 0


def cmd_simulate(args) -> int:
    code = _load_spec(args.spec)
    if args.slots < code.params.n:
        raise UsageError(f"--slots must be at least n={code.params.n}")
    seed = _seed_from(args)
    if args.trace:
        _check_out(args.trace)
    seq = random_erasure_sequence(args.slots, code.verification_channel(), seed)
    if args.trace:
        with _writing(args.trace):
            write_trace(args.trace, seq)
    report = simulate_stream(code, seq)
    print(json.dumps(report.to_dict(), indent=1))
    return 0 if report.passed else 2


def cmd_dump(args) -> int:
    code = _load_spec(args.spec)
    print(json.dumps(code.G.to_dump(), indent=1))
    return 0


def _err(payload: dict):
    print(json.dumps(payload), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="muxfec",
        description="Multiplexed streaming erasure codes: construction, verification, analysis.",
    )
    ap.add_argument("--version", action="version", version=f"muxfec {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct and verify a merged code, write a spec file")
    b.add_argument("--tv", type=int, required=True, help="less-urgent deadline T_v")
    b.add_argument("--tu", type=int, required=True, help="urgent deadline T_u")
    b.add_argument("--b", type=int, required=True, help="max burst length B")
    b.add_argument("--n", type=int, required=True, help="max random erasures N")
    b.add_argument("--tu-prime", type=int, default=None, help="effective urgent deadline")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--out", default=None, help="spec file path")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="exhaustive achievability check of a spec file")
    v.add_argument("spec")
    v.add_argument("--w", type=int, default=None, help="window length (default T_v+1)")
    v.add_argument("--report", default=None, help="write the JSON report here too")
    # accepted and ignored: verification is one serial walk, and scripts still pass it
    v.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("rates", help="gain table versus separate encoding")
    r.add_argument("--b", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--tv-range", required=True, help="LO:HI inclusive")
    r.add_argument("--tu-range", required=True, help="LO:HI inclusive")
    fmt = r.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    r.add_argument("--exact", action="store_true", help="emit rationals as p/q")
    r.set_defaults(func=cmd_rates)

    s = sub.add_parser("simulate", help="stream simulation over a random admissible sequence")
    s.add_argument("spec")
    s.add_argument("--slots", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--trace", default=None, help="write the 0/1 channel trace here")
    s.set_defaults(func=cmd_simulate)

    d = sub.add_parser("dump", help="print the merged generator matrix dump")
    d.add_argument("spec")
    d.set_defaults(func=cmd_dump)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help and --version, which print to stdout
        return 0
    except UsageError as exc:
        _err({"error": "usage", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
