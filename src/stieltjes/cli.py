"""Command-line front end.

Commands:
  compute   one value of one function, with its route label and the
            provenance record of the engines that produced it
  table     gamma_0 .. gamma_{first-1} at u = 1 by two routes, with the
            number of digits on which the routes agree
  verify    run the identity catalog and render a report; json adds each
            side's engines, the quadrature levels each engine computed and
            the digits of margin against the tolerance

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 a route cannot
reach the requested precision (exhausted or not converging).  Output
formats: text (default), json, csv; --out redirects the rendered report to
a file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from mpmath import mp, mpf

from .precision import (
    NonConvergenceError,
    PrecisionContext,
    PrecisionExhaustedError,
    agreed_digits,
    engines,
    recording,
)
from . import functions as F
from . import series
from .catalog import run_catalog

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

COMPUTE_CHOICES = ("gamma_n", "digamma", "log_gamma", "hurwitz_zeta",
                   "barnes_g", "zeta_sderiv")

#: short spellings accepted for --method alongside the canonical names
METHOD_ALIASES = {
    "hasse": "hasse_sum",
    "coffey": "coffey_integral",
    "oracle": "limit_euler_maclaurin",
    "limit": "limit_euler_maclaurin",
    "altzeta": "alt_zeta_recursion",
}


def _fmt(value, digits: int) -> str:
    """Decimal string with `digits` significant digits (round-trip safe).

    Pins its own working precision: callers may sit at any mp.dps, and
    re-wrapping an mpf rounds to the current precision.
    """
    with mp.workdps(digits + 10):
        return mp.nstr(+mpf(value), digits)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _parse_number(text: str, name: str):
    """The one entry point for --u, --s and --t: NaN and +-inf are refused
    here, before any route starts work."""
    try:
        x = mpf(text)
    except Exception:
        raise ValueError("%s is not a number: %r" % (name, text))
    if not mp.isfinite(x):
        raise ValueError("%s must be finite: %r" % (name, text))
    return x


def cmd_compute(args: argparse.Namespace) -> int:
    digits = args.digits
    ctx = PrecisionContext.for_digits(digits)
    what = args.what
    reads = {"gamma_n": ("u", "n", "method"), "digamma": ("u", "route"),
             "log_gamma": ("u", "route"), "barnes_g": ("t", "route"),
             "hurwitz_zeta": ("u", "s", "route"),
             "zeta_sderiv": ("u", "s", "order", "route")}[what]
    for flag in ("u", "n", "s", "t", "order", "method", "route"):
        if getattr(args, flag) is not None and flag not in reads:
            return _usage_error("%s does not take --%s" % (what, flag))
    n, order = args.n or 0, args.order or 1
    with ctx.working(), recording() as rec:
        u = _parse_number(args.u if args.u is not None else "1", "--u")
        if what == "gamma_n":
            method = args.method or "limit_euler_maclaurin"
            method = METHOD_ALIASES.get(method, method)
            fv = F.stieltjes(n, u, method, ctx)
            params = {"n": n, "u": _fmt(u, digits)}
        elif what == "digamma":
            fv = F.digamma(u, ctx, args.route or "bose")
            params = {"u": _fmt(u, digits)}
        elif what == "log_gamma":
            fv = F.log_gamma(u, args.route or "binet2", ctx)
            params = {"u": _fmt(u, digits)}
        elif what == "hurwitz_zeta":
            s = _parse_number(args.s if args.s is not None else "2", "--s")
            fv = F.hurwitz_zeta(s, u, ctx, args.route or "em")
            params = {"s": _fmt(s, digits), "u": _fmt(u, digits)}
        elif what == "barnes_g":
            t = _parse_number(args.t if args.t is not None else "1", "--t")
            fv = F.barnes_g_log(t, args.route or "integral_6_7", ctx)
            params = {"t": _fmt(t, digits)}
        else:   # zeta_sderiv; argparse admits only COMPUTE_CHOICES
            s = _parse_number(args.s if args.s is not None else "0", "--s")
            fv = F.hurwitz_zeta_sderiv(order, s, u, ctx, args.route or "em")
            params = {"order": order, "s": _fmt(s, digits),
                      "u": _fmt(u, digits)}
        value_str = _fmt(fv.value, digits)
    diag = dict(sorted(rec.items()))

    if args.format == "json":
        payload = {
            "context": {"digits": digits},
            "function": what,
            "params": params,
            "value": value_str,
            "route": fv.route,
            "diagnostics": diag,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["function", "value", "route"])
        w.writerow([what, value_str, fv.route])
        _emit(buf.getvalue(), args.out)
    else:
        args_txt = ", ".join("%s=%s" % (k, v) for k, v in params.items())
        lines = ["%s(%s) = %s" % (what, args_txt, value_str),
                 "route: %s" % fv.route]
        if diag:
            lines.append("diagnostics: " + " ".join(
                "%s=%.7g" % (k, v) for k, v in diag.items()))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args: argparse.Namespace) -> int:
    if not 1 <= args.first <= 25:
        return _usage_error("--first must be between 1 and 25")
    ctx = PrecisionContext.for_digits(args.digits)
    with ctx.working():
        # one call per route: asking order by order redoes each pass
        oracle = series.stieltjes_oracle_table(args.first - 1, 1, ctx)
        altzeta = series.stieltjes_altzeta_table(args.first - 1, ctx)
        rows = [(n, _fmt(a, args.digits), agreed_digits(a, b, ctx))
                for n, (a, b) in enumerate(zip(oracle, altzeta))]

    if args.format == "json":
        payload = {
            "context": {"digits": args.digits},
            "rows": [{"n": n, "value": v, "routes_agreeing_digits": d}
                     for n, v, d in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "value", "routes_agreeing_digits"])
        for n, v, d in rows:
            w.writerow([n, v, d])
        _emit(buf.getvalue(), args.out)
    else:
        width = max(len(v) for _, v, _ in rows)
        lines = ["%3s  %-*s  %s" % ("n", width, "value", "agreed")]
        for n, v, d in rows:
            lines.append("%3d  %-*s  %d" % (n, width, v, d))
        _emit("\n".join(lines) + "\n", args.out)

    short = [n for n, _, d in rows if d < args.digits]
    if short:
        print("rows below %d agreed digits: %s" % (args.digits, short),
              file=sys.stderr)
        return EXIT_PRECISION
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _levels(record) -> dict:
    """The <engine>_levels counts of a record, by engine."""
    return {k[:-len("_levels")]: v for k, v in sorted(record.items())
            if k.endswith("_levels")}


def _report_payload(rep, ctx: PrecisionContext) -> dict:
    digits = ctx.target_digits
    floor = mpf(10) ** -ctx.working_digits      # for margin_digits' error
    entries = []
    for o in rep.outcomes:
        e = {
            "id": o.entry_id,
            "paper_anchor": o.paper_anchor,
            "lhs": None if o.lhs_value is None else _fmt(o.lhs_value,
                                                         digits),
            "rhs": None if o.rhs_value is None else _fmt(o.rhs_value,
                                                         digits),
            "abs_error": None if o.abs_error is None else _fmt(o.abs_error,
                                                               8),
            "tolerance": _fmt(o.tolerance, 8),
            "pass": o.passed,
            "elapsed_ms": round(o.elapsed_ms, 3),
            "lhs_engines": sorted(engines(o.lhs_record)),
            "rhs_engines": sorted(engines(o.rhs_record)),
            "lhs_levels": _levels(o.lhs_record),
            "rhs_levels": _levels(o.rhs_record),
            "margin_digits": None if o.abs_error is None else round(float(
                mp.log10(o.tolerance / max(o.abs_error, floor))), 3),
        }
        if o.failure:
            e["error"] = o.failure
        entries.append(e)
    return {
        "context": {"digits": digits},
        "entries": entries,
        "summary": {"total": rep.total, "passed": rep.passed,
                    "failed": rep.failed},
    }


def cmd_verify(args: argparse.Namespace) -> int:
    filt = args.id if args.id is not None else args.tag
    ctx = PrecisionContext.for_digits(args.digits)
    rep = run_catalog(filter=filt, ctx=ctx)

    payload = _report_payload(rep, ctx)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["id", "paper_anchor", "lhs", "rhs", "abs_error",
                    "tolerance", "pass", "elapsed_ms"])
        for e in payload["entries"]:
            w.writerow([e["id"], e["paper_anchor"], e["lhs"], e["rhs"],
                        e["abs_error"], e["tolerance"], e["pass"],
                        e["elapsed_ms"]])
        _emit(buf.getvalue(), args.out)
    else:
        lines = []
        for e in payload["entries"]:
            status = "pass" if e["pass"] else "FAIL"
            detail = ("err=%s tol=%s" % (e["abs_error"], e["tolerance"])
                      if e["abs_error"] is not None
                      else "error: %s" % e.get("error", "?"))
            lines.append("%-14s %-4s %s  (%.0f ms)"
                         % (e["id"], status, detail, e["elapsed_ms"]))
        s = payload["summary"]
        lines.append("total %d  passed %d  failed %d"
                     % (s["total"], s["passed"], s["failed"]))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if rep.failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _digits_type(text: str) -> int:
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("digits must be an integer")
    if not 6 <= d <= 200:
        raise argparse.ArgumentTypeError("digits must be in [6, 200]")
    return d


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=_digits_type, default=30,
                        help="target digits, 6..200 (default 30)")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    common.add_argument("--out", default=None,
                        help="write the report to this file")

    p = argparse.ArgumentParser(
        prog="stieltjes",
        description="Stieltjes constants and their special-function web, "
                    "every value computable by independent routes.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", parents=[common],
                        help="compute one value")
    pc.add_argument("what", choices=COMPUTE_CHOICES)
    pc.add_argument("--n", type=int, default=None,
                    help="order for gamma_n (default 0)")
    pc.add_argument("--u", default=None,
                    help="argument u > 0 (default 1); barnes_g takes --t. "
                         "Below u = 1 the quadrature routes run at u + 1 "
                         "by their function's recurrence")
    pc.add_argument("--s", default=None,
                    help="s for hurwitz_zeta (default 2) or zeta_sderiv (0)")
    pc.add_argument("--t", default=None,
                    help="t for barnes_g, log G(1+t) (default 1)")
    pc.add_argument("--order", type=int, choices=(1, 2), default=None,
                    help="derivative order for zeta_sderiv (default 1)")
    pc.add_argument("--method", default=None,
                    help="gamma_n route, one of %s or a short alias "
                         "(hasse, coffey, oracle, altzeta); default "
                         "limit_euler_maclaurin, certified at any "
                         "requested digits; hasse is right to the "
                         "requested digits for low orders and refuses "
                         "(exit 3) where its tail estimate is not; "
                         "altzeta refuses where its error bound through "
                         "the triangular solve is not"
                         % (", ".join(F.STIELTJES_METHODS)))
    pc.add_argument("--route", default=None,
                    help="route for digamma, log_gamma, barnes_g; for "
                         "hurwitz_zeta and zeta_sderiv em (default) or "
                         "hermite")

    pt = sub.add_parser("table", parents=[common],
                        help="tabulate gamma_0..gamma_{first-1} at u=1")
    pt.add_argument("--first", type=int, default=20,
                    help="row count, 1..25 (default 20)")

    pv = sub.add_parser("verify", parents=[common],
                        help="run the identity catalog")
    sel = pv.add_mutually_exclusive_group()
    sel.add_argument("--all", action="store_true",
                     help="run every entry (default)")
    sel.add_argument("--id", default=None, help="run one entry by id")
    sel.add_argument("--tag", default=None,
                     help="run entries carrying one tag")
    return p


def main(argv=None) -> int:
    """Run one command; a route's refusal to answer becomes exit 3 and a
    rejected input exit 2, with the reason on stderr."""
    args = build_parser().parse_args(argv)
    command = {"compute": cmd_compute, "table": cmd_table,
               "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except PrecisionExhaustedError as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
    except NonConvergenceError as exc:
        print("no convergence: %s" % exc, file=sys.stderr)
    except ValueError as exc:
        return _usage_error(str(exc))
    return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
