"""One pass of a benchmark workload in a fresh, single-threaded process.

Takes its configuration as one JSON argument, imports the package from
<root>/src and registers the catalog, then prints "ready": the parent
times process start to that line as set-up.  Node tables and caches stay
cold, because every command-line invocation pays for them.  The pass
then runs; one JSON line on stdout carries the per-operation results.

Values are checked by the parent, which holds the references.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _setup(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    from stieltjes import catalog
    catalog.all_entries()


def _catalog_ops(cfg: dict, marker) -> list:
    from mpmath import mp, mpf
    from stieltjes import catalog
    from stieltjes.precision import PrecisionContext

    ctx = PrecisionContext.for_digits(cfg["digits"])
    if "ids" in cfg:
        ids = cfg["ids"]
    else:
        ids, anchors = [], set()
        for e in catalog.all_entries():
            if e.tags & set(cfg["tags_any"]) and \
                    not e.tags & set(cfg["tags_none"]) and \
                    e.paper_anchor not in anchors:
                anchors.add(e.paper_anchor)
                ids.append(e.id)
    floor = mpf(10) ** -ctx.working_digits
    out = []
    for i, eid in enumerate(ids):
        marker.op = i
        t0 = time.perf_counter()
        try:
            outcomes, error = catalog.run_catalog(eid, ctx).outcomes, None
        except Exception as exc:  # a broken runner fails the entry
            outcomes, error = [], "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        rec = {"id": eid, "t": (t0, t1), "passed": False, "value": False,
               "margin": None, "error": error}
        if len(outcomes) != 1 or outcomes[0].entry_id != eid:
            rec["error"] = error or "filter %r ran %d entries" % (
                eid, len(outcomes))
        else:
            o = outcomes[0]
            rec["passed"] = o.passed
            rec["value"] = o.abs_error is not None
            rec["error"] = o.failure
            if o.abs_error is not None:
                with mp.workdps(ctx.working_digits):
                    rec["margin"] = float(mp.log10(
                        mpf(o.tolerance) / max(o.abs_error, floor)))
        out.append(rec)
    return out


def _table_ops(cfg: dict, marker) -> list:
    from stieltjes import cli

    argv = ["table", "--first", str(cfg["first"]), "--digits",
            str(cfg["digits"]), "--format", "json"]
    out = io.StringIO()
    error = None
    marker.op = 0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv)
        except Exception as exc:  # no table printed: every row fails
            error = "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    return [{"t": (t0, t1), "stdout": out.getvalue(), "error": error}]


def compute(req: dict):
    """One request through the library API, as `stieltjes compute` does."""
    from mpmath import mpf
    from stieltjes import functions as F
    from stieltjes.precision import PrecisionContext

    ctx = PrecisionContext.for_digits(req["digits"])
    fn, route = req["fn"], req["route"]
    with ctx.working():
        u = mpf(req["u"])
        if fn == "gamma_n":
            return F.stieltjes(req["n"], u, route, ctx), ctx
        if fn == "digamma":
            return F.digamma(u, ctx, route), ctx
        if fn == "log_gamma":
            return F.log_gamma(u, route, ctx), ctx
        if fn == "hurwitz_zeta":
            return F.hurwitz_zeta(mpf(req["s"]), u, ctx), ctx
        if fn == "zeta_sderiv":
            return F.hurwitz_zeta_sderiv(route, mpf(req["s"]), u, ctx), ctx
        if fn == "barnes_g":
            return F.barnes_g_log(u, route, ctx), ctx
    raise ValueError("unknown function %r" % fn)


def _compute_ops(requests: list, marker) -> list:
    from mpmath import mp

    out = []
    for i, req in enumerate(requests):
        marker.op = i
        t0 = time.perf_counter()
        try:
            fv, ctx = compute(req)
        except Exception as exc:  # every failure is a result, never lost
            out.append({"t": (t0, time.perf_counter()), "value": None,
                        "error": "%s: %s" % (type(exc).__name__, exc)})
            continue
        t1 = time.perf_counter()
        with mp.workdps(ctx.working_digits + 10):
            text = mp.nstr(fv.value, ctx.working_digits + 10)
        out.append({"t": (t0, t1), "value": text, "error": None})
    return out


class _OpMarker:
    """Holds the current operation index when no tracer does."""
    op = -1


def _timed(ops: list, probe) -> list:
    for op in ops:
        op["ms"] = probe.reference(*op.pop("t")) * 1000.0
    return ops


def run_pass(cfg: dict) -> dict:
    """Run the configured workload once; trace it if cfg["trace"].

    Times are reference seconds (see speed.py); raw ones are kept too.
    """
    tracer = None
    marker = _OpMarker()
    if cfg.get("trace"):
        from tracer import Tracer, package_modules
        tracer = Tracer(package_modules())
        marker = tracer
        tracer.install()
    from speed import SpeedProbe
    kind = cfg["kind"]
    probe = SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        if kind == "catalog":
            ops = _catalog_ops(cfg, marker)
        elif kind == "table":
            ops = _table_ops(cfg, marker)
        elif kind == "compute":
            ops = _compute_ops(cfg["requests"], marker)
        else:
            raise ValueError("unknown workload kind %r" % kind)
        t1 = time.perf_counter()
        probe_ops = []
        if tracer is not None and cfg.get("probe"):
            # the probe's spans and counts stay out of the layer metrics
            spans_before = len(tracer.spans)
            counts_before = dict(tracer.counts)
            probe_ops = _compute_ops(cfg["probe"], marker)
            del tracer.spans[spans_before:]
            tracer.counts.clear()
            tracer.counts.update(counts_before)
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": probe.reference(t0, t1), "raw_wall_s": t1 - t0,
              "ops": _timed(ops, probe)}
    if tracer is not None:
        if probe_ops:
            result["probe"] = _timed(probe_ops, probe)
        result["trace"] = tracer.summary(probe.warp)
        if cfg.get("spans_path"):
            tracer.write(cfg["spans_path"])
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    _setup(cfg["root"])
    print("ready", flush=True)
    # speed right after set-up, to express set-up in reference seconds;
    # imported only now, so that set-up pays for importing mpmath itself
    from speed import spot_factor
    factor = spot_factor()
    if cfg.get("setup_only"):
        print(json.dumps({"setup_factor": factor}), flush=True)
        return 0
    result = run_pass(cfg)
    result["setup_factor"] = factor
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
