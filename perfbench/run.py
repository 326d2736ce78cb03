"""Benchmark for the stieltjes engine: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --stability K [--seed N]

Run from the repository root.  Every pass of a workload runs in a fresh
single-threaded Python process (perfbench/worker.py), so node tables and
the oracle cache start cold, as they do for every command-line call.  One
client, closed loop: each operation starts when the previous one ends.
Passes repeat while the next one is expected to finish within --seconds
(at least one pass), and timings are medians over passes.  Every output is
checked against a reference computed here, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics, the tracing overhead and
the known-failure probe.  The last line of stdout is one JSON object.
--stability K runs K seeds and prints each end-to-end metric's median and
inter-quartile spread against its bound in BENCHMARK.json.

Workload choices, the layer-to-metric map and the expected failures are
recorded in perfbench/expectations.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(HERE, "out")

#: Whole-run deadline: a run must end within 180 s.
DEADLINE_S = 170.0
#: Set-up-only processes started per run, besides one per pass.
SETUP_SAMPLES = 9

#: Entries run through catalog.run_catalog(entry_id, ctx), in
#: registration order; catalog-1d takes the first entry of each paper
#: anchor that carries one of tags_any and none of tags_none.  See
#: expectations.json for why each set.
WORKLOADS = {
    "catalog-1d": {"kind": "catalog", "digits": 30,
                   "tags_any": ["quadrature", "limit"],
                   "tags_none": ["slow", "double_integral"]},
    "double-integral": {"kind": "catalog", "digits": 30, "ids": ["I-9.5a"]},
    "table": {"kind": "table", "digits": 30, "first": 10},
    "compute-mix": {"kind": "compute"},
}

#: compute-mix cells: (function, route, digits levels), one request per
#: cell and level.  Cells that fail at some level are listed with that
#: level in expectations.json's inventory instead, and run as the probe of
#: the traced pass.
MIX_CELLS = (
    ("gamma_n", "limit_euler_maclaurin", (15, 30, 60)),
    ("gamma_n", "coffey_integral", (15, 30)),
    ("gamma_n", "alt_zeta_recursion", (15, 30, 60)),
    ("digamma", "bose", (15, 30)),
    ("digamma", "laplace", (15, 30, 60)),
    ("log_gamma", "binet2", (15, 30)),
    ("log_gamma", "binet1", (15, 30, 60)),
    ("hurwitz_zeta", None, (15, 30)),
    ("zeta_sderiv", 1, (15, 30)),
    ("zeta_sderiv", 2, (15, 30)),
    ("barnes_g", "integral_6_7", (15, 30)),
    ("barnes_g", "gosper_vardi_6_10", (15, 30)),
    ("barnes_g", "weierstrass_6_5", (15, 30, 60)),
)


def mix_requests(seed: int) -> list:
    """The compute-mix requests for a seed, in MIX_CELLS order.

    The order is fixed so that the node-table builds (the first request at
    each digits level pays them) fall on the same requests for every seed.
    Stratified, so that every seed draws the same mix of costs: request i
    of N takes u (and Barnes t) from log-stratum (13 i mod N) of [0.25, 4],
    s from stratum (7 i mod N) of [-2, 4] without the band (0.5, 1.5)
    around the pole, and n = i mod 5.  The seed places each value inside
    its stratum, at 4 significant digits.  The alternating-zeta route is
    defined at u = 1 only.
    """
    rng = random.Random(seed)
    cells = [(fn, route, d) for fn, route, levels in MIX_CELLS
             for d in levels]
    count = len(cells)
    reqs = []
    for i, (fn, route, digits) in enumerate(cells):
        x = ((13 * i) % count + rng.random()) / count
        u = math.exp(math.log(0.25) + x * math.log(16))
        s = -2 + 5 * ((7 * i) % count + rng.random()) / count
        s = s + 1 if s >= 0.5 else s
        reqs.append({"fn": fn, "route": route, "digits": digits,
                     "u": "1" if route == "alt_zeta_recursion"
                     else "%.4g" % u,
                     "n": i % 5, "s": "%.4g" % s})
    return reqs


# ---------------------------------------------------------------------------
# references and checks (mpmath's own functions, higher precision)
# ---------------------------------------------------------------------------

def reference(req: dict):
    """mpmath's value for a compute request at digits + 30."""
    from mpmath import mp, mpf
    with mp.workdps(req["digits"] + 30):
        u = mpf(req["u"])
        fn = req["fn"]
        if fn == "gamma_n":
            return mp.stieltjes(req["n"], u)
        if fn == "digamma":
            return mp.psi(0, u)
        if fn == "log_gamma":
            return mp.loggamma(u)
        if fn == "hurwitz_zeta":
            return mp.zeta(mpf(req["s"]), u)
        if fn == "zeta_sderiv":
            return mp.zeta(mpf(req["s"]), u, req["route"])
        if fn == "barnes_g":
            return mp.log(mp.barnesg(1 + u))
    raise ValueError("no reference for %r" % fn)


def value_margin(text: str, ref, digits: int) -> float:
    """Correct digits of `text` against `ref`, minus the requested digits.

    Digits count as in precision.agreed_digits: absolute when |ref| <= 1,
    relative above.  A value off by one unit in its last requested digit
    has margin 0 and counts as wrong; the cap is the 20 guard digits the
    engine computes with.
    """
    from mpmath import mp, mpf
    with mp.workdps(digits + 30):
        scale = max(mpf(1), abs(ref))
        err = abs(mpf(text) - ref) / scale
        floor = mpf(10) ** -(digits + 20)
        return float(-mp.log10(max(err, floor))) - digits


def judge_compute(ops: list, reqs: list, refs: list) -> list:
    """(margin or None, failed, wrong) per request."""
    out = []
    for op, req, ref in zip(ops, reqs, refs):
        if op["error"] is not None:
            out.append((None, True, False))
            continue
        margin = value_margin(op["value"], ref, req["digits"])
        out.append((margin, margin <= 0, margin <= 0))
    return out


def table_refs(first: int, digits: int) -> list:
    from mpmath import mp
    with mp.workdps(digits + 30):
        return [mp.stieltjes(n) for n in range(first)]


def judge_table(op: dict, digits: int, refs: list) -> list:
    """One result per row.  A row fails if its routes agree on fewer than
    the requested digits, and is wrong if its printed value is off the
    reference by more than one unit in its last significant digit."""
    from mpmath import mp, mpf
    try:
        rows = json.loads(op["stdout"])["rows"]
    except (ValueError, KeyError):  # no table printed: every row failed
        rows = []
    out = []
    for n, ref in enumerate(refs):
        row = rows[n] if n < len(rows) and rows[n]["n"] == n else None
        if row is None:
            out.append((None, True, False))
            continue
        with mp.workdps(digits + 30):
            off = abs(mpf(row["value"]) - ref) > mpf(10) ** (1 - digits) \
                * abs(ref)
        margin = row["routes_agreeing_digits"] - digits
        out.append((margin, margin < 0 or off, off))
    return out


def judge_catalog(ops: list) -> list:
    """A failing entry is wrong when both sides returned values."""
    return [(op["margin"], not op["passed"], op["value"] and not op["passed"])
            for op in ops]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def spawn(cfg: dict, deadline: float):
    """Run the worker; returns (raw set-up seconds, result).

    Set-up is timed here, from process start to the worker's "ready".
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(dict(cfg, root=ROOT))], cwd=ROOT,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("worker failed (exit %s): %s"
                           % (proc.returncode, err.strip()[-2000:]))
    return setup, json.loads(rest)


def _quantile(values: list, q: int) -> float:
    """q-th percentile (q in 1..99), interpolated; one value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Workload:
    """Inputs, references and checks of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = dict(WORKLOADS[name])
        self.cfg = dict(self.spec)
        kind = self.spec["kind"]
        if kind == "compute":
            self.reqs = mix_requests(seed)
            self.refs = [reference(r) for r in self.reqs]
            self.cfg["requests"] = self.reqs
        elif kind == "table":
            self.refs = table_refs(self.spec["first"], self.spec["digits"])

    def judge(self, result: dict) -> list:
        kind = self.spec["kind"]
        if kind == "catalog":
            return judge_catalog(result["ops"])
        if kind == "table":
            return judge_table(result["ops"][0], self.spec["digits"],
                               self.refs)
        return judge_compute(result["ops"], self.reqs, self.refs)


def _setup_sample(cfg: dict, deadline: float):
    """(set-up in reference seconds, raw set-up seconds, result)."""
    raw, res = spawn(cfg, deadline)
    return raw * res["setup_factor"], raw, res


def _tally(results: list, judged: list) -> dict:
    calls, margins, errors = [], [], []
    attempted = failed = wrong = 0
    for res, rows in zip(results, judged):
        attempted += len(rows)
        failed += sum(1 for r in rows if r[1])
        wrong += sum(1 for r in rows if r[2])
        margins += [r[0] for r in rows if r[0] is not None]
        calls += [op["ms"] for op in res["ops"]]
        errors += [op["error"] for op in res["ops"] if op.get("error")]
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "calls": calls, "margins": margins, "errors": errors}


def run_untraced(wl: Workload, seconds: float, deadline: float):
    setups = [_setup_sample({"setup_only": True}, deadline)[:2]
              for _ in range(SETUP_SAMPLES)]
    results, judged = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, raw, res = _setup_sample(wl.cfg, deadline)
        last = time.perf_counter() - t0
        setups.append((setup, raw))
        results.append(res)
        judged.append(wl.judge(res))
        if time.perf_counter() - start + last > seconds:
            break
    t = _tally(results, judged)
    t["setup_samples"] = [s for s, _ in setups]
    t["raw_wall_s"] = statistics.median(r["raw_wall_s"] for r in results)
    margins = t["margins"] or [0.0]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "call_p50_ms": (_quantile(t["calls"], 50), "ms"),
        "call_p90_ms": (_quantile(t["calls"], 90), "ms"),
        "ok_frac": (1 - t["failed"] / t["attempted"], "ratio"),
        "trusted_frac": (1 - t["wrong"] / t["attempted"], "ratio"),
        "margin_min_digits": (min(margins), "digits"),
        "margin_p50_digits": (statistics.median(margins), "digits"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                          for r in results), "MB"),
    }
    notes = ["error: " + e for e in t["errors"][:5]]
    notes += ["passes %d, operations per pass %d, set-up samples %d"
             % (len(results), t["attempted"] // len(results), len(setups)),
             "raw clock: wall_s %.3f, setup_s %.4f (medians; the metrics are"
             " in reference seconds, see speed.py)"
             % (t["raw_wall_s"], statistics.median(r for _, r in setups)),
             "fail_frac %.4f  wrong_frac %.4f  (%d failed, %d wrong of %d)"
             % (t["failed"] / t["attempted"], t["wrong"] / t["attempted"],
                t["failed"], t["wrong"], t["attempted"])]
    return metrics, t, notes


#: Per-layer shares of traced wall time that confirm each workload's
#: rationale (more than half of wall_s).
RATIONALE = {
    "double-integral": ("quadrature.unit_square.self_s",
                        "functions.one_over_log_kernel.self_s"),
    "table": ("series.oracle.self_s", "series.altzeta.self_s"),
    "catalog-1d": ("quadrature.bose.self_s", "quadrature.exp_sinh.self_s",
                   "quadrature.tanh_sinh.self_s",
                   "quadrature.table_build_s"),
}


def run_traced(wl: Workload, deadline: float, seed: int):
    from tracer import layer_metrics
    _, plain = spawn(wl.cfg, deadline)
    cfg = dict(wl.cfg, trace=True)
    os.makedirs(SPANS_DIR, exist_ok=True)
    cfg["spans_path"] = os.path.join(SPANS_DIR, "%s-seed%d.spans.jsonl"
                                     % (wl.name, seed))
    probe = []
    if wl.spec["kind"] == "compute":
        probe = load_expectations()["inventory_probe"]
        cfg["probe"] = probe
    _, traced = spawn(cfg, deadline)
    t = _tally([plain, traced], [wl.judge(plain), wl.judge(traced)])
    layer = layer_metrics(traced["trace"])
    layer["trace.wall_s"] = traced["wall_s"]
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    pf = pw = 0
    if probe:
        rows = judge_compute(traced["probe"], probe,
                             [reference(r) for r in probe])
        pf = sum(1 for r in rows if r[1])
        pw = sum(1 for r in rows if r[2])
    layer["inventory.failed"] = pf
    layer["inventory.wrong"] = pw
    notes = ["error: " + e for e in t["errors"][:5]]
    notes += ["untraced wall_s %.3f  traced wall_s %.3f  overhead %.3f s"
             % (plain["wall_s"], traced["wall_s"],
                layer["trace.overhead_s"])]
    if wl.name in RATIONALE:
        share = sum(layer[k] for k in RATIONALE[wl.name]) / traced["wall_s"]
        notes.append("rationale: %s = %.3f of traced wall_s (%s)"
                     % (" + ".join(RATIONALE[wl.name]), share,
                        "holds" if share > 0.5 else "DOES NOT HOLD"))
    if probe:
        for req, op, row in zip(probe, traced["probe"], rows):
            notes.append("probe %s %s d=%d: %s" % (
                req["fn"], req["route"], req["digits"],
                op["error"] or "margin %.2f%s" % (
                    row[0], " WRONG" if row[2] else "")))
    units = {n["name"]: n["unit"]
             for n in load_benchmark()["per_layer"]}
    metrics = {k: (v, units.get(k, "count")) for k, v in layer.items()}
    return metrics, t, notes


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expectations() -> dict:
    with open(os.path.join(HERE, "expectations.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts() -> str:
    import mpmath
    import mpmath.libmp
    return ("nproc %s, mpmath %s on the %s backend, Python %s"
            % (os.cpu_count(), mpmath.__version__, mpmath.libmp.BACKEND,
               sys.version.split()[0]))


def run_once(name: str, seed: int, seconds: float, trace: bool):
    """Run and print one workload; returns (result line, tally)."""
    deadline = time.perf_counter() + DEADLINE_S
    wl = Workload(name, seed)
    if trace:
        metrics, t, notes = run_traced(wl, deadline, seed)
        wanted = [m["name"] for m in load_benchmark()["per_layer"]]
    else:
        metrics, t, notes = run_untraced(wl, seconds, deadline)
        wanted = [m["name"] for m in load_benchmark()["end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise RuntimeError("metrics not produced: %s" % missing)
    print("workload %s  seed %d  trace %d  (%s)"
          % (name, seed, trace, machine_facts()))
    for line in notes:
        print("  " + line)
    for m in wanted:
        print("  %-40s %14.6g %s" % (m, metrics[m][0], metrics[m][1]))
    return {"correct": t["failed"] == 0, "attempted": t["attempted"],
            "failed": t["failed"],
            "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]}
                        for m in wanted}}, t


def _spread(values: list) -> tuple:
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / abs(med) if med else float("inf"))


def stability(name: str, seed: int, k: int, seconds: float) -> dict:
    """Run k seeds; each metric's median and quartile spread vs its bound."""
    bench = load_benchmark()
    runs, tallies = [], []
    for i in range(k):
        res, t = run_once(name, seed + i, seconds, trace=False)
        runs.append({m: v["value"] for m, v in res["metrics"].items()})
        tallies.append(t)
    print("stability of %s over %d seeds from %d" % (name, k, seed))
    report = {}
    for m in bench["end_to_end"]:
        med, spread = _spread([r[m["name"]] for r in runs])
        steady = spread <= m["bound"] / 3
        report[m["name"]] = {"median": med, "spread": spread,
                             "bound": m["bound"], "steady": steady}
        print("  %-20s median %12.6g  IQR/median %.4f  bound %.2f  %s"
              % (m["name"], med, spread, m["bound"],
                 "steady" if steady else
                 ("within bound" if spread <= m["bound"] else "TOO WIDE")))
    singles = [x for t in tallies for x in t["setup_samples"]]
    print("  setup_s: single samples IQR/median %.4f over %d samples; "
          "per-run medians %.4f" % (_spread(singles)[1], len(singles),
                                    report["setup_s"]["spread"]))
    print("  wall_s on the raw clock: IQR/median %.4f (reference seconds "
          "%.4f)" % (_spread([t["raw_wall_s"] for t in tallies])[1],
                     report["wall_s"]["spread"]))
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--stability", type=int, default=0, metavar="K",
                   help="run K seeds and report each metric's spread")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stieltjes",
                                       "__init__.py")):
        print("error: no package source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.stability:
        report = stability(args.workload, args.seed, args.stability,
                           args.seconds)
        print(json.dumps(report))
        return 0
    print(json.dumps(run_once(args.workload, args.seed, args.seconds,
                              bool(args.trace))[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
