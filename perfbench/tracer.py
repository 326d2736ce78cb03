"""Span tracer that times the package's layers from outside.

Nothing under src/ is edited.  install() replaces chosen module-level
functions (and one method) with timing wrappers, rebinding the name in
every package module that holds the same object: `functions` and
`catalog` import quadrature names with `from .quadrature import ...`, so
patching `quadrature.integrate_bose` alone would miss their calls.
uninstall() puts every original back.

Each call records a span (name, start, end, parent span, operation id) in
memory.  A span's self time is its duration minus the durations of its
direct child spans; a layer's self time is the sum over its spans, so the
layers partition the traced time between them.
"""

from __future__ import annotations

import inspect
import json
import time

PACKAGE = "stieltjes"

#: Functions timed in every layer module: all public functions, plus the
#: private ones a per-layer metric names.  Excluded are leaves called per
#: term (the exact Bernoulli numbers), whose wrapper would cost more than
#: the call; their time stays with the caller's span.
EXTRA = {
    "quadrature": ("_build_table", "_bose_qs", "_bose_direct"),
    "series": ("_oracle_correction",),
    "functions": ("_si_ci_aux",),
    "catalog": ("_run_entry",),
}
SKIP = {"series": ("bernoulli_number",)}
#: catalog and cli are timed at their entry points only: the helpers they
#: define are the layer's own work.
ONLY = {"catalog": ("run_catalog", "_run_entry"), "cli": ("main",)}
LAYERS = ("quadrature", "series", "functions", "catalog", "cli")
METHODS = (("quadrature", "_BoseKernelSums", "value"),)

#: Entry points whose NonConvergenceError counts once as a quadrature
#: non-convergence (integrate_laplace only forwards exp_sinh_0inf's).
QUAD_ENTRY = ("quadrature.integrate_bose", "quadrature.exp_sinh_0inf",
              "quadrature.tanh_sinh_01", "quadrature.integrate_unit_square")
#: Spans whose QuadratureResult.nodes_used is summed.
NODE_GROUPS = {"quadrature.integrate_bose": "quadrature.bose",
               "quadrature.exp_sinh_0inf": "quadrature.exp_sinh",
               "quadrature.tanh_sinh_01": "quadrature.tanh_sinh",
               "quadrature.integrate_unit_square": "quadrature.unit_square"}


def _targets(modules: dict) -> list:
    """(layer, name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        if layer in ONLY:
            names = ONLY[layer]
        else:
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v)
                     and v.__module__ == mod.__name__
                     and not n.startswith("_")
                     and n not in SKIP.get(layer, ())]
            names += EXTRA.get(layer, ())
        for n in names:
            out.append((layer, n, getattr(mod, n)))
    return out


def package_modules() -> dict:
    """The package's layer modules by short name (imports them)."""
    import importlib
    return {name: importlib.import_module("%s.%s" % (PACKAGE, name))
            for name in ("precision",) + LAYERS}


class Tracer:
    """Wraps the package's layer functions and records spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []       # [name, start, end, parent, op]
        self.stack: list = []       # indices of open spans
        self.op = -1
        self.counts: dict = {}
        self._saved: list = []      # (namespace owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, name, fn in _targets(self.modules):
            wrapper = self._wrap(fn, "%s.%s" % (layer, name))
            for mod in self.modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, "%s.%s.%s"
                                          % (layer, cls_name, meth)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter
        is_qs = name == "quadrature._bose_qs"
        node_group = NODE_GROUPS.get(name)
        quad_entry = name in QUAD_ENTRY

        def traced(*args, **kwargs):
            if is_qs and args[0].qs is None:
                counts["qs_builds"] = counts.get("qs_builds", 0) + 1
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if quad_entry and type(exc).__name__ == "NonConvergenceError":
                    counts["nonconverged"] = counts.get("nonconverged", 0) + 1
                    if "routes disagree" in str(exc):
                        counts["disagree"] = counts.get("disagree", 0) + 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if node_group is not None:
                key = node_group + ".nodes"
                counts[key] = counts.get(key, 0) + result.nodes_used
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.traced_span = name
        return traced

    # -- results ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent, op]) + "\n")

    def summary(self, clock=None) -> dict:
        """Per-span-name call counts, busy and self time, plus counters.

        clock maps a perf_counter reading to the time scale reported
        (reference seconds, see speed.py); None keeps raw seconds.
        """
        spans = self.spans
        clock = clock or (lambda t: t)
        durs = [clock(end) - clock(start) for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += durs[i]
        by_name: dict = {}
        passes = 0
        for i, (name, _, _, _, _) in enumerate(spans):
            rec = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0, "max_s": 0.0})
            dur = durs[i]
            rec["calls"] += 1
            rec["busy_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["max_s"] = max(rec["max_s"], dur)
        # oracle calls that ran the correction (a pass over k < 2N)
        oracle = {i for i, s in enumerate(spans)
                  if s[0] == "series.stieltjes_oracle_table"}
        seen = set()
        for name, _, _, parent, _ in spans:
            if name == "series._oracle_correction" and parent in oracle \
                    and parent not in seen:
                seen.add(parent)
                passes += 1
        counts = dict(self.counts)
        counts["oracle_passes"] = passes
        return {"spans": by_name, "counts": counts}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a summary."""
    spans = summary["spans"]
    counts = summary["counts"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in spans.items()
                   if k.startswith(prefix + "."))

    q = "quadrature."
    s = "series."
    f = "functions."
    bose = (q + "integrate_bose", q + "_bose_direct",
            q + "_BoseKernelSums.value")
    oracle = (s + "stieltjes_oracle_table", s + "limit_stieltjes_oracle",
              s + "_oracle_correction")
    altzeta = (s + "alt_zeta_log_moment", s + "alt_zeta_hasse",
               s + "stieltjes_from_altzeta")
    m = {
        "quadrature.table_builds": calls(q + "_build_table")
        + counts.get("qs_builds", 0),
        "quadrature.table_build_s": self_s(q + "_build_table", q + "_bose_qs"),
        "quadrature.bose.calls": calls(q + "integrate_bose"),
        "quadrature.bose.self_s": self_s(*bose),
        "quadrature.bose.nodes": counts.get("quadrature.bose.nodes", 0),
        "quadrature.bose.direct_s": self_s(q + "_bose_direct"),
        "quadrature.bose.modes_s": self_s(q + "_BoseKernelSums.value"),
        "quadrature.bose.disagree": counts.get("disagree", 0),
        "quadrature.exp_sinh.calls": calls(q + "exp_sinh_0inf"),
        "quadrature.exp_sinh.self_s": self_s(q + "exp_sinh_0inf",
                                             q + "integrate_laplace"),
        "quadrature.exp_sinh.nodes": counts.get("quadrature.exp_sinh.nodes",
                                                0),
        "quadrature.tanh_sinh.calls": calls(q + "tanh_sinh_01"),
        "quadrature.tanh_sinh.self_s": self_s(q + "tanh_sinh_01"),
        "quadrature.tanh_sinh.nodes": counts.get(
            "quadrature.tanh_sinh.nodes", 0),
        "quadrature.unit_square.calls": calls(q + "integrate_unit_square"),
        "quadrature.unit_square.self_s": self_s(q + "integrate_unit_square"),
        "quadrature.unit_square.points": counts.get(
            "quadrature.unit_square.nodes", 0),
        "quadrature.nonconverged": counts.get("nonconverged", 0),
        "quadrature.self_s": layer_self("quadrature"),
    }
    for name in ("one_over_log_kernel", "binet_kernel", "exp_square_kernel"):
        m["functions.%s.calls" % name] = calls(f + name)
        m["functions.%s.self_s" % name] = self_s(f + name)
    # public entry points: busy time attributes a request to its route
    for name in ("stieltjes", "digamma", "trigamma", "log_gamma",
                 "hurwitz_zeta", "hurwitz_zeta_sderiv", "barnes_g_log",
                 "sin_cos_integrals"):
        m["functions.%s.calls" % name] = calls(f + name)
        m["functions.%s.self_s" % name] = self_s(f + name)
        m["functions.%s.busy_s" % name] = spans.get(f + name, {}).get(
            "busy_s", 0.0)
    m["functions.self_s"] = layer_self("functions")
    ocalls = calls(s + "stieltjes_oracle_table")
    m.update({
        "series.oracle.calls": ocalls,
        "series.oracle.passes": counts.get("oracle_passes", 0),
        "series.oracle.hit_ratio": (1 - counts.get("oracle_passes", 0)
                                    / ocalls) if ocalls else 0.0,
        "series.oracle.self_s": self_s(*oracle),
        "series.altzeta.moments": calls(s + "alt_zeta_log_moment"),
        "series.altzeta.self_s": self_s(*altzeta),
        "series.hasse.calls": calls(s + "hasse_stieltjes"),
        "series.hasse.self_s": self_s(s + "hasse_stieltjes"),
        "series.zeta_em.calls": calls(s + "riemann_zeta_em"),
        "series.zeta_em.self_s": self_s(s + "riemann_zeta_em"),
        "series.em_tail.calls": calls(s + "em_log_power_tail"),
        "series.em_tail.self_s": self_s(s + "em_log_power_tail"),
        "series.asymptotic.calls": calls(s + "psi_asymptotic",
                                         s + "trigamma_asymptotic"),
        "series.asymptotic.self_s": self_s(s + "psi_asymptotic",
                                           s + "trigamma_asymptotic"),
        "series.self_s": layer_self("series"),
        "catalog.entries": calls("catalog._run_entry"),
        "catalog.self_s": layer_self("catalog"),
        "catalog.entry_max_s": spans.get("catalog._run_entry",
                                         {}).get("max_s", 0.0),
        "cli.self_s": layer_self("cli"),
    })
    return m
