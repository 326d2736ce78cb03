"""Checks of the benchmark's own machinery: the tracer's wrapping and the
reference check of compute values.

    python3 -m pytest -q perfbench
"""

import inspect
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpmath import mp, mpf  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

#: cheapest entry whose catalog code calls a quadrature name it imported
#: with `from .quadrature import ...`
TANH_SINH_ENTRY = {"kind": "catalog", "digits": 15, "ids": ["I-9.2b"]}


def installed_wrappers(modules):
    """(owner, attribute) of every binding that currently holds a wrapper."""
    found = []
    for mod in modules.values():
        for attr, val in vars(mod).items():
            if hasattr(val, "traced_span"):
                found.append((mod.__name__, attr))
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                found += [(attr, meth) for meth, fn in vars(val).items()
                          if hasattr(fn, "traced_span")]
    return found


def _holders(mods):
    """Every (module, attribute, function) binding of a traced function."""
    fns = [fn for _, _, fn in tracer._targets(mods)]
    return [(m, attr, fn) for fn in fns for m in mods.values()
            for attr, val in vars(m).items() if val is fn]


def test_install_wraps_every_binding_and_uninstall_restores():
    mods = tracer.package_modules()
    holders = _holders(mods)
    cls = mods["quadrature"]._BoseKernelSums
    method = cls.__dict__["value"]
    t = tracer.Tracer(mods)
    t.install()
    try:
        for mod, attr, fn in holders:
            assert getattr(mod, attr).__wrapped__ is fn, (mod, attr)
        assert cls.__dict__["value"].__wrapped__ is method
        for name in ("integrate_bose", "integrate_unit_square",
                     "tanh_sinh_01"):
            assert hasattr(getattr(mods["catalog"], name), "traced_span")
        assert hasattr(mods["cli"].run_catalog, "traced_span")
    finally:
        t.uninstall()
    for mod, attr, fn in holders:
        assert getattr(mod, attr) is fn, (mod, attr)
    assert cls.__dict__["value"] is method
    assert installed_wrappers(mods) == []


def test_traced_pass_sees_calls_bound_by_from_import():
    res = worker.run_pass(dict(TANH_SINH_ENTRY, trace=True))
    spans = res["trace"]["spans"]
    assert spans["catalog._run_entry"]["calls"] == 1
    assert spans["quadrature.tanh_sinh_01"]["calls"] >= 1
    assert installed_wrappers(tracer.package_modules()) == []


def test_untraced_pass_installs_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced pass installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    res = worker.run_pass(dict(TANH_SINH_ENTRY))
    assert "trace" not in res and res["ops"][0]["passed"]
    assert installed_wrappers(tracer.package_modules()) == []


def _judge(req, offset):
    ref = run.reference(req)
    with mp.workdps(req["digits"] + 30):
        text = mp.nstr(ref + offset(ref), req["digits"] + 25)
    op = {"ms": 1.0, "value": text, "error": None}
    return run.judge_compute([op], [req], [ref])[0]


def test_value_off_in_last_requested_digit_is_wrong():
    # |psi(0.73)| < 1: digits are absolute; |log Gamma(0.3)| > 1: relative
    for fn, u in (("digamma", "0.73"), ("log_gamma", "0.3")):
        req = {"fn": fn, "route": "x", "digits": 15, "u": u}
        margin, failed, wrong = _judge(
            req, lambda r: max(1, abs(r)) * mpf(10) ** -15)
        assert failed and wrong and margin <= 0
        margin, failed, wrong = _judge(req, lambda r: 0)
        assert not failed and not wrong and abs(margin - 20) < 1e-9


def test_wrong_value_counts_as_failed_and_wrong():
    req = {"fn": "digamma", "route": "x", "digits": 15, "u": "0.73"}
    ok = _judge(req, lambda r: 0)
    bad = _judge(req, lambda r: mpf("2.4e-3"))
    ops = [{"ms": 1.0}, {"ms": 2.0}]
    t = run._tally([{"ops": ops}], [[ok, bad]])
    assert (t["attempted"], t["failed"], t["wrong"]) == (2, 1, 1)


def test_reference_seconds_scale_gaps_and_drop_unit_time():
    import speed
    probe = speed.SpeedProbe()
    # three units, each twice the reference duration: the machine runs at
    # half the reference speed, and each unit's own 2*REF seconds count 0
    d = 2 * speed.REF_UNIT_S
    probe.samples = [(0.0, d), (1.0, d), (2.0, d)]
    probe._prepare()
    assert abs(probe.reference(d, 2.0 + d) - (1.0 - d) * 2 / 2) < 1e-12
    assert probe.reference(1.0, 1.0 + d) == 0.0
    assert abs(probe.reference(0.5, 0.75) - 0.125) < 1e-12
