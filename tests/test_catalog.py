"""Structure and runner semantics of the identity catalog.

Numerical content of the entries is exercised in test_acceptance; here we
check the registry invariants and the filter/failure behavior of the runner.
"""

from decimal import Context, Decimal, localcontext

import pytest
from mpmath import mp, mpf

from stieltjes import catalog, functions, quadrature
from stieltjes.catalog import (
    ALLOWED_TAGS,
    EntryOutcome,
    IdentityEntry,
    IdentityReport,
    all_entries,
    register,
    run_catalog,
)
from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.precision import PrecisionContext, recording
from stieltjes.quadrature import (
    QuadratureResult,
    _finest_level,
    _get_table,
    integrate_unit_square,
)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class TestCensus:
    def test_total_and_slow_counts(self):
        # every entry runs in a whole-catalog pass: there is no slow tier
        es = all_entries()
        assert len(es) == 71
        assert "slow" not in ALLOWED_TAGS

    def test_ids_unique(self):
        ids = [e.id for e in all_entries()]
        assert len(ids) == len(set(ids))

    def test_registration_order_stable(self):
        assert [e.id for e in all_entries()] == [e.id for e in all_entries()]

    def test_every_id_starts_with_its_anchor(self):
        for e in all_entries():
            assert e.id.startswith(e.paper_anchor)

    def test_tags_and_tolerances_validated(self):
        for e in all_entries():
            assert e.tags <= ALLOWED_TAGS
            if e.tolerance is not None:
                assert e.tolerance_note
                assert mpf(e.tolerance) > 0

    def test_descriptions_present(self):
        for e in all_entries():
            assert e.description.strip()

    def test_most_entries_run_at_default_tolerance(self):
        assert sum(1 for e in all_entries() if e.tolerance is None) >= 30


# ---------------------------------------------------------------------------
# entry validation
# ---------------------------------------------------------------------------

def _dummy(ctx):
    return mpf(1)


class TestEntryValidation:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown tags"):
            IdentityEntry(id="X-2", description="d", paper_anchor="X-2",
                          lhs=_dummy, rhs=_dummy,
                          tags=frozenset({"sneaky"}))

    def test_tolerance_without_note_rejected(self):
        with pytest.raises(ValueError, match="needs a note"):
            IdentityEntry(id="X-3", description="d", paper_anchor="X-3",
                          lhs=_dummy, rhs=_dummy,
                          tags=frozenset({"series"}),
                          tolerance="1e-10")

    def test_duplicate_id_rejected_by_register(self):
        all_entries()
        snapshot = list(catalog._REGISTRY)
        try:
            with pytest.raises(ValueError, match="duplicate entry id"):
                register(IdentityEntry(
                    id="I-6.21", description="d", paper_anchor="I-6.21",
                    lhs=_dummy, rhs=_dummy,
                    tags=frozenset({"series"})))
        finally:
            catalog._REGISTRY[:] = snapshot


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

class TestRunner:
    def test_id_filter_runs_one_entry(self):
        report = run_catalog("I-6.21", ctx=CTX)
        assert isinstance(report, IdentityReport)
        assert report.total == 1
        out = report.outcomes[0]
        assert isinstance(out, EntryOutcome)
        assert out.entry_id == "I-6.21"
        assert out.paper_anchor == "I-6.21"
        assert out.passed
        assert out.failure is None
        assert out.abs_error <= out.tolerance
        assert out.elapsed_ms > 0

    def test_anchor_filter_groups_variants(self):
        report = run_catalog("I-2.10", ctx=CTX)
        assert report.total == 3
        assert {o.entry_id for o in report.outcomes} \
            == {"I-2.10a", "I-2.10b", "I-2.10c"}

    def test_unknown_filter_raises(self):
        with pytest.raises(ValueError, match="not a tag or entry id"):
            run_catalog("I-99.99", ctx=CTX)

    def test_tag_filter_selects_subset(self):
        es = all_entries()
        want = {e.id for e in es if "limit" in e.tags}
        report = run_catalog("limit", ctx=CTX)
        assert {o.entry_id for o in report.outcomes} == want

    def test_failure_captured_not_raised(self):
        all_entries()
        snapshot = list(catalog._REGISTRY)

        def boom(ctx):
            raise RuntimeError("deliberate")

        try:
            register(IdentityEntry(
                id="X-broken", description="raises on purpose",
                paper_anchor="X-broken",
                lhs=boom, rhs=_dummy,
                tags=frozenset({"series"})))
            report = run_catalog("X-broken", ctx=CTX)
        finally:
            catalog._REGISTRY[:] = snapshot
        assert report.total == 1
        out = report.outcomes[0]
        assert not out.passed
        assert out.failure == "RuntimeError: deliberate"
        assert out.lhs_value is None and out.abs_error is None
        assert report.failed == 1

    def test_report_counters(self):
        report = run_catalog("I-3.10", ctx=CTX)
        assert report.total == report.passed + report.failed
        assert report.total == 10
        assert report.failed == 0


def test_sine_and_cosine_entries_take_the_direct_bose_route(monkeypatch):
    # I-2.10a-c and I-2.23a-b integrate sin and cos moments against the
    # Bose weight; the direct route is the one every catalog entry takes
    def refuse(self, stride):
        raise AssertionError("kernel route taken")
    monkeypatch.setattr(quadrature._BoseKernelSums, "value", refuse)
    for anchor in ("I-2.10", "I-2.23"):
        for out in run_catalog(anchor, ctx=CTX).outcomes:
            assert out.passed, (out.entry_id, out.failure)
            assert out.lhs_record["bose_nodes"] > 0


# ---------------------------------------------------------------------------
# series closures
# ---------------------------------------------------------------------------

def stirling_refs():
    """The closed forms of the three sums that _stirling_tail closes, at
    the current precision."""
    return (mp.zeta(3) - mp.euler * mp.zeta(2), 2 * mp.zeta(3),
            -(mp.zeta(2) + mp.euler ** 2 + 2 * mp.stieltjes(1)) / 2)


STIRLING_SIDES = (catalog._psi_over_square_series,
                  catalog._harmonic_sum_over_squares,
                  catalog._harmonic_log_series)


def test_stirling_tail_stops_small_at_60_digits():
    # I-8.6 lhs and I-9.7 rhs close sum psi(n)/n^2 with _stirling_tail
    # (I-8.6 only takes its first terms from quadrature), I-9.E lhs closes
    # sum H_n/n^2 with it and I-9.1 lhs sum (psi(k) - log k)/k.  A fixed
    # 39 terms ran out at 1.8e-78 here, and both sums were off by 1.5e-79;
    # I-9.1's own closure at a fixed N = 40 was off by 1.2e-58.
    ctx = PrecisionContext.for_digits(60)
    with mp.workdps(100):
        refs = stirling_refs()
    for side, ref in zip(STIRLING_SIDES, refs):
        with ctx.working(), recording() as rec:
            v = side(ctx)
        assert "stop_cap" not in rec, side.__name__
        assert abs(v - ref) <= mpf(10) ** -80, side.__name__


@pytest.mark.parametrize("digits", [120, 200])
def test_stirling_sums_start_past_the_tail_floor(digits):
    # with N fixed at 40 the tail's smallest term sat near 2.5e-116: the
    # sums stopped on that floor from 120 digits on, H_n/n^2 was off by
    # 1.25e-116 and I-9.1's lhs by 7.2e-82.  Every truncation (the tail's
    # and psi_asymptotic's) now stops below its threshold, leaving only
    # rounding at working precision.
    ctx = PrecisionContext.for_digits(digits)
    with mp.workdps(digits + 40):
        refs = stirling_refs()
    for side, ref in zip(STIRLING_SIDES, refs):
        with ctx.working(), recording() as rec:
            v = side(ctx)
        assert rec["stop_small"] > 0, side.__name__
        assert "stop_floor" not in rec and "stop_cap" not in rec, \
            side.__name__
        assert abs(v - ref) <= mpf(10) ** (2 - ctx.working_digits), \
            side.__name__


# ---------------------------------------------------------------------------
# the 2-D entries: symmetrized integrands on one triangle
# ---------------------------------------------------------------------------

def _unit_square_integrand(monkeypatch, eid):
    """The (node, pair) that entry eid's lhs hands the 2-D rule, and the
    rule's node table."""
    seen = []

    def capture(node, pair, ctx):
        seen.append((node, pair))
        return QuadratureResult(mpf(0), mpf(0), 0, 0)
    monkeypatch.setattr(catalog, "integrate_unit_square", capture)
    (entry,) = [e for e in all_entries() if e.id == eid]
    entry.lhs(CTX)
    ((node, pair),) = seen
    return node, pair, _get_table("ts01", min(CTX.working_digits, 45))


def _spread_nodes(tab, k):
    """k node indices spread from edge to edge of the rule's window."""
    inner = [i for i in range(len(tab.nodes))
             if tab.node(i).x > mpf("1e-30") and tab.node(i).xc > mpf("1e-30")]
    return {inner[j * (len(inner) - 1) // (k - 1)] for j in range(k)}


def _check_symmetric_part(monkeypatch, eid, raw, scale):
    """Entry eid's pair is symmetric and scale times the mean of raw(p, q)
    and raw(q, p) on 67 nodes spread from edge to edge: 67^2 = 4489
    pairs."""
    node, pair, tab = _unit_square_integrand(monkeypatch, eid)
    with mp.workdps(tab.dps + 10):
        picks = _spread_nodes(tab, 67)
        assert len(picks) == 67
        ps = [node(*tab.node(i)[:2]) for i in picks]
        for p in ps:
            for q in ps:
                v = pair(p, q)
                assert v == pair(q, p)
                mean = (raw(p, q) + raw(q, p)) / 2
                assert abs(scale * v - mean) <= mpf(10) ** -50 * abs(mean)


def test_95a_pair_is_the_symmetric_part_of_sondows_integrand(monkeypatch):
    # -(1-x)/((1-xy) log(xy)) in complements; the entry halves and negates
    # the sum of its symmetrized pair over the rule's triangle
    def sondow(p, q):
        (xc, lx), (yc, ly) = p, q
        return -xc / ((xc + yc - xc * yc) * (lx + ly))
    _check_symmetric_part(monkeypatch, "I-9.5a", sondow, mpf(-1) / 2)


def test_92_pair_is_the_symmetric_part_of_the_harmonic_integrand(
        monkeypatch):
    # log x (1-y) R(y)/(1-(1-x)y)^2, R(y) = 1/log y + 1/(1-y), from the
    # abscissas in the records rather than their log and R fields
    def harmonic(p, q):
        (x, xc, _, _), (y, yc, _, _) = p, q
        r = functions.one_over_log_kernel(y, yc)
        return mp.log(x) * yc * r / (1 - xc * y) ** 2
    _check_symmetric_part(monkeypatch, "I-9.2", harmonic, 1)


@pytest.mark.parametrize("eid", ["I-9.2", "I-9.4a", "I-9.5a"])
def test_2d_pair_keeps_decimal_records_in_decimal(monkeypatch, eid):
    # the rule hands pair Decimal records; a pair that used an mpf constant
    # or an mp function would not fail but return an mpf (Decimal + mpf is
    # an mpf), and every pair would pay mpmath's cost again
    node, pair, tab = _unit_square_integrand(monkeypatch, eid)
    with mp.workdps(tab.dps + 10), localcontext(Context(prec=tab.dps + 10)):
        # 9 nodes from edge to edge, as mpf records and as the rule's
        ps = [node(*tab.node(i)[:2]) for i in _spread_nodes(tab, 9)]
        ds = [quadrature._dec(p) for p in ps]
        for p, pd in zip(ps, ds):
            for q, qd in zip(ps, ds):
                v = pair(pd, qd)
                assert type(v) is Decimal
                # the same function: I-9.4a's bracket cancels up to 34 of
                # the 55 digits at the corners, so the two roundings part
                # by up to 1.5e-21 relative there
                ref = pair(p, q)
                assert abs(mpf(str(v)) - ref) <= mpf(10) ** -15 * abs(ref)


def test_95a_settles_at_h_1_64_on_one_triangle(monkeypatch):
    xs = []

    def spy(node, pair, ctx):
        def seen(x, xc):
            xs.append(x)
            return node(x, xc)
        return integrate_unit_square(seen, pair, ctx)
    monkeypatch.setattr(catalog, "integrate_unit_square", spy)
    (out,) = run_catalog("I-9.5a", ctx=CTX).outcomes
    assert out.passed
    tab = _get_table("ts01", min(CTX.working_digits, 45))
    index = {tab.node(i).x: i for i in range(len(tab.nodes))}
    idxs = sorted(index[x] for x in xs)
    stride = 1 << (_finest_level(tab.dps) - 6)     # h = 1/64
    assert idxs == list(range(idxs[0], idxs[-1] + 1, stride))
    n = len(idxs)
    assert out.lhs_record["unit_square_nodes"] == n * (n + 1) // 2 == 117855


# ---------------------------------------------------------------------------
# I-2.20 and I-6.4: the Binet-kernel moment split at y = 1
# ---------------------------------------------------------------------------

def kernel_moment_ref(t):
    """F(t) through I-6.4's identity, in mpmath at the current precision:
    t(1 - t)/2 + t log(2 pi)/2 - log G(1 + t) + t log Gamma(t) less the
    closed-form main part of I-6.4's lhs.  F(1) = 1/4 is I-2.20."""
    t = mpf(t)
    main = ((t * t - t) / 2 * mp.log(t) - t * t / 4 + t / 2 - t * t / 2
            + t / 2 * mp.log(2 * mp.pi))
    return (t * (1 - t) / 2 + t * mp.log(2 * mp.pi) / 2
            - mp.log(mp.barnesg(1 + t)) + t * mp.loggamma(t)) - main


@pytest.mark.parametrize("digits", [15, 60])
def test_kernel_moment_matches_mpmath(digits):
    # measured: at most 4.0e-36 at 15 digits and 4.7e-82 at 60
    ctx = PrecisionContext.for_digits(digits)
    for t in ("1", "0.05", "0.5", "2", "7"):
        with ctx.working():
            v = catalog._kernel_moment(mpf(t), ctx)
        with mp.workdps(digits + 30):
            ref = mpf(1) / 4 if t == "1" else kernel_moment_ref(t)
            assert abs(v - ref) <= mpf(10) ** -(digits + 10), t


def test_220_leaves_the_exp_sinh_map():
    # on the exp-sinh map I-2.20 took 6 levels and 1284 nodes at 30
    # digits; split at y = 1 it takes tanh-sinh on (0,1) and two Laplace
    # calls of 3 levels each, tallied under laplace: each stops on the
    # extrapolated acceptance, a level before the difference test would
    (out,) = run_catalog("I-2.20", ctx=CTX).outcomes
    assert out.passed and out.abs_error == 0
    rec = out.lhs_record
    assert (rec["tanh_sinh_nodes"], rec["laplace_nodes"]) == (145, 317)
    assert (rec["tanh_sinh_levels"], rec["laplace_levels"]) == (3, 6)


# ---------------------------------------------------------------------------
# I-6.11.1: the Binet kernel tail
# ---------------------------------------------------------------------------

def test_binet_kernel_tail_seam():
    # K(t) - t/12: the series below |t| = 1/4, binet_kernel above, against
    # the direct form evaluated 40 digits wider.  Above the seam the tail
    # keeps K's absolute error (2e-51 at 50 digits, from 1/expm1(t)
    # cancelling 1/t), the series' is 6e-57 below it
    with CTX.working():
        for t in ("0.2499", "0.2501", "-0.2499", "-0.2501", "1", "3.5"):
            x = mpf(t)
            with mp.workdps(mp.dps + 40):
                ref = 1 / mp.expm1(x) - 1 / x + mpf(1) / 2 - x / 12
            err = abs(catalog._binet_kernel_tail(x) - ref)
            assert err <= mpf(10) ** -(mp.dps if abs(x) > 0.25
                                      else mp.dps + 5)


# ---------------------------------------------------------------------------
# I-9.5b: psi(1+x) + gamma and psi'(1+x) from one zeta(k) - 1 series
# ---------------------------------------------------------------------------

def _psi_nodes(ctx, k=30):
    """k tanh-sinh nodes of ctx's table, from x just below 1e-40 to xc
    just below 1e-40, on both sides of 1/2."""
    tab = _get_table("ts01", ctx.working_digits)
    with mp.workdps(30):
        edge = int(mp.ceil(mp.asinh(40 * mp.ln10 / mp.pi) / tab.h))
    lo, hi = tab.n - edge, tab.n + edge
    return [tab.node(lo + j * (hi - lo) // (k - 1)) for j in range(k)]


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
def test_psi_plus_matches_mpmath_on_tanh_sinh_nodes(digits):
    # w = psi(1+x) + gamma and w' = psi'(1+x) at the rule's precision,
    # the argument 2 - xc above 1/2, against mpmath 40 digits wider: to
    # 10^(3-dps), the target of the EM zeta(k) in the series.  Below 1/2
    # each sum takes at most two terms more than the term-by-term loop
    # over zeta(k) x^(k-2) that stopped once k |zeta(k) x^(k-2)| < eps
    ctx = PrecisionContext.for_digits(digits)
    nodes = _psi_nodes(ctx)
    assert nodes[0].x < mpf("1e-40") and nodes[-1].xc < mpf("1e-40")
    assert sum(nd.x <= 0.5 for nd in nodes) >= 10
    assert sum(nd.x > 0.5 for nd in nodes) >= 10
    with ctx.working(10):
        tol = mpf(10) ** (3 - mp.dps)
        eps = mpf(10) ** -(mp.dps + 4)
        for nd in nodes:
            with recording() as rec:
                w, wp = catalog._psi_plus(nd.x, nd.xc)
            with mp.workdps(mp.dps + 40):
                u = 1 + nd.x if nd.x <= 0.5 else 2 - nd.xc
                assert abs(w - (mp.psi(0, u) + mp.euler)) <= tol, nd.x
                assert abs(wp - mp.psi(1, u)) <= tol, nd.x
            if nd.x <= 0.5:
                loop = next(k - 1 for k in range(2, 2000)
                            if k * abs(mp.zeta(k) * nd.x ** (k - 2)) < eps)
                assert rec["kernel_terms"] <= 2 * (loop + 2), nd.x
