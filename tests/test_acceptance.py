"""Acceptance gate.  Each test asserts one shipped criterion at its stated
tolerance and time budget, nothing looser.

The two Hasse tests in TestMethodAgreement hold the binomial-recursion
method to the same twenty five digits as the integral and limit methods.
Unshifted, its double sum stalls near 1/(I log I) at depth I, about three
digits; run at u + M with the first M terms of the series added back, it
meets the criterion with about twenty digits to spare.
"""

import csv
import io
import time

import pytest
from mpmath import mp, mpf

from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.precision import PrecisionContext, agreed_digits, engines
from stieltjes import functions as F
from stieltjes import series
from stieltjes.catalog import all_entries, run_catalog
from stieltjes.cli import main
from stieltjes.quadrature import integrate_bose

GAMMA_STR = "0.5772156649015328606065120900824024310421593359399"
GAMMA1_STR = "-0.0728158454836767248605863758749013191377363383343"
GAMMA2_STR = "-0.0096903631928723184845303860352125293590658061013"


# ---------------------------------------------------------------------------
# criterion 1: five closed-form integrals, each under 5 s at 30 digits
# ---------------------------------------------------------------------------

class TestClosedFormIntegrals:
    @pytest.mark.parametrize("entry_id,tol", [
        ("I-6.21", "1e-25"),
        ("I-2.20", "1e-40"),
        ("I-3.6", "1e-23"),
        ("I-6.17", "1e-23"),
    ])
    def test_catalog_integral(self, catalog_30, entry_id, tol):
        out = catalog_30.by_id[entry_id]
        assert out.failure is None
        assert out.abs_error < mpf(tol)
        assert out.elapsed_ms < 5000

    def test_binet_integral_at_one(self):
        # 2 int_0^inf atan(x)/(e^(2 pi x)-1) dx = 1 - log(2 pi)/2
        t0 = time.perf_counter()
        with CTX.working():
            lhs = 2 * integrate_bose(mp.atan, CTX).value
            rhs = 1 - mp.log(2 * mp.pi) / 2
            assert abs(lhs - rhs) < mpf("1e-25")
        assert time.perf_counter() - t0 < 5


# ---------------------------------------------------------------------------
# criterion 2: three methods agree pairwise to 25 digits for n = 0..5
# ---------------------------------------------------------------------------

class TestMethodAgreement:
    def test_coffey_tracks_oracle_to_25_digits(self):
        t0 = time.perf_counter()
        with CTX.working():
            for n in range(6):
                a = F.stieltjes(n, 1, "coffey_integral", CTX).value
                b = F.stieltjes(n, 1, "limit_euler_maclaurin", CTX).value
                assert agreed_digits(a, b, CTX) >= 25, "n=%d" % n
        assert time.perf_counter() - t0 < 60

    @pytest.mark.parametrize("n", range(6))
    def test_hasse_joins_the_pairwise_criterion(self, n):
        # the shifted binomial recursion delivers ~45 digits here
        with CTX.working():
            v = series.hasse_stieltjes(n, 1, CTX)
            coffey = F.stieltjes(n, 1, "coffey_integral", CTX).value
            oracle = F.stieltjes(n, 1, "limit_euler_maclaurin", CTX).value
            assert agreed_digits(v, coffey, CTX) >= 25
            assert agreed_digits(v, oracle, CTX) >= 25

    @pytest.mark.parametrize("u", ["0.5", "2"])
    def test_hasse_joins_off_the_integer_point(self, u):
        # same shifted sum away from the integer point
        with CTX.working():
            u = mpf(u)
            v = series.hasse_stieltjes(1, u, CTX)
            coffey = F.stieltjes(1, u, "coffey_integral", CTX).value
            assert agreed_digits(v, coffey, CTX) >= 25


# ---------------------------------------------------------------------------
# criterion 3: tabulation to n = 19 with 15 cross-verified digits
# ---------------------------------------------------------------------------

class TestTableCriterion:
    def test_first_twenty_rows_cross_verified(self, capsys):
        code = main(["table", "--first", "20", "--digits", "15",
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value", "routes_agreeing_digits"]
        assert len(rows) == 21
        for r in rows[1:]:
            assert int(r[2]) >= 15, "n=%s only %s digits" % (r[0], r[2])
        with mp.workdps(40):
            vals = {int(r[0]): mpf(r[1]) for r in rows[1:]}
            for n, ref in ((0, GAMMA_STR), (1, GAMMA1_STR),
                           (2, GAMMA2_STR)):
                assert abs(vals[n] - mpf(ref)) < mpf("1e-15")


# ---------------------------------------------------------------------------
# criterion 4: the whole catalog, green within budget
# ---------------------------------------------------------------------------

#: Entries whose two sides run a common engine, all of them the
#: Euler-Maclaurin one, and why.  An entry leaves this list by giving one
#: side an engine-disjoint route; a new one joins it only with a reason.
SHARED_ENGINE = {
    "I-4.22a": "the inversion's rhs feeds the oracle's gamma_0 back in",
    "I-4.22b": "the inversion's rhs feeds the oracle's gamma_0..1 back in",
    "I-4.22c": "the inversion's rhs feeds the oracle's gamma_0..2 back in",
    "I-6.10a": "the product takes oracle gamma and one Euler-Maclaurin "
               "closure; the rhs takes zeta'(-1) from EM zeta",
    "I-6.10b": "the product takes oracle gamma and one Euler-Maclaurin "
               "closure; the rhs takes zeta'(-1) from EM zeta",
    "I-6.11.1": "the product takes oracle gamma and one Euler-Maclaurin "
                "closure; the rhs takes zeta'(-1) from EM zeta",
    "I-7.2": "EM zeta against the EM oracle, nothing else on either side",
    "I-8.6": "the lhs closes with EM tails; the rhs is EM zeta and oracle "
             "gamma",
    "I-9.1": "the lhs closes with EM tails and oracle gamma; the rhs is EM "
             "zeta and the oracle",
    "I-9.5b": "the integrand takes gamma and zeta(k) from the EM engine, "
              "as does the rhs",
    "I-9.E": "the lhs closes with EM tails; the rhs is EM zeta(3)",
}


class TestCatalogGate:
    def test_non_slow_catalog_all_green_within_ten_minutes(self, catalog_30):
        # every entry: there is no slow tier to leave out
        report = catalog_30.report
        failures = ["%s: %s (err=%s)"
                    % (o.entry_id, o.failure, o.abs_error)
                    for o in report.outcomes if not o.passed]
        assert not failures, failures
        assert report.total == 71
        by_id = {e.id: e for e in all_entries()}
        default_tol_passes = sum(
            1 for o in report.outcomes
            if by_id[o.entry_id].tolerance is None)
        assert default_tol_passes >= 30
        assert catalog_30.elapsed < 600
        # independence by engine, read from the same run: the sides share
        # no engine but where pinned, and no entry runs without one
        shared = {o.entry_id: engines(o.lhs_record) & engines(o.rhs_record)
                  for o in report.outcomes}
        assert {k: v for k, v in shared.items() if v} \
            == {k: {"em"} for k in SHARED_ENGINE}
        assert [o.entry_id for o in report.outcomes
                if not engines(o.lhs_record) | engines(o.rhs_record)] == []

    def test_slow_entries_pass_their_pinned_tolerances(self, catalog_30):
        # the three entries once tagged slow, now in every catalog run
        pinned = {"I-2.2": mpf("1e-28"), "I-8.2": CTX.tolerance,
                  "I-8.5": CTX.tolerance}
        for entry_id, tol in pinned.items():
            out = catalog_30.by_id[entry_id]
            assert out.failure is None, out.failure
            assert out.tolerance == tol
            assert out.abs_error < tol, entry_id

    @pytest.mark.parametrize("entry_id", ["I-8.2", "I-8.3", "I-8.5"])
    def test_trig_series_entries_pass_at_15_digits(self, entry_id):
        # only 30 digits was gated before, and these entries were off by
        # up to 7e-4 at 15 while green at 30
        ctx = PrecisionContext.for_digits(15)
        (out,) = run_catalog(entry_id, ctx=ctx).outcomes
        assert out.failure is None, out.failure
        assert out.tolerance == ctx.tolerance
        assert out.passed, out.abs_error


# ---------------------------------------------------------------------------
# criterion 5: the double-integral pair
# ---------------------------------------------------------------------------

class TestDoubleIntegrals:
    @pytest.mark.parametrize("entry_id,tol", [
        ("I-9.5a", "1e-10"),
        ("I-9.4a", "1e-28"),
    ])
    def test_unit_square_entry(self, catalog_30, entry_id, tol):
        out = catalog_30.by_id[entry_id]
        assert out.failure is None
        assert out.abs_error < mpf(tol)


# ---------------------------------------------------------------------------
# criterion 6: derivative identities and shifted-argument properties
# ---------------------------------------------------------------------------

class TestDerivativeWeb:
    @pytest.mark.parametrize("entry_id", [
        "I-3.8", "I-6.24", "I-4.21a", "I-4.21b",
    ])
    def test_entry_green(self, catalog_30, entry_id):
        out = catalog_30.by_id[entry_id]
        assert out.failure is None
        assert out.passed

    def test_gamma1_at_half_closed_form(self):
        # gamma_1(1/2) = gamma_1 - 2 gamma log 2 - log^2 2
        with CTX.working():
            lhs = series.limit_stieltjes_oracle(1, mpf("0.5"), CTX)
            g0 = series.limit_stieltjes_oracle(0, 1, CTX)
            g1 = series.limit_stieltjes_oracle(1, 1, CTX)
            rhs = g1 - 2 * g0 * mp.log(2) - mp.log(2) ** 2
            assert abs(lhs - rhs) < mpf(10) ** -40
