"""Special-function web: every route against closed forms, recurrences,
reflections, and the other routes."""

import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.precision import (
    PrecisionContext,
    PrecisionExhaustedError,
    recording,
)
from stieltjes import catalog
from stieltjes import functions as F
from stieltjes import quadrature, series
from stieltjes.quadrature import tanh_sinh_01

TOL = mpf(10) ** -40
GAMMA_STR = "0.5772156649015328606065120900824024310421593359399"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class TestKernels:
    def test_binet_kernel_series_seam(self):
        with CTX.working():
            for t in (mpf("0.2499"), mpf("0.2501")):
                direct = 1 / mp.expm1(t) - 1 / t + mpf(1) / 2
                assert abs(F.binet_kernel(t) - direct) < TOL

    @pytest.mark.parametrize("digits", [15, 60, 200])
    def test_binet_kernel_direct_form_keeps_its_digits_above_the_seam(
            self, digits):
        # 1/expm1(t) - 1/t + 1/2 cancels terms near 4 to about 1/48 there;
        # formed 20 bits wider and rounded once, K stays within
        # 10^-(dps+1) of its size (measured: at most 0.83, 0.57 and 0.60 of
        # that at 15, 60 and 200 digits over 800 points up to |t| = 0.3)
        with mp.workdps(digits):
            ts = [mpf(1) / 4 + mpf(k) / 8000 for k in (1, 2, 5, 17, 40, 400)]
            ts += [-t for t in ts]
            vals = [F.binet_kernel(t) for t in ts]
        with mp.workdps(digits + 40):
            for t, v in zip(ts, vals):
                ref = 1 / mp.expm1(t) - 1 / t + mpf(1) / 2
                assert abs(v - ref) <= mpf(10) ** -(digits + 1) * abs(ref), t

    def test_binet_kernel_leading_behavior(self):
        with CTX.working():
            t = mpf("1e-12")
            assert abs(F.binet_kernel(t) - t / 12) < mpf("1e-37")

    def test_exp_square_kernel_seam(self):
        with CTX.working():
            for y in (mpf("0.2499"), mpf("0.2501")):
                direct = mp.exp(y) / mp.expm1(y) ** 2 - 1 / y ** 2 \
                    + mpf(1) / 12
                assert abs(F.exp_square_kernel(y) - direct) < TOL

    def test_exp_square_kernel_is_minus_binet_kernel_derivative(self):
        # below the seam both kernels are one Bernoulli series:
        # exp_square_kernel = -K' + 1/12, K' the series differentiated
        with CTX.working():
            for y in (mpf("1e-8"), mpf("-0.1"), mpf("0.2499")):
                dk = mp.diff(lambda t: F._binet_series(t, 1), y)
                v = F.exp_square_kernel(y)
                assert abs(v - (mpf(1) / 12 - dk)) < TOL
                assert abs(v - (mpf(1) / 12 - F._binet_series(y, 1, 1))) \
                    < TOL
                with mp.workdps(mp.dps + 40):
                    direct = mp.exp(y) / mp.expm1(y) ** 2 - 1 / y ** 2 \
                        + mpf(1) / 12
                assert abs(v - direct) < TOL

    def test_one_over_log_kernel_matches_direct(self):
        with CTX.working():
            y = mpf("0.6")
            direct = 1 / mp.log(y) - 1 / (y - 1)
            assert abs(F.one_over_log_kernel(y) - direct) < TOL

    def test_one_over_log_kernel_complement_form(self):
        # near y = 1 the direct form cancels; the Gregory series through
        # the complement stays exact
        with CTX.working():
            yc = mpf("1e-30")
            v = F.one_over_log_kernel(1 - yc, yc)
            # R(1-e) = 1/2 + e/12 + O(e^2)
            assert abs(v - (mpf(1) / 2 + yc / 12)) < mpf("1e-55")

    @pytest.mark.parametrize("digits", [15, 30, 60])
    def test_gregory_series_stops_on_its_threshold(self, digits):
        # the Gregory sum takes its term count from a bound at e and
        # tallies it, never more than two past the term-by-term loop's;
        # checked against the direct form 40 digits wider
        ctx = PrecisionContext.for_digits(digits)
        with ctx.working():
            for e in ("0.25", "-0.25", "0.01", "-1e-20"):
                y = 1 + mpf(e)
                with recording() as rec:
                    v = F.one_over_log_kernel(y)
                assert list(rec) == ["kernel_terms"]
                assert rec["kernel_terms"] <= gregory_loop_terms(mpf(e)) + 2
                with mp.workdps(mp.dps + 40):
                    ref = 1 / mp.log(y) - 1 / (y - 1)
                assert abs(v - ref) < mpf(10) ** (2 - mp.dps)

    def test_gregory_coefficients_match_their_recurrence(self):
        # G_m = -sum_{k<m} G_k (-1)^(m-k)/(m-k+1), from e = (e/log(1+e))
        # log(1+e), exact, against the Stirling-number sum
        ref = [Fraction(1)]
        for m in range(1, 160):
            ref.append(-sum(ref[k] * Fraction((-1) ** (m - k), m - k + 1)
                            for k in range(m)))
        assert [F._gregory(n) for n in range(160)] == ref


def stop_on_small(terms):
    """How many terms the term-by-term loop the kernels once ran added:
    up to the first below 10^-(dps+4), that one included."""
    eps = mpf(10) ** -(mp.dps + 4)
    return next(n for n, term in enumerate(terms, 1) if abs(term) < eps)


def gregory_loop_terms(e):
    return stop_on_small(mpf(F._gregory(k).numerator) / F._gregory(k)
                         .denominator * e ** (k - 1) for k in range(1, 500))


def binet_loop_terms(t, k_min, d):
    return stop_on_small(series._bern_coef(k) * (2 * k - 1) ** d
                         * t ** (2 * k - 1 - d) for k in range(k_min, 500))


def kernel_points(ctx):
    """|t| = 1/4, 1/4 - 1e-4, 1e-3, 1e-30 and the smallest exp-sinh node,
    each with both signs."""
    tab = quadrature._get_table("es0inf", ctx.working_digits)
    ts = [mpf("0.25"), mpf("0.25") - mpf("1e-4"), mpf("1e-3"),
          mpf("1e-30"), tab.node(0).x]
    return ts + [-t for t in ts]


def direct(f, t):
    """f(t) 40 digits wider, plus four digits per decade of t below 1 for
    the direct forms' cancellation."""
    with mp.workdps(mp.dps + 40 + 4 * max(0, -int(mp.log10(abs(t))))):
        return f(mpf(t))


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
def test_kernel_series_match_their_direct_forms(digits):
    # K, K - t/12 and K' - 1/12 to 10^(2-dps) of their own size, so a
    # caller dividing by t^3 keeps every digit; the Gregory sum at e = t
    # and at the smallest complement of the tanh-sinh table; each term
    # count at most two past the term-by-term loop's at the same point
    ctx = PrecisionContext.for_digits(digits)
    K = lambda t: 1 / mp.expm1(t) - 1 / t + mpf(1) / 2
    kernels = (
        (1, 0, K),
        (2, 0, lambda t: K(t) - t / 12),
        (2, 1, lambda t: 1 / t ** 2 - mp.exp(t) / mp.expm1(t) ** 2
         - mpf(1) / 12),
    )
    ts01 = quadrature._get_table("ts01", ctx.working_digits)
    with ctx.working(10):
        for t in kernel_points(ctx):
            for k_min, d, f in kernels:
                with recording() as rec:
                    v = F._binet_series(t, k_min, d)
                ref = direct(f, t)
                assert abs(v - ref) <= mpf(10) ** (2 - mp.dps) * abs(ref), \
                    (t, k_min, d)
                assert rec["kernel_terms"] \
                    <= binet_loop_terms(t, k_min, d) + 2, (t, k_min, d)
            with recording() as rec:
                v = F.one_over_log_kernel(1 + t, -t)
            ref = direct(lambda e: 1 / mp.log1p(e) - 1 / e, t)
            assert abs(v - ref) <= mpf(10) ** (2 - mp.dps), t
            assert rec["kernel_terms"] <= gregory_loop_terms(t) + 2, t
        yc = ts01.node(len(ts01.nodes) - 1).xc
        v = F.one_over_log_kernel(1 - yc, yc)
        assert abs(v - direct(lambda e: 1 / mp.log1p(e) - 1 / e, -yc)) \
            <= mpf(10) ** (2 - mp.dps)


class TestBinetKernelCache:
    """binet_kernel keeps each value per (mp.prec, t); the exp-sinh
    integrands that read one node at one precision share it."""

    @staticmethod
    def cold(t):
        # above the seam: e^t at prec + 30 bits, the direct form at
        # prec + 20, rounded once to prec
        x = mpf(t)
        if abs(x) > mpf(1) / 4:
            wp = mp.prec + 20
            with mp.workprec(wp + 10):
                e = mp.exp(x)
            with mp.workprec(wp):
                k = 1 / (e - 1) - 1 / x + mpf(1) / 2
            return +k
        return F._binet_series(x, 1)

    @pytest.mark.parametrize("digits", [15, 30, 60, 120])
    def test_kept_value_is_the_cold_value(self, monkeypatch, digits):
        # nodes across the table, 1e-92 to 1e92, both sides of the seam
        monkeypatch.setattr(F, "_BINET", {})
        ctx = PrecisionContext.for_digits(digits)
        tab = quadrature._get_table("es0inf", ctx.working_digits)
        xs = [tab.node(i).x for i in range(0, len(tab.nodes), 97)]
        with ctx.working(10):
            with recording() as rec:
                first = [F.binet_kernel(x) for x in xs]
            with recording() as again:
                kept = [F.binet_kernel(x) for x in xs]
            cold = [self.cold(x) for x in xs]
        assert rec["kernel_values_built"] == len(xs)
        assert "kernel_values_built" not in again
        assert "stop_small" not in again
        for a, b, c in zip(first, kept, cold):
            assert a._mpf_ == b._mpf_ == c._mpf_

    def test_value_kept_at_one_precision_is_not_read_at_another(
            self, monkeypatch):
        monkeypatch.setattr(F, "_BINET", {})
        xs = [mpf("1e-20"), mpf("0.3"), mpf(7)]
        with mp.workdps(40):
            xs = [x / 3 for x in xs]
            low = [F.binet_kernel(x) for x in xs]
        with mp.workdps(80):
            with recording() as rec:
                high = [F.binet_kernel(x) for x in xs]
            assert [v._mpf_ for v in high] == \
                [self.cold(x)._mpf_ for x in xs]
        assert rec["kernel_values_built"] == len(xs)
        assert all(a._mpf_ != b._mpf_ for a, b in zip(low, high))

    def test_binet1_reuses_the_values_digamma_laplace_read(
            self, monkeypatch):
        monkeypatch.setattr(F, "_BINET", {})
        seen = []
        kernel = F.binet_kernel

        def spy(t):
            seen[-1].add(t)
            return kernel(t)
        monkeypatch.setattr(F, "binet_kernel", spy)
        recs = []
        for call in (lambda: F.digamma(mpf("0.8"), CTX, "laplace"),
                     lambda: F.log_gamma(mpf("1.3"), "binet1", CTX)):
            seen.append(set())
            with recording() as rec:
                call()
            recs.append(rec)
        first, second = seen
        assert recs[0]["kernel_values_built"] == len(first)
        assert first & second
        assert recs[1].get("kernel_values_built", 0) == len(second - first)

    def test_cache_holds_only_built_exp_sinh_nodes(self, monkeypatch):
        monkeypatch.setattr(F, "_BINET", {})
        monkeypatch.setattr(quadrature, "_TABLES", {})
        with CTX.working():
            F.digamma(mpf("0.6"), CTX, "laplace")
            F.log_gamma(mpf("2.5"), "binet1", CTX)
            catalog._kernel_moment(1, CTX)
        # the Laplace calls read K on the exp-decay table, the kernel
        # moment (I-2.20's lhs) on the tanh-sinh one: the cache holds built
        # nodes of the two alone
        tabs = [quadrature._get_table(kind, CTX.working_digits)
                for kind in ("ed0inf", "ts01")]
        (vals,) = F._BINET.values()
        built = [[nd for nd in tab.nodes if nd is not None] for tab in tabs]
        # tanh-sinh abscissas next to 1 round to 1, so count nodes, not xs
        assert all(0 < tab.built == len(b) for tab, b in zip(tabs, built))
        xs = [{nd.x for nd in b} for b in built]
        assert 0 < len(vals) <= sum(tab.built for tab in tabs)
        assert set(vals) <= xs[0] | xs[1]


# ---------------------------------------------------------------------------
# digamma / trigamma
# ---------------------------------------------------------------------------

class TestDigamma:
    def test_at_one(self):
        with CTX.working():
            fv = F.digamma(1, CTX)
            assert abs(fv.value + mpf(GAMMA_STR)) < TOL

    def test_at_half(self):
        with CTX.working():
            fv = F.digamma(mpf("0.5"), CTX)
            assert abs(fv.value + mpf(GAMMA_STR) + 2 * mp.log(2)) < TOL

    def test_routes_agree_and_are_labeled(self):
        with CTX.working():
            a = F.digamma(mpf("2.5"), CTX, "bose")
            b = F.digamma(mpf("2.5"), CTX, "laplace")
            assert a.route != b.route
            assert abs(a.value - b.value) < TOL

    def test_recurrence(self):
        # at u >= 1 both sides run the rule; below 1, digamma(u) itself
        # steps to u + 1 by this recurrence
        with CTX.working():
            u = mpf("1.75")
            lhs = F.digamma(u + 1, CTX).value
            rhs = F.digamma(u, CTX).value + 1 / u
            assert abs(lhs - rhs) < TOL

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            F.digamma(0, CTX)

    def test_laplace_counts_its_nodes(self):
        with recording() as rec:
            F.digamma(1, PrecisionContext.for_digits(30), "laplace")
        assert 0 < rec["laplace_nodes"] <= 320


class TestTrigamma:
    def test_at_one(self):
        with CTX.working():
            assert abs(F.trigamma(1, CTX).value - mp.pi ** 2 / 6) < TOL

    def test_at_half(self):
        with CTX.working():
            assert abs(F.trigamma(mpf("0.5"), CTX).value
                       - mp.pi ** 2 / 2) < TOL

    def test_recurrence(self):
        with CTX.working():
            u = mpf("1.3")
            lhs = F.trigamma(u + 1, CTX).value
            rhs = F.trigamma(u, CTX).value - 1 / u ** 2
            assert abs(lhs - rhs) < TOL


# ---------------------------------------------------------------------------
# log gamma
# ---------------------------------------------------------------------------

class TestLogGamma:
    def test_route_names(self):
        assert F.LOG_GAMMA_ROUTES == ("binet2", "binet1", "bourguet",
                                      "binomial_series")

    @pytest.mark.parametrize("route", ["binet2", "binet1"])
    def test_exact_points(self, route):
        with CTX.working():
            assert abs(F.log_gamma(1, route, CTX).value) < TOL
            assert abs(F.log_gamma(2, route, CTX).value) < TOL
            assert abs(F.log_gamma(mpf("0.5"), route, CTX).value
                       - mp.log(mp.pi) / 2) < TOL

    def test_binet_routes_agree_off_grid(self):
        with CTX.working():
            u = mpf("3.7")
            a = F.log_gamma(u, "binet2", CTX).value
            b = F.log_gamma(u, "binet1", CTX).value
            assert abs(a - b) < TOL

    def test_recurrence(self):
        with CTX.working():
            u = mpf("1.6")
            lhs = F.log_gamma(u + 1, "binet2", CTX).value
            rhs = F.log_gamma(u, "binet2", CTX).value + mp.log(u)
            assert abs(lhs - rhs) < TOL

    def test_reflection(self):
        with CTX.working():
            third = mpf(1) / 3
            total = F.log_gamma(third, "binet2", CTX).value \
                + F.log_gamma(1 - third, "binet2", CTX).value
            assert abs(total - mp.log(mp.pi / mp.sin(mp.pi / 3))) < TOL

    def test_bourguet_at_quarter(self):
        with CTX.working():
            a = F.log_gamma(mpf("0.25"), "bourguet", CTX).value
            b = F.log_gamma(mpf("0.25"), "binet2", CTX).value
            assert abs(a - b) < mpf(10) ** -30

    @pytest.mark.parametrize("digits", [15, 60])
    @pytest.mark.parametrize("u", ["1e-7", "1e-3", "0.73", "10"])
    def test_bourguet_matches_mpmath(self, digits, u):
        # the lattice length and the si/ci tier boundary follow the
        # digits; fixed ones left 7e-4 at 15 digits and 5e-47 at 60.  Its
        # length grows like 1/u, so below u = 1 the lattice runs at u + 1
        # and every call stays within a few seconds
        ctx = PrecisionContext.for_digits(digits)
        uu = mpf(u)
        start = time.perf_counter()
        val = F.log_gamma(uu, "bourguet", ctx).value
        assert time.perf_counter() - start < 5
        with mp.workdps(digits + 30):
            assert abs(val - mp.loggamma(uu)) <= ctx.tolerance

    @pytest.mark.parametrize("what,u", [
        ("digamma", 84), ("digamma", 200), ("log_gamma", 84)])
    def test_laplace_routes_keep_their_mass_at_large_u(self, what, u):
        # e^(-ut) puts the mass near t = 1/u behind a negligible band
        # around t = 1; the finer levels used to stop in that band
        ctx = PrecisionContext.for_digits(15)
        if what == "digamma":
            val = F.digamma(u, ctx, "laplace").value
        else:
            val = F.log_gamma(u, "binet1", ctx).value
        with mp.workdps(45):
            ref = mp.psi(0, u) if what == "digamma" else mp.loggamma(u)
            assert abs(val - ref) <= ctx.tolerance * abs(ref)

    @pytest.mark.parametrize("digits", [15, 60])
    @pytest.mark.parametrize("u", ["300", "1e3", "1e4"])
    def test_laplace_routes_keep_the_whole_integral(self, digits, u):
        # the integral is 1/(12 u^2) for psi and 1/(12 u) for log Gamma;
        # every term near the walk's center is negligible here, and a walk
        # that stopped there missed all of it
        ctx = PrecisionContext.for_digits(digits)
        psi = F.digamma(u, ctx, "laplace").value
        lg = F.log_gamma(u, "binet1", ctx).value
        with mp.workdps(digits + 30):
            for v, ref in ((psi, mp.psi(0, mpf(u))),
                           (lg, mp.loggamma(mpf(u)))):
                assert abs(v - ref) <= mpf(10) ** -(digits + 10) * abs(ref)

    def test_binomial_series_honest_within_its_own_tail(self):
        # the route reports its truncation tail, returns a value only when
        # that tail is inside the tolerance, and stays within it
        with CTX.working():
            with recording() as rec:
                fv = F.log_gamma(mpf("2.5"), "binomial_series", CTX)
            ref = F.log_gamma(mpf("2.5"), "binet2", CTX).value
            tail = mpf(rec["binomial_tail"])
            assert tail <= CTX.tolerance
            assert abs(fv.value - ref) <= 10 * tail

    def test_rejects_unknown_route(self):
        with pytest.raises(ValueError):
            F.log_gamma(1, "nonsense", CTX)


# ---------------------------------------------------------------------------
# Hurwitz zeta and its s-derivatives
# ---------------------------------------------------------------------------

class TestHurwitzZeta:
    def test_at_two_one(self):
        with CTX.working():
            assert abs(F.hurwitz_zeta(2, 1, CTX).value
                       - mp.pi ** 2 / 6) < TOL

    def test_matches_em_on_the_critical_strip_edge(self):
        with CTX.working():
            a = F.hurwitz_zeta(mpf("0.5"), 1, CTX, "hermite").value
            b = series.riemann_zeta_em(mpf("0.5"), 0, CTX)
            assert abs(a - b) < TOL

    def test_negative_integer_closed_form(self):
        with CTX.working():
            v = F.hurwitz_zeta(-1, 1, CTX).value
            assert abs(v + mpf(1) / 12) < TOL

    def test_u_recurrence(self):
        with CTX.working():
            s = mpf("1.7")
            u = mpf("1.8")      # below 1, hurwitz_zeta steps to u + 1 itself
            lhs = F.hurwitz_zeta(s, u, CTX).value
            rhs = u ** (-s) + F.hurwitz_zeta(s, u + 1, CTX).value
            assert abs(lhs - rhs) < TOL

    def test_pole_rejected(self):
        for route in F.ZETA_ROUTES:
            with pytest.raises(ValueError):
                F.hurwitz_zeta(1, 1, CTX, route)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            F.hurwitz_zeta(2, 1, CTX, "nonsense")
        with pytest.raises(ValueError):
            F.hurwitz_zeta_sderiv(1, 2, 1, CTX, "bose")

    def test_route_labels(self):
        labels = [(F.hurwitz_zeta(2, 1, CTX, r).route,
                   F.hurwitz_zeta_sderiv(2, 2, 1, CTX, r).route)
                  for r in F.ZETA_ROUTES]
        assert labels == [("euler_maclaurin", "euler_maclaurin_sderiv2"),
                          ("hermite_bose", "hermite_bose_sderiv2")]


class TestSDerivatives:
    def test_order1_at_zero_is_half_log_2pi(self):
        with CTX.working():
            v = F.hurwitz_zeta_sderiv(1, 0, 1, CTX).value
            assert abs(v + mp.log(2 * mp.pi) / 2) < TOL

    def test_order1_at_zero_lerch(self):
        # zeta'(0, u) = log Gamma(u) - log(2 pi)/2
        with CTX.working():
            u = mpf("2.5")
            v = F.hurwitz_zeta_sderiv(1, 0, u, CTX).value
            ref = F.log_gamma(u, "binet2", CTX).value \
                - mp.log(2 * mp.pi) / 2
            assert abs(v - ref) < TOL

    def test_order1_matches_finite_difference(self):
        with CTX.working():
            s = mpf("2.5")
            u = mpf("1.3")
            h = mpf("1e-12")
            fd = (F.hurwitz_zeta(s + h, u, CTX).value
                  - F.hurwitz_zeta(s - h, u, CTX).value) / (2 * h)
            v = F.hurwitz_zeta_sderiv(1, s, u, CTX).value
            assert abs(fd - v) < mpf(10) ** -20

    def test_order2_matches_finite_difference(self):
        with CTX.working():
            s = mpf("2.0")
            u = mpf("1.0")
            h = mpf("1e-10")
            fd = (F.hurwitz_zeta_sderiv(1, s + h, u, CTX).value
                  - F.hurwitz_zeta_sderiv(1, s - h, u, CTX).value) / (2 * h)
            v = F.hurwitz_zeta_sderiv(2, s, u, CTX).value
            assert abs(fd - v) < mpf(10) ** -16

    def test_order2_at_zero_closed_form(self):
        # zeta''(0) = gamma_1 + gamma^2/2 - pi^2/24 - log(2 pi)^2/2,
        # with the constants taken from the independent limit oracle
        with CTX.working():
            v = F.hurwitz_zeta_sderiv(2, 0, 1, CTX).value
            g0 = series.limit_stieltjes_oracle(0, 1, CTX)
            g1 = series.limit_stieltjes_oracle(1, 1, CTX)
            ref = g1 + g0 ** 2 / 2 - mp.pi ** 2 / 24 \
                - mp.log(2 * mp.pi) ** 2 / 2
            assert abs(v - ref) < TOL

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            F.hurwitz_zeta_sderiv(3, 0, 1, CTX)


def zeta_error(route, m, s, u, digits):
    """zeta^(m)(s,u) by route at digits, its error against mp.zeta(s, u, m)
    at digits + 30, relative above 1 and absolute below."""
    ctx = PrecisionContext.for_digits(digits)
    if m:
        v = F.hurwitz_zeta_sderiv(m, s, u, ctx, route).value
    else:
        v = F.hurwitz_zeta(s, u, ctx, route).value
    with mp.workdps(digits + 30):
        ref = mp.zeta(mpf(s), mpf(u), m)
        return abs(v - ref) / max(1, abs(ref))


@pytest.mark.parametrize("digits", [6, 15, 30, 60])
def test_hermite_grid_matches_mpmath(digits):
    # Hermite's integral for zeta(s,u) and its first two s-derivatives
    # against mpmath, across the continuation (s < 1) and u over six
    # decades.  The worst relative errors measured are 6.3e-27, 4.4e-34,
    # 2.3e-49 and 2.1e-79 at 6, 15, 30 and 60 digits: each within
    # 10^-(digits+17).
    for s in ("-2.7", "-1", "0.3", "1.7", "3"):
        for u in ("1e-3", "0.25", "1", "1e3"):
            for m in (0, 1, 2):
                err = zeta_error("hermite", m, s, u, digits)
                assert err <= mpf(10) ** -(digits + 17), (s, u, m, err)


EM_SWEEP_S = ("-40", "-25", "-10", "-3", "-1", "0", "0.5", "0.999",
              "1.001", "2", "4")
EM_SWEEP_U = ("1e-3", "0.37", "1", "4", "30", "1e3", "1e4")


@pytest.mark.parametrize("digits", [6, 15, 30, 60, 120, 200])
def test_em_zeta_sweep_matches_mpmath(digits):
    # the Euler-Maclaurin route for zeta(s,u), zeta' and zeta'' against
    # mpmath: every cell served and right to 10^-digits max(1, |ref|).
    # u stops at 1e3 for s <= -10, where mp.zeta itself gets slow, and at
    # 1e4: mp.zeta(-0.5, u) takes 8 s at u = 1e6.  At 120 and 200 digits
    # the grid is thinned to every second and every third (s, u) cell.
    # The terms of s < 1 grow before they cancel, and the route raises
    # its digits by theirs: without that, zeta'(-25, 1) and
    # zeta''(-25, 1) were off by 2e6 and 1e9 at 15 digits.  The smallest
    # margin measured is 28.0 digits, the slowest cell 78 ms
    thin = {120: 2, 200: 3}.get(digits, 1)
    for i, s in enumerate(EM_SWEEP_S):
        for j, u in enumerate(EM_SWEEP_U):
            if (i + j) % thin or float(s) <= -10 and float(u) > 1e3:
                continue
            for m in (0, 1, 2):
                err = zeta_error("em", m, s, u, digits)
                assert err <= mpf(10) ** -digits, (s, u, m, err)


def test_em_zeta_far_left_is_right_or_refused():
    # the sum starts at u + n >= (1-s)/2 pi, past which the closing terms
    # only fall: started at u = 1, zeta(-60, 1) = 0 came out as 2.8e-13 at
    # 15 digits with exit 0.  zeta' there is right or refused (exit 3):
    # today it needs more direct terms than the plan allows, and Hermite
    # serves it.  Below s = 1 - 2 dps (-89 at 15 digits, -459 at 200) the
    # route refuses at once: s = -1000 ran for minutes, on Bernoulli
    # numbers to B_1000
    for s in ("-60", "-80"):
        assert zeta_error("em", 0, s, 1, 15) <= mpf(10) ** -15
        try:
            assert zeta_error("em", 1, s, 1, 15) <= mpf(10) ** -15
        except PrecisionExhaustedError:
            pass
    for digits in (15, 200):
        t0 = time.perf_counter()
        with pytest.raises(PrecisionExhaustedError):
            zeta_error("em", 0, -1000, 1, digits)
        assert time.perf_counter() - t0 < 1


BOSE_SWEEP_U = ("1e-12", "1e-9", "2^-10", "2^-7", "3/8", "1", "4", "10",
                "1e3", "1e4")


def sweep_u(text):
    if text.startswith("2^"):
        return mpf(2) ** int(text[2:])
    a, _, b = text.partition("/")
    return mpf(a) / int(b or 1)


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
def test_bose_routes_sweep_matches_mpmath(digits):
    # every route on the Bose rule, at u over sixteen decades, against
    # mpmath at digits + 40 (mp.stieltjes(3, 1e-12) at digits + 20 is off
    # by 6.5e-32 relative): relative error, absolute below 1.  Below
    # u = 1 each runs at u + 1 by its recurrence, but Barnes integral_6_7,
    # whose recurrence would need log Gamma: its levels grow below t = 0.1
    # and at 60 digits t = 1e-12 stalls, so it is swept from 2^-10 on.
    # The worst measured are 1.6e-35 at 15 digits and 2.0e-49, 1.2e-79
    # and 1.2e-139 at 30, 60 and 120, all trigamma at u = 1e4, each about
    # 19 digits past the target
    ctx = PrecisionContext.for_digits(digits)
    routes = (
        (lambda u: F.digamma(u, ctx, "bose"), lambda u: mp.psi(0, u)),
        (lambda u: F.trigamma(u, ctx), lambda u: mp.psi(1, u)),
        (lambda u: F.log_gamma(u, "binet2", ctx), mp.loggamma),
        (lambda u: F.hurwitz_zeta("2.5", u, ctx, "hermite"),
         lambda u: mp.zeta(mpf("2.5"), u)),
        (lambda u: F.hurwitz_zeta_sderiv(1, -1, u, ctx, "hermite"),
         lambda u: mp.zeta(-1, u, 1)),
        (lambda u: F.hurwitz_zeta_sderiv(2, "-2.75", u, ctx, "hermite"),
         lambda u: mp.zeta(mpf("-2.75"), u, 2)),
        (lambda u: F.stieltjes(3, u, "coffey_integral", ctx),
         lambda u: mp.stieltjes(3, u)),
        (lambda u: F.barnes_g_log(u, "integral_6_7", ctx),
         lambda u: mp.log(mp.barnesg(1 + u))),
    )
    for text in BOSE_SWEEP_U:
        u = sweep_u(text)
        for k, (route, ref) in enumerate(routes):
            if k == len(routes) - 1 and u < 2 ** -10:
                continue
            v = route(u).value
            with mp.workdps(digits + 40):
                r = ref(u)
                err = abs(v - r) / max(1, abs(r))
            assert err <= mpf(10) ** -(digits + 15), (text, k, err)


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
def test_laplace_routes_sweep_matches_mpmath(digits):
    # the Laplace rule's routes over the same u, against mpmath at
    # digits + 40.  The worst measured are 4.5e-36, 4.8e-52, 7.1e-82 and
    # 8.8e-142 at 15, 30, 60 and 120 digits, all digamma at u = 1e3 or
    # 1e4, each about 21 digits past the target
    ctx = PrecisionContext.for_digits(digits)
    routes = ((lambda u: F.digamma(u, ctx, "laplace"), lambda u: mp.psi(0, u)),
              (lambda u: F.log_gamma(u, "binet1", ctx), mp.loggamma))
    for text in BOSE_SWEEP_U:
        u = sweep_u(text)
        for k, (route, ref) in enumerate(routes):
            v = route(u).value
            with mp.workdps(digits + 40):
                r = ref(u)
                err = abs(v - r) / max(1, abs(r))
            assert err <= mpf(10) ** -(digits + 15), (text, k, err)


@pytest.mark.parametrize("digits", [15, 60])
def test_small_u_reads_the_nodes_of_u_plus_1(digits):
    # below u = 1 every Bose and Laplace route steps to u + 1 first, so it
    # reads the nodes it reads there: before, digamma bose read 570 nodes
    # at u = 2^-7 and 15 digits against 147 at u = 1, and every route
    # stalled at u = 1e-12
    ctx = PrecisionContext.for_digits(digits)
    routes = (lambda u: F.digamma(u, ctx, "bose"),
              lambda u: F.digamma(u, ctx, "laplace"),
              lambda u: F.trigamma(u, ctx),
              lambda u: F.log_gamma(u, "binet2", ctx),
              lambda u: F.log_gamma(u, "binet1", ctx),
              lambda u: F.hurwitz_zeta("2.5", u, ctx, "hermite"),
              lambda u: F.hurwitz_zeta_sderiv(1, -1, u, ctx, "hermite"),
              lambda u: F.hurwitz_zeta_sderiv(2, "3.9", u, ctx, "hermite"),
              lambda u: F.stieltjes(3, u, "coffey_integral", ctx))

    def nodes(route, u):
        with recording() as rec:
            route(u)
        return rec.get("bose_nodes", 0) + rec.get("laplace_nodes", 0)

    with ctx.working(10):
        for u in (mpf(2) ** -7, mpf("1e-12")):
            for k, route in enumerate(routes):
                small, shifted = nodes(route, u), nodes(route, u + 1)
                assert abs(small - shifted) <= shifted / 10, (u, k)


def test_exp_sinh_range_follows_the_digits():
    # up to 60 digits the table keeps t_max = 5.6, so its node counts and
    # every value there stay as they were.  At 120 digits its smallest
    # node lies within a step (a factor 2) of 10^-(dps+10); with 5.6 it
    # sat at 5.8e-93, and these Bose routes stalled at a level difference
    # near 1e-93.  Measured: relative errors of 7.0e-141, 4.9e-140 and
    # 1.4e-140.
    for digits, n in ((15, 1433), (30, 2867), (60, 2867)):
        dps = PrecisionContext.for_digits(digits).working_digits
        assert quadrature._get_table("es0inf", dps).n == n
    ctx = PrecisionContext.for_digits(120)
    tab = quadrature._get_table("es0inf", ctx.working_digits)
    assert tab.node(0).x < 2 * mpf(10) ** -(ctx.working_digits + 10)
    values = (F.digamma("0.37", ctx, "bose"),
              F.log_gamma("0.37", "binet1", ctx),
              F.hurwitz_zeta_sderiv(2, 0, "0.37", ctx, "hermite"))
    with mp.workdps(150):
        u = mpf("0.37")
        refs = (mp.psi(0, u), mp.loggamma(u), mp.zeta(0, u, 2))
        for v, ref in zip(values, refs):
            assert abs(v.value - ref) <= abs(ref) * mpf(10) ** -130, v.route


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

class TestBarnesG:
    def test_route_names(self):
        assert F.BARNES_G_ROUTES == ("integral_6_7", "weierstrass_6_5",
                                     "gosper_vardi_6_10")

    @pytest.mark.parametrize("route", F.BARNES_G_ROUTES)
    def test_exact_zeros(self, route):
        # G(2) = G(3) = 1
        with CTX.working():
            assert abs(F.barnes_g_log(1, route, CTX).value) < TOL
            assert abs(F.barnes_g_log(2, route, CTX).value) < TOL

    @pytest.mark.parametrize("t", ["0.5", "1.5", "2.5"])
    def test_routes_pairwise(self, t):
        with CTX.working():
            t = mpf(t)
            vals = [F.barnes_g_log(t, r, CTX).value
                    for r in F.BARNES_G_ROUTES]
            assert abs(vals[0] - vals[1]) < TOL
            assert abs(vals[0] - vals[2]) < TOL

    def test_weierstrass_diagnostics(self):
        # K = max(60, 4t + 40) product terms, then one Euler-Maclaurin
        # closure whose terms fall below 10^-(dps-2); with gamma from the
        # oracle cache the record holds nothing else
        series.limit_stieltjes_oracle(0, 1, CTX)
        for t, terms in (("1.5", 21), ("0.25", 20)):
            with recording() as rec:
                F.barnes_g_log(mpf(t), "weierstrass_6_5", CTX)
            assert rec == {"em_cache_hits": 1, "em_direct": 60,
                           "em_terms": terms, "stop_small": 1}, t

    @pytest.mark.parametrize("digits, K_min", [(15, 0), (60, 0), (200, 85)])
    def test_weierstrass_matches_mpmath(self, digits, K_min):
        # K = max(60, 4t + 40) until, from 134 digits on, the digits raise
        # it to K_min = dps ln 10/(2 pi)
        ctx = PrecisionContext.for_digits(digits)
        for t, K in (("0.01", 60), ("0.25", 60), ("4", 60), ("30", 160)):
            with recording() as rec:
                v = F.barnes_g_log(t, "weierstrass_6_5", ctx).value
            assert rec["em_direct"] == max(K, K_min), t
            assert rec["stop_small"] == 1 and "stop_floor" not in rec, t
            with mp.workdps(digits + 40):
                ref = mp.log(mp.barnesg(1 + mpf(t)))
                assert abs(v - ref) <= mpf(10) ** -(digits + 10) * abs(ref), t

    def test_gamma_recurrence(self):
        # G(2+t) = Gamma(1+t) G(1+t)
        with CTX.working():
            t = mpf("0.9")
            lhs = F.barnes_g_log(t + 1, "integral_6_7", CTX).value
            rhs = F.log_gamma(1 + t, "binet2", CTX).value \
                + F.barnes_g_log(t, "integral_6_7", CTX).value
            assert abs(lhs - rhs) < TOL


# ---------------------------------------------------------------------------
# sine / cosine integrals
# ---------------------------------------------------------------------------

class TestSinCosIntegrals:
    def test_si_against_direct_quadrature(self):
        # Si(2) = int_0^1 sin(2v)/v dv, evaluated by an unrelated rule
        with CTX.working():
            Si, _, _ = F.sin_cos_integrals(2, CTX)
            ref = tanh_sinh_01(lambda v, vc: mp.sin(2 * v) / v, CTX).value
            assert abs(Si - ref) < TOL

    def test_ci_against_direct_quadrature(self):
        # Ci(2) = gamma + log 2 + int_0^1 (cos(2v)-1)/v dv
        with CTX.working():
            _, _, Ci = F.sin_cos_integrals(2, CTX)
            ref = mpf(GAMMA_STR) + mp.log(2) + tanh_sinh_01(
                lambda v, vc: (mp.cos(2 * v) - 1) / v, CTX).value
            assert abs(Ci - ref) < TOL

    def test_si_is_si_minus_half_pi(self):
        with CTX.working():
            for x in (mpf("0.5"), mpf(3), mpf(40), mpf(200)):
                Si, si, _ = F.sin_cos_integrals(x, CTX)
                assert abs(si - (Si - mp.pi / 2)) < TOL

    @pytest.mark.parametrize("seam", ["8", "100", "boundary"])
    def test_tier_seams_are_continuous(self, seam):
        with CTX.working(10):
            Z = F._aux_boundary()
        with CTX.working():
            eps = mpf("1e-25")
            x = Z if seam == "boundary" else mpf(seam)
            lo = F.sin_cos_integrals(x - eps, CTX)
            hi = F.sin_cos_integrals(x + eps, CTX)
            for a, b in zip(lo, hi):
                assert abs(a - b) < mpf(10) ** -20

    @pytest.mark.parametrize("digits", [6, 15, 30, 60])
    def test_aux_functions_match_mpmath_across_the_tiers(self, digits):
        # f = Ci sin - si cos and g = -Ci cos - si sin from z = 20 to 30
        # past the tier boundary Z, which grows with the digits; a fixed
        # Z = 100 left a floor of 5e-43, and a truncated Laplace walk
        # returned ~0 from z = 68 at 6 digits
        ctx = PrecisionContext.for_digits(digits)
        with ctx.working(10):
            Z = F._aux_boundary()
            zs = [mpf(z) for z in range(20, int(Z) + 31, 8)] + [Z]
        for z in zs:
            f, g = F._si_ci_aux(0, z, ctx), F._si_ci_aux(1, z, ctx)
            with mp.workdps(digits + 40):
                ci, si = mp.ci(z), mp.si(z) - mp.pi / 2
                s, c = mp.sin(z), mp.cos(z)
                for val, ref in ((f, ci * s - si * c),
                                 (g, -ci * c - si * s)):
                    assert abs(val - ref) <= mpf(10) ** -(digits + 10) * ref

    def test_lattice_sum_from_first_past_the_boundary(self):
        # at z0 = Z/5 the tier boundary comes before n = 13: the sum from
        # n = 13 is still the full sum less its first 12 terms
        with CTX.working(10):
            z0 = F._aux_boundary() / 5
        full = F._aux_lattice_sum(1, 2, z0, CTX)
        part = F._aux_lattice_sum(1, 2, z0, CTX, first=13)
        with CTX.working(10):
            head = sum(F._si_ci_aux(1, n * z0, CTX) / mpf(n) ** 2
                       for n in range(1, 13))
            assert abs(full - head - part) < TOL

    def test_large_argument_envelope(self):
        # Ci(x) ~ sin(x)/x: bounded by ~1/x
        with CTX.working():
            _, _, Ci = F.sin_cos_integrals(150, CTX)
            assert abs(Ci) < mpf("0.01")


# ---------------------------------------------------------------------------
# Stieltjes dispatch
# ---------------------------------------------------------------------------

class TestStieltjesDispatch:
    def test_method_names(self):
        assert F.STIELTJES_METHODS == ("coffey_integral", "hasse_sum",
                                       "limit_euler_maclaurin",
                                       "alt_zeta_recursion")

    def test_default_matches_oracle(self):
        with CTX.working():
            fv = F.stieltjes(3, 1, ctx=CTX)
            assert fv.route == "limit_euler_maclaurin"
            ref = series.limit_stieltjes_oracle(3, 1, CTX)
            assert abs(fv.value - ref) < TOL

    def test_coffey_vs_oracle_off_grid(self):
        with CTX.working():
            u = mpf("1.75")
            a = F.stieltjes(2, u, "coffey_integral", CTX).value
            b = series.limit_stieltjes_oracle(2, u, CTX)
            assert abs(a - b) < mpf(10) ** -25

    def test_altzeta_route_u1_only(self):
        with CTX.working():
            fv = F.stieltjes(1, 1, "alt_zeta_recursion", CTX)
            ref = series.limit_stieltjes_oracle(1, 1, CTX)
            assert abs(fv.value - ref) < mpf(10) ** -25
        with pytest.raises(ValueError):
            F.stieltjes(1, 2, "alt_zeta_recursion", CTX)

    def test_hasse_refuses_default_tolerance(self):
        # at 30 digits the shifted sum (depth = shift = 71) reaches
        # 10^-30 for low orders but not for n = 60: its tail estimate is
        # ~4e-14 against 1e-30, and the value agrees with mp.stieltjes to
        # only 20 digits, so refusing is the honest answer
        with pytest.raises(PrecisionExhaustedError):
            F.stieltjes(60, 1, "hasse_sum", CTX)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            F.stieltjes(0, 1, "bogus", CTX)


def test_non_finite_u_is_rejected_before_any_quadrature(monkeypatch):
    # NaN passes a bare `u <= 0` check and would run the whole Bose
    # quadrature before stalling; every entry point must refuse it up front
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature reached with a non-finite u")
    monkeypatch.setattr(F, "integrate_bose", no_quadrature)
    monkeypatch.setattr(F, "integrate_laplace", no_quadrature)
    calls = (
        lambda u: F.digamma(u, CTX),
        lambda u: F.digamma(u, CTX, "laplace"),
        lambda u: F.trigamma(u, CTX),
        lambda u: F.hurwitz_zeta(2, u, CTX),
        lambda u: F.hurwitz_zeta(2, u, CTX, "hermite"),
        lambda u: F.hurwitz_zeta_sderiv(1, 0, u, CTX),
        lambda u: F.hurwitz_zeta_sderiv(1, 0, u, CTX, "hermite"),
        lambda u: F.stieltjes(0, u, "coffey_integral", CTX),
        lambda u: series.alt_zeta_hasse(1, u, 0, CTX),
        lambda u: F.barnes_g_log(u, ctx=CTX),
        lambda u: F.sin_cos_integrals(u, CTX),
        lambda u: series.psi_asymptotic(u, CTX),
    )
    for call in calls:
        for u in (mp.nan, mp.inf):
            with pytest.raises(ValueError):
                call(u)


def test_bose_closure_holds_at_60_digits():
    # the Euler-Maclaurin closure of the Bose mode sum needs more terms as
    # the digits grow; with a fixed cap the two Bose routes part near 1e-69
    ctx = PrecisionContext.for_digits(60)
    half = mpf("0.5")
    psi = F.digamma(half, ctx, "bose").value
    zeta = F.hurwitz_zeta(2, half, ctx, "hermite").value
    with mp.workdps(90):
        assert abs(psi - mp.psi(0, half)) <= ctx.tolerance
        ref = mp.zeta(2, half)
        assert abs(zeta - ref) <= ctx.tolerance * ref


def test_polylog_bose_matches_direct_sum():
    with CTX.working():
        ref = sum(1 / (mpf(n) ** 2 * mp.expm1(2 * mp.pi * n))
                  for n in range(1, 40))
        assert abs(F.polylog_bose(2, CTX) - ref) < TOL
