"""Special-function web: every route against closed forms, recurrences,
reflections, and the other routes."""

import pytest
from mpmath import mp, mpf

from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.precision import PrecisionExhaustedError
from stieltjes import functions as F
from stieltjes import series

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
        with CTX.working():
            u = mpf("0.75")
            lhs = F.digamma(u + 1, CTX).value
            rhs = F.digamma(u, CTX).value + 1 / u
            assert abs(lhs - rhs) < TOL

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            F.digamma(0, CTX)


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

    def test_binomial_series_honest_within_its_own_tail(self):
        # the route reports its truncation tail, returns a value only when
        # that tail is inside the tolerance, and stays within it
        with CTX.working():
            fv = F.log_gamma(mpf("2.5"), "binomial_series", CTX)
            ref = F.log_gamma(mpf("2.5"), "binet2", CTX).value
            tail = mpf(fv.diagnostics["tail_estimate"])
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
            a = F.hurwitz_zeta(mpf("0.5"), 1, CTX).value
            b = series.riemann_zeta_em(mpf("0.5"), 0, CTX)
            assert abs(a - b) < TOL

    def test_negative_integer_closed_form(self):
        with CTX.working():
            v = F.hurwitz_zeta(-1, 1, CTX).value
            assert abs(v + mpf(1) / 12) < TOL

    def test_u_recurrence(self):
        with CTX.working():
            s = mpf("1.7")
            u = mpf("0.8")
            lhs = F.hurwitz_zeta(s, u, CTX).value
            rhs = u ** (-s) + F.hurwitz_zeta(s, u + 1, CTX).value
            assert abs(lhs - rhs) < TOL

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            F.hurwitz_zeta(1, 1, CTX)


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
        from stieltjes.quadrature import Integrand1D, tanh_sinh_01
        with CTX.working():
            Si, _, _ = F.sin_cos_integrals(2, CTX)
            ref = tanh_sinh_01(Integrand1D(
                eval=lambda v: mp.sin(2 * v) / v), CTX).value
            assert abs(Si - ref) < TOL

    def test_ci_against_direct_quadrature(self):
        # Ci(2) = gamma + log 2 + int_0^1 (cos(2v)-1)/v dv
        from stieltjes.quadrature import Integrand1D, tanh_sinh_01
        with CTX.working():
            _, _, Ci = F.sin_cos_integrals(2, CTX)
            ref = mpf(GAMMA_STR) + mp.log(2) + tanh_sinh_01(Integrand1D(
                eval=lambda v: (mp.cos(2 * v) - 1) / v), CTX).value
            assert abs(Ci - ref) < TOL

    def test_si_is_si_minus_half_pi(self):
        with CTX.working():
            for x in (mpf("0.5"), mpf(3), mpf(40), mpf(200)):
                Si, si, _ = F.sin_cos_integrals(x, CTX)
                assert abs(si - (Si - mp.pi / 2)) < TOL

    @pytest.mark.parametrize("seam", ["8", "100"])
    def test_tier_seams_are_continuous(self, seam):
        with CTX.working():
            eps = mpf("1e-25")
            x = mpf(seam)
            lo = F.sin_cos_integrals(x - eps, CTX)
            hi = F.sin_cos_integrals(x + eps, CTX)
            for a, b in zip(lo, hi):
                assert abs(a - b) < mpf(10) ** -20

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
        # at 30 digits the shifted sum (depth = shift = 71) reaches the
        # tolerance for low orders but not for n = 60: its tail estimate is
        # ~4e-14 against 1e-25, and the value agrees with mp.stieltjes to
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
        lambda u: F.hurwitz_zeta_sderiv(1, 0, u, CTX),
        lambda u: F.stieltjes(0, u, "coffey_integral", CTX),
        lambda u: series.alt_zeta_hasse(1, u, CTX),
        lambda u: F.barnes_g_log(u, ctx=CTX),
        lambda u: F.sin_cos_integrals(u, CTX),
        lambda u: series.psi_asymptotic(u, CTX),
        lambda u: series.trigamma_asymptotic(u, CTX),
    )
    for call in calls:
        for u in (mp.nan, mp.inf):
            with pytest.raises(ValueError):
                call(u)


def test_polylog_bose_matches_direct_sum():
    with CTX.working():
        ref = sum(1 / (mpf(n) ** 2 * mp.expm1(2 * mp.pi * n))
                  for n in range(1, 40))
        assert abs(F.polylog_bose(2, CTX) - ref) < TOL
