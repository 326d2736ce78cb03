"""Series engine: exact rationals, the limit oracle, Euler-Maclaurin
tails, and the binomial (alternating and non-alternating) machinery."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.precision import (
    NonConvergenceError,
    PrecisionContext,
    PrecisionExhaustedError,
    agreed_digits,
    recording,
)
from stieltjes import series

# literature values, 40+ digits, used as frozen references
GAMMA_STR = "0.5772156649015328606065120900824024310421593359399"
GAMMA1_STR = "-0.0728158454836767248605863758749013191377363383343"
GAMMA2_STR = "-0.0096903631928723184845303860352125293590658061013"
ZETA3_STR = "1.2020569031595942853997381615114499907649862923405"


def tol(k=45):
    return mpf(10) ** -k


# ---------------------------------------------------------------------------
# exact rational layer
# ---------------------------------------------------------------------------

def test_bernoulli_numbers_exact():
    assert series.bernoulli_number(0) == Fraction(1)
    assert series.bernoulli_number(1) == Fraction(-1, 2)
    assert series.bernoulli_number(2) == Fraction(1, 6)
    assert series.bernoulli_number(3) == 0
    assert series.bernoulli_number(10) == Fraction(5, 66)
    assert series.bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_poly_exact():
    # B_2(x) = x^2 - x + 1/6, B_3(x) = x^3 - 3x^2/2 + x/2
    assert series.bernoulli_poly(2, Fraction(1, 4)) == \
        Fraction(1, 16) - Fraction(1, 4) + Fraction(1, 6)
    assert series.bernoulli_poly(3, Fraction(1, 2)) == 0
    assert series.bernoulli_poly(0, Fraction(7, 3)) == 1


# ---------------------------------------------------------------------------
# truncation helper (exact Fractions, so sums compare exactly)
# ---------------------------------------------------------------------------

class TestSumTerms:
    def test_convergent_series_stops_small_with_the_small_term_added(self):
        terms = (Fraction(1, 2 ** k) for k in range(100))
        with recording() as rec:
            total = series._sum_terms(terms, Fraction(10), Fraction(1, 1000))
        # 2^-10 is the first term below 1/1000: the 11th, taken and included
        assert rec == {"stop_small": 1}
        assert next(terms) == Fraction(1, 2 ** 11)
        assert total == 10 + 2 - Fraction(1, 1024)

    def test_divergent_asymptotic_series_stops_on_floor(self):
        # sum (-1)^k k!/5^k: |terms| fall to k = 4, 5 (equal) and grow at 6
        terms = [(-1) ** k * Fraction(math.factorial(k), 5 ** k)
                 for k in range(20)]
        it = iter(terms)
        with recording() as rec:
            total = series._sum_terms(it, Fraction(0), 0)
        assert rec == {"stop_floor": 1}
        assert next(it) == terms[7]
        assert total == sum(terms[:7])

    def test_short_iterable_stops_on_cap(self):
        terms = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
        with recording() as rec:
            assert series._sum_terms(terms, Fraction(1), 0) == Fraction(11, 4)
            assert series._sum_terms([], Fraction(3), 0) == 3
        assert rec == {"stop_cap": 2}


# ---------------------------------------------------------------------------
# limit oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_gamma0_literature(self):
        with CTX.working():
            v = series.limit_stieltjes_oracle(0, 1, CTX)
            assert abs(v - mpf(GAMMA_STR)) < tol()

    def test_gamma1_literature(self):
        with CTX.working():
            v = series.limit_stieltjes_oracle(1, 1, CTX)
            assert abs(v - mpf(GAMMA1_STR)) < tol()

    def test_gamma2_literature(self):
        with CTX.working():
            v = series.limit_stieltjes_oracle(2, 1, CTX)
            assert abs(v - mpf(GAMMA2_STR)) < tol()

    def test_gamma0_at_half_closed_form(self):
        # gamma_0(1/2) = gamma + 2 log 2
        with CTX.working():
            v = series.limit_stieltjes_oracle(0, mpf("0.5"), CTX)
            ref = mpf(GAMMA_STR) + 2 * mp.log(2)
            assert abs(v - ref) < tol()

    def test_table_is_memoized(self):
        a = series.stieltjes_oracle_table(3, 1, CTX)
        b = series.stieltjes_oracle_table(3, 1, CTX)
        assert a == b

    def test_larger_table_extends_smaller(self, monkeypatch):
        # a larger n_max runs at more working digits; the shared orders
        # must still agree to the working precision
        monkeypatch.setattr(series, "_ORACLE_CACHE", {})
        big = series.stieltjes_oracle_table(5, 1, CTX)
        monkeypatch.setattr(series, "_ORACLE_CACHE", {})
        small = series.stieltjes_oracle_table(2, 1, CTX)
        with CTX.working():
            for a, b in zip(big[:3], small):
                assert abs(a - b) <= mpf(10) ** -CTX.working_digits

    def test_bound_rows_are_built_once_per_order(self, monkeypatch):
        # the pass plans each order three times with the same (s, r, m_max):
        # for N, then in the corrections at N and at 2N
        monkeypatch.setattr(series, "_ORACLE_CACHE", {})
        series._em_bound.cache_clear()
        series.stieltjes_oracle_table(9, mpf("0.375"), CTX)
        info = series._em_bound.cache_info()
        assert (info.misses, info.hits) == (10, 20)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            series.stieltjes_oracle_table(-1, 1, CTX)
        with pytest.raises(ValueError):
            series.limit_stieltjes_oracle(0, -2, CTX)
        for u in ("nan", "inf"):
            with pytest.raises(ValueError):
                series.stieltjes_oracle_table(0, mpf(u), CTX)

    def test_nan_fails_the_self_check(self, monkeypatch):
        # a NaN at N and 2N must fail the N-vs-2N check, not pass it
        monkeypatch.setattr(series, "_oracle_correction",
                            lambda n, u, N: mp.nan)
        ctx = PrecisionContext.for_digits(10)
        with pytest.raises(NonConvergenceError):
            series.stieltjes_oracle_table(0, mpf("0.375"), ctx)


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta and tails
# ---------------------------------------------------------------------------

class TestZetaEm:
    def test_zeta2_closed_form(self):
        with CTX.working():
            assert abs(series.riemann_zeta_em(2, 0, CTX)
                       - mp.pi ** 2 / 6) < tol()

    def test_zeta_minus1(self):
        with CTX.working():
            assert abs(series.riemann_zeta_em(-1, 0, CTX)
                       + mpf(1) / 12) < tol()

    def test_zeta3_literature(self):
        with CTX.working():
            assert abs(series.riemann_zeta_em(3, 0, CTX)
                       - mpf(ZETA3_STR)) < tol()

    def test_first_derivative_by_finite_difference(self):
        with CTX.working():
            s = mpf("2.5")
            h = mpf("1e-12")
            fd = (series.riemann_zeta_em(s + h, 0, CTX)
                  - series.riemann_zeta_em(s - h, 0, CTX)) / (2 * h)
            dv = series.riemann_zeta_em(s, 1, CTX)
            assert abs(fd - dv) < mpf(10) ** -20

    def test_second_derivative_by_finite_difference(self):
        with CTX.working():
            s = mpf("1.5")
            h = mpf("1e-8")
            fd = (series.riemann_zeta_em(s + h, 1, CTX)
                  - series.riemann_zeta_em(s - h, 1, CTX)) / (2 * h)
            dv = series.riemann_zeta_em(s, 2, CTX)
            assert abs(fd - dv) < mpf(10) ** -12

    @pytest.mark.parametrize("digits", [15, 30, 60])
    def test_matches_mpmath_including_the_continuation(self, digits):
        ctx = PrecisionContext.for_digits(digits)
        for r in (0, 1, 2):
            for s in ("-3", "-1", "-0.5", "0", "0.5", "1.5", "2", "3", "40"):
                v = series.riemann_zeta_em(mpf(s), r, ctx)
                with mp.workdps(digits + 30):
                    ref = mp.zeta(mpf(s), 1, r)
                    assert abs(v - ref) <= ctx.tolerance * abs(ref), (r, s)


class TestLogPowerTails:
    def test_plain_tail_matches_zeta_minus_partial(self):
        with CTX.working():
            N = 50
            partial = sum(mpf(1) / k ** 2 for k in range(1, N + 1))
            tail = series.em_log_power_tail(2, 0, N, 0, CTX)
            assert abs(partial + tail - mp.pi ** 2 / 6) < tol(40)

    def test_log_tail_matches_zeta_derivative(self):
        with CTX.working():
            N = 60
            partial = sum(mp.log(k) / k ** 2 for k in range(1, N + 1))
            tail = series.em_log_power_tail(2, 1, N, 0, CTX)
            ref = -series.riemann_zeta_em(2, 1, CTX)
            assert abs(partial + tail - ref) < tol(40)

    def test_shifted_tail(self):
        # sum_{k>N} 1/(k+1/2)^2 = zeta(2, N+3/2)
        with CTX.working():
            N = 30
            half = mpf("0.5")
            total = sum(1 / (k + half) ** 2 for k in range(1, N + 1))
            tail = series.em_log_power_tail(2, 0, N, half, CTX)
            # zeta(2, 3/2) = pi^2/2 - 4
            assert abs(total + tail - (mp.pi ** 2 / 2 - 4)) < tol(40)

    @pytest.mark.parametrize("digits", [15, 30, 60, 120, 200])
    def test_matches_mpmath_hurwitz_derivatives(self, digits):
        # sum_{k>N} log^r(k+u)/(k+u)^s = (-1)^r zeta^(r)(s, N+1+u); the
        # cells after the grid start Euler-Maclaurin too close for s
        cells = [(s, r, 40, u) for u in ("0", "0.5") for r in (0, 1, 3)
                 for s in ("1.5", "2", "6", "12")]
        cells += [("12", 0, 10, "0"), ("2", 3, 45, "0"),
                  ("1.5", 1, 40, "0.5"), ("2", 0, 60, "0"),
                  ("10", 0, 60, "0")]
        ctx = PrecisionContext.for_digits(digits)
        for s, r, N, u in cells:
            v = series.em_log_power_tail(mpf(s), r, N, mpf(u), ctx)
            with mp.workdps(digits + 30):
                ref = (-1) ** r * mp.zeta(mpf(s), N + 1 + mpf(u), r)
                assert abs(v - ref) <= ctx.tolerance * abs(ref), \
                    (s, r, N, u)

    def test_refuses_a_target_it_cannot_meet(self):
        # at N = u = 0 the first term log(1)/1^2 is 0, and so is the target
        with pytest.raises(PrecisionExhaustedError):
            series.em_log_power_tail(2, 1, 0, 0, CTX)


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
def test_zeta_row_matches_mpmath(digits):
    # every k of the row I-9.5b's psi reads, at the precision it reads it:
    # within 10^-(dps+4) before the one rounding, which adds at most
    # |zeta(k) - 1| 2^-prec
    ctx = PrecisionContext.for_digits(digits)
    with ctx.working(10):
        n = series._stop_index(mpf(1) / 2, 3, 4.8, 2, 0.5, d=1)
        row = series._zeta_row(n)
        assert len(row) >= n and row[:2] == [mpf(0)._mpf_] * 2
        dps, prec = mp.dps, mp.prec
        with mp.workdps(dps + 40):
            for k in range(2, len(row)):
                ref = mp.zeta(k) - 1
                assert abs(mp.make_mpf(row[k]) - ref) <= (
                    mpf(10) ** -(dps + 4) + abs(ref) * mpf(2) ** -prec), k


@pytest.mark.parametrize("s", ["1", "1.5", "3"])
def test_em_bound_covers_the_remainder(s):
    # remainder of sum_{k>=0} g(w0+k) after M terms, g = log^r(x) x^-s;
    # at s = 1 the divergent integral is regularized through gamma_r(w0)
    with mp.workdps(100):
        s = mpf(s)
        for r in (0, 1, 3):
            log_bound = series._em_bound(s, r, 20)
            for w0 in ("1", "2.5", "10", "40"):
                w0 = mpf(w0)
                A = mp.log(w0)
                if s == 1:
                    exact = mp.stieltjes(r, w0) + A ** (r + 1) / (r + 1)
                else:
                    exact = (-1) ** r * mp.zeta(s, w0, r) - mp.gammainc(
                        r + 1, (s - 1) * A) / (s - 1) ** (r + 1)
                for M in (1, 3, 8, 20):
                    em = sum(series._em_terms(s, r, w0, M),
                             A ** r * w0 ** -s / 2)
                    assert abs(exact - em) <= mp.exp(
                        log_bound(M, float(w0))), (r, w0, M)


# ---------------------------------------------------------------------------
# digamma asymptotics
# ---------------------------------------------------------------------------

def test_psi_asymptotic_at_one():
    with CTX.working():
        assert abs(series.psi_asymptotic(1, CTX) + mpf(GAMMA_STR)) < tol()


def test_psi_asymptotic_recurrence():
    with CTX.working():
        x = mpf("3.25")
        lhs = series.psi_asymptotic(x + 1, CTX)
        rhs = series.psi_asymptotic(x, CTX) + 1 / x
        assert abs(lhs - rhs) < tol()


# ---------------------------------------------------------------------------
# binomial machinery
# ---------------------------------------------------------------------------

def _double_sum(c, values):
    """The binomial transform the swapped sums replace, summed as written:
    sum_i c(i) sum_{j<=i} C(i,j) (-1)^j values[j]."""
    return sum(c(i) * sum((-1) ** j * math.comb(i, j) * values[j]
                          for j in range(i + 1))
               for i in range(len(values)))


@pytest.mark.parametrize("depth", [5, 17, 60, 150])
@pytest.mark.parametrize("weights, c", [
    (series._hasse_weights, lambda i: mpf(1) / (i + 1)),
    (series._altzeta_weights, lambda i: mp.ldexp(1, -(i + 1)))],
    ids=["hasse", "altzeta"])
def test_weighted_sum_is_the_double_sum(depth, weights, c):
    rng = random.Random(depth)
    with mp.workdps(50 + int(math.ceil(0.302 * depth)) + 10):
        for lo, hi in ((-1, 1), (0, 3)):
            values = [mpf(rng.uniform(lo, hi)) for _ in range(depth + 1)]
            with recording() as rec:
                total, = series._binomial_sums(
                    weights(depth), [[v] for v in values], 1, mp.inf)
            ref = _double_sum(c, values)
            assert abs(total - ref) <= mpf(10) ** -50 * max(1, abs(ref))
            # the tail estimate is the depth-th difference
            last = _double_sum(lambda i: int(i == depth), values)
            assert rec["binomial_tail"] == float(abs(last))
            assert rec["binomial_depth"] == depth


class TestAltZeta:
    def test_value_at_one_is_log2(self):
        with CTX.working():
            assert abs(series.alt_zeta_hasse(1, 1, 0, CTX)[0] - mp.log(2)) \
                < tol(40)

    def test_value_at_two(self):
        # eta(2) = pi^2/12
        with CTX.working():
            assert abs(series.alt_zeta_hasse(2, 1, 0, CTX)[0]
                       - mp.pi ** 2 / 12) < tol(40)

    def test_moment_zero_is_log2(self):
        with CTX.working():
            assert abs(series.alt_zeta_hasse(1, 1, 3, CTX)[0] - mp.log(2)) \
                < tol(40)

    def test_log_moments_of_one_pass(self):
        # S_k = (-1)^k eta^(k)(1)
        S = series.alt_zeta_hasse(1, 1, 3, CTX)
        assert len(S) == 4
        with CTX.working():
            for k in (1, 2, 3):
                ref = (-1) ** k * mp.diff(mp.altzeta, 1, k)
                assert abs(S[k] - ref) < tol(40), k

    def test_short_depth_refuses_a_log_moment(self, monkeypatch):
        # at depth 94 the tail estimate of S_0 (5.3e-31) is within the
        # tail bound 10^-30 and that of S_1 (1.2e-30) is not
        monkeypatch.setattr(series, "_altzeta_depth", lambda ctx: 94)
        series.alt_zeta_hasse(1, 1, 0, CTX)
        with pytest.raises(PrecisionExhaustedError):
            series.alt_zeta_hasse(1, 1, 2, CTX)

    def test_stieltjes_from_altzeta_low_orders(self):
        with CTX.working():
            for n, ref in ((0, GAMMA_STR), (1, GAMMA1_STR),
                           (2, GAMMA2_STR)):
                v = series.stieltjes_from_altzeta(n, CTX)
                assert abs(v - mpf(ref)) < tol(40)

    def test_table_is_bit_identical_to_single_orders(self):
        table = series.stieltjes_altzeta_table(5, CTX)
        assert len(table) == 6
        for k in range(6):
            assert table[k] == series.stieltjes_from_altzeta(k, CTX)

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError):
            series.alt_zeta_hasse(1, 0, 0, CTX)

    def test_orders_are_right_to_their_digits_or_refused(self):
        # the triangular solve from the moments amplifies their tails; held
        # to ctx.tolerance and unbounded through the solve, gamma_45 to
        # gamma_60 came back wrong with no error (gamma_54 at 15 digits
        # off by 1.5e-8).  Each order is now right or refused, and the
        # orders up to 42 are served at 6, 15 and 30 digits
        with mp.workdps(70):
            refs = {n: mp.stieltjes(n) for n in range(0, 61, 3)}
        for digits in (6, 15, 30):
            ctx = PrecisionContext.for_digits(digits)
            served = []
            for n, ref in refs.items():
                try:
                    v = series.stieltjes_from_altzeta(n, ctx)
                except PrecisionExhaustedError:
                    continue
                served.append(n)
                with mp.workdps(70):
                    assert abs(v - ref) <= mpf(10) ** -digits \
                        * max(1, abs(ref)), (digits, n)
            assert max(served) >= 42, digits


def test_up_steps_to_one_and_tallies_the_steps():
    with mp.workdps(30):
        for u, k in (("1e-50", 1), ("0.37", 1), ("1", 0), ("2.5", 0)):
            u = mpf(u)
            with recording() as rec:
                v, heads = series._up(u, lambda x: 1 / x)
            assert v == u + k and heads == [1 / u] * k
            assert rec.get("recurrence_steps") == (k or None)
        with recording() as rec:
            v, heads = series._up(mpf("0.5"), lambda x: x, 3)
        assert v == mpf("3.5") and heads == [mpf("0.5"), 1.5, 2.5]
        assert rec["recurrence_steps"] == 3


class TestHasse:
    def test_tracks_oracle_within_own_tail_estimate(self):
        with CTX.working():
            for u in (mpf("0.5"), mpf(1), mpf(2)):
                with recording() as rec:
                    v = series.hasse_stieltjes(1, u, CTX)
                ref = series.limit_stieltjes_oracle(1, u, CTX)
                assert "binomial_tail" in rec
                assert abs(v - ref) <= 5 * mpf(rec["binomial_tail"])

    @pytest.mark.parametrize("digits, n, u", [
        (6, 25, "1"), (15, 30, "1"), (15, 33, "0.37"), (60, 50, "1")])
    def test_right_to_its_digits_or_refuses(self, digits, n, u):
        # near its depth limit the sum is held to 10^-digits, not to the
        # catalog tolerance 10^-(digits-5): held to that, these cells came
        # back wrong in the last digits with no error
        ctx = PrecisionContext.for_digits(digits)
        try:
            v = series.hasse_stieltjes(n, u, ctx)
        except PrecisionExhaustedError:
            return
        with mp.workdps(digits + 40):
            ref = mp.stieltjes(n, mpf(u))
            assert abs(v - ref) <= mpf(10) ** -digits * max(1, abs(ref))

    def test_reaches_target_minus_two_digits(self):
        # Contract check, kept in its stated form.  At the raw u the outer
        # terms decay like 1/(i^2 log i), a floor near 1/(I log I); the
        # route runs the sum at u + M instead, where they fall faster than
        # geometrically, and gets ~45 digits.
        with CTX.working():
            v = series.hasse_stieltjes(0, 1, CTX)
            ref = series.limit_stieltjes_oracle(0, 1, CTX)
            assert agreed_digits(v, ref, CTX) >= CTX.target_digits - 2
