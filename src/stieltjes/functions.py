"""The special-function web: every function here has at least two
mathematically independent evaluation routes, and each public entry point
reports which route produced its value; the engines it ran tally their
counts into the open provenance record (precision.recording).

Route naming follows the representation used, not the symbol computed:
"bose" routes integrate against 1/(e^(2 pi x)-1), "laplace" routes against
e^(-u t), "series" routes sum something, "em" routes lean on the
Euler-Maclaurin reference evaluators; Hurwitz zeta has both kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (fhalf, fone, from_int, from_man_exp, fzero,
                          mpf_add, mpf_atan2, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_log, mpf_mul, mpf_pos, mpf_pow, mpf_shift,
                          mpf_sub, to_man_exp)

from .precision import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    PrecisionExhaustedError,
    expm1,
    log1p,
    positive,
    tally,
)
from . import series
from .quadrature import integrate_bose, integrate_laplace

STIELTJES_METHODS = ("coffey_integral", "hasse_sum", "limit_euler_maclaurin",
                     "alt_zeta_recursion")
LOG_GAMMA_ROUTES = ("binet2", "binet1", "bourguet", "binomial_series")
BARNES_G_ROUTES = ("integral_6_7", "weierstrass_6_5", "gosper_vardi_6_10")
ZETA_ROUTES = {"em": "euler_maclaurin", "hermite": "hermite_bose"}


@dataclass
class FunctionValue:
    """A computed value plus the route that produced it."""
    value: object
    route: str


# ---------------------------------------------------------------------------
# removable-singularity kernels (series below a cutoff, direct above)
# ---------------------------------------------------------------------------

_BINET: dict = {}      # mp.prec -> {t: K(t) as man << 32 | exp + 2^31}

#: Where the kernels switch from their series to the direct form.
_SEAM = mpf(1) / 4


def binet_kernel(t):
    """K(t) = 1/(e^t - 1) - 1/t + 1/2 = sum_{k>=1} B_2k t^(2k-1)/(2k)!.

    Series below |t| = 1/4 (_SEAM), direct expm1 arithmetic above, in
    libmp at prec + 20 bits and rounded once: just above the seam its
    terms near 4 cancel to K near 1/48, about 2 digits (with 10 extra bits
    K was still off by up to 1.3e-(dps+1) relative).  K(t)/t extends to
    1/12 at t = 0.  Values are kept per mp.prec, keyed by t: callers pass
    table nodes, so integrands reading a node share one evaluation.
    kernel_values_built tallies evaluations; a kept value tallies nothing,
    its series' kernel_terms included.  Each is kept as one int, mantissa
    over biased exponent: a third of the bytes of its _mpf_ tuple.
    """
    vals = _BINET.setdefault(mp.prec, {})
    k = vals.get(t)
    if k is not None:
        return mp.make_mpf(from_man_exp(k >> 32, (k & 0xFFFFFFFF) - 2**31))
    x = mpf(t)
    if abs(x) > _SEAM:
        prec, rnd = mp._prec_rounding
        wp = prec + 20
        # e^t - 1 cancels under 3 bits for |t| > 1/4
        em = mpf_sub(mpf_exp(x._mpf_, wp + 10, rnd), fone, wp, rnd)
        k = mp.make_mpf(mpf_pos(mpf_add(mpf_sub(
            mpf_div(fone, em, wp, rnd), mpf_div(fone, x._mpf_, wp, rnd),
            wp, rnd), fhalf, wp, rnd), prec, rnd))
    else:
        k = _binet_series(x, 1)
    man, exp = to_man_exp(k._mpf_)
    vals[t] = man << 32 | exp + 2**31
    tally(kernel_values_built=1)
    return k


def _binet_series(t, k_min: int, d: int = 0):
    """The d-th derivative (d in {0, 1}) of sum_{k>=k_min} B_2k
    t^(2k-1)/(2k)!, |t| <= 1/4: t^(2 k_min - 1 - d) times a sum in t^2 by
    Horner's rule.  As |B_2k|/(2k)! = 2 zeta(2k)/(2 pi)^2k < 3.3
    (2 pi)^-2k (DLMF 25.6.2), that sum's terms from k on add up to less
    than 3.4 (2k)^d |t|^(2k-2k_min) (2 pi)^-2k; it stops at the first k
    where that is below 10^-(dps+4), so callers dividing by powers of t
    keep every digit."""
    k = series._stop_index(t, k_min + 1, 3.4 * 2 ** d, 2 * k_min,
                           1 / (4 * math.pi ** 2), 2, d)
    row = series._row("binet%d" % d, lambda j: (2 * j - 1) ** d
                      * series._bern_coef(j), k)
    return series._horner(row, k_min, k - k_min, t * t) \
        * t ** (2 * k_min - 1 - d)


def exp_square_kernel(y):
    """e^y/(e^y-1)^2 - 1/y^2 + 1/12 = -K'(y) + 1/12, K = binet_kernel: by
    K's series below |y| = 1/4, direct above, where e^y = expm1(y) + 1
    serves both factors and the rest runs in libmp; leading term
    y^2/240."""
    y = mpf(y)
    if abs(y) > _SEAM:
        prec, rnd = mp._prec_rounding
        em, y = expm1(y)._mpf_, y._mpf_
        return mp.make_mpf(mpf_add(mpf_sub(
            mpf_div(mpf_add(em, fone, prec, rnd),
                    mpf_mul(em, em, prec, rnd), prec, rnd),
            mpf_div(fone, mpf_mul(y, y, prec, rnd), prec, rnd), prec, rnd),
            mpf_div(fone, from_int(12), prec, rnd), prec, rnd))
    return -_binet_series(y, 2, 1)


_GREGORY: list[Fraction] = [Fraction(1)]
_STIRLING: list[int] = [1]      # s(m, k), k = 0 .. m, m = len(_GREGORY) - 1


def _gregory(n: int) -> Fraction:
    """Coefficient G_n of e/log(1+e), exact: G_0=1, G_1=1/2, G_2=-1/12,
    ...; built once.  G_m = int_0^1 x(x-1)...(x-m+1) dx / m!
    = sum_k s(m,k)/(k+1) / m!, s the signed Stirling numbers of the first
    kind, s(m,k) = s(m-1,k-1) - (m-1) s(m-1,k): one Fraction per m."""
    while len(_GREGORY) <= n:
        m = len(_GREGORY)
        _STIRLING[:] = [a - (m - 1) * b
                        for a, b in zip([0] + _STIRLING, _STIRLING + [0])]
        d = math.lcm(*range(1, m + 2))
        _GREGORY.append(Fraction(
            sum(c * (d // (k + 1)) for k, c in enumerate(_STIRLING)),
            d * math.factorial(m)))
    return _GREGORY[n]


def one_over_log_kernel(y, yc=None):
    """R(y) = 1/log(y) - 1/(y-1), regular at y = 1 with R(1) = 1/2.

    Near y = 1 (|y-1| <= 1/4) sums the Gregory series sum_{k>=1} G_k
    e^(k-1) in e = y-1 by Horner's rule; passing the exact complement
    yc = 1-y keeps e accurate when y is a tanh-sinh node exponentially
    close to 1.
    """
    if yc is not None:
        e = -mpf(yc)
    else:
        e = mpf(y) - 1
    if abs(e) > _SEAM:
        y = 1 + e
        return 1 / mp.log(y) - 1 / e
    # |G_k| = int_0^inf dx/((1+x)^k (pi^2 + log^2 x)) <= 1/(pi^2 (k-1)),
    # falling with k, so the terms from k on add up to at most
    # 4/3 |e|^(k-1)/(pi^2 (k-1)) <= 8/(3 pi^2) |e|^-1 k^-1 |e|^k
    n = series._stop_index(e, 2, 8 / (3 * math.pi ** 2), 1, 1, d=-1) - 1
    row = series._row("gregory", lambda k: mpf(_gregory(k).numerator)
                      / _gregory(k).denominator, n + 1)
    return series._horner(row, 1, n, e)


def _log_power(L, th, m: int, prec: int, rnd):
    """(P, Q) with P + iQ = (L + i th)^m, m >= 0, for _mpf_ L and th: by
    squaring and multiplying, each real product and sum an mpf_mul or
    mpf_add rounded to prec, so for m <= 2 it is the running product
    (L + i th)(L + i th)... in mpf arithmetic, bit for bit."""
    p, q = fone, fzero
    for bit in bin(m)[2:]:
        p, q = (mpf_sub(mpf_mul(p, p, prec, rnd), mpf_mul(q, q, prec, rnd),
                        prec, rnd),
                mpf_shift(mpf_mul(p, q, prec, rnd), 1))
        if bit == "1":
            p, q = (mpf_sub(mpf_mul(p, L, prec, rnd),
                            mpf_mul(q, th, prec, rnd), prec, rnd),
                    mpf_add(mpf_mul(p, th, prec, rnd),
                            mpf_mul(q, L, prec, rnd), prec, rnd))
    return p, q


# ---------------------------------------------------------------------------
# Stieltjes constants, four routes
# ---------------------------------------------------------------------------

def _stieltjes_coffey(n: int, u, ctx: PrecisionContext) -> FunctionValue:
    """gamma_n(u) by the closed real integral representation:

      gamma_n(u) = log^n(u)/(2u) - log^(n+1)(u)/(n+1)
                   + 2 int_0^inf (u Q_n + x P_n)/((u^2+x^2) B(x)) dx,

    P_n + i Q_n = (A - i theta)^n, A = log(u^2+x^2)/2, theta = atan(x/u):
    the conjugate of _log_power's (A + i theta)^n, in libmp.  Below u = 1
    at u + 1, by gamma_n(u) = gamma_n(u+1) + log^n(u)/u (series._up).
    """
    with ctx.working(10):
        uu, heads = series._up(positive(u, "coffey route"),
                               lambda x: mp.log(x) ** n / x)
        prec, rnd = mp._prec_rounding
        um, u2 = uu._mpf_, (uu * uu)._mpf_

        def g(x):
            x = x._mpf_
            r2 = mpf_add(u2, mpf_mul(x, x, prec, rnd), prec, rnd)
            p, q = _log_power(mpf_shift(mpf_log(r2, prec, rnd), -1),
                              mpf_atan2(x, um, prec, rnd), n, prec, rnd)
            return mp.make_mpf(mpf_div(mpf_sub(
                mpf_mul(x, p, prec, rnd), mpf_mul(um, q, prec, rnd),
                prec, rnd), r2, prec, rnd))

        res = integrate_bose(g, ctx)
        lu = mp.log(uu)
        main = lu ** n / (2 * uu) - lu ** (n + 1) / (n + 1)
        return FunctionValue(+(main + 2 * res.value + sum(heads)),
                             "coffey_integral")


def stieltjes(n: int, u=1, method: str = "limit_euler_maclaurin",
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """gamma_n(u) by the chosen route.

    limit_euler_maclaurin is the reference; coffey_integral is the
    independent check; alt_zeta_recursion works at u = 1 only; hasse_sum
    is Hasse's binomial double sum, shifted to u + M, and raises
    PrecisionExhaustedError when its tail estimate exceeds 10^-digits
    (orders past about 31 at 30 digits).
    """
    if method not in STIELTJES_METHODS:
        raise ValueError("unknown method %r" % method)
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "limit_euler_maclaurin":
        return FunctionValue(series.limit_stieltjes_oracle(n, u, ctx), method)
    if method == "coffey_integral":
        return _stieltjes_coffey(n, u, ctx)
    if method == "alt_zeta_recursion":
        with ctx.working():
            if mpf(u) != 1:
                raise ValueError("alt_zeta_recursion is defined at u = 1 only")
        return FunctionValue(series.stieltjes_from_altzeta(n, ctx), method)
    return FunctionValue(series.hasse_stieltjes(n, u, ctx), "hasse_sum")


# ---------------------------------------------------------------------------
# digamma and trigamma
# ---------------------------------------------------------------------------

def digamma(u, ctx: PrecisionContext = DEFAULT_CONTEXT,
            route: str = "bose") -> FunctionValue:
    """psi(u), u > 0.

    bose:    psi(u) = log u - 1/(2u) - 2 int x/((u^2+x^2) B) dx
    laplace: psi(u) = log u - 1/(2u) - int e^(-u t) K(t) dt, K the
             subtracted Bose/Binet kernel.
    Both run below u = 1 at u + 1, by psi(u) = psi(u+1) - 1/u (series._up).
    """
    with ctx.working(10):
        uu, heads = series._up(positive(u, "digamma"), lambda x: -1 / x)
        if route == "bose":
            u2 = uu * uu
            res = integrate_bose(lambda x: x / (u2 + x * x), ctx)
            val = mp.log(uu) - 1 / (2 * uu) - 2 * res.value
        elif route == "laplace":
            res = integrate_laplace(binet_kernel, uu, ctx)
            val = mp.log(uu) - 1 / (2 * uu) - res.value
        else:
            raise ValueError("digamma route must be bose or laplace")
        return FunctionValue(+(val + sum(heads)), "digamma_" + route)


def trigamma(u, ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """psi'(u) = 1/u + 1/(2u^2) + 4u int x/((u^2+x^2)^2 B) dx, u > 0;
    below u = 1 at u + 1, by psi'(u) = psi'(u+1) + 1/u^2 (series._up)."""
    with ctx.working(10):
        uu, heads = series._up(positive(u, "trigamma"), lambda x: 1 / (x * x))
        u2 = uu * uu
        res = integrate_bose(lambda x: x / (u2 + x * x) ** 2, ctx)
        val = 1 / uu + 1 / (2 * u2) + 4 * uu * res.value
        return FunctionValue(+(val + sum(heads)), "trigamma_bose")


# ---------------------------------------------------------------------------
# log Gamma, four routes
# ---------------------------------------------------------------------------

def _stirling_main(uu):
    return (uu - mpf(1) / 2) * mp.log(uu) - uu + mp.log(2 * mp.pi) / 2


def log_gamma(u, route: str = "binet2",
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """log Gamma(u) for u > 0 by the requested representation.

    binet2          Stirling main term + 2 int atan(x/u)/B dx
    binet1          Stirling main term + int e^(-ut) K(t)/t dt
    bourguet        Stirling main term + sum_n f(2 pi n u)/(pi n), f the
                    sine/cosine-integral auxiliary function: the lattice
                    sum of _aux_lattice_sum, its length from the digits
    binomial_series Lerch form zeta'(0,u) + log(2pi)/2 with zeta'(0,u)
                    from Hasse's binomial double sum, shifted to u + M
                    like the hasse_sum route; raises
                    PrecisionExhaustedError when its tail estimate
                    exceeds 10^-digits

    The first three run below u = 1 at u + 1, by log Gamma(u) =
    log Gamma(u+1) - log u (series._up); so bourguet's lattice length is
    at most its length at u = 1.
    """
    if route not in LOG_GAMMA_ROUTES:
        raise ValueError("unknown log_gamma route %r" % route)
    with ctx.working(10):
        uu = positive(u, "log_gamma")
        if route == "binomial_series":
            # Hasse's sum of x log x - x is zeta'(0,x), and
            # zeta'(0,u) = zeta'(0,u+1) - log u
            zeta_p0 = series._shifted_hasse_sum(
                lambda x: x * (mp.log(x) - 1), lambda x: -mp.log(x), uu, ctx)
            return FunctionValue(+(zeta_p0 + mp.log(2 * mp.pi) / 2), route)
        v, heads = series._up(uu, lambda x: -mp.log(x))
        if route == "binet2":
            res = integrate_bose(lambda x: mp.atan2(x, v), ctx)
            val = _stirling_main(v) + 2 * res.value
        elif route == "binet1":
            res = integrate_laplace(lambda t: binet_kernel(t) / t, v, ctx)
            val = _stirling_main(v) + res.value
        else:
            val = (_stirling_main(v)
                   + _aux_lattice_sum(0, 1, 2 * mp.pi * v, ctx) / mp.pi)
        return FunctionValue(+(val + sum(heads)), route)


# ---------------------------------------------------------------------------
# Hurwitz zeta and s-derivatives (Euler-Maclaurin, Hermite's integral)
# ---------------------------------------------------------------------------

def _zeta_em(m: int, s, u, ctx: PrecisionContext):
    """d^m/ds^m zeta(s,u) = (-1)^m [log^m(u) u^-s + sum_{k>=1} g(u+k)],
    g(x) = log^m(x) x^-s, the sum by series._em_tail to 10^-(dps-3).  For
    s < 1 its terms grow to about w0^(1-s) log^m(w0) at the closing point
    w0 of the plan and cancel: the sum runs that many digits and 2 more
    above the working precision (em_guard_digits), on the plan made at
    the working precision.  s < 1 - 2 dps raises PrecisionExhaustedError:
    the plan's (1-s)/2 and more closing terms would need Bernoulli numbers
    past B_(2.5 dps), whose exact values take seconds to minutes.
    """
    with ctx.working(10):
        if s < 1 - 2 * mp.dps:
            raise PrecisionExhaustedError("zeta_em: s = %s < 1 - 2 dps" % s)
        eps = mpf(10) ** (3 - mp.dps)
        plan = series._em_plan(s, m, u, eps)
        lw = math.log10(float(u) + plan[0])                 # log10 w0
        extra = 0 if s >= 1 else math.ceil(
            float(1 - s) * lw + m * math.log10(max(lw * math.log(10), 1))) + 2
        tally(em_guard_digits=extra)
        with mp.workdps(mp.dps + extra):
            tail = series._em_tail(s, m, u, mp.log(u) ** m * mp.power(u, -s),
                                   eps, plan)
        return +((-1) ** m * tail)


def _hermite(m: int, s, u, ctx: PrecisionContext):
    """d^m/ds^m zeta(s,u) for real s != 1, u > 0, from Hermite's integral

      zeta(s,u) = u^-s/2 + u^(1-s)/(s-1)
                  + 2 int -Im(z^-s)/(e^(2 pi x)-1) dx,  z = u + ix,

    differentiated m times under the integral: the integrand becomes
    -Im((-log z)^m z^-s) = (-1)^m R (P sin(s theta) - Q cos(s theta)),
    R = (u^2+x^2)^(-s/2), P + iQ = (L + i theta)^m, L = log(u^2+x^2)/2,
    theta = atan2(x, u); the main term's m-th derivative is one Leibniz
    sum.  Valid on the analytic continuation: the integral converges for
    every real s.  The integrand runs in libmp: cos(s theta) and
    sin(s theta) from one mpf_cos_sin, the routine behind mp.cos and
    mp.sin; for m >= 1, log(u^2+x^2) is taken once at prec + 10 bits, R is
    mp.power's own e^(-(s/2) log(u^2+x^2)) from it, bit for bit, and L is
    it rounded to prec and halved; (L + i theta)^m is _log_power's.
    Below u = 1 at u + 1, by zeta^(m)(s,u) = zeta^(m)(s,u+1)
    + (-log u)^m u^-s (series._up).
    """
    with ctx.working(10):
        uu, heads = series._up(
            u, lambda x: (-mp.log(x)) ** m * mp.power(x, -s))
        prec, rnd = mp._prec_rounding
        um, u2, sm = uu._mpf_, (uu * uu)._mpf_, s._mpf_
        t = (-s / 2)._mpf_
        # mpf_pow takes e^(t log r2) with the log at prec + 10 bits unless
        # t is an integer or half an integer
        general = t[2] < -1

        def g(x):
            x = x._mpf_
            r2 = mpf_add(u2, mpf_mul(x, x, prec, rnd), prec, rnd)
            th = mpf_atan2(x, um, prec, rnd)
            cos, v = mpf_cos_sin(mpf_mul(sm, th, prec, rnd), prec, rnd)
            if m:
                lr = mpf_log(r2, prec + 10, rnd)
                p, q = _log_power(mpf_shift(mpf_pos(lr, prec, rnd), -1), th,
                                  m, prec, rnd)
                c = mpf_mul(q, cos, prec, rnd)
                pv = mpf_mul(p, v, prec, rnd)
                v = (mpf_sub(c, pv, prec, rnd) if m % 2
                     else mpf_sub(pv, c, prec, rnd))
            R = (mpf_exp(mpf_mul(t, lr), prec, rnd) if m and general
                 else mpf_pow(r2, t, prec, rnd))
            return mp.make_mpf(mpf_mul(R, v, prec, rnd))

        res = integrate_bose(g, ctx)
        # d^m/ds^m [u^-s/2 + u^(1-s)/(s-1)] = (-1)^m [lu^m u^-s/2
        #   + sum_j m!/(m-j)! lu^(m-j) u^(1-s)/(s-1)^(j+1)], lu = log u
        lu = mp.log(uu)
        u1s = mp.power(uu, 1 - s)
        main = lu ** m * mp.power(uu, -s) / 2
        for j in range(m + 1):
            main += math.perm(m, j) * lu ** (m - j) * u1s / (s - 1) ** (j + 1)
        return +((-1) ** m * main + 2 * res.value + sum(heads))


def hurwitz_zeta(s, u, ctx: PrecisionContext = DEFAULT_CONTEXT,
                 route: str = "em") -> FunctionValue:
    """zeta(s,u) for real s != 1, u > 0 by route: em, Euler-Maclaurin
    (_zeta_em), or hermite, Hermite's integral (_hermite)."""
    return _zeta(0, s, u, ctx, route)


def hurwitz_zeta_sderiv(order: int, s, u,
                        ctx: PrecisionContext = DEFAULT_CONTEXT,
                        route: str = "em") -> FunctionValue:
    """d^order/ds^order zeta(s,u) for order in {1,2}, by hurwitz_zeta's
    routes, each differentiated analytically in s: no finite differences."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    return _zeta(order, s, u, ctx, route)


def _zeta(m: int, s, u, ctx: PrecisionContext, route: str) -> FunctionValue:
    """zeta^(m)(s,u) by route, labelled ZETA_ROUTES[route] + _sderiv<m>."""
    if route not in ZETA_ROUTES:
        raise ValueError("hurwitz_zeta route must be em or hermite")
    with ctx.working(10):
        s, u = mpf(s), positive(u, "hurwitz_zeta")
        if s == 1:
            raise ValueError("pole at s = 1")
        f = _zeta_em if route == "em" else _hermite
        return FunctionValue(f(m, s, u, ctx), ZETA_ROUTES[route]
                             + ("_sderiv%d" % m if m else ""))


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def barnes_g_log(t, route: str = "integral_6_7",
                 ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """log G(1+t) for t > 0 by one of three routes.

    integral_6_7     t^2/2 (log t - 3/2) + t log(2pi)/2 + zeta'(-1)
                     - int x log(t^2+x^2) /B dx
    weierstrass_6_5  (t/2) log 2pi - (gamma t^2 + t^2 + t)/2 + sum_k f(k),
                     f(x) = x log(1+t/x) + t^2/(2x) - t: the first K terms
                     directly, the rest by one Euler-Maclaurin closure
                     (_weierstrass_tail)
    gosper_vardi_6_10  t logGamma(t) + zeta'(-1) - zeta'(-1,t)

    K is max(60, 4t + 40), raised to dps ln 10/(2 pi) from about 134
    digits on: then e^(-2 pi (K+1)), about the size of the closure's
    smallest term, lies more than 4 digits below its threshold
    10^-(dps-2).  The record tallies K as em_direct.
    """
    if route not in BARNES_G_ROUTES:
        raise ValueError("unknown barnes_g route %r" % route)
    with ctx.working(10):
        tt = positive(t, "barnes_g_log", "t")
        if route == "weierstrass_6_5":
            g = series.limit_stieltjes_oracle(0, 1, ctx)
            K = max(60, int(4 * tt) + 40,
                    math.ceil(mp.dps * math.log(10) / (2 * math.pi)))
            tally(em_direct=K)
            acc = (tt / 2 * mp.log(2 * mp.pi)
                   - (g * tt * tt + tt * tt + tt) / 2)
            for k in range(1, K + 1):
                acc += k * log1p(tt / k) + tt * tt / (2 * k) - tt
            return FunctionValue(+_weierstrass_tail(tt, K + 1, acc), route)
        zp1 = series.riemann_zeta_em(-1, 1, ctx)
        if route == "integral_6_7":
            t2 = tt * tt
            res = integrate_bose(lambda x: x * mp.log(t2 + x * x), ctx)
            val = (t2 / 2 * (mp.log(tt) - mpf(3) / 2)
                   + tt * mp.log(2 * mp.pi) / 2 + zp1 - res.value)
            return FunctionValue(+val, route)
        lg = log_gamma(tt, "binet2", ctx)
        zd = hurwitz_zeta_sderiv(1, -1, tt, ctx)
        return FunctionValue(+(tt * lg.value + zp1 - zd.value), route)


def _weierstrass_tail(t, a: int, acc):
    """acc + sum_{k>=a} f(k), f(x) = x log(1+t/x) + t^2/(2x) - t, by one
    Euler-Maclaurin closure at a: the integral of f over (a, inf),

        -(a^2 - t^2)/2 log(1+t/a) + t a/2 - t^2/4,

    f(a)/2 and the terms -B_2j/(2j)! f^(2j-1)(a).  The first takes
    f'(a) = log(1+t/a) - t/(a+t) - t^2/(2 a^2); from m = 2 on

        f^(m)(x) = (-1)^m [(m-2)! ((x+t)^(1-m) - x^(1-m))
                           + t (m-1)! (x+t)^-m + (t^2/2) m! x^(-m-1)],

    so with p = 1/(a+t) and q = 1/a the j-th term is

        B_2j/(2j) [(p^(2j-2) - q^(2j-2))/((2j-1)(2j-2))
                   + t p^(2j-1)/(2j-1) + t^2 q^2j/2].

    _sum_terms adds them until one is below 10^-(dps-2), out to one past
    the smallest, near j = pi a, whose size is about e^(-2 pi a); tallies
    the terms taken as em_terms.
    """
    eps = mpf(10) ** (-(mp.dps - 2))
    L = log1p(t / a)
    taken = 0

    def terms():
        nonlocal taken
        p, q = 1 / (a + t), mpf(1) / a
        taken = 1
        yield -(L - t * p - t * t * q * q / 2) / 12
        p2, q2 = p * p, q * q
        pw, qw = p2, q2         # p^(2j-2), q^(2j-2)
        for j in range(2, math.ceil(math.pi * a) + 2):
            taken = j
            yield series._bern_mpf(2 * j) / (2 * j) * (
                (pw - qw) / ((2 * j - 1) * (2 * j - 2))
                + t * pw * p / (2 * j - 1) + t * t * qw * q2 / 2)
            pw *= p2
            qw *= q2

    f_a = a * L + t * t / (2 * a) - t
    integral = -(a * a - t * t) / 2 * L + t * a / 2 - t * t / 4
    total = series._sum_terms(terms(), acc + integral + f_a / 2, eps)
    tally(em_terms=taken)
    return total


# ---------------------------------------------------------------------------
# sine and cosine integrals
# ---------------------------------------------------------------------------

#: Power series up to here; auxiliary functions f and g beyond.
_SICI_SERIES_MAX = 8


def _aux_boundary():
    """Tier boundary Z of f and g at the working precision: the smallest
    term of their asymptotic series is about e^-z, below 10^-dps from Z."""
    return mpf("2.31") * mp.dps + 10


def _aux_terms(delta: int, z):
    """Terms (-1)^k (2k+delta)!/z^(2k+1+delta), k = 0 .. Z/2, of the
    asymptotic series of f (delta = 0) or g (delta = 1) at z.  They shrink
    while 2k < z, so for z >= Z they reach 10^-dps within the cap."""
    term = 1 / z ** (1 + delta)
    for k in range(int(_aux_boundary()) // 2 + 1):
        yield term
        term *= -(2 * k + 1 + delta) * (2 * k + 2 + delta) / (z * z)


def _si_ci_aux(delta: int, z, ctx: PrecisionContext):
    """f(z) (delta = 0) or g(z) (delta = 1) for z > 0, with
    Ci = f sin - g cos and si = -f cos - g sin:

      f(z) = int e^(-zt)/(1+t^2) dt,  g(z) = int t e^(-zt)/(1+t^2) dt.

    Laplace quadrature below the tier boundary _aux_boundary(), the
    asymptotic series of _aux_terms from it on.
    """
    with ctx.working(10):
        z = mpf(z)
        if z >= _aux_boundary():
            eps = mpf(10) ** -mp.dps
            return series._sum_terms(_aux_terms(delta, z), mpf(0), eps)
        return integrate_laplace(lambda t: t ** delta / (1 + t * t), z,
                                 ctx).value


def _aux_lattice_sum(delta: int, p: int, z0, ctx: PrecisionContext,
                     first: int = 1):
    """sum_{n>=first} phi(n z0)/n^p, phi = f (delta = 0) or g
    (delta = 1), p >= 1: terms n <= N one by one, where (N+1) z0 reaches
    the tier boundary, and the rest through the asymptotic series of phi
    against zeta tails,

      sum_k (-1)^k (2k+delta)!/z0^(2k+1+delta) sum_{n>N} n^-(2k+1+delta+p),

    each from em_log_power_tail, which adds terms past N as far as its
    remainder bound needs.  N is at least first - 1, so that the tails
    never count a term below first; it is tallied as aux_lattice_n.
    """
    with ctx.working(10):
        N = max(int(mp.ceil(_aux_boundary() / z0)) - 1, first - 1)
        acc = mpf(0)
        for n in range(first, N + 1):
            acc += _si_ci_aux(delta, n * z0, ctx) / mpf(n) ** p
        eps = mpf(10) ** -mp.dps
        terms = (c * series.em_log_power_tail(2 * k + 1 + delta + p, 0, N,
                                              0, ctx)
                 for k, c in enumerate(_aux_terms(delta, z0)))
        tally(aux_lattice_n=N)
        return series._sum_terms(terms, acc, eps)


def sin_cos_integrals(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """(Si(x), si(x), Ci(x)) for x > 0; si = Si - pi/2.

    Power series up to _SICI_SERIES_MAX (with the oracle's Euler constant
    in Ci), the auxiliary functions of _si_ci_aux beyond.
    """
    with ctx.working(10):
        x = positive(x, "sin_cos_integrals", "x")
        if x <= _SICI_SERIES_MAX:
            eps = mpf(10) ** (-(mp.dps + 2))
            si_acc = mpf(0)
            x2 = x * x
            term = x
            k = 0
            while True:
                si_acc += term / (2 * k + 1)
                term *= -x2 / ((2 * k + 2) * (2 * k + 3))
                k += 1
                if abs(term) < eps:
                    break
            ci_acc = mpf(0)
            term = -x2 / 2
            k = 1
            while True:
                ci_acc += term / (2 * k)
                term *= -x2 / ((2 * k + 1) * (2 * k + 2))
                k += 1
                if abs(term) < eps:
                    break
            g = series.limit_stieltjes_oracle(0, 1, ctx)
            Si = +si_acc
            Ci = +(g + mp.log(x) + ci_acc)
            return Si, +(Si - mp.pi / 2), Ci
        f, g = _si_ci_aux(0, x, ctx), _si_ci_aux(1, x, ctx)
        s, c = mp.sin(x), mp.cos(x)
        Ci = f * s - g * c
        si = -f * c - g * s
        return +(si + mp.pi / 2), +si, +Ci


# ---------------------------------------------------------------------------
# Bose-lattice polylogarithm sums
# ---------------------------------------------------------------------------

def polylog_bose(s, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """sum_{n>=1} 1/(n^s (e^(2 pi n) - 1)); converges like e^(-2 pi n)."""
    with ctx.working(10):
        s = mpf(s)
        eps = mpf(10) ** (-(mp.dps + 2))
        terms = (1 / (mp.power(n, s) * expm1(2 * mp.pi * n))
                 for n in range(1, 2000))
        return +series._sum_terms(terms, mpf(0), eps)
