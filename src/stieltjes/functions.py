"""The special-function web: every function here has at least two
mathematically independent evaluation routes, and each public entry point
reports which route produced its value.

Route naming follows the representation used, not the symbol computed:
"bose" routes integrate against 1/(e^(2 pi x)-1), "laplace" routes against
e^(-u t), "series" routes sum something, "em" routes lean on the
Euler-Maclaurin reference evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .precision import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    PrecisionExhaustedError,
)
from . import series
from .quadrature import (
    Integrand1D,
    QuadratureResult,
    exp_sinh_0inf,
    integrate_bose,
    integrate_laplace,
)

STIELTJES_METHODS = ("coffey_integral", "hasse_sum", "limit_euler_maclaurin",
                     "alt_zeta_recursion")
LOG_GAMMA_ROUTES = ("binet2", "binet1", "bourguet", "binomial_series")
BARNES_G_ROUTES = ("integral_6_7", "weierstrass_6_5", "gosper_vardi_6_10")


@dataclass
class FunctionValue:
    """A computed value plus where it came from."""
    value: object
    route: str
    diagnostics: dict


def _quad_diag(res: QuadratureResult) -> dict:
    return {"error_estimate": float(res.error_estimate),
            "nodes": res.nodes_used}


# ---------------------------------------------------------------------------
# removable-singularity kernels (series below a cutoff, direct above)
# ---------------------------------------------------------------------------

def binet_kernel(t):
    """K(t) = 1/(e^t - 1) - 1/t + 1/2 = sum_{k>=1} B_2k t^(2k-1)/(2k)!.

    Series below |t| = 1/4, direct expm1 arithmetic above.  K(t)/t extends
    to 1/12 at t = 0.
    """
    t = mpf(t)
    if abs(t) > mpf(1) / 4:
        return 1 / mp.expm1(t) - 1 / t + mpf(1) / 2
    acc = mpf(0)
    tp = t
    t2 = t * t
    eps = mpf(10) ** (-(mp.dps + 4))
    for k in range(1, 200):
        term = series._bern_mpf(2 * k) / mp.factorial(2 * k) * tp
        acc += term
        if abs(term) < eps:
            break
        tp *= t2
    return acc


def exp_square_kernel(y):
    """e^y/(e^y-1)^2 - 1/y^2 + 1/12, series below |y| = 1/4.

    Equals -sum_{k>=2} B_2k (2k-1) y^(2k-2)/(2k)!; leading term y^2/240.
    """
    y = mpf(y)
    if abs(y) > mpf(1) / 4:
        em = mp.expm1(y)
        return mp.exp(y) / (em * em) - 1 / (y * y) + mpf(1) / 12
    acc = mpf(0)
    y2 = y * y
    yp = y2
    eps = mpf(10) ** (-(mp.dps + 4))
    for k in range(2, 200):
        term = (series._bern_mpf(2 * k) * (2 * k - 1)
                / mp.factorial(2 * k) * yp)
        acc -= term
        if abs(term) < eps:
            break
        yp *= y2
    return acc


_GREGORY: list[Fraction] = [Fraction(1)]


def _gregory(n: int) -> Fraction:
    """Coefficients of e/log(1+e): G_0=1, G_1=1/2, G_2=-1/12, ..."""
    while len(_GREGORY) <= n:
        m = len(_GREGORY)
        acc = Fraction(0)
        for k in range(m):
            acc += _GREGORY[k] * Fraction((-1) ** (m - k), m - k + 1)
        _GREGORY.append(-acc)
    return _GREGORY[n]


def one_over_log_kernel(y, yc=None):
    """R(y) = 1/log(y) - 1/(y-1), regular at y = 1 with R(1) = 1/2.

    Near y = 1 (|y-1| <= 1/4) uses the Gregory series in e = y-1; passing
    the exact complement yc = 1-y keeps e accurate when y is a
    tanh-sinh node exponentially close to 1.
    """
    if yc is not None:
        e = -mpf(yc)
    else:
        e = mpf(y) - 1
    if abs(e) > mpf(1) / 4:
        y = 1 + e
        return 1 / mp.log(y) - 1 / e
    acc = mpf(0)
    ep = mpf(1)
    eps = mpf(10) ** (-(mp.dps + 4))
    for k in range(1, 400):
        g = _gregory(k)
        term = mpf(g.numerator) / g.denominator * ep
        acc += term
        if abs(term) < eps and k > 3:
            break
        ep *= e
    return acc


# ---------------------------------------------------------------------------
# Stieltjes constants, four routes
# ---------------------------------------------------------------------------

def _stieltjes_coffey(n: int, u, ctx: PrecisionContext) -> FunctionValue:
    """gamma_n(u) by the closed real integral representation:

      gamma_n(u) = log^n(u)/(2u) - log^(n+1)(u)/(n+1)
                   + 2 int_0^inf (u Q_n + x P_n)/((u^2+x^2) B(x)) dx,

    P_n + i Q_n = (A - i theta)^n, A = log(u^2+x^2)/2, theta = atan(x/u).
    """
    with ctx.working(10):
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("coffey route requires finite u > 0")
        u2 = uu * uu

        def g(x):
            z = mp.mpc(mp.log(u2 + x * x) / 2, -mp.atan2(x, uu)) ** n
            return (uu * z.imag + x * z.real) / (u2 + x * x)

        res = integrate_bose(Integrand1D(eval=g), ctx)
        lu = mp.log(uu)
        main = lu ** n / (2 * uu) - lu ** (n + 1) / (n + 1)
        return FunctionValue(value=+(main + 2 * res.value),
                            route="coffey_integral",
                            diagnostics=_quad_diag(res))


def stieltjes(n: int, u=1, method: str = "limit_euler_maclaurin",
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """gamma_n(u) by the chosen route.

    limit_euler_maclaurin is the reference; coffey_integral is the
    independent check; alt_zeta_recursion works at u = 1 only; hasse_sum
    is Hasse's binomial double sum, shifted to u + M so that it reaches the
    tolerance, and raises PrecisionExhaustedError when its tail estimate
    does not (high orders for the digits, n = 60 at 30 digits say).
    """
    if method not in STIELTJES_METHODS:
        raise ValueError("unknown method %r" % method)
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "limit_euler_maclaurin":
        val = series.limit_stieltjes_oracle(n, u, ctx)
        return FunctionValue(value=val, route=method,
                             diagnostics={"validated": "N vs 2N"})
    if method == "coffey_integral":
        return _stieltjes_coffey(n, u, ctx)
    if method == "alt_zeta_recursion":
        with ctx.working():
            if mpf(u) != 1:
                raise ValueError("alt_zeta_recursion is defined at u = 1 only")
        val = series.stieltjes_from_altzeta(n, ctx)
        return FunctionValue(value=val, route=method,
                             diagnostics={"moments": n + 1})
    value, diag = series.hasse_stieltjes(n, u, ctx)
    _refuse_above_tolerance("hasse_sum", diag, ctx)
    return FunctionValue(value=value, route="hasse_sum",
                         diagnostics=diag.__dict__)


def _refuse_above_tolerance(route: str, diag, ctx: PrecisionContext) -> None:
    """Raise PrecisionExhaustedError unless a sum's tail estimate is within
    the tolerance (a NaN estimate is not): the route cannot vouch for the
    digits asked of it."""
    with ctx.working():
        if not mpf(diag.tail_estimate) <= ctx.tolerance:
            raise PrecisionExhaustedError(
                "%s truncation ~%.2g exceeds tolerance %s"
                % (route, diag.tail_estimate, mp.nstr(ctx.tolerance, 3)))


# ---------------------------------------------------------------------------
# digamma and trigamma
# ---------------------------------------------------------------------------

def digamma(u, ctx: PrecisionContext = DEFAULT_CONTEXT,
            route: str = "bose") -> FunctionValue:
    """psi(u), u > 0.

    bose:    psi(u) = log u - 1/(2u) - 2 int x/((u^2+x^2) B) dx
    laplace: psi(u) = log u - 1/(2u) - int e^(-u t) K(t) dt, K the
             subtracted Bose/Binet kernel.
    """
    with ctx.working(10):
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("digamma requires finite u > 0")
        if route == "bose":
            u2 = uu * uu
            res = integrate_bose(
                Integrand1D(eval=lambda x: x / (u2 + x * x)), ctx)
            val = mp.log(uu) - 1 / (2 * uu) - 2 * res.value
        elif route == "laplace":
            res = integrate_laplace(
                Integrand1D(eval=binet_kernel),
                uu, ctx)
            val = mp.log(uu) - 1 / (2 * uu) - res.value
        else:
            raise ValueError("digamma route must be bose or laplace")
        return FunctionValue(value=+val, route="digamma_" + route,
                             diagnostics=_quad_diag(res))


def trigamma(u, ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """psi'(u) = 1/u + 1/(2u^2) + 4u int x/((u^2+x^2)^2 B) dx, u > 0."""
    with ctx.working(10):
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("trigamma requires finite u > 0")
        u2 = uu * uu
        res = integrate_bose(
            Integrand1D(eval=lambda x: x / (u2 + x * x) ** 2), ctx)
        val = 1 / uu + 1 / (2 * u2) + 4 * uu * res.value
        return FunctionValue(value=+val, route="trigamma_bose",
                             diagnostics=_quad_diag(res))


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
    bourguet        Stirling main term + trigonometric series, partial
                    sums closed with the smooth asymptotic tail
    binomial_series Lerch form zeta'(0,u) + log(2pi)/2 with zeta'(0,u)
                    from Hasse's binomial double sum, shifted to u + M
                    like the hasse_sum route; raises
                    PrecisionExhaustedError when its tail estimate
                    exceeds the tolerance
    """
    if route not in LOG_GAMMA_ROUTES:
        raise ValueError("unknown log_gamma route %r" % route)
    with ctx.working(10):
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("log_gamma requires finite u > 0")
        if route == "binet2":
            res = integrate_bose(
                Integrand1D(eval=lambda x: mp.atan2(x, uu)), ctx)
            return FunctionValue(+(_stirling_main(uu) + 2 * res.value),
                                 "binet2", _quad_diag(res))
        if route == "binet1":
            res = integrate_laplace(
                Integrand1D(eval=lambda t: binet_kernel(t) / t),
                uu, ctx)
            return FunctionValue(+(_stirling_main(uu) + res.value),
                                 "binet1", _quad_diag(res))
        if route == "bourguet":
            N = 10000
            part = log_gamma_bourguet_terms(uu, N, ctx)
            tail = _bourguet_smooth_tail(uu, N, ctx)
            return FunctionValue(+(_stirling_main(uu) + part + tail),
                                 "bourguet",
                                 {"terms": N, "tail_route": "asymptotic"})
        # binomial_series: Hasse's sum of x log x - x is zeta'(0,x), and
        # zeta'(0,u) = zeta'(0,u+1) - log u
        zeta_p0, diag = series._shifted_hasse_sum(
            lambda x: x * (mp.log(x) - 1), lambda x: -mp.log(x), uu, ctx)
        _refuse_above_tolerance("binomial_series", diag, ctx)
        return FunctionValue(+(zeta_p0 + mp.log(2 * mp.pi) / 2),
                             "binomial_series", diag.__dict__)


def _bourguet_smooth_tail(uu, N: int, ctx: PrecisionContext):
    """sum_{n>N} f(2 pi n u)/(pi n) with f the auxiliary cosine-transform
    function, via its asymptotic series and zeta tails:

      f(z) ~ sum_k (-1)^k (2k)!/z^(2k+1)
      tail = sum_k (-1)^k (2k)!/(pi (2 pi u)^(2k+1)) * sum_{n>N} n^(-2k-2)
    """
    z0 = 2 * mp.pi * uu
    acc = mpf(0)
    eps = mpf(10) ** (-(mp.dps - 2))
    prev = None
    for k in range(0, 30):
        coef = (-1) ** k * mp.factorial(2 * k) / (mp.pi * z0 ** (2 * k + 1))
        ztail = series.em_log_power_tail(2 * k + 2, 0, N, 0, ctx)
        term = coef * ztail
        acc += term
        t = abs(term)
        if t < eps:
            break
        if prev is not None and t > prev:
            break
        prev = t
    return acc


def log_gamma_bourguet_terms(u, N: int,
                             ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Partial trigonometric series sum_{n<=N} f(2 pi n u)/(pi n).

    Each term is the closed form of (1/(pi n)) int sin(2 pi n x)/(x+u) dx,
    namely [Ci(z) sin(z) - si(z) cos(z)]/(pi n) = f(z)/(pi n) at
    z = 2 pi n u, evaluated through the auxiliary function directly.
    """
    with ctx.working(10):
        uu = mpf(u)
        acc = mpf(0)
        for n in range(1, N + 1):
            z = 2 * mp.pi * n * uu
            acc += _si_ci_aux(z, ctx)[0] / (mp.pi * n)
        return +acc


# ---------------------------------------------------------------------------
# Hurwitz zeta and s-derivatives (Hermite-type real integral forms)
# ---------------------------------------------------------------------------

def hurwitz_zeta(s, u, ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """zeta(s,u) for real s != 1, u > 0:

      u^-s/2 + u^(1-s)/(s-1) + 2 int sin(s atan(x/u)) (u^2+x^2)^(-s/2) /B dx.

    Valid on the analytic continuation (s < 1 included): the integral
    converges for every real s.
    """
    with ctx.working(10):
        s = mpf(s)
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("hurwitz_zeta requires finite u > 0")
        if s == 1:
            raise ValueError("pole at s = 1")
        u2 = uu * uu

        def g(x):
            th = mp.atan2(x, uu)
            return mp.sin(s * th) * mp.power(u2 + x * x, -s / 2)

        res = integrate_bose(Integrand1D(eval=g), ctx)
        main = mp.power(uu, -s) / 2 + mp.power(uu, 1 - s) / (s - 1)
        return FunctionValue(+(main + 2 * res.value), "hermite_bose",
                             _quad_diag(res))


def hurwitz_zeta_sderiv(order: int, s, u,
                        ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """d^order/ds^order zeta(s,u) for order in {1,2}, by differentiating
    the Hermite integral form analytically in s (no finite differences).

    order 1 integrand: (u^2+x^2)^(-s/2) [theta cos(s theta) - L sin(s theta)]
    order 2 integrand: (u^2+x^2)^(-s/2) [(L^2-theta^2) sin + (-2 L theta) cos]
    with L = log(u^2+x^2)/2, theta = atan(x/u), plus the matching main-term
    derivatives.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    with ctx.working(10):
        s = mpf(s)
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("hurwitz_zeta_sderiv requires finite u > 0")
        if s == 1:
            raise ValueError("pole at s = 1")
        u2 = uu * uu
        lu = mp.log(uu)
        s1 = s - 1
        us = mp.power(uu, -s)
        u1s = mp.power(uu, 1 - s)

        if order == 1:
            main = -us * lu / 2 - u1s * lu / s1 - u1s / s1 ** 2

            def g(x):
                th = mp.atan2(x, uu)
                L = mp.log(u2 + x * x) / 2
                return (mp.power(u2 + x * x, -s / 2)
                        * (th * mp.cos(s * th) - L * mp.sin(s * th)))
        else:
            main = (us * lu ** 2 / 2 + u1s * lu ** 2 / s1
                    + 2 * u1s * lu / s1 ** 2 + 2 * u1s / s1 ** 3)

            def g(x):
                th = mp.atan2(x, uu)
                L = mp.log(u2 + x * x) / 2
                return (mp.power(u2 + x * x, -s / 2)
                        * ((L * L - th * th) * mp.sin(s * th)
                           - 2 * L * th * mp.cos(s * th)))

        res = integrate_bose(Integrand1D(eval=g), ctx)
        return FunctionValue(+(main + 2 * res.value),
                             "hermite_bose_sderiv%d" % order,
                             _quad_diag(res))


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def barnes_g_log(t, route: str = "integral_6_7",
                 ctx: PrecisionContext = DEFAULT_CONTEXT) -> FunctionValue:
    """log G(1+t) for t > 0 by one of three routes.

    integral_6_7     t^2/2 (log t - 3/2) + t log(2pi)/2 + zeta'(-1)
                     - int x log(t^2+x^2) /B dx
    weierstrass_6_5  canonical-product partial sums with zeta-tail closure
    gosper_vardi_6_10  t logGamma(t) + zeta'(-1) - zeta'(-1,t)
    """
    if route not in BARNES_G_ROUTES:
        raise ValueError("unknown barnes_g route %r" % route)
    with ctx.working(10):
        tt = mpf(t)
        if not 0 < tt < mp.inf:
            raise ValueError("barnes_g_log requires finite t > 0")
        zp1 = series.riemann_zeta_em(-1, 1, ctx)
        if route == "integral_6_7":
            t2 = tt * tt
            res = integrate_bose(
                Integrand1D(eval=lambda x: x * mp.log(t2 + x * x)), ctx)
            val = (t2 / 2 * (mp.log(tt) - mpf(3) / 2)
                   + tt * mp.log(2 * mp.pi) / 2 + zp1 - res.value)
            return FunctionValue(+val, route, _quad_diag(res))
        if route == "gosper_vardi_6_10":
            lg = log_gamma(tt, "binet2", ctx)
            zd = hurwitz_zeta_sderiv(1, -1, tt, ctx)
            val = tt * lg.value + zp1 - zd.value
            diag = {"log_gamma": lg.diagnostics, "zeta_deriv": zd.diagnostics}
            return FunctionValue(+val, route, diag)
        # weierstrass_6_5: (t/2) log 2pi - (gamma t^2 + t^2 + t)/2
        #                  + sum_k [k log(1+t/k) + t^2/(2k) - t]
        g = series.limit_stieltjes_oracle(0, 1, ctx)
        K = max(60, int(4 * tt) + 40)
        acc = tt / 2 * mp.log(2 * mp.pi) - (g * tt * tt + tt * tt + tt) / 2
        for k in range(1, K + 1):
            acc += k * mp.log1p(tt / k) + tt * tt / (2 * k) - tt
        # remaining k > K: sum_m (-1)^(m+1) t^m/m * zeta(m-1, K+1), m >= 3
        eps = mpf(10) ** (-(mp.dps - 2))
        m = 3
        while m < 400:
            zt = series.em_log_power_tail(m - 1, 0, K, 0, ctx)
            term = (-1) ** (m + 1) * mp.power(tt, m) / m * zt
            acc += term
            if abs(term) < eps:
                break
            m += 1
        return FunctionValue(+acc, route, {"product_terms": K, "tail_m": m})


# ---------------------------------------------------------------------------
# sine and cosine integrals
# ---------------------------------------------------------------------------

#: Tier boundaries: power series to 8, auxiliary-function quadrature to 100,
#: truncated asymptotics beyond (floor ~e^-100, below every tolerance here).
_SICI_SERIES_MAX = 8
_SICI_ASYM_MIN = 100


def _si_ci_aux(z, ctx: PrecisionContext):
    """(f, g) with Ci = f sin - g cos and si = -f cos - g sin.

    f(z) = int e^(-zt)/(1+t^2) dt,  g(z) = int t e^(-zt)/(1+t^2) dt.
    Quadrature mid-range, asymptotic series for z >= 75.
    """
    z = mpf(z)
    if z >= _SICI_ASYM_MIN:
        z2 = z * z
        f = mpf(0)
        g = mpf(0)
        fk = mpf(1) / z
        gk = mpf(1) / z2
        for k in range(0, 60):
            f += fk if k % 2 == 0 else -fk
            g += gk if k % 2 == 0 else -gk
            ratio = (2 * k + 1) * (2 * k + 2) / z2
            nf = fk * ratio
            if nf > fk:
                break
            fk = nf
            gk = gk * (2 * k + 2) * (2 * k + 3) / z2
        return f, g
    fres = integrate_laplace(
        Integrand1D(eval=lambda t: 1 / (1 + t * t)), z, ctx)
    gres = integrate_laplace(
        Integrand1D(eval=lambda t: t / (1 + t * t)), z, ctx)
    return fres.value, gres.value


def sin_cos_integrals(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """(Si(x), si(x), Ci(x)) for x > 0; si = Si - pi/2.

    Power series at small argument (with the oracle's Euler constant in
    Ci), auxiliary functions beyond; see the tier notes above.
    """
    with ctx.working(10):
        x = mpf(x)
        if not 0 < x < mp.inf:
            raise ValueError("sin_cos_integrals requires finite x > 0")
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
        f, g = _si_ci_aux(x, ctx)
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
        acc = mpf(0)
        eps = mpf(10) ** (-(mp.dps + 2))
        for n in range(1, 2000):
            t = 1 / (mp.power(n, s) * mp.expm1(2 * mp.pi * n))
            acc += t
            if t < eps:
                break
        return +acc
