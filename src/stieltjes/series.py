"""Series-side machinery: exact Bernoulli/harmonic arithmetic, the
Euler-Maclaurin reference evaluators, and the binomial-transform routes.

The central object is the limit oracle for generalized Stieltjes constants

    gamma_n(u) = lim_M [ sum_{k=0..M} log^n(k+u)/(k+u) - log^{n+1}(M+u)/(n+1) ]

evaluated by aborting the limit at N and correcting with Euler-Maclaurin
terms.  Everything labelled "oracle" below derives from it and from the
matching Euler-Maclaurin zeta evaluator; these are the reference values the
independent integral routes are judged against, so they carry their own
N-versus-2N self-check.

Cancellation-heavy binomial sums (the Hasse route, the alternating-zeta
moments) widen their working precision by ~0.302 digits per term of outer
depth before summing; see SumDiagnostics for what they report back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .precision import (
    DEFAULT_CONTEXT,
    NonConvergenceError,
    PrecisionContext,
    PrecisionExhaustedError,
)

# ---------------------------------------------------------------------------
# exact rational pieces
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli_number(n: int) -> Fraction:
    """B_n as an exact Fraction, B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("bernoulli_number needs n >= 0")
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)
        if m % 2 == 1:
            _BERNOULLI_CACHE.append(Fraction(0))
            continue
        # B_m = -1/(m+1) * sum_{k<m} C(m+1,k) B_k
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI_CACHE[k]
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[n]


def bernoulli_poly(n: int, u, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """B_n(u) = sum_k C(n,k) B_{n-k} u^k.

    Exact Fraction in, exact Fraction out; anything else is evaluated as mpf
    at working precision.
    """
    if n < 0:
        raise ValueError("bernoulli_poly needs n >= 0")
    if isinstance(u, (int, Fraction)):
        uu = Fraction(u)
        return sum(math.comb(n, k) * bernoulli_number(n - k) * uu ** k
                   for k in range(n + 1))
    with ctx.working():
        uu = mpf(u)
        acc = mpf(0)
        for k in range(n + 1):
            b = bernoulli_number(n - k)
            acc += math.comb(n, k) * mpf(b.numerator) / b.denominator * uu ** k
        return acc


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact Fraction; H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic needs n >= 0")
    acc = Fraction(0)
    for k in range(1, n + 1):
        acc += Fraction(1, k)
    return acc


def _bern_mpf(n: int) -> mpf:
    b = bernoulli_number(n)
    return mpf(b.numerator) / b.denominator


# ---------------------------------------------------------------------------
# diagnostics for cancellation-prone sums
# ---------------------------------------------------------------------------

@dataclass
class SumDiagnostics:
    """What a finite summation actually did.

    cancellation_digits_lost is ceil(log10(max_term/|result|)), clamped at
    zero: how many leading digits of the biggest summand were annihilated.
    tail_estimate, when not None, is a conservative bound on the truncation
    error of the infinite sum.
    """

    terms_used: int
    max_term_magnitude: float
    cancellation_digits_lost: int
    tail_estimate: Optional[float] = None

    @classmethod
    def from_run(cls, terms: int, max_term, result,
                 tail_estimate=None) -> "SumDiagnostics":
        max_term = abs(max_term)
        r = abs(result)
        if r == 0 or max_term == 0:
            lost = 0
        else:
            lost = int(math.ceil(float(mp.log10(max_term / r))))
            lost = max(0, lost)
        return cls(terms_used=terms,
                   max_term_magnitude=float(max_term),
                   cancellation_digits_lost=lost,
                   tail_estimate=None if tail_estimate is None
                   else float(tail_estimate))


# ---------------------------------------------------------------------------
# Euler-Maclaurin oracle for gamma_n(u)
# ---------------------------------------------------------------------------

def _log_power_coeffs(n: int, m: int) -> list[list[int]]:
    """Derivative coefficients for f(t) = log^n(w)/w, w = t + u.

    Returns rows c[0..m] with f^(j)(t) = w^-(j+1) * sum_k c[j][k] log^k(w).
    Row update: c[j+1][k] = (k+1) c[j][k+1] - (j+1) c[j][k].  All exact ints.
    """
    rows = []
    cur = [0] * (n + 1)
    cur[n] = 1
    rows.append(cur)
    for j in range(m):
        nxt = [0] * (n + 1)
        for k in range(n + 1):
            v = -(j + 1) * cur[k]
            if k + 1 <= n:
                v += (k + 1) * cur[k + 1]
            nxt[k] = v
        rows.append(nxt)
        cur = nxt
    return rows


def _oracle_correction(n: int, u, N: int, j_cap: int) -> mpf:
    """f(N)/2 - sum_j B_2j/(2j)! f^(2j-1)(N) for f = log^n(.+u)/(.+u).

    The j-sum is cut adaptively: stop when terms fall under the working
    epsilon or start growing (the expansion is asymptotic).
    """
    w = mpf(N) + u
    L = mp.log(w)
    Lp = [mpf(1)]
    for _ in range(n):
        Lp.append(Lp[-1] * L)
    rows = _log_power_coeffs(n, 2 * j_cap - 1)
    corr = Lp[n] / w / 2
    eps = mpf(10) ** (-(mp.dps + 2))
    prev = None
    winv = 1 / w
    wpow = winv * winv  # w^-(2j) at j=1 starts as w^-2
    for j in range(1, j_cap + 1):
        row = rows[2 * j - 1]
        poly = mpf(0)
        for k in range(n + 1):
            if row[k]:
                poly += row[k] * Lp[k]
        term = _bern_mpf(2 * j) / mp.factorial(2 * j) * poly * wpow
        corr -= term
        t = abs(term)
        if t < eps:
            break
        if prev is not None and t > prev:
            break
        prev = t
        wpow *= winv * winv
    return corr


_ORACLE_CACHE: dict = {}

#: Terms in the oracle's first pass; the second pass runs to 2N.
_ORACLE_N = 10000


def stieltjes_oracle_table(n_max: int, u,
                           ctx: PrecisionContext = DEFAULT_CONTEXT) -> list:
    """gamma_0(u) .. gamma_nmax(u) by the corrected-limit formula.

    One pass over k < 2N accumulates partial sums of log^n(k+u)/(k+u) for
    every n at once, snapshotting at k = N so the N and 2N evaluations share
    the work.  Disagreement beyond 10^-(target+5) raises NonConvergenceError.

    The partial sums grow like log^n(2N) before the counterterm cancels
    them back to order one, which costs about n digits; the working
    precision is raised by n_max to keep the validation meaningful for
    high orders.

    Results are memoized per (u, working precision); repeated catalog
    entries asking for gamma or gamma_1 do not redo the 2N-term pass.  A
    larger n_max than the cached table is a new pass, so callers that need
    several orders should ask for the whole range once.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with ctx.working():
        key = (mp.nstr(mpf(u), ctx.working_digits), ctx.working_digits)
    cached = _ORACLE_CACHE.get(key)
    if cached is not None and len(cached) > n_max:
        with ctx.working():
            return [+v for v in cached[:n_max + 1]]
    j_cap = max(8, min(48, ctx.working_digits // 4))
    N = _ORACLE_N
    with ctx.working(10 + n_max):
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("oracle requires finite u > 0")
        partial_N = None
        partial = [mpf(0)] * (n_max + 1)
        for k in range(2 * N):
            if k == N:
                partial_N = list(partial)
            w = k + uu
            L = mp.log(w)
            p = 1 / w
            for idx in range(n_max + 1):
                partial[idx] += p
                p *= L
        out_N = []
        out_2N = []
        for n in range(n_max + 1):
            main_N = partial_N[n] - mp.log(N + uu) ** (n + 1) / (n + 1)
            main_2N = partial[n] - mp.log(2 * N + uu) ** (n + 1) / (n + 1)
            out_N.append(main_N + _oracle_correction(n, uu, N, j_cap))
            out_2N.append(main_2N + _oracle_correction(n, uu, 2 * N, j_cap))
        thresh = mpf(10) ** (-(ctx.target_digits + 5))
        for n, (a, b) in enumerate(zip(out_N, out_2N)):
            # written so that a NaN difference fails the check too
            if not abs(a - b) <= thresh * max(1, abs(a)):
                raise NonConvergenceError(
                    "oracle N vs 2N disagreement at n=%d: |diff|=%s"
                    % (n, mp.nstr(abs(a - b), 5)))
        _ORACLE_CACHE[key] = [+v for v in out_2N]
    with ctx.working():
        return [+v for v in _ORACLE_CACHE[key]]


def limit_stieltjes_oracle(n: int, u, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """gamma_n(u), single value; see stieltjes_oracle_table."""
    return stieltjes_oracle_table(n, u, ctx)[n]


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta and log-power tails
# ---------------------------------------------------------------------------

def _pochhammer_coeffs(m: int) -> list[int]:
    """Integer coefficients of s(s+1)...(s+m-1) in powers of s; m >= 1."""
    coeffs = [0, 1]  # polynomial s
    for i in range(1, m):
        # multiply by (s + i)
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p] += c * i
            nxt[p + 1] += c
        coeffs = nxt
    return coeffs


def _poly_eval_with_derivs(coeffs: list[int], s) -> tuple:
    """P(s), P'(s), P''(s) by Horner on an integer coefficient list."""
    p = mpf(0)
    d1 = mpf(0)
    d2 = mpf(0)
    for c in reversed(coeffs):
        d2 = d2 * s + 2 * d1
        d1 = d1 * s + p
        p = p * s + c
    return p, d1, d2


def riemann_zeta_em(s, r: int = 0, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """zeta^(r)(s) for r in {0,1,2} by Euler-Maclaurin, valid for s != 1.

    zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_j B_2j/(2j)! (s)_{2j-1} N^(-s-2j+1)

    and the r-derivatives differentiate every piece analytically in s, so
    no finite differences enter.  Works on the continuation (s <= 0) too;
    expect ~3 log10 N digits of cancellation there, which the guard covers.
    """
    if r not in (0, 1, 2):
        raise ValueError("riemann_zeta_em supports r in {0,1,2}")
    with ctx.working(10):
        s = mpf(s)
        if s == 1:
            raise ValueError("pole at s = 1")
        N = max(40, ctx.working_digits + 15)
        eps = mpf(10) ** (-(mp.dps - 3))
        for _attempt in range(3):
            L = mp.log(N)
            acc = mpf(0)
            for k in range(1, N):
                if r and k == 1:
                    continue  # log 1 = 0 kills the term
                kt = mpf(k) ** (-s)
                if r:
                    kt *= (-mp.log(k)) ** r
                acc += kt
            s1 = s - 1
            Npow = mpf(N) ** (-s1)  # N^(1-s)
            if r == 0:
                acc += Npow / s1
            elif r == 1:
                acc += -L * Npow / s1 - Npow / s1 ** 2
            else:
                acc += (L ** 2 * Npow / s1 + 2 * L * Npow / s1 ** 2
                        + 2 * Npow / s1 ** 3)
            Ns = mpf(N) ** (-s)
            if r == 0:
                acc += Ns / 2
            elif r == 1:
                acc += -L * Ns / 2
            else:
                acc += L ** 2 * Ns / 2
            ok = False
            Nj = Ns / N  # N^(-s-2j+1) at j=1
            prev = None
            for j in range(1, 80):
                coeffs = _pochhammer_coeffs(2 * j - 1)
                P, P1, P2 = _poly_eval_with_derivs(coeffs, s)
                bfac = _bern_mpf(2 * j) / mp.factorial(2 * j)
                if r == 0:
                    term = bfac * P * Nj
                elif r == 1:
                    term = bfac * (P1 - L * P) * Nj
                else:
                    term = bfac * (P2 - 2 * L * P1 + L ** 2 * P) * Nj
                acc += term
                t = abs(term)
                if t < eps * max(1, abs(acc)):
                    ok = True
                    break
                if prev is not None and t > prev:
                    acc -= term  # drop the growing term, floor reached
                    break
                prev = t
                Nj /= N * N
            if ok:
                return +acc
            N *= 2
        raise NonConvergenceError("riemann_zeta_em: floor above target at s=%s"
                                  % mp.nstr(s, 8))


def em_log_power_tail(s, r: int, N: int, u=0,
                      ctx: PrecisionContext = DEFAULT_CONTEXT):
    """sum_{k>N} log^r(k+u)/(k+u)^s by Euler-Maclaurin, Re(s) > 1.

    Tail = I - g(N)/2 - sum_j B_2j/(2j)! g^(2j-1)(N), with the integral
    I = int_N^inf log^r(t+u) (t+u)^-s dt in closed form via w = log(t+u):

        I = e^(-aA) * sum_{i<=r} r!/(r-i)! A^(r-i) / a^(i+1),
        a = s-1,  A = log(N+u).
    """
    with ctx.working(10):
        s = mpf(s)
        uu = mpf(u)
        if s <= 1:
            raise ValueError("tail needs Re(s) > 1")
        w0 = N + uu
        A = mp.log(w0)
        a = s - 1
        integral = mpf(0)
        for i in range(r + 1):
            integral += (mp.factorial(r) / mp.factorial(r - i)
                         * A ** (r - i) / a ** (i + 1))
        integral *= mp.power(w0, -a)
        # g and derivatives: g^(j) = (t+u)^(-s-j) sum_k c[j][k] log^k(t+u)
        Lp = [mpf(1)]
        for _ in range(r):
            Lp.append(Lp[-1] * A)
        gN = Lp[r] * mp.power(w0, -s)
        acc = integral - gN / 2
        eps = mpf(10) ** (-(mp.dps - 2))
        cur = [mpf(0)] * (r + 1)
        cur[r] = mpf(1)
        j = 0
        prev = None
        wpow = mp.power(w0, -s - 1)
        while j < 2 * 48:
            nxt = [mpf(0)] * (r + 1)
            for k in range(r + 1):
                v = -(s + j) * cur[k]
                if k + 1 <= r:
                    v += (k + 1) * cur[k + 1]
                nxt[k] = v
            cur = nxt
            j += 1
            if j % 2 == 1:
                jj = (j + 1) // 2  # correction index: uses g^(2jj-1)
                poly = mpf(0)
                for k in range(r + 1):
                    poly += cur[k] * Lp[k]
                term = _bern_mpf(2 * jj) / mp.factorial(2 * jj) * poly * wpow
                acc -= term
                t = abs(term)
                if t < eps * max(abs(acc), mpf(10) ** (-mp.dps)):
                    break
                if prev is not None and t > prev:
                    break
                prev = t
            wpow /= w0
        return +acc


# ---------------------------------------------------------------------------
# asymptotic digamma/trigamma (internal tails; never user-facing routes)
# ---------------------------------------------------------------------------

def psi_asymptotic(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """psi(x) by recurrence-shift plus Stirling series; x > 0.

    Internal reference only: the user-facing digamma routes are the integral
    representations in the functions module, and they are compared against
    this one in the tests.
    """
    with ctx.working(10):
        x = mpf(x)
        if not 0 < x < mp.inf:
            raise ValueError("psi_asymptotic requires finite x > 0")
        shift_to = mpf(0.4) * mp.dps + 8
        m = int(max(0, mp.ceil(shift_to - x)))
        acc = mpf(0)
        for i in range(m):
            acc -= 1 / (x + i)
        A = x + m
        acc += mp.log(A) - 1 / (2 * A)
        A2 = A * A
        apow = A2
        eps = mpf(10) ** (-(mp.dps - 2))
        prev = None
        for j in range(1, 120):
            term = _bern_mpf(2 * j) / (2 * j) / apow
            acc -= term
            t = abs(term)
            if t < eps:
                break
            if prev is not None and t > prev:
                break
            prev = t
            apow *= A2
        return +acc


def trigamma_asymptotic(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """psi'(x) by recurrence-shift plus Stirling series; x > 0."""
    with ctx.working(10):
        x = mpf(x)
        if not 0 < x < mp.inf:
            raise ValueError("trigamma_asymptotic requires finite x > 0")
        shift_to = mpf(0.4) * mp.dps + 8
        m = int(max(0, mp.ceil(shift_to - x)))
        acc = mpf(0)
        for i in range(m):
            acc += 1 / (x + i) ** 2
        A = x + m
        acc += 1 / A + 1 / (2 * A * A)
        A2 = A * A
        apow = A2 * A
        eps = mpf(10) ** (-(mp.dps - 2))
        prev = None
        for j in range(1, 120):
            term = _bern_mpf(2 * j) / apow
            acc += term
            t = abs(term)
            if t < eps:
                break
            if prev is not None and t > prev:
                break
            prev = t
            apow *= A2
        return +acc


# ---------------------------------------------------------------------------
# binomial transforms: the Hasse route and the alternating-zeta moments
# ---------------------------------------------------------------------------

def _forward_differences(values: list) -> list:
    """d_i = sum_j C(i,j) (-1)^j values[j] for every i < len(values).

    d_i cancels about 0.302 i digits of the largest |values[j]|, so callers
    evaluate values and sum at precision widened by that much.
    """
    diffs = []
    for i in range(len(values)):
        inner = mpf(0)
        for j in range(i + 1):
            t = math.comb(i, j) * values[j]
            if j % 2:
                inner -= t
            else:
                inner += t
        diffs.append(inner)
    return diffs


def _hasse_depth(ctx: PrecisionContext) -> int:
    """Outer depth I of the shifted Hasse sum, which is also its shift M.

    At x = u + M the i-th difference of a log power shrinks like the beta
    function B(x, i+1), so the last outer term is near 4^-M = 10^(-0.6 M).
    With M = 2.1 target + 8 that is ~10^(-1.26 target - 5): room for the
    growth of log^(n+1) up to order ~25 at 15 digits and beyond at more.
    """
    return int(math.ceil(2.1 * ctx.target_digits)) + 8


def _shifted_hasse_sum(g, head, u, ctx: PrecisionContext):
    """Hasse's binomial double sum, moved off its truncation floor.

    For a Hurwitz-type function F with F(u) = head(u) + F(u+1) and
    F(x) = sum_i (i+1)^-1 sum_j C(i,j) (-1)^j g(x+j), evaluates

        F(u) = sum_{k<M} head(u+k)
               + sum_{i<=I} (i+1)^-1 sum_j C(i,j) (-1)^j g(u+M+j)

    with I = M from _hasse_depth.  Unshifted, the outer terms of a log
    power decay only like 1/(i^2 log i), a floor near 1/(I log I); at u+M
    they fall faster than geometrically.  Returns (value, SumDiagnostics)
    at working precision widened by 0.302 I + 10 digits; the tail estimate
    is |last outer term| * I.
    """
    depth = _hasse_depth(ctx)
    with ctx.working(int(math.ceil(0.302 * depth)) + 10):
        uu = mpf(u)
        heads = [head(uu + k) for k in range(depth)]
        gs = [g(uu + depth + j) for j in range(depth + 1)]
        total = mpf(0)
        for h in heads:
            total += h
        last = mpf(0)
        for i, d in enumerate(_forward_differences(gs)):
            last = d / (i + 1)
            total += last
        # the largest binomial summand sits in the last row
        max_term = max([abs(h) for h in heads]
                       + [math.comb(depth, j) * abs(v) / (depth + 1)
                          for j, v in enumerate(gs)])
        diag = SumDiagnostics.from_run(
            terms=depth + (depth + 1) * (depth + 2) // 2,
            max_term=max_term, result=total,
            tail_estimate=abs(last) * depth)
        return +total, diag


def hasse_stieltjes(n: int, u, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """gamma_n(u) by Hasse's convergent binomial double sum, with diagnostics.

    gamma_n(u) = -1/(n+1) sum_i (i+1)^-1 sum_j C(i,j) (-1)^j log^{n+1}(u+j),

    run at u + M through _shifted_hasse_sum, with the recurrence
    gamma_n(u) = gamma_n(u+1) + log^n(u)/u supplying the first M terms.
    Returns (value, SumDiagnostics).  Orders beyond ~25 at 15 digits (~40 at
    30) outgrow the depth; the tail estimate then exceeds the tolerance and
    functions.stieltjes refuses.
    """
    if n < 0:
        raise ValueError("hasse_stieltjes needs n >= 0")
    with ctx.working():
        if not 0 < mpf(u) < mp.inf:
            raise ValueError("hasse_stieltjes requires finite u > 0")
    return _shifted_hasse_sum(lambda x: -mp.log(x) ** (n + 1) / (n + 1),
                              lambda x: mp.log(x) ** n / x, u, ctx)


def _altzeta_binomial_sum(values: list):
    """sum_i 2^-(i+1) sum_j C(i,j) (-1)^j values[j] at widened precision.

    The 2^-i damping makes this geometric; values must cover j <= depth.
    Returns (sum, diagnostics).
    """
    total = mpf(0)
    max_term = mpf(0)
    last = mpf(0)
    for i, inner in enumerate(_forward_differences(values)):
        last = inner / mpf(2) ** (i + 1)
        total += last
        a = abs(last)
        if a > max_term:
            max_term = a
    diag = SumDiagnostics.from_run(
        terms=len(values) * (len(values) + 1) // 2,
        max_term=max_term, result=total,
        tail_estimate=2 * abs(last))
    return total, diag


def _altzeta_depth(ctx: PrecisionContext) -> int:
    digits_needed = ctx.target_digits + ctx.guard_digits // 2
    return int(math.ceil(3.33 * digits_needed)) + 12


def alt_zeta_hasse(s, u=1, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """zeta_a(s,u) = sum_i (-1)^i (u+i)^-s by the binomial acceleration.

    Geometrically convergent for every real s (no pole at s = 1).
    """
    depth = _altzeta_depth(ctx)
    extra = int(math.ceil(0.302 * depth)) + 10
    with ctx.working(extra):
        s = mpf(s)
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("alt_zeta_hasse requires finite u > 0")
        vals = [mp.power(uu + j, -s) for j in range(depth + 1)]
        total, diag = _altzeta_binomial_sum(vals)
        if diag.tail_estimate is not None and \
                diag.tail_estimate > float(ctx.tolerance):
            raise PrecisionExhaustedError(
                "alt_zeta_hasse tail %.3g above tolerance" % diag.tail_estimate)
        return +total


def alt_zeta_log_moment(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """S_k = (-1)^k d^k/ds^k zeta_a(s)|_{s=1}, u = 1.

    S_k = sum_i 2^-(i+1) sum_j C(i,j) (-1)^j log^k(1+j)/(1+j), by the same
    geometric acceleration.  S_0 = log 2.
    """
    if k < 0:
        raise ValueError("alt_zeta_log_moment needs k >= 0")
    depth = _altzeta_depth(ctx)
    extra = int(math.ceil(0.302 * depth)) + 10
    with ctx.working(extra):
        vals = []
        for j in range(depth + 1):
            w = mpf(1 + j)
            vals.append(mp.log(w) ** k / w)
        total, _diag = _altzeta_binomial_sum(vals)
        return +total


def stieltjes_altzeta_table(n_max: int,
                            ctx: PrecisionContext = DEFAULT_CONTEXT) -> list:
    """gamma_0 .. gamma_nmax (u = 1) from the log-moments S_1..S_{nmax+1}.

    Solves the triangular relation

      S_{m+1} = log^{m+2} 2/(m+2)
                - sum_{k<=m} C(m+1,k) gamma_k log^{m+1-k} 2

    upward from m = 0; each step divides by (m+1) log 2.  Every moment is
    computed once, so callers that need several orders should ask for the
    whole range here rather than order by order.
    """
    if n_max < 0:
        raise ValueError("stieltjes_altzeta_table needs n_max >= 0")
    with ctx.working(10):
        l2 = mp.log(2)
        gammas: list = []
        for m in range(n_max + 1):
            S = alt_zeta_log_moment(m + 1, ctx)
            rhs = l2 ** (m + 2) / (m + 2) - S
            for k in range(m):
                rhs -= math.comb(m + 1, k) * gammas[k] * l2 ** (m + 1 - k)
            gammas.append(rhs / ((m + 1) * l2))
        return gammas


def stieltjes_from_altzeta(n: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """gamma_n (u = 1), single value; see stieltjes_altzeta_table."""
    return stieltjes_altzeta_table(n, ctx)[n]


# ---------------------------------------------------------------------------
# named closed sums
# ---------------------------------------------------------------------------

def kanemitsu_sum(ctx: PrecisionContext = DEFAULT_CONTEXT, N: int = 40):
    """sum_{n>=1} H_n (log(1+1/n) - 1/n), accelerated.

    Direct terms to N, then the tail is split with H_n = log n + gamma + h_n
    (h_n the Stirling remainder) and each piece summed in closed or
    Euler-Maclaurin form.  Uses the oracle gamma in the tail bookkeeping.
    """
    with ctx.working(10):
        acc = mpf(0)
        H = mpf(0)
        for n in range(1, N + 1):
            H += mpf(1) / n
            acc += H * (mp.log(mpf(n + 1) / n) - mpf(1) / n)
        g = limit_stieltjes_oracle(0, 1, ctx)
        HN = H
        # tail of sum g_n = H_N - log(N+1) - gamma,  g_n = log(1+1/n) - 1/n
        acc += g * (HN - mp.log(N + 1) - g)
        # sum_{n>N} log n * g_n via g_n = sum_{m>=2} (-1)^(m+1)/(m n^m)
        M = max(24, int(mp.ceil((ctx.target_digits + 12)
                                / mp.log10(N))) + 2)
        for m in range(2, M + 1):
            sgn = 1 if m % 2 else -1
            acc += sgn * em_log_power_tail(m, 1, N, 0, ctx) / m
        # sum_{n>N} h_n g_n through the product of the two 1/n expansions
        h = [Fraction(0)] * (M + 1)
        h[1] = Fraction(1, 2)
        for kk in range(1, (M // 2) + 1):
            if 2 * kk <= M:
                h[2 * kk] -= bernoulli_number(2 * kk) / (2 * kk)
        gcoef = [Fraction(0)] * (M + 1)
        for m in range(2, M + 1):
            gcoef[m] = Fraction((-1) ** (m + 1), m)
        for c in range(3, M + 1):
            coef = Fraction(0)
            for a_ in range(1, c - 1):
                coef += h[a_] * gcoef[c - a_]
            if coef:
                acc += (mpf(coef.numerator) / coef.denominator
                        * em_log_power_tail(c, 0, N, 0, ctx))
        return +acc

