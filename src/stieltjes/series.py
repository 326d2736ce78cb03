"""Series-side machinery: exact Bernoulli arithmetic, the
Euler-Maclaurin reference evaluators, and the binomial-transform routes.

The central object is the limit oracle for generalized Stieltjes constants

    gamma_n(u) = lim_M [ sum_{k=0..M} log^n(k+u)/(k+u) - log^{n+1}(M+u)/(n+1) ]

evaluated by aborting the limit at N and correcting with Euler-Maclaurin
terms.  Everything labelled "oracle" below derives from it and from the
matching Euler-Maclaurin zeta evaluator; these are the reference values the
independent integral routes are judged against, so they carry their own
N-versus-2N self-check.

Every Euler-Maclaurin closure of a sum of g(w) = log^r(w) w^-s (the oracle
correction, riemann_zeta_em, em_log_power_tail) runs on one engine: one
derivative recursion in _em_terms, closed by _em_tail.  How many terms to
add directly before closing, and how many Euler-Maclaurin terms to take,
is decided in one place, _em_plan, from a rigorous bound on the remainder
(_em_bound) and the accuracy the caller aims at; a bound that cannot be
met raises PrecisionExhaustedError.  _zeta_row, the whole row
zeta(k) - 1 that catalog entry I-9.5b reads, shares one such plan's
direct terms between every k and closes each k with _em_bound's bound in
closed form.  (The Weierstrass product of Barnes G, whose terms are not
log powers, has its own closure in the functions module.)

Both binomial transforms, Hasse's series and the alternating-zeta
moments, are sum_{i<=D} c_i Delta^i v(0): _binomial_sums swaps the two
finite sums into one sum over v(j) with exact rational weights, tallies
the depth, digits lost and tail estimate, and refuses a tail above the
tolerance.  Both widen the working precision by ~0.302 digits per term of
depth, which only Hasse's weights (growing like 2^D/D) need.

_sum_terms truncates the package's term-by-term Stirling and Bernoulli
series and tallies why it stopped: "small" (a term fell below the
threshold), "floor" (a term grew: an asymptotic floor) or "cap" (the
terms ran out).  The per-node power-series kernels instead take their
term count up front from a bound and sum by Horner's rule on a kept
coefficient row, _horner.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import fone, fzero, from_int, mpf_add, mpf_div, mpf_mul

from .precision import (
    DEFAULT_CONTEXT,
    NonConvergenceError,
    PrecisionContext,
    PrecisionExhaustedError,
    positive,
    tally,
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


def bernoulli_poly(n: int, u) -> Fraction:
    """B_n(u) = sum_k C(n,k) B_{n-k} u^k, exact for a Fraction (or int) u."""
    if n < 0:
        raise ValueError("bernoulli_poly needs n >= 0")
    uu = Fraction(u)
    return sum(math.comb(n, k) * bernoulli_number(n - k) * uu ** k
               for k in range(n + 1))


_BERN_MPF_CACHE: dict = {}


def _bern_mpf(n: int) -> mpf:
    """B_n at the working precision, cached per (n, mp.prec)."""
    key = (n, mp.prec)
    b = _BERN_MPF_CACHE.get(key)
    if b is None:
        fr = bernoulli_number(n)
        b = _BERN_MPF_CACHE[key] = mpf(fr.numerator) / fr.denominator
    return b


_BERN_COEF_CACHE: dict = {}


def _bern_coef(k: int) -> mpf:
    """B_2k/(2k)! at the working precision, cached per (k, mp.prec)."""
    key = (k, mp.prec)
    c = _BERN_COEF_CACHE.get(key)
    if c is None:
        b = bernoulli_number(2 * k)     # not through _bern_mpf: kept once
        c = mpf(b.numerator) / b.denominator / mp.factorial(2 * k)
        _BERN_COEF_CACHE[key] = c
    return c


# ---------------------------------------------------------------------------
# truncation of term-by-term series
# ---------------------------------------------------------------------------

def _sum_terms(terms, acc, eps):
    """Add the terms of an iterable to acc, in order, until one stops it,
    and return the sum.  The term that stops the sum is included.  Tallies
    stop_<reason>, reason being
      "small"  |term| < eps;
      "floor"  |term| grew past the one before: an asymptotic series
               reached its smallest term;
      "cap"    the iterable ran out; its length is the cap.
    Callers that subtract yield negated terms, which is exact.
    """
    prev = None
    for term in terms:
        acc += term
        t = abs(term)
        if t < eps or prev is not None and t > prev:
            tally(**{"stop_small" if t < eps else "stop_floor": 1})
            return acc
        prev = t
    tally(stop_cap=1)
    return acc


def _up(u, head, k=None):
    """(u + k, [head(u + j), j < k]) for F(u) = head(u) + F(u + 1), so
    that F(u) = sum(heads) + F(u + k).  k defaults to the fewest steps to
    u + k >= 1: an integrand with singularities at x = +-iu needs finer
    quadrature levels as u -> 0.  Tallies k as recurrence_steps if k > 0.
    """
    if k is None:
        k = max(0, math.ceil(1 - u))
    if k:
        tally(recurrence_steps=k)
    return u + k, [head(u + j) for j in range(k)]


_ROWS: dict = {}       # (kernel, mp.prec) -> [coefficient _mpf_, ...]


def _row(kernel: str, coef, n: int) -> list:
    """The first n (or more) coefficients coef(k) of a kernel's power
    series at mp.prec, as _mpf_ tuples: kept per (kernel, mp.prec), and
    grown on first use."""
    row = _ROWS.setdefault((kernel, mp.prec), [])
    while len(row) < n:
        row.append(coef(len(row))._mpf_)
    return row


def _stop_index(x, k: int, c: float, p: int, r: float, s: int = 1,
                d: int = 0) -> int:
    """The least j >= k at which c |x|^-p j^d (r |x|^s)^j, a bound on a
    power series' terms from j on that falls with j, is below
    10^-(dps+4); k for an x too small for a float."""
    ax = abs(float(x))
    if not ax:
        return k
    lx = math.log(ax)
    a = s * lx + math.log(r)
    L = p * lx - math.log(c) - (mp.dps + 4) * math.log(10)
    j = max(k, math.floor(L / a) + 1)
    while d * math.log(j) + j * a >= L:
        j += 1
    while j > k and d * math.log(j - 1) + (j - 1) * a < L:
        j -= 1
    return j


def _horner(row: list, lo: int, n: int, x):
    """sum_{j<n} row[lo+j] x^j by Horner's rule, each step rounded as mpf
    arithmetic rounds it; tallies the n terms as kernel_terms."""
    tally(kernel_terms=n)
    prec, rnd = mp._prec_rounding
    xv = x._mpf_
    acc = row[lo + n - 1]
    for k in range(lo + n - 2, lo - 1, -1):
        acc = mpf_add(mpf_mul(acc, xv, prec, rnd), row[k], prec, rnd)
    return mp.make_mpf(acc)


# ---------------------------------------------------------------------------
# Euler-Maclaurin closure of log-power sums: zeta and tails
# ---------------------------------------------------------------------------

def _em_step(c: list, sm) -> list:
    """c[m] -> c[m+1] of the derivative recursion of _em_terms, sm = s+m."""
    r = len(c) - 1
    return [(k + 1) * c[k + 1] - sm * c[k] for k in range(r)] + [-sm * c[r]]


def _em_terms(s, r: int, w0, M: int):
    """Yield -B_2j/(2j)! g^(2j-1)(w0), j = 1..M, for g(w) = log^r(w) w^-s.

    g^(m)(w) = w^(-s-m) sum_k c[m][k] log^k(w), with c[0][r] = 1 and

        c[m+1][k] = (k+1) c[m][k+1] - (s+m) c[m][k],

    so the rows stay exact ints when s is an int.  Each term after the
    first advances the recursion two orders.
    """
    A = mp.log(w0)
    Lp = [mpf(1)]
    for _ in range(r):
        Lp.append(Lp[-1] * A)
    c = [0] * r + [1]
    m = 0
    winv = 1 / mpf(w0)
    winv2 = winv * winv
    wpow = mp.power(w0, 1 - s)
    for j in range(1, M + 1):
        wpow *= winv2  # w0^(-s-2j+1)
        while m < 2 * j - 1:
            c = _em_step(c, s + m)
            m += 1
        poly = sum(ck * lk for ck, lk in zip(c, Lp) if ck)
        yield -(_bern_coef(j) * poly * wpow)


@functools.lru_cache(maxsize=64)
def _em_bound(s, r: int, m_max: int):
    """log_bound(M, w0): the log of a bound on the Euler-Maclaurin remainder
    of sum_{k>=0} g(w0+k), g(x) = log^r(x) x^-s, after M <= m_max terms of
    _em_terms, for w0 >= 1.

    After M terms the remainder is at most (Johansson, arXiv 1309.2877)

        |B_2M|/(2M)! int_w0^inf |g^(2M)(x)| dx
          <= |B_2M|/(2M)! sum_k d_k int_w0^inf x^-(a+1) log^k(x) dx,

    a = s+2M-1.  d is the _em_terms recursion run with -|s+m| for s+m,
    which majorizes |c[2M]| (and equals it when s > 0).  The integrals
    have the closed form of _em_tail: w0^-a J_k with J_0 = 1/a and
    J_k = (log^k(w0) + k J_(k-1))/a.  All of it is evaluated in
    floating-point logarithms, once per (s, r, m_max) while it is among
    the last 64 used: the oracle plans each order three times.  The bound
    only falls as w0 grows.
    """
    sf = float(s)
    # kept per M, flat: log(|B_2M|/(2M)! * row scale), row scaled to max 1
    rows = array.array("d")
    d = [0.0] * r + [1.0]
    log_scale = 0.0
    for m in range(2 * m_max):
        d = _em_step(d, -abs(sf + m))
        top = max(d)
        if top > 0:
            d = [x / top for x in d]
            log_scale += math.log(top)
        else:
            log_scale = -math.inf
        if m % 2:
            b = bernoulli_number(m + 1)
            rows.append(log_scale + math.log(abs(b.numerator))
                        - math.log(b.denominator) - math.lgamma(m + 2))
            rows.extend(d)

    def log_bound(M: int, w0: float) -> float:
        i = (M - 1) * (r + 2)
        log_c, d = rows[i], rows[i + 1:i + r + 2]
        a = sf + 2 * M - 1
        if log_c == -math.inf:
            return log_c
        if a <= 0:
            return math.inf
        A = math.log(w0)
        J = 1 / a
        acc = d[0] * J
        Ak = 1.0
        for k in range(1, r + 1):
            Ak *= A
            J = (Ak + k * J) / a
            acc += d[k] * J
        return log_c + math.log(acc) - a * A

    return log_bound


def _em_plan(s, r: int, w, eps):
    """(n, M) for sum_{k>=1} g(w+k), g(x) = log^r(x) x^-s: add the first n
    terms directly, then close at w0 = w+n with M terms of _em_terms, so
    that the _em_bound of the remainder is at most eps.

    n starts where w0 >= max(1, (1-s)/2 pi), past which the terms of
    _em_terms, about |(s)_(2j-1)| (2 pi w0)^-2j w0^(1-s), only fall; it
    takes Newton steps on log w0 until the bound with M = m_max terms
    clears eps; M is then the fewest terms that do.  m_max is dps/2, or
    dps/4 + (1-s)/2 where that is more: the bound needs a = s + 2M - 1 > 0.
    More than 16 dps direct terms raise PrecisionExhaustedError.
    """
    sf = float(s)
    m_max = max(mp.dps // 2, mp.dps // 4 + math.ceil((1 - sf) / 2))
    log_bound = _em_bound(s, r, m_max)
    log_eps = float(mp.log(eps))
    wf = float(w)
    n = max(0, math.ceil(max(1, (1 - sf) / (2 * math.pi)) - wf))
    while True:
        excess = log_bound(m_max, wf + n) - log_eps
        if excess <= 0:
            break
        # the bound falls like w0^-a, a = s + 2 m_max - 1; e^60 is far
        # past the budget, and capping the step keeps exp finite
        step = min(excess / max(sf + 2 * m_max - 1, 1), 60.0)
        n = max(n + 1, math.ceil((wf + n) * math.exp(step) - wf))
        if n > 16 * mp.dps:
            raise PrecisionExhaustedError(
                "Euler-Maclaurin bound misses %s at s=%s, r=%d"
                % (mp.nstr(eps, 3), mp.nstr(s, 8), r))
    return n, next(M for M in range(1, m_max + 1)
                   if log_bound(M, wf + n) <= log_eps)


def _em_tail(s, r: int, w, acc, eps, plan=None):
    """acc + sum_{k>=1} g(w+k) for g(x) = log^r(x) x^-s, within eps.

    The first n terms directly, then Euler-Maclaurin at w0 = w+n with M
    terms, (n, M) the plan passed or _em_plan's: the integral of g over
    (w0, inf) in closed form,

        I = w0^-a sum_{i<=r} r!/(r-i)! A^(r-i) / a^(i+1),
        a = s-1,  A = log w0,

    which for s < 1 is its analytic continuation, then -g(w0)/2 and the
    _em_terms.
    """
    n, M = plan or _em_plan(s, r, w, eps)
    tally(em_direct=n, em_terms=M)
    for k in range(1, n + 1):
        if r:
            acc += mp.log(w + k) ** r * mp.power(w + k, -s)
        else:
            acc += mp.power(w + k, -s)
    w0 = w + n
    A = mp.log(w0)
    a = s - 1
    integral = sum(mp.factorial(r) / mp.factorial(r - i)
                   * A ** (r - i) / a ** (i + 1)
                   for i in range(r + 1)) * mp.power(w0, -a)
    g0 = A ** r * mp.power(w0, -s)
    return sum(_em_terms(s, r, w0, M), acc + integral - g0 / 2)


def riemann_zeta_em(s, r: int = 0, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """zeta^(r)(s) for r in {0,1,2} by Euler-Maclaurin, valid for s != 1.

    zeta^(r)(s) = (-1)^r [ 1^-s [r = 0] + sum_{k>=2} log^r(k) k^-s ],

    the sum from _em_tail at w = 1 to 10^-(dps-3), so _em_plan picks how
    many terms to add directly.  Every piece is differentiated
    analytically in s, so no finite differences enter, and the integral
    is continued to s <= 0; expect ~(1-s) log10 N digits of cancellation
    there, which the guard covers.
    """
    if r not in (0, 1, 2):
        raise ValueError("riemann_zeta_em supports r in {0,1,2}")
    with ctx.working(10):
        s = mpf(s)
        if s == 1:
            raise ValueError("pole at s = 1")
        eps = mpf(10) ** (-(mp.dps - 3))
        return (-1) ** r * _em_tail(s, r, mpf(1), mpf(r == 0), eps)


def _zeta_row(n: int) -> list:
    """The row zeta(k) - 1 = sum_{m>=2} m^-k, k < n (0 at k = 0 and 1),
    as _mpf_ tuples at mp.prec, each within 10^-(dps+4) before its one
    rounding: kept in _ROWS under "zeta-1", and built whole again for a
    longer n.

    One Euler-Maclaurin plan serves the row, at dps + 10 with
    eps = 10^-(dps+4): N, the direct terms _em_plan(2, 0, 1, eps/2) asks
    for at s = 2.  The direct block steps each m^-k, m = 2 .. N+1, by one
    product per k, and drops it from the first k where it is below
    eps/(2N), so the dropped terms of any k add up to less than eps/2.
    Each k is closed at w0 = N+1 from the shared powers w0^-i: the
    integral w0^(1-k)/(k-1), -w0^-k/2 and the terms
    B_2j/(2j)! (k)_(2j-1) w0^(-k-2j+1), j = 1 .. M_k, with M_k the fewest
    whose remainder bound is at most eps/2.  For r = 0 _em_bound's bound
    is |B_2M|/(2M)! Gamma(k+2M-1)/Gamma(k) w0^-(k+2M-1), so the one at
    s = k is the plan's at s = 2 times

        Gamma(k+2M-1) / (Gamma(k) (2M)!) w0^(2-k).

    A k whose whole tail, below w0^(1-k)/(k-1), is that small takes no
    closure.  Tallies em_direct N and em_terms, the M_k added up.
    """
    key = ("zeta-1", mp.prec)
    row = _ROWS.get(key)
    if row is not None and len(row) >= n:
        return row
    dps = mp.dps
    with mp.workdps(dps + 10):
        log_eps = -(dps + 4) * math.log(10) - math.log(2)     # of eps/2
        N = _em_plan(2, 0, 1, mpf(10) ** -(dps + 4) / 2)[0]
        prec, rnd = mp._prec_rounding
        acc = [fzero] * n
        drop = (log_eps - math.log(N)) / math.log(2)
        for m in range(2, N + 2):
            p = mpf_div(fone, from_int(m), prec, rnd)
            pk = p
            for k in range(2, n):
                pk = mpf_mul(pk, p, prec, rnd)
                if pk[2] + pk[3] <= drop:     # |pk| < 2^(exp + bc)
                    break
                acc[k] = mpf_add(acc[k], pk, prec, rnd)
        w0 = N + 1
        lw = math.log(w0)
        m_max = mp.dps // 2
        log_bound = _em_bound(2, 0, m_max)
        winv = 1 / mpf(w0)
        W = [mpf(1)]                            # W[i] = w0^-i
        vals = [mpf(0)] * 2
        terms = 0
        for k in range(2, n):
            v = mp.make_mpf(acc[k])
            if (1 - k) * lw - math.log(k - 1) > log_eps:
                M = next((M for M in range(1, m_max + 1)
                          if log_bound(M, w0) + math.lgamma(k + 2 * M - 1)
                          - math.lgamma(k) - math.lgamma(2 * M + 1)
                          - (k - 2) * lw <= log_eps), None)
                if M is None:
                    raise PrecisionExhaustedError(
                        "Euler-Maclaurin bound misses zeta(%d) - 1" % k)
                while len(W) < k + 2 * M:
                    W.append(W[-1] * winv)
                v += W[k - 1] / (k - 1) - W[k] / 2
                rising = k                      # (k)_(2j-1)
                for j in range(1, M + 1):
                    v += _bern_coef(j) * rising * W[k + 2 * j - 1]
                    rising *= (k + 2 * j - 1) * (k + 2 * j)
                terms += M
            vals.append(v)
        tally(em_direct=N, em_terms=terms)
    row = _ROWS[key] = [(+v)._mpf_ for v in vals]
    return row


def em_log_power_tail(s, r: int, N: int, u=0,
                      ctx: PrecisionContext = DEFAULT_CONTEXT):
    """sum_{k>N} log^r(k+u)/(k+u)^s by Euler-Maclaurin, Re(s) > 1.

    The public face of _em_tail at w = N+u, to 10^-(dps-2) of the first
    term, which bounds the tail from below; _em_plan adds direct terms
    past N until its remainder bound meets that, so any N is safe.  A zero
    first term (N + u = 0 with r >= 1) leaves no target and raises
    PrecisionExhaustedError.
    """
    with ctx.working(10):
        s = mpf(s)
        if s <= 1:
            raise ValueError("tail needs Re(s) > 1")
        w = N + mpf(u)
        first = mp.log(w + 1) ** r * mp.power(w + 1, -s)
        return +_em_tail(s, r, w, 0, mpf(10) ** (-(mp.dps - 2)) * first)


# ---------------------------------------------------------------------------
# Euler-Maclaurin oracle for gamma_n(u)
# ---------------------------------------------------------------------------

def _oracle_correction(n: int, u, N: int) -> mpf:
    """f(N)/2 - sum_j B_2j/(2j)! f^(2j-1)(N) for f = log^n(.+u)/(.+u).

    Takes the M terms _em_plan needs for 10^-(dps+2).  The caller's N
    already clears that bound, which only falls as N grows, so the plan
    adds no direct terms here.
    """
    w = mpf(N) + u
    M = _em_plan(1, n, w, mpf(10) ** (-(mp.dps + 2)))[1]
    tally(em_terms=M)
    return sum(_em_terms(1, n, w, M), mp.log(w) ** n / w / 2)


_ORACLE_CACHE: dict = {}


def stieltjes_oracle_table(n_max: int, u,
                           ctx: PrecisionContext = DEFAULT_CONTEXT) -> list:
    """gamma_0(u) .. gamma_nmax(u) by the corrected-limit formula.

    N is the largest count of direct terms _em_plan asks for, over the
    orders, to bring the remainder under 10^-(dps+2).  One pass over
    k < 2N accumulates partial sums of log^n(k+u)/(k+u) for every n at
    once, snapshotting at k = N so the N and 2N evaluations share the
    work.  Disagreement beyond 10^-(target+5) raises NonConvergenceError.

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
        tally(em_cache_hits=1)
        with ctx.working():
            return [+v for v in cached[:n_max + 1]]
    with ctx.working(10 + n_max):
        uu = positive(u, "oracle")
        eps = mpf(10) ** (-(mp.dps + 2))
        N = 1 + max(_em_plan(1, n, 1 + uu, eps)[0] for n in range(n_max + 1))
        tally(em_oracle_n=N)
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
            out_N.append(main_N + _oracle_correction(n, uu, N))
            out_2N.append(main_2N + _oracle_correction(n, uu, 2 * N))
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
# asymptotic digamma (an internal tail; never a user-facing route)
# ---------------------------------------------------------------------------

def psi_asymptotic(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """psi(x) by recurrence-shift plus Stirling series; x > 0.

    Internal reference only: the user-facing digamma routes are the integral
    representations in the functions module, and they are compared against
    this one in the tests.
    """
    with ctx.working(10):
        x = positive(x, "psi_asymptotic", "x")
        shift_to = mpf(0.4) * mp.dps + 8
        m = int(max(0, mp.ceil(shift_to - x)))
        acc = mpf(0)
        for i in range(m):
            acc -= 1 / (x + i)
        A = x + m
        acc += mp.log(A) - 1 / (2 * A)
        A2 = A * A
        eps = mpf(10) ** (-(mp.dps - 2))

        # past the shift the smallest term lies near j = pi A > dps, and
        # the terms fall below eps by j = 0.7 dps (checked to 400 dps)
        def terms():
            apow = A2
            for j in range(1, mp.dps):
                yield -(_bern_mpf(2 * j) / (2 * j) / apow)
                apow *= A2

        tally(stirling_shift=m)
        return +_sum_terms(terms(), acc, eps)


# ---------------------------------------------------------------------------
# binomial transforms: the Hasse route and the alternating-zeta moments
# ---------------------------------------------------------------------------

def _binomial_sums(weights: list, rows: list, tail_scale, tol,
                   head=0, head_max=0, tails=None) -> list:
    """head + sum_{i<=D} c_i sum_{j<=i} C(i,j) (-1)^j v(j) for each column
    v of rows (rows[j][k] = v_k(j), j = 0..D), the finite sums swapped:

        sum_j (-1)^j W_j v(j),   W_j = weights[j] = sum_{i>=j} C(i,j) c_i.

    The tail estimate is tail_scale |sum_j (-1)^j C(D,j) v(j)|, a multiple
    of the last outer term.  Tallies each column's depth, the digits its
    largest summand (W_j |v(j)| or head_max) lost to cancellation and its
    tail, and appends the tail to the list tails if one is given; raises
    PrecisionExhaustedError unless tol bounds the tail.
    """
    D = len(weights) - 1
    totals = [mpf(head)] * len(rows[0])
    outers = [mpf(0)] * len(totals)
    bigs = [mpf(head_max)] * len(totals)
    for j, (w, row) in enumerate(zip(weights, rows)):
        c = math.comb(D, j)
        if j % 2:
            w, c = -w, -c
        for k, v in enumerate(row):
            t = w * v
            totals[k] += t
            outers[k] += c * v
            bigs[k] = max(bigs[k], abs(t))
    for total, outer, big in zip(totals, outers, bigs):
        tail = abs(outer) * tail_scale
        lost = max(0, math.ceil(float(mp.log10(big / abs(total))))) \
            if total and big else 0
        tally(binomial_depth=D, binomial_digits_lost=lost,
              binomial_tail=float(tail))
        if tails is not None:
            tails.append(tail)
        if not tail <= tol:
            raise PrecisionExhaustedError(
                "binomial sum truncation ~%s exceeds tolerance %s"
                % (mp.nstr(tail, 3), mp.nstr(tol, 3)))
    return totals


def _hasse_depth(ctx: PrecisionContext) -> int:
    """Outer depth I of the shifted Hasse sum, which is also its shift M.

    At x = u + M the i-th difference of a log power shrinks like the beta
    function B(x, i+1), so the last outer term is near 4^-M = 10^(-0.6 M).
    With M = 2.1 target + 8 that is ~10^(-1.26 target - 5): room for the
    growth of log^(n+1) up to order ~25 at 15 digits and beyond at more.
    """
    return int(math.ceil(2.1 * ctx.target_digits)) + 8


def _hasse_weights(D: int) -> list:
    """W_j = sum_{i>=j} C(i,j)/(i+1), j = 0..D, each rounded once: exact
    rationals from W_D = 1/(D+1) and W_(j-1) = C(D+1,j)/j - W_j."""
    W = [Fraction(1, D + 1)]
    for j in range(D, 0, -1):
        W.append(Fraction(math.comb(D + 1, j), j) - W[-1])
    return [+mp.fraction(w.numerator, w.denominator) for w in reversed(W)]


def _shifted_hasse_sum(g, head, u, ctx: PrecisionContext):
    """Hasse's binomial double sum, moved off its truncation floor.

    For a Hurwitz-type function F with F(u) = head(u) + F(u+1) and
    F(x) = sum_i (i+1)^-1 sum_j C(i,j) (-1)^j g(x+j), evaluates

        F(u) = sum_{k<M} head(u+k)
               + sum_{i<=I} (i+1)^-1 sum_j C(i,j) (-1)^j g(u+M+j)

    with I = M from _hasse_depth (the heads from _up), by _binomial_sums
    with the _hasse_weights.  Unshifted, the outer terms of a log power
    decay only like 1/(i^2 log i), a floor near 1/(I log I); at u+M they
    fall faster than geometrically.  The weights grow like 2^I/I, so the
    sum runs at working precision widened by 0.302 I + 10 digits.  The
    tail estimate is |last outer term| * I, held to 10^-target_digits,
    the digits the caller trusts.
    """
    depth = _hasse_depth(ctx)
    with ctx.working(int(math.ceil(0.302 * depth)) + 10):
        v, heads = _up(positive(u, "Hasse's sum"), head, depth)
        rows = [[g(v + j)] for j in range(depth + 1)]
        return +_binomial_sums(_hasse_weights(depth), rows,
                               mpf(depth) / (depth + 1),
                               mpf(10) ** -ctx.target_digits,
                               sum(heads), max(abs(h) for h in heads))[0]


def hasse_stieltjes(n: int, u, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """gamma_n(u) by Hasse's convergent binomial double sum.

    gamma_n(u) = -1/(n+1) sum_i (i+1)^-1 sum_j C(i,j) (-1)^j log^{n+1}(u+j),

    run at u + M through _shifted_hasse_sum, with the recurrence
    gamma_n(u) = gamma_n(u+1) + log^n(u)/u supplying the first M terms.
    Orders past about 19, 23, 31 and 43 at u = 1 and 6, 15, 30 and 60 digits
    outgrow the depth; the tail estimate then exceeds 10^-target_digits
    and PrecisionExhaustedError is raised.
    """
    if n < 0:
        raise ValueError("hasse_stieltjes needs n >= 0")
    return _shifted_hasse_sum(lambda x: -mp.log(x) ** (n + 1) / (n + 1),
                              lambda x: mp.log(x) ** n / x, u, ctx)


def _altzeta_depth(ctx: PrecisionContext) -> int:
    return int(math.ceil(3.33 * ctx.aim_digits)) + 12


def _altzeta_weights(D: int) -> list:
    """W_j = sum_{i>=j} C(i,j) 2^-(i+1) = 2^-(D+1) sum_{m>j} C(D+1,m),
    j = 0..D, each rounded once: Borwein's e_j weights."""
    tails = itertools.accumulate(math.comb(D + 1, m)
                                 for m in range(D + 1, 0, -1))
    return [mp.ldexp(t, -(D + 1)) for t in reversed(list(tails))]


def alt_zeta_hasse(s, u, k_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT,
                   tails=None) -> list:
    """The moments S_0 .. S_kmax of the alternating zeta function,

        S_k = sum_i (-1)^i log^k(u+i) (u+i)^-s = (-1)^k d^k/ds^k zeta_a(s,u),

    each by the binomial acceleration sum_i 2^-(i+1) Delta^i v_k(0),
    v_k(j) = log^k(u+j) (u+j)^-s, geometrically convergent for every real
    s (no pole at s = 1; S_0(1,1) = log 2).  One pass over j takes
    log(u+j) once and the powers by a running product into _binomial_sums
    with the _altzeta_weights; the tail estimate is 2^-depth times the
    last outer term, held to 10^-target_digits and appended to tails if
    a list is given.
    """
    if k_max < 0:
        raise ValueError("alt_zeta_hasse needs k_max >= 0")
    depth = _altzeta_depth(ctx)
    with ctx.working(int(math.ceil(0.302 * depth)) + 10):
        s = mpf(s)
        uu = positive(u, "alt_zeta_hasse")
        rows = [list(itertools.accumulate(
            [mp.power(uu + j, -s)] + [mp.log(uu + j)] * k_max, mpf.__mul__))
            for j in range(depth + 1)]
        return _binomial_sums(_altzeta_weights(depth), rows,
                              mp.ldexp(1, -depth),
                              mpf(10) ** -ctx.target_digits, tails=tails)


def stieltjes_altzeta_table(n_max: int,
                            ctx: PrecisionContext = DEFAULT_CONTEXT) -> list:
    """gamma_0 .. gamma_nmax (u = 1) from the log-moments S_1..S_{nmax+1}.

    Solves the triangular relation

      S_{m+1} = log^{m+2} 2/(m+2)
                - sum_{k<=m} C(m+1,k) gamma_k log^{m+1-k} 2

    upward from m = 0; each step divides by (m+1) log 2.  The moments
    come from one alt_zeta_hasse pass, so callers that need several orders
    should ask for the whole range here rather than order by order.

    The solve's exact inverse, from T(x) = G(x) (e^(x log 2) - 1) for the
    exponential generating functions of T_n = log^(n+1) 2/(n+1) - S_n and
    gamma_k, is

      gamma_m = sum_{j<=m} C(m+1,j) B_j log^(j-1) 2 T_(m+1-j)/(m+1),

    so the moments' tail estimates t_n bound gamma_m's error by the same
    sum with |B_j| and t_(m+1-j); on orders 0..60 it lies 2 to 100 times
    above the measured error.  Raises PrecisionExhaustedError when that
    bound exceeds 10^-target_digits max(1, |gamma_m|).
    """
    if n_max < 0:
        raise ValueError("stieltjes_altzeta_table needs n_max >= 0")
    tails: list = []
    S = alt_zeta_hasse(1, 1, n_max + 1, ctx, tails)
    with ctx.working(10):
        l2 = mp.log(2)
        eps = mpf(10) ** -ctx.target_digits
        gammas: list = []
        bern: list = []         # |B_j| log^j 2
        for m in range(n_max + 1):
            rhs = l2 ** (m + 2) / (m + 2) - S[m + 1]
            for k in range(m):
                rhs -= math.comb(m + 1, k) * gammas[k] * l2 ** (m + 1 - k)
            gammas.append(rhs / ((m + 1) * l2))
            bern.append(abs(_bern_mpf(m)) * l2 ** m)
            bound = sum(math.comb(m + 1, j) * bern[j] * tails[m + 1 - j]
                        for j in range(m + 1)) / ((m + 1) * l2)
            if bound > eps * max(1, abs(gammas[m])):
                raise PrecisionExhaustedError(
                    "gamma_%d from the alternating moments: error bound %s "
                    "exceeds 10^-%d" % (m, mp.nstr(bound, 3),
                                        ctx.target_digits))
        return gammas


def stieltjes_from_altzeta(n: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """gamma_n (u = 1), single value; see stieltjes_altzeta_table."""
    return stieltjes_altzeta_table(n, ctx)[n]
