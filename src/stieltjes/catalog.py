"""Identity catalog: every entry states two independent evaluations of the
same quantity and the runner checks they agree.

Independence is what each side's record shows: the runner records each
side on its own (EntryOutcome.lhs_record and rhs_record), and the engines
a side tallied into its record (precision.engines) are the routes it
took.  The acceptance gate checks them, and `verify --format json` prints
them as lhs_engines and rhs_engines.  Entries default to the context
tolerance; anything looser must say why in `tolerance_note`.

Entry ids are stable opaque tokens (suffix letters distinguish parameter
choices under one anchor).  `paper_anchor` groups the suffixed variants.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mp, mpf

from .precision import (DEFAULT_CONTEXT, PrecisionContext, expm1, log1p,
                        recording)
from . import series
from . import functions as F
from .quadrature import (
    integrate_bose,
    integrate_laplace,
    integrate_unit_square,
    tanh_sinh_01,
)

ALLOWED_TAGS = frozenset(
    {"quadrature", "series", "double_integral", "limit"})


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    description: str
    paper_anchor: str
    lhs: Callable[[PrecisionContext], object]
    rhs: Callable[[PrecisionContext], object]
    tags: frozenset
    tolerance: Optional[str] = None     # decimal string; None = ctx default
    tolerance_note: str = ""

    def __post_init__(self):
        if not self.tags <= ALLOWED_TAGS:
            raise ValueError("%s: unknown tags %s"
                             % (self.id, self.tags - ALLOWED_TAGS))
        if self.tolerance is not None and not self.tolerance_note:
            raise ValueError("%s: non-default tolerance needs a note"
                             % self.id)


@dataclass
class EntryOutcome:
    entry_id: str
    paper_anchor: str
    description: str
    lhs_value: Optional[object]
    rhs_value: Optional[object]
    abs_error: Optional[object]
    tolerance: object
    passed: bool
    elapsed_ms: float
    failure: Optional[str] = None
    lhs_record: dict = field(default_factory=dict)
    rhs_record: dict = field(default_factory=dict)


@dataclass
class IdentityReport:
    outcomes: list

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed


_REGISTRY: list = []


def register(entry: IdentityEntry) -> None:
    if any(e.id == entry.id for e in _REGISTRY):
        raise ValueError("duplicate entry id %r" % entry.id)
    _REGISTRY.append(entry)


def all_entries() -> list:
    register_builtin_entries()
    return list(_REGISTRY)


def run_catalog(filter: Optional[str] = None,
                ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """Run entries matching `filter` (None/"all", a tag, or an entry id).

    Individual failures are reported, never raised.
    """
    entries = all_entries()
    if filter is None or filter == "all":
        chosen = entries
    elif filter in ALLOWED_TAGS:
        chosen = [e for e in entries if filter in e.tags]
    else:
        chosen = [e for e in entries if e.id == filter
                  or e.paper_anchor == filter]
        if not chosen:
            raise ValueError("unknown filter %r: not a tag or entry id"
                             % filter)
    return IdentityReport([_run_entry(e, ctx) for e in chosen])


def _run_entry(e: IdentityEntry, ctx: PrecisionContext) -> EntryOutcome:
    tol = mpf(e.tolerance) if e.tolerance is not None else ctx.tolerance
    t0 = time.perf_counter()
    lrec = rrec = {}
    try:
        with ctx.working():
            with recording() as lrec:
                lv = mpf(e.lhs(ctx))
            with recording() as rrec:
                rv = mpf(e.rhs(ctx))
            err = abs(lv - rv)
            ok, failure = bool(err <= tol), None
    except Exception as exc:
        lv = rv = err = None
        ok, failure = False, "%s: %s" % (type(exc).__name__, exc)
    return EntryOutcome(e.id, e.paper_anchor, e.description, lv, rv, err,
                        tol, ok, (time.perf_counter() - t0) * 1000.0,
                        failure, lrec, rrec)


# ---------------------------------------------------------------------------
# shared evaluation helpers
# ---------------------------------------------------------------------------

def _bose(g, ctx):
    return integrate_bose(g, ctx).value


def _gam(n, u, ctx):
    return series.limit_stieltjes_oracle(n, u, ctx)


def _zeta(s, ctx, r=0):
    return series.riemann_zeta_em(s, r, ctx)


def _frac(fr: Fraction):
    return mpf(fr.numerator) / fr.denominator


def _binet_kernel_tail(t):
    """K(t) - t/12 = sum_{k>=2} B_2k t^(2k-1)/(2k)!: the series below
    |t| = 1/4, binet_kernel's own seam, where t/12 would cancel K."""
    x = mpf(t)
    if abs(x) > F._SEAM:
        return F.binet_kernel(t) - x / 12
    return F._binet_series(x, 2)


def _kernel_moment(t, ctx):
    """F(t) = int_0^inf K(y) (1 - e^(-t y))/y^2 dy, K the subtracted Binet
    kernel, split at y = 1 so that no piece runs out along K's 1/y^2 tail
    with its poles at y = +-2 pi i k near the quadrature map's strip:

      (0,1):    tanh-sinh; the integrand is regular, tending to t/12;
      (1,inf):  K = 1/(e^y - 1) + (1/2 - 1/y), and (1/2 - 1/y)/y^2
                integrates to exactly 0 over (1,inf), so with y = 1 + x
                what is left is two Laplace integrals on the exp-decay map,
                e^-1 int e^-x expm1(-t y)/expm1(-y)/y^2 dx
                - e^-t int e^(-t x) (1/2 - 1/y)/y^2 dx.
    """
    t = mpf(t)

    def bose(x):
        y = 1 + x
        return expm1(-t * y) / expm1(-y) / (y * y)

    def algebraic(x):
        y = 1 + x
        return (mpf(1) / 2 - 1 / y) / (y * y)

    head = tanh_sinh_01(
        lambda y, yc: F.binet_kernel(y) * -expm1(-t * y) / (y * y), ctx)
    return (head.value
            + integrate_laplace(bose, 1, ctx).value / mp.e
            - integrate_laplace(algebraic, t, ctx).value * mp.exp(-t))


def _psi_plus(x, xc):
    """w = psi(1+x) + gamma and w' = psi'(1+x), x + xc = 1, from one series
    in a_k = zeta(k) - 1 <= 3 2^-k about whichever of 1 and 2 is nearer:
    with Q(z) = sum_{k>=2} a_k z^(k-1),
      x <= 1/2:  w = x/(1+x) - Q(-x),  w' = 1/(1+x)^2 + Q'(-x);
      x > 1/2:   w = 1 - Q(xc),        w' = Q'(xc).
    With y = min(x, xc) <= 1/2 the terms of Q' from k >= 3 on add up to at
    most 3 (k-1) 2^-k y^(k-2) / (1 - 3/8) <= 4.8 y^-2 k (y/2)^k, which
    bounds Q/z's too; the sums stop at the first k where that is below
    10^-(dps+4).  That k is largest at y = 1/2, so the a_k of
    series._zeta_row up to y = 1/2's k serve every node."""
    low = x <= mpf(1) / 2
    y = x if low else xc
    k = series._stop_index(y, 3, 4.8, 2, 0.5, d=1)
    a = series._zeta_row(series._stop_index(mpf(1) / 2, 3, 4.8, 2, 0.5, d=1))
    da = series._row("zeta-1'", lambda j: (j - 1) * mp.make_mpf(a[j]), k)
    z = -x if low else xc
    q = z * series._horner(a, 2, k - 2, z)
    dq = series._horner(da, 2, k - 2, z)
    if low:
        return x / (1 + x) - q, 1 / (1 + x) ** 2 + dq
    return 1 - q, dq


def _stirling_tail(acc, N: int, p: int, ctx):
    """acc - sum_{k>=1} B_2k/(2k) sum_{n>N} n^-(2k+p): the Bernoulli part of
    the Stirling series of psi(n) and H_n against 1/n^p over n > N, to one
    term past its smallest, near k = pi (N+1), where its floor stops it."""
    eps = mpf(10) ** (-(mp.dps + 4))
    terms = (-(series._bern_mpf(2 * k) / (2 * k)
               * series.em_log_power_tail(2 * k + p, 0, N, 0, ctx))
             for k in range(1, math.ceil(math.pi * (N + 1)) + 2))
    return series._sum_terms(terms, acc, eps)


def _stirling_start() -> int:
    """N for the sums closed by _stirling_tail: its smallest term, near
    e^(-2 pi (N+1)), then lies below the tail's threshold 10^-(dps+4).
    Never below 40, the N these sums used up to about 85 digits."""
    return max(40, math.ceil((mp.dps + 4) * math.log(10) / (2 * math.pi)))


def _psi_over_square_series(ctx, n_quad: int = 0):
    """sum_{n>=1} psi(n)/n^2; the first n_quad terms may come from the
    digamma quadrature web, the rest from shifted asymptotics, the tail
    from psi's gamma-free asymptotic expansion."""
    N = _stirling_start()
    acc = mpf(0)
    for n in range(1, N + 1):
        if n == 1:
            pv = -_gam(0, 1, ctx) if n > n_quad else \
                F.digamma(1, ctx, "bose").value
        elif n <= n_quad:
            pv = F.digamma(n, ctx, "bose").value
        else:
            pv = series.psi_asymptotic(mpf(n), ctx)
        acc += pv / mpf(n) ** 2
    tail = series.em_log_power_tail(2, 1, N, 0, ctx)
    tail -= series.em_log_power_tail(3, 0, N, 0, ctx) / 2
    return acc + _stirling_tail(tail, N, 2, ctx)


def _sici_sum_85(x, ctx):
    """sum_{n>=1} [cos Ci + sin si](2 n pi x)/n^2: the first block through
    the sine and cosine integrals, the rest through the exact identity
    cos(z)Ci(z) + sin(z)si(z) = -g(z) and the lattice closure of g."""
    x = mpf(x)
    acc = -F._aux_lattice_sum(1, 2, 2 * mp.pi * x, ctx, first=13)
    for n in range(1, 13):
        z = 2 * n * mp.pi * x
        _, si, Ci = F.sin_cos_integrals(z, ctx)
        acc += (mp.cos(z) * Ci + mp.sin(z) * si) / mpf(n) ** 2
    return acc


def _harmonic_sum_over_squares(ctx):
    """sum_{n>=1} H_n/n^2 with asymptotic-plus-EM tail closure."""
    N = _stirling_start()
    acc = mpf(0)
    h = Fraction(0)
    for n in range(1, N + 1):
        h += Fraction(1, n)
        acc += _frac(h) / mpf(n) ** 2
    g = _gam(0, 1, ctx)
    tail = series.em_log_power_tail(2, 1, N, 0, ctx)
    tail += g * series.em_log_power_tail(2, 0, N, 0, ctx)
    tail += series.em_log_power_tail(3, 0, N, 0, ctx) / 2
    # H_n = log n + gamma + 1/(2n) - sum B_2k/(2k n^2k)
    return acc + _stirling_tail(tail, N, 2, ctx)


def _harmonic_log_series(ctx):
    """sum_{n>=1} H_n (log(1+1/n) - 1/n), swapped into sum_{k>=1}
    (psi(k) - log k)/k by sum_{n>=k} (log(1+1/n) - 1/n) = psi(k) - log k.
    Up to N, psi(k) = H_(k-1) - gamma, its gamma terms summed as gamma H_N;
    past N, Stirling's psi(k) - log k = -1/(2k) - sum B_2j/(2j k^2j)."""
    N = _stirling_start()
    acc = mpf(0)
    h = Fraction(0)
    for k in range(1, N + 1):
        acc += (_frac(h) - mp.log(k)) / k
        h += Fraction(1, k)
    acc -= _gam(0, 1, ctx) * _frac(h)
    tail = -series.em_log_power_tail(2, 0, N, 0, ctx) / 2
    return acc + _stirling_tail(tail, N, 1, ctx)


# ---------------------------------------------------------------------------
# builtin entries
# ---------------------------------------------------------------------------

_BUILT = False


def register_builtin_entries() -> None:
    global _BUILT
    if _BUILT:
        return
    _BUILT = True

    E = IdentityEntry
    Q = frozenset({"quadrature"})
    S = frozenset({"series"})
    D = frozenset({"double_integral"})
    L = frozenset({"limit"})

    # --- log-gamma series remainder -----------------------------------
    def lhs_22(ctx):
        return mp.log(2 * mp.pi) / 2 - F.log_gamma(1, "binet2", ctx).value

    def rhs_22(ctx):
        gammas = series.stieltjes_oracle_table(26, 1, ctx)
        acc = mpf(1)
        for n in range(0, 26):
            acc += gammas[n + 1] / mp.factorial(n)
        return acc

    register(E(
        id="I-2.2",
        description="Sum of all higher Stieltjes constants at 1 weighted by "
                    "1/n! reproduces log(2 pi)/2 - log Gamma(1) shifted by 1.",
        paper_anchor="I-2.2",
        lhs=lhs_22, rhs=rhs_22,
        tags=S,
        tolerance="1e-28",
        tolerance_note="the rhs truncates the series after order 26, which "
                       "leaves 9.24e-30, measured at 15, 30 and 60 digits"))

    # --- Fourier sine transform of the Bose kernel --------------------
    for tag, yv in (("a", "0.1"), ("b", "1"), ("c", "5")):
        def lhs_210(ctx, yv=yv):
            y = mpf(yv)
            return 2 * _bose(lambda x: mp.sin(x * y), ctx)

        def rhs_210(ctx, yv=yv):
            y = mpf(yv)
            return mp.coth(y / 2) / 2 - 1 / y

        register(E(
            id="I-2.10" + tag,
            description="Sine transform of the Bose weight equals the "
                        "subtracted coth kernel (y = %s)." % yv,
            paper_anchor="I-2.10",
            lhs=lhs_210, rhs=rhs_210,
            tags=Q))

    # --- algebraic Bose moment vs Laplace-kernel form -----------------
    for tag, uv in (("a", "0.5"), ("b", "1"), ("c", "3")):
        def lhs_215(ctx, uv=uv):
            u = mpf(uv)
            u2 = u * u
            return 2 * _bose(lambda x: x / (u2 + x * x), ctx)

        def rhs_215(ctx, uv=uv):
            return integrate_laplace(F.binet_kernel, mpf(uv), ctx).value

        register(E(
            id="I-2.15" + tag,
            description="Bose moment of x/(u^2+x^2) equals the Laplace "
                        "transform of the subtracted kernel (u = %s)." % uv,
            paper_anchor="I-2.15",
            lhs=lhs_215, rhs=rhs_215,
            tags=Q))

    # --- log moment of the Bose weight --------------------------------
    register(E(
        id="I-2.18",
        description="First log moment of the Bose weight equals half the "
                    "zeta derivative at -1.",
        paper_anchor="I-2.18",
        lhs=lambda ctx: _bose(lambda x: x * mp.log(x), ctx),
        rhs=lambda ctx: _zeta(-1, ctx, 1) / 2,
        tags=Q))

    # --- kernel average against (1-e^-t)/t^2 --------------------------
    register(E(
        id="I-2.20",
        description="Integral of the subtracted kernel against "
                    "(1-e^-t)/t^2 equals exactly 1/4.",
        paper_anchor="I-2.20",
        lhs=lambda ctx: _kernel_moment(1, ctx),
        rhs=lambda ctx: mpf(1) / 4,
        tags=Q))

    # --- cosine transform (corrected second kernel) -------------------
    for tag, yv in (("a", "0.5"), ("b", "2")):
        def lhs_223(ctx, yv=yv):
            y = mpf(yv)
            return 2 * _bose(lambda x: x * mp.cos(x * y), ctx)

        def rhs_223(ctx, yv=yv):
            y = mpf(yv)
            return 1 / (y * y) - mp.exp(y) / expm1(y) ** 2

        register(E(
            id="I-2.23" + tag,
            description="Cosine moment of x under the Bose weight equals "
                        "1/y^2 - e^y/(e^y-1)^2; the source display drops "
                        "the x factor, restored here (y = %s)." % yv,
            paper_anchor="I-2.23",
            lhs=lhs_223, rhs=rhs_223,
            tags=Q))

    # --- x log(1+x^2) moment vs Laplace of the square kernel ----------
    register(E(
        id="I-2.25",
        description="x log(1+x^2) Bose moment equals the Laplace average "
                    "of e^y/(e^y-1)^2 - 1/y^2 + 1/12 over y with weight "
                    "e^-y/y; the +1/12 regularization is required for "
                    "convergence and is restored here.",
        paper_anchor="I-2.25",
        lhs=lambda ctx: _bose(lambda x: x * log1p(x * x), ctx),
        rhs=lambda ctx: integrate_laplace(
            lambda y: F.exp_square_kernel(y) / y, mpf(1), ctx).value,
        tags=Q))

    # --- x log(u^2+x^2) moment at rational u --------------------------
    def _zp1_at(uv, ctx):
        # zeta'(-1, u) for u in {1/2, 2} via the reflection to zeta'(-1)
        zp = _zeta(-1, ctx, 1)
        if uv == "0.5":
            return -mp.log(2) / 24 - zp / 2
        return zp

    def _lgamma_exact(uv):
        if uv == "0.5":
            return mp.log(mp.pi) / 2
        return mpf(0)   # log Gamma(2)

    for tag, uv in (("a", "0.5"), ("b", "2")):
        def lhs_35(ctx, uv=uv):
            u = mpf(uv)
            u2 = u * u
            return _bose(lambda x: x * mp.log(u2 + x * x), ctx)

        def rhs_35(ctx, uv=uv):
            u = mpf(uv)
            return (_zp1_at(uv, ctx) + u * u * mp.log(u) / 2
                    - 3 * u * u / 4 + u * mp.log(2 * mp.pi) / 2
                    - u * _lgamma_exact(uv))

        register(E(
            id="I-3.5" + tag,
            description="x log(u^2+x^2) Bose moment matches its closed "
                        "form built from zeta'(-1) and log Gamma at "
                        "u = %s; the u^2 log(u)/2 term enters with plus "
                        "sign (the printed minus only survives at u = 1, "
                        "confirmed by differentiating in u)." % uv,
            paper_anchor="I-3.5",
            lhs=lhs_35, rhs=rhs_35,
            tags=Q))

    register(E(
        id="I-3.6",
        description="x log(1+x^2) Bose moment equals "
                    "zeta'(-1) - 3/4 + log(2 pi)/2.",
        paper_anchor="I-3.6",
        lhs=lambda ctx: _bose(lambda x: x * log1p(x * x), ctx),
        rhs=lambda ctx: _zeta(-1, ctx, 1) - mpf(3) / 4
        + mp.log(2 * mp.pi) / 2,
        tags=Q))

    def rhs_37(ctx):
        zp1 = _zeta(-1, ctx, 1)
        zp2 = _zeta(-2, ctx, 1)
        l2pi = mp.log(2 * mp.pi)
        return (-mpf(1) / 9 + (1 - l2pi / 2)
                + 2 * (zp1 - mpf(3) / 4 + l2pi / 2) - zp2)

    register(E(
        id="I-3.7",
        description="x^2 atan(x) Bose moment (doubled) written through "
                    "zeta'(-1) and zeta'(-2), specialized to u = 1.",
        paper_anchor="I-3.7",
        lhs=lambda ctx: 2 * _bose(lambda x: x * x * mp.atan(x), ctx),
        rhs=rhs_37,
        tags=Q))

    # --- u-derivative of the first generalized constant ---------------
    def lhs_38(ctx):
        h = mpf("1e-10")
        return (_gam(1, 1 + h, ctx) - _gam(1, 1 - h, ctx)) / (2 * h)

    def rhs_38(ctx):
        return (F.trigamma(1, ctx).value
                + F.hurwitz_zeta_sderiv(1, 2, 1, ctx, "hermite").value)

    register(E(
        id="I-3.8",
        description="d/du of the first generalized Stieltjes constant "
                    "equals psi'(u) + zeta'(2,u) (checked at u = 1 by "
                    "central difference of the reference evaluator).",
        paper_anchor="I-3.8",
        lhs=lhs_38, rhs=rhs_38,
        tags=L,
        tolerance="1e-18",
        tolerance_note="central difference at h = 1e-10 leaves an h^2 "
                       "curvature term near 1e-19"))

    # --- trigamma representation --------------------------------------
    for tag, uv, mult in (("a", "1", 1), ("b", "0.5", 3)):
        def lhs_39(ctx, mult=mult):
            return mult * _zeta(2, ctx)

        def rhs_39(ctx, uv=uv):
            return F.trigamma(mpf(uv), ctx).value

        register(E(
            id="I-3.9" + tag,
            description="zeta(2,u) from the algebraic Bose integral "
                        "matches the Euler-Maclaurin value (u = %s)." % uv,
            paper_anchor="I-3.9",
            lhs=lhs_39, rhs=rhs_39,
            tags=Q))

    # --- negative-integer values of the Hurwitz function --------------
    for m in range(5):
        for utag, ufr in (("u1", Fraction(1)), ("u4", Fraction(1, 4))):
            def lhs_310(ctx, m=m, ufr=ufr):
                return F.hurwitz_zeta(-m, _frac(ufr), ctx, "hermite").value

            def rhs_310(ctx, m=m, ufr=ufr):
                return -_frac(series.bernoulli_poly(m + 1, ufr)) / (m + 1)

            register(E(
                id="I-3.10-m%d%s" % (m, utag),
                description="Continued Hurwitz value at s = -%d, u = %s "
                            "equals the exact Bernoulli polynomial "
                            "value." % (m, ufr),
                paper_anchor="I-3.10",
                lhs=lhs_310, rhs=rhs_310,
                tags=Q))

    # --- alternating binomial machinery -------------------------------
    register(E(
        id="I-4.14",
        description="The alternating binomial zeta sum evaluated straight "
                    "at s = 1 equals log 2.",
        paper_anchor="I-4.14",
        lhs=lambda ctx: series.alt_zeta_hasse(1, 1, 0, ctx)[0],
        rhs=lambda ctx: mp.log(2),
        tags=S | L))

    register(E(
        id="I-4.16",
        description="Euler's constant from the first alternating binomial "
                    "log moment.",
        paper_anchor="I-4.16",
        lhs=lambda ctx: mp.log(2) / 2
        - series.alt_zeta_hasse(1, 1, 1, ctx)[1] / mp.log(2),
        rhs=lambda ctx: _gam(0, 1, ctx),
        tags=S))

    def lhs_4162(ctx):
        S = series.alt_zeta_hasse(1, 1, 2, ctx)
        return -mp.log(2) ** 2 / 12 + S[1] / 2 - S[2] / (2 * mp.log(2))

    register(E(
        id="I-4.16.2",
        description="First Stieltjes constant from the first two "
                    "alternating binomial log moments.",
        paper_anchor="I-4.16.2",
        lhs=lhs_4162,
        rhs=lambda ctx: _gam(1, 1, ctx),
        tags=S))

    for tag, n in (("a", 1), ("b", 2), ("c", 3)):
        def lhs_420(ctx, n=n):
            return -series.alt_zeta_hasse(1, 1, n, ctx)[n]

        def rhs_420(ctx, n=n):
            l2 = mp.log(2)
            acc = -l2 ** (n + 1) / (n + 1)
            for k in range(n):
                acc += math.comb(n, k) * _gam(k, 1, ctx) * l2 ** (n - k)
            return acc

        register(E(
            id="I-4.20" + tag,
            description="Alternating zeta log moment of order %d against "
                        "the binomial combination of Stieltjes "
                        "constants." % n,
            paper_anchor="I-4.20",
            lhs=lhs_420, rhs=rhs_420,
            tags=S))

    for tag, k in (("a", 1), ("b", 2)):
        def lhs_421(ctx, k=k):
            return (-1) ** k * series.alt_zeta_hasse(1, 1, k, ctx)[k]

        def rhs_421(ctx, k=k):
            l2 = mp.log(2)
            acc = mpf(0)
            for r in range(1, k + 2):
                if k - r >= 0:
                    A = (-1) ** (k - r) * _gam(k - r, 1, ctx) \
                        / mp.factorial(k - r)
                else:
                    A = mpf(1)
                acc += (-1) ** (r + 1) * l2 ** r / mp.factorial(r) * A
            return mp.factorial(k) * acc

        register(E(
            id="I-4.21" + tag,
            description="Factorial-weighted form of the order-%d "
                        "alternating log moment (Briggs/Chowla shape)." % k,
            paper_anchor="I-4.21",
            lhs=lhs_421, rhs=rhs_421,
            tags=S))

    for tag, n in (("a", 0), ("b", 1), ("c", 2)):
        def lhs_422(ctx, n=n):
            return _gam(n, 1, ctx)

        def rhs_422(ctx, n=n):
            l2 = mp.log(2)
            S = series.alt_zeta_hasse(1, 1, n, ctx)
            acc = mpf(0)
            for k in range(n + 1):
                brk = -S[k] + l2 ** (k + 1) / (k + 1) + _gam(k, 1, ctx)
                acc += (math.comb(n, k) * (-1) ** k * l2 ** (n - k) * brk)
            return (-1) ** n * acc

        register(E(
            id="I-4.22" + tag,
            description="Binomial inversion closing the log-moment / "
                        "Stieltjes web at order %d." % n,
            paper_anchor="I-4.22",
            lhs=lhs_422, rhs=rhs_422,
            tags=S))

    # --- first generalized constant, integral vs reference ------------
    def _lhs_51(ctx, uv):
        u = mpf(uv)
        u2 = u * u
        lu = mp.log(u)
        t1 = _bose(lambda x: x * mp.log(u2 + x * x) / (u2 + x * x), ctx)
        t2 = _bose(lambda x: mp.atan2(x, u) / (u2 + x * x), ctx)
        return lu / (2 * u) - lu * lu / 2 + t1 - 2 * u * t2

    for tag, uv in (("a", "0.5"), ("b", "1"), ("c", "2")):
        register(E(
            id="I-5.1" + tag,
            description="Closed integral form of the first generalized "
                        "Stieltjes constant against the limit-sum "
                        "reference (u = %s)." % uv,
            paper_anchor="I-5.1",
            lhs=lambda ctx, uv=uv: _lhs_51(ctx, uv),
            rhs=lambda ctx, uv=uv: _gam(1, mpf(uv), ctx),
            tags=Q))

    register(E(
        id="I-5.1d",
        description="Same integral form against the binomial double sum "
                    "it was derived from (Hasse's series, shifted off its "
                    "truncation floor), at u = 2.",
        paper_anchor="I-5.1",
        lhs=lambda ctx: _lhs_51(ctx, "2"),
        rhs=lambda ctx: series.hasse_stieltjes(1, mpf(2), ctx),
        tags=Q))

    # --- log * atan moment and the second s-derivative at 0 -----------
    def rhs_53(ctx):
        g0 = _gam(0, 1, ctx)
        g1 = _gam(1, 1, ctx)
        zpp0 = (g1 + g0 * g0 / 2 - mp.pi ** 2 / 24
                - mp.log(2 * mp.pi) ** 2 / 2)
        return -1 - zpp0 / 2

    register(E(
        id="I-5.3",
        description="log(1+x^2) atan(x) Bose moment ties to the second "
                    "s-derivative of zeta at 0 (t = 1 point).",
        paper_anchor="I-5.3",
        lhs=lambda ctx: _bose(
            lambda x: log1p(x * x) * mp.atan(x), ctx),
        rhs=rhs_53,
        tags=Q))

    # --- integral of log Gamma ----------------------------------------
    for tag, tv in (("a", "0.5"), ("b", "1"), ("c", "2")):
        def lhs_64(ctx, tv=tv):
            t = mpf(tv)
            lt = mp.log(t)
            main = ((t * t - t) / 2 * lt - t * t / 4 + t / 2
                    - t * t / 2 + t / 2 * mp.log(2 * mp.pi))
            return main + _kernel_moment(t, ctx)

        def rhs_64(ctx, tv=tv):
            t = mpf(tv)
            return (t * (1 - t) / 2 + t * mp.log(2 * mp.pi) / 2
                    - F.barnes_g_log(t, "weierstrass_6_5", ctx).value
                    + t * F.log_gamma(t, "binet2", ctx).value)

        register(E(
            id="I-6.4" + tag,
            description="Antiderivative of log Gamma over (0, t) via "
                        "termwise Laplace closure, against the Barnes "
                        "combination (t = %s)." % tv,
            paper_anchor="I-6.4",
            lhs=lhs_64, rhs=rhs_64,
            tags=Q))

    # --- Gosper/Vardi functional equation -----------------------------
    for tag, tv in (("a", "0.5"), ("b", "2")):
        def lhs_610(ctx, tv=tv):
            t = mpf(tv)
            return (F.barnes_g_log(t, "weierstrass_6_5", ctx).value
                    - t * F.log_gamma(t, "binet1", ctx).value)

        def rhs_610(ctx, tv=tv):
            return (_zeta(-1, ctx, 1)
                    - F.hurwitz_zeta_sderiv(1, -1, mpf(tv), ctx,
                                            "hermite").value)

        register(E(
            id="I-6.10" + tag,
            description="Functional equation linking log G, log Gamma and "
                        "the s-derivative of the Hurwitz function at -1 "
                        "(t = %s)." % tv,
            paper_anchor="I-6.10",
            lhs=lhs_610, rhs=rhs_610,
            tags=Q))

    # --- Laplace representation of log G ------------------------------
    def lhs_6111(ctx):
        return F.barnes_g_log(mpf("1.5"), "weierstrass_6_5", ctx).value

    def rhs_6111(ctx):
        v = mpf("1.5")
        b2 = _frac(series.bernoulli_poly(2, Fraction(3, 2)))
        intg = integrate_laplace(lambda t: _binet_kernel_tail(t) / (t * t),
                                 v, ctx).value
        return (v * F.log_gamma(v, "binet2", ctx).value + v * v / 4
                - b2 * mp.log(v) / 2 - mpf(1) / 12 + _zeta(-1, ctx, 1)
                + intg)

    register(E(
        id="I-6.11.1",
        description="Laplace-kernel representation of log G(1+v) at "
                    "v = 3/2 against the canonical product.",
        paper_anchor="I-6.11.1",
        lhs=lhs_6111, rhs=rhs_6111,
        tags=Q))

    # --- integral of the zeta s-derivative over (0,1) -----------------
    def lhs_614(ctx):
        def g(x):
            at = mp.atan2(1, x)
            return (mp.atan(x) / 2 - x / 2 + x * x / 2 * at
                    + x / 2 * log1p(x * x))
        return mpf(-1) / 72 + 2 * _bose(g, ctx)

    def rhs_614(ctx):
        return _zeta(-2, ctx, 1) / 2 + _zeta(3, ctx) / (8 * mp.pi ** 2)

    register(E(
        id="I-6.14",
        description="Integral over (0,1) of the s-derivative at -1, with "
                    "the u-integration carried out in closed form inside "
                    "the Bose integrand, against its Bernoulli / zeta(3) "
                    "evaluation.",
        paper_anchor="I-6.14",
        lhs=lhs_614, rhs=rhs_614,
        tags=Q))

    register(E(
        id="I-6.17",
        description="x^2 atan(x) Bose moment equals "
                    "-11/36 + log(2 pi)/4 + zeta'(-1) + zeta(3)/(8 pi^2).",
        paper_anchor="I-6.17",
        lhs=lambda ctx: _bose(lambda x: x * x * mp.atan(x), ctx),
        rhs=lambda ctx: (-mpf(11) / 36 + mp.log(2 * mp.pi) / 4
                         + _zeta(-1, ctx, 1)
                         + _zeta(3, ctx) / (8 * mp.pi ** 2)),
        tags=Q))

    # --- even Bernoulli numbers as Bose moments -----------------------
    for tag, n in (("a", 2), ("b", 3)):
        def lhs_620(ctx, n=n):
            return (4 * n * (-1) ** (n + 1)
                    * _bose(lambda x: x ** (2 * n - 1), ctx))

        def rhs_620(ctx, n=n):
            return _frac(series.bernoulli_number(2 * n))

        register(E(
            id="I-6.20" + tag,
            description="Power moment of order %d reproduces the exact "
                        "Bernoulli number." % (2 * n - 1),
            paper_anchor="I-6.20",
            lhs=lhs_620, rhs=rhs_620,
            tags=Q))

    register(E(
        id="I-6.21",
        description="First power moment of the Bose weight is exactly 1/24.",
        paper_anchor="I-6.21",
        lhs=lambda ctx: _bose(lambda x: x, ctx),
        rhs=lambda ctx: mpf(1) / 24,
        tags=Q))

    # --- logarithmic derivative of G ----------------------------------
    def lhs_624(ctx):
        t = mpf("1.5")
        h = mpf("1e-10")
        a = F.barnes_g_log(t + h, "integral_6_7", ctx).value
        b = F.barnes_g_log(t - h, "integral_6_7", ctx).value
        return (a - b) / (2 * h)

    def rhs_624(ctx):
        t = mpf("1.5")
        return (mp.log(2 * mp.pi) / 2 + mpf(1) / 2 - t
                + t * F.digamma(t, ctx, "laplace").value)

    register(E(
        id="I-6.24",
        description="d/dt log G(1+t) at t = 3/2 equals "
                    "log(2 pi)/2 + 1/2 - t + t psi(t).",
        paper_anchor="I-6.24",
        lhs=lhs_624, rhs=rhs_624,
        tags=L,
        tolerance="1e-12",
        tolerance_note="finite-difference probe; h^2 curvature plus "
                       "quadrature noise divided by 2h bounds accuracy "
                       "near 1e-19, tolerance kept loose for portability"))

    # --- Stieltjes expansion of zeta derivatives ----------------------
    def lhs_72(ctx):
        return -_zeta(mpf("1.5"), ctx, 1)

    def rhs_72(ctx):
        s1 = mpf("0.5")
        gammas = series.stieltjes_oracle_table(13, 1, ctx)
        acc = 1 / s1 ** 2
        for n in range(0, 13):
            acc += (-1) ** n / mp.factorial(n) * s1 ** n * gammas[n + 1]
        return acc

    register(E(
        id="I-7.2",
        description="Laurent-type expansion of the first zeta derivative "
                    "around the pole, truncated at order 12, "
                    "evaluated at s = 3/2.",
        paper_anchor="I-7.2",
        lhs=lhs_72, rhs=rhs_72,
        tags=S,
        tolerance="1e-15",
        tolerance_note="first omitted term of the truncated expansion "
                       "is near 2e-18"))

    # --- trigonometric series for log Gamma ---------------------------
    register(E(
        id="I-8.2",
        description="Trigonometric series route for log Gamma at u = 1/4 "
                    "against the atan Bose integral route.",
        paper_anchor="I-8.2",
        lhs=lambda ctx: F.log_gamma(mpf("0.25"), "bourguet", ctx).value,
        rhs=lambda ctx: F.log_gamma(mpf("0.25"), "binet2", ctx).value,
        tags=S))

    register(E(
        id="I-8.3",
        description="Doubled atan Bose moment at u = 1 equals the sine "
                    "series summed through the auxiliary function with an "
                    "asymptotic tail closure.",
        paper_anchor="I-8.3",
        lhs=lambda ctx: 2 * _bose(lambda x: mp.atan(x), ctx),
        rhs=lambda ctx: F._aux_lattice_sum(0, 1, 2 * mp.pi, ctx) / mp.pi,
        tags=S))

    # --- cosine-integral series for the zeta s-derivative -------------
    def rhs_85(ctx):
        x = mpf("0.25")
        zm1 = -_frac(series.bernoulli_poly(2, Fraction(1, 4))) / 2
        return (-zm1 * mp.log(x) - x * x / 4 + mpf(1) / 12
                - _sici_sum_85(x, ctx) / (2 * mp.pi ** 2))

    register(E(
        id="I-8.5",
        description="Cosine-integral series for the s-derivative of the "
                    "Hurwitz function at -1, x = 1/4, against the direct "
                    "integral evaluation.",
        paper_anchor="I-8.5",
        lhs=lambda ctx: F.hurwitz_zeta_sderiv(1, -1, mpf("0.25"), ctx,
                                              "hermite").value,
        rhs=rhs_85,
        tags=S))

    # --- digamma lattice sums ----------------------------------------
    register(E(
        id="I-8.6",
        description="Sum of psi(n)/n^2 (first block through the digamma "
                    "quadrature web) equals zeta(3) - gamma zeta(2).",
        paper_anchor="I-8.6",
        lhs=lambda ctx: _psi_over_square_series(ctx, n_quad=12),
        rhs=lambda ctx: _zeta(3, ctx) - _gam(0, 1, ctx) * _zeta(2, ctx),
        tags=S))

    register(E(
        id="I-8.P",
        description="Fast lattice correction to 7 pi^3/180 reproduces "
                    "zeta(3).",
        paper_anchor="I-8.P",
        lhs=lambda ctx: _zeta(3, ctx),
        rhs=lambda ctx: 7 * mp.pi ** 3 / 180 - 2 * F.polylog_bose(3, ctx),
        tags=S))

    # --- harmonic-number series and double integrals ------------------
    def rhs_91(ctx):
        return -(_zeta(2, ctx) + _gam(0, 1, ctx) ** 2
                 + 2 * _gam(1, 1, ctx)) / 2

    register(E(
        id="I-9.1",
        description="Harmonic-number series sum H_n (log((n+1)/n) - 1/n) "
                    "against its closed form; the source prints the "
                    "gamma_1 term with the opposite sign, corrected here "
                    "(three independent evaluations agree).",
        paper_anchor="I-9.1",
        lhs=lambda ctx: _harmonic_log_series(ctx),
        rhs=rhs_91,
        tags=S))

    def lhs_92(ctx):
        def node(x, xc):
            return x, xc, mp.log(x), F.one_over_log_kernel(x, xc)

        def raw(p, q):
            _, xc, lx, _ = p
            y, yc, _, R = q
            den = 1 - xc * y
            return lx * yc * R / (den * den)

        def pair(p, q):
            return (raw(p, q) + raw(q, p)) / 2
        return integrate_unit_square(node, pair, ctx).value

    register(E(
        id="I-9.2",
        description="Double-integral form of the harmonic series above, "
                    "with the divergent printed bracket repaired by the "
                    "exact inner cancellation (and the same gamma_1 sign "
                    "correction in the closed form); summed as its "
                    "symmetrized integrand over one triangle.",
        paper_anchor="I-9.2",
        lhs=lhs_92, rhs=rhs_91,
        tags=D,
        tolerance="1e-24",
        tolerance_note="measured 1.7e-27 at 15, 30 and 60 digits: the "
                       "2-D rule works at no more than 45 digits, so the "
                       "error does not shrink with them; about 3 digits "
                       "of margin"))

    def lhs_92b(ctx):
        def f(y, yc):
            return F.one_over_log_kernel(y, yc) * mp.log(yc) / y
        return tanh_sinh_01(f, ctx).value

    register(E(
        id="I-9.2b",
        description="Same identity with the x-integration done in closed "
                    "form, leaving a one-dimensional integral of "
                    "[1/log y + 1/(1-y)] log(1-y)/y.",
        paper_anchor="I-9.2",
        lhs=lhs_92b, rhs=rhs_91,
        tags=Q))

    def lhs_94a(ctx):
        def node(x, xc):
            la = log1p(-xc)
            return xc, la, la + xc, F.one_over_log_kernel(x, xc)

        def pair(p, q):
            a, la, pa, Rx = p
            b, lb, pb, Ry = q
            ab = a * b
            den = a + b - ab
            Qv = (la + lb) / den
            Qp1 = (pa + pb - ab) / den
            return Qp1 / ab - Qv * (Rx / b + Ry / a) + (Qv - 1) * Rx * Ry
        return integrate_unit_square(node, pair, ctx).value / 2

    register(E(
        id="I-9.4a",
        description="Symmetric double integral for the first Stieltjes "
                    "constant, evaluated through an exactly regrouped "
                    "bracket that cancels all four singular pieces.",
        paper_anchor="I-9.4a",
        lhs=lhs_94a,
        rhs=lambda ctx: _gam(1, 1, ctx),
        tags=D,
        tolerance="1e-28",
        tolerance_note="measured 1.1e-31 at 15, 30 and 60 digits: the "
                       "2-D rule works at no more than 45 digits, so the "
                       "error does not shrink with them; about 3 digits "
                       "of margin"))

    def lhs_95a(ctx):
        def node(x, xc):
            return xc, log1p(-xc)

        def pair(p, q):
            (xc, lx), (yc, ly) = p, q
            om = xc + yc - xc * yc
            lg = lx + ly
            return (xc + yc) / (om * lg)
        return -integrate_unit_square(node, pair, ctx).value / 2

    register(E(
        id="I-9.5a",
        description="Euler's constant as a double integral of "
                    "-(1-x)/((1-xy) log(xy)), summed as its symmetrized "
                    "integrand -(2-x-y)/(2(1-xy) log(xy)) over one "
                    "triangle, with complement-stable evaluation near "
                    "the boundary.",
        paper_anchor="I-9.5a",
        lhs=lhs_95a,
        rhs=lambda ctx: _gam(0, 1, ctx),
        tags=D,
        tolerance="1e-10",
        tolerance_note="double-integral verification target; measured "
                       "agreement is near 1e-29"))

    def lhs_95b(ctx):
        g0 = _gam(0, 1, ctx)
        g0sq = g0 * g0

        def f(x, xc):
            w, wp = _psi_plus(x, xc)
            return wp - w * w + 2 * w / x + g0sq
        return tanh_sinh_01(f, ctx).value

    register(E(
        id="I-9.5b",
        description="Integral over (0,1) of psi' - psi^2 - 2 gamma psi "
                    "equals 2 zeta(2) - 2 gamma_1, with the integrand "
                    "regularized through w(x) = psi(x) + 1/x + gamma; "
                    "the source states +2 gamma_1, inherited from the "
                    "sign slip in the harmonic series it cites.",
        paper_anchor="I-9.5b",
        lhs=lhs_95b,
        rhs=lambda ctx: 2 * _zeta(2, ctx) - 2 * _gam(1, 1, ctx),
        tags=Q))

    # --- psi-weighted lattice identities ------------------------------
    def lhs_97(ctx):
        psi1 = F.digamma(1, ctx, "bose").value
        z2 = F.trigamma(1, ctx).value
        z3 = F.hurwitz_zeta(3, 1, ctx, "hermite").value
        return psi1 * z2 + z3

    register(E(
        id="I-9.7",
        description="psi(x) zeta(2,x) + zeta(3,x) at x = 1, every factor "
                    "from the quadrature web, equals the psi(n+1)/(n+1)^2 "
                    "series.",
        paper_anchor="I-9.7",
        lhs=lhs_97,
        rhs=lambda ctx: _psi_over_square_series(ctx, n_quad=0),
        tags=S))

    register(E(
        id="I-9.E",
        description="Euler's sum of H_n/n^2 equals twice zeta(3).",
        paper_anchor="I-9.E",
        lhs=lambda ctx: _harmonic_sum_over_squares(ctx),
        rhs=lambda ctx: 2 * _zeta(3, ctx),
        tags=S))
