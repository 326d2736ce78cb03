"""Double-exponential quadrature cores.

Three transforms cover everything in this package:

  * tanh-sinh on (0,1):     x(t) = 1/(1 + e^(-pi sinh t)),
  * exp-sinh on (0,inf):    x(t) = e^((pi/2) sinh t), the map of the Bose
                            rule's kernel route alone,
  * exp-decay on (0,inf):   x(t) = e^(t - e^(-t)), for e^(-u x) (Takahasi
                            and Mori 1974), the Laplace rule's map and,
                            in y = 2 pi x, the Bose rule's,

each evaluated on a fine grid in t, one table per working precision shared
by every integral at that precision.  A tanh-sinh table runs to |t| = 6.3,
whose nodes come within 3e-372 of 0 and 1.  An exp-sinh table runs to
t_max = max(5.6, asinh(2 ln 10 (dps + 10)/pi)), where the node is
10^-(dps+10): 5.6 up to about 60 digits, 6.09 at 120 and 6.51 at 200.
An exp-decay table runs from t = -ln((dps + 10) ln 10), where the node is
10^-(dps+10), to t = 40, where it is e^40 = 2.4e17: e^(-u x) has decayed
there for every u down to about 1e-15 at 15 digits and 1e-14 at 200.
A table holds no node until one is read: each node is built on its first
read, with the same formulas at every index, and kept, so a table costs
only the nodes that walks reach and its t range costs nothing beyond
them.  Every rule, 1-D and 2-D, hands one driver (_refine) its value on a
stride sub-grid of the cached grid; the driver halves the stride until
two levels agree, or, for a 1-D rule, until the digits of the last two
level differences extrapolate past the working precision (the digits of
a double-exponential rule about double per halving of h), and reports
an error estimate and the number of levels it computed.  It raises
NonConvergenceError when the finest level still disagrees, so no rule
returns a value that did not settle.  Each rule call tallies
<engine>_nodes, <engine>_error and <engine>_levels into the open
provenance record.
Every rule reuses integrand values across levels; the 1-D rules truncate
each level with one outward walk (_walk).  It stops a side after 3
negligible terms past the last non-negligible one of the level before,
but only once it has seen a term that is not negligible, so a level never
sums a negligible band around the center and misses mass further out.  A
level whose walk runs out of table on a term at or above the tolerance
raises NonConvergenceError rather than return the truncated sum.

The rules take plain callables: f(x) on (0,inf) and f(x, 1 - x) on
(0,1), the exact complement keeping f accurate next to 1.  The unit-square
rule takes two, node(x, 1 - x), run once per node in mpf, and a symmetric
pair(p, q) of two node records; it sums pairs over one triangle and the
diagonal in C decimal.

The per-node steps of the 1-D rules run in libmp, mpmath's low-level
layer, on _mpf_ tuples: the nodes (_build_table), each term f(x_i) w_i
with its smallness flag, the Bose division and the Laplace factor
e^(-u t).  Each is the operation mpf arithmetic would do, at the same
precision and rounding and in the same order, so every value is bit for
bit the one mpf arithmetic gives, without its wrappers' cost.

The Bose-weight integrator's direct route sums

  int_0^inf g(x)/(e^(2 pi x) - 1) dx = int_0^inf g(y/2 pi)/(2 pi (e^y - 1)) dy

on the exp-decay table, whose map is made for the e^(-y) decay of the
Bose weight in y = 2 pi x.  Each node's record, x = y/2 pi and
2 pi expm1(y), is built on first use and kept with the table for every
later call at that precision.  So the 1/(2 pi) sits in every term and the
refinement tests the integral in x itself.  Its kernel route, kept as the
tests' reference, stays on the exp-sinh table: it sums a mode expansion
sum_n e^(-2 pi n x) whose tail over the mode index is closed by
Euler-Maclaurin; on the same nodes that closure is the Bernoulli
expansion of the kernel.  It keeps q = e^(-2 pi x), the mode sum
q + ... + q^(N-1) in closed form and q^N per node, so only kernel-route
calls pay for them.  The catalog checks every Bose value against another
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import partial
from typing import NamedTuple, Optional

from mpmath import mp, mpf
from mpmath.libmp import (dps_to_prec, fone, fzero, mpf_abs, mpf_add,
                          mpf_cosh_sinh, mpf_div, mpf_exp, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_sub, round_nearest)

from .precision import (
    DEFAULT_CONTEXT,
    NonConvergenceError,
    PrecisionContext,
    expm1,
    positive,
    tally,
)
from .series import _bern_coef, _sum_terms


@dataclass
class QuadratureResult:
    """A rule's value, its error estimate, how many integrand values it
    took (pair calls for integrate_unit_square, distinct integrand calls
    for the 1-D rules) and how many levels the refinement computed."""

    value: object
    error_estimate: object
    nodes_used: int
    levels: int


# ---------------------------------------------------------------------------
# cached node tables
# ---------------------------------------------------------------------------

class _Node(NamedTuple):
    """One node of a table: its abscissa, the complement 1 - x (tanh-sinh
    only; None on the half line) and the weight dx/dt without the h
    factor."""

    x: mpf
    xc: Optional[mpf]
    w: mpf


@dataclass
class _NodeTable:
    """The nodes t = (i - n) h, i = 0 .. len(nodes) - 1, of one transform
    at one working precision; only the exp-decay table (ed0inf) has more
    nodes right of t = 0 than left.  node(i) reads node i and builds it with
    _build_table on its first read, so a table costs only the nodes that
    walks reach, and a wider t range costs nothing until one reaches it.
    built counts the nodes built so far."""

    kind: str
    dps: int
    h: mpf                      # finest step
    n: int                      # index of t = 0: floor(t_left / h)
    prec: int                   # bits of dps + 10, the nodes' precision
    c: tuple                    # _mpf_ of pi (ts01), pi/2 (es0inf),
                                # 2 pi (ed0inf, the Bose rule's y/x)
    nodes: list                 # _Node by index, None until first read
    built: int = 0
    qs: Optional[dict] = None   # (y/2 pi, 2 pi expm1(y)'s _mpf_) by index
    modes: Optional[dict] = None    # _BoseModes by node index, likewise

    def node(self, i: int) -> _Node:
        return self.nodes[i] or _build_table(self, i)


_TABLES: dict = {}

_TMAX_TS = mpf("6.3")
_TMAX_ES = mpf("5.6")      # the least exp-sinh t_max; see _get_table
_TMAX_ED = 40              # the exp-decay table's right end
_TOL_2D = mpf("1e-11")


def _finest_level(dps: int) -> int:
    if dps <= 45:
        return 8
    if dps <= 90:
        return 9
    return 10


def _build_table(tab: _NodeTable, i: int) -> _Node:
    """Build node i of tab and store it: in libmp at the table's dps + 10,
    each step of the mpf formulas

      ts01:   e = e^(-c sinh t), x = 1/(1 + e), 1 - x = e/(1 + e),
              w = c cosh t x (1 - x),
      es0inf: x = e^(c sinh t), w = c cosh t x,
      ed0inf: e = e^(-t), x = e^(t - e), w = x (1 + e),

    in their order and rounded as mpf arithmetic rounds it, whatever the
    ambient precision."""
    prec, c, rnd = tab.prec, tab.c, round_nearest
    t = mpf_mul_int(tab.h._mpf_, i - tab.n, prec, rnd)
    xc = None
    if tab.kind == "ed0inf":
        e = mpf_exp(mpf_neg(t), prec, rnd)
        x = mpf_exp(mpf_sub(t, e, prec, rnd), prec, rnd)
        w = mpf_mul(x, mpf_add(fone, e, prec, rnd), prec, rnd)
    else:
        ch, sh = mpf_cosh_sinh(t, prec, rnd)
        cch = mpf_mul(c, ch, prec, rnd)
        if tab.kind == "ts01":
            e = mpf_exp(mpf_mul(mpf_neg(c), sh, prec, rnd), prec, rnd)
            d = mpf_add(fone, e, prec, rnd)
            x = mpf_div(fone, d, prec, rnd)
            xc = mpf_div(e, d, prec, rnd)
            w = mpf_mul(mpf_mul(cch, x, prec, rnd), xc, prec, rnd)
            xc = mp.make_mpf(xc)
        else:
            x = mpf_exp(mpf_mul(c, sh, prec, rnd), prec, rnd)
            w = mpf_mul(cch, x, prec, rnd)
    node = tab.nodes[i] = _Node(mp.make_mpf(x), xc, mp.make_mpf(w))
    tab.built += 1
    return node


def _get_table(kind: str, dps: int) -> _NodeTable:
    key = (kind, dps)
    tab = _TABLES.get(key)
    if tab is None:
        h = mpf(1) / (1 << _finest_level(dps))
        with mp.workdps(dps + 10):
            if kind == "ts01":
                lo = hi = _TMAX_TS
                c = +mp.pi
            elif kind == "es0inf":
                # the node at -t_max, e^(-c sinh t_max), is 10^-(dps+10)
                lo = hi = max(_TMAX_ES,
                              mp.asinh(2 * mp.ln10 * (dps + 10) / mp.pi))
                c = mp.pi / 2
            else:
                # the node at -lo, e^(-lo - e^lo), is below 10^-(dps+10)
                lo, hi = mp.ln((dps + 10) * mp.ln10), _TMAX_ED
                c = 2 * mp.pi
            n = int(mp.floor(lo / h))
            m = int(mp.floor(hi / h))
        tab = _TABLES[key] = _NodeTable(
            kind=kind, dps=dps, h=h, n=n, prec=dps_to_prec(dps + 10),
            c=c._mpf_, nodes=[None] * (n + m + 1))
    return tab


class _BoseModes(NamedTuple):
    """What the kernel route reads of one exp-sinh node x, for the N modes
    of its table."""

    q: mpf          # e^(-2 pi x)
    head: mpf       # q + q^2 + ... + q^(N-1)
    qn: mpf         # q^N


def _bose_qs(tab: _NodeTable, i: int, modes: bool = False):
    """Build node i's Bose record at the table's dps + 10 and keep it;
    tally bose_records_built.  For the direct route, on the exp-decay
    table, whose node is y = 2 pi x, the record in tab.qs is x and the
    _mpf_ of 2 pi expm1(y), at the precision the direct route runs at.
    With modes, on the exp-sinh table, it is the node's _BoseModes for
    N = max(20, int(0.8 dps)) modes, in tab.modes.

    The mode sum is split in binary: G(m) = 1 + q + ... + q^(m-1) and
    P(m) = q^m double as G(2m) = G(m)(1 + P(m)), P(2m) = P(m)^2 and step
    as G(m+1) = G(m) + P(m), P(m+1) = P(m) q, up to m = N - 1; then the
    mode sum is q G(N-1) and q^N = q P(N-1).  That is O(log N) products
    of positive numbers, so nothing cancels even at the smallest nodes,
    where q is within 10^-(dps+9) of 1.
    """
    if tab.qs is None:
        tab.qs, tab.modes = {}, {}
    tally(bose_records_built=1)
    with mp.workdps(tab.dps + 10):
        v = tab.node(i).x
        if not modes:
            tab.qs[i] = rec = (v / mp.make_mpf(tab.c),
                               (mp.make_mpf(tab.c) * expm1(v))._mpf_)
            return rec
        q = mp.exp(-2 * mp.pi * v)
        g, p = mpf(0), mpf(1)
        for bit in bin(max(20, int(0.8 * tab.dps)) - 1)[2:]:
            g, p = g * (1 + p), p * p
            if bit == "1":
                g, p = g + p, p * q
        rec = tab.modes[i] = _BoseModes(q, q * g, q * p)
    return rec


def _bose_value(tab: _NodeTable, i: int, modes: bool = False):
    """Node i's (x, 2 pi expm1(y)'s _mpf_), or its _BoseModes, built on
    first use."""
    v = ((tab.modes if modes else tab.qs) or {}).get(i)
    return v if v is not None else _bose_qs(tab, i, modes)


# ---------------------------------------------------------------------------
# refinement driver and outward walk
# ---------------------------------------------------------------------------

def _refine(level, strides, tol, dps=None):
    """Coarse-to-fine refinement shared by every rule.

    level(stride) is the rule's value on one stride sub-grid of a node
    table; strides run coarse to fine.  Returns (value, error, levels) for
    the first level accepted, levels counting the levels computed up to
    it; raises NonConvergenceError when no level is.  A level is accepted
    when its difference from the level before, its error, is below tol
    (relative once |value| > 1).

    With dps, the working digits of a 1-D rule, a level L_k, k >= 3, is
    also accepted when the digits a and b of its last two differences,
    relative to s = max(1, |L_k|), grow as a double-exponential rule's
    do, about doubling per halving of h: a > b > 0 and the difference
    they extrapolate to, min(a^2/b, 2a) digits (mpmath's estimate), lies
    past dps + 3.  No 1-D level is resolved past the terms its walk
    drops, tol 10^-6 each, so a 1-D rule's error is never below
    tol 10^-6 s, and a level accepted on the extrapolation reports that.
    """
    prev = err = None
    a = 0
    for levels, stride in enumerate(strides, 1):
        val = level(stride)
        if prev is not None:
            err = abs(val - prev)
            scale = max(1, abs(val))
            floor = tol * scale / 10 ** 6 if dps else 0
            if err < tol * scale:
                return val, max(err, floor), levels
            b, a = a, float(-mp.log10(err / scale))
            if dps and a > b > 0 and min(a * a / b, 2 * a) >= dps + 3:
                return val, floor, levels
        prev = val
    raise NonConvergenceError(
        "quadrature stalled: level difference %s above tol %s"
        % (mp.nstr(err, 3), mp.nstr(tol, 3)))


def _strides(dps: int) -> list:
    """1-D strides over the finest table: h = 1/4 down to the finest step."""
    return [1 << k for k in range(_finest_level(dps) - 2, -1, -1)]


def _walk(tab: _NodeTable, stride: int, small, reach):
    """Indices of the stride sub-grid from the center outward (the center,
    the right side, the left) and, per side (right, left), the offset of
    the last index whose term is not small(i).

    A side stops after 3 consecutive small terms past its offset in reach,
    a coarser level's, so a finer level never stops in a negligible band
    that the coarse level stepped over to find mass; and only once mass
    has been seen: at the center, on either side at this level or in
    reach.  The left side is walked first, so that mass found there lets
    the right side stop.  A side may run out of table; _integrate_on_table
    refuses a level that did so on a term that matters."""
    mid = tab.n
    seen = not small(mid) or any(reach)
    sides = []
    for side, r, end in ((-1, reach[1], mid),
                         (1, reach[0], len(tab.nodes) - 1 - mid)):
        idxs = []
        run = last = 0
        off = stride
        while off <= end and (run < 3 or off <= r or not seen):
            i = mid + side * off
            idxs.append(i)
            if small(i):
                run += 1
            else:
                run, last, seen = 0, off, True
            off += stride
        sides.append((idxs, last))
    (left, l_last), (right, r_last) = sides
    return [mid] + right + left, [r_last, l_last]


def _integrate_on_table(feval, tab: _NodeTable, tol, dps):
    """h sum f(x_i) w_i refined over the table, with feval(i) the _mpf_ of
    f(x_i).  Each term is computed once in libmp, rounded as mpf
    arithmetic rounds it, kept as its _mpf_ with whether it is below
    tol 10^-6, and reused by every finer level; a level adds its terms in
    walk order with libmp's mpf_add."""
    terms: dict = {}
    prec, rnd = mp._prec_rounding
    eps_term = (tol * mpf(10) ** (-6))._mpf_
    reach = (0, 0)

    def rec(i):
        r = terms.get(i)
        if r is None:
            t = mpf_mul(feval(i), tab.node(i).w._mpf_, prec, rnd)
            r = terms[i] = (t, mpf_lt(mpf_abs(t), eps_term))
        return r

    def level(stride):
        nonlocal reach
        idxs, reach = _walk(tab, stride, lambda i: rec(i)[1], reach)
        total = fzero
        for i in idxs:
            total = mpf_add(total, rec(i)[0], prec, rnd)
        val = mp.make_mpf(total) * tab.h * stride
        # a side whose last term that is not small sits on the table's
        # last node of this grid ran out of table, not of mass; it leaves
        # out about that term, so the level fails where the term is above
        # the tolerance _refine settles on
        for side, last, end in ((1, reach[0], len(tab.nodes) - 1 - tab.n),
                                (-1, reach[1], tab.n)):
            if last > end - stride and abs(mp.make_mpf(
                    rec(tab.n + side * last)[0])) >= tol * max(1, abs(val)):
                raise NonConvergenceError(
                    "quadrature walk reached the %s end of its %s table on a"
                    " term that is not negligible"
                    % ("right" if side > 0 else "left", tab.kind))
        return val

    val, err, levels = _refine(level, _strides(dps), tol, dps)
    return QuadratureResult(+val, +err, len(terms), levels)


def _tallied(engine: str, res: QuadratureResult,
             nodes_built: int) -> QuadratureResult:
    """res, its nodes_used, error estimate and levels tallied for the
    engine, with the table nodes the call had to build."""
    tally(**{engine + "_nodes": res.nodes_used,
             engine + "_error": float(res.error_estimate),
             engine + "_levels": res.levels},
          table_nodes_built=nodes_built)
    return res


def _default_tol(ctx: PrecisionContext):
    with ctx.working():
        return mpf(10) ** -ctx.aim_digits


def _rule(engine: str, kind: str, ctx: PrecisionContext,
          integrate) -> QuadratureResult:
    """The body of every 1-D rule.  At ctx's working digits + 10, runs
    integrate(tab, tol, dps) on the kind's table for the working digits
    with the default tol, and tallies the result for the engine."""
    with ctx.working(10):
        dps = ctx.working_digits
        tab = _get_table(kind, dps)
        built = tab.built
        res = integrate(tab, _default_tol(ctx), dps)
        return _tallied(engine, res, tab.built - built)


def _on_nodes(f_node):
    """integrate for _rule: _integrate_on_table with
    feval(i) = f_node(tab.node(i))._mpf_."""
    return lambda tab, tol, dps: _integrate_on_table(
        lambda i: f_node(tab.node(i))._mpf_, tab, tol, dps)


def tanh_sinh_01(f, ctx: PrecisionContext = DEFAULT_CONTEXT
                 ) -> QuadratureResult:
    """integral of f(x, 1 - x) over (0,1).  f gets each node with its
    exact complement, which stays accurate exponentially close to 1; f
    must be safe at every interior node (x can be as small as ~1e-90)."""
    return _rule("tanh_sinh", "ts01", ctx,
                 _on_nodes(lambda nd: f(nd.x, nd.xc)))


# ---------------------------------------------------------------------------
# Bose-weight integrals over the Bose values kept per node
# ---------------------------------------------------------------------------

def _bose_direct(g, tab: _NodeTable, tol, dps):
    """The direct route on the exp-decay table: the transformed integral
    of g(x_i)/(2 pi expm1(y_i)), x_i = y_i/2 pi and the divisor read from
    the node's record, the division in libmp."""
    prec, rnd = mp._prec_rounding

    def feval(i):
        x, q = _bose_value(tab, i)
        return mpf_div(g(x)._mpf_, q, prec, rnd)
    return _integrate_on_table(feval, tab, tol, dps)


def _bose_kernel(g, tab: _NodeTable, tol, dps):
    """The kernel route on the exp-sinh table: the mode expansion of
    _BoseKernelSums refined on its own, with g read from one cache of
    node values, so nodes_used counts distinct calls of g."""
    gvals: dict = {}

    def cached(i):
        v = gvals.get(i)
        if v is None:
            v = gvals[i] = g(tab.node(i).x)
        return v

    val, err, levels = _refine(_BoseKernelSums(cached, tab, tol).value,
                               _strides(dps), tol, dps)
    return QuadratureResult(+val, +err, len(gvals), levels)


class _BoseKernelSums:
    """Mode-expansion state for integrate_bose's kernel route.

      sum_{n>=1} T(n),  T(n) = int g(x) e^(-2 pi n x) dx,

    with the modes n < N summed in closed form and the tail closed by
    Euler-Maclaurin in the mode index:

      tail = int_N^inf T + T(N)/2 + sum_j B_2j/(2j)! D_{2j-1}(N),
      D_m(N) = int g(x) (2 pi x)^m e^(-2 pi N x) dx = (-1)^m T^(m)(N).

    On a level's nodes the modes n < N are one sum of g_i w_i times the
    node's mode sum q_i + ... + q_i^(N-1), q_i = e^(-2 pi x_i); the moments
    D_m sum a_i y_i^m with a_i = g_i w_i q_i^N and y_i = 2 pi x_i, advanced
    by y_i^2 per term.  gval(i) = g(x_i) is the call's node cache.
    """

    def __init__(self, gval, tab: _NodeTable, tol):
        self.gval = gval
        self.tab = tab
        self.eps_term = tol * mpf(10) ** (-6)
        self.reach = (0, 0)     # of the last walk, the next one's start

    def value(self, stride: int):
        tab = self.tab
        gval = self.gval
        two_pi = 2 * mp.pi
        # window truncated on the n = 1 mode terms; the 1/(2 pi x) factor
        # of the closing integral term is folded into the test so the
        # small-x tail is not cut prematurely
        def small(i):
            nd = tab.node(i)
            return abs(gval(i) * _bose_value(tab, i, True).q
                       * (nd.w * (1 + 1 / (two_pi * nd.x)))) < self.eps_term

        idxs, self.reach = _walk(tab, stride, small, self.reach)
        idxs.sort()
        hs = tab.h * stride
        nodes = [tab.node(i) for i in idxs]
        recs = [_bose_value(tab, i, True) for i in idxs]
        gw = [gval(i) * nd.w for i, nd in zip(idxs, nodes)]
        acc = mp.fsum([c * r.head for c, r in zip(gw, recs)]) * hs
        # a = g w q^N: the integral over n > N and T(N)/2
        a = [c * r.qn for c, r in zip(gw, recs)]
        y = [two_pi * nd.x for nd in nodes]
        acc += (mp.fsum([ai / yi for ai, yi in zip(a, y)])
                + mp.fsum(a) / 2) * hs

        def terms():
            b = [ai * yi for ai, yi in zip(a, y)]
            y2 = [yi * yi for yi in y]
            for j in range(1, tab.dps):
                yield _bern_coef(j) * (mp.fsum(b) * hs)
                b = [bi * y2i for bi, y2i in zip(b, y2)]

        return _sum_terms(terms(), acc, self.eps_term)


def integrate_bose(g, ctx: PrecisionContext = DEFAULT_CONTEXT,
                   oscillatory: bool = False) -> QuadratureResult:
    """int_0^inf g(x)/(e^(2 pi x) - 1) dx by the direct route, on the
    exp-decay table in y = 2 pi x.

    oscillatory=True takes the kernel route on the exp-sinh table
    instead; it is kept as the tests' reference for the direct route, and
    every Bose value in the catalog is checked against another engine.
    table_nodes_built tallies the table nodes this call had to build, and
    _bose_qs each Bose record of a node it builds.
    """
    if oscillatory:
        return _rule("bose", "es0inf", ctx, partial(_bose_kernel, g))
    return _rule("bose", "ed0inf", ctx, partial(_bose_direct, g))


def integrate_laplace(h, u, ctx: PrecisionContext = DEFAULT_CONTEXT
                      ) -> QuadratureResult:
    """int_0^inf e^(-u t) h(t) dt for u > 0 on the exp-decay table, with
    e^(-u t) in libmp; tallied as the laplace engine."""
    with ctx.working(10):
        uu = positive(u, "integrate_laplace")
        prec, rnd = mp._prec_rounding
        nu = (-uu)._mpf_
        return _rule("laplace", "ed0inf", ctx, _on_nodes(
            lambda nd: h(nd.x) * mp.make_mpf(mpf_exp(
                mpf_mul(nu, nd.x._mpf_, prec, rnd), prec, rnd))))


# ---------------------------------------------------------------------------
# 2-D unit square
# ---------------------------------------------------------------------------

def _dec(v):
    """mpf or int values, or a tuple of them, as Decimals rounded once."""
    if isinstance(v, tuple):
        return tuple(map(_dec, v))
    s, m, e, _ = mpf(v)._mpf_
    if not m:                   # 0, inf or nan
        return Decimal(str(mpf(v)))
    m = -m if s else m
    return Decimal(m) * (1 << e) if e >= 0 else Decimal(m) / (1 << -e)


def integrate_unit_square(node, pair, ctx: PrecisionContext = DEFAULT_CONTEXT
                          ) -> QuadratureResult:
    """Tensor tanh-sinh over (0,1)^2, clipped 1e-30 from the edges, of
    f(x, y) = pair(p, q) with p = node(x, 1 - x) and q = node(y, 1 - y).

    node gets each abscissa with its exact complement as mpf, may call mp
    functions and returns the factors pair needs (a value or a tuple); it
    runs once per node.  pair gets them as Decimals and may use only
    arithmetic, comparisons, min/max and ints: Decimal + mpf is a silent,
    slow mpf.  pair must be symmetric, pair(p, q) = pair(q, p): the rule
    sums one triangle and the diagonal.  A non-symmetric integrand is
    passed as its symmetric part, (f(p, q) + f(q, p))/2.

    Always works at min(ctx.working_digits, 45) digits, however many ctx
    asks for: the 2-D entries are pinned between 1e-10 and 1e-28, and two
    levels settle when they differ by less than _TOL_2D = 1e-11.  The
    levels h = 1/32, 1/64, 1/128 are nested: each adds to one running sum
    only the pairs that no coarser level summed.  Records and weights are
    rounded once to Decimals of the rule's digits + 10; pairs, rows and
    the running sum round each step at those digits, and each level
    returns to mpf once.  On the catalog's entries this lies within
    1.7e-43 of the same sums in mpf with exactly rounded rows (rows at
    twice the digits, with exact products, came as close and took as
    long).  When no level settles, the last being 1/128 against 1/64,
    the rule raises NonConvergenceError.  nodes_used counts pair
    evaluations.
    """
    dps = min(ctx.working_digits, 45)
    with mp.workdps(dps + 10), localcontext(Context(prec=dps + 10)):
        tab = _get_table("ts01", dps)
        # node records see exact complements and so stay finite arbitrarily
        # close to the edges; the stripped band only needs to sit below the
        # 2-D tolerance floor, not below working precision
        delta = mpf("1e-30")
        mid = tab.n
        built = tab.built
        recs: dict = {}     # node records of the last level's window
        total = Decimal(0)
        used = 0

        def window(stride):
            lo = mid
            while lo - stride >= 0 and tab.node(lo - stride).x > delta:
                lo -= stride
            hi = mid
            while (hi + stride < len(tab.nodes)
                   and tab.node(hi + stride).xc > delta):
                hi += stride
            return range(lo, hi + 1, stride)

        def level_value(stride):
            nonlocal recs, total, used
            idxs = window(stride)
            new = [i not in recs for i in idxs]
            ps = [_dec(node(*tab.node(i)[:2])) if nw else recs[i]
                  for i, nw in zip(idxs, new)]
            recs = dict(zip(idxs, ps))
            ws = [_dec(tab.node(i).w) for i in idxs]
            for a, p in enumerate(ps):
                cols = range(a) if new[a] else [b for b in range(a) if new[b]]
                row = sum([pair(p, ps[b]) * ws[b] for b in cols])
                used += len(cols)
                total += 2 * row * ws[a]
                if new[a]:
                    total += pair(p, p) * ws[a] * ws[a]
                    used += 1
            hs = tab.h * stride
            return mpf(str(total)) * hs * hs

        lvl_fin = _finest_level(dps)
        val, err, levels = _refine(
            level_value, [1 << (lvl_fin - s) for s in (5, 6, 7)], _TOL_2D)
        return _tallied("unit_square",
                        QuadratureResult(+val, +err, used, levels),
                        tab.built - built)
