"""Double-exponential quadrature cores.

Two transforms cover everything in this package:

  * tanh-sinh on (0,1):   x(t) = 1/(1 + e^(-pi sinh t)),
  * exp-sinh on (0,inf):  x(t) = e^((pi/2) sinh t),

each evaluated on a fixed fine grid in t that is cached per working
precision and shared by every integral at that precision.  Every rule,
1-D and 2-D, hands one driver (_refine) its value on a stride sub-grid of
the cached grid; the driver halves the stride until two levels agree and
reports their difference as the error estimate.  Every rule reuses
integrand values across levels; the 1-D rules truncate each level with one
outward walk (_walk) that stops a side after 3 negligible terms.

The Bose-weight integrator runs two genuinely different evaluations (the
direct transformed integral, and a mode expansion of the kernel with an
Euler-Maclaurin closure over the mode index) and refuses to answer if
they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from mpmath import mp, mpf

from .precision import (
    DEFAULT_CONTEXT,
    NonConvergenceError,
    PrecisionContext,
)
from .series import _bern_mpf


@dataclass
class Integrand1D:
    """A real integrand on (0,1) or (0,inf).

    eval(x) must be safe at every interior double-exponential node (x can
    be as small as ~1e-90 and, on (0,1), exponentially close to 1).  When
    behaviour near x = 1 needs the complement to stay accurate, supply
    eval_with_complement(x, one_minus_x); it then takes precedence.
    oscillatory marks integrands (sin/cos factors) for which the direct
    Bose route is hopeless and only the mode expansion is used.
    """

    eval: Callable
    eval_with_complement: Optional[Callable] = None
    oscillatory: bool = False


@dataclass
class Integrand2D:
    """Real integrand on the open unit square, f(x, y) = pair(p, q) with
    p = node(x, 1-x) and q = node(y, 1-y).

    node gets each abscissa with its exact complement and returns whatever
    one-variable factors pair needs; it runs once per node.
    symmetric=True promises pair(p, q) = pair(q, p) and halves the work.
    """

    node: Callable
    pair: Callable
    symmetric: bool = False


@dataclass
class QuadratureResult:
    value: object
    error_estimate: object
    nodes_used: int


# ---------------------------------------------------------------------------
# cached node tables
# ---------------------------------------------------------------------------

@dataclass
class _NodeTable:
    kind: str
    dps: int
    h: mpf                      # finest step
    ts: list = field(default_factory=list)      # t values
    xs: list = field(default_factory=list)      # abscissas
    xcs: list = field(default_factory=list)     # 1-x (tanh-sinh only)
    ws: list = field(default_factory=list)      # dx/dt, no h factor
    qs: Optional[list] = None   # e^(-2 pi x), built lazily for Bose modes


_TABLES: dict = {}

_TMAX_TS = mpf("6.3")
_TMAX_ES = mpf("5.6")


def _finest_level(dps: int) -> int:
    if dps <= 45:
        return 8
    if dps <= 90:
        return 9
    return 10


def _build_table(kind: str, dps: int) -> _NodeTable:
    lvl = _finest_level(dps)
    with mp.workdps(dps + 10):
        h = mpf(1) / (1 << lvl)
        tmax = _TMAX_TS if kind == "ts01" else _TMAX_ES
        n = int(mp.floor(tmax / h))
        ts, xs, xcs, ws = [], [], [], []
        half_pi = mp.pi / 2
        for i in range(-n, n + 1):
            t = i * h
            sh = mp.sinh(t)
            ch = mp.cosh(t)
            if kind == "ts01":
                e = mp.exp(-mp.pi * sh)
                x = 1 / (1 + e)
                xc = e / (1 + e)
                w = mp.pi * ch * x * xc
                xcs.append(xc)
            else:
                x = mp.exp(half_pi * sh)
                w = half_pi * ch * x
            ts.append(t)
            xs.append(x)
            ws.append(w)
        return _NodeTable(kind=kind, dps=dps, h=h, ts=ts, xs=xs,
                          xcs=xcs, ws=ws)


def _get_table(kind: str, dps: int) -> _NodeTable:
    key = (kind, dps)
    tab = _TABLES.get(key)
    if tab is None:
        tab = _build_table(kind, dps)
        _TABLES[key] = tab
    return tab


def _bose_qs(tab: _NodeTable) -> list:
    if tab.qs is None:
        with mp.workdps(tab.dps + 10):
            tab.qs = [mp.exp(-2 * mp.pi * x) for x in tab.xs]
    return tab.qs


# ---------------------------------------------------------------------------
# refinement driver and outward walk
# ---------------------------------------------------------------------------

def _refine(level, strides, tol):
    """Coarse-to-fine refinement shared by every rule.

    level(stride) is the rule's value on one stride sub-grid of a node
    table; strides run coarse to fine.  Returns (value, error, stride,
    settled) for the first level whose difference from the level before
    is below tol (relative once |value| > 1), or for the finest level
    with settled False when no level gets there.
    """
    prev = err = None
    for stride in strides:
        val = level(stride)
        if prev is not None:
            err = abs(val - prev)
            if err < tol * max(1, abs(val)):
                return val, err, stride, True
        prev = val
    return val, err, stride, False


def _strides(dps: int) -> list:
    """1-D strides over the finest table: h = 1/4 down to the finest step."""
    return [1 << k for k in range(_finest_level(dps) - 2, -1, -1)]


def _stalled(err, tol) -> NonConvergenceError:
    return NonConvergenceError(
        "quadrature stalled: level difference %s above tol %s"
        % (mp.nstr(err, 3), mp.nstr(tol, 3)))


def _walk(tab: _NodeTable, stride: int, term, eps) -> list:
    """Indices of the stride sub-grid, from the center outward: the center,
    then the right side, then the left, each side stopped after 3
    consecutive nodes with |term(i)| < eps."""
    mid = len(tab.xs) // 2
    idxs = [mid]
    for step in (stride, -stride):
        small = 0
        i = mid + step
        while 0 <= i < len(tab.xs) and small < 3:
            idxs.append(i)
            small = small + 1 if abs(term(i)) < eps else 0
            i += step
    return idxs


def _integrate_on_table(feval, tab: _NodeTable, tol, dps):
    """h sum f(x_i) w_i refined over the table; returns the result and the
    stride it settled on.  Each f value is computed once and reused by
    every finer level."""
    terms: list = [None] * len(tab.xs)
    eps_term = tol * mpf(10) ** (-6)

    def term(i):
        t = terms[i]
        if t is None:
            t = terms[i] = feval(i) * tab.ws[i]
        return t

    def level(stride):
        total = mpf(0)
        for i in _walk(tab, stride, term, eps_term):
            total += term(i)
        return total * tab.h * stride

    val, err, stride, settled = _refine(level, _strides(dps), tol)
    if not settled:
        raise _stalled(err, tol)
    used = sum(t is not None for t in terms)
    return QuadratureResult(value=+val, error_estimate=+err,
                            nodes_used=used), stride


def _default_tol(ctx: PrecisionContext):
    with ctx.working():
        return mpf(10) ** (-(ctx.target_digits + ctx.guard_digits // 2))


def tanh_sinh_01(f: Integrand1D, ctx: PrecisionContext = DEFAULT_CONTEXT,
                 tol=None) -> QuadratureResult:
    """integral of f over (0,1)."""
    with ctx.working(10):
        dps = ctx.working_digits
        tol = _default_tol(ctx) if tol is None else mpf(tol)
        tab = _get_table("ts01", dps)
        if f.eval_with_complement is not None:
            feval = lambda i: f.eval_with_complement(tab.xs[i], tab.xcs[i])
        else:
            feval = lambda i: f.eval(tab.xs[i])
        return _integrate_on_table(feval, tab, tol, dps)[0]


def exp_sinh_0inf(f: Integrand1D, ctx: PrecisionContext = DEFAULT_CONTEXT,
                  tol=None) -> QuadratureResult:
    """integral of f over (0,inf); f must decay essentially exponentially."""
    with ctx.working(10):
        dps = ctx.working_digits
        tol = _default_tol(ctx) if tol is None else mpf(tol)
        tab = _get_table("es0inf", dps)
        feval = lambda i: f.eval(tab.xs[i])
        return _integrate_on_table(feval, tab, tol, dps)[0]


# ---------------------------------------------------------------------------
# Bose-weight integrals, two ways
# ---------------------------------------------------------------------------

def _bose_direct(g: Integrand1D, tab: _NodeTable, tol, dps):
    """Direct transformed integral; also reports the stride it settled on."""
    two_pi = 2 * mp.pi
    return _integrate_on_table(
        lambda i: g.eval(tab.xs[i]) / mp.expm1(two_pi * tab.xs[i]),
        tab, tol, dps)


class _BoseKernelSums:
    """Mode-expansion state for the kernel route.

      sum_{n>=1} T(n),  T(n) = int g(x) e^(-2 pi n x) dx,

    with n < N summed term by term and the tail closed by Euler-Maclaurin
    in the mode index:

      tail = int_N^inf T + T(N)/2 + sum_j B_2j/(2j)! D_{2j-1}(N),
      D_m(N) = int g(x) (2 pi x)^m e^(-2 pi N x) dx = (-1)^m T^(m)(N).

    One g value per node, cached across strides; the mode factors are
    running products of the cached e^(-2 pi x) base values.
    """

    def __init__(self, g: Integrand1D, tab: _NodeTable, tol, n_modes: int):
        self.g = g
        self.tab = tab
        self.qs = _bose_qs(tab)
        self.n_modes = n_modes
        self.eps_term = tol * mpf(10) ** (-6)
        self.gvals: list = [None] * len(tab.xs)
        self.evals = 0

    def _gval(self, i):
        v = self.gvals[i]
        if v is None:
            v = self.g.eval(self.tab.xs[i])
            self.gvals[i] = v
            self.evals += 1
        return v

    def value(self, stride: int):
        tab = self.tab
        qs = self.qs
        two_pi = 2 * mp.pi
        # window truncated on the n = 1 mode terms; the 1/(2 pi x) factor
        # of the closing integral term is folded into the test so the
        # small-x tail is not cut prematurely
        idxs = sorted(_walk(
            tab, stride,
            lambda i: self._gval(i) * qs[i]
            * (tab.ws[i] * (1 + 1 / (two_pi * tab.xs[i]))),
            self.eps_term))
        hs = tab.h * stride
        N = self.n_modes
        acc = mpf(0)
        pv = {i: qs[i] for i in idxs}
        TN = mpf(0)
        for n in range(1, N + 1):
            Tn = mpf(0)
            for i in idxs:
                Tn += self._gval(i) * pv[i] * tab.ws[i]
            Tn *= hs
            if n < N:
                acc += Tn
                for i in idxs:
                    pv[i] *= qs[i]
            else:
                TN = Tn
        integral = mpf(0)
        for i in idxs:
            integral += (self._gval(i) * pv[i] / (two_pi * tab.xs[i])
                         * tab.ws[i])
        integral *= hs
        acc += integral + TN / 2
        prev = None
        for j in range(1, 25):
            m = 2 * j - 1
            D = mpf(0)
            for i in idxs:
                D += (self._gval(i) * pv[i] * (two_pi * tab.xs[i]) ** m
                      * tab.ws[i])
            D *= hs
            term = _bern_mpf(2 * j) / mp.factorial(2 * j) * D
            acc += term
            t = abs(term)
            if t < self.eps_term:
                break
            if prev is not None and t > prev:
                break
            prev = t
        return acc


def integrate_bose(g: Integrand1D, ctx: PrecisionContext = DEFAULT_CONTEXT,
                   tol=None) -> QuadratureResult:
    """int_0^inf g(x)/(e^(2 pi x) - 1) dx, cross-checked two ways.

    The direct transformed integral and the kernel mode expansion must
    agree within 10x the requested tolerance or NonConvergenceError is
    raised; the direct value (usually the more accurate one) is returned.
    Oscillatory integrands skip the direct route and refine the mode
    expansion on its own.
    """
    with ctx.working(10):
        dps = ctx.working_digits
        tol = _default_tol(ctx) if tol is None else mpf(tol)
        tab = _get_table("es0inf", dps)
        n_modes = max(20, int(0.8 * ctx.working_digits))
        kern = _BoseKernelSums(g, tab, tol, n_modes)
        if g.oscillatory:
            val, err, _, settled = _refine(kern.value, _strides(dps), tol)
            if not settled:
                raise _stalled(err, tol)
            return QuadratureResult(+val, +err, kern.evals)
        direct, stride = _bose_direct(g, tab, tol, dps)
        kval = kern.value(stride)
        diff = abs(direct.value - kval)
        if diff > 10 * tol * max(1, abs(direct.value)):
            raise NonConvergenceError(
                "bose routes disagree: |direct-kernel| = %s" % mp.nstr(diff, 3))
        return QuadratureResult(
            value=direct.value,
            error_estimate=max(direct.error_estimate, diff),
            nodes_used=direct.nodes_used + kern.evals)


def integrate_laplace(h: Integrand1D, u, ctx: PrecisionContext = DEFAULT_CONTEXT,
                      tol=None) -> QuadratureResult:
    """int_0^inf e^(-u t) h(t) dt for u > 0."""
    with ctx.working(10):
        uu = mpf(u)
        if not 0 < uu < mp.inf:
            raise ValueError("integrate_laplace requires finite u > 0")
        inner = Integrand1D(eval=lambda t: h.eval(t) * mp.exp(-uu * t))
        return exp_sinh_0inf(inner, ctx, tol)


# ---------------------------------------------------------------------------
# 2-D unit square
# ---------------------------------------------------------------------------

def integrate_unit_square(f2: Integrand2D,
                          ctx: PrecisionContext = DEFAULT_CONTEXT,
                          tol=None) -> QuadratureResult:
    """Tensor tanh-sinh over (0,1)^2, clipped 1e-30 from the edges.

    Always works at min(ctx.working_digits, 45) digits, however many ctx
    asks for: the 2-D entries verify to 1e-8..1e-15, and tol defaults to
    1e-11.  The levels h = 1/32, 1/64, 1/128 are nested: each adds to one
    running sum only the pairs that no coarser level summed, and
    f2.node runs once per node for all of them.  Rows keep the y-nodes
    innermost so the per-row cancellations stay inside one partial sum.
    An undecided 1/128 level is returned with its difference from 1/64 as
    the error estimate.  nodes_used counts f2.pair evaluations.
    """
    dps = min(ctx.working_digits, 45)
    with mp.workdps(dps + 10):
        tol = mpf("1e-11") if tol is None else mpf(tol)
        tab = _get_table("ts01", dps)
        # node records see exact complements and so stay finite arbitrarily
        # close to the edges; the stripped band only needs to sit below the
        # 2-D tolerance floor, not below working precision
        delta = mpf("1e-30")
        mid = len(tab.xs) // 2
        recs: dict = {}     # node records of the last level's window
        total = mpf(0)
        used = 0

        def window(stride):
            lo = mid
            while lo - stride >= 0 and tab.xs[lo - stride] > delta:
                lo -= stride
            hi = mid
            while hi + stride < len(tab.xs) and tab.xcs[hi + stride] > delta:
                hi += stride
            return range(lo, hi + 1, stride)

        def level_value(stride):
            nonlocal recs, total, used
            idxs = window(stride)
            new = [i not in recs for i in idxs]
            ps = [f2.node(tab.xs[i], tab.xcs[i]) if nw else recs[i]
                  for i, nw in zip(idxs, new)]
            recs = dict(zip(idxs, ps))
            ws = [tab.ws[i] for i in idxs]
            for a, p in enumerate(ps):
                cols = range(a) if f2.symmetric else range(len(ps))
                if not new[a]:
                    cols = [b for b in cols if new[b]]
                row = mpf(0)
                for b in cols:
                    row += f2.pair(p, ps[b]) * ws[b]
                used += len(cols)
                if f2.symmetric:
                    total += 2 * row * ws[a]
                    if new[a]:
                        total += f2.pair(p, p) * ws[a] * ws[a]
                        used += 1
                else:
                    total += row * ws[a]
            hs = tab.h * stride
            return total * hs * hs

        lvl_fin = _finest_level(dps)
        val, err, _, _ = _refine(
            level_value, [1 << (lvl_fin - s) for s in (5, 6, 7)], tol)
        return QuadratureResult(+val, +err, used)
