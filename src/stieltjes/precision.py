"""Precision policy, digit agreement, the error types and the one check
of a positive argument (positive).

Everything numerical in this package runs through a PrecisionContext.  It
holds one number, target_digits, what the caller wants to trust; the rest
follows from it:

  * guard_digits   - 20 digits of headroom for cancellation (binomial sums
                     in particular destroy roughly 0.3 digits per term
                     index),
  * working_digits - what mpmath actually computes with, target + guard,
  * aim_digits     - what the engines aim their tolerances at,
                     target + guard // 2.

Routines never touch the global mpmath precision except through the
``working`` context manager, so results are reproducible no matter what the
ambient ``mp.dps`` happens to be.

How a value was produced is kept in one provenance record: ``recording()``
opens a flat dict of numbers, and the engines ``tally`` their counts into
it at their exits.  With no record open a tally does nothing.

expm1 and log1p are mpmath's own, bit for bit, at the working precision,
computed in libmp (mpmath's low-level layer): without mpmath's wrappers,
and for expm1 its sum_accurately loop, they take about half the time.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import fnone, fone, mpf_add, mpf_exp, mpf_log, mpf_pos


class PrecisionExhaustedError(Exception):
    """A route cannot reach the requested accuracy by any admissible means.

    Raised when the mathematics (not the budget) is the obstacle: slowly
    convergent binomial sums, truncation floors of asymptotic series, and
    similar.  Callers that can fall back to another route should catch this.
    """


class NonConvergenceError(Exception):
    """An iterative scheme failed its own self-consistency check.

    Unlike PrecisionExhaustedError this signals a diagnostic failure (e.g.
    an Euler-Maclaurin evaluation whose N and 2N runs disagree), not a known
    structural limit.
    """


@dataclass(frozen=True)
class PrecisionContext:
    """The digits a caller wants to trust, and the budgets derived from
    them.  target_digits must be positive."""

    target_digits: int = 30

    #: Headroom above the target digits, the same for every context.
    guard_digits = 20

    def __post_init__(self) -> None:
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")

    @classmethod
    def for_digits(cls, digits: int) -> "PrecisionContext":
        """Context that trusts `digits` digits."""
        return cls(digits)

    @property
    def working_digits(self) -> int:
        """What mpmath computes with: target + guard digits."""
        return self.target_digits + self.guard_digits

    @property
    def aim_digits(self) -> int:
        """What the engines aim at: target + guard // 2 digits."""
        return self.target_digits + self.guard_digits // 2

    @property
    def tolerance(self) -> mpf:
        """Default verification tolerance, 10^-(target_digits - 5)."""
        with self.working():
            return mpf(10) ** (5 - self.target_digits)

    def working(self, extra: int = 0):
        """Context manager pinning mp.dps to working_digits (+ extra)."""
        return mp.workdps(self.working_digits + extra)


#: Module-wide default: 30 trusted digits, 50 working.
DEFAULT_CONTEXT = PrecisionContext()


def agreed_digits(a, b, ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
    """How many digits two values share: -log10 of |a-b| scaled by |a|.

    Uses absolute digits when |a| <= 1 and significant digits otherwise,
    capped at the working precision so noise cannot inflate the count.
    """
    with ctx.working():
        a = mpf(a)
        b = mpf(b)
        diff = abs(a - b)
        if diff == 0:
            return ctx.working_digits
        scale = max(abs(a), mpf(1))
        d = -mp.log10(diff / scale)
        return max(0, min(ctx.working_digits, int(mp.floor(d))))


def positive(v, who: str, name: str = "u") -> mpf:
    """v as an mpf at the caller's working precision; ValueError
    "<who> requires finite <name> > 0" unless 0 < v < inf (nan fails)."""
    v = mpf(v)
    if not 0 < v < mp.inf:
        raise ValueError("%s requires finite %s > 0" % (who, name))
    return v


#: The engines a value can come from; a quadrature engine is named for its
#: rule, not for the node table it reads.  Every tally key but _sum_terms'
#: stop reasons (stop_small, stop_floor, stop_cap), the quadrature's
#: table_nodes_built, binet_kernel's kernel_values_built, the series
#: kernels' kernel_terms and series._up's recurrence_steps starts with one
#: of these and an underscore.
ENGINES = ("em", "bose", "laplace", "tanh_sinh", "unit_square",
           "aux_lattice", "binomial", "stirling")

_RECORD: ContextVar = ContextVar("stieltjes_record", default=None)


@contextmanager
def recording():
    """Open a provenance record: a Counter that every tally made inside
    the block adds to.  A record opened inside another starts empty, and
    on exit its counts are added to the enclosing record too."""
    rec = Counter()
    token = _RECORD.set(rec)
    try:
        yield rec
    finally:
        _RECORD.reset(token)
        tally(**rec)


def tally(**counts) -> None:
    """Add counts to the open record; with none open, do nothing."""
    rec = _RECORD.get()
    if rec is not None:
        rec.update(counts)


def engines(record) -> set:
    """The ENGINES that tallied into a record."""
    return {e for e in ENGINES if any(k.startswith(e + "_") for k in record)}


def expm1(x: mpf) -> mpf:
    """mp.expm1(x) for an mpf x, bit for bit.  As mpmath 1.3 does it:
    exp(x) at prec + 25 bits, minus 1 at that precision, rounded once to
    prec.  Where that cancels 10 bits or more, for |x| < 2^-(prec+10) and
    for 0, inf and nan, mp.expm1 itself."""
    prec, rnd = mp._prec_rounding
    v = x._mpf_
    if v[1] and v[2] + v[3] >= -(prec + 10):
        wp = prec + 25
        e = mpf_exp(v, wp, rnd)
        s = mpf_add(e, fnone, wp, rnd)
        if max(e[2] + e[3], 1) - (s[2] + s[3]) < 10:
            return mp.make_mpf(mpf_pos(s, prec, rnd))
    return mp.expm1(x)


def log1p(x: mpf) -> mpf:
    """mp.log1p(x) for an mpf x, bit for bit.  As mpmath 1.3 does it: log
    at prec + 10 bits of 1 + x formed at twice that, rounded once to prec.
    For |x| < 2^-(prec+10), x <= -1 and 0, inf and nan, mp.log1p
    itself."""
    prec, rnd = mp._prec_rounding
    v = x._mpf_
    wp = prec + 10
    if v[1] and v[2] + v[3] >= -wp:
        y = mpf_add(fone, v, 2 * wp, rnd)
        if y[1] and not y[0]:
            return mp.make_mpf(mpf_pos(mpf_log(y, wp, rnd), prec, rnd))
    return mp.log1p(x)
