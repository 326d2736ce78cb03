"""Precision-context and numeric-primitive behavior."""

import collections
import random

import pytest
from mpmath import mp, mpf

from stieltjes import precision
from stieltjes.precision import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    agreed_digits,
    engines,
    recording,
    tally,
)


def test_default_budgets():
    assert DEFAULT_CONTEXT.working_digits == 50
    assert DEFAULT_CONTEXT.target_digits == 30
    assert DEFAULT_CONTEXT.guard_digits == 20
    assert DEFAULT_CONTEXT == PrecisionContext.for_digits(30)


def test_tolerance_scale():
    with DEFAULT_CONTEXT.working():
        assert DEFAULT_CONTEXT.tolerance == mpf(10) ** -25
    ctx = PrecisionContext.for_digits(40)
    with ctx.working():
        assert ctx.tolerance == mpf(10) ** -35


def test_for_digits_budgets():
    ctx = PrecisionContext.for_digits(15)
    assert ctx == PrecisionContext(15)
    assert ctx.target_digits == 15
    assert ctx.working_digits == 35
    assert ctx.guard_digits == 20
    assert ctx.aim_digits == 25


def test_invalid_contexts_rejected():
    # target not positive; every other budget follows from the target
    for target in (0, -5):
        with pytest.raises(ValueError):
            PrecisionContext(target_digits=target)
        with pytest.raises(ValueError):
            PrecisionContext.for_digits(target)


def test_positive_converts_at_the_working_precision_and_names_its_caller():
    with mp.workdps(40):
        assert precision.positive("0.1", "digamma") == mpf("0.1")
    for v in (0, -1, mp.nan, mp.inf, "-inf"):
        with pytest.raises(ValueError,
                           match=r"^barnes_g_log requires finite t > 0$"):
            precision.positive(v, "barnes_g_log", "t")


def test_working_context_manager_sets_and_restores():
    before = mp.dps
    with DEFAULT_CONTEXT.working():
        assert mp.dps == 50
        with DEFAULT_CONTEXT.working(10):
            assert mp.dps == 60
        assert mp.dps == 50
    assert mp.dps == before


class TestAgreedDigits:
    def test_exact_match_caps_at_working(self):
        with DEFAULT_CONTEXT.working():
            assert agreed_digits(mpf(1) / 3, mpf(1) / 3) == 50

    def test_absolute_scale_for_small_values(self):
        with DEFAULT_CONTEXT.working():
            a = mpf("1e-10")
            b = a + mpf("1e-30")
            assert 29 <= agreed_digits(a, b) <= 30

    def test_significant_scale_for_large_values(self):
        with DEFAULT_CONTEXT.working():
            a = mpf("12345.6789")
            b = a * (1 + mpf("1e-20"))
            assert 19 <= agreed_digits(a, b) <= 21

    def test_disagreement_floor(self):
        assert agreed_digits(1, 2) in (0, 1)


class TestRecord:
    def test_tally_without_a_record_leaves_nothing_behind(self):
        tally(em_terms=3, stop_small=1)
        with recording() as rec:
            pass
        assert rec == {}

    def test_tallies_add_up(self):
        with recording() as rec:
            tally(bose_nodes=10, bose_error=0.5)
            tally(bose_nodes=5, stop_cap=1)
        assert rec == {"bose_nodes": 15, "bose_error": 0.5, "stop_cap": 1}

    def test_nested_record_starts_empty_and_adds_to_the_enclosing_one(self):
        with recording() as outer:
            tally(em_terms=2)
            with recording() as inner:
                tally(em_terms=3, binomial_depth=7)
            assert inner == {"em_terms": 3, "binomial_depth": 7}
            assert outer == {"em_terms": 5, "binomial_depth": 7}
            tally(stop_floor=1)
        assert outer == {"em_terms": 5, "binomial_depth": 7, "stop_floor": 1}
        assert inner == {"em_terms": 3, "binomial_depth": 7}

    def test_engines_are_read_from_key_prefixes(self):
        assert engines({"laplace_nodes": 1, "em_terms": 2, "stop_cap": 1,
                        "aux_lattice_n": 4}) == {"laplace", "em",
                                                 "aux_lattice"}
        assert engines({"stop_small": 3}) == set()


def _args(rng, prec):
    """mpf arguments at precision prec: random prec-bit mantissas of both
    signs at magnitudes 2^-8 to 2^6, 2^-(prec/2) to 2^-10, exactly
    2^-(prec+10) and below it; then 0, inf, -inf, nan, -1, a value below
    -1 and -1 + 2^-prec."""
    out = []
    for lo, hi in ((-8, 6), (-(prec // 2), -10),
                   (-(prec + 10), -(prec + 10)), (-2 * prec, -(prec + 11))):
        for _ in range(8):
            man = rng.getrandbits(prec) | 1 << (prec - 1)
            out.append(rng.choice((1, -1)) * mpf(man)
                       * mpf(2) ** (rng.randint(lo, hi) - prec))
    return out + [mpf(0), mp.inf, -mp.inf, mp.nan, mpf(-1),
                  -1 - mpf(rng.random()), -1 + mpf(2) ** -prec]


@pytest.mark.parametrize("name", ["expm1", "log1p"])
def test_expm1_and_log1p_match_mpmath_bit_for_bit(monkeypatch, name):
    # on a seeded random set at 25 to 130 digits, through every branch:
    # the libmp path and each fallback to mpmath's own function
    helper, real = getattr(precision, name), getattr(mp, name)
    fell_back = []
    monkeypatch.setattr(mp, name, lambda x: fell_back.append(x) or real(x))
    rng = random.Random(26)
    branches = collections.Counter()
    for _ in range(40):
        with mp.workdps(rng.randint(25, 130)):
            for x in _args(rng, mp.prec):
                before = len(fell_back)
                got, want = helper(x), real(x)
                assert type(got) is type(want), x
                assert getattr(got, "_mpf_", None) == getattr(
                    want, "_mpf_", None), x
                assert getattr(got, "_mpc_", None) == getattr(
                    want, "_mpc_", None), x
                _, man, exp, bc = x._mpf_
                if len(fell_back) == before:
                    branches["libmp"] += 1
                elif not man:
                    branches["0, inf or nan"] += 1
                elif exp + bc < -(mp.prec + 10):
                    branches["below 2^-(prec+10)"] += 1
                else:   # expm1 cancels 10 bits, or log1p's x <= -1
                    branches["other"] += 1
    assert len(branches) == 4 and min(branches.values()) >= 40, branches
