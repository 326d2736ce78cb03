"""Quadrature engine checks against closed forms.

Every rule is exercised on integrals whose values are elementary, so a
failure points at the rule rather than at the function layer built on it.
"""

import random
from decimal import MIN_EMIN, Context, Decimal, getcontext, localcontext
from functools import partial
from itertools import takewhile

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_cosh_sinh

from stieltjes import functions, quadrature
from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.precision import (NonConvergenceError, PrecisionContext,
                                 recording)
from stieltjes.quadrature import (
    _bose_value,
    _BoseKernelSums,
    _default_tol,
    _get_table,
    _on_nodes,
    _refine,
    _rule,
    _walk,
    integrate_bose,
    integrate_laplace,
    integrate_unit_square,
    tanh_sinh_01,
)

TOL = mpf(10) ** -40


def eager_nodes(kind, dps, step=1):
    """The node table as one loop over every step-th index, the way it was
    built before nodes were built on first read: (x, 1 - x or None, w) by
    index i + n of t = i h."""
    lvl = quadrature._finest_level(dps)
    with mp.workdps(dps + 10):
        h = mpf(1) / (1 << lvl)
        if kind == "ts01":
            tmax = quadrature._TMAX_TS
        else:   # the node at t_max is 10^-(dps+10), or t_max = 5.6
            tmax = max(quadrature._TMAX_ES,
                       mp.asinh(2 * mp.ln10 * (dps + 10) / mp.pi))
        n = int(mp.floor(tmax / h))
        nodes = {}
        half_pi = mp.pi / 2
        for i in range(-n, n + 1, step):
            t = i * h
            sh = mp.sinh(t)
            ch = mp.cosh(t)
            if kind == "ts01":
                e = mp.exp(-mp.pi * sh)
                x = 1 / (1 + e)
                xc = e / (1 + e)
                w = mp.pi * ch * x * xc
            else:
                x = mp.exp(half_pi * sh)
                xc = None
                w = half_pi * ch * x
            nodes[i + n] = (x, xc, w)
        return nodes


class TestNodeTable:
    @pytest.mark.parametrize("digits, step", [(15, 1), (30, 1), (60, 1),
                                              (120, 17)])
    @pytest.mark.parametrize("kind", ["ts01", "es0inf"])
    def test_nodes_built_on_first_read_match_the_eager_loop(
            self, monkeypatch, kind, digits, step):
        monkeypatch.setattr(quadrature, "_TABLES", {})
        dps = PrecisionContext.for_digits(digits).working_digits
        ref = eager_nodes(kind, dps, step)
        tab = _get_table(kind, dps)
        assert len(tab.nodes) == 2 * tab.n + 1
        assert min(ref) == 0 and max(ref) > 2 * tab.n - step
        for i, node in ref.items():
            assert tuple(tab.node(i)) == node
        assert tab.built == len(ref)

    @pytest.mark.parametrize("digits", [15, 30, 60, 120])
    @pytest.mark.parametrize("kind", ["ts01", "es0inf", "ed0inf"])
    def test_libmp_nodes_match_the_mpf_formulas(self, monkeypatch, kind,
                                                digits):
        # the reference is _build_table as it was in mpf arithmetic at the
        # table's dps + 10; the nodes are read at another ambient precision,
        # which must not reach them
        monkeypatch.setattr(quadrature, "_TABLES", {})
        dps = PrecisionContext.for_digits(digits).working_digits
        tab = _get_table(kind, dps)
        idxs = random.Random(digits).sample(range(len(tab.nodes)), 40)
        ref = {}
        with mp.workdps(dps + 10):
            c = +mp.pi if kind == "ts01" else mp.pi / 2
            for i in idxs + [0, tab.n, len(tab.nodes) - 1]:
                t = (i - tab.n) * tab.h
                ch, sh = map(mp.make_mpf,
                             mpf_cosh_sinh(t._mpf_, *mp._prec_rounding))
                if kind == "ed0inf":
                    e = mp.exp(-t)
                    x = mp.exp(t - e)
                    xc = None
                    w = x * (1 + e)
                elif kind == "ts01":
                    e = mp.exp(-c * sh)
                    x = 1 / (1 + e)
                    xc = e / (1 + e)
                    w = c * ch * x * xc
                else:
                    x = mp.exp(c * sh)
                    xc = None
                    w = c * ch * x
                ref[i] = (x, xc, w)
        with mp.workdps(7):
            for i, node in ref.items():
                assert tuple(tab.node(i)) == node, i

    def test_a_call_builds_only_the_nodes_it_reads(self, monkeypatch):
        read = set()
        node = quadrature._NodeTable.node

        def spy(tab, i):
            read.add(i)
            return node(tab, i)
        monkeypatch.setattr(quadrature._NodeTable, "node", spy)

        def run(rule, f):
            # one call on fresh tables: its result, record, table and reads
            read.clear()
            monkeypatch.setattr(quadrature, "_TABLES", {})
            with recording() as rec:
                r = rule(f, CTX)
            (tab,) = quadrature._TABLES.values()
            return r, rec, tab, set(read)

        # the Bose rule's kernel route reads the exp-sinh table, its
        # direct route the exp-decay table
        calls = [(partial(integrate_bose, oscillatory=True), mp.atan),
                 (integrate_bose, mp.atan)]
        with CTX.working():
            first = []
            for rule, f in calls:
                r, rec, tab, read = run(rule, f)
                built = {i for i, nd in enumerate(tab.nodes) if nd}
                assert built == read
                assert rec["table_nodes_built"] == tab.built == len(read)
                assert tab.built < len(tab.nodes) / 2
                first.append((r, rec["table_nodes_built"], len(tab.nodes)))
            # a wider t range costs nothing the walks do not reach: the
            # exp-sinh table and the exp-decay table
            monkeypatch.setattr(quadrature, "_TMAX_ES", mpf("6.6"))
            monkeypatch.setattr(quadrature, "_TMAX_ED", 45)
            for (rule, f), (r0, built0, size0) in zip(calls, first):
                r, rec, tab, _ = run(rule, f)
                assert len(tab.nodes) > size0
                assert r.value == r0.value
                assert r.nodes_used == r0.nodes_used
                assert rec["table_nodes_built"] == built0



class TestTanhSinh01:
    def test_inverse_sqrt_endpoint_singularity(self):
        with CTX.working():
            r = tanh_sinh_01(lambda x, xc: 1 / mp.sqrt(x), CTX)
            assert abs(r.value - 2) < TOL

    def test_log_singularity(self):
        with CTX.working():
            r = tanh_sinh_01(lambda x, xc: mp.log(x), CTX)
            assert abs(r.value + 1) < TOL

    def test_complement_form_resolves_right_endpoint(self):
        # int_0^1 log(1-x) dx = -1, evaluated through the exact 1-x node
        with CTX.working():
            r = tanh_sinh_01(lambda x, xc: mp.log(xc), CTX)
            assert abs(r.value + 1) < TOL

    def test_reports_error_estimate_and_nodes(self):
        with CTX.working():
            r = tanh_sinh_01(lambda x, xc: x * x, CTX)
            assert abs(r.value - mpf(1) / 3) < TOL
            assert r.nodes_used > 0
            assert r.error_estimate < TOL


# ids are the engines the rules tally as
@pytest.mark.parametrize("rule, f", [
    (tanh_sinh_01, lambda x, xc: mp.log(x) * mp.log(xc)),
    (lambda f, ctx: integrate_laplace(f, 1, ctx), lambda x: 1 / (1 + x)),
], ids=["tanh_sinh", "laplace"])
def test_nodes_used_counts_distinct_integrand_calls(rule, f):
    xs = []

    def spy(x, *xc):
        xs.append(x)
        return f(x, *xc)
    with CTX.working():
        r = rule(spy, CTX)
    assert len(xs) == len(set(xs)) == r.nodes_used > 0


def exp_sinh(f, ctx=CTX):
    return _rule("exp_sinh", "es0inf", ctx, _on_nodes(lambda nd: f(nd.x)))


class TestExpSinh:
    """The exp-sinh map, which only the Bose rule's kernel route reads,
    run as a plain rule over (0,inf) on integrands of known value."""

    def test_exponential(self):
        with CTX.working():
            r = exp_sinh(lambda t: mp.exp(-t))
            assert abs(r.value - 1) < TOL

    def test_algebraic_decay(self):
        with CTX.working():
            r = exp_sinh(lambda t: 1 / (1 + t * t))
            assert abs(r.value - mp.pi / 2) < TOL


# g and the closed form of int g(x)/(e^(2 pi x) - 1) dx; "binet" is
# g = x/(u^2 + x^2) at u = 0.37, Binet's second formula for digamma
BOSE_G = {
    "x": (lambda x: x, lambda: mpf(1) / 24),
    "atan": (mp.atan, lambda: (1 - mp.log(2 * mp.pi) / 2) / 2),
    "binet": (lambda x: x / (mpf("0.37") ** 2 + x * x),
              lambda: (mp.log(mpf("0.37")) - 1 / (2 * mpf("0.37"))
                       - mp.digamma(mpf("0.37"))) / 2),
    "x3": (lambda x: x ** 3, lambda: mpf(1) / 240),
}
# x stalls at 120 digits on the exp-sinh range (its smallest node is
# ~6e-93); x^3 vanishes fast enough there to answer
BOSE_GRID = [(name, digits) for name in ("x", "atan", "binet")
             for digits in (15, 30, 60)] + [("x3", 120)]


def bose_route_gaps(name, digits):
    """The direct route against the kernel route (oscillatory=True, so
    the mode expansion is refined on its own), at the default tolerance
    of the digits: |kernel - direct|, |direct - exact| and
    |kernel - exact|, each in units of that tolerance."""
    g, exact = BOSE_G[name]
    ctx = PrecisionContext.for_digits(digits)
    with ctx.working(10):
        direct = integrate_bose(g, ctx).value
        kernel = integrate_bose(g, ctx, oscillatory=True).value
        tol = _default_tol(ctx)
        return (abs(kernel - direct) / tol, abs(direct - exact()) / tol,
                abs(kernel - exact()) / tol)


class TestBose:
    def test_first_moment(self):
        with CTX.working():
            r = integrate_bose(lambda x: x, CTX)
            assert abs(r.value - mpf(1) / 24) < TOL

    def test_third_moment(self):
        with CTX.working():
            r = integrate_bose(lambda x: x ** 3, CTX)
            assert abs(r.value - mpf(1) / 240) < TOL

    def test_oscillatory_sine(self):
        # 2 int sin(x)/(e^(2 pi x)-1) dx = coth(1/2)/2 - 1
        with CTX.working():
            r = integrate_bose(mp.sin, CTX)
            assert abs(2 * r.value - (mp.coth(mpf(1) / 2) / 2 - 1)) < TOL

    def test_atan_weight(self):
        # 2 int atan(x)/(e^(2 pi x)-1) dx = log Gamma reflection at u=1:
        # equals 1 - log(2 pi)/2 via the Stirling remainder at 1
        with CTX.working():
            r = integrate_bose(mp.atan, CTX)
            assert abs(2 * r.value - (1 - mp.log(2 * mp.pi) / 2)) < TOL

    def test_each_node_evaluated_once_across_both_routes(self):
        xs = []

        def g(x):
            xs.append(x)
            return mp.atan(x)
        with CTX.working():
            r = integrate_bose(g, CTX)
        assert len(xs) == len(set(xs)) == r.nodes_used

    def test_one_route_per_call(self, monkeypatch):
        calls = {"direct": [], "kernel": 0}
        direct = quadrature._bose_direct
        value = _BoseKernelSums.value

        def direct_spy(*args):
            calls["direct"].append(direct(*args))
            return calls["direct"][-1]

        def kernel_spy(self, stride):
            calls["kernel"] += 1
            return value(self, stride)
        monkeypatch.setattr(quadrature, "_bose_direct", direct_spy)
        monkeypatch.setattr(_BoseKernelSums, "value", kernel_spy)
        with CTX.working():
            r = integrate_bose(mp.atan, CTX)
            assert calls["kernel"] == 0
            (d,) = calls["direct"]
            assert r.value == d.value
            assert r.error_estimate == d.error_estimate
            assert r.nodes_used == d.nodes_used
            integrate_bose(mp.sin, CTX, oscillatory=True)
            assert len(calls["direct"]) == 1
            assert calls["kernel"] >= 2

    @pytest.mark.parametrize("name, digits", BOSE_GRID,
                             ids=["%s-%d" % nd for nd in BOSE_GRID])
    def test_kernel_route_agrees_with_direct_route(self, name, digits):
        gap, direct_err, kernel_err = bose_route_gaps(name, digits)
        assert gap < 10
        assert direct_err < 1 and kernel_err < 1

    def test_route_comparison_fails_on_a_shifted_kernel(self, monkeypatch):
        # the grid cannot pass vacuously: a kernel off by 1e-20 fails it
        value = _BoseKernelSums.value
        monkeypatch.setattr(_BoseKernelSums, "value",
                            lambda self, stride: value(self, stride)
                            + mpf("1e-20"))
        gap, direct_err, kernel_err = bose_route_gaps("atan", 30)
        assert direct_err < 1
        assert gap > 10 and kernel_err > 1

    @pytest.mark.parametrize("digits", [15, 30, 60, 120])
    def test_node_records_match_the_running_product(self, digits):
        # the binary-split mode sum q + ... + q^(N-1) and q^N of every node
        # with x <= 200, the smallest (x ~ 6e-93, q within 4e-92 of 1)
        # included, against the explicit running product, taken in the
        # decimal module's arithmetic at dps + 20 digits
        dps = PrecisionContext.for_digits(digits).working_digits
        n_modes = max(20, int(0.8 * dps))
        tab = _get_table("es0inf", dps)
        idxs = list(takewhile(lambda i: tab.node(i).x <= 200,
                              range(len(tab.nodes))))
        assert tab.node(idxs[0]).x < mpf("1e-92")

        def dec(v):
            return Decimal(mp.nstr(v, dps + 20))
        bound = Decimal(10) ** -dps
        with localcontext(Context(prec=dps + 20, Emin=MIN_EMIN)):
            for i in idxs:
                rec = _bose_value(tab, i, True)
                q = dec(rec.q)
                head, qk = Decimal(0), Decimal(1)
                for _ in range(1, n_modes):
                    qk *= q
                    head += qk
                qk *= q
                assert abs(dec(rec.head) - head) <= bound * head
                assert abs(dec(rec.qn) - qk) <= bound * qk

    def test_second_call_builds_no_records(self, monkeypatch):
        # the direct route builds 2 pi expm1(y) alone for each exp-decay
        # node y it reads
        monkeypatch.setattr(quadrature, "_TABLES", {})
        with CTX.working():
            with recording() as first:
                r = integrate_bose(mp.atan, CTX)
            with recording() as second:
                integrate_bose(mp.atan, CTX)
        tab = _get_table("ed0inf", CTX.working_digits)
        assert first["bose_records_built"] == r.nodes_used > 0
        assert len(tab.qs) == r.nodes_used
        assert first["table_nodes_built"] == r.nodes_used
        assert second["bose_records_built"] == 0
        assert second["table_nodes_built"] == 0
        assert second["bose_nodes"] == r.nodes_used

    def test_direct_route_builds_no_mode_fields(self, monkeypatch):
        # q, the mode sum and q^N are built for kernel-route calls alone,
        # on the exp-sinh table, and only for the nodes their walks read
        monkeypatch.setattr(quadrature, "_TABLES", {})
        with CTX.working():
            integrate_bose(mp.atan, CTX)
            tab = _get_table("ed0inf", CTX.working_digits)
            assert tab.modes == {}
            with recording() as rec:
                r = integrate_bose(mp.sin, CTX, oscillatory=True)
        kernel_tab = _get_table("es0inf", CTX.working_digits)
        assert 0 < len(kernel_tab.modes) == rec["bose_records_built"] \
            <= r.nodes_used
        assert tab.modes == {}

    def test_direct_route_runs_on_the_exp_decay_map(self, monkeypatch):
        # digamma at u = 1 reads the exp-decay table alone; its node count
        # at 30 and 200 digits is 159 and 806 (311 and 1603 before the
        # extrapolated stop, 419 and 7893 on exp-sinh)
        monkeypatch.setattr(quadrature, "_TABLES", {})
        for digits, most in ((30, 175), (200, 887)):
            ctx = PrecisionContext.for_digits(digits)
            with recording() as rec:
                functions.digamma(1, ctx, "bose")
            assert 0 < rec["bose_nodes"] <= most
        assert {kind for kind, _ in quadrature._TABLES} == {"ed0inf"}


class TestLaplace:
    def test_plain_exponential(self):
        with CTX.working():
            r = integrate_laplace(lambda t: mpf(1), mpf(2), CTX)
            assert abs(r.value - mpf(1) / 2) < TOL

    def test_gamma_moment(self):
        with CTX.working():
            r = integrate_laplace(lambda t: t * t, mpf(1), CTX)
            assert abs(r.value - 2) < TOL

    def test_non_finite_u_is_rejected(self):
        for u in (mp.nan, mp.inf):
            with pytest.raises(ValueError):
                integrate_laplace(lambda t: mpf(1), u, CTX)

    def test_shifted_frullani_piece(self):
        # int e^-t (1 - e^-t)/t dt = log 2
        with CTX.working():
            r = integrate_laplace(lambda t: -mp.expm1(-t) / t, mpf(1), CTX)
            assert abs(r.value - mp.log(2)) < TOL

    def test_exp_decay_table_ends(self):
        # left end near 10^-(dps+10), right end at t = 40
        for digits in (15, 60, 200):
            dps = PrecisionContext.for_digits(digits).working_digits
            tab = _get_table("ed0inf", dps)
            with mp.workdps(dps + 10):
                assert mpf(10) ** -(dps + 13) < tab.node(0).x \
                    < mpf(10) ** -(dps + 10)
                assert tab.node(len(tab.nodes) - 1).x \
                    == mp.exp(40 - mp.exp(-40))

    @pytest.mark.parametrize("digits", [15, 60])
    def test_sweep_matches_mpmath(self, digits):
        # h = K, K/t and 1/(1 + t^2), K the Binet kernel: log u - 1/(2u)
        # - psi(u), log Gamma(u) less Stirling's main term, and the
        # auxiliary f(u) of Ci and si.  The worst errors measured are 18.5
        # digits past the target at 15 digits and 19.1 at 60.
        K = functions.binet_kernel
        hs = (K, lambda t: K(t) / t, lambda t: 1 / (1 + t * t))
        ctx = PrecisionContext.for_digits(digits)
        for u in ("1e-7", "1e-3", "0.25", "1", "4", "148", "1e3", "1e4",
                  "1e5"):
            with mp.workdps(digits + 40):
                x = mpf(u)
                refs = (mp.log(x) - 1 / (2 * x) - mp.psi(0, x),
                        mp.loggamma(x) - (x - mpf(1) / 2) * mp.log(x) + x
                        - mp.log(2 * mp.pi) / 2,
                        mp.ci(x) * mp.sin(x)
                        + (mp.pi / 2 - mp.si(x)) * mp.cos(x))
            for k, (h, ref) in enumerate(zip(hs, refs)):
                v = integrate_laplace(h, u, ctx).value
                with mp.workdps(digits + 40):
                    assert abs(v - ref) <= mpf(10) ** -(digits + 17) \
                        * max(1, abs(ref)), (u, k)

    def test_table_end_refuses(self):
        # e^(-u t) at u = 1e-50 is still 1 at the right end, x = 2.4e17
        ctx = PrecisionContext.for_digits(15)
        with pytest.raises(NonConvergenceError, match="right end"):
            integrate_laplace(lambda t: mpf(1), "1e-50", ctx)


class TestUnitSquare:
    def test_product_polynomial(self):
        with CTX.working():
            r = integrate_unit_square(lambda x, xc: x,
                                      lambda p, q: p * q, CTX)
            assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    def test_full_form_with_complements(self):
        with CTX.working():
            r = integrate_unit_square(lambda x, xc: xc,
                                      lambda p, q: p * q, CTX)
            assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    def test_unsettled_levels_refuse(self):
        # sin(1000 x) sin(1000 y) swings some 160 times across each side;
        # h = 1/128 cannot resolve it, so the last two levels disagree
        with CTX.working():
            with pytest.raises(NonConvergenceError,
                               match="quadrature stalled"):
                integrate_unit_square(lambda x, xc: mp.sin(1000 * x),
                                      lambda p, q: p * q, CTX)

    def test_pair_gets_decimal_records(self):
        # node runs in mpf; pair gets the records as Decimals, in a decimal
        # context of the rule's digits + 10, and the value returns as mpf
        seen = []

        def node(x, xc):
            assert isinstance(x, mpf) and isinstance(xc, mpf)
            return x, xc

        def pair(p, q):
            seen.append((tuple(map(type, p + q)), getcontext().prec))
            return (p[0] * q[1] + q[0] * p[1]) / 2
        with CTX.working():
            r = integrate_unit_square(node, pair, CTX)
        assert set(seen) == {((Decimal,) * 4,
                              min(CTX.working_digits, 45) + 10)}
        assert isinstance(r.value, mpf)
        assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    @pytest.mark.parametrize("f, stride", [
        # a smooth product settles on the second level, h = 1/64; the
        # ridge 1/(1/200 + (x - y)^2) along the diagonal runs all three
        (lambda x, xc, y, yc: x * yc + xc * y, 4),
        (lambda x, xc, y, yc: 200 / (1 + 200 * (x - y) ** 2), 2),
    ], ids=["two-levels", "three-levels-symmetric"])
    def test_nested_levels_evaluate_each_node_and_pair_once(
            self, f, stride):
        nodes, pairs = [], []

        def node(x, xc):
            nodes.append(x)
            return x, xc

        def pair(p, q):
            pairs.append(None)
            return f(*p, *q)
        with CTX.working():
            r = integrate_unit_square(node, pair, CTX)
        dps = min(CTX.working_digits, 45)
        tab = _get_table("ts01", dps)
        index = {tab.node(i).x: i for i in range(len(tab.nodes))}
        idxs = sorted(index[x] for x in nodes)
        n = len(idxs)
        assert len(set(idxs)) == n
        assert idxs == list(range(idxs[0], idxs[-1] + 1, stride))
        # one triangle and the diagonal
        assert len(pairs) == n * (n + 1) // 2
        assert r.nodes_used == len(pairs)
        with localcontext(Context(prec=2 * (dps + 10))):
            # every row of the full n x n grid in decimal at twice the
            # rule's digits, each node read to those digits
            grid = [[Decimal(mp.nstr(v, 2 * (dps + 10))) for v in tab.node(i)]
                    for i in idxs]
            flat = sum(sum(f(x, xc, y, yc) * wy for y, yc, wy in grid) * wx
                       for x, xc, wx in grid)
        with mp.workdps(dps + 10):
            flat = mpf(str(flat)) * (tab.h * stride) ** 2
            assert abs(r.value - flat) < mpf(10) ** -40


def test_walk_counts_small_terms_only_past_the_coarser_reach():
    # u e^(-ux) on exp-sinh at u = 100 has its mass near x = 1e-2 and is
    # negligible around x = 1: a fine walk from the center alone does not
    # stop in that band, since it has seen no mass there, and keeps the
    # mass; started from the coarse level's reach it keeps it too
    tab = _get_table("es0inf", 35)
    with mp.workdps(45):
        eps = mpf("1e-31")

        def term(i):
            return 100 * mp.exp(-100 * tab.node(i).x) * tab.node(i).w

        def level(stride, reach):
            idxs, reach = _walk(tab, stride, lambda i: abs(term(i)) < eps,
                                reach)
            return sum(term(i) for i in idxs) * tab.h * stride, reach

        coarse, reach = level(16, (0, 0))
        assert abs(coarse - 1) < mpf("1e-30")
        assert abs(level(1, (0, 0))[0] - 1) < mpf("1e-30")
        fine, fine_reach = level(1, reach)
        assert abs(fine - 1) < mpf("1e-30")
        assert all(f >= r for f, r in zip(fine_reach, reach))


# ---------------------------------------------------------------------------
# where each 1-D rule stops: the extrapolated acceptance
# ---------------------------------------------------------------------------

# every closed form of this file: a rule call on ctx and the exact value
CLOSED_FORMS = {
    "tanh_sinh-inv-sqrt": (
        lambda c: tanh_sinh_01(lambda x, xc: 1 / mp.sqrt(x), c),
        lambda: mpf(2)),
    "tanh_sinh-log": (lambda c: tanh_sinh_01(lambda x, xc: mp.log(x), c),
                      lambda: mpf(-1)),
    "tanh_sinh-log-complement": (
        lambda c: tanh_sinh_01(lambda x, xc: mp.log(xc), c),
        lambda: mpf(-1)),
    "tanh_sinh-square": (lambda c: tanh_sinh_01(lambda x, xc: x * x, c),
                         lambda: mpf(1) / 3),
    "tanh_sinh-log-log": (
        lambda c: tanh_sinh_01(lambda x, xc: mp.log(x) * mp.log(xc), c),
        lambda: 2 - mp.pi ** 2 / 6),
    "exp_sinh-exp": (lambda c: exp_sinh(lambda t: mp.exp(-t), c),
                     lambda: mpf(1)),
    "exp_sinh-algebraic": (lambda c: exp_sinh(lambda t: 1 / (1 + t * t), c),
                           lambda: mp.pi / 2),
    **{"bose-" + name: (lambda c, g=g: integrate_bose(g, c), exact)
       for name, (g, exact) in BOSE_G.items()},
    "bose-sin": (lambda c: integrate_bose(mp.sin, c),
                 lambda: (mp.coth(mpf(1) / 2) / 2 - 1) / 2),
    "bose-kernel-atan": (
        lambda c: integrate_bose(mp.atan, c, oscillatory=True),
        BOSE_G["atan"][1]),
    "laplace-one": (lambda c: integrate_laplace(lambda t: mpf(1), 2, c),
                    lambda: mpf(1) / 2),
    "laplace-square": (lambda c: integrate_laplace(lambda t: t * t, 1, c),
                       lambda: mpf(2)),
    "laplace-frullani": (
        lambda c: integrate_laplace(lambda t: -mp.expm1(-t) / t, 1, c),
        lambda: mp.log(2)),
    # Binet's first formula for digamma at u = 1
    "laplace-binet": (
        lambda c: integrate_laplace(functions.binet_kernel, 1, c),
        lambda: mp.euler - mpf(1) / 2),
}


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_error_estimate_bounds_the_true_error(name, digits):
    run, exact = CLOSED_FORMS[name]
    ctx = PrecisionContext.for_digits(digits)
    with ctx.working(10):
        r = run(ctx)
        assert abs(r.value - exact()) <= r.error_estimate


@pytest.mark.parametrize("name", ["tanh_sinh-log-log", "bose-atan",
                                  "laplace-binet"])
def test_smooth_integrals_stop_a_level_early(name):
    # the difference test alone took 3, 4, 5 and 6 levels: at 15 digits
    # it accepts level 3 itself, past it the extrapolation accepts the
    # level before the one the difference test would
    levels = {}
    for digits in (15, 30, 60, 120):
        with recording() as rec:
            CLOSED_FORMS[name][0](PrecisionContext.for_digits(digits))
        (levels[digits],) = [v for k, v in rec.items()
                             if k.endswith("_levels")]
    assert levels == {15: 3, 30: 3, 60: 4, 120: 5}


@pytest.mark.parametrize("digits", [15, 30, 60, 120])
def test_interior_kink_refuses(digits):
    # |x - 1/3| converges algebraically, its digits far from doubling
    with pytest.raises(NonConvergenceError, match="quadrature stalled"):
        tanh_sinh_01(lambda x, xc: abs(x - mpf(1) / 3),
                     PrecisionContext.for_digits(digits))


@pytest.mark.parametrize("diffs, dps, levels, err", [
    # digits 20 then 38 extrapolate to min(72.2, 76) >= 53
    ((20, 38), 50, 3, 46),
    # without dps, the 2-D rule's case, only the difference test accepts
    ((20, 38, 70), None, 4, 70),
    # 9 then 23 would extrapolate to 58.8 digits, but 2 x 23 < 53
    ((9, 23, 44), 50, 4, 44),
])
def test_refine_accepts_on_the_extrapolation(diffs, dps, levels, err):
    # levels L_1 = 0, L_k = L_(k-1) + 10^-diffs[k-2], against tol 1e-40
    with mp.workdps(80):
        vals = [mpf(0)]
        for d in diffs:
            vals.append(vals[-1] + mpf(10) ** -d)
        it = iter(vals)
        got = _refine(lambda stride: next(it), range(len(vals)),
                      mpf(10) ** -40, dps)
        assert got[0] == vals[levels - 1] and got[2] == levels
        assert abs(got[1] * mpf(10) ** err - 1) < mpf(10) ** -20


def test_refine_never_accepts_on_two_levels():
    with mp.workdps(80):
        vals = iter([mpf(0), mpf(10) ** -30])
        with pytest.raises(NonConvergenceError):
            _refine(lambda stride: next(vals), range(2), mpf(10) ** -40, 50)
