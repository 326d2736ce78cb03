"""Quadrature engine checks against closed forms.

Every rule is exercised on integrals whose values are elementary, so a
failure points at the rule rather than at the function layer built on it.
"""

import pytest
from mpmath import mp, mpf

from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.quadrature import (
    Integrand1D,
    Integrand2D,
    _get_table,
    exp_sinh_0inf,
    integrate_bose,
    integrate_laplace,
    integrate_unit_square,
    tanh_sinh_01,
)

TOL = mpf(10) ** -40


class TestTanhSinh01:
    def test_inverse_sqrt_endpoint_singularity(self):
        with CTX.working():
            r = tanh_sinh_01(Integrand1D(
                eval=lambda x: 1 / mp.sqrt(x)), CTX)
            assert abs(r.value - 2) < TOL

    def test_log_singularity(self):
        with CTX.working():
            r = tanh_sinh_01(Integrand1D(
                eval=lambda x: mp.log(x)), CTX)
            assert abs(r.value + 1) < TOL

    def test_complement_form_resolves_right_endpoint(self):
        # int_0^1 log(1-x) dx = -1, evaluated through the exact 1-x node
        with CTX.working():
            r = tanh_sinh_01(Integrand1D(
                eval=None,
                eval_with_complement=lambda x, xc: mp.log(xc)), CTX)
            assert abs(r.value + 1) < TOL

    def test_reports_error_estimate_and_nodes(self):
        with CTX.working():
            r = tanh_sinh_01(Integrand1D(eval=lambda x: x * x), CTX)
            assert abs(r.value - mpf(1) / 3) < TOL
            assert r.nodes_used > 0
            assert r.error_estimate < TOL


class TestExpSinh:
    def test_exponential(self):
        with CTX.working():
            r = exp_sinh_0inf(Integrand1D(eval=lambda t: mp.exp(-t)), CTX)
            assert abs(r.value - 1) < TOL

    def test_gamma_moment(self):
        with CTX.working():
            r = exp_sinh_0inf(Integrand1D(
                eval=lambda t: t * t * mp.exp(-t)), CTX)
            assert abs(r.value - 2) < TOL

    def test_algebraic_decay(self):
        with CTX.working():
            r = exp_sinh_0inf(Integrand1D(
                eval=lambda t: 1 / (1 + t * t)), CTX)
            assert abs(r.value - mp.pi / 2) < TOL


class TestBose:
    def test_first_moment(self):
        with CTX.working():
            r = integrate_bose(Integrand1D(eval=lambda x: x), CTX)
            assert abs(r.value - mpf(1) / 24) < TOL

    def test_third_moment(self):
        with CTX.working():
            r = integrate_bose(Integrand1D(eval=lambda x: x ** 3), CTX)
            assert abs(r.value - mpf(1) / 240) < TOL

    def test_oscillatory_sine(self):
        # 2 int sin(x)/(e^(2 pi x)-1) dx = coth(1/2)/2 - 1
        with CTX.working():
            r = integrate_bose(Integrand1D(eval=mp.sin, oscillatory=True),
                               CTX)
            assert abs(2 * r.value - (mp.coth(mpf(1) / 2) / 2 - 1)) < TOL

    def test_atan_weight(self):
        # 2 int atan(x)/(e^(2 pi x)-1) dx = log Gamma reflection at u=1:
        # equals 1 - log(2 pi)/2 via the Stirling remainder at 1
        with CTX.working():
            r = integrate_bose(Integrand1D(eval=mp.atan), CTX)
            assert abs(2 * r.value - (1 - mp.log(2 * mp.pi) / 2)) < TOL


class TestLaplace:
    def test_plain_exponential(self):
        with CTX.working():
            r = integrate_laplace(Integrand1D(eval=lambda t: mpf(1)),
                                  mpf(2), CTX)
            assert abs(r.value - mpf(1) / 2) < TOL

    def test_non_finite_u_is_rejected(self):
        for u in (mp.nan, mp.inf):
            with pytest.raises(ValueError):
                integrate_laplace(Integrand1D(eval=lambda t: mpf(1)), u, CTX)

    def test_shifted_frullani_piece(self):
        # int e^-t (1 - e^-t)/t dt = log 2
        with CTX.working():
            r = integrate_laplace(Integrand1D(
                eval=lambda t: -mp.expm1(-t) / t), mpf(1), CTX)
            assert abs(r.value - mp.log(2)) < TOL


class TestUnitSquare:
    def test_product_polynomial(self):
        with CTX.working():
            r = integrate_unit_square(Integrand2D(
                node=lambda x, xc: x, pair=lambda p, q: p * q), CTX)
            assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    def test_full_form_with_complements(self):
        with CTX.working():
            r = integrate_unit_square(Integrand2D(
                node=lambda x, xc: xc, pair=lambda p, q: p * q), CTX)
            assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    def test_symmetric_flag_consistency(self):
        def node(x, xc):
            return x * x

        def pair(p, q):
            return p + q
        with CTX.working():
            a = integrate_unit_square(Integrand2D(node, pair), CTX)
            b = integrate_unit_square(Integrand2D(node, pair,
                                                  symmetric=True), CTX)
            assert abs(a.value - b.value) < mpf(10) ** -20
            assert abs(a.value - mpf(2) / 3) < mpf(10) ** -10

    @pytest.mark.parametrize("symmetric, tol, stride", [
        # tol 1 settles on the second level, 1e-60 runs all three
        (False, 1, 4),
        (True, mpf(10) ** -60, 2),
    ], ids=["two-levels", "three-levels-symmetric"])
    def test_nested_levels_evaluate_each_node_and_pair_once(
            self, symmetric, tol, stride):
        def f(x, xc, y, yc):
            return min(x, y) if symmetric else min(x, yc)

        nodes, pairs = [], []

        def node(x, xc):
            nodes.append(x)
            return x, xc

        def pair(p, q):
            pairs.append(None)
            return f(*p, *q)
        with CTX.working():
            r = integrate_unit_square(Integrand2D(node, pair, symmetric),
                                      CTX, tol=tol)
        dps = min(CTX.working_digits, 45)
        tab = _get_table("ts01", dps)
        index = {x: i for i, x in enumerate(tab.xs)}
        idxs = sorted(index[x] for x in nodes)
        n = len(idxs)
        assert len(set(idxs)) == n
        assert idxs == list(range(idxs[0], idxs[-1] + 1, stride))
        assert len(pairs) == (n * (n + 1) // 2 if symmetric else n * n)
        assert r.nodes_used == len(pairs)
        with mp.workdps(dps + 10):
            flat = mpf(0)
            for i in idxs:
                row = mpf(0)
                for j in idxs:
                    row += f(tab.xs[i], tab.xcs[i],
                             tab.xs[j], tab.xcs[j]) * tab.ws[j]
                flat += row * tab.ws[i]
            flat *= (tab.h * stride) ** 2
            assert abs(r.value - flat) < mpf(10) ** -40
