"""Quadrature engine checks against closed forms.

Every rule is exercised on integrals whose values are elementary, so a
failure points at the rule rather than at the function layer built on it.
"""

from mpmath import mp, mpf

from stieltjes.precision import DEFAULT_CONTEXT as CTX
from stieltjes.quadrature import (
    Integrand1D,
    Integrand2D,
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
                eval=lambda x, y: x * y), CTX)
            assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    def test_full_form_with_complements(self):
        with CTX.working():
            r = integrate_unit_square(Integrand2D(
                eval_full=lambda x, y, xc, yc: xc * yc), CTX)
            assert abs(r.value - mpf(1) / 4) < mpf(10) ** -10

    def test_symmetric_flag_consistency(self):
        def f(x, y, xc, yc):
            return x * x + y * y
        with CTX.working():
            a = integrate_unit_square(Integrand2D(eval_full=f), CTX)
            b = integrate_unit_square(Integrand2D(eval_full=f,
                                                  symmetric=True), CTX)
            assert abs(a.value - b.value) < mpf(10) ** -20
            assert abs(a.value - mpf(2) / 3) < mpf(10) ** -10
