import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.optimize import brentq

from mwkit import numerics as nm


class TestBesselJ:
    def test_series_leading_terms(self):
        assert nm.bessel_j(0, 0.0) == pytest.approx(1.0, abs=0)
        assert nm.bessel_j(1, 0.0) == 0.0

    def test_first_j1_zero_by_bisection(self):
        # bisection on our own evaluation locates the first J1 zero
        z = brentq(lambda x: nm.bessel_j(1, x), 3.0, 4.5, xtol=1e-12)
        assert z == pytest.approx(3.8317059702, abs=1e-9)
        assert abs(nm.bessel_j(1, 3.8317059702)) < 1e-9

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 7, 10, 20, 35, 50])
    def test_against_scipy_oracle(self, order):
        rng = np.random.default_rng(order)
        x = np.concatenate([
            rng.uniform(1e-3, 30.0, 400),
            rng.uniform(30.0, 1000.0, 200),
            rng.uniform(1000.0, 1e4, 100),
        ])
        ref = special.jv(order, x)
        got = nm.bessel_j(order, x)
        # 1e-10 relative away from zeros; absolute floor ~3e-12 at the zeros
        assert np.all(np.abs(got - ref) <= np.maximum(1e-10 * np.abs(ref), 1e-11))

    def test_negative_argument_parity(self):
        for n in (0, 1, 2, 5):
            ref = special.jv(n, 7.3) * (-1) ** n
            assert nm.bessel_j(n, -7.3) == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(nm.DomainError):
            nm.bessel_j(51, 1.0)
        with pytest.raises(nm.DomainError):
            nm.bessel_j(-1, 1.0)
        with pytest.raises(nm.DomainError):
            nm.bessel_j(0, 2e4)

    def test_recurrence_property(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(1, 11)
            x = rng.uniform(1e-2, 30.0)
            lhs = nm.bessel_j(n - 1, x) + nm.bessel_j(n + 1, x)
            rhs = 2 * n / x * nm.bessel_j(n, x)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestCosineIntegral:
    def test_ip_reference_identity(self):
        # 1/2 (C + ln 2pi - ci(2pi)) equals the tabulated 2.437/2
        ip = 0.5 * (0.5772156649015329 + math.log(2 * math.pi)
                    - nm.cosine_integral(2 * math.pi))
        assert ip == pytest.approx(2.437 / 2, abs=5e-4)

    def test_large_x_decay(self):
        assert abs(nm.cosine_integral(1e3)) < 1.1e-3

    def test_value_at_one(self):
        # adaptive quadrature of (cos t - 1)/t plus gamma + ln x as the oracle
        val, _ = nm.integrate_adaptive(
            lambda t: (math.cos(t) - 1.0) / t if t > 1e-300 else 0.0,
            1e-300, 1.0, nm.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11))
        oracle = 0.5772156649015329 + math.log(1.0) + val
        assert nm.cosine_integral(1.0) == pytest.approx(oracle, abs=1e-10)
        assert nm.cosine_integral(1.0) == pytest.approx(0.3374039229, abs=1e-9)

    @pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 12.0, 19.99, 20.0, 21.0,
                                   50.0, 400.0, 1e4])
    def test_against_scipy(self, x):
        assert nm.cosine_integral(x) == pytest.approx(special.sici(x)[1], abs=1e-9)

    def test_domain(self):
        with pytest.raises(nm.DomainError):
            nm.cosine_integral(0.0)
        with pytest.raises(nm.DomainError):
            nm.cosine_integral(-1.0)


class TestQuadrature:
    def test_sin_cubed(self):
        val, err = nm.integrate_adaptive(lambda t: math.sin(t) ** 3, 0.0, math.pi)
        assert val == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert err < 1e-8

    def test_zero_function(self):
        val, _ = nm.integrate_adaptive(lambda t: 0.0, 0.0, 1.0)
        assert val == 0.0

    def test_ip_integral(self):
        val, _ = nm.integrate_adaptive(
            lambda t: (1.0 - math.cos(t)) / t if t > 1e-300 else 0.0,
            1e-300, 2 * math.pi)
        assert val == pytest.approx(2.437, abs=1e-3)

    def test_complex_integrand(self):
        val, _ = nm.integrate_adaptive(lambda t: np.exp(1j * t), 0.0, math.pi / 2)
        assert val == pytest.approx(1 + 1j, abs=1e-12)

    def test_budget_exhaustion_carries_estimate(self):
        spec = nm.QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=5)
        with pytest.raises(nm.ConvergenceError) as exc:
            nm.integrate_adaptive(lambda t: math.sin(50 * t) ** 2, 0.0, 10.0, spec)
        # best estimate so far is carried along with its error bound
        assert exc.value.estimate == pytest.approx(5.0, rel=0.2)
        assert exc.value.error > 0

    @given(alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, alpha, beta):
        f = lambda t: math.sin(t)
        g = lambda t: t * t
        int_f, _ = nm.integrate_adaptive(f, 0.0, 2.0)
        int_g, _ = nm.integrate_adaptive(g, 0.0, 2.0)
        combo, _ = nm.integrate_adaptive(lambda t: alpha * f(t) + beta * g(t), 0.0, 2.0)
        assert combo == pytest.approx(alpha * int_f + beta * int_g,
                                      abs=1e-9 * (1 + abs(alpha) + abs(beta)))

    def test_invalid_interval(self):
        with pytest.raises(nm.DomainError):
            nm.integrate_adaptive(lambda t: 1.0, 1.0, 1.0)
        with pytest.raises(nm.DomainError):
            nm.integrate_adaptive(lambda t: 1.0, 0.0, math.nan)


class TestBatchedQuadrature:
    def test_vector_matches_scalar_components(self):
        freqs = np.array([1.0, 3.0, 7.0])
        val, err = nm.integrate_gk15(lambda t: np.exp(1j * np.outer(t, freqs)),
                                     (0.0, 2.0))
        assert val.shape == err.shape == (3,)
        for w, v in zip(freqs, val):
            ref, _ = nm.integrate_adaptive(lambda t: np.exp(1j * w * t), 0.0, 2.0)
            assert v == pytest.approx(ref, abs=1e-12)
            assert v == pytest.approx((np.exp(2j * w) - 1) / (1j * w), abs=1e-12)

    def test_one_call_per_panel(self):
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return t * t

        val, _ = nm.integrate_gk15(f, (0.0, 0.5, 1.0))
        assert val == pytest.approx(1 / 3, abs=1e-15)
        assert shapes == [(15,), (15,)]

    def test_breakpoint_kink_integrated_exactly(self):
        val, _ = nm.integrate_gk15(lambda t: 1.0 - np.abs(t), (-1.0, 0.0, 1.0))
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_budget_exhaustion_carries_vector_estimate(self):
        spec = nm.QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=3)
        with pytest.raises(nm.ConvergenceError) as exc:
            nm.integrate_gk15(lambda t: np.sin(np.outer(t, [10.0, 50.0])) ** 2,
                              (0.0, 10.0), spec)
        assert exc.value.estimate.shape == exc.value.error.shape == (2,)
        assert np.all(exc.value.error > 0)

    @pytest.mark.parametrize("breaks", [(1.0,), (0.0, 0.0), (1.0, 0.0), (0.0, math.nan)])
    def test_invalid_breaks(self, breaks):
        with pytest.raises(nm.DomainError):
            nm.integrate_gk15(lambda t: t, breaks)


class TestSolveComplexDense:
    def test_identity(self):
        b = np.array([1 + 2j, 3.0, -1j])
        x = nm.solve_complex_dense(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_2x2_verify_by_multiplication(self):
        a = np.array([[1.0, 1j], [-1j, 1.0]]) + np.eye(2) * 0.5
        b = np.array([1.0, 0.0])
        x = nm.solve_complex_dense(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-12

    def test_hilbert_like_residual(self):
        n = 8
        a = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0) + \
            1j * 1e-3 * np.eye(n)
        b = np.ones(n, dtype=complex)
        x = nm.solve_complex_dense(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10

    def test_random_roundtrip_200(self):
        rng = np.random.default_rng(1)
        for n in (20, 60, 200):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x_true = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = nm.solve_complex_dense(a, a @ x_true)
            assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-9

    def test_singular_reports_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(nm.SingularMatrixError) as exc:
            nm.solve_complex_dense(a, np.ones(2))
        assert exc.value.pivot_index == 1

    def test_shape_errors(self):
        with pytest.raises(nm.DomainError):
            nm.solve_complex_dense(np.ones((2, 3)), np.ones(2))
        with pytest.raises(nm.DomainError):
            nm.solve_complex_dense(np.eye(3), np.ones(2))


class TestSolveSymmetricToeplitz:
    @staticmethod
    def dense_solution(row, b):
        from scipy import linalg
        return linalg.solve(linalg.toeplitz(row, row), b)

    @staticmethod
    def no_fallback(a, b):
        raise AssertionError("Levinson result rejected, LU fallback ran")

    def test_complex_symmetric_not_hermitian(self, monkeypatch):
        # with the row alone, scipy's Toeplitz routines assume a Hermitian
        # matrix; this one is only symmetric, and Levinson must solve it
        monkeypatch.setattr(nm, "solve_complex_dense", self.no_fallback)
        row = np.array([4 - 1j, 1 + 2j, 0.5 - 0.5j, 0.25j])
        b = np.array([1.0, -2j, 3.0, 0.5 + 1j])
        x = nm.solve_symmetric_toeplitz(row, b)
        np.testing.assert_allclose(x, self.dense_solution(row, b), rtol=1e-13)

    def test_zero_leading_entry_falls_back_to_lu(self):
        # nonsingular, but Levinson meets a singular 1 x 1 leading minor
        row = np.array([0.0, 1.0, 0.5])
        b = np.array([1.0, 2.0, 3.0])
        x = nm.solve_symmetric_toeplitz(row, b)
        np.testing.assert_allclose(x, self.dense_solution(row, b), rtol=1e-14)

    def test_backward_error_gate_falls_back_to_lu(self):
        # a tiny leading minor: Levinson runs but is off by ~2e-9 relative
        row = np.array([1e-8, 1.0, 0.5])
        b = np.array([1.0, 2.0, 3.0])
        x = nm.solve_symmetric_toeplitz(row, b)
        ref = self.dense_solution(row, b)
        assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_zero_row_reports_pivot(self):
        with pytest.raises(nm.SingularMatrixError) as exc:
            nm.solve_symmetric_toeplitz(np.zeros(3), np.ones(3))
        assert exc.value.pivot_index == 0

    def test_shape_errors(self):
        with pytest.raises(nm.DomainError):
            nm.solve_symmetric_toeplitz(np.ones(3), np.ones(2))
        with pytest.raises(nm.DomainError):
            nm.solve_symmetric_toeplitz(np.ones((2, 2)), np.ones(2))
        with pytest.raises(nm.DomainError):
            nm.solve_symmetric_toeplitz(np.ones(0), np.ones(0))


class TestSphericalBasis:
    def test_z_axis(self):
        u_r, _, _ = nm.spherical_basis(0.0, 0.0)
        np.testing.assert_allclose(u_r, [0, 0, 1], atol=1e-15)

    def test_equatorial_x(self):
        u_r, _, u_phi = nm.spherical_basis(math.pi / 2, 0.0)
        np.testing.assert_allclose(u_r, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(u_phi, [0, 1, 0], atol=1e-15)

    def test_right_handed_orthonormal_frame(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            u_r, u_t, u_p = nm.spherical_basis(th, ph)
            assert abs(np.dot(u_r, u_t)) < 1e-14
            assert abs(np.dot(u_r, u_p)) < 1e-14
            assert abs(np.dot(u_t, u_p)) < 1e-14
            np.testing.assert_allclose(np.cross(u_r, u_t), u_p, atol=1e-14)
            for v in (u_r, u_t, u_p):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
