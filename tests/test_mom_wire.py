import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mwkit import mom_wire as mom
from mwkit import numerics
from mwkit import radiator as rad
from mwkit.numerics import (C0, ETA0, ConvergenceError, DomainError, QuadratureSpec,
                            solve_complex_dense)

F0 = C0  # lambda0 = 1 m


def make_problem(**kw):
    args = dict(half_length_l=0.25, radius_a=0.001, freq=F0, n_segments=41)
    args.update(kw)
    return mom.WireProblem(**args)


class TestMesh:
    def test_uniform_segments(self):
        p = make_problem(half_length_l=0.25, n_segments=5)
        mesh = mom.segment_wire(p)
        assert len(mesh.boundaries) == 6
        np.testing.assert_allclose(np.diff(mesh.boundaries), 0.1, rtol=1e-12)

    def test_centers_symmetric(self):
        mesh = mom.segment_wire(make_problem(n_segments=7))
        np.testing.assert_allclose(mesh.centers, -mesh.centers[::-1], atol=1e-15)
        assert mesh.centers[3] == pytest.approx(0.0, abs=1e-15)

    def test_even_segments_rejected(self):
        with pytest.raises(DomainError):
            make_problem(n_segments=40)

    def test_thick_wire_warns(self):
        with pytest.warns(UserWarning, match="diameter"):
            make_problem(radius_a=0.02)

    @pytest.mark.parametrize("name", ["half_length_l", "radius_a", "freq"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(DomainError, match=name):
            make_problem(**{name: value})


class TestSegmentBelowRadius:
    """The reduced kernel breaks down once the segment length drops below the
    wire radius: a half-wave wire with a = 0.001 lambda at N = 1281 has
    delta / a = 0.39 and its currents oscillate."""

    def test_delta_below_radius_warns(self):
        with pytest.warns(UserWarning, match="below the wire radius"):
            p = make_problem(n_segments=1281)
        assert np.isfinite(mom.solve_currents(p).z_in)

    def test_delta_above_radius_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = mom.solve_currents(make_problem(n_segments=321))
        assert np.isfinite(sol.z_in)


class TestMatrix:
    def test_symmetric_toeplitz_exact(self):
        p = make_problem(n_segments=11)
        z = mom.fill_impedance_matrix(p, mom.segment_wire(p))
        assert np.array_equal(z, z.T)
        for off in range(10):
            diag = np.diagonal(z, offset=off)
            assert np.all(diag == diag[0])

    def test_diagonal_dominates_far_terms(self):
        p = make_problem(n_segments=11)
        z = mom.fill_impedance_matrix(p, mom.segment_wire(p))
        assert abs(z[0, 0]) > abs(z[0, 2])
        assert abs(z[0, 0]) > abs(z[0, 5])

    @pytest.mark.parametrize("collocation", [False, True])
    def test_entries_match_nested_box_integral(self, collocation):
        # oracle: the box-box double integral of the definition, by nested
        # scipy quad, split at the kernel peak u = 0 where it lies inside
        from scipy import integrate

        p = make_problem(n_segments=11, collocation=collocation)
        mesh = mom.segment_wire(p)
        d, a, k0 = mesh.delta, p.radius_a, p.k0
        row = mom.fill_impedance_matrix(p, mesh)[0]

        def source_integral(lo, hi):
            val, _ = integrate.quad(lambda u: mom._kernel(u, a, k0), lo, hi,
                                    points=[0.0] if lo < 0.0 < hi else None,
                                    complex_func=True, epsabs=0.0, epsrel=1e-11,
                                    limit=200)
            return val

        for k in (0, 1, 2, 5, 10):
            zc = k * d
            if collocation:
                oracle = d * source_integral(zc - 0.5 * d, zc + 0.5 * d)
            else:
                oracle, _ = integrate.quad(
                    lambda z: source_integral(zc - 0.5 * d - z, zc + 0.5 * d - z),
                    -0.5 * d, 0.5 * d, complex_func=True, epsabs=0.0,
                    epsrel=1e-11, limit=200)
            assert abs(row[k] - oracle) <= 1e-9 * abs(oracle), k

    def test_budget_exhaustion_names_offset(self):
        p = make_problem(n_segments=11)
        with pytest.raises(ConvergenceError, match=r"offset \d+") as exc:
            mom.fill_impedance_matrix(p, mom.segment_wire(p),
                                      QuadratureSpec(max_subdivisions=1))
        assert np.isfinite(exc.value.estimate)
        assert np.isfinite(exc.value.error)

    def test_refinement_consistency(self):
        # per-segment self-term scales consistently when N doubles (roughly
        # inversely with segment length for the capacitive part)
        zs = {}
        for n in (11, 21):
            p = make_problem(n_segments=n)
            z = mom.fill_impedance_matrix(p, mom.segment_wire(p))
            zs[n] = z
            assert np.all(np.isfinite(z))
        assert np.linalg.cond(zs[11]) < 1e6


class TestExcitation:
    def test_default_center(self):
        p = make_problem(n_segments=9)
        v = mom.excitation_vector(p, mom.segment_wire(p))
        assert np.count_nonzero(v) == 1
        assert v[4] == 1.0 + 0j

    def test_custom_value_and_index(self):
        p = make_problem(n_segments=9, feed_segment_index=2, v_gap=2.5 + 0j)
        v = mom.excitation_vector(p, mom.segment_wire(p))
        assert v[2] == 2.5 + 0j

    def test_out_of_range(self):
        p = make_problem(n_segments=9, feed_segment_index=11)
        with pytest.raises(DomainError):
            mom.excitation_vector(p, mom.segment_wire(p))


class TestSolve:
    def test_half_wave_input_resistance_window(self):
        sol = mom.solve_currents(make_problem())
        assert 60.0 <= sol.z_in.real <= 90.0

    def test_current_shape_matches_sinusoid(self):
        p = make_problem()
        sol = mom.solve_currents(p)
        s = np.sin(p.k0 * (p.half_length_l - np.abs(sol.segment_centers)))
        alpha = np.vdot(s, sol.currents) / np.vdot(s, s)
        rel = np.linalg.norm(sol.currents - alpha * s) / np.linalg.norm(sol.currents)
        assert rel < 0.10

    def test_end_currents_small(self):
        sol = mom.solve_currents(make_problem())
        peak = np.abs(sol.currents).max()
        assert abs(sol.currents[0]) <= 0.2 * peak
        assert abs(sol.currents[-1]) <= 0.2 * peak

    def test_reactance_sign_change_near_resonance(self):
        # converged solver: resonance sits inside 2l in [0.44, 0.50] lambda0
        ims = []
        for tl in (0.44, 0.50):
            sol = mom.solve_currents(make_problem(half_length_l=tl / 2,
                                                  n_segments=161))
            ims.append(sol.z_in.imag)
        assert ims[0] < 0 < ims[1]

    def test_gap_voltage_linearity(self):
        p1 = make_problem(n_segments=21)
        p2 = make_problem(n_segments=21, v_gap=3.0 - 1.0j)
        s1 = mom.solve_currents(p1)
        s2 = mom.solve_currents(p2)
        np.testing.assert_allclose(s2.currents, (3.0 - 1.0j) * s1.currents, rtol=1e-10)
        assert s2.z_in == pytest.approx(s1.z_in, rel=1e-12)

    def test_zin_is_vgap_over_feed_current(self):
        sol = mom.solve_currents(make_problem(n_segments=21))
        feed = sol.problem.feed_index
        assert sol.z_in == sol.problem.v_gap / sol.currents[feed]

    def test_radius_sensitivity_mostly_reactive(self):
        s1 = mom.solve_currents(make_problem(half_length_l=0.235, radius_a=0.002))
        s2 = mom.solve_currents(make_problem(half_length_l=0.235, radius_a=0.001))
        assert abs(s1.z_in.imag - s2.z_in.imag) > abs(s1.z_in.real - s2.z_in.real)

    def test_collocation_mode_runs(self):
        sol = mom.solve_currents(make_problem(collocation=True))
        assert np.all(np.isfinite(sol.currents))

    def test_minimal_problem_runs(self):
        sol = mom.solve_currents(make_problem(n_segments=3))
        assert np.isfinite(sol.z_in)

    @pytest.mark.parametrize("collocation", [False, True])
    def test_levinson_matches_dense_lu_on_thin_wire(self, collocation, monkeypatch):
        # delta / a = 78 and a large cond(Z): Levinson does not pivot, yet its
        # result must pass the backward-error gate without the LU fallback
        p = make_problem(radius_a=1e-5, n_segments=641, collocation=collocation)
        mesh = mom.segment_wire(p)
        ref = solve_complex_dense(mom.fill_impedance_matrix(p, mesh),
                                  -mom.excitation_vector(p, mesh))

        def no_fallback(a, b):
            raise AssertionError("Levinson result rejected, LU fallback ran")

        monkeypatch.setattr(numerics, "solve_complex_dense", no_fallback)
        currents = mom.solve_currents(p).currents
        assert np.abs(currents - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_study_leaves_scipy_fft_unloaded(self, child_env):
        # importing scipy.fft costs 60-100 ms, which every CLI process would pay
        code = ("import sys\n"
                "from mwkit import mom_wire as m\n"
                "sol = m.solve_currents(m.WireProblem(0.25, 0.001, m.C0, 41))\n"
                "m.radiated_power(sol)\n"
                "print('scipy.fft' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.split() == ["False"]


class TestFarField:
    def test_axis_null(self):
        sol = mom.solve_currents(make_problem(n_segments=21))
        s = mom.mom_far_field(sol, 0.0)
        assert abs(complex(s.e_theta)) == 0.0

    def test_pattern_symmetry(self):
        sol = mom.solve_currents(make_problem(n_segments=21))
        th = np.linspace(0.1, math.pi / 2, 25)
        e1 = np.abs(mom.mom_far_field(sol, th).e_theta)
        e2 = np.abs(mom.mom_far_field(sol, math.pi - th).e_theta)
        np.testing.assert_allclose(e1, e2, rtol=1e-9)

    def test_matches_analytic_half_wave_pattern(self):
        sol = mom.solve_currents(make_problem())
        hpbw_half = math.radians(39.0)
        th = np.linspace(math.pi / 2 - hpbw_half, math.pi / 2 + hpbw_half, 81)
        e_mom = np.abs(mom.mom_far_field(sol, th).e_theta)
        e_ana = np.abs(rad.far_field(rad.ThinWire(half_length_l=0.25), th, 0.0, F0).e_theta)
        dev = 20 * np.log10(e_mom / e_mom.max()) - 20 * np.log10(e_ana / e_ana.max())
        assert np.max(np.abs(dev)) < 0.5

    def test_power_balance(self):
        sol = mom.solve_currents(make_problem())
        p_rad = mom.radiated_power(sol)
        p_in = mom.input_power(sol)
        assert p_rad == pytest.approx(p_in, rel=0.05)

    @pytest.mark.parametrize("half_length", [0.25, 0.75, 5.0])
    @pytest.mark.parametrize("collocation", [False, True])
    def test_radiated_power_matches_quad(self, half_length, collocation):
        from scipy import integrate

        n = 41 if half_length < 1.0 else 101
        sol = mom.solve_currents(make_problem(half_length_l=half_length, n_segments=n,
                                              collocation=collocation))

        def density(th):
            return abs(complex(mom.mom_far_field(sol, th).e_theta)) ** 2 * math.sin(th)

        val, _ = integrate.quad(density, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                                limit=500)
        oracle = 2 * math.pi * val / (2 * ETA0)
        assert mom.radiated_power(sol) == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestConvergence:
    def test_report_decreasing_deltas(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = mom.convergence_report(
                make_problem(half_length_l=0.235, radius_a=0.005, n_segments=11),
                [11, 21, 41, 81])
        deltas = [r["delta_z_in"] for r in rep[1:]]
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
        assert deltas[-1] < 5.0

    def test_rejects_bad_sequence(self):
        p = make_problem()
        with pytest.raises(DomainError):
            mom.convergence_report(p, [21, 11])
        with pytest.raises(DomainError):
            mom.convergence_report(p, [10, 20])
