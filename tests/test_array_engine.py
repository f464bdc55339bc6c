import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwkit import array_engine as ae
from mwkit import radiator as rad
from mwkit.numerics import C0, DomainError

F0 = C0  # element positions in wavelengths


def metrics_of(layout, exc, n=200_001):
    u = np.linspace(-1.0, 1.0, n)
    s = np.abs(ae.array_factor(layout, exc, u, np.zeros_like(u), F0))
    f_db = 20 * np.log10(np.maximum(s / s.max(), 1e-15))
    return rad.pattern_metrics(np.degrees(np.arcsin(u)), f_db)


class TestSteeringAndArrayFactor:
    def test_broadside_phases_zero(self):
        lay = ae.linear_layout(8, 0.5)
        exc = ae.steering_phases(lay, 0.0, 0.0, F0)
        np.testing.assert_allclose(exc.phases, 0.0, atol=1e-15)

    def test_two_element_endfire_phase(self):
        lay = ae.linear_layout(2, 0.5)
        exc = ae.steering_phases(lay, 1.0, 0.0, F0)
        dpsi = exc.phases[1] - exc.phases[0]
        assert dpsi == pytest.approx(math.pi, rel=1e-12)

    def test_coherent_sum_at_scan_direction(self):
        lay = ae.linear_layout(16, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u0 = rng.uniform(-0.9, 0.9)
            amp = rng.uniform(0.2, 1.0, 16)
            exc = ae.steering_phases(lay, u0, 0.0, F0, amplitudes=amp)
            s = ae.array_factor(lay, exc, u0, 0.0, F0)
            assert abs(s) == pytest.approx(amp.sum(), abs=1e-12)

    def test_outside_unit_disk_rejected(self):
        lay = ae.linear_layout(4, 0.5)
        with pytest.raises(DomainError):
            ae.steering_phases(lay, 0.9, 0.8, F0)

    def test_k16_reference_pattern(self):
        lay = ae.linear_layout(16, 0.5)
        m = metrics_of(lay, ae.ExcitationSet(a=np.ones(16)))
        # often quoted as 6.2 deg; the exact sum gives 6.36
        assert m["hpbw_deg"] == pytest.approx(6.359, abs=0.01)
        assert m["first_sidelobe_db"] == pytest.approx(-13.15, abs=0.1)

    def test_closed_form_agreement(self):
        lay = ae.linear_layout(16, 0.5)
        exc = ae.steering_phases(lay, 0.3, 0.0, F0)
        u = np.linspace(-1, 1, 4001)
        direct = np.abs(ae.array_factor(lay, exc, u, np.zeros_like(u), F0))
        closed = ae.uniform_linear_af_closed_form(16, 0.5, u, 0.3, F0)
        np.testing.assert_allclose(direct, closed, atol=1e-10)

    def test_single_element_flat(self):
        lay = ae.linear_layout(1, 0.5)
        exc = ae.ExcitationSet(a=np.ones(1))
        u = np.linspace(-1, 1, 11)
        s = np.abs(ae.array_factor(lay, exc, u, np.zeros_like(u), F0))
        np.testing.assert_allclose(s, 1.0, atol=1e-15)

    def test_periodicity_in_u(self):
        lay = ae.linear_layout(8, 0.25)  # period lambda0/d = 4 in u
        exc = ae.ExcitationSet(a=np.ones(8))
        u = np.linspace(-0.5, 0.5, 101)
        s1 = ae.array_factor(lay, exc, u, np.zeros_like(u), F0)
        # mathematical periodicity extends beyond visible space
        s2 = ae.array_factor(lay, exc, u + 4.0, np.zeros_like(u), F0)
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_steered_pattern_is_translated(self):
        lay = ae.linear_layout(16, 0.5)
        u0 = 0.25
        exc0 = ae.ExcitationSet(a=np.ones(16))
        exc = ae.steering_phases(lay, u0, 0.0, F0)
        u = np.linspace(-0.7, 0.7, 501)
        s_steered = ae.array_factor(lay, exc, u, np.zeros_like(u), F0)
        s_broad = ae.array_factor(lay, exc0, u - u0, np.zeros_like(u), F0)
        np.testing.assert_allclose(np.abs(s_steered), np.abs(s_broad), atol=1e-10)

    def test_planar_separable_product(self):
        lay = ae.rect_grid_layout(8, 8, 0.5, 0.5)
        u0, v0 = math.sin(math.radians(40)), 0.0
        exc = ae.steering_phases(lay, u0, v0, F0)
        rng = np.random.default_rng(1)
        for _ in range(30):
            u, v = rng.uniform(-0.7, 0.7, 2)
            s = ae.array_factor(lay, exc, u, v, F0)
            sx = ae.uniform_linear_af_closed_form(8, 0.5, u, u0, F0)
            sy = ae.uniform_linear_af_closed_form(8, 0.5, v, v0, F0)
            assert abs(s) == pytest.approx(float(sx * sy), abs=1e-10)

    def test_global_phase_invariance(self):
        lay = ae.linear_layout(8, 0.5)
        a = np.ones(8, dtype=complex)
        u = np.linspace(-1, 1, 101)
        s1 = np.abs(ae.array_factor(lay, ae.ExcitationSet(a=a), u, 0 * u, F0))
        # a real power-of-two scale reproduces the normalized pattern exactly
        s2 = np.abs(ae.array_factor(lay, ae.ExcitationSet(a=4.0 * a), u, 0 * u, F0))
        np.testing.assert_array_equal(s1 / s1.max(), s2 / s2.max())
        # a general complex scale agrees to rounding
        c = 0.3 * np.exp(1.1j)
        s3 = np.abs(ae.array_factor(lay, ae.ExcitationSet(a=c * a), u, 0 * u, F0))
        np.testing.assert_allclose(s1 / s1.max(), s3 / s3.max(), atol=1e-14)


class TestPatternGrid:
    def test_fft_matches_direct(self):
        lay = ae.linear_layout(8, 0.5)
        exc = ae.ExcitationSet(a=np.ones(8))
        g = ae.pattern_grid(lay, exc, F0, use_fft=True)
        direct = ae.array_factor(lay, exc, g["u"], np.zeros_like(g["u"]), F0)
        np.testing.assert_allclose(g["s"], direct, atol=1e-12)

    def test_fft_planar(self):
        lay = ae.rect_grid_layout(4, 4, 0.5, 0.5)
        exc = ae.ExcitationSet(a=np.ones(16))
        g = ae.pattern_grid(lay, exc, F0, use_fft=True, pad=4)
        iu = len(g["u"]) // 2
        iv = len(g["v"]) // 2
        assert abs(g["s"][iv, iu]) == pytest.approx(16.0, abs=1e-9)

    def test_fft_fallback_warns(self):
        layout = ae.sparse_layout("sunflower", 32, avg_spacing=1.0)["layout"]
        exc = ae.ExcitationSet(a=np.ones(32))
        with pytest.warns(UserWarning, match="falling back"):
            g = ae.pattern_grid(layout, exc, F0, use_fft=True, n_u=64)
        assert "power" in g

    def test_max_at_scan(self):
        lay = ae.linear_layout(16, 0.5)
        exc = ae.steering_phases(lay, 0.4, 0.0, F0)
        g = ae.pattern_grid(lay, exc, F0, n_u=2001)
        assert g["u"][np.argmax(g["power"])] == pytest.approx(0.4, abs=2e-3)


class TestTapers:
    def test_uniform_pedestal_collapse(self):
        t = ae.taper_generate("cosine_pedestal", 16, m=1, h=1.0, dx=0.5)
        np.testing.assert_allclose(t, 1.0, atol=1e-15)

    def test_cosine_sidelobes(self):
        lay = ae.linear_layout(16, 0.5)
        for m, expect in ((1, -23.0), (2, -32.0)):
            t = ae.taper_generate("cosine_pedestal", 16, m=m, h=0.0, dx=0.5)
            met = metrics_of(lay, ae.ExcitationSet(a=t.astype(complex)), 100001)
            assert met["first_sidelobe_db"] == pytest.approx(expect, abs=1.0)

    def test_symmetry_and_normalization(self):
        for kind, kw in (("cosine_pedestal", {"m": 2, "h": 0.2}),
                         ("taylor", {"sll_db": 35}),
                         ("chebyshev", {"sll_db": 25})):
            t = ae.taper_generate(kind, 17, **kw)
            np.testing.assert_allclose(t, t[::-1], atol=1e-9)
            assert t.max() == pytest.approx(1.0)
            assert np.all(t > 0)

    def test_chebyshev_hits_design_sll(self):
        lay = ae.linear_layout(16, 0.5)
        for sll in (20.0, 30.0, 40.0):
            t = ae.taper_generate("chebyshev", 16, sll_db=sll)
            met = metrics_of(lay, ae.ExcitationSet(a=t.astype(complex)), 100001)
            assert met["first_sidelobe_db"] == pytest.approx(-sll, abs=0.1)

    def test_taylor_sidelobes_bounded(self):
        lay = ae.linear_layout(64, 0.5)
        t = ae.taper_generate("taylor", 64, sll_db=40, nbar=8)
        met = metrics_of(lay, ae.ExcitationSet(a=t.astype(complex)), 100001)
        assert met["first_sidelobe_db"] <= -39.5

    def test_infeasible_sll(self):
        with pytest.raises(ae.InfeasibleError):
            ae.taper_generate("chebyshev", 16, sll_db=10.0)


class TestSchelkunov:
    def test_two_element_zero(self):
        z = ae.schelkunov_zeros(ae.ExcitationSet(a=np.array([1.0, 1.0])))
        assert z[0] == pytest.approx(-1.0)

    def test_uniform_zeros_equispaced_on_circle(self):
        k = 8
        z = ae.schelkunov_zeros(ae.ExcitationSet(a=np.ones(k)))
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-9
        angles = np.sort(np.mod(np.angle(z), 2 * math.pi))
        np.testing.assert_allclose(np.diff(angles), 2 * math.pi / k, atol=1e-9)

    def test_worked_example_quarter_wave_spacing(self):
        # K=8, d=lambda0/4: the null at theta = -30 deg maps to z = e^{-j pi/4}
        z_at = ae.schelkunov_z(math.radians(-30.0), 0.25, F0)
        assert z_at == pytest.approx(np.exp(-1j * math.pi / 4), abs=1e-12)
        zeros = ae.schelkunov_zeros(ae.ExcitationSet(a=np.ones(8)))
        assert np.min(np.abs(zeros - z_at)) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.uniform(0.2, 1.0, 12) * np.exp(1j * rng.uniform(-3, 3, 12))
            zeros = ae.schelkunov_zeros(ae.ExcitationSet(a=a))
            back = ae.schelkunov_coefficients(zeros, scale=a[-1])
            np.testing.assert_allclose(back.a, a, atol=1e-8)

    def test_round_trip_preserves_pattern(self):
        t = ae.taper_generate("taylor", 16, sll_db=30).astype(complex)
        zeros = ae.schelkunov_zeros(ae.ExcitationSet(a=t))
        back = ae.schelkunov_coefficients(zeros, scale=t[-1])
        lay = ae.linear_layout(16, 0.5)
        u = np.linspace(-1, 1, 512)
        s1 = np.abs(ae.array_factor(lay, ae.ExcitationSet(a=t), u, 0 * u, F0))
        s2 = np.abs(ae.array_factor(lay, back, u, 0 * u, F0))
        np.testing.assert_allclose(s1, s2, atol=1e-8 * s1.max())


class TestGratingLobes:
    def test_full_scan_bound(self):
        assert ae.max_spacing_wl(math.pi / 2) == pytest.approx(0.5)

    def test_one_wavelength_boundary(self):
        lobes = ae.grating_lobes(1.0, 0.0)["lobes"]
        us = sorted(u for u, _ in lobes)
        assert us == pytest.approx([-1.0, 1.0])

    def test_two_wavelength_enumeration(self):
        lobes = ae.grating_lobes(2.0, 0.0)["lobes"]
        us = sorted(u for u, _ in lobes)
        assert us == pytest.approx([-1.0, -0.5, 0.5, 1.0])

    def test_lobes_reach_main_beam_level(self):
        lay = ae.linear_layout(16, 2.0)
        exc = ae.ExcitationSet(a=np.ones(16))
        for u, _ in ae.grating_lobes(2.0, 0.0)["lobes"]:
            s = abs(ae.array_factor(lay, exc, u, 0.0, F0))
            assert s == pytest.approx(16.0, abs=1e-9)

    def test_planar_grid(self):
        lobes = ae.grating_lobes(1.0, 0.0, dy_wl=1.0, v0=0.0)["lobes"]
        assert (1.0, 0.0) in [(round(u, 9), round(v, 9)) for u, v in lobes]
        assert (0.0, 1.0) in [(round(u, 9), round(v, 9)) for u, v in lobes]


class TestDirectivityAndErrors:
    def test_uniform_1000(self):
        d = ae.directivity_taper_efficiency(ae.ExcitationSet(a=np.ones(1000)), 0.5)
        assert d["directivity_db"] == pytest.approx(30.0, abs=1e-9)
        assert d["eta_tap"] == pytest.approx(1.0)

    def test_single_element(self):
        d = ae.directivity_taper_efficiency(ae.ExcitationSet(a=np.ones(1)), 0.5)
        assert d["directivity"] == pytest.approx(1.0)

    def test_taylor_40db_efficiency(self):
        t = ae.taper_generate("taylor", 64, sll_db=40, nbar=8)
        d = ae.directivity_taper_efficiency(ae.ExcitationSet(a=t.astype(complex)), 0.5)
        assert d["eta_tap"] == pytest.approx(0.76, abs=0.01)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_taper_efficiency_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        amp = rng.uniform(0.01, 1.0, k)
        d = ae.directivity_taper_efficiency(ae.ExcitationSet(a=amp.astype(complex)), 0.5)
        assert d["eta_tap"] <= 1.0 + 1e-12

    def test_uniform_attains_equality(self):
        d = ae.directivity_taper_efficiency(ae.ExcitationSet(a=np.ones(17)), 0.5)
        assert d["eta_tap"] == pytest.approx(1.0, abs=1e-12)

    def test_quantization_worked_example(self):
        model = ae.ErrorModel(phase_bits=4)
        r = ae.error_statistics(ae.ExcitationSet(a=np.ones(64)), model)
        cf = r["closed_form"]
        assert cf["phase_var"] == pytest.approx(0.0129, abs=1e-4)
        assert cf["avg_null_sll_db"] == pytest.approx(-36.9, abs=0.1)
        assert cf["directivity_ratio_db"] == pytest.approx(-0.0557, abs=0.001)

    def test_infinite_bits_no_loss(self):
        model = ae.ErrorModel(phase_bits=30)
        r = ae.error_statistics(ae.ExcitationSet(a=np.ones(64)), model)
        assert r["closed_form"]["directivity_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_matches_closed_form(self):
        model = ae.ErrorModel(phase_bits=4, seed=12345)
        r = ae.error_statistics(ae.ExcitationSet(a=np.ones(64)), model,
                                n_trials=4000)
        assert r["monte_carlo"]["avg_null_sll_db"] == \
            pytest.approx(r["closed_form"]["avg_null_sll_db"], abs=1.0)

    def test_monte_carlo_partition_invariant_seeding(self):
        model = ae.ErrorModel(phase_var=0.01, seed=7)
        exc = ae.ExcitationSet(a=np.ones(16))
        r1 = ae.error_statistics(exc, model, n_trials=50)["monte_carlo"]
        r2 = ae.error_statistics(exc, model, n_trials=50)["monte_carlo"]
        assert r1["avg_null_sll"] == r2["avg_null_sll"]

    def test_monte_carlo_convergence_rate(self):
        # deviation from the closed form shrinks roughly like 1/sqrt(n)
        model = ae.ErrorModel(phase_var=0.02, seed=3)
        exc = ae.ExcitationSet(a=np.ones(32))
        cf = ae.error_statistics(exc, model)["closed_form"]["avg_null_sll"]
        devs = []
        for n in (200, 3200):
            mc = ae.error_statistics(exc, model, n_trials=n)["monte_carlo"]
            devs.append(abs(mc["avg_null_sll"] - cf) / cf)
        assert devs[1] < devs[0]

    def test_large_error_warns(self):
        with pytest.warns(UserWarning, match="small-error"):
            ae.error_statistics(ae.ExcitationSet(a=np.ones(8)),
                                ae.ErrorModel(phase_var=0.5))

    def test_negative_trial_count_rejected(self):
        with pytest.raises(DomainError, match="n_trials"):
            ae.error_statistics(ae.ExcitationSet(a=np.ones(4)), ae.ErrorModel(),
                                n_trials=-1)


def monte_carlo_per_trial(amp, model, dx_wl, n_trials, points):
    """One matrix-vector product per trial, the draws of _error_monte_carlo."""
    k = len(amp)
    x = np.arange(k) * dx_wl
    u_nulls = np.arange(1, min(k - 1, 8)) / (k * dx_wl)
    phase_nulls = np.exp(2j * math.pi * np.multiply.outer(u_nulls, x))
    u_grid = np.linspace(-1, 1, points) if points else np.zeros(0)
    phase_grid = np.exp(2j * math.pi * np.multiply.outer(u_grid, x))
    d2 = model.effective_phase_var()
    mean_null = mean_peak = 0.0
    pattern = np.zeros(len(u_grid))
    for trial in range(n_trials):
        rng = np.random.default_rng([model.seed, trial])
        if model.phase_bits is not None:
            step = 2 * math.pi / 2**model.phase_bits
            dphi = rng.uniform(-0.5 * step, 0.5 * step, k)
        else:
            dphi = rng.normal(0.0, math.sqrt(d2), k) if d2 > 0 else np.zeros(k)
        damp = 1.0 + (rng.normal(0.0, math.sqrt(model.amp_var), k)
                      if model.amp_var > 0 else 0.0)
        a_err = amp * damp * np.exp(-1j * dphi)
        mean_null += np.mean(np.abs(phase_nulls @ a_err) ** 2)
        mean_peak += abs(np.sum(a_err)) ** 2
        pattern += np.abs(phase_grid @ a_err) ** 2
    return mean_null / mean_peak, pattern / n_trials


class TestMonteCarloBlocks:
    """Trials run in blocks of stacked matrix products; the per-trial draws
    and the order of the running sums are those of a per-trial loop."""

    @pytest.mark.parametrize("n_trials", [1, 255, 257, 513])
    @pytest.mark.parametrize("model", [
        ae.ErrorModel(phase_bits=3, seed=1),
        ae.ErrorModel(phase_var=0.01, seed=2),
        ae.ErrorModel(phase_var=0.005, amp_var=0.01, seed=3),
    ], ids=["bits", "phase-var", "amp-var"])
    @pytest.mark.parametrize("points", [201, None])
    def test_matches_per_trial_loop(self, n_trials, model, points):
        amp = ae.taper_generate("taylor", 48, sll_db=30).astype(complex)
        res = ae.error_statistics(ae.ExcitationSet(a=amp), model, n_trials=n_trials,
                                  mean_pattern_points=points)["monte_carlo"]
        ratio, pattern = monte_carlo_per_trial(amp, model, 0.5, n_trials, points)
        assert res["n_trials"] == n_trials
        assert res["avg_null_sll"] == pytest.approx(ratio, rel=1e-13)
        if points is None:
            assert "mean_pattern" not in res
        else:
            # pointwise relative to the pattern peak: the nulls of a single
            # trial carry the cancellation error of the sum itself
            np.testing.assert_allclose(res["mean_pattern"], pattern, rtol=0,
                                       atol=1e-13 * pattern.max())


class TestArraySnr:
    def test_k1_standard_receiver(self):
        from mwkit.numerics import KB
        r = ae.array_snr(1, 10.0, 2.0, 100.0, 300.0, 1e6, 1e-12)
        expect = 1e-12 / (KB * 1e6 * (100.0 + 300.0))
        assert r["snr"] == pytest.approx(expect, rel=1e-12)

    def test_electronics_term_scales_inverse_k(self):
        r1 = ae.array_snr(10, 10.0, 2.0, 100.0, 300.0, 1e6, 1e-12)
        r2 = ae.array_snr(20, 10.0, 2.0, 100.0, 300.0, 1e6, 1e-12)
        assert r2["noise_electronics_w"] == pytest.approx(
            r1["noise_electronics_w"] / 2, rel=1e-12)

    def test_worked_100_element(self):
        from mwkit.numerics import KB
        r = ae.array_snr(100, 100.0, 2.0, 100.0, 300.0, 1e6, 1e-12)
        assert r["noise_electronics_w"] / (KB * 1e6) == pytest.approx(3.0, rel=1e-12)
        assert r["noise_antenna_w"] / (KB * 1e6) == pytest.approx(100.0, rel=1e-12)

    def test_large_k_limit(self):
        from mwkit.numerics import KB
        r = ae.array_snr(10**9, 10.0, 10.0, 150.0, 300.0, 1e6, 1e-12)
        assert r["snr"] == pytest.approx(1e-12 / (KB * 150.0 * 1e6), rel=1e-6)


class TestActiveReflection:
    def test_no_coupling_scan_independent(self):
        s = np.diag([0.2 + 0.1j, 0.2 + 0.1j]).astype(complex)
        cm = ae.CouplingModel(s_matrix=s)
        for u0 in (0.0, 0.5, -0.7):
            lay = ae.linear_layout(2, 0.5)
            exc = ae.steering_phases(lay, u0, 0.0, F0)
            r = ae.active_reflection(cm, exc)
            np.testing.assert_allclose(r["r_act"], 0.2 + 0.1j, atol=1e-12)

    def test_two_element_broadside(self):
        s = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        r = ae.active_reflection(ae.CouplingModel(s_matrix=s),
                                 ae.ExcitationSet(a=np.ones(2)))
        np.testing.assert_allclose(r["r_act"], 0.3, atol=1e-15)
        np.testing.assert_allclose(r["scan_loss"], 1 - 0.09, atol=1e-15)

    def test_impedance_bilinear_consistency(self):
        s = np.array([[0.1, 0.25], [0.25, 0.1]], dtype=complex)
        r = ae.active_reflection(ae.CouplingModel(s_matrix=s),
                                 ae.ExcitationSet(a=np.array([1.0, 0.5j])))
        for rj, zj in zip(r["r_act"], r["z_in_act"]):
            back = (zj - 50.0) / (zj + 50.0)
            assert back == pytest.approx(rj, rel=1e-12)

    def test_zero_excitation_flagged(self):
        s = np.eye(2, dtype=complex) * 0.1
        r = ae.active_reflection(ae.CouplingModel(s_matrix=s),
                                 ae.ExcitationSet(a=np.array([1.0, 0.0])))
        assert r["undefined"][1]
        assert np.isnan(r["r_act"][1].real)

    def test_scan_sweep_with_synthetic_coupling(self):
        k = 8
        lay = ae.linear_layout(k, 0.5)
        idx = np.arange(k)
        s = 0.2 * np.exp(-np.abs(np.subtract.outer(idx, idx))) * \
            np.exp(-1j * math.pi * np.abs(np.subtract.outer(idx, idx)))
        np.fill_diagonal(s, 0.05)
        cm = ae.CouplingModel(s_matrix=s)
        for u0 in (-0.6, 0.0, 0.6):
            exc = ae.steering_phases(lay, u0, 0.0, F0)
            r = ae.active_reflection(cm, exc)
            np.testing.assert_allclose(r["scan_loss"],
                                       1 - np.abs(r["r_act"]) ** 2, atol=1e-14)
            su = ae.array_factor(lay, exc, u0, 0.0, F0, coupling=cm,
                                 scan_uv=(u0, 0.0))
            expect = np.sum(np.sqrt(np.maximum(0, 1 - np.abs(r["r_act"]) ** 2)))
            assert abs(su) == pytest.approx(expect, rel=1e-12)


class TestSparseLayouts:
    def test_regular_grid(self):
        res = ae.sparse_layout("regular", 32, d=2.0)
        lay = res["layout"]
        assert lay.n_elements == 32
        np.testing.assert_allclose(np.diff(lay.positions[:, 0]), 2.0, atol=1e-12)

    def test_regular_sparse_has_grating_lobes(self):
        res = ae.sparse_layout("regular", 32, d=2.0)
        exc = ae.ExcitationSet(a=np.ones(32))
        lobes = ae.grating_lobes(2.0, 0.0)["lobes"]
        for u, _ in lobes:
            s = abs(ae.array_factor(res["layout"], exc, u, 0.0, F0))
            assert s == pytest.approx(32.0, abs=1e-8)

    def test_sunflower_spacing(self):
        res = ae.sparse_layout("sunflower", 289, avg_spacing=2.0)
        pos = res["layout"].positions
        d2 = np.sum((pos[:, None] - pos[None, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        nn = np.sqrt(d2.min(axis=1))
        assert nn.mean() == pytest.approx(2.0, rel=1e-9)
        assert nn.min() >= 0.5 * 2.0

    def test_sunflower_prediction(self):
        res = ae.sparse_layout("sunflower", 1000, avg_spacing=2.0)
        assert res["predicted_avg_sll_db"] == pytest.approx(-30.0, abs=1e-9)

    def test_sunflower_no_grating_lobes(self):
        res = ae.sparse_layout("sunflower", 289, avg_spacing=2.0)
        exc = ae.ExcitationSet(a=np.ones(289))
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, 4000)
        v = rng.uniform(-1, 1, 4000)
        keep = (u**2 + v**2 <= 1.0) & (u**2 + v**2 > 0.02)
        s = np.abs(ae.array_factor(res["layout"], exc, u[keep], v[keep], F0))
        # the speckle peak of an N-element irregular array sits near
        # 1/N + ~9.5 dB = -15 dB here; no grating-lobe-class maxima appear
        assert 20 * np.log10(s.max() / 289.0) < -14.0
        mean_sll_db = 10 * np.log10(np.mean(s**2) / 289.0**2)
        assert mean_sll_db == pytest.approx(10 * np.log10(1 / 289.0), abs=1.5)

    def test_small_count_warns(self):
        with pytest.warns(UserWarning, match="large array"):
            ae.sparse_layout("sunflower", 8, avg_spacing=1.0)

    @staticmethod
    def vogel_spiral(count):
        n = np.arange(count)
        rr = np.sqrt(n + 0.5)
        ang = n * ae.GOLDEN_ANGLE
        return np.column_stack([rr * np.cos(ang), rr * np.sin(ang)])

    @staticmethod
    def all_pairs_mean(pos, rows=256):
        best = np.empty(len(pos))
        for s in range(0, len(pos), rows):
            d2 = np.sum((pos[s:s + rows, None, :] - pos[None, :, :]) ** 2, axis=-1)
            d2[np.arange(len(d2)), np.arange(s, s + len(d2))] = np.inf
            best[s:s + rows] = d2.min(axis=1)
        return float(np.mean(np.sqrt(best)))

    def test_radial_sweep_equals_all_pairs(self):
        for count in [*range(2, 401), 1000, 2584, 4000]:
            pos = self.vogel_spiral(count)
            assert ae._nearest_neighbor_mean(pos) == self.all_pairs_mean(pos), count

    def test_radial_sweep_on_radius_sorted_points(self):
        # any point set listed by radius, not only the spiral: the stop test
        # must hold for both points of every pair
        rng = np.random.default_rng(0)
        for _ in range(2000):
            count = int(rng.integers(2, 13))
            rr = np.sort(rng.uniform(0.0, 3.0, count))
            ang = rng.uniform(0.0, 2 * math.pi, count)
            pos = np.column_stack([rr * np.cos(ang), rr * np.sin(ang)])
            assert ae._nearest_neighbor_mean(pos) == self.all_pairs_mean(pos)

    def test_sunflower_memory_is_linear(self):
        # an all-pairs search holds an (N, N, 2) array: 256 MB at N = 4000
        tracemalloc.start()
        try:
            ae.sparse_layout("sunflower", 4000, avg_spacing=0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestCalibration:
    def test_identity_chain(self):
        r = ae.calibration([2.0 * 3.0], [1.0 * 3.0], [1.0 * 5.0])
        assert r["c"][0] == pytest.approx(2.0)
        assert r["a_reconstructed"][0] == pytest.approx(10.0)

    def test_reproduces_offline(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        r = ae.calibration(a, b, b)
        np.testing.assert_allclose(r["a_reconstructed"], a, atol=1e-14)

    def test_random_transfers_64(self):
        rng = np.random.default_rng(7)
        n = 64
        hff = rng.normal(size=n) + 1j * rng.normal(size=n)
        hcal = rng.normal(size=n) + 1j * rng.normal(size=n)
        hcom = rng.normal(size=n) + 1j * rng.normal(size=n)
        hcom2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = ae.calibration(hff * hcom, hcal * hcom, hcal * hcom2)
        assert np.max(np.abs(r["a_reconstructed"] - hff * hcom2)) < 1e-12

    def test_zero_reference_flagged(self):
        r = ae.calibration([1.0, 2.0], [1.0, 0.0], [1.0, 1.0])
        assert not r["failed"][0]
        assert r["failed"][1]


class TestFocalPlane:
    def test_center_value(self):
        assert ae.fpa_focal_field(0.0, F0) == 1.0

    def test_first_null_radius(self):
        r_null = 3.8317059702 / (2 * math.pi * math.sin(math.pi / 4))
        assert abs(ae.fpa_focal_field(r_null, F0)) < 1e-9
        assert r_null == pytest.approx(0.8624, abs=1e-4)

    def test_airy_encircled_energy(self):
        r_null = 3.8317059702 / (2 * math.pi * math.sin(math.pi / 4))
        assert ae.fpa_efficiency(r_null, F0) == pytest.approx(0.838, abs=0.001)

    def test_efficiency_by_quadrature_oracle(self):
        from mwkit.numerics import QuadratureSpec, integrate_adaptive
        r_p = 1.3
        num, _ = integrate_adaptive(
            lambda r: ae.fpa_focal_field(r, F0) ** 2 * r, 1e-12, r_p,
            QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10))
        # total power of the Airy distribution: 2/(k0 sin psi0)^2
        total = 2.0 / (2 * math.pi * math.sin(math.pi / 4)) ** 2
        assert ae.fpa_efficiency(r_p, F0) == pytest.approx(num / total, rel=1e-6)

    def test_monotone_to_one(self):
        vals = [ae.fpa_efficiency(r, F0) for r in np.linspace(0, 30, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.99


class TestBeamSquint:
    def test_design_frequency_no_squint(self):
        r = ae.beam_squint(0.5, 12e9, 12e9)
        assert r["u_actual"] == 0.5

    def test_worked_example(self):
        r = ae.beam_squint(math.sin(math.radians(40)), 12e9, 14e9)
        assert r["u_actual"] == pytest.approx(0.551, abs=1e-3)
        assert r["theta_deg"] == pytest.approx(33.4, abs=0.1)

    def test_squint_confirmed_by_pattern_argmax(self):
        # a 64-element array steered at f0 = 12 GHz peaks at u0 f0/f at 14 GHz
        f0, f = 12e9, 14e9
        lam0 = C0 / f0
        lay = ae.linear_layout(64, 0.5 * lam0)
        u0 = math.sin(math.radians(40))
        exc = ae.steering_phases(lay, u0, 0.0, f0)
        u = np.linspace(0.3, 0.8, 20001)
        s = np.abs(ae.array_factor(lay, exc, u, np.zeros_like(u), f))
        assert u[np.argmax(s)] == pytest.approx(u0 * f0 / f, abs=1e-3)

    def test_out_of_visible_space(self):
        r = ae.beam_squint(0.9, 12e9, 10e9)
        assert not r["visible"]

    def test_broadening(self):
        assert ae.broadened_hpbw(6.2, math.radians(60.0)) == pytest.approx(12.4)
        with pytest.raises(DomainError):
            ae.broadened_hpbw(6.2, math.radians(90.0))


class TestAmplitudeErrors:
    def test_combined_amp_and_phase_closed_form(self):
        model = ae.ErrorModel(phase_var=0.005, amp_var=0.004, seed=11)
        exc = ae.ExcitationSet(a=np.ones(64))
        r = ae.error_statistics(exc, model, n_trials=6000)
        cf = r["closed_form"]
        expect = (0.005 + 0.004) / (64 * (1 - 0.009))
        assert cf["avg_null_sll"] == pytest.approx(expect, rel=1e-12)
        assert cf["directivity_ratio"] == pytest.approx(1 / 1.009, rel=1e-12)
        assert r["monte_carlo"]["avg_null_sll_db"] == \
            pytest.approx(cf["avg_null_sll_db"], abs=1.0)
