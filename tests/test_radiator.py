import math

import numpy as np
import pytest

from mwkit import numerics
from mwkit import radiator as rad
from mwkit.numerics import C0, ETA0, DomainError, QuadratureSpec

from conftest import mirrored_cut

F0 = C0  # lambda0 = 1 m
LAM = 1.0


class TestFarFields:
    def test_electric_dipole_equator(self):
        s = rad.far_field(rad.ElectricDipole(i0l=1.0), math.pi / 2, 0.0, F0)
        k0 = 2 * math.pi
        assert abs(complex(s.e_theta)) == pytest.approx(k0 * ETA0 / (4 * math.pi), rel=1e-12)
        assert complex(s.e_phi) == 0

    def test_dipole_sin_theta_shape(self):
        th = np.linspace(0, math.pi, 19)
        s = rad.far_field(rad.ElectricDipole(), th, 0.0, F0)
        ratio = np.abs(s.e_theta) / np.abs(
            complex(rad.far_field(rad.ElectricDipole(), math.pi / 2, 0.0, F0).e_theta))
        np.testing.assert_allclose(ratio, np.sin(th), atol=1e-12)

    def test_half_wave_wire_axis_null_and_shape(self):
        w = rad.ThinWire(half_length_l=LAM / 4)
        assert abs(complex(rad.far_field(w, 0.0, 0.0, F0).e_theta)) == 0.0
        th = np.linspace(0.2, math.pi - 0.2, 31)
        e = np.abs(rad.far_field(w, th, 0.0, F0).e_theta)
        shape = np.cos(math.pi / 2 * np.cos(th)) / np.sin(th)
        np.testing.assert_allclose(e / e.max(), shape / shape.max(), atol=1e-12)

    def test_wire_over_ground_zenith_null_at_half_wave_height(self):
        w = rad.WireOverGround(half_length_l=LAM / 4, height_h=0.5 * LAM)
        s = rad.far_field(w, 0.0, math.pi / 2, F0)
        assert abs(complex(s.e_theta)) < 1e-12
        assert abs(complex(s.e_phi)) < 1e-12

    def test_ground_plane_domain(self):
        w = rad.WireOverGround(half_length_l=LAM / 4, height_h=0.25 * LAM)
        with pytest.raises(DomainError):
            rad.far_field(w, 0.75 * math.pi, 0.0, F0)

    def test_ground_pattern_zeros_and_bound(self):
        for h in (0.1, 0.3, 0.5, 1.0):
            w = rad.WireOverGround(half_length_l=LAM / 4, height_h=h * LAM)
            th = np.linspace(0, math.pi / 2, 4001)
            fr = rad.ground_relative_pattern(w, th, F0)
            assert fr.max() <= 4.0 + 1e-12
            # zeros exactly where sin(k0 h cos theta) = 0
            k0h = 2 * math.pi * h
            for m in range(0, int(k0h / math.pi) + 1):
                c = m * math.pi / k0h
                if c <= 1.0:
                    th0 = math.acos(c)
                    assert rad.ground_relative_pattern(w, th0, F0) == pytest.approx(0.0, abs=1e-20)

    def test_rect_aperture_components(self):
        ap = rad.RectAperture(a=4 * LAM, b=2 * LAM)
        s = rad.far_field(ap, 0.1, 0.0, F0)   # H-plane: E_phi only
        assert abs(complex(s.e_theta)) < 1e-15
        s = rad.far_field(ap, 0.1, math.pi / 2, F0)  # E-plane: E_theta only
        assert abs(complex(s.e_phi)) < 1e-15

    def test_loop_small_radius_magnetic_dipole_limit(self):
        a = LAM / 50.0
        loop = rad.Loop(radius_a=a)
        md = rad.MagneticDipole(moment=math.pi * a * a)
        th = np.linspace(0.05, math.pi - 0.05, 41)
        e1 = np.abs(rad.far_field(loop, th, 0.0, F0).e_phi)
        e2 = np.abs(rad.far_field(md, th, 0.0, F0).e_phi)
        assert np.max(np.abs(e1 - e2) / e2) < 0.01

    def test_poynting_consistency(self):
        # H = u_r x E / Z0 gives S = |E|^2/(2 Z0); check the magnitude chain
        s = rad.far_field(rad.ThinWire(half_length_l=LAM / 4), 1.0, 0.3, F0)
        e2 = abs(complex(s.e_theta)) ** 2 + abs(complex(s.e_phi)) ** 2
        h_mag = math.sqrt(e2) / ETA0
        assert 0.5 * math.sqrt(e2) * h_mag == pytest.approx(e2 / (2 * ETA0), rel=1e-12)


class TestPatternsAndMetrics:
    def test_dipole_hpbw_90(self):
        th, fdb = mirrored_cut(rad.ElectricDipole(), F0, math.pi / 2, 20001)
        # max sits at +-90 deg; shift the cut to span the equator instead
        th2 = np.linspace(math.pi / 2 - 1.2, math.pi / 2 + 1.2, 20001)
        pat = rad.normalized_pattern(rad.ElectricDipole(), F0, th2)
        m = rad.pattern_metrics(np.degrees(th2), pat["f_db"])
        assert m["hpbw_deg"] == pytest.approx(90.0, abs=0.1)

    def test_wire_hpbws(self):
        th = np.linspace(0.3, math.pi - 0.3, 40001)
        for l, expect in ((LAM / 4, 78.08), (LAM / 2, 47.84)):
            pat = rad.normalized_pattern(rad.ThinWire(half_length_l=l), F0, th)
            m = rad.pattern_metrics(np.degrees(th), pat["f_db"])
            # commonly quoted as 78 and 47 degrees; exact values below
            assert m["hpbw_deg"] == pytest.approx(expect, abs=0.05)

    def test_rect_aperture_metrics(self):
        th, fdb = mirrored_cut(rad.RectAperture(a=4 * LAM, b=2 * LAM), F0,
                               math.pi / 2, 40001)
        m = rad.pattern_metrics(th, fdb)
        # the pure sinc values are 12.72 deg and -13.26 dB; the obliquity
        # factor of the full aperture field narrows/lowers them slightly
        assert m["hpbw_deg"] == pytest.approx(12.663, abs=0.01)
        assert m["first_sidelobe_db"] == pytest.approx(-13.552, abs=0.02)

    def test_rect_aperture_sinc_kernel_sidelobe(self):
        # the separable sinc kernel itself peaks at -13.26 dB
        x = np.linspace(3.0, 6.0, 200001)
        side = np.max((np.sin(x) / x) ** 2)
        assert 10 * math.log10(side) == pytest.approx(-13.26, abs=0.01)

    def test_circular_aperture_table(self):
        # HPBW coefficients and sidelobe levels of the taper family
        expects = {0: (29.2, -17.6), 1: (36.4, -24.6), 2: (42.1, -30.6)}
        a = 20 * LAM
        for p, (coef, sll) in expects.items():
            th, fdb = mirrored_cut(rad.CircularAperture(radius_a=a, taper_p=p),
                                   F0, 0.15, 40001)
            m = rad.pattern_metrics(th, fdb)
            assert m["hpbw_deg"] * 20 == pytest.approx(coef, rel=0.01)
            assert m["first_sidelobe_db"] == pytest.approx(sll, abs=0.2)

    def test_microstrip_principal_plane_widths(self):
        ms = rad.MicrostripCircular(radius_a=4.6e-3, eps_r=2.56, height_h=0.5e-3)
        f = 11.95e9
        for phi, expect in ((0.0, 104.0), (math.pi / 2, 80.0)):
            th, fdb = mirrored_cut(ms, f, math.pi / 2, 4001, phi=phi)
            m = rad.pattern_metrics(th, fdb)
            assert m["hpbw_deg"] == pytest.approx(expect, abs=1.5)

    def test_floor_clamp(self):
        th = np.linspace(1e-6, math.pi - 1e-6, 1001)
        pat = rad.normalized_pattern(rad.ThinWire(half_length_l=LAM / 4), F0, th)
        assert pat["f_db"].min() >= rad.PATTERN_FLOOR_DB
        assert pat["f_db"].max() == pytest.approx(0.0, abs=1e-12)

    def test_partial_flag_when_max_at_edge(self):
        th = np.linspace(1e-6, 0.2, 101)
        pat = rad.normalized_pattern(rad.RectAperture(a=4 * LAM, b=2 * LAM), F0, th)
        m = rad.pattern_metrics(np.degrees(th), pat["f_db"])
        assert m["partial"]
        assert m["hpbw_deg"] is None

    def test_sin_squared_pattern_hpbw(self):
        th = np.linspace(0.2, math.pi - 0.2, 10001)
        fdb = 10 * np.log10(np.sin(th) ** 2)
        m = rad.pattern_metrics(np.degrees(th), fdb)
        assert m["hpbw_deg"] == pytest.approx(90.0, abs=0.1)


class TestDirectivity:
    def test_electric_dipole(self):
        assert rad.directivity(rad.ElectricDipole(), F0) == pytest.approx(1.5, rel=5e-3)

    def test_magnetic_dipole(self):
        assert rad.directivity(rad.MagneticDipole(), F0) == pytest.approx(1.5, rel=5e-3)

    def test_half_wave_wire(self):
        d = rad.directivity(rad.ThinWire(half_length_l=LAM / 4), F0)
        assert d == pytest.approx(1.64, abs=0.01)
        assert 10 * math.log10(d) == pytest.approx(2.15, abs=0.03)

    def test_circular_aperture_factors(self):
        # aperture-efficiency closed form (2p+1)/(p+1)^2 relative to
        # (2 pi a/lambda0)^2; the table rounds p=2 to 0.56
        a = 16 * LAM
        scale = (2 * math.pi * a / LAM) ** 2
        for p in (0, 1, 2):
            factor = (2 * p + 1) / (p + 1) ** 2
            d = rad.directivity(rad.CircularAperture(radius_a=a, taper_p=p), F0)
            assert d / scale == pytest.approx(factor, rel=5e-3)

    def test_ground_plane_uses_upper_hemisphere(self):
        d_free = rad.directivity(rad.ThinWire(half_length_l=LAM / 4), F0)
        d_gp = rad.directivity(
            rad.WireOverGround(half_length_l=LAM / 4, height_h=0.25 * LAM), F0)
        assert d_gp > d_free


def _per_node_sphere_integral(model, freq):
    """The per-node formulation: one scalar ring callback per theta node
    through integrate_adaptive, 64 phi copies of theta in each ring."""
    upper_only = isinstance(model, rad.GROUND_PLANE_MODELS)
    phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)

    def ring(theta):
        p = rad.power_pattern(model, np.full_like(phis, theta), phis, freq)
        return float(np.mean(p)) * 2 * math.pi * math.sin(theta)

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=4000)
    val, _ = numerics.integrate_adaptive(ring, 0.0, math.pi / 2 if upper_only else math.pi,
                                         spec)
    return val


def _per_node_directivity(model, freq):
    """P_max on the full 2001 x 64 meshgrid over the per-node sphere integral."""
    upper_only = isinstance(model, rad.GROUND_PLANE_MODELS)
    th = np.linspace(1e-9, (math.pi / 2 if upper_only else math.pi) - 1e-9, 2001)
    ph = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    pmax = float(np.max(rad.power_pattern(model, tt, pp, freq)))
    return 4 * math.pi * pmax / _per_node_sphere_integral(model, freq)


_PATCH_FREQ = 5e9
_EVERY_MODEL = {
    "electric-dipole": (rad.ElectricDipole(i0l=0.01), F0),
    "magnetic-dipole": (rad.MagneticDipole(), F0),
    "thin-wire": (rad.ThinWire(half_length_l=0.7 * LAM), F0),
    "folded-dipole": (rad.FoldedDipole(), F0),
    "loop": (rad.Loop(radius_a=1.3 * LAM), F0),
    "wire-over-ground": (rad.WireOverGround(half_length_l=LAM / 4, height_h=0.3 * LAM), F0),
    "rect-aperture": (rad.RectAperture(a=2.0 * LAM, b=1.5 * LAM), F0),
    "circular-p0": (rad.CircularAperture(radius_a=1.2 * LAM, taper_p=0), F0),
    "circular-p1": (rad.CircularAperture(radius_a=2.0 * LAM, taper_p=1), F0),
    "circular-p2": (rad.CircularAperture(radius_a=1.5 * LAM, taper_p=2), F0),
    "microstrip-11": (rad.MicrostripCircular(radius_a=0.02, eps_r=2.2, height_h=0.0016),
                      _PATCH_FREQ),
    "microstrip-02": (rad.MicrostripCircular(radius_a=0.02, eps_r=2.2, height_h=0.0016,
                                             mode_n=0, mode_m=2), _PATCH_FREQ),
}


class TestBatchedSphereRule:
    @pytest.mark.parametrize("name", _EVERY_MODEL)
    def test_directivity_equals_the_per_node_formulation(self, name):
        model, freq = _EVERY_MODEL[name]
        assert rad.directivity(model, freq) == _per_node_directivity(model, freq)

    def test_thin_wire_radiated_power_equals_the_per_node_formulation(self):
        model = rad.ThinWire(half_length_l=LAM / 4)
        r = rad.radiated_power_and_rr(model, 1.0, F0)
        p_t = _per_node_sphere_integral(model, F0) / (2.0 * ETA0)
        assert r["p_t"] == p_t
        assert r["r_r"] == p_t / 0.5

    def test_bessel_runs_on_theta_only(self, monkeypatch):
        points = []
        original = rad.bessel_j

        def counted(order, x):
            points.append(np.size(x))
            return original(order, x)

        monkeypatch.setattr(rad, "bessel_j", counted)
        rad.directivity(rad.CircularAperture(radius_a=3.5 * LAM), F0)
        # a 2001 x 64 P_max grid alone is 128 064 points
        assert 0 < sum(points) < 10_000


class TestRadiatedPower:
    def test_dipole_closed_form(self):
        # R_a = 80 pi^2 (l/lambda0)^2
        for l_wl in (0.01, 0.02):
            r = rad.radiated_power_and_rr(rad.ElectricDipole(i0l=l_wl * LAM), 1.0, F0)
            assert r["r_r"] == pytest.approx(80 * math.pi**2 * l_wl**2, rel=1e-3)

    def test_dipole_worked_value(self):
        r = rad.radiated_power_and_rr(rad.ElectricDipole(i0l=0.01 * LAM), 1.0, F0)
        assert r["r_r"] == pytest.approx(0.079, abs=0.001)

    def test_half_wave_wire_via_cosine_integral(self):
        # closed form through ci(2 pi): R = eta0 (C + ln 2pi - ci(2pi)) / (4 pi)
        from mwkit.numerics import cosine_integral
        ip = 0.5 * (0.5772156649 + math.log(2 * math.pi) - cosine_integral(2 * math.pi))
        closed = ETA0 * ip / (2 * math.pi)
        r = rad.radiated_power_and_rr(rad.ThinWire(half_length_l=LAM / 4), 1.0, F0)
        assert r["r_r"] == pytest.approx(closed, rel=1e-6)
        assert r["r_r"] == pytest.approx(73.1, abs=0.2)

    def test_power_independent_of_amplitude_scaling(self):
        r1 = rad.radiated_power_and_rr(rad.ThinWire(half_length_l=LAM / 4, i0=1.0), 1.0, F0)
        r2 = rad.radiated_power_and_rr(rad.ThinWire(half_length_l=LAM / 4, i0=2.0), 2.0, F0)
        assert r2["p_t"] == pytest.approx(4 * r1["p_t"], rel=1e-9)
        assert r2["r_r"] == pytest.approx(r1["r_r"], rel=1e-9)

    def test_folded_dipole_behavioral(self):
        r = rad.radiated_power_and_rr(rad.FoldedDipole(), 1.0, F0)
        assert r["r_r"] == pytest.approx(292.0, abs=1.5)


class TestPolarization:
    def test_lhcp(self):
        r = rad.polarization_metrics(1.0, 1j)
        assert r["sense"] == "LHCP"
        assert r["axial_ratio"] == pytest.approx(1.0)

    def test_rhcp(self):
        r = rad.polarization_metrics(1.0, -1j)
        assert r["sense"] == "RHCP"
        assert r["axial_ratio"] == pytest.approx(1.0)

    def test_linear(self):
        r = rad.polarization_metrics(1.0, 0.0)
        assert r["sense"] == "linear"
        assert math.isinf(r["axial_ratio"])

    def test_elliptic_axial_ratio(self):
        # E_theta = 1, E_phi = 0.5j: ellipse axes 1 and 0.5 -> AR = 2
        r = rad.polarization_metrics(1.0, 0.5j)
        assert r["sense"] == "elliptic"
        assert r["axial_ratio"] == pytest.approx(2.0, rel=1e-12)
        assert abs(r["e_l"]) == pytest.approx(1.5 / math.sqrt(2))
        assert abs(r["e_r"]) == pytest.approx(0.5 / math.sqrt(2))

    def test_zero_field(self):
        with pytest.raises(DomainError):
            rad.polarization_metrics(0.0, 0.0)

    def test_circular_dipole_pair_field(self):
        # E_phi = +j E_theta everywhere is perfect LHCP
        th = 0.7
        e_th = math.sin(th)
        r = rad.polarization_metrics(e_th, 1j * e_th)
        assert r["sense"] == "LHCP"


class TestMicrostripResonance:
    def test_mode_table_exact(self):
        assert rad.MICROSTRIP_MODE_TABLE[(1, 1)] == 1.841
        assert rad.MICROSTRIP_MODE_TABLE[(5, 1)] == 6.416
        assert rad.MICROSTRIP_MODE_TABLE[(0, 1)] == 0.0

    def test_worked_example(self):
        r = rad.microstrip_resonance(4.6e-3, 2.56, 0.5e-3, 1, 1)
        assert r["f_nm"] == pytest.approx(11.95e9, rel=0.005)

    def test_effective_radius_lowers_resonance(self):
        r = rad.microstrip_resonance(4.6e-3, 2.56, 0.5e-3, 1, 1)
        assert r["a_e"] > 4.6e-3
        assert r["f_nm_effective"] < r["f_nm"]

    def test_static_mode_warns(self):
        with pytest.warns(UserWarning, match="static"):
            r = rad.microstrip_resonance(4.6e-3, 2.56, 0.5e-3, 0, 1)
        assert r["f_nm"] == 0.0

    def test_doubling_radius_halves_frequency(self):
        r1 = rad.microstrip_resonance(4.6e-3, 2.56, 0.5e-3, 1, 1)
        r2 = rad.microstrip_resonance(9.2e-3, 2.56, 0.5e-3, 1, 1)
        assert r2["f_nm"] == pytest.approx(r1["f_nm"] / 2, rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            rad.microstrip_resonance(4.6e-3, 2.56, 0.5e-3, 7, 3)


class TestLinkBudget:
    def test_bluetooth_range(self):
        spec = rad.LinkSpec(p_t=1e-3, g_t=1, g_r=1, freq=2.44e9, p_r_min=1e-10)
        r = rad.link_budget(spec, "radio")
        assert r["r_max"] == pytest.approx(30.92, abs=0.05)

    def test_radio_inverse_square(self):
        s1 = rad.LinkSpec(p_t=1.0, freq=1e9, range_r=100.0)
        s2 = rad.LinkSpec(p_t=1.0, freq=1e9, range_r=200.0)
        assert rad.link_budget(s1, "radio")["p_r"] == \
            pytest.approx(4 * rad.link_budget(s2, "radio")["p_r"], rel=1e-12)

    def test_radar_inverse_fourth(self):
        s1 = rad.LinkSpec(p_t=1.0, freq=1e9, range_r=100.0)
        s2 = rad.LinkSpec(p_t=1.0, freq=1e9, range_r=200.0)
        assert rad.link_budget(s1, "radar")["p_r"] == \
            pytest.approx(16 * rad.link_budget(s2, "radar")["p_r"], rel=1e-12)

    def test_radar_worked_example(self):
        g = rad.gain_from_aperture(1.0, 10e9)
        assert g == pytest.approx(14000, rel=0.01)
        spec = rad.LinkSpec(p_t=10e3, g_t=g, g_r=g, freq=10e9, sigma_rcs=1.0,
                            p_r_min=1e-13)
        r = rad.link_budget(spec, "radar")
        assert r["r_max"] == pytest.approx(54e3, rel=0.02)

    def test_rmax_inverts_exactly(self):
        spec = rad.LinkSpec(p_t=2.0, g_t=3.0, g_r=4.0, freq=5e9, p_r_min=1e-11)
        r = rad.link_budget(spec, "radio")
        spec2 = rad.LinkSpec(p_t=2.0, g_t=3.0, g_r=4.0, freq=5e9,
                             range_r=r["r_max"], p_r_min=1e-11)
        assert rad.link_budget(spec2, "radio")["p_r"] == pytest.approx(1e-11, rel=1e-12)

    def test_effective_aperture_round_trip(self):
        for g in (1.0, 14000.0, 3.6):
            a = rad.effective_aperture(g, 10e9)
            assert rad.gain_from_aperture(a, 10e9) == pytest.approx(g, rel=1e-12)

    def test_noise_floor(self):
        r = rad.link_budget(rad.LinkSpec(p_t=1.0, bandwidth_b=1e6), "radio")
        assert r["noise_floor_dbm"] == pytest.approx(-113.8, abs=0.05)
        assert r["noise_density_dbm_hz"] == pytest.approx(-174.0, abs=0.3)


class TestAntennaNoiseTemperature:
    def test_constant_sky(self):
        t = rad.antenna_noise_temperature(lambda th, ph: 100.0, lambda th, ph: 1.0)
        assert t == pytest.approx(100.0, rel=1e-6)

    def test_hemisphere_average(self):
        t = rad.antenna_noise_temperature(
            lambda th, ph: 200.0 if th < math.pi / 2 else 0.0, lambda th, ph: 1.0)
        assert t == pytest.approx(100.0, rel=1e-3)

    def test_dipole_gain_cos2_sky(self):
        # analytic: (1/4pi) * 2pi * 450 * int cos^2 sin^3 = 60 K
        t = rad.antenna_noise_temperature(
            lambda th, ph: 300.0 * math.cos(th) ** 2,
            lambda th, ph: 1.5 * math.sin(th) ** 2)
        assert t == pytest.approx(60.0, rel=1e-6)

    def test_unnormalized_gain_warns_and_scales(self):
        with pytest.warns(UserWarning, match="renormalizing"):
            t = rad.antenna_noise_temperature(lambda th, ph: 100.0,
                                              lambda th, ph: 2.0)
        assert t == pytest.approx(100.0, rel=1e-6)
