import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwkit import network as net
from mwkit.numerics import DomainError

ONE_GHZ = np.array([1e9])


def random_two_port(rng, scale=0.8):
    m = scale * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))) / 2
    return m


class TestConversions:
    def test_shunt_50_impedance_matrix(self):
        p = net.component_sparams("shunt_y", {"y": 1 / 50}, ONE_GHZ, 50.0)
        z = net.convert(p, "Z")
        np.testing.assert_allclose(z.matrices[0], np.full((2, 2), 50.0), atol=1e-9)

    def test_series_50_scattering(self):
        p = net.component_sparams("series_z", {"z": 50.0}, ONE_GHZ, 50.0)
        expect = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        np.testing.assert_allclose(p.matrices[0], expect, atol=1e-12)

    def test_matched_z_gives_zero_s(self):
        z = np.array([[[50.0 + 0j, 0], [0, 50.0]]])
        p = net.NPortParams("Z", ONE_GHZ, z)
        s = net.convert(p, "S", 50.0)
        np.testing.assert_allclose(s.matrices[0], 0, atol=1e-14)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = np.array([random_two_port(rng)])
            p = net.NPortParams("S", ONE_GHZ, s, z_ref=50.0)
            for kind in ("Z", "Y"):
                back = net.convert(net.convert(p, kind), "S", 50.0)
                np.testing.assert_allclose(back.matrices, s, atol=1e-10)

    def test_reciprocal_z_gives_symmetric_s(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(10, 100, (2, 2)) + 1j * rng.uniform(-50, 50, (2, 2))
        z = (z + z.T) / 2
        p = net.NPortParams("Z", ONE_GHZ, z[None, :, :])
        s = net.convert(p, "S", 50.0)
        np.testing.assert_allclose(s.matrices[0], s.matrices[0].T, atol=1e-12)

    def test_singular_conversion_reports_freq_index(self):
        # a series element has no Z representation
        p = net.component_sparams("series_z", {"z": 50.0}, ONE_GHZ, 50.0)
        with pytest.raises(net.ConversionError) as exc:
            net.convert(p, "Z")
        assert exc.value.freq_index == 0


class TestBatchedStack:
    """A whole (F, 2, 2) stack gives what each one-point slice gives."""

    @staticmethod
    def stack(kind="S"):
        rng = np.random.default_rng(11)
        freqs = np.linspace(1e9, 4e9, 7)
        s = net.NPortParams("S", freqs, np.array([random_two_port(rng) for _ in freqs]), 50.0)
        return s if kind == "S" else net.convert(s, kind)

    @staticmethod
    def point(p, fi):
        return net.NPortParams(p.kind, p.freqs[fi:fi + 1], p.matrices[fi:fi + 1], p.z_ref)

    @pytest.mark.parametrize("src", ["S", "Z", "Y"])
    @pytest.mark.parametrize("dst", ["S", "Z", "Y"])
    def test_convert_matches_point_by_point(self, src, dst):
        p = self.stack(src)
        whole = net.convert(p, dst, 40.0).matrices
        assert whole.shape == (7, 2, 2)
        for fi in range(7):
            one = net.convert(self.point(p, fi), dst, 40.0).matrices[0]
            np.testing.assert_allclose(whole[fi], one, rtol=1e-13, atol=0)

    def test_convert_returns_a_new_stack(self):
        p = self.stack("Z")
        before = p.matrices.copy()
        net.convert(p, "Z").matrices[:] = 0
        np.testing.assert_array_equal(p.matrices, before)

    def test_cascade_matches_point_by_point(self):
        a, b = self.stack(), self.stack("Z")
        whole = net.cascade(a, b).matrices
        for fi in range(7):
            one = net.cascade(self.point(a, fi), self.point(b, fi)).matrices[0]
            np.testing.assert_allclose(whole[fi], one, rtol=1e-13, atol=0)

    def test_conversion_error_names_lowest_index_and_its_stage(self):
        # S = -I at index 1 makes Z singular; S = I at index 3 makes (I - S) singular
        p = self.stack()
        p.matrices[1] = -np.eye(2)
        p.matrices[3] = np.eye(2)
        with pytest.raises(net.ConversionError) as exc:
            net.convert(p, "Y")
        assert exc.value.freq_index == 1
        assert str(exc.value) == "singular Z at frequency index 1"
        with pytest.raises(net.ConversionError) as exc:
            net.convert(p, "Z")
        assert exc.value.freq_index == 3
        assert str(exc.value) == "singular (I - S) at frequency index 3"


class TestPortTermination:
    @pytest.mark.parametrize("z, gamma", [(100.0, 1 / 3), (0.0, -1.0), (50j, 1j)])
    def test_from_impedances_off_reference(self, z, gamma):
        t = net.PortTermination.from_impedances(z, 50.0, 50.0)
        assert t.gamma_s == pytest.approx(gamma, abs=1e-15)
        assert t.gamma_l == 0
        t = net.PortTermination.from_impedances(50.0, z, 50.0)
        assert t.gamma_s == 0
        assert t.gamma_l == pytest.approx(gamma, abs=1e-15)

class TestTwoPortGammas:
    def test_bfu730f_worked_example(self, bfu730f):
        term = net.PortTermination.from_impedances(73.0, 50.0, 50.0)
        g = net.two_port_gammas(bfu730f, term)
        assert g["gamma_in"] == pytest.approx(0.768 - 0.408j, abs=5e-3)
        assert g["gamma_out"] == pytest.approx(0.885 - 0.309j, abs=5e-3)

    def test_matched_load_gives_s11_exactly(self, bfu730f):
        g = net.two_port_gammas(bfu730f, net.PortTermination(gamma_l=0j))
        assert g["gamma_in"] == bfu730f[0, 0]

    def test_unilateral(self):
        s = np.array([[0.4 + 0.1j, 0], [5.0, 0.3 - 0.2j]])
        g = net.two_port_gammas(s, net.PortTermination(gamma_s=0.3, gamma_l=-0.4j))
        assert g["gamma_in"] == s[0, 0]
        assert g["gamma_out"] == s[1, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matched_reduction_random(self, seed):
        rng = np.random.default_rng(seed)
        s = random_two_port(rng)
        g = net.two_port_gammas(s, net.PortTermination())
        assert g["gamma_in"] == s[0, 0]
        assert g["gamma_out"] == s[1, 1]

    def test_conjugate_load_against_direct_formula(self, bfu730f):
        gl = np.conj(bfu730f[1, 1])
        g = net.two_port_gammas(bfu730f, net.PortTermination(gamma_l=gl))
        direct = bfu730f[0, 0] + bfu730f[0, 1] * bfu730f[1, 0] * gl / (1 - bfu730f[1, 1] * gl)
        assert g["gamma_in"] == pytest.approx(direct, rel=1e-14)


class TestCascade:
    def test_identity_element(self):
        rng = np.random.default_rng(2)
        x = net.NPortParams("S", ONE_GHZ, np.array([random_two_port(rng)]), 50.0)
        ident = net.component_sparams("ideal_line",
                                      {"theta_at_f0": 0.0, "f0": 1e9}, ONE_GHZ, 50.0)
        out = net.cascade(x, ident)
        np.testing.assert_allclose(out.matrices, x.matrices, atol=1e-12)

    def test_line_phases_add(self):
        f0 = 1e9
        l1 = net.component_sparams("ideal_line", {"theta_at_f0": 0.7, "f0": f0},
                                   ONE_GHZ, 50.0)
        l2 = net.component_sparams("ideal_line", {"theta_at_f0": 1.1, "f0": f0},
                                   ONE_GHZ, 50.0)
        out = net.cascade(l1, l2)
        assert out.matrices[0, 1, 0] == pytest.approx(np.exp(-1.8j), abs=1e-12)

    def test_series_resistors_add(self):
        a = net.component_sparams("series_z", {"z": 25.0}, ONE_GHZ, 50.0)
        c = net.cascade(a, a)
        direct = net.component_sparams("series_z", {"z": 50.0}, ONE_GHZ, 50.0)
        np.testing.assert_allclose(c.matrices, direct.matrices, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        ps = [net.NPortParams("S", ONE_GHZ, np.array([random_two_port(rng)]), 50.0)
              for _ in range(3)]
        left = net.cascade(net.cascade(ps[0], ps[1]), ps[2])
        right = net.cascade(ps[0], net.cascade(ps[1], ps[2]))
        np.testing.assert_allclose(left.matrices, right.matrices, atol=1e-10)

    def test_brute_force_wave_elimination(self):
        # eliminate the inner waves of A then B directly from the S relations
        rng = np.random.default_rng(4)
        for _ in range(50):
            sa, sb = random_two_port(rng), random_two_port(rng)
            a = net.NPortParams("S", ONE_GHZ, sa[None], 50.0)
            b = net.NPortParams("S", ONE_GHZ, sb[None], 50.0)
            got = net.cascade(a, b).matrices[0]
            d = 1 - sa[1, 1] * sb[0, 0]
            s11 = sa[0, 0] + sa[0, 1] * sa[1, 0] * sb[0, 0] / d
            s21 = sa[1, 0] * sb[1, 0] / d
            s12 = sa[0, 1] * sb[0, 1] / d
            s22 = sb[1, 1] + sb[0, 1] * sb[1, 0] * sa[1, 1] / d
            np.testing.assert_allclose(got, [[s11, s12], [s21, s22]], atol=1e-10)

    def test_lossless_reflection_loop_names_first_index(self):
        freqs = np.array([1e9, 2e9, 3e9])
        open_2 = np.array([[0.0, 0.0], [0.0, 1.0]])  # S22 = 1: port 2 open
        a = net.NPortParams("S", freqs, [0.5 * open_2, open_2, open_2], 50.0)
        b = net.NPortParams("S", freqs, [open_2[::-1, ::-1]] * 3, 50.0)  # S11 = 1
        with pytest.raises(net.ConversionError, match="index 1") as info:
            net.cascade(a, b)
        assert info.value.freq_index == 1

    def test_grid_mismatch(self):
        a = net.component_sparams("series_z", {"z": 25.0}, ONE_GHZ, 50.0)
        b = net.component_sparams("series_z", {"z": 25.0}, np.array([2e9]), 50.0)
        with pytest.raises(net.GridMismatchError):
            net.cascade(a, b)


class TestComponents:
    def test_resistive_divider(self):
        p = net.component_sparams("resistive_divider", {}, ONE_GHZ, 50.0)
        m = p.matrices[0]
        np.testing.assert_allclose(np.diag(m), 0, atol=1e-15)
        assert m[1, 0] == pytest.approx(0.5)
        assert 20 * math.log10(abs(m[1, 0])) == pytest.approx(-6.0206, abs=1e-3)

    def test_t_junction_worked_example(self):
        p = net.component_sparams("t_junction", {"z1": 100.0, "z2": 100.0}, ONE_GHZ, 50.0)
        m = p.matrices[0]
        assert m[0, 0] == pytest.approx(0.0, abs=1e-14)
        # output reflection (33.3 - 100)/(33.3 + 100) = -0.5
        assert m[1, 1] == pytest.approx(-0.5, abs=1e-12)
        assert m[2, 2] == pytest.approx(-0.5, abs=1e-12)

    def test_wilkinson_at_f0(self):
        p = net.component_sparams("wilkinson_equal", {"f0": 1e9}, ONE_GHZ, 50.0)
        m = p.matrices[0]
        assert m[1, 0] == pytest.approx(-1j / math.sqrt(2), abs=1e-9)
        assert m[2, 1] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(np.diag(m), 0, atol=1e-9)
        # power balance of the excited port: |S11|^2+|S21|^2+|S31|^2 = 1
        assert np.sum(np.abs(m[:, 0]) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_wilkinson_off_f0_passive_reciprocal(self):
        freqs = np.linspace(0.2e9, 2e9, 10)
        p = net.component_sparams("wilkinson_equal", {"f0": 1e9}, freqs, 50.0)
        for m in p.matrices:
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.svd(m, compute_uv=False).max() <= 1 + 1e-9

    def test_generated_components_reciprocal_and_passive(self):
        freqs = np.linspace(0.5e9, 3e9, 5)
        cases = [
            ("series_z", {"z": 80.0 + 10j}),
            ("shunt_y", {"y": 0.01 - 0.004j}),
            ("ideal_line", {"theta_at_f0": 1.0, "f0": 1e9, "z0_line": 75.0}),
            ("t_junction", {"z1": 70.0, "z2": 120.0}),
            ("resistive_divider", {}),
            ("wilkinson_equal", {"f0": 1e9}),
        ]
        for kind, params in cases:
            p = net.component_sparams(kind, params, freqs, 50.0)
            for m in p.matrices:
                np.testing.assert_allclose(m, m.T, atol=1e-10, err_msg=kind)
                sv = np.linalg.svd(m, compute_uv=False)
                assert sv.max() <= 1 + 1e-12, kind

    def test_lossless_line_power_conservation(self):
        p = net.component_sparams("ideal_line",
                                  {"theta_at_f0": 0.9, "f0": 1e9, "z0_line": 80.0},
                                  ONE_GHZ, 50.0)
        m = p.matrices[0]
        assert abs(m[0, 0]) ** 2 + abs(m[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            net.component_sparams("gyrator", {}, ONE_GHZ, 50.0)


class TestTouchstone:
    def test_ma_format_definition(self):
        p = net.touchstone_read("# GHZ S MA R 50\n1 0.5 45 0.1 0 0.1 0 0.5 45\n")
        assert p.freqs[0] == 1e9
        assert abs(p.matrices[0, 0, 0]) == pytest.approx(0.5)
        assert np.angle(p.matrices[0, 0, 0], deg=True) == pytest.approx(45.0)

    def test_db_format(self):
        p = net.touchstone_read("# HZ S DB R 50\n1e9 -6.0206 0 -40 0 -40 0 -6.0206 0\n")
        assert abs(p.matrices[0, 0, 0]) == pytest.approx(0.5, abs=1e-4)

    def test_round_trip_all_formats(self):
        src = net.component_sparams("series_z", {"z": 30 - 20j},
                                    np.array([1e9, 2e9, 3e9]), 50.0)
        for fmt in ("RI", "MA", "DB"):
            for unit in ("HZ", "KHZ", "MHZ", "GHZ"):
                back = net.touchstone_read(net.touchstone_write(src, fmt, unit))
                np.testing.assert_allclose(back.matrices, src.matrices, atol=1e-9)
                np.testing.assert_allclose(back.freqs, src.freqs, rtol=1e-12)

    def test_two_port_column_order(self):
        # v1 2-port order is S11 S21 S12 S22
        text = "# HZ S RI R 50\n1e9 0.1 0 0.21 0 0.12 0 0.22 0\n"
        p = net.touchstone_read(text)
        assert p.matrices[0, 1, 0] == pytest.approx(0.21)
        assert p.matrices[0, 0, 1] == pytest.approx(0.12)

    def test_three_port_round_trip(self):
        src = net.component_sparams("wilkinson_equal", {"f0": 1e9},
                                    np.array([0.6e9, 1e9]), 50.0)
        back = net.touchstone_read(net.touchstone_write(src, "RI"))
        assert back.n_ports == 3
        np.testing.assert_allclose(back.matrices, src.matrices, atol=1e-9)

    def test_comments_and_zref(self):
        p = net.touchstone_read("! hello\n# MHZ S RI R 75\n100 0.1 0.2 ! trailing\n")
        assert p.n_ports == 1
        assert p.z_ref[0] == 75.0
        assert p.freqs[0] == 100e6

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(net.ParseError) as exc:
            net.touchstone_read("# GHZ S MA R 50\n1 0.5 bogus\n")
        assert exc.value.line_no == 2
        with pytest.raises(net.ParseError):
            net.touchstone_read("# GHZ S QQ R 50\n1 0.5 45\n")

    def test_wrong_token_count(self):
        with pytest.raises(net.ParseError):
            net.touchstone_read("# GHZ S RI R 50\n1 0.1 0 0.2 0 0.3 0 0.4 0\n2 0.1 0\n")

    def test_noise_block_skipped(self):
        text = ("# GHZ S MA R 50\n"
                "1 0.5 45 0.1 0 0.1 0 0.5 45\n"
                "2 0.5 45 0.1 0 0.1 0 0.5 45\n"
                "! noise data follows\n"
                "1 0.5 0.4 10 0.6 0.5 0.4 10 0.6\n")
        with pytest.warns(UserWarning, match="noise"):
            p = net.touchstone_read(text)
        assert len(p.freqs) == 2

    def test_ascending_grid_enforced(self):
        with pytest.raises(DomainError):
            net.NPortParams("S", np.array([2e9, 1e9]), np.zeros((2, 2, 2), complex))


class TestNearSingularTermination:
    def test_warns_on_resonant_load(self):
        s = np.array([[0.5, 0.1], [2.0, 0.5]], dtype=complex)
        gl = 1 / s[1, 1] * (1 - 1e-14)  # |1 - S22 Gamma_L| ~ 1e-14
        import warnings as w
        with w.catch_warnings(record=True) as rec:
            w.simplefilter("always")
            net.two_port_gammas(s, net.PortTermination(gamma_l=gl))
        assert any("resonant" in str(r.message) for r in rec)
