import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwkit import matching, tline
from mwkit.numerics import DomainError


class TestConjugateMatch:
    def test_matched_resistive(self):
        r = matching.conjugate_match(50.0, 50.0, 2.0)
        assert r["p_load"] == pytest.approx(0.01)
        assert r["is_conjugate"]

    def test_conjugate_complex(self):
        r = matching.conjugate_match(50 + 30j, 50 - 30j, 1.0)
        assert r["is_conjugate"]
        assert r["p_load"] == pytest.approx(1.0 / 400.0)

    def test_conjugate_beats_mismatch(self):
        p_conj = matching.conjugate_match(50 + 30j, 50 - 30j, 1.0)["p_load"]
        p_res = matching.conjugate_match(50 + 30j, 50.0, 1.0)["p_load"]
        assert p_conj > p_res

    def test_undefined_power(self):
        with pytest.raises(DomainError):
            matching.conjugate_match(5j, -0j, 1.0)

    @given(rs=st.floats(1, 500), xs=st.floats(-300, 300),
           rl=st.floats(1, 500), xl=st.floats(-300, 300))
    @settings(max_examples=100, deadline=None)
    def test_maximum_at_conjugate(self, rs, xs, rl, xl):
        zs = complex(rs, xs)
        best = matching.conjugate_match(zs, zs.conjugate(), 1.0)["p_load"]
        other = matching.conjugate_match(zs, complex(rl, xl), 1.0)["p_load"]
        assert other <= best + 1e-15


class TestLumpedMatch:
    def test_worked_exercise_two_solutions(self):
        res = matching.lumped_match_synthesize(200 - 100j, 100.0, 1e9)
        assert len(res["networks"]) == 2
        for netw in res["networks"]:
            assert netw["gamma"] < 1e-6
            assert len(netw["elements"]) == 2
            for el in netw["elements"]:
                assert el.value > 0

    def test_already_matched(self):
        res = matching.lumped_match_synthesize(50.0 + 0j, 50.0, 1e9)
        assert res["networks"] == []
        assert "already matched" in res["reason"]

    def test_step_up_from_100_to_50(self):
        res = matching.lumped_match_synthesize(100.0 + 0j, 50.0, 1e9)
        assert res["networks"]
        # analytic L-section: series X then shunt B topology, Q-consistent
        w = 2 * math.pi * 1e9
        for netw in res["networks"]:
            z = matching.evaluate_lumped_network(netw["elements"], 100.0 + 0j, 1e9)
            assert abs((z - 50) / (z + 50)) < 1e-6
        kinds = {tuple(e.kind for e in n["elements"]) for n in res["networks"]}
        assert ("L", "C") in kinds or ("C", "L") in kinds
        # the shunt-C/series-L solution has L = sqrt(R_hi R_lo - R_lo^2)/w
        expect_l = math.sqrt(100 * 50 - 50 * 50) / w
        values = [e.value for n in res["networks"] for e in n["elements"] if e.kind == "L"]
        assert any(v == pytest.approx(expect_l, rel=1e-9) for v in values)

    @pytest.mark.parametrize("freq", [0.0, -1e9, math.nan, math.inf])
    def test_frequency_must_be_finite_and_positive(self, freq):
        with pytest.raises(DomainError, match="freq must be finite and > 0"):
            matching.lumped_match_synthesize(100 + 50j, 50.0, freq)

    @given(rl=st.floats(5, 400), xl=st.floats(-200, 200), rt=st.floats(10, 200))
    @settings(max_examples=100, deadline=None)
    def test_synthesis_self_verifies(self, rl, xl, rt):
        res = matching.lumped_match_synthesize(complex(rl, xl), rt, 2.4e9)
        for netw in res["networks"]:
            assert netw["gamma"] < 1e-6


class TestSingleStub:
    def test_worked_exercise(self):
        res = matching.single_stub_tuner(100 - 60j, 50.0, "shorted")
        sols = res["solutions"]
        assert len(sols) == 2
        assert sols[0].d == pytest.approx(0.125, abs=1e-3)
        assert sols[0].l == pytest.approx(0.118, abs=1e-3)

    def test_real_load(self):
        res = matching.single_stub_tuner(150.0 + 0j, 50.0, "shorted")
        assert res["solutions"]

    def test_open_stub_variant(self):
        res = matching.single_stub_tuner(100 - 60j, 50.0, "open")
        assert res["solutions"]

    def test_trivial_load_rejected(self):
        res = matching.single_stub_tuner(50.0 + 0j, 50.0, "shorted")
        assert res["solutions"] == []
        assert "d = l = 0" in res["reason"]

    @given(rl=st.floats(5, 400), xl=st.floats(-200, 200),
           kind=st.sampled_from(["shorted", "open"]))
    @settings(max_examples=150, deadline=None)
    def test_solutions_always_verify(self, rl, xl, kind):
        # synthesis self-verifies |Gamma| < 1e-9 internally; principal branch
        res = matching.single_stub_tuner(complex(rl, xl), 50.0, kind)
        for s in res["solutions"]:
            assert 0 <= s.d < 0.5
            assert 0 < s.l < 0.5


    @pytest.mark.parametrize("zl", [1e9, 1e-6])
    @pytest.mark.parametrize("kind", ["shorted", "open"])
    def test_extreme_real_load_matches_closed_form(self, zl, kind):
        # real load R on z0: tan(beta d) = +-sqrt(R/z0), and the line leaves
        # a susceptance b with b z0 = tan(beta d) (R - z0) / R for the stub
        # to cancel (Pozar 5.2)
        z0 = 50.0
        want = []
        for t in (math.sqrt(zl / z0), -math.sqrt(zl / z0)):
            bz = t * (zl - z0) / zl
            bl = math.atan2(1.0, bz) if kind == "shorted" else math.atan(-bz)
            want.append((math.atan(t) / (2 * math.pi) % 0.5,
                         (bl if bl > 0 else bl + math.pi) / (2 * math.pi)))
        sols = matching.single_stub_tuner(zl, z0, kind)["solutions"]
        assert [(s.d, s.l) for s in sols] == [
            (pytest.approx(d, rel=1e-11), pytest.approx(l, rel=1e-11))
            for d, l in sorted(want)]

    def test_mismatch_beyond_rounding_is_infeasible(self):
        # |Z_L| ~ 1e12 ohm with Q = 1000: rounding alone leaves |Gamma| of
        # about 3e-3, which no eps-scaled tolerance may pass as a match
        with pytest.raises(matching.DesignInfeasibleError, match="self-check"):
            matching.single_stub_tuner(1e9 + 1e12j, 50.0, "shorted")

    def test_failed_self_check_is_a_package_error(self, monkeypatch):
        line = matching._line_input_impedance
        monkeypatch.setattr(matching, "_line_input_impedance",
                            lambda zl, z0, bl: 1.01 * line(zl, z0, bl))
        with pytest.raises(matching.DesignInfeasibleError, match="self-check"):
            matching.single_stub_tuner(100 - 60j, 50.0, "shorted")


class TestRichardKuroda:
    proto = matching.BUILTIN_PROTOTYPES[("maximally_flat", 3)]

    def test_kuroda_factor(self):
        net = matching.richard_kuroda_lowpass(self.proto, 10e9, 50.0)
        # a published variant quotes 1.995; the identity n^2 = 1 + Z2/Z1 with
        # unit elements and g = (1, 2, 1) gives exactly 2
        assert net.meta["kuroda_n2"] == pytest.approx([2.0, 2.0])

    def test_shunt_only_realization(self):
        net = matching.richard_kuroda_lowpass(self.proto, 10e9, 50.0)
        kinds = {el.kind for el in net.elements}
        assert kinds <= {"shunt_open_stub", "unit_element"}

    def test_dc_and_cutoff_response(self):
        net = matching.richard_kuroda_lowpass(self.proto, 10e9, 50.0)
        r = matching.filter_response(net, np.array([1e3, 10e9]))
        assert abs(r["s21"][0]) == pytest.approx(1.0, abs=1e-9)
        db_fc = 20 * math.log10(abs(r["s21"][1]))
        assert db_fc == pytest.approx(-3.0103, abs=0.1)

    def test_even_order_rejected(self):
        proto = matching.LowpassPrototype(g=(1.0, 1.4142, 1.4142, 1.0))
        with pytest.raises(matching.DesignInfeasibleError):
            matching.richard_kuroda_lowpass(proto, 1e9, 50.0)

    def test_kuroda_identity_preserves_response(self):
        # pre-Kuroda network: UE + series stubs; post: shunt-only realization
        f0 = 10e9
        th = math.pi / 4
        pre = matching.DistributedNetwork(elements=(
            matching.DistributedElement("unit_element", 50.0, th, f0),
            matching.DistributedElement("series_shorted_stub", 50.0, th, f0),
            matching.DistributedElement("shunt_open_stub", 25.0, th, f0),
            matching.DistributedElement("series_shorted_stub", 50.0, th, f0),
            matching.DistributedElement("unit_element", 50.0, th, f0),
        ), z0=50.0)
        post = matching.richard_kuroda_lowpass(self.proto, f0, 50.0)
        freqs = np.linspace(0.1e9, 19.9e9, 100)
        ra = matching.filter_response(pre, freqs)
        rb = matching.filter_response(post, freqs)
        np.testing.assert_allclose(np.abs(ra["s21"]), np.abs(rb["s21"]), atol=1e-9)
        np.testing.assert_allclose(np.abs(ra["s11"]), np.abs(rb["s11"]), atol=1e-9)


class TestCoupledLineBandpass:
    def test_worked_design_3db_ripple(self):
        proto = matching.BUILTIN_PROTOTYPES[("chebyshev_3.0dB", 2)]
        d = matching.coupled_line_bandpass_design(proto, 28e9, 0.9 * 28e9, 50.0)
        ze = [p.z_even for p in d["pairs"]]
        zo = [p.z_odd for p in d["pairs"]]
        assert ze == pytest.approx([65.22, 57.89, 65.22], abs=0.02)
        assert zo == pytest.approx([34.78, 35.55, 34.78], abs=0.02)
        assert d["stub_z"] == pytest.approx([34.78, 70.33, 70.33, 34.78], abs=0.02)
        assert d["line_z"] == pytest.approx([15.22, 11.17, 15.22], abs=0.02)

    def test_exercise_design_half_db_ripple(self):
        proto = matching.BUILTIN_PROTOTYPES[("chebyshev_0.5dB", 2)]
        d = matching.coupled_line_bandpass_design(proto, 10e9, 0.85 * 10e9, 50.0)
        assert d["stub_z"] == pytest.approx([24.75, 48.15, 48.15, 24.75], abs=0.02)
        assert d["line_z"] == pytest.approx([25.25, 17.96, 25.25], abs=0.02)

    def test_symmetry_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = (1.0, *rng.uniform(0.3, 4.0, n), rng.uniform(0.5, 6.0))
            proto = matching.LowpassPrototype(g=g)
            f0 = 10e9
            try:
                d = matching.coupled_line_bandpass_design(proto, f0, 0.88 * f0, 50.0)
            except matching.DesignInfeasibleError:
                continue
            ze = [p.z_even for p in d["pairs"]]
            zo = [p.z_odd for p in d["pairs"]]
            assert ze == pytest.approx(ze[::-1], rel=1e-12)
            assert zo == pytest.approx(zo[::-1], rel=1e-12)
            assert all(p.z_even > p.z_odd > 0 for p in d["pairs"])

    def test_bandpass_response(self):
        proto = matching.BUILTIN_PROTOTYPES[("chebyshev_3.0dB", 2)]
        d = matching.coupled_line_bandpass_design(proto, 28e9, 0.9 * 28e9, 50.0)
        r = matching.filter_response(d["network"],
                                     np.array([20e9, 25.2e9, 28e9, 30.8e9, 36e9]))
        s21_db = 20 * np.log10(np.abs(r["s21"]))
        assert s21_db[2] >= -(3.0 + 0.05)       # center at worst the ripple floor
        assert s21_db[1] >= -(3.0 + 0.2)        # passband edges near 25.2/30.8 GHz
        assert s21_db[3] >= -(3.0 + 0.2)
        assert s21_db[0] < -15 and s21_db[4] < -15

    def test_invalid_band(self):
        proto = matching.BUILTIN_PROTOTYPES[("chebyshev_3.0dB", 2)]
        with pytest.raises(DomainError):
            matching.coupled_line_bandpass_design(proto, 28e9, 29e9, 50.0)


class TestFilterResponse:
    @pytest.mark.parametrize("design", ["lowpass", "bandpass"])
    def test_grid_matches_single_frequency_calls(self, design):
        if design == "lowpass":
            proto = matching.BUILTIN_PROTOTYPES[("maximally_flat", 3)]
            network = matching.richard_kuroda_lowpass(proto, 2e9, 50.0)
        else:
            proto = matching.BUILTIN_PROTOTYPES[("chebyshev_0.5dB", 2)]
            network = matching.coupled_line_bandpass_design(proto, 2e9, 1.8e9, 50.0)["network"]
        freqs = np.linspace(0.0, 8e9, 41)  # f = 0 is an exact stub pole; 4 and 8 GHz are near ones
        r = matching.filter_response(network, freqs)
        assert r["s11"].shape == r["s21"].shape == (41,)
        for fi, f in enumerate(freqs):
            one = matching.filter_response(network, f)
            for key in ("s11", "s21"):
                np.testing.assert_allclose(r[key][fi], one[key][0], rtol=1e-13, atol=0)

    def test_lossless_power_conservation(self):
        proto = matching.BUILTIN_PROTOTYPES[("chebyshev_3.0dB", 2)]
        d = matching.coupled_line_bandpass_design(proto, 28e9, 0.9 * 28e9, 50.0)
        freqs = np.linspace(18e9, 38e9, 64)
        r = matching.filter_response(d["network"], freqs)
        total = np.abs(r["s11"]) ** 2 + np.abs(r["s21"]) ** 2
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_quarter_wave_transformer_matches_tline_sweep(self):
        # single quarter-wave line into a 100-ohm load reproduces the
        # quarter_wave_design |Gamma| sweep
        z1 = math.sqrt(100.0 * 50.0)
        f0 = 1e9
        d = tline.quarter_wave_design(100.0, 50.0)
        # model the transformer + load as line and an impedance step:
        # evaluate via input_impedance and reflectance instead
        for fn in (0.5, 0.75, 1.0, 1.5, 2.0):
            spec = tline.TLineSpec(gamma=2j * math.pi * fn, z0=z1)  # lambda0=1 at f0
            z_in = tline.input_impedance(spec, tline.Termination(100.0 + 0j), 0.25)
            g = abs((z_in - 50) / (z_in + 50))
            assert g == pytest.approx(d["gamma_vs_freq"](fn), abs=1e-9)

    def test_stub_capacitor_equivalence(self):
        # open stub of length l behaves as C = tan(beta l)/(w Z0) at one freq
        f = 3e9
        w = 2 * math.pi * f
        z0 = 70.0
        for bl in (0.3, 0.7, 1.2):
            el = matching.DistributedElement("shunt_open_stub", z0, bl, f)
            net1 = matching.DistributedNetwork(elements=(el,), z0=50.0)
            r1 = matching.filter_response(net1, np.array([f]))
            c = math.tan(bl) / (w * z0)
            y = 1j * w * c
            s11 = -y / (y + 2 / 50.0)
            assert r1["s11"][0] == pytest.approx(s11, abs=1e-12)
