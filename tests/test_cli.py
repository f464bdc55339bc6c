import csv
import io
import json
import math

import numpy as np
import pytest

from mwkit import cli, network
from mwkit import radiator as rad


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestPlumbing:
    def test_emit_table_csv_and_json(self):
        rows = [{"a": 1.5, "z": 1 + 2j, "name": "x"}]
        text = cli.emit_table(rows, "csv")
        assert text.splitlines()[0] == "a,z_re,z_im,name"
        data = json.loads(cli.emit_table(rows, "json"))
        assert data[0]["z_im"] == 2.0

    def test_complex_ma_format(self):
        rows = [{"z": 1j}]
        text = cli.emit_table(rows, "csv", complex_format="ma")
        row = read_csv(text)[0]
        assert float(row["z_mag"]) == pytest.approx(1.0)
        assert float(row["z_phase_deg"]) == pytest.approx(90.0)

    def test_empty_rows_header_only(self):
        assert cli.emit_table([], "csv") == "\n"

    def test_round_trips_through_csv_reader(self):
        rows = [{"freq_hz": 1e9, "s": 0.5 - 0.25j}]
        back = read_csv(cli.emit_table(rows, "csv"))[0]
        assert float(back["freq_hz"]) == 1e9
        assert float(back["s_im"]) == -0.25

    def test_parse_complex(self):
        assert cli.parse_complex("50,-60") == 50 - 60j
        assert cli.parse_complex("25") == 25 + 0j


class TestConfig:
    def test_minimal_subcommand_defaults(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("command = noise floor\nbandwidth_hz = 1e6\n")
        code, out, err = run(capsys, "--config", str(p))
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["noise_floor_dbm"]) == pytest.approx(-113.83, abs=0.01)

    def test_unknown_key_suggestion(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("command = noise floor\nbandwidth = 1e6\n")
        code, out, err = run(capsys, "--config", str(p))
        assert code == 2
        assert "bandwidth_hz" in err

    def test_flag_overrides_file(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("command = noise floor\nbandwidth_hz = 1e6\nt0_k = 300\n")
        code, out, _ = run(capsys, "--config", str(p), "--t0-k", "150")
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["t0_k"]) == 150.0

    def test_comment_styles(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n! other comment\ncommand = noise floor\n")
        cfg = cli.load_config(str(p))
        assert cfg == {"command": "noise floor"}


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(capsys, "bogus")[0] == 2
        assert run(capsys, "tline", "gamma")[0] == 2  # missing required flags

    def test_computation_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.s2p"
        bad.write_text("# GHZ S MA R 50\n1 0.5 oops\n")
        code, _, err = run(capsys, "net", "convert", "--in", str(bad), "--to", "z")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag, value, field", [("--freq-hz", "nan", "freq"),
                                                    ("--radius-wl", "inf", "radius_a")])
    def test_mom_solve_rejects_non_finite(self, capsys, flag, value, field):
        args = {"--half-length-wl": "0.25", "--radius-wl": "0.001",
                "--freq-hz": "299792458"}
        args[flag] = value
        argv = [x for kv in args.items() for x in kv]
        code, out, err = run(capsys, "mom", "solve", *argv, "--segments", "21")
        assert code == 1
        assert out == ""
        assert field in err

    def test_messages_to_stderr_only(self, tmp_path, capsys):
        bad = tmp_path / "nope.s2p"
        code, out, err = run(capsys, "net", "convert", "--in", str(bad), "--to", "z")
        assert code == 1
        assert out == ""


class TestCommands:
    def test_tline_gamma_example(self, capsys):
        code, out, _ = run(capsys, "tline", "gamma", "--r", "5", "--l", "0.2e-6",
                           "--g", "0.01", "--c", "300e-12", "--freq-hz", "500e6")
        assert code == 0
        assert out.startswith("gamma = 0.226+24.3j /m")
        row = read_csv(out.split("ohm\n", 1)[1])[0]
        assert float(row["gamma_per_m_re"]) == pytest.approx(0.2259, abs=1e-4)
        assert float(row["gamma_per_m_im"]) == pytest.approx(24.335, abs=1e-3)

    def test_array_pattern_csv_hpbw(self, tmp_path, capsys):
        out_path = tmp_path / "p.csv"
        code, _, _ = run(capsys, "array", "pattern", "--k", "16", "--dx-wl", "0.5",
                         "--taper", "uniform", "--scan-deg", "0",
                         "--n-points", "40001", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path.read_text())
        u = np.array([float(r["u"]) for r in rows])
        f_db = np.array([float(r["f_db"]) for r in rows])
        m = rad.pattern_metrics(np.degrees(np.arcsin(u)), f_db)
        # post-processed beam width of the emitted pattern (exact sum: 6.36)
        assert m["hpbw_deg"] == pytest.approx(6.36, abs=0.05)
        assert f_db.max() == 0.0

    def test_net_convert_to_z(self, tmp_path, capsys):
        shunt = network.component_sparams("shunt_y", {"y": 1 / 50}, [1e9], 50.0)
        path = tmp_path / "shunt.s2p"
        path.write_text(network.touchstone_write(shunt, "RI"))
        code, out, _ = run(capsys, "net", "convert", "--in", str(path), "--to", "z")
        assert code == 0
        row = read_csv(out)[0]
        for key in ("z11_re", "z12_re", "z21_re", "z22_re"):
            assert float(row[key]) == pytest.approx(50.0, abs=1e-6)

    def test_net_component_writes_touchstone(self, tmp_path, capsys):
        path = tmp_path / "w.s3p"
        code, _, _ = run(capsys, "net", "component", "--kind", "wilkinson_equal",
                         "--f0-hz", "1e9", "--freqs-hz", "0.5e9,1e9,2e9",
                         "--out", str(path))
        assert code == 0
        back = network.touchstone_read(path.read_text(), n_ports=3)
        assert back.matrices[1][1, 0] == pytest.approx(-1j / math.sqrt(2), abs=1e-6)

    def test_amp_stability(self, bfu730f_s2p, capsys):
        code, out, _ = run(capsys, "amp", "stability", "--s2p", bfu730f_s2p,
                           "--freq-hz", "400e6")
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["k"]) == pytest.approx(0.0386, abs=5e-4)
        assert float(row["delta_mag"]) == pytest.approx(0.836, abs=2e-3)
        assert row["unconditionally_stable"] == "false"

    def test_amp_gains(self, bfu730f_s2p, capsys):
        code, out, _ = run(capsys, "amp", "gains", "--s2p", bfu730f_s2p,
                           "--freq-hz", "400e6", "--zs-ohm", "73", "--zl-ohm", "50")
        row = read_csv(out)[0]
        assert float(row["g_t_db"]) == pytest.approx(29.7, abs=0.05)

    def test_mom_solve(self, capsys):
        code, out, _ = run(capsys, "mom", "solve", "--half-length-wl", "0.25",
                           "--radius-wl", "0.001", "--freq-hz", "299792458",
                           "--segments", "21")
        assert code == 0
        assert out.startswith("z_in = ")
        rows = read_csv(out.split("ohm\n", 1)[1])
        assert len(rows) == 21

    def test_link_radar(self, capsys):
        g = rad.gain_from_aperture(1.0, 10e9)
        code, out, _ = run(capsys, "link", "radar", "--pt-w", "10e3",
                           "--gt", str(g), "--gr", str(g), "--freq-hz", "10e9",
                           "--rcs-m2", "1", "--prmin-w", "1e-13")
        row = read_csv(out)[0]
        assert float(row["r_max_m"]) == pytest.approx(54e3, rel=0.02)

    def test_antenna_pattern_csv_columns(self, tmp_path, capsys):
        out_path = tmp_path / "pat.csv"
        code, _, _ = run(capsys, "antenna", "pattern", "--model", "wire",
                         "--half-length-wl", "0.25", "--n-points", "181",
                         "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path.read_text())
        assert set(rows[0]) >= {"theta_deg", "phi_deg", "f_db", "e_theta_mag",
                                "e_phi_mag", "e_theta_phase_deg"}

    def test_filter_bandpass_prints_design(self, capsys):
        code, out, _ = run(capsys, "filter", "bandpass", "--g",
                           "1,3.1013,0.5339,5.8095", "--ripple-db", "3",
                           "--f0-hz", "28e9", "--bw-frac", "0.2", "--n-points", "11")
        assert code == 0
        assert "Ze = 65.22" in out
        assert "34.78, 70.33, 70.33, 34.78" in out

    def test_smith_map(self, capsys):
        code, out, _ = run(capsys, "smith", "map", "--z-ohm", "50,-150")
        row = read_csv(out)[0]
        assert float(row["gamma_re"]) == pytest.approx(0.6923, abs=1e-4)
        assert float(row["gamma_im"]) == pytest.approx(-0.4615, abs=1e-4)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(capsys, "array", "errors", "--k", "64", "--bits", "4",
                             "--trials", "200", "--seed", "42", "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_layout_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("l1.csv", "l2.csv"):
            path = tmp_path / name
            run(capsys, "array", "layout", "--kind", "sunflower", "--count", "64",
                "--avg-spacing-wl", "2.0", "--out", str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestLayoutInterfaces:
    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MWKIT_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "noise", "floor", "--bandwidth-hz", "1e6",
                         "--out", "floor.csv")
        assert code == 0
        assert (tmp_path / "floor.csv").exists()

    def test_layout_csv_roundtrip(self, tmp_path, capsys):
        lay_path = tmp_path / "lay.csv"
        run(capsys, "array", "taper", "--k", "8", "--taper", "cosine",
            "--out", str(lay_path))
        out_path = tmp_path / "pat.csv"
        code, _, _ = run(capsys, "array", "pattern", "--k", "8",
                         "--layout-csv", str(lay_path), "--n-points", "101",
                         "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path.read_text())
        assert len(rows) == 101
        f_db = np.array([float(r["f_db"]) for r in rows])
        assert f_db.max() == 0.0

    def test_planar_grid(self, tmp_path, capsys):
        out_path = tmp_path / "uv.csv"
        code, _, _ = run(capsys, "array", "pattern", "--k", "4", "--l", "4",
                         "--pad", "4", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path.read_text())
        assert set(rows[0]) == {"u", "v", "f_db"}
        best = max(rows, key=lambda r: float(r["f_db"]))
        assert float(best["u"]) == pytest.approx(0.0)
        assert float(best["v"]) == pytest.approx(0.0)
