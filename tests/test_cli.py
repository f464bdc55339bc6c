import csv
import io
import json
import math
import subprocess
import sys

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

    @pytest.mark.parametrize("text, tail", [
        ("command = noise floor\nbandwidth_hz = 1e6\nt0_k = 300\n", []),
        ("command = noise floor\nbandwidth_hz = 1e6\nt0_k = 300\n", ["--t0-k", "150"]),
        ("command = smith map\nz-ohm = 100,0\n", ["--z-ohm", "25,0"]),
        ("command = smith map\nz-ohm = 100,0\n", ["smith", "map", "--z-ohm", "25,0"]),
    ], ids=["file-only", "flag-overrides", "z-overrides", "repeated-command"])
    def test_equals_spelling_reads_the_file(self, tmp_path, capsys, text, tail):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        spaced = run(capsys, "--config", str(p), *tail)
        joined = run(capsys, f"--config={p}", *tail)
        assert joined == spaced
        assert spaced[0] == (2 if "smith" in tail else 0)

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

    @pytest.mark.parametrize("argv", [
        ["mom", "solve", "--half-length-wl", "0.25", "--radius-wl", "0.001",
         "--segments", "21"],
        ["mom", "sweep", "--lengths-wl", "0.5", "--radius-wl", "0.001", "--segments", "21"],
        ["antenna", "directivity", "--model", "dipole"],
    ], ids=["mom-solve", "mom-sweep", "antenna-directivity"])
    def test_zero_frequency_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--freq-hz", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: freq must be finite and > 0")

    @pytest.mark.parametrize("argv", [
        ["tline", "zin", "--zl-ohm", "100,0", "--length-wl", "0.125", "--alpha-np-m", "0.5"],
        ["match", "lumped", "--zl-ohm", "100,50", "--ztarget-ohm", "50"],
    ], ids=["tline-zin", "match-lumped"])
    @pytest.mark.parametrize("freq", ["0", "nan"])
    def test_zero_or_nan_frequency_is_a_domain_error(self, capsys, argv, freq):
        code, out, err = run(capsys, *argv, "--freq-hz", freq)
        assert code == 1
        assert out == ""
        assert err.startswith("error: freq must be finite and > 0")

    def test_tline_zin_without_frequency_uses_one_metre(self, capsys):
        code, out, _ = run(capsys, "tline", "zin", "--zl-ohm", "100,0",
                           "--length-wl", "0.125", "--alpha-np-m", "0.5")
        assert code == 0
        assert out.splitlines()[1] == ("42.0358252474,-27.0737769026,-8.881784197e-18,"
                                       "-0.294165634195,1.83352596146,10.6281612992")

    def test_negative_trial_count_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "array", "errors", "--k", "4", "--trials", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: n_trials must be >= 0")

    @pytest.mark.parametrize("argv", [
        ["amp", "gains", "--zs-ohm", "50", "--zl-ohm", "50"],
        ["amp", "stability"],
        ["amp", "gain-circles", "--side", "source", "--gains-db", "1"],
    ], ids=["gains", "stability", "gain-circles"])
    def test_amp_off_grid_frequency_is_an_error(self, bfu730f_s2p, capsys, argv):
        # the file holds 0.4 GHz only; 40 GHz used to print the 0.4 GHz result
        code, out, err = run(capsys, *argv, "--s2p", bfu730f_s2p, "--freq-hz", "40e9")
        assert code == 1
        assert out == ""
        assert "not a frequency of the file; nearest: 400000000 Hz" in err

    def test_amp_on_grid_within_relative_tolerance(self, bfu730f_s2p, capsys):
        outs = [run(capsys, "amp", "stability", "--s2p", bfu730f_s2p, "--freq-hz", f)
                for f in ("400e6", "400000000.1")]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]

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

    def test_net_cascade_through_a_blocking_two_port(self, tmp_path, capsys):
        # b has S21 = S12 = 0, which no ABCD matrix represents
        a, b = tmp_path / "a.s2p", tmp_path / "b.s2p"
        a.write_text("# GHz S RI R 50\n1 0.1 0 0.9 0 0.9 0 0.1 0\n")
        b.write_text("# GHz S RI R 50\n1 0.5 0 0 0 0 0 0.5 0\n")
        code, out, _ = run(capsys, "net", "cascade", "--in", str(a), "--in2", str(b))
        assert code == 0
        assert "nan" not in out
        row = read_csv(out)[0]
        assert float(row["s11_re"]) == pytest.approx(0.1 + 0.81 * 0.5 / 0.95, abs=1e-11)
        assert float(row["s22_re"]) == pytest.approx(0.5, abs=1e-11)
        for key in ("s11_im", "s12_re", "s12_im", "s21_re", "s21_im", "s22_im"):
            assert float(row[key]) == 0.0

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


MOM_WIRE = ["--radius-wl", "0.0005", "--freq-hz", "3e8"]


class TestBytesIndependentOfBlasThreads:
    """Identical inputs give identical bytes at any BLAS thread count. The
    BLAS thread pool is sized at import, so each count runs in its own
    process."""

    @pytest.mark.parametrize("argv", [
        ["mom", "solve", "--half-length-wl", "0.25", *MOM_WIRE, "--segments", "81"],
        ["mom", "solve", "--half-length-wl", "0.25", *MOM_WIRE, "--segments", "641"],
        ["mom", "sweep", "--lengths-wl", "0.45,0.5,0.55", *MOM_WIRE, "--segments", "401"],
        ["array", "pattern", "--k", "32", "--l", "32", "--pad", "8"],
        ["array", "errors", "--k", "256", "--bits", "3", "--trials", "2000", "--seed", "1"],
        ["net", "component", "--kind", "wilkinson_equal", "--f0-hz", "1e9",
         "--freqs-hz", "0.5e9,1e9,2e9"],
    ], ids=["mom-solve-81", "mom-solve-641", "mom-sweep-401", "array-pattern",
            "array-errors", "net"])
    def test_one_and_two_threads_same_stdout(self, argv, child_env):
        procs = [subprocess.Popen([sys.executable, "-m", "mwkit.cli", *argv],
                                  env=dict(child_env, OPENBLAS_NUM_THREADS=threads),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for threads in ("1", "2")]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
        assert outs[0][0] and outs[0][0] == outs[1][0]


class TestStartup:
    """Only the MoM solve imports scipy (about 0.25 s per process); every
    other command starts without it."""

    COMMANDS = [
        ["smith", "map", "--z-ohm", "50,-150"],
        ["tline", "gamma", "--r", "5", "--l", "0.2e-6", "--g", "0.01", "--c", "300e-12",
         "--freq-hz", "500e6"],
        ["net", "component", "--kind", "ideal_line", "--zline-ohm", "60",
         "--theta0-deg", "90", "--f0-hz", "1e9", "--freqs-hz", "0.5e9,1e9,2e9"],
        ["filter", "lowpass", "--g", "1,2,1", "--fc-hz", "4e9", "--n-points", "41"],
        ["array", "pattern", "--k", "16", "--n-points", "101"],
        ["antenna", "directivity", "--model", "dipole"],
    ]

    def test_commands_leave_scipy_unloaded(self, child_env):
        code = ("import contextlib, io, json, sys\n"
                "from mwkit import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [cli.main(argv) for argv in {self.COMMANDS!r}]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules\n"
                "                                if m == 'scipy' or m.startswith('scipy.'))]))")
        out = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(out.stdout) == [[0] * len(self.COMMANDS), []]

    def test_mom_solve_loads_scipy_linalg_with_same_bytes(self, child_env):
        code = ("import sys\n"
                "if sys.argv[1] == 'first':\n"
                "    import scipy.linalg\n"
                "from mwkit import cli\n"
                "code = cli.main(sys.argv[2:])\n"
                "print(code, 'scipy.linalg' in sys.modules, file=sys.stderr)")
        argv = ["mom", "solve", "--half-length-wl", "0.25", *MOM_WIRE, "--segments", "21"]
        outs = [subprocess.run([sys.executable, "-c", code, when, *argv], env=child_env,
                               capture_output=True, text=True, timeout=120, check=True)
                for when in ("first", "on-demand")]
        assert [o.stderr.splitlines()[-1] for o in outs] == ["0 True", "0 True"]
        assert outs[0].stdout.startswith("z_in = ")
        assert outs[0].stdout == outs[1].stdout
