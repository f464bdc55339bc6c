"""cli_mix: each op is one ``python -m mwkit.cli ...`` process, as users run it.

About 0.45 s of a ~0.46 s ``smith map`` is interpreter start plus the
numpy/scipy imports, so this workload isolates the CLI and import cost while
the library layers do little. The op table spans all 11 command groups, with
--out CSV/JSON writes, one --config run, net convert/cascade on Touchstone
files written during set-up, and two usage errors per round that must exit
2. Oracles are closed forms where they exist; elsewhere outputs are compared
with values recorded by record.py.

This module imports only the standard library: the parent process of the
ops never imports mwkit.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys

import reference

NAME = "cli_mix"
C0 = 299_792_458.0
KB = 1.380649e-23
Z0 = 50.0
NET_FREQS = (1e9, 2e9, 3e9)
# a device file as measured (2001 points): amp ops parse it, and writing it
# makes set-up a few ms of steady CPU work instead of under 1 ms of file I/O
AMP_FREQS = tuple(0.5e9 + 0.5e6 * i for i in range(2001))
RECORDED = {
    "match_lumped/0": ["match", "lumped", "--zl-ohm", "25,-30", "--ztarget-ohm", "50",
                       "--freq-hz", "1e9"],
    "match_lumped/1": ["match", "lumped", "--zl-ohm", "200,-100", "--ztarget-ohm", "50",
                       "--freq-hz", "2e9"],
    "filter_lowpass": ["filter", "lowpass", "--g", "1,2,1", "--fc-hz", "4e9",
                       "--n-points", "41", "--out", "{out}"],
    "filter_bandpass": ["filter", "bandpass", "--g", "1,1.5963,1.0967,1.5963,1",
                        "--ripple-db", "0.5", "--f0-hz", "28e9", "--bw-frac", "0.2",
                        "--n-points", "41"],
    "antenna_directivity/wire": ["antenna", "directivity", "--model", "wire",
                                 "--half-length-wl", "0.25"],
    "antenna_pattern/p0": ["antenna", "pattern", "--model", "circ-aperture", "--radius-wl",
                           "2", "--taper-p", "0", "--n-points", "181", "--out", "{out}"],
    "antenna_pattern/p1": ["antenna", "pattern", "--model", "circ-aperture", "--radius-wl",
                           "2", "--taper-p", "1", "--n-points", "181", "--out", "{out}"],
    "antenna_pattern/p2": ["antenna", "pattern", "--model", "circ-aperture", "--radius-wl",
                           "2", "--taper-p", "2", "--n-points", "181", "--out", "{out}"],
    "mom_solve/41": ["mom", "solve", "--half-length-wl", "0.25", "--radius-wl", "0.001",
                     "--freq-hz", "3e8", "--segments", "41", "--out", "{out}"],
    "mom_solve/81c": ["mom", "solve", "--half-length-wl", "0.25", "--radius-wl", "0.001",
                      "--freq-hz", "3e8", "--segments", "81", "--collocation",
                      "--out", "{out}"],
}
WARMUP = {"kind": "usage", "args": ["smith", "map"], "expect": 2}
ROUND_S = 13.5  # one round on a 2-core Xeon at the commit that added this benchmark
USAGE_ERRORS = (["smith", "map"],
                ["antenna", "directivity", "--model", "bogus"],
                ["net", "convert", "--in", "{dev_a}", "--to", "q"],
                ["--config", "{bad_cfg}"])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def inputs(seed: int) -> dict:
    """Parameters of the files written during set-up."""
    rng = random.Random(f"{NAME}:{seed}:inputs")
    cz = lambda: [rng.uniform(5, 100), rng.uniform(-60, 60)]  # noqa: E731
    return {
        "tee": [cz(), cz(), [rng.uniform(20, 200), rng.uniform(-100, 100)]],
        "line_b": [rng.uniform(25, 120), rng.uniform(0.2, 1.4)],
        "amp": [[rng.uniform(0.3, 0.7), rng.uniform(2, 8), rng.uniform(0.01, 0.1),
                 rng.uniform(0.3, 0.7)],
                [rng.uniform(-math.pi, math.pi) for _ in range(4)]],
        "qwave": [rng.uniform(10, 500), rng.uniform(25, 100)],
    }


def tee_z(tee):
    za, zb, zc = (complex(*z) for z in tee)
    return [[za + zc, zc], [zc, zb + zc]]


def _inv2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def _mul2(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def z_to_s(z):
    eye = [[1, 0], [0, 1]]
    num = [[z[i][j] - Z0 * eye[i][j] for j in range(2)] for i in range(2)]
    den = [[z[i][j] + Z0 * eye[i][j] for j in range(2)] for i in range(2)]
    return _mul2(num, _inv2(den))


def abcd_to_s(m):
    (a, b), (c, d) = m
    den = a * Z0 + b + c * Z0 * Z0 + d * Z0
    return [[(a * Z0 + b - c * Z0 * Z0 - d * Z0) / den, 2 * (a * d - b * c) * Z0 / den],
            [2 * Z0 / den, (-a * Z0 + b - c * Z0 * Z0 + d * Z0) / den]]


def line_abcd(zl, theta):
    return [[math.cos(theta), 1j * zl * math.sin(theta)],
            [1j * math.sin(theta) / zl, math.cos(theta)]]


def amp_s(amp, f):
    mags, phases = amp
    ang = [p - 2 * math.pi * f / 1e9 for p in phases]
    s11, s21, s12, s22 = (cmath.rect(m, a) for m, a in zip(mags, ang))
    return [[s11, s12], [s21, s22]]


def touchstone_text(freqs, s_of_f) -> str:
    lines = ["# HZ S RI R 50"]
    for f in freqs:
        (s11, s12), (s21, s22) = s_of_f(f)
        lines.append(" ".join([repr(f)] + [f"{repr(c.real)} {repr(c.imag)}"
                                           for c in (s11, s21, s12, s22)]))
    return "\n".join(lines) + "\n"


def setup(seed: int, workdir: str) -> dict:
    """Write the input files into ``workdir`` and return the op context."""
    inp = inputs(seed)
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    zl_b, t_b = inp["line_b"]
    r_load, z0 = inp["qwave"]
    files = {
        "dev_a": ("dev_a.s2p", touchstone_text(NET_FREQS, lambda f: z_to_s(tee_z(inp["tee"])))),
        "dev_b": ("dev_b.s2p", touchstone_text(
            NET_FREQS, lambda f: abcd_to_s(line_abcd(zl_b, t_b * f / 1e9)))),
        "amp": ("amp.s2p", touchstone_text(AMP_FREQS, lambda f: amp_s(inp["amp"], f))),
        "cfg": ("qwave.conf", "# quarter-wave transformer\ncommand = tline qwave\n"
                              f"rload_ohm = {r_load!r}\nz0_ohm = {z0!r}\nout = qwave_cfg.csv\n"),
        "bad_cfg": ("bad.conf", "command = tline qwave\nrload_ohms = 100\n"),
    }
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = os.path.join(workdir, name)
        with open(paths[key], "w") as fh:
            fh.write(text)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, MWKIT_OUT_DIR=out_dir,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return {"paths": paths, "out_dir": out_dir, "env": env}


# ---------------------------------------------------------------------------
# Op table
# ---------------------------------------------------------------------------

def _num(x) -> str:
    return repr(float(x))


def _ops_for_round(rng, inp):
    u = rng.uniform
    ops = []

    def add(kind, args, **extra):
        ops.append({"kind": kind, "args": args, "expect": 0, **extra})

    r, l, g, c, f = u(0, 10), u(1e-7, 1e-6), u(0, 0.02), u(5e-11, 5e-10), u(1e7, 1e9)
    add("tline_gamma", ["tline", "gamma", "--r", _num(r), "--l", _num(l), "--g", _num(g),
                        "--c", _num(c), "--freq-hz", _num(f), "--out", "{out}"],
        rlgcf=[r, l, g, c, f], ext=".csv")
    zl, z0, ln = [u(5, 200), u(-150, 150)], u(25, 100), u(0.01, 0.49)
    add("tline_zin", ["tline", "zin", "--zl-ohm", f"{zl[0]!r},{zl[1]!r}", "--z0-ohm", _num(z0),
                      "--length-wl", _num(ln), "--format", "json", "--out", "{out}"],
        zl=zl, z0=z0, length=ln, ext=".json")
    rl, z0 = u(10, 500), u(25, 100)
    add("tline_qwave", ["tline", "qwave", "--rload-ohm", _num(rl), "--z0-ohm", _num(z0),
                        "--out", "{out}"], rload=rl, z0=z0, ext=".csv")
    z, zr = [u(1, 300), u(-300, 300)], u(25, 100)
    add("smith_map", ["smith", "map", "--z-ohm", f"{z[0]!r},{z[1]!r}", "--zref-ohm", _num(zr)],
        z=z, zref=zr)
    zline, deg = u(25, 120), u(10, 170)
    add("net_component", ["net", "component", "--kind", "ideal_line", "--zline-ohm", _num(zline),
                          "--theta0-deg", _num(deg), "--f0-hz", "1e9",
                          "--freqs-hz", "0.5e9,0.8e9,1e9,1.3e9,1.7e9", "--out", "{out}"],
        zline=zline, deg=deg, ext=".s2p")
    add("net_convert", ["net", "convert", "--in", "{dev_a}", "--to", "z", "--out", "{out}"],
        tee=inp["tee"], ext=".csv")
    add("net_cascade", ["net", "cascade", "--in", "{dev_a}", "--in2", "{dev_b}",
                        "--out", "{out}"], tee=inp["tee"], line_b=inp["line_b"], ext=".csv")
    zs, zl, v = [u(5, 100), u(-50, 50)], [u(5, 100), u(-50, 50)], u(0.1, 10)
    add("match_conjugate", ["match", "conjugate", "--zs-ohm", f"{zs[0]!r},{zs[1]!r}",
                            "--zl-ohm", f"{zl[0]!r},{zl[1]!r}", "--v-source", _num(v)],
        zs=zs, zl=zl, v=v)
    zl, z0, stub = [u(10, 200), u(-100, 100)], u(25, 100), rng.choice(("shorted", "open"))
    add("match_stub", ["match", "stub", "--zl-ohm", f"{zl[0]!r},{zl[1]!r}", "--z0-ohm",
                       _num(z0), "--stub", stub], zl=zl, z0=z0, stub=stub)
    for key in ("filter_lowpass", "filter_bandpass",
                rng.choice(("match_lumped/0", "match_lumped/1")),
                rng.choice(("antenna_pattern/p0", "antenna_pattern/p1", "antenna_pattern/p2")),
                "mom_solve/41", "mom_solve/81c"):
        add("recorded", RECORDED[key], key=key, ext=".csv")
    fi, gs, gl = rng.randrange(len(AMP_FREQS)), [u(0, 0.5), u(-3, 3)], [u(0, 0.5), u(-3, 3)]
    zs_amp = [Z0 * x for x in _gamma_to_z(gs)]
    zl_amp = [Z0 * x for x in _gamma_to_z(gl)]
    add("amp_gains", ["amp", "gains", "--s2p", "{amp}", "--freq-hz", _num(AMP_FREQS[fi]),
                      "--zs-ohm", f"{zs_amp[0]!r},{zs_amp[1]!r}",
                      "--zl-ohm", f"{zl_amp[0]!r},{zl_amp[1]!r}"],
        amp=inp["amp"], freq=AMP_FREQS[fi], zs=zs_amp, zl=zl_amp)
    fi = rng.randrange(len(AMP_FREQS))
    add("amp_stability", ["amp", "stability", "--s2p", "{amp}", "--freq-hz",
                          _num(AMP_FREQS[fi])], amp=inp["amp"], freq=AMP_FREQS[fi])
    bw, t0 = 10 ** u(3, 9), u(50, 400)
    add("noise_floor", ["noise", "floor", "--bandwidth-hz", _num(bw), "--t0-k", _num(t0)],
        bw=bw, t0=t0)
    stages = [[u(0, 30), u(0.5, 10)] for _ in range(rng.randrange(2, 5))]
    add("noise_cascade", ["noise", "cascade", "--stages",
                          ",".join(f"{g!r}:{nf!r}" for g, nf in stages)], stages=stages)
    if rng.random() < 0.5:
        add("antenna_dipole", ["antenna", "directivity", "--model", "dipole"])
    else:
        add("recorded", RECORDED["antenna_directivity/wire"], key="antenna_directivity/wire")
    i0l = u(1e-3, 0.05)
    add("antenna_rr", ["antenna", "rr", "--model", "dipole", "--i0l-am", _num(i0l)], i0l=i0l)
    k, scan = rng.randrange(4, 65), u(-60, 60)
    add("array_pattern", ["array", "pattern", "--k", str(k), "--scan-deg", _num(scan),
                          "--n-points", "401", "--out", "{out}"], k=k, scan=scan, ext=".csv")
    k, bits = rng.randrange(8, 257), rng.randrange(2, 7)
    add("array_errors", ["array", "errors", "--k", str(k), "--bits", str(bits)], k=k, bits=bits)
    n, sp = rng.randrange(64, 257), u(0.5, 3.0)
    add("array_layout", ["array", "layout", "--kind", "sunflower", "--count", str(n),
                         "--avg-spacing-wl", _num(sp), "--out", "{out}"], n=n, spacing=sp,
        ext=".csv")
    mode = rng.choice(("radio", "radar"))
    pt, gt, gr, f, rng_m, rcs = u(1e-3, 1e4), u(1, 1e4), u(1, 1e4), u(1e8, 1e11), \
        u(10, 1e5), u(0.01, 100)
    add("link", ["link", mode, "--pt-w", _num(pt), "--gt", _num(gt), "--gr", _num(gr),
                 "--freq-hz", _num(f), "--range-m", _num(rng_m), "--rcs-m2", _num(rcs)],
        mode=mode, p=[pt, gt, gr, f, rng_m, rcs])
    add("config", ["--config", "{cfg}"], rload=inp["qwave"][0], z0=inp["qwave"][1],
        fixed_out="qwave_cfg.csv")
    for args in rng.sample(USAGE_ERRORS, 2):
        ops.append({"kind": "usage", "args": list(args), "expect": 2})
    return ops


def _gamma_to_z(g):
    gam = cmath.rect(*g)
    z = (1 + gam) / (1 - gam)
    return [z.real, z.imag]


def make_round(seed: int, r: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:{r}")
    ops = _ops_for_round(rng, inputs(seed))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        if "ext" in op:
            op["out"] = f"{op['kind']}_{r}_{i}{op.pop('ext')}"
        elif "fixed_out" in op:
            op["out"] = op.pop("fixed_out")
    return ops


# ---------------------------------------------------------------------------
# Running an op
# ---------------------------------------------------------------------------

def prepare(ctx, op):
    """argv with file placeholders resolved; a stale output file is removed."""
    out = os.path.join(ctx["out_dir"], op["out"]) if "out" in op else None
    if out and os.path.exists(out):
        os.remove(out)
    names = dict(ctx["paths"], out=op.get("out", ""))
    return [a.format(**names) for a in op["args"]], out


def _result(code, stdout, stderr, out):
    text = None
    if out and os.path.exists(out):
        with open(out) as fh:
            text = fh.read()
    return {"code": code, "stdout": stdout, "stderr": stderr, "out": text}


def run(ctx, prepared):
    argv, out = prepared
    proc = subprocess.run([sys.executable, "-m", "mwkit.cli", *argv], env=ctx["env"],
                          capture_output=True, text=True, timeout=150)
    return _result(proc.returncode, proc.stdout, proc.stderr, out)


def run_in_process(ctx, prepared):
    """The same op through ``mwkit.cli.main`` in this process, output captured."""
    from mwkit import cli

    argv, out = prepared
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = os.environ.get("MWKIT_OUT_DIR")
    os.environ["MWKIT_OUT_DIR"] = ctx["out_dir"]
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        if saved is None:
            del os.environ["MWKIT_OUT_DIR"]
        else:
            os.environ["MWKIT_OUT_DIR"] = saved
    return _result(code, stdout.getvalue(), stderr.getvalue(), out)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _c(row, key) -> complex:
    return complex(float(row[key + "_re"]), float(row[key + "_im"]))


def _close(got, want, rel=1e-9, abs_=0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


def same_numbers(got: str, want: str, rel=1e-6, abs_=1e-15):
    """None if the texts agree token by token (numbers within tolerance)."""
    a, b = _NUMBER.split(got), _NUMBER.split(want)
    if len(a) != len(b):
        return "different number of tokens"
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0:
            if x != y:
                return f"text {x[:40]!r} != recorded {y[:40]!r}"
        elif not (x == y or _close(float(x), float(y), rel, abs_)):
            return f"{x} != recorded {y}"
    return None


def check(op, res):
    if res["code"] != op["expect"]:
        return f"exit code {res['code']}, expected {op['expect']}: {res['stderr'].strip()[-200:]}"
    return ORACLES[op["kind"]](op, res)


def _check_usage(op, res):
    return None if res["stderr"].strip() else "usage error printed nothing on stderr"


def _check_recorded(op, res):
    want = reference.load()[NAME][op["key"]]
    for field in ("stdout", "out"):
        if (res[field] is None) != (want[field] is None):
            return f"{field} presence differs from the recording"
        if res[field] is not None:
            why = same_numbers(res[field], want[field])
            if why:
                return f"{field}: {why}"
    return None


def _check_tline_gamma(op, res):
    r, l, g, c, f = op["rlgcf"]
    w = 2 * math.pi * f
    zs, yp = complex(r, w * l), complex(g, w * c)
    row = rows(res["out"])[0]
    if not _close(_c(row, "gamma_per_m"), cmath.sqrt(zs * yp)):
        return f"gamma {_c(row, 'gamma_per_m')} != sqrt(ZY) {cmath.sqrt(zs * yp)}"
    if not _close(_c(row, "z0_ohm"), cmath.sqrt(zs / yp)):
        return f"z0 {_c(row, 'z0_ohm')} != sqrt(Z/Y) {cmath.sqrt(zs / yp)}"
    return None


def _check_tline_zin(op, res):
    zl, z0 = complex(*op["zl"]), op["z0"]
    t = math.tan(2 * math.pi * op["length"])
    want = z0 * (zl + 1j * z0 * t) / (z0 + 1j * zl * t)
    got = json.loads(res["out"])[0]
    got = complex(got["z_in_ohm_re"], got["z_in_ohm_im"])
    return None if _close(got, want) else f"z_in {got} != closed form {want}"


def _check_qwave(z1_line, out, rload, z0):
    z1 = float(re.search(r"z1 = (\S+) ohm", z1_line).group(1))
    if not _close(z1, math.sqrt(rload * z0), rel=1e-5):
        return f"z1 = {z1}, quarter-wave sqrt(R Z0) = {math.sqrt(rload * z0)}"
    table = {float(r["f_over_f0"]): float(r["gamma_mag"]) for r in rows(out)}
    if not table[1.0] <= 1e-9:
        return f"|Gamma| at f0 = {table[1.0]}, expected 0"
    if not _close(table[0.0], abs((rload - z0) / (rload + z0))):
        return f"|Gamma| at f = 0 is {table[0.0]}, expected |R - Z0|/(R + Z0)"
    return None


def _check_smith(op, res):
    zn = complex(*op["z"]) / op["zref"]
    got = _c(rows(res["stdout"])[0], "gamma")
    want = (zn - 1) / (zn + 1)
    return None if _close(got, want) else f"Gamma {got} != (z - 1)/(z + 1) = {want}"


def _touchstone_rows(text):
    vals = [[float(x) for x in line.split()] for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith(("#", "!"))]
    return [(v[0], [[complex(v[1], v[2]), complex(v[5], v[6])],
                    [complex(v[3], v[4]), complex(v[7], v[8])]]) for v in vals]


def _max_err(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in range(2) for j in range(2))


def _check_component(op, res):
    for f_ghz, s in _touchstone_rows(res["out"]):
        theta = math.radians(op["deg"]) * f_ghz
        want = abcd_to_s(line_abcd(op["zline"], theta))
        if not _max_err(s, want) <= 1e-9:
            return f"line S at {f_ghz} GHz off the closed form by {_max_err(s, want):.3g}"
    return None


def _matrix(row, kind):
    return [[_c(row, f"{kind}{i}{j}") for j in (1, 2)] for i in (1, 2)]


def _check_convert(op, res):
    want = tee_z(op["tee"])
    scale = max(abs(x) for r in want for x in r)
    for row in rows(res["out"]):
        if not _max_err(_matrix(row, "z"), want) <= 1e-9 * scale:
            return f"Z at {row['freq_hz']} Hz off the T-network's Z"
    return None


def _check_cascade(op, res):
    z = tee_z(op["tee"])
    det = z[0][0] * z[1][1] - z[0][1] * z[1][0]
    tee_abcd = [[z[0][0] / z[1][0], det / z[1][0]], [1 / z[1][0], z[1][1] / z[1][0]]]
    zl_b, t_b = op["line_b"]
    for row in rows(res["out"]):
        f = float(row["freq_hz"])
        want = abcd_to_s(_mul2(tee_abcd, line_abcd(zl_b, t_b * f / 1e9)))
        if not _max_err(_matrix(row, "s"), want) <= 1e-9:
            return f"cascade S at {f} Hz off the ABCD product"
    return None


def _check_conjugate(op, res):
    zs, zl, v = complex(*op["zs"]), complex(*op["zl"]), op["v"]
    row = rows(res["stdout"])[0]
    p_load = 0.5 * v * v * zl.real / abs(zs + zl) ** 2
    if not _close(float(row["p_load_w"]), p_load):
        return f"p_load {row['p_load_w']} != closed form {p_load}"
    if not _close(float(row["p_max_w"]), v * v / (8 * zs.real)):
        return f"p_max {row['p_max_w']} != |V|^2/(8 R_s)"
    return None


def _check_stub(op, res):
    zl, z0 = complex(*op["zl"]), op["z0"]
    sols = rows(res["stdout"])
    if not sols:
        return "no stub solution printed"
    for s in sols:
        t = math.tan(2 * math.pi * float(s["d_wl"]))
        y = (z0 + 1j * zl * t) / (z0 * (zl + 1j * z0 * t))
        tl = math.tan(2 * math.pi * float(s["l_wl"]))
        y += -1j / (z0 * tl) if op["stub"] == "shorted" else 1j * tl / z0
        gamma = abs((1 - z0 * y) / (1 + z0 * y))
        if not gamma <= 1e-6:
            return f"stub at d = {s['d_wl']} leaves |Gamma| = {gamma:.3g}"
    return None


def _transducer_gain(s, gs, gl):
    (s11, s12), (s21, s22) = s
    return (abs(s21) ** 2 * (1 - abs(gs) ** 2) * (1 - abs(gl) ** 2)
            / abs((1 - s11 * gs) * (1 - s22 * gl) - s12 * s21 * gs * gl) ** 2)


def _check_amp_gains(op, res):
    s = amp_s(op["amp"], op["freq"])
    gs = (complex(*op["zs"]) - Z0) / (complex(*op["zs"]) + Z0)
    gl = (complex(*op["zl"]) - Z0) / (complex(*op["zl"]) + Z0)
    want = 10 * math.log10(_transducer_gain(s, gs, gl))
    got = float(rows(res["stdout"])[0]["g_t_db"])
    return None if abs(got - want) <= 1e-8 else f"G_T {got} dB != closed form {want} dB"


def _check_amp_stability(op, res):
    (s11, s12), (s21, s22) = amp_s(op["amp"], op["freq"])
    delta = s11 * s22 - s12 * s21
    k = (1 - abs(s11) ** 2 - abs(s22) ** 2 + abs(delta) ** 2) / (2 * abs(s12 * s21))
    mu = (1 - abs(s11) ** 2) / (abs(s22 - s11.conjugate() * delta) + abs(s12 * s21))
    row = rows(res["stdout"])[0]
    if not _close(float(row["k"]), k):
        return f"K {row['k']} != Rollett closed form {k}"
    if not _close(float(row["mu"]), mu):
        return f"mu {row['mu']} != closed form {mu}"
    return None


def _check_noise_floor(op, res):
    want = 10 * math.log10(KB * op["t0"] * op["bw"] / 1e-3)
    got = float(rows(res["stdout"])[0]["noise_floor_dbm"])
    return None if abs(got - want) <= 1e-9 else f"noise floor {got} != kTB {want} dBm"


def _check_noise_cascade(op, res):
    f_total, gain = 0.0, 1.0
    for i, (g_db, nf_db) in enumerate(op["stages"]):
        f = 10 ** (nf_db / 10)
        f_total = f if i == 0 else f_total + (f - 1) / gain
        gain *= 10 ** (g_db / 10)
    got = float(rows(res["stdout"])[0]["nf_total_db"])
    want = 10 * math.log10(f_total)
    return None if abs(got - want) <= 1e-9 else f"cascade NF {got} != Friis {want} dB"


def _check_dipole(op, res):
    d = float(rows(res["stdout"])[0]["directivity"])
    return None if _close(d, 1.5, rel=5e-3) else f"dipole directivity {d} != 1.5"


def _check_rr(op, res):
    got = float(rows(res["stdout"])[0]["r_r_ohm"])
    want = 80 * math.pi**2 * op["i0l"] ** 2
    return None if _close(got, want, rel=1e-3) else f"R_r {got} != 80 pi^2 (l/lambda)^2 = {want}"


def _check_array_pattern(op, res):
    table = rows(res["out"])
    u0 = math.sin(math.radians(op["scan"]))
    mags = []
    for r in table:
        x = 0.5 * math.pi * (float(r["u"]) - u0)
        mags.append(op["k"] if abs(math.sin(x)) < 1e-12
                    else abs(math.sin(op["k"] * x) / math.sin(x)))
    peak = max(mags)
    for r, m in zip(table, mags):
        want = max(10 * math.log10(max((m / peak) ** 2, 1e-30)), -300.0)
        if want > -100 and not abs(float(r["f_db"]) - want) <= 1e-6:
            return f"f_db at u = {r['u']} is {r['f_db']}, closed form {want}"
    return None


def _check_array_errors(op, res):
    d2 = (2 * math.pi / 2 ** op["bits"]) ** 2 / 12
    row = rows(res["stdout"])[0]
    for key, want in (("phase_var_rad2", d2),
                      ("avg_null_sll_db", 10 * math.log10(d2 / (op["k"] * (1 - d2)))),
                      ("directivity_loss_db", 10 * math.log10(1 / (1 + d2)))):
        if not _close(float(row[key]), want, abs_=1e-9):
            return f"{key} {row[key]} != closed form {want}"
    return None


def _check_layout(op, res):
    sll = float(re.search(r"predicted average SLL: (\S+) dB", res["stdout"]).group(1))
    if not abs(sll - 10 * math.log10(1 / op["n"])) <= 0.006:
        return f"predicted SLL {sll} dB != 10 log10(1/N)"
    pts = [(float(r["x_m"]), float(r["y_m"])) for r in rows(res["out"])]
    if len(pts) != op["n"]:
        return f"{len(pts)} elements written, asked for {op['n']}"
    nn = [min(math.dist(p, q) for j, q in enumerate(pts) if j != i) for i, p in enumerate(pts)]
    mean = sum(nn) / len(nn)
    return None if _close(mean, op["spacing"], rel=1e-6) else \
        f"mean nearest-neighbour distance {mean} != {op['spacing']}"


def _check_link(op, res):
    pt, gt, gr, f, rm, rcs = op["p"]
    lam = C0 / f
    prmin = 1e-12
    if op["mode"] == "radio":
        p_r = pt * gt * gr * (lam / (4 * math.pi * rm)) ** 2
        r_max = math.sqrt(pt * gt * gr * lam**2 / ((4 * math.pi) ** 2 * prmin))
    else:
        p_r = pt * gt * gr * rcs * lam**2 / ((4 * math.pi) ** 3 * rm**4)
        r_max = (pt * gt * gr * rcs * lam**2 / ((4 * math.pi) ** 3 * prmin)) ** 0.25
    row = rows(res["stdout"])[0]
    if not _close(float(row["p_r_w"]), p_r):
        return f"{op['mode']} P_r {row['p_r_w']} != closed form {p_r}"
    if not _close(float(row["r_max_m"]), r_max):
        return f"{op['mode']} R_max {row['r_max_m']} != closed form {r_max}"
    return None


ORACLES = {
    "usage": _check_usage,
    "recorded": _check_recorded,
    "tline_gamma": _check_tline_gamma,
    "tline_zin": _check_tline_zin,
    "tline_qwave": lambda op, res: _check_qwave(res["stdout"], res["out"], op["rload"], op["z0"]),
    "config": lambda op, res: _check_qwave(res["stdout"], res["out"], op["rload"], op["z0"]),
    "smith_map": _check_smith,
    "net_component": _check_component,
    "net_convert": _check_convert,
    "net_cascade": _check_cascade,
    "match_conjugate": _check_conjugate,
    "match_stub": _check_stub,
    "amp_gains": _check_amp_gains,
    "amp_stability": _check_amp_stability,
    "noise_floor": _check_noise_floor,
    "noise_cascade": _check_noise_cascade,
    "antenna_dipole": _check_dipole,
    "antenna_rr": _check_rr,
    "array_pattern": _check_array_pattern,
    "array_errors": _check_array_errors,
    "array_layout": _check_layout,
    "link": _check_link,
}
