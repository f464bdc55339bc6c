"""network_sweep: one frequency-swept circuit per op, on F = 201, 2001 or
20001 points.

Every path here loops over frequency in Python today, so cost scales with F
and a batched (F, N, N) rewrite shows on this workload. Ops write Touchstone
as well as read it, so a parsing gain paid for in formatting shows too. Each
round holds every op kind at F = 201 and 2001 and half of them at 20001, in
seeded order.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from mwkit import amplifier, matching, network

NAME = "network_sweep"
F_POINTS = (201, 2001, 20001)
Z0 = 50.0
KINDS = ("components", "cascade_lines", "cascade_chain", "convert", "convert_kpi",
         "touchstone_2p", "touchstone_3p", "filter_lp", "filter_bp", "amp")
WARMUP = {"kind": "cascade_lines", "f": 201, "f0": 1e9, "zl": 60.0, "ta": 0.5, "tb": 0.7}
ROUND_S = 3.75  # one round on a 2-core Xeon at the commit that added this benchmark
ATOL = 1e-9


def _draw(rng, kind, f):
    op = {"kind": kind, "f": f, "f0": rng.uniform(0.5e9, 5e9)}
    if kind == "components":
        op.update(z=[rng.uniform(1, 200), rng.uniform(-100, 100)],
                  y=[rng.uniform(1e-4, 0.05), rng.uniform(-0.05, 0.05)],
                  zl=rng.uniform(25, 120), t0=rng.uniform(math.pi / 8, 0.45 * math.pi),
                  z1=rng.uniform(25, 150), z2=rng.uniform(25, 150))
    elif kind == "cascade_lines":
        op.update(zl=rng.uniform(25, 120), ta=rng.uniform(0.1, 1.5), tb=rng.uniform(0.1, 1.5))
    elif kind == "cascade_chain":
        op.update(z=[rng.uniform(1, 100), rng.uniform(-50, 50)],
                  y=[rng.uniform(1e-4, 0.02), rng.uniform(-0.02, 0.02)],
                  z1=rng.uniform(25, 120), t1=rng.uniform(0.1, 1.5),
                  z2=rng.uniform(25, 120), t2=rng.uniform(0.1, 1.5))
    elif kind == "convert":
        op.update(zl=rng.uniform(25, 120), t0=rng.uniform(math.pi / 8, 0.45 * math.pi))
    elif kind == "convert_kpi":
        op.update(f0=1e9, zl=rng.uniform(25, 120))
    elif kind in ("touchstone_2p", "touchstone_3p"):
        op.update(fmt=rng.choice(("RI", "MA", "DB")), unit=rng.choice(("HZ", "MHZ", "GHZ")),
                  zl=rng.uniform(25, 120), t0=rng.uniform(math.pi / 8, 0.45 * math.pi))
    elif kind == "filter_lp":
        op.update(proto=rng.choice(("butter3", "cheb3")), ripple=rng.uniform(0.1, 1.0))
    elif kind == "filter_bp":
        op.update(order=3, ripple=rng.uniform(0.1, 1.0), bw=rng.uniform(0.05, 0.2))
    elif kind == "amp":
        op.update(mag=[rng.uniform(0.3, 0.7), rng.uniform(2, 8), rng.uniform(0.01, 0.1),
                       rng.uniform(0.3, 0.7)],
                  phase=[rng.uniform(-math.pi, math.pi) for _ in range(4)],
                  delay=[rng.uniform(0.5, 2.0) for _ in range(4)],
                  gs=[rng.uniform(0, 0.5), rng.uniform(-math.pi, math.pi)],
                  gl=[rng.uniform(0, 0.5), rng.uniform(-math.pi, math.pi)],
                  points=[rng.randrange(f) for _ in range(3)])
    return op


def make_round(seed: int, r: int) -> list:
    """Every kind at F = 201 and 2001; half of the kinds, alternating
    between rounds, at F = 20001, which costs ten times as much."""
    rng = random.Random(f"{NAME}:{seed}:{r}")
    ops = [_draw(rng, kind, f) for kind in KINDS for f in F_POINTS[:2]]
    ops += [_draw(rng, kind, F_POINTS[2]) for kind in KINDS[r % 2::2]]
    rng.shuffle(ops)
    return ops


def setup(seed: int, workdir: str):
    return None


def grid(op):
    """0.5 f0 .. 1.5 f0; convert_kpi spans f0 .. 3 f0 so that its middle
    point puts the lambda/4-at-f0 line at theta = pi."""
    if op["kind"] == "convert_kpi":
        return np.linspace(op["f0"], 3 * op["f0"], op["f"])
    if op["kind"] == "filter_lp":
        return np.linspace(0.01 * op["f0"], 3.9 * op["f0"], op["f"])
    return np.linspace(0.5 * op["f0"], 1.5 * op["f0"], op["f"])


def amp_device_s(op, freqs):
    """(F, 2, 2) S of the seeded amplifier device: fixed magnitudes, linear
    phase in frequency."""
    s = np.empty((len(freqs), 2, 2), dtype=complex)
    for idx, (i, j) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        ang = op["phase"][idx] - 2 * math.pi * op["delay"][idx] * freqs / op["f0"]
        s[:, i, j] = op["mag"][idx] * np.exp(1j * ang)
    return s


def prepare(ctx, op):
    freqs = grid(op)
    if op["kind"] != "amp":
        return op, freqs
    s = amp_device_s(op, freqs)
    lines = ["# HZ S RI R 50"]
    for f, m in zip(freqs, s):
        vals = (m[0, 0], m[1, 0], m[0, 1], m[1, 1])
        lines.append(" ".join([repr(float(f))] + [f"{float(c.real)!r} {float(c.imag)!r}"
                                                   for c in vals]))
    return op, freqs, "\n".join(lines) + "\n"


def _line(zl, theta0, f0, freqs):
    return network.component_sparams("ideal_line", {"z0_line": zl, "theta_at_f0": theta0,
                                                    "f0": f0}, freqs, Z0)


def lowpass_g(op):
    """Prototype g1..g4 of the third-order filter_lp op."""
    if op["proto"] == "butter3":
        return (1.0, 2.0, 1.0, 1.0)
    return chebyshev_g(3, op["ripple"])


def chebyshev_g(n: int, ripple_db: float):
    """Chebyshev prototype g1..g(n+1) (Matthaei, Young and Jones)."""
    beta = math.log(1.0 / math.tanh(ripple_db * math.log(10) / 40.0))
    gam = math.sinh(beta / (2 * n))
    a = [math.sin((2 * k - 1) * math.pi / (2 * n)) for k in range(1, n + 1)]
    b = [gam**2 + math.sin(k * math.pi / n) ** 2 for k in range(1, n + 1)]
    g = [2 * a[0] / gam]
    for k in range(1, n):
        g.append(4 * a[k - 1] * a[k] / (b[k - 1] * g[k - 1]))
    g.append(1.0 if n % 2 else 1.0 / math.tanh(beta / 4) ** 2)
    return tuple(g)


def run(ctx, prepared):
    op, freqs = prepared[:2]
    kind = op["kind"]
    f0 = op["f0"]
    if kind == "components":
        return {
            "series_z": network.component_sparams("series_z", {"z": complex(*op["z"])}, freqs, Z0),
            "shunt_y": network.component_sparams("shunt_y", {"y": complex(*op["y"])}, freqs, Z0),
            "ideal_line": _line(op["zl"], op["t0"], f0, freqs),
            "wilkinson": network.component_sparams("wilkinson_equal", {"f0": f0}, freqs, Z0),
            "t_junction": network.component_sparams("t_junction", {"z1": op["z1"], "z2": op["z2"]},
                                                    freqs, Z0),
        }
    if kind == "cascade_lines":
        return network.cascade(_line(op["zl"], op["ta"], f0, freqs),
                               _line(op["zl"], op["tb"], f0, freqs))
    if kind == "cascade_chain":
        out = network.component_sparams("series_z", {"z": complex(*op["z"])}, freqs, Z0)
        out = network.cascade(out, _line(op["z1"], op["t1"], f0, freqs))
        out = network.cascade(out, network.component_sparams(
            "shunt_y", {"y": complex(*op["y"])}, freqs, Z0))
        return network.cascade(out, _line(op["z2"], op["t2"], f0, freqs))
    if kind == "convert":
        s = _line(op["zl"], op["t0"], f0, freqs)
        z = network.convert(s, "Z")
        back = network.convert(network.convert(z, "Y"), "S")
        return {"s": s.matrices, "z": z.matrices, "back": back.matrices}
    if kind == "convert_kpi":
        s = _line(op["zl"], math.pi / 2, f0, freqs)
        try:
            network.convert(network.convert(network.convert(s, "Z"), "Y"), "S")
        except network.ConversionError as exc:
            return {"conversion_error": exc.freq_index}
        return {"conversion_error": None}
    if kind in ("touchstone_2p", "touchstone_3p"):
        if kind == "touchstone_2p":
            p = _line(op["zl"], op["t0"], f0, freqs)
        else:
            p = network.component_sparams("wilkinson_equal", {"f0": f0}, freqs, Z0)
        text = network.touchstone_write(p, fmt=op["fmt"], unit=op["unit"])
        return {"orig": p, "back": network.touchstone_read(text, n_ports=p.n_ports)}
    if kind == "filter_lp":
        proto = matching.LowpassPrototype(g=(1.0, *lowpass_g(op)))
        return matching.filter_response(matching.richard_kuroda_lowpass(proto, f0, Z0), freqs)
    if kind == "filter_bp":
        proto = matching.LowpassPrototype(g=(1.0, *chebyshev_g(op["order"], op["ripple"])),
                                          ripple_db=op["ripple"])
        design = matching.coupled_line_bandpass_design(proto, f0, f0 * (1 - op["bw"] / 2), Z0)
        return matching.filter_response(design["network"], freqs)
    if kind == "amp":
        params = network.touchstone_read(prepared[2], n_ports=2)
        gs, gl = cmath.rect(*op["gs"]), cmath.rect(*op["gl"])
        out = []
        for i in op["points"]:
            s = params.matrices[i]
            out.append((amplifier.power_gains(s, gs, gl).g_t,
                        amplifier.stability_factors(s)))
        return out
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Oracles: closed forms evaluated with numpy, independent of mwkit
# ---------------------------------------------------------------------------

def abcd_to_s(m):
    """(F, 2, 2) ABCD to S between Z0 terminations."""
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    den = a * Z0 + b + c * Z0 * Z0 + d * Z0
    s = np.empty_like(m)
    s[:, 0, 0] = (a * Z0 + b - c * Z0 * Z0 - d * Z0) / den
    s[:, 0, 1] = 2 * (a * d - b * c) * Z0 / den
    s[:, 1, 0] = 2 * Z0 / den
    s[:, 1, 1] = (-a * Z0 + b - c * Z0 * Z0 + d * Z0) / den
    return s


def line_abcd(zl, theta):
    theta = np.asarray(theta, dtype=float)
    m = np.empty(theta.shape + (2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = np.cos(theta)
    m[:, 0, 1] = 1j * zl * np.sin(theta)
    m[:, 1, 0] = 1j * np.sin(theta) / zl
    return m


def lumped_abcd(n, z=None, y=None):
    m = np.zeros((n, 2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    if z is not None:
        m[:, 0, 1] = z
    else:
        m[:, 1, 0] = y
    return m


def _err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _unitary_err(s):
    eye = np.eye(s.shape[1])
    return _err(np.conj(np.transpose(s, (0, 2, 1))) @ s, eye[None])


def check(op, res):
    kind = op["kind"]
    freqs = grid(op)
    f0 = op["f0"]
    theta = lambda t0: t0 * freqs / f0  # noqa: E731
    if kind == "components":
        n = len(freqs)
        z, y = complex(*op["z"]), complex(*op["y"])
        for name, want in (("series_z", abcd_to_s(lumped_abcd(n, z=z))),
                           ("shunt_y", abcd_to_s(lumped_abcd(n, y=y))),
                           ("ideal_line", abcd_to_s(line_abcd(op["zl"], theta(op["t0"]))))):
            err = _err(res[name].matrices, want)
            if not err <= ATOL:
                return f"{name} S off the closed form by {err:.3g}"
        if not _unitary_err(res["ideal_line"].matrices) <= ATOL:
            return "ideal_line is not lossless (S^H S != I)"
        if not _unitary_err(res["t_junction"].matrices) <= ATOL:
            return "t_junction is not lossless (S^H S != I)"
        w = res["wilkinson"].matrices
        if not _err(w, np.transpose(w, (0, 2, 1))) <= ATOL:
            return "wilkinson is not reciprocal"
        if not np.max(np.linalg.svd(w, compute_uv=False)) <= 1 + ATOL:
            return "wilkinson is not passive"
        return None
    if kind == "cascade_lines":
        want = abcd_to_s(line_abcd(op["zl"], theta(op["ta"] + op["tb"])))
        err = _err(res.matrices, want)
        return None if err <= ATOL else f"two cascaded lines differ from one line by {err:.3g}"
    if kind == "cascade_chain":
        n = len(freqs)
        m = (lumped_abcd(n, z=complex(*op["z"])) @ line_abcd(op["z1"], theta(op["t1"]))
             @ lumped_abcd(n, y=complex(*op["y"])) @ line_abcd(op["z2"], theta(op["t2"])))
        err = _err(res.matrices, abcd_to_s(m))
        return None if err <= ATOL else f"cascade off the ABCD product by {err:.3g}"
    if kind == "convert":
        th = theta(op["t0"])
        zl = op["zl"]
        err = max(_err(res["z"][:, 0, 0] / zl, -1j / np.tan(th)),
                  _err(res["z"][:, 1, 0] / zl, -1j / np.sin(th)))
        if not err <= ATOL:
            return f"Z of the line off the closed form by {err:.3g} (relative to Z_line)"
        err = _err(res["back"], res["s"])
        return None if err <= ATOL else f"S -> Z -> Y -> S round trip off by {err:.3g}"
    if kind == "convert_kpi":
        mid = (op["f"] - 1) // 2
        got = res["conversion_error"]
        return None if got == mid else \
            f"expected ConversionError at theta = pi (index {mid}), got {got}"
    if kind in ("touchstone_2p", "touchstone_3p"):
        orig, back = res["orig"], res["back"]
        if not np.allclose(back.freqs, orig.freqs, rtol=1e-11, atol=0):
            return "Touchstone frequencies do not round-trip at 12 digits"
        err = _err(back.matrices, orig.matrices)
        return None if err <= 1e-10 else f"Touchstone {op['fmt']} round trip off by {err:.3g}"
    if kind in ("filter_lp", "filter_bp"):
        s11, s21 = res["s11"], res["s21"]
        loss = _err(np.abs(s11) ** 2 + np.abs(s21) ** 2, 1.0)
        if not loss <= ATOL:
            return f"ideal filter is not lossless (|S11|^2 + |S21|^2 off 1 by {loss:.3g})"
        if kind == "filter_bp":
            mid = (op["f"] - 1) // 2
            err = abs(abs(s21[mid]) - 1.0)
            return None if err <= ATOL else f"|S21(f0)| off 1 by {err:.3g} (odd order)"
        w = np.tan(math.pi / 4 * freqs / f0)
        if op["proto"] == "cheb3":
            eps2 = 10 ** (op["ripple"] / 10) - 1
            want = 1 / (1 + eps2 * (4 * w**3 - 3 * w) ** 2)
        else:
            want = 1 / (1 + w**6)
        err = _err(np.abs(s21) ** 2, want)
        return None if err <= ATOL else f"|S21|^2 off the prototype response by {err:.3g}"
    if kind == "amp":
        s_all = amp_device_s(op, freqs)
        gs, gl = cmath.rect(*op["gs"]), cmath.rect(*op["gl"])
        for i, (g_t, st) in zip(op["points"], res):
            (s11, s12), (s21, s22) = s_all[i]
            want = (abs(s21) ** 2 * (1 - abs(gs) ** 2) * (1 - abs(gl) ** 2)
                    / abs((1 - s11 * gs) * (1 - s22 * gl) - s12 * s21 * gs * gl) ** 2)
            delta = s11 * s22 - s12 * s21
            k = (1 - abs(s11) ** 2 - abs(s22) ** 2 + abs(delta) ** 2) / (2 * abs(s12 * s21))
            mu = (1 - abs(s11) ** 2) / (abs(s22 - np.conj(s11) * delta) + abs(s12 * s21))
            for name, got, ref in (("G_T", g_t, want), ("K", st["k"], k), ("mu", st["mu"], mu)):
                if not abs(got - ref) <= 1e-9 * abs(ref):
                    return f"{name} at point {i} = {got:.12g}, closed form {ref:.12g}"
        return None
    return f"no oracle for op kind {kind!r}"
