"""pattern_mix: analytic radiators and array patterns.

Directivity integrates a vector ring integrand with the adaptive quadrature
(unlike the scalar nested fill of wire_sweep), and the aperture models call
bessel_j on every ring. Array factors, sunflower layouts and the error Monte
Carlo exercise the O(points x elements) and O(N^2) memory paths. Each round
holds every op kind and size class once, in seeded order with seeded
continuous parameters, so rounds cost about the same whatever the seed.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy import optimize, spatial, special

from mwkit import array_engine as ae
from mwkit import radiator as rd
from mwkit.numerics import C0

import reference

NAME = "pattern_mix"
K0 = 2 * math.pi          # freq = C0: wavelength 1 m
WOG_HEIGHTS_WL = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)
MICROSTRIP_MODES = ((1, 1), (2, 1), (0, 2), (3, 1))
MICROSTRIP_FREQ = 10e9
CUT_DEG = np.linspace(-90.0, 90.0, 1801)
WARMUP = {"kind": "rect", "a": 1.5, "b": 1.0}
ROUND_S = 2.5  # one round on a 2-core Xeon at the commit that added this benchmark


def _circ(rng, lo, hi):
    return {"kind": "circ", "a": rng.uniform(lo, hi), "p": rng.choice((0, 1, 2))}


def make_round(seed: int, r: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:{r}")
    ops = [_circ(rng, 1.0, 2.0), _circ(rng, 2.0, 3.0), _circ(rng, 3.0, 4.0),
           {"kind": "rect", "a": rng.uniform(2.0, 6.0), "b": rng.uniform(1.5, 4.0)},
           {"kind": "dipole", "i0l": rng.uniform(1e-3, 0.1)},
           {"kind": "loop", "r": rng.uniform(0.005, 0.1)},
           {"kind": "wire_rr", "l": rng.uniform(0.05, 0.7), "i": rng.uniform(0.5, 2.0)},
           {"kind": "wog", "h": rng.choice(WOG_HEIGHTS_WL)},
           {"kind": "microstrip", "mode": list(rng.choice(MICROSTRIP_MODES))}]
    for model in ("circ", "rect"):
        ops.append({"kind": "cut", "model": model, "a": rng.uniform(1.5, 4.0),
                    "b": rng.uniform(1.5, 4.0), "p": rng.choice((0, 1, 2))})
    ops.append({"kind": "noise_temp", "t0": rng.uniform(50.0, 300.0),
                "t1": rng.uniform(2.0, 50.0)})
    for k, l in ((64, 64), (32, 32)):
        ops.append({"kind": "af", "k": k, "l": l, "points": 2001, "u0": rng.uniform(-0.5, 0.5)})
    ops.append({"kind": "fft", "k": rng.choice((8, 16, 32)), "l": rng.choice((8, 16)),
                "pad": rng.choice((4, 8)), "u0": rng.uniform(-0.5, 0.5),
                "seed": rng.randrange(2**31)})
    for k, trials in ((256, 2000), (64, 500)):
        model = ({"phase_bits": rng.choice((3, 4, 5))} if rng.random() < 0.5
                 else {"phase_var": rng.uniform(0.005, 0.03)})
        ops.append({"kind": "errstat", "k": k, "trials": trials,
                    "seed": rng.randrange(2**31), **model})
    for n in (250, 1000, 4000):
        ops.append({"kind": "sunflower", "n": n, "spacing": rng.uniform(0.5, 3.0)})
    ops.append({"kind": "fpa", "r": rng.uniform(0.1, 3.0),
                "psi0": rng.uniform(math.pi / 8, math.pi / 3)})
    rng.shuffle(ops)
    return ops


def setup(seed: int, workdir: str):
    return None


def prepare(ctx, op):
    return op


def run(ctx, op):
    kind = op["kind"]
    if kind == "circ":
        return rd.directivity(rd.CircularAperture(radius_a=op["a"], taper_p=op["p"]), C0)
    if kind == "rect":
        return rd.directivity(rd.RectAperture(a=op["a"], b=op["b"]), C0)
    if kind == "dipole":
        return rd.directivity(rd.ElectricDipole(i0l=op["i0l"]), C0)
    if kind == "loop":
        return rd.directivity(rd.Loop(radius_a=op["r"]), C0)
    if kind == "wog":
        return rd.directivity(rd.WireOverGround(half_length_l=0.25, height_h=op["h"]), C0)
    if kind == "microstrip":
        n, m = op["mode"]
        model = rd.MicrostripCircular(radius_a=4.6e-3, eps_r=2.56, height_h=0.5e-3,
                                      mode_n=n, mode_m=m)
        return rd.directivity(model, MICROSTRIP_FREQ)
    if kind == "wire_rr":
        model = rd.ThinWire(half_length_l=op["l"], i0=op["i"])
        return rd.radiated_power_and_rr(model, op["i"], C0)["r_r"]
    if kind == "cut":
        pat = rd.normalized_pattern(_cut_model(op), C0, np.radians(CUT_DEG), phi=0.0)
        return {"f_db": pat["f_db"], "metrics": rd.pattern_metrics(CUT_DEG, pat["f_db"])}
    if kind == "noise_temp":
        t0, t1 = op["t0"], op["t1"]
        return rd.antenna_noise_temperature(lambda th, ph: t0 * math.cos(th) ** 2 + t1,
                                            lambda th, ph: 1.5 * math.sin(th) ** 2)
    if kind == "af":
        lay = ae.rect_grid_layout(op["k"], op["l"], 0.5, 0.5)
        exc = ae.steering_phases(lay, op["u0"], 0.0, C0)
        u = np.linspace(-1.0, 1.0, op["points"])
        return ae.array_factor(lay, exc, u, np.zeros_like(u), C0)
    if kind == "fft":
        lay = ae.rect_grid_layout(op["k"], op["l"], 0.5, 0.5)
        amp = np.random.default_rng(op["seed"]).uniform(0.5, 1.0, lay.n_elements)
        exc = ae.steering_phases(lay, op["u0"], 0.0, C0, amplitudes=amp)
        g = ae.pattern_grid(lay, exc, C0, use_fft=True, pad=op["pad"])
        return {"grid": g, "pos": lay.positions, "a": exc.a}
    if kind == "errstat":
        model = ae.ErrorModel(phase_var=op.get("phase_var", 0.0),
                              phase_bits=op.get("phase_bits"), seed=op["seed"])
        exc = ae.ExcitationSet(a=np.ones(op["k"], dtype=complex))
        return ae.error_statistics(exc, model, n_trials=op["trials"])
    if kind == "sunflower":
        return ae.sparse_layout("sunflower", op["n"], avg_spacing=op["spacing"])
    if kind == "fpa":
        return ae.fpa_efficiency(op["r"], C0, op["psi0"])
    raise ValueError(f"unknown op kind {kind!r}")


def _cut_model(op):
    if op["model"] == "circ":
        return rd.CircularAperture(radius_a=op["a"], taper_p=op["p"])
    return rd.RectAperture(a=op["a"], b=op["b"])


def _rel(x, ref):
    return abs(x / ref - 1.0)


def cut_power(op, theta):
    """Closed-form phi = 0 power pattern of the aperture in a cut op."""
    st = np.sin(theta)
    if op["model"] == "circ":
        p = op["p"]
        ua = K0 * op["a"] * st
        small = np.abs(ua) < 1e-6
        safe = np.where(small, 1.0, ua)
        shape = np.where(small, 1.0,
                         2.0 ** (p + 1) * math.factorial(p + 1)
                         * special.jv(p + 1, safe) / safe ** (p + 1))
    else:
        shape = np.sinc(op["a"] * st)
    return ((1 + np.cos(theta)) * shape) ** 2


def check(op, res):
    kind = op["kind"]
    if kind == "circ":
        p, ka = op["p"], K0 * op["a"]
        closed = ka**2 * (2 * p + 1) / (p + 1) ** 2
        if not _rel(res, closed) <= 1.0 / ka:
            return f"D = {res:.6g}, closed form {closed:.6g} (tol 1/(k a) = {1 / ka:.3g})"
        return None
    if kind == "rect":
        closed = 4 * math.pi * op["a"] * op["b"]
        tol = 1.5 / (K0 * min(op["a"], op["b"]))
        if not _rel(res, closed) <= tol:
            return f"D = {res:.6g}, closed form 4 pi a b = {closed:.6g} (tol {tol:.3g})"
        return None
    if kind == "dipole":
        return None if _rel(res, 1.5) <= 5e-3 else f"D = {res:.6g}, short dipole 1.5"
    if kind == "loop":
        tol = 0.1 * (K0 * op["r"]) ** 2 + 1e-6
        return None if _rel(res, 1.5) <= tol else f"D = {res:.6g}, small loop 1.5 (tol {tol:.3g})"
    if kind in ("wog", "microstrip"):
        key = f"wog/{op['h']:g}" if kind == "wog" else "microstrip/{}{}".format(*op["mode"])
        ref = reference.load()["pattern_mix"][key]
        return None if _rel(res, ref) <= 1e-6 else f"D = {res:.10g}, recorded {ref:.10g}"
    if kind == "wire_rr":
        closed = wire_rr_closed_form(op["l"])
        return None if _rel(res, closed) <= 1e-8 else f"R_r = {res:.10g}, closed form {closed:.10g}"
    if kind == "cut":
        return _check_cut(op, res)
    if kind == "noise_temp":
        closed = op["t1"] + 0.2 * op["t0"]
        return None if _rel(res, closed) <= 1e-6 else f"T_a = {res:.8g}, closed form {closed:.8g}"
    if kind == "af":
        x = 0.5 * K0 * 0.5 * (np.linspace(-1.0, 1.0, op["points"]) - op["u0"])
        den = np.sin(x)
        pole = np.abs(den) < 1e-12
        closed = op["l"] * np.abs(np.where(pole, op["k"],
                                           np.sin(op["k"] * x) / np.where(pole, 1.0, den)))
        err = np.max(np.abs(np.abs(res) - closed))
        tol = 1e-9 * op["k"] * op["l"]
        return None if err <= tol else f"|AF| off the closed form by {err:.3g} (tol {tol:.3g})"
    if kind == "fft":
        return _check_fft(op, res)
    if kind == "errstat":
        return _check_errstat(op, res)
    if kind == "sunflower":
        pos = res["layout"].positions
        if pos.shape != (op["n"], 2):
            return f"layout shape {pos.shape}, expected ({op['n']}, 2)"
        dist, _ = spatial.cKDTree(pos).query(pos, k=2)
        mean_nn = float(np.mean(dist[:, 1]))
        if not _rel(mean_nn, op["spacing"]) <= 1e-9:
            return f"mean nearest-neighbour distance {mean_nn:.10g}, asked {op['spacing']:.10g}"
        if not _rel(res["predicted_avg_sll"], 1.0 / op["n"]) <= 1e-12:
            return f"predicted average SLL {res['predicted_avg_sll']:.6g}, expected 1/N"
        return None
    if kind == "fpa":
        v = K0 * op["r"] * math.sin(op["psi0"])
        closed = 1.0 - special.j0(v) ** 2 - special.j1(v) ** 2
        if not abs(res - closed) <= 1e-10:
            return f"eta = {res:.12g}, closed form {closed:.12g}"
        return None
    return f"no oracle for op kind {kind!r}"


def wire_rr_closed_form(l_wl: float) -> float:
    """Radiation resistance of a centre-fed sinusoidal-current wire of total
    length 2l, referred to the current maximum (Balanis, eq. 4-70)."""
    eta = 376.730313668
    c = 0.5772156649015329
    kl = K0 * 2 * l_wl
    si = lambda x: special.sici(x)[0]  # noqa: E731
    ci = lambda x: special.sici(x)[1]  # noqa: E731
    return eta / (2 * math.pi) * (
        c + math.log(kl) - ci(kl)
        + 0.5 * math.sin(kl) * (si(2 * kl) - 2 * si(kl))
        + 0.5 * math.cos(kl) * (c + math.log(kl / 2) + ci(2 * kl) - 2 * ci(kl)))


def _check_cut(op, res):
    theta = np.radians(CUT_DEG)
    ref = cut_power(op, theta)
    ref_db = 10 * np.log10(np.maximum(ref / ref.max(), 1e-300))
    live = ref_db > -80.0
    err = np.max(np.abs(res["f_db"][live] - ref_db[live]))
    if not err <= 1e-6:
        return f"pattern cut off the closed form by {err:.3g} dB"
    # half-power point of the closed form, bracketed by the first sample
    # past the peak (theta = 0) that is below half power
    p0 = cut_power(op, np.array([0.0]))[0]
    mid = len(ref) // 2
    below = mid + int(np.argmax(ref[mid:] / p0 < 0.5))
    half = optimize.brentq(lambda t: cut_power(op, np.array([t]))[0] / p0 - 0.5,
                           0.0, theta[below])
    hpbw = res["metrics"]["hpbw_deg"]
    closed = 2 * math.degrees(half)
    if hpbw is None or not abs(hpbw - closed) <= 0.02:
        return f"HPBW = {hpbw}, closed form {closed:.4f} deg"
    return None


def _check_fft(op, res):
    g = res["grid"]
    pos, a = res["pos"], res["a"]
    rng = np.random.default_rng(op["seed"])
    iv = rng.integers(0, len(g["v"]), 64)
    iu = rng.integers(0, len(g["u"]), 64)
    u, v = g["u"][iu], g["v"][iv]
    direct = np.exp(1j * K0 * (np.multiply.outer(u, pos[:, 0])
                               + np.multiply.outer(v, pos[:, 1]))) @ a
    err = np.max(np.abs(g["s"][iv, iu] - direct))
    tol = 1e-9 * np.sum(np.abs(a))
    return None if err <= tol else f"FFT samples off direct summation by {err:.3g}"


def _check_errstat(op, res):
    cf = res["closed_form"]
    if "phase_bits" in op:
        d2 = (2 * math.pi / 2 ** op["phase_bits"]) ** 2 / 12.0
    else:
        d2 = op["phase_var"]
    if not _rel(cf["phase_var"], d2) <= 1e-12:
        return f"phase variance {cf['phase_var']:.8g}, closed form {d2:.8g}"
    sll = d2 / (op["k"] * (1.0 - d2))
    if not _rel(cf["avg_null_sll"], sll) <= 1e-12:
        return f"average null SLL {cf['avg_null_sll']:.8g}, closed form {sll:.8g}"
    mc_db = res["monte_carlo"]["avg_null_sll_db"]
    cf_db = 10 * math.log10(sll)
    if not abs(mc_db - cf_db) <= 1.0:
        return f"Monte Carlo null SLL {mc_db:.3f} dB, closed form {cf_db:.3f} dB (tol 1 dB)"
    return None
