"""Command-line front end: every module exposed as subcommands with plain
key=value config files and CSV/JSON output artifacts.

Angles cross this boundary in degrees; the library works in radians. Output
is deterministic: identical inputs (and seeds) give byte-identical files.
MoM output bytes also do not depend on the BLAS thread count: the wire solve
runs Levinson recursion, and the threaded LU only takes over for a system
that fails Levinson's backward-error gate.
"""

from __future__ import annotations

import argparse
import cmath
import difflib
import json
import math
import sys

import numpy as np

from . import (amplifier, array_engine, matching, mom_wire, network, numerics,
               radiator, tline)
from .numerics import C0, DomainError

USAGE_ERROR = 2
COMPUTE_ERROR = 1


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def expand_complex(rows, complex_format: str = "ri"):
    """Expand complex values into two real columns per the chosen format."""
    out = []
    for row in rows:
        new = {}
        for key, val in row.items():
            if isinstance(val, (complex, np.complexfloating)):
                c = complex(val)
                if complex_format == "ma":
                    new[f"{key}_mag"] = abs(c)
                    new[f"{key}_phase_deg"] = math.degrees(cmath.phase(c))
                else:
                    new[f"{key}_re"] = c.real
                    new[f"{key}_im"] = c.imag
            else:
                new[key] = val
        out.append(new)
    return out


def emit_table(rows, fmt: str = "csv", complex_format: str = "ri") -> str:
    """Render rows (list of dicts) as CSV (header + '.' decimal separator)
    or JSON text."""
    rows = expand_complex(rows, complex_format)
    if fmt == "json":
        return json.dumps([{k: (None if v is None else (v if isinstance(v, (str, bool)) else float(v)))
                            for k, v in r.items()} for r in rows], indent=1) + "\n"
    header = list(rows[0].keys()) if rows else []
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def write_output(text: str, path: str | None):
    """Write to path (relative paths resolve under $MWKIT_OUT_DIR) or stdout."""
    if path:
        import os
        out_dir = os.environ.get("MWKIT_OUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def read_layout_csv(path: str):
    """Read an (x_m, y_m, amp, phase_deg) element CSV into layout+excitation."""
    import csv as _csv

    from . import array_engine
    xs, ys, amps, phases = [], [], [], []
    with open(path) as fh:
        for row in _csv.DictReader(fh):
            xs.append(float(row["x_m"]))
            ys.append(float(row["y_m"]))
            amps.append(float(row.get("amp", 1.0)))
            phases.append(math.radians(float(row.get("phase_deg", 0.0))))
    layout = array_engine.ArrayLayout(positions=np.column_stack([xs, ys]))
    exc = array_engine.ExcitationSet(
        a=np.asarray(amps) * np.exp(-1j * np.asarray(phases)))
    return layout, exc


def parse_complex(text: str) -> complex:
    """Parse 're,im' or a plain real/complex literal."""
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(text.replace(" ", ""))


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Plain key = value lines; '#'/'!' comments; dotted keys allowed.

    Returns a flat {key: value-string} mapping, with 'command' holding the
    subcommand words.
    """
    config = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "!")):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{line_no}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if not key:
                raise DomainError(f"{path}:{line_no}: empty key")
            config[key] = val
    return config


def config_to_argv(config: dict, parser_keys: dict) -> list:
    """Translate a config mapping into an argv prefix; unknown keys get a
    nearest-match suggestion."""
    argv = []
    command = config.get("command")
    if command:
        argv.extend(command.split())
        known = parser_keys.get(tuple(argv[:2])) or parser_keys.get(tuple(argv[:1]), [])
    else:
        known = []
    for key, val in config.items():
        if key == "command":
            continue
        flag_key = key.split(".")[-1].replace(".", "-")
        if known and flag_key not in known:
            hint = difflib.get_close_matches(flag_key, known, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            raise DomainError(f"unknown config key {key!r}{extra}")
        argv.append("--" + flag_key.replace("_", "-"))
        if val != "":
            argv.append(val)
    return argv


# ---------------------------------------------------------------------------
# Shared model/flag plumbing
# ---------------------------------------------------------------------------

def _add_output_flags(p):
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--complex-format", choices=("ri", "ma"), default="ri",
                   help="complex columns as re/im or mag/phase_deg")


def _emit(args, rows):
    write_output(emit_table(rows, args.format, args.complex_format), args.out)


def _wavelength(freq_hz):
    """Free-space wavelength; a frequency that has none is a DomainError."""
    if not (math.isfinite(freq_hz) and freq_hz > 0):
        raise DomainError(f"freq must be finite and > 0, got {freq_hz}")
    return C0 / freq_hz


def _antenna_model(args):
    lam = _wavelength(args.freq_hz)
    kind = args.model
    if kind == "dipole":
        return radiator.ElectricDipole(i0l=args.i0l_am)
    if kind == "magnetic-dipole":
        return radiator.MagneticDipole(moment=args.moment_am2)
    if kind == "wire":
        return radiator.ThinWire(half_length_l=args.half_length_wl * lam)
    if kind == "wire-over-ground":
        return radiator.WireOverGround(half_length_l=args.half_length_wl * lam,
                                       height_h=args.height_wl * lam)
    if kind == "folded":
        return radiator.FoldedDipole()
    if kind == "loop":
        return radiator.Loop(radius_a=args.radius_wl * lam)
    if kind == "rect-aperture":
        return radiator.RectAperture(a=args.a_wl * lam, b=args.b_wl * lam)
    if kind == "circ-aperture":
        return radiator.CircularAperture(radius_a=args.radius_wl * lam,
                                         taper_p=args.taper_p)
    if kind == "microstrip":
        return radiator.MicrostripCircular(radius_a=args.patch_radius_m,
                                           eps_r=args.eps_r,
                                           height_h=args.patch_height_m,
                                           mode_n=args.mode_n, mode_m=args.mode_m)
    raise DomainError(f"unknown model {kind!r}")


def _array_excitation(args, k):
    if args.taper == "uniform":
        amp = array_engine.taper_generate("uniform", k)
    elif args.taper == "cosine":
        amp = array_engine.taper_generate("cosine_pedestal", k, m=args.taper_m,
                                          h=args.pedestal, dx=args.dx_wl)
    elif args.taper == "taylor":
        amp = array_engine.taper_generate("taylor", k, sll_db=args.sll_db,
                                          nbar=args.nbar)
    elif args.taper == "chebyshev":
        amp = array_engine.taper_generate("chebyshev", k, sll_db=args.sll_db)
    else:
        raise DomainError(f"unknown taper {args.taper!r}")
    return amp


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_tline_gamma(args):
    spec = tline.TLineSpec(r=args.r, l=args.l, g=args.g, c=args.c)
    res = tline.propagation_from_rlgc(spec, args.freq_hz)
    gamma = res["gamma"]
    print(f"gamma = {gamma.real:.3g}{gamma.imag:+.3g}j /m")
    print(f"z0 = {res['z0'].real:.6g}{res['z0'].imag:+.6g}j ohm")
    _emit(args, [{"gamma_per_m": gamma, "z0_ohm": res["z0"],
                  "wavelength_m": res["wavelength"],
                  "phase_velocity_m_s": res["phase_velocity"]}])
    return 0


def cmd_tline_zin(args):
    lam = _wavelength(args.freq_hz)   # the default C0 gives lambda = 1 m
    beta = 2 * math.pi / lam
    spec = tline.TLineSpec(gamma=complex(args.alpha_np_m, beta), z0=complex(args.z0_ohm))
    zl = parse_complex(args.zl_ohm)
    z = tline.input_impedance(spec, tline.Termination(zl), args.length_wl * lam)
    refl = tline.reflection_quantities(z, args.z0_ohm)
    _emit(args, [{"z_in_ohm": z, "gamma": refl["gamma"], "vswr": refl["vswr"],
                  "return_loss_db": refl["return_loss_db"]}])
    return 0


def cmd_tline_qwave(args):
    d = tline.quarter_wave_design(args.rload_ohm, args.z0_ohm)
    print(f"z1 = {d['z1']:.6g} ohm")
    f = np.linspace(args.fmin, args.fmax, args.n_points)
    rows = [{"f_over_f0": fi, "gamma_mag": d["gamma_vs_freq"](fi)} for fi in f]
    _emit(args, rows)
    return 0


def cmd_smith_map(args):
    pt = tline.smith_map(z=parse_complex(args.z_ohm), z_ref=args.zref_ohm)
    _emit(args, [{"gamma": pt.gamma, "z_norm": pt.z_norm}])
    return 0


def cmd_smith_circle(args):
    c = tline.constant_circle(args.kind, args.value)
    _emit(args, [{"center": c["center"], "radius": c["radius"]}])
    return 0


def _read_touchstone_file(path):
    n_ports = None
    low = path.lower()
    for n in (1, 2, 3, 4):
        if low.endswith(f".s{n}p"):
            n_ports = n
    with open(path) as fh:
        return network.touchstone_read(fh.read(), n_ports=n_ports)


def _params_rows(params):
    rows = []
    n = params.n_ports
    for fi, f in enumerate(params.freqs):
        row = {"freq_hz": f}
        for i in range(n):
            for j in range(n):
                row[f"{params.kind.lower()}{i + 1}{j + 1}"] = params.matrices[fi, i, j]
        rows.append(row)
    return rows


def cmd_net_convert(args):
    params = _read_touchstone_file(args.infile)
    res = network.convert(params, args.to.upper(),
                          z_ref=args.zref_ohm)
    _emit(args, _params_rows(res))
    return 0


def cmd_net_cascade(args):
    a = _read_touchstone_file(args.infile)
    b = _read_touchstone_file(args.infile2)
    _emit(args, _params_rows(network.cascade(a, b)))
    return 0


def cmd_net_component(args):
    freqs = [float(s) for s in args.freqs_hz.split(",")]
    params = {}
    if args.kind == "series_z":
        params["z"] = parse_complex(args.z_ohm)
    elif args.kind == "shunt_y":
        params["y"] = parse_complex(args.y_s)
    elif args.kind == "ideal_line":
        params = {"z0_line": args.zline_ohm, "theta_at_f0": math.radians(args.theta0_deg),
                  "f0": args.f0_hz}
    elif args.kind == "t_junction":
        params = {"z1": args.z1_ohm, "z2": args.z2_ohm}
    elif args.kind == "wilkinson_equal":
        params = {"f0": args.f0_hz}
    res = network.component_sparams(args.kind, params, freqs, args.z0_ohm)
    if args.out and args.out.lower().endswith(tuple(f".s{n}p" for n in (1, 2, 3, 4))):
        write_output(network.touchstone_write(res, fmt="RI"), args.out)
    else:
        _emit(args, _params_rows(res))
    return 0


def cmd_match_conjugate(args):
    res = matching.conjugate_match(parse_complex(args.zs_ohm),
                                   parse_complex(args.zl_ohm), args.v_source)
    _emit(args, [{"p_load_w": res["p_load"], "is_conjugate": res["is_conjugate"],
                  "p_max_w": res["p_max"]}])
    return 0


def cmd_match_lumped(args):
    res = matching.lumped_match_synthesize(parse_complex(args.zl_ohm),
                                           args.ztarget_ohm, args.freq_hz)
    rows = []
    for i, net in enumerate(res["networks"]):
        for el in net["elements"]:
            rows.append({"network": i, "position": el.position, "kind": el.kind,
                         "value": el.value, "gamma_residual": net["gamma"]})
    if not rows:
        print(f"no network: {res['reason']}", file=sys.stderr)
        return 0
    _emit(args, rows)
    return 0


def cmd_match_stub(args):
    res = matching.single_stub_tuner(parse_complex(args.zl_ohm), args.z0_ohm,
                                     args.stub)
    rows = [{"d_wl": s.d, "l_wl": s.l, "stub_kind": s.stub_kind}
            for s in res["solutions"]]
    if not rows:
        print(f"no solution: {res['reason']}", file=sys.stderr)
        return 0
    _emit(args, rows)
    return 0


def _response_rows(net, freqs):
    resp = matching.filter_response(net, freqs)
    return [{"freq_hz": f, "s11": s11, "s21": s21,
             "s21_db": 20 * math.log10(max(abs(s21), 1e-300))}
            for f, s11, s21 in zip(resp["freqs"], resp["s11"], resp["s21"])]


def cmd_filter_lowpass(args):
    g = tuple(float(s) for s in args.g.split(","))
    proto = matching.LowpassPrototype(g=(1.0, *g, 1.0))
    net = matching.richard_kuroda_lowpass(proto, args.fc_hz, args.z0_ohm)
    print("kuroda n^2:", ", ".join(f"{v:.6g}" for v in net.meta["kuroda_n2"]))
    for el in net.elements:
        print(f"  {el.kind}: {el.z:.4f} ohm (lambda/8 at fc)")
    freqs = np.linspace(args.fc_hz / 100, args.fmax_hz, args.n_points)
    _emit(args, _response_rows(net, freqs))
    return 0


def cmd_filter_bandpass(args):
    g = tuple(float(s) for s in args.g.split(","))
    proto = matching.LowpassPrototype(g=g, ripple_db=args.ripple_db)
    f1 = args.f0_hz * (1.0 - args.bw_frac / 2.0)
    design = matching.coupled_line_bandpass_design(proto, args.f0_hz, f1, args.z0_ohm)
    for k, pr in enumerate(design["pairs"], start=1):
        print(f"  pair {k}: Ze = {pr.z_even:.2f}, Zo = {pr.z_odd:.2f} ohm")
    print("  stubs:", ", ".join(f"{z:.2f}" for z in design["stub_z"]))
    print("  lines:", ", ".join(f"{z:.2f}" for z in design["line_z"]))
    freqs = np.linspace(args.f0_hz * 0.5, args.f0_hz * 1.5, args.n_points)
    _emit(args, _response_rows(design["network"], freqs))
    return 0


def _s_at_freq(params, freq):
    """S matrix at ``freq``, which must be a frequency of the file (relative
    1e-9): nothing is interpolated, so an off-grid query is a DomainError."""
    freqs = params.freqs
    idx = int(np.argmin(np.abs(freqs - freq)))
    if not abs(freqs[idx] - freq) <= 1e-9 * abs(freqs[idx]):
        i = int(np.searchsorted(freqs, freq))
        near = ", ".join(f"{f:.10g}" for f in freqs[max(i - 1, 0):i + 1])
        raise DomainError(f"--freq-hz {freq:.10g} is not a frequency of the file; "
                          f"nearest: {near} Hz")
    return params.matrices[idx]


def cmd_amp_gains(args):
    params = _read_touchstone_file(args.s2p)
    s = _s_at_freq(params, args.freq_hz)
    z0 = params.uniform_z_ref()
    term = network.PortTermination.from_impedances(parse_complex(args.zs_ohm),
                                                   parse_complex(args.zl_ohm), z0)
    rep = amplifier.power_gains(s, term.gamma_s, term.gamma_l)
    db = rep.db()
    _emit(args, [{"g_del_db": db["g_del"], "g_av_db": db["g_av"],
                  "g_t_db": db["g_t"], "m_s_db": db["m_s"], "m_l_db": db["m_l"],
                  "gamma_in": rep.gamma_in, "gamma_out": rep.gamma_out}])
    return 0


def cmd_amp_stability(args):
    params = _read_touchstone_file(args.s2p)
    s = _s_at_freq(params, args.freq_hz)
    st = amplifier.stability_factors(s)
    circ = amplifier.stability_circles(s)
    _emit(args, [{"k": st["k"], "delta_mag": abs(st["delta"]), "mu": st["mu"],
                  "unconditionally_stable": st["unconditionally_stable"],
                  "load_center": circ["load"].center, "load_radius": circ["load"].radius,
                  "source_center": circ["source"].center,
                  "source_radius": circ["source"].radius}])
    return 0


def cmd_amp_gain_circles(args):
    params = _read_touchstone_file(args.s2p)
    s = _s_at_freq(params, args.freq_hz)
    gains = [float(x) for x in args.gains_db.split(",")]
    circles = amplifier.constant_gain_circles(s, args.side, gains)
    _emit(args, [{"gain_db": g, "center": c.center, "radius": c.radius}
                 for g, c in zip(gains, circles)])
    return 0


def cmd_amp_noise_circle(args):
    spec = amplifier.NoiseSpec.from_z_opt(args.nfmin_db, args.rn_ohm,
                                          parse_complex(args.zopt_ohm), args.z0_ohm)
    circ = amplifier.noise_circle(spec, 10 ** (args.nf_db / 10.0), args.z0_ohm)
    _emit(args, [{"gamma_opt": spec.gamma_opt, "center": circ.center,
                  "radius": circ.radius}])
    return 0


def cmd_noise_floor(args):
    dbm = amplifier.noise_floor_dbm(args.bandwidth_hz, args.t0_k)
    _emit(args, [{"bandwidth_hz": args.bandwidth_hz, "t0_k": args.t0_k,
                  "noise_floor_dbm": dbm,
                  "noise_density_dbm_hz": amplifier.noise_floor_dbm(1.0, args.t0_k)}])
    return 0


def cmd_noise_cascade(args):
    stages = []
    for part in args.stages.split(","):
        gdb, nfdb = part.split(":")
        stages.append((10 ** (float(gdb) / 10.0), 10 ** (float(nfdb) / 10.0)))
    res = amplifier.noise_cascade(stages, t0=args.t0_k)
    _emit(args, [{"f_total": res["f_total"], "nf_total_db": res["nf_total_db"],
                  "t_e_total_k": res["t_e_total"]}])
    return 0


def cmd_antenna_pattern(args):
    model = _antenna_model(args)
    upper = isinstance(model, radiator.GROUND_PLANE_MODELS)
    th_max = min(args.theta_max_deg, 90.0) if upper else args.theta_max_deg
    theta = np.radians(np.linspace(args.theta_min_deg, th_max, args.n_points))
    phi = math.radians(args.phi_deg)
    pat = radiator.normalized_pattern(model, args.freq_hz, theta, phi=phi)
    rows = []
    for th, fdb, et, ep in zip(theta, pat["f_db"], pat["e_theta"], pat["e_phi"]):
        rows.append({
            "theta_deg": math.degrees(th), "phi_deg": args.phi_deg, "f_db": fdb,
            "e_theta_mag": abs(et), "e_phi_mag": abs(ep),
            "e_theta_phase_deg": math.degrees(cmath.phase(et)) if abs(et) else 0.0,
            "e_phi_phase_deg": math.degrees(cmath.phase(ep)) if abs(ep) else 0.0,
        })
    _emit(args, rows)
    return 0


def cmd_antenna_directivity(args):
    model = _antenna_model(args)
    d = radiator.directivity(model, args.freq_hz)
    _emit(args, [{"directivity": d, "directivity_db": numerics.db10(d)}])
    return 0


def cmd_antenna_rr(args):
    model = _antenna_model(args)
    res = radiator.radiated_power_and_rr(model, args.i_peak_a, args.freq_hz)
    _emit(args, [{"p_t_w": res["p_t"], "r_r_ohm": res["r_r"]}])
    return 0


def cmd_antenna_microstrip(args):
    res = radiator.microstrip_resonance(args.patch_radius_m, args.eps_r,
                                        args.patch_height_m, args.mode_n, args.mode_m)
    _emit(args, [{"k_nm": res["k_nm"], "f_nm_hz": res["f_nm"],
                  "f_nm_effective_hz": res["f_nm_effective"]}])
    return 0


def cmd_mom_solve(args):
    lam = _wavelength(args.freq_hz)
    prob = mom_wire.WireProblem(half_length_l=args.half_length_wl * lam,
                                radius_a=args.radius_wl * lam, freq=args.freq_hz,
                                n_segments=args.segments,
                                collocation=args.collocation)
    sol = mom_wire.solve_currents(prob)
    print(f"z_in = {sol.z_in.real:.4f}{sol.z_in.imag:+.4f}j ohm")
    rows = [{"z_m": z, "current_a": i}
            for z, i in zip(sol.segment_centers, sol.currents)]
    _emit(args, rows)
    return 0


def cmd_mom_sweep(args):
    lam = _wavelength(args.freq_hz)
    rows = []
    for s in args.lengths_wl.split(","):
        tl = float(s)
        prob = mom_wire.WireProblem(half_length_l=0.5 * tl * lam,
                                    radius_a=args.radius_wl * lam,
                                    freq=args.freq_hz, n_segments=args.segments,
                                    collocation=args.collocation)
        sol = mom_wire.solve_currents(prob)
        rows.append({"length_wl": tl, "z_in_ohm": sol.z_in})
    _emit(args, rows)
    return 0


def cmd_array_pattern(args):
    u0 = math.sin(math.radians(args.scan_deg))
    if args.layout_csv:
        lay, exc = read_layout_csv(args.layout_csv)
        if args.scan_deg:
            exc = array_engine.steering_phases(lay, u0, 0.0, C0,
                                               amplitudes=np.abs(exc.a))
    elif args.l > 1:
        lay = array_engine.rect_grid_layout(args.k, args.l, args.dx_wl, args.dy_wl)
        exc = array_engine.steering_phases(lay, u0, 0.0, C0)
        g = array_engine.pattern_grid(lay, exc, C0, use_fft=True, pad=args.pad)
        pmax = g["power"].max()
        rows = [{"u": ui, "v": vi,
                 "f_db": max(10 * math.log10(max(g["power"][j, i] / pmax, 1e-30)),
                             -300.0)}
                for j, vi in enumerate(g["v"]) for i, ui in enumerate(g["u"])]
        _emit(args, rows)
        return 0
    else:
        lay = array_engine.linear_layout(args.k, args.dx_wl)  # positions in lambda
        amp = _array_excitation(args, args.k)
        exc = array_engine.steering_phases(lay, u0, 0.0, C0, amplitudes=amp)
    u = np.linspace(-1.0, 1.0, args.n_points)
    s = np.abs(array_engine.array_factor(lay, exc, u, np.zeros_like(u), C0))
    p = (s / s.max()) ** 2
    rows = [{"u": ui, "f_db": max(10 * math.log10(max(pi, 1e-30)), -300.0)}
            for ui, pi in zip(u, p)]
    _emit(args, rows)
    return 0


def cmd_array_taper(args):
    amp = _array_excitation(args, args.k)
    rows = [{"x_m": (k - (args.k - 1) / 2) * args.dx_wl, "y_m": 0.0,
             "amp": a, "phase_deg": 0.0} for k, a in enumerate(amp)]
    _emit(args, rows)
    return 0


def cmd_array_layout(args):
    if args.kind == "sunflower":
        res = array_engine.sparse_layout("sunflower", args.count,
                                         avg_spacing=args.avg_spacing_wl)
    else:
        res = array_engine.sparse_layout("regular", args.count, d=args.d_wl)
    print(f"predicted average SLL: {res['predicted_avg_sll_db']:.2f} dB")
    rows = [{"x_m": p[0], "y_m": p[1], "amp": 1.0, "phase_deg": 0.0}
            for p in res["layout"].positions]
    _emit(args, rows)
    return 0


def cmd_array_errors(args):
    model = array_engine.ErrorModel(phase_var=args.phase_var_rad2,
                                    amp_var=args.amp_var,
                                    phase_bits=args.bits, seed=args.seed)
    exc = array_engine.ExcitationSet(a=np.ones(args.k, dtype=complex))
    res = array_engine.error_statistics(exc, model, n_trials=args.trials)
    row = {
        "phase_var_rad2": res["closed_form"]["phase_var"],
        "avg_null_sll_db": res["closed_form"]["avg_null_sll_db"],
        "directivity_loss_db": res["closed_form"]["directivity_ratio_db"],
    }
    if args.trials:
        row["mc_avg_null_sll_db"] = res["monte_carlo"]["avg_null_sll_db"]
        row["n_trials"] = args.trials
    _emit(args, [row])
    return 0


def cmd_array_snr(args):
    res = array_engine.array_snr(args.k, 10 ** (args.gav_db / 10),
                                 10 ** (args.nf_db / 10), args.ta_k, args.t0_k,
                                 args.bandwidth_hz, args.sa_w)
    _emit(args, [{"snr": res["snr"], "snr_db": res["snr_db"]}])
    return 0


def cmd_link(args, mode):
    spec = radiator.LinkSpec(p_t=args.pt_w, g_t=args.gt, g_r=args.gr,
                             freq=args.freq_hz, range_r=args.range_m,
                             sigma_rcs=args.rcs_m2, p_r_min=args.prmin_w,
                             bandwidth_b=args.bandwidth_hz,
                             nf=10 ** (args.nf_db / 10), t0=args.t0_k)
    res = radiator.link_budget(spec, mode)
    _emit(args, [{"p_r_w": res["p_r"], "p_r_dbm": res["p_r_dbm"],
                  "r_max_m": res["r_max"],
                  "noise_floor_dbm": res["noise_floor_dbm"],
                  "snr_margin_db": res["snr_margin_db"]}])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="mwkit",
                                     description="RF/microwave workbench CLI")
    parser.add_argument("--config", help="key = value config file; flags override")
    sub = parser.add_subparsers(dest="command")

    def add(group, name, fn, flags):
        p = group.add_parser(name)
        for spec in flags:
            p.add_argument(spec[0], **spec[1])
        _add_output_flags(p)
        p.set_defaults(handler=fn)
        return p

    farg = {"type": float, "required": True}
    fopt = lambda d: {"type": float, "default": d}
    iopt = lambda d: {"type": int, "default": d}

    tl = parser_group(sub, "tline")
    add(tl, "gamma", cmd_tline_gamma, [
        ("--r", {"type": float, "default": 0.0, "help": "ohm/m"}),
        ("--l", {"type": float, "required": True, "help": "H/m"}),
        ("--g", {"type": float, "default": 0.0, "help": "S/m"}),
        ("--c", {"type": float, "required": True, "help": "F/m"}),
        ("--freq-hz", farg)])
    add(tl, "zin", cmd_tline_zin, [
        ("--z0-ohm", fopt(50.0)), ("--zl-ohm", {"required": True}),
        ("--length-wl", farg), ("--freq-hz", fopt(C0)),
        ("--alpha-np-m", fopt(0.0))])
    add(tl, "qwave", cmd_tline_qwave, [
        ("--rload-ohm", farg), ("--z0-ohm", fopt(50.0)),
        ("--fmin", fopt(0.0)), ("--fmax", fopt(2.0)), ("--n-points", iopt(201))])

    sm = parser_group(sub, "smith")
    add(sm, "map", cmd_smith_map, [("--z-ohm", {"required": True}),
                                   ("--zref-ohm", fopt(50.0))])
    add(sm, "circle", cmd_smith_circle, [
        ("--kind", {"choices": ("resistance", "reactance", "vswr"), "required": True}),
        ("--value", farg)])

    net = parser_group(sub, "net")
    add(net, "convert", cmd_net_convert, [
        ("--in", {"dest": "infile", "required": True}),
        ("--to", {"choices": ("s", "z", "y"), "required": True}),
        ("--zref-ohm", {"type": float, "default": None})])
    add(net, "cascade", cmd_net_cascade, [
        ("--in", {"dest": "infile", "required": True}),
        ("--in2", {"dest": "infile2", "required": True})])
    add(net, "component", cmd_net_component, [
        ("--kind", {"required": True,
                    "choices": ("series_z", "shunt_y", "ideal_line", "t_junction",
                                "resistive_divider", "wilkinson_equal")}),
        ("--z0-ohm", fopt(50.0)), ("--freqs-hz", {"required": True}),
        ("--z-ohm", {"default": "50"}), ("--y-s", {"default": "0.02"}),
        ("--zline-ohm", fopt(50.0)), ("--theta0-deg", fopt(90.0)),
        ("--f0-hz", fopt(1e9)), ("--z1-ohm", fopt(100.0)), ("--z2-ohm", fopt(100.0))])

    mt = parser_group(sub, "match")
    add(mt, "conjugate", cmd_match_conjugate, [
        ("--zs-ohm", {"required": True}), ("--zl-ohm", {"required": True}),
        ("--v-source", fopt(1.0))])
    add(mt, "lumped", cmd_match_lumped, [
        ("--zl-ohm", {"required": True}), ("--ztarget-ohm", farg),
        ("--freq-hz", farg)])
    add(mt, "stub", cmd_match_stub, [
        ("--zl-ohm", {"required": True}), ("--z0-ohm", fopt(50.0)),
        ("--stub", {"choices": ("shorted", "open"), "default": "shorted"})])

    fl = parser_group(sub, "filter")
    add(fl, "lowpass", cmd_filter_lowpass, [
        ("--g", {"default": "1,2,1", "help": "prototype g1..gN"}),
        ("--fc-hz", farg), ("--z0-ohm", fopt(50.0)),
        ("--fmax-hz", fopt(2e10)), ("--n-points", iopt(201))])
    add(fl, "bandpass", cmd_filter_bandpass, [
        ("--g", {"required": True, "help": "prototype g0..gN+1"}),
        ("--ripple-db", fopt(3.0)), ("--f0-hz", farg), ("--bw-frac", farg),
        ("--z0-ohm", fopt(50.0)), ("--n-points", iopt(201))])

    am = parser_group(sub, "amp")
    add(am, "gains", cmd_amp_gains, [
        ("--s2p", {"required": True}), ("--freq-hz", farg),
        ("--zs-ohm", {"default": "50"}), ("--zl-ohm", {"default": "50"})])
    add(am, "stability", cmd_amp_stability, [
        ("--s2p", {"required": True}), ("--freq-hz", farg)])
    add(am, "gain-circles", cmd_amp_gain_circles, [
        ("--s2p", {"required": True}), ("--freq-hz", farg),
        ("--side", {"choices": ("source", "load"), "required": True}),
        ("--gains-db", {"required": True})])
    add(am, "noise-circle", cmd_amp_noise_circle, [
        ("--nfmin-db", farg), ("--rn-ohm", farg), ("--zopt-ohm", {"required": True}),
        ("--nf-db", farg), ("--z0-ohm", fopt(50.0))])

    no = parser_group(sub, "noise")
    add(no, "floor", cmd_noise_floor, [
        ("--bandwidth-hz", farg), ("--t0-k", fopt(300.0))])
    add(no, "cascade", cmd_noise_cascade, [
        ("--stages", {"required": True, "help": "gain_db:nf_db,gain_db:nf_db,..."}),
        ("--t0-k", fopt(300.0))])

    an = parser_group(sub, "antenna")
    model_flags = [
        ("--model", {"required": True,
                     "choices": ("dipole", "magnetic-dipole", "wire",
                                 "wire-over-ground", "folded", "loop",
                                 "rect-aperture", "circ-aperture", "microstrip")}),
        ("--freq-hz", fopt(C0)), ("--i0l-am", fopt(1.0)), ("--moment-am2", fopt(1.0)),
        ("--half-length-wl", fopt(0.25)), ("--height-wl", fopt(0.25)),
        ("--radius-wl", fopt(1.0)), ("--a-wl", fopt(4.0)), ("--b-wl", fopt(2.0)),
        ("--taper-p", iopt(0)), ("--patch-radius-m", fopt(4.6e-3)),
        ("--eps-r", fopt(2.56)), ("--patch-height-m", fopt(0.5e-3)),
        ("--mode-n", iopt(1)), ("--mode-m", iopt(1)),
    ]
    add(an, "pattern", cmd_antenna_pattern, model_flags + [
        ("--phi-deg", fopt(0.0)), ("--theta-min-deg", fopt(0.0)),
        ("--theta-max-deg", fopt(180.0)), ("--n-points", iopt(721))])
    add(an, "directivity", cmd_antenna_directivity, model_flags)
    add(an, "rr", cmd_antenna_rr, model_flags + [("--i-peak-a", fopt(1.0))])
    add(an, "microstrip", cmd_antenna_microstrip, [
        ("--patch-radius-m", farg), ("--eps-r", farg), ("--patch-height-m", farg),
        ("--mode-n", iopt(1)), ("--mode-m", iopt(1))])

    mo = parser_group(sub, "mom")
    add(mo, "solve", cmd_mom_solve, [
        ("--half-length-wl", farg), ("--radius-wl", farg), ("--freq-hz", farg),
        ("--segments", {"type": int, "required": True}),
        ("--collocation", {"action": "store_true"})])
    add(mo, "sweep", cmd_mom_sweep, [
        ("--lengths-wl", {"required": True}), ("--radius-wl", farg),
        ("--freq-hz", farg), ("--segments", {"type": int, "required": True}),
        ("--collocation", {"action": "store_true"})])

    ar = parser_group(sub, "array")
    taper_flags = [
        ("--taper", {"choices": ("uniform", "cosine", "taylor", "chebyshev"),
                     "default": "uniform"}),
        ("--taper-m", iopt(1)), ("--pedestal", fopt(0.0)),
        ("--sll-db", fopt(30.0)), ("--nbar", iopt(8)),
    ]
    add(ar, "pattern", cmd_array_pattern, [
        ("--k", {"type": int, "required": True}), ("--l", iopt(1)),
        ("--dx-wl", fopt(0.5)), ("--dy-wl", fopt(0.5)),
        ("--scan-deg", fopt(0.0)), ("--n-points", iopt(2001)),
        ("--pad", iopt(8)), ("--layout-csv", {"default": None})] + taper_flags)
    add(ar, "taper", cmd_array_taper, [
        ("--k", {"type": int, "required": True}), ("--dx-wl", fopt(0.5))] + taper_flags)
    add(ar, "layout", cmd_array_layout, [
        ("--kind", {"choices": ("sunflower", "regular"), "default": "sunflower"}),
        ("--count", {"type": int, "required": True}),
        ("--avg-spacing-wl", fopt(2.0)), ("--d-wl", fopt(2.0))])
    add(ar, "errors", cmd_array_errors, [
        ("--k", {"type": int, "required": True}), ("--bits", {"type": int, "default": None}),
        ("--phase-var-rad2", fopt(0.0)), ("--amp-var", fopt(0.0)),
        ("--trials", iopt(0)), ("--seed", iopt(0))])
    add(ar, "snr", cmd_array_snr, [
        ("--k", {"type": int, "required": True}), ("--gav-db", fopt(20.0)),
        ("--nf-db", fopt(3.0)), ("--ta-k", fopt(100.0)), ("--t0-k", fopt(300.0)),
        ("--bandwidth-hz", fopt(1e6)), ("--sa-w", fopt(1e-12))])

    ln = parser_group(sub, "link")
    link_flags = [
        ("--pt-w", farg), ("--gt", fopt(1.0)), ("--gr", fopt(1.0)),
        ("--freq-hz", farg), ("--range-m", fopt(1.0)), ("--rcs-m2", fopt(1.0)),
        ("--prmin-w", fopt(1e-12)), ("--bandwidth-hz", fopt(1e6)),
        ("--nf-db", fopt(0.0)), ("--t0-k", fopt(300.0))]
    add(ln, "radio", lambda a: cmd_link(a, "radio"), link_flags)
    add(ln, "radar", lambda a: cmd_link(a, "radar"), link_flags)

    return parser


_GROUPS = {}


def parser_group(sub, name):
    p = sub.add_parser(name)
    gsub = p.add_subparsers(dest="subcommand")
    _GROUPS[name] = gsub
    return gsub


def _known_flag_keys(parser) -> dict:
    """Map (group, sub) -> valid config key names (underscored)."""
    keys = {}
    for group_name, gsub in _GROUPS.items():
        for sub_name, sp in gsub.choices.items():
            dests = [a.dest for a in sp._actions if a.dest not in ("help",)]
            keys[(group_name, sub_name)] = dests + [d.replace("_", "-") for d in dests]
    return keys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")  # both "--config path" and "--config=path"
    try:
        known, argv = pre.parse_known_args(argv)
        if known.config is not None:
            argv = config_to_argv(load_config(known.config), _known_flag_keys(parser)) + argv
    except (argparse.ArgumentError, DomainError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_help()
            return USAGE_ERROR
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (DomainError, numerics.ConvergenceError, numerics.SingularMatrixError,
            network.ParseError, network.ConversionError, network.GridMismatchError,
            matching.DesignInfeasibleError, amplifier.InfeasibleError,
            array_engine.InfeasibleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
