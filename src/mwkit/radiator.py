"""Analytic far-field models for canonical antennas, pattern metrics,
directivity and radiation resistance, polarization, microstrip-cavity
resonance and link/radar budgets.

Far fields are returned as pure angular factors: the common exp(-j k0 r)/r
spherical-wave factor is removed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import singledispatch

import numpy as np

from .numerics import (C0, ETA0, KB, DomainError, QuadratureSpec, bessel_j,
                       db10, integrate_adaptive, integrate_gk15)

PATTERN_FLOOR_DB = -100.0


# ---------------------------------------------------------------------------
# Radiator models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElectricDipole:
    """Ideal short dipole along z with dipole moment I0*l [A m]."""

    i0l: float = 1.0


@dataclass(frozen=True)
class MagneticDipole:
    """Small loop in the x-y plane with magnetic moment m = pi a^2 I0 [A m^2]."""

    moment: float = 1.0


@dataclass(frozen=True)
class ThinWire:
    """Center-fed thin wire along z of length 2l with sinusoidal current."""

    half_length_l: float
    i0: float = 1.0

    def __post_init__(self):
        if self.half_length_l <= 0:
            raise DomainError("half length must be > 0")


@dataclass(frozen=True)
class WireOverGround:
    """Horizontal thin wire along x at height h over an infinite ground plane."""

    half_length_l: float
    height_h: float
    i0: float = 1.0

    def __post_init__(self):
        if self.half_length_l <= 0 or self.height_h <= 0:
            raise DomainError("dimensions must be > 0")


@dataclass(frozen=True)
class FoldedDipole:
    """Half-wave folded dipole; pattern of a lambda/2 wire, ~4x its impedance."""

    i0: float = 1.0


@dataclass(frozen=True)
class Loop:
    """Circular loop of radius a in the x-y plane with uniform current."""

    radius_a: float
    i0: float = 1.0

    def __post_init__(self):
        if self.radius_a <= 0:
            raise DomainError("radius must be > 0")


@dataclass(frozen=True)
class RectAperture:
    """Uniform rectangular aperture a x b in the x-y plane, E along y."""

    a: float
    b: float
    e0: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError("aperture dimensions must be > 0")


@dataclass(frozen=True)
class CircularAperture:
    """Circular aperture of radius a with taper [1 - (r/a)^2]^p, E along x."""

    radius_a: float
    taper_p: int = 0
    e0: float = 1.0

    def __post_init__(self):
        if self.radius_a <= 0:
            raise DomainError("radius must be > 0")
        if self.taper_p not in (0, 1, 2):
            raise DomainError("taper order p must be 0, 1 or 2")


#: Zeros K_nm of dJ_n(ka)/d(rho): cavity-mode table for circular patches.
MICROSTRIP_MODE_TABLE = {
    (0, 1): 0.0,
    (1, 1): 1.841,
    (2, 1): 3.054,
    (0, 2): 3.832,
    (3, 1): 4.201,
    (4, 1): 5.317,
    (1, 2): 5.331,
    (5, 1): 6.416,
}


@dataclass(frozen=True)
class MicrostripCircular:
    """Circular microstrip patch (cavity model) on an infinite ground plane."""

    radius_a: float
    eps_r: float
    height_h: float
    mode_n: int = 1
    mode_m: int = 1
    e0: float = 1.0

    def __post_init__(self):
        if self.radius_a <= 0 or self.eps_r < 1 or self.height_h <= 0:
            raise DomainError("need a > 0, eps_r >= 1, h > 0")
        if (self.mode_n, self.mode_m) not in MICROSTRIP_MODE_TABLE:
            raise DomainError(f"mode ({self.mode_n},{self.mode_m}) not in the "
                              "cavity zero table")


GROUND_PLANE_MODELS = (WireOverGround, MicrostripCircular)


@dataclass(frozen=True)
class FarFieldSample:
    """Angular far-field factors (exp(-j k0 r)/r removed); E_r is identically 0."""

    e_theta: np.ndarray | complex
    e_phi: np.ndarray | complex


def _k0(freq: float) -> float:
    if freq <= 0:
        raise DomainError("frequency must be > 0")
    return 2.0 * math.pi * freq / C0


def _wire_pattern(k0l: float, cos_ang, sin_ang):
    """(cos(k0 l cos a) - cos(k0 l)) / sin a with the removable zero filled."""
    num = np.cos(k0l * cos_ang) - math.cos(k0l)
    ok = np.abs(sin_ang) > 1e-9
    return np.where(ok, num / np.where(ok, sin_ang, 1.0), 0.0)


def _jratio(order: int, u):
    """J_order(u)/u^order with its finite u -> 0 limit 1/(2^order order!)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-6
    safe = np.where(small, 1.0, u)
    val = bessel_j(order, u) / safe**order
    return np.where(small, 1.0 / (2.0**order * math.factorial(order)), val)


def _check_upper_half(model, theta):
    if isinstance(model, GROUND_PLANE_MODELS) and np.any(np.asarray(theta) > math.pi / 2 + 1e-12):
        raise DomainError("ground-plane models are defined on the upper "
                          "half-space theta in [0, pi/2]")


@singledispatch
def far_field(model, theta, phi, freq) -> FarFieldSample:
    """Angular far-field factors (E_theta, E_phi) of a radiator model."""
    raise DomainError(f"unknown radiator model {type(model).__name__}")


@far_field.register
def _(model: ElectricDipole, theta, phi, freq) -> FarFieldSample:
    k0 = _k0(freq)
    e = 1j * k0 * ETA0 * model.i0l / (4 * math.pi) * np.sin(theta)
    return FarFieldSample(e_theta=e, e_phi=np.zeros_like(np.asarray(e)))


@far_field.register
def _(model: MagneticDipole, theta, phi, freq) -> FarFieldSample:
    k0 = _k0(freq)
    e = k0**2 * ETA0 * model.moment / (4 * math.pi) * np.sin(theta)
    return FarFieldSample(e_theta=np.zeros_like(np.asarray(e)), e_phi=e)


@far_field.register
def _(model: ThinWire, theta, phi, freq) -> FarFieldSample:
    k0 = _k0(freq)
    pat = _wire_pattern(k0 * model.half_length_l, np.cos(theta), np.sin(theta))
    e = 1j * ETA0 * model.i0 / (2 * math.pi) * pat
    return FarFieldSample(e_theta=e, e_phi=np.zeros_like(np.asarray(e)))


@far_field.register
def _(model: FoldedDipole, theta, phi, freq) -> FarFieldSample:
    wire = ThinWire(half_length_l=C0 / freq / 4.0, i0=model.i0)
    return far_field(wire, theta, phi, freq)


@far_field.register
def _(model: Loop, theta, phi, freq) -> FarFieldSample:
    k0 = _k0(freq)
    e = k0 * model.radius_a * ETA0 * model.i0 / 2.0 * \
        bessel_j(1, k0 * model.radius_a * np.sin(theta))
    return FarFieldSample(e_theta=np.zeros_like(np.asarray(e)), e_phi=e)


@far_field.register
def _(model: WireOverGround, theta, phi, freq) -> FarFieldSample:
    _check_upper_half(model, theta)
    k0 = _k0(freq)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    cos_a = np.sin(theta) * np.cos(phi)      # angle from the wire (x) axis
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a**2))
    pat = _wire_pattern(k0 * model.half_length_l, cos_a, sin_a)
    proj = np.where(np.abs(sin_a) > 1e-9, 1.0 / np.where(np.abs(sin_a) > 1e-9, sin_a, 1.0), 0.0)
    gp = 2j * np.sin(k0 * model.height_h * np.cos(theta))
    amp = -1j * ETA0 * model.i0 / (2 * math.pi)
    e_theta = amp * pat * proj * np.cos(theta) * np.cos(phi) * gp
    e_phi = -amp * pat * proj * np.sin(phi) * gp
    return FarFieldSample(e_theta=e_theta, e_phi=e_phi)


@far_field.register
def _(model: RectAperture, theta, phi, freq) -> FarFieldSample:
    k0 = _k0(freq)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    u = np.sin(theta) * np.cos(phi)
    v = np.sin(theta) * np.sin(phi)
    amp = 1j * k0 * model.a * model.b * model.e0 / (4 * math.pi) * (1 + np.cos(theta))
    shape = np.sinc(k0 * model.a * u / (2 * math.pi)) * np.sinc(k0 * model.b * v / (2 * math.pi))
    return FarFieldSample(e_theta=amp * shape * np.sin(phi),
                          e_phi=amp * shape * np.cos(phi))


@far_field.register
def _(model: CircularAperture, theta, phi, freq) -> FarFieldSample:
    k0 = _k0(freq)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p = model.taper_p
    ua = k0 * model.radius_a * np.sin(theta)
    shape = 2.0**p * math.factorial(p) * _jratio(p + 1, ua)
    amp = 1j * model.radius_a**2 * k0 * model.e0 / 2.0 * (1 + np.cos(theta))
    return FarFieldSample(e_theta=amp * shape * np.cos(phi),
                          e_phi=-amp * shape * np.sin(phi))


@far_field.register
def _(model: MicrostripCircular, theta, phi, freq) -> FarFieldSample:
    _check_upper_half(model, theta)
    k0 = _k0(freq)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = model.mode_n
    k_sub = k0 * math.sqrt(model.eps_r)
    w = k0 * model.radius_a * np.sin(theta)

    j_up = bessel_j(n + 1, w)
    j_down = -bessel_j(1, w) if n == 0 else bessel_j(n - 1, w)   # J_-1 = -J_1
    amp = (1j**n) * model.height_h * model.radius_a * k0 * model.e0 * \
        bessel_j(n, k_sub * model.radius_a) / 2.0
    e_theta = amp * np.cos(n * phi) * (j_up - j_down)
    e_phi = amp * np.cos(theta) * np.sin(n * phi) * (j_up + j_down)
    return FarFieldSample(e_theta=e_theta, e_phi=e_phi)


# ---------------------------------------------------------------------------
# Pattern evaluation and metrics
# ---------------------------------------------------------------------------

def power_pattern(model, theta, phi, freq):
    """|E_theta|^2 + |E_phi|^2 angular power factor."""
    ff = far_field(model, theta, phi, freq)
    return np.abs(ff.e_theta) ** 2 + np.abs(ff.e_phi) ** 2


def normalized_pattern(model, freq: float, theta, phi=0.0) -> dict:
    """Normalized power pattern in dB over the sampled cut/grid.

    Maximum is 0 dB; the floor is clamped at PATTERN_FLOOR_DB.
    """
    theta = np.asarray(theta, dtype=float)
    ff = far_field(model, theta, np.broadcast_to(np.asarray(phi, dtype=float), theta.shape)
                   if np.ndim(phi) else phi, freq)
    p = np.abs(ff.e_theta) ** 2 + np.abs(ff.e_phi) ** 2
    pmax = float(np.max(p))
    if pmax <= 0.0:
        raise DomainError("pattern is identically zero on the sampled grid")
    f_db = np.maximum(db10(np.maximum(p / pmax, 1e-300)), PATTERN_FLOOR_DB)
    return {"theta": theta, "phi": phi, "f_db": f_db,
            "e_theta": np.asarray(ff.e_theta), "e_phi": np.asarray(ff.e_phi)}


def pattern_metrics(theta_deg, f_db) -> dict:
    """HPBW (linear interpolation of the -3.0103 dB crossings), first sidelobe
    level and null angles of a 1-D pattern cut."""
    th = np.asarray(theta_deg, dtype=float)
    f = np.asarray(f_db, dtype=float)
    if th.shape != f.shape or th.ndim != 1 or len(th) < 5:
        raise DomainError("need matching 1-D arrays with >= 5 samples")
    imax = int(np.argmax(f))
    half = f[imax] - 3.0102999566398120

    def crossing(direction):
        i = imax
        while 0 < i < len(f) - 1:
            j = i + direction
            if f[j] <= half:
                # linear interpolation between samples j and i
                t = (half - f[i]) / (f[j] - f[i])
                return th[i] + t * (th[j] - th[i])
            i = j
        return None

    left = crossing(-1)
    right = crossing(+1)
    partial = left is None or right is None
    hpbw = None if partial else abs(right - left)

    # local minima bound the main lobe; sidelobe = largest local max outside
    mins = [i for i in range(1, len(f) - 1) if f[i] <= f[i - 1] and f[i] <= f[i + 1]]
    lo = max([i for i in mins if i < imax], default=None)
    hi = min([i for i in mins if i > imax], default=None)
    sidelobe = None
    for i in range(1, len(f) - 1):
        if (lo is not None and i <= lo) or (hi is not None and i >= hi):
            if f[i] >= f[i - 1] and f[i] >= f[i + 1]:
                if sidelobe is None or f[i] > sidelobe:
                    sidelobe = float(f[i])
    nulls = [float(th[i]) for i in mins if f[i] <= f[imax] - 20.0]
    return {"hpbw_deg": hpbw, "first_sidelobe_db": sidelobe,
            "null_angles_deg": nulls, "partial": partial}


def _sphere_integral(model, freq: float, spec: QuadratureSpec | None,
                     n_phi: int = 64):
    """Integral of the power pattern over the (half-)sphere via a trapezoid in
    phi and adaptive quadrature in theta.

    Each GK15 panel evaluates the pattern once on its 15 theta nodes against
    all phi nodes; a phi-independent model's (15, 1) pattern is broadcast, so
    every ring still averages n_phi values.
    """
    upper_only = isinstance(model, GROUND_PLANE_MODELS)
    th_hi = math.pi / 2 if upper_only else math.pi
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)

    def rings(theta):
        p = power_pattern(model, theta[:, None], phis, freq)
        ring_mean = np.broadcast_to(p, (len(theta), n_phi)).mean(axis=1)
        return ring_mean * 2 * math.pi * np.sin(theta)

    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=4000)
    val, _ = integrate_gk15(rings, (0.0, th_hi), spec)
    return val


def directivity(model, freq: float, spec: QuadratureSpec | None = None) -> float:
    """Directivity D = 4 pi P_max / P_total by numeric integration.

    Ground-plane models integrate the upper hemisphere only.
    """
    upper_only = isinstance(model, GROUND_PLANE_MODELS)
    th = np.linspace(1e-9, (math.pi / 2 if upper_only else math.pi) - 1e-9, 2001)
    ph = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    p = power_pattern(model, th[:, None], ph, freq)
    pmax = float(np.max(p))
    total = _sphere_integral(model, freq, spec)
    return 4 * math.pi * pmax / total


def radiated_power_and_rr(model, i_peak: float, freq: float,
                          spec: QuadratureSpec | None = None) -> dict:
    """Total radiated power and the radiation resistance P_t/(|I|^2/2)."""
    if i_peak <= 0:
        raise DomainError("peak current must be > 0")
    if isinstance(model, FoldedDipole):
        base = ThinWire(half_length_l=C0 / freq / 4.0, i0=model.i0)
        inner = radiated_power_and_rr(base, i_peak, freq, spec)
        # behavioral folded-dipole model: ~4x the lambda/2 wire resistance
        return {"p_t": 4.0 * inner["p_t"], "r_r": 4.0 * inner["r_r"]}
    p_t = _sphere_integral(model, freq, spec) / (2.0 * ETA0)
    return {"p_t": p_t, "r_r": p_t / (0.5 * i_peak**2)}


def ground_relative_pattern(model: WireOverGround, theta, freq: float):
    """Ground-plane pattern normalized to the free-space wire (phi = 90 deg
    plane): F_r = 4 sin^2(k0 h cos theta), peaking at <= 4."""
    _check_upper_half(model, theta)
    k0 = _k0(freq)
    return 4.0 * np.sin(k0 * model.height_h * np.cos(theta)) ** 2


def polarization_metrics(e_theta: complex, e_phi: complex, tol: float = 1e-9) -> dict:
    """Axial ratio and polarization sense from the two field components."""
    et, ep = complex(e_theta), complex(e_phi)
    if abs(et) == 0 and abs(ep) == 0:
        raise DomainError("zero field has no polarization")
    e_l = (et - 1j * ep) / math.sqrt(2.0)
    e_r = (et + 1j * ep) / math.sqrt(2.0)
    al, ar_ = abs(e_l), abs(e_r)
    denom = abs(al - ar_)
    axial_ratio = math.inf if denom < tol * (al + ar_) else (al + ar_) / denom
    if denom < tol * (al + ar_):
        sense = "linear"
    elif ar_ < tol * al:
        sense = "LHCP"
    elif al < tol * ar_:
        sense = "RHCP"
    else:
        sense = "elliptic"
    return {"axial_ratio": axial_ratio, "sense": sense, "e_l": e_l, "e_r": e_r}


# ---------------------------------------------------------------------------
# Microstrip cavity resonance
# ---------------------------------------------------------------------------

def microstrip_effective_radius(radius_a: float, eps_r: float, height_h: float) -> float:
    """Fringing-corrected effective radius a_e > a."""
    a, h = radius_a, height_h
    return a * math.sqrt(1.0 + 2.0 * h / (math.pi * a * eps_r) *
                         (math.log(math.pi * a / (2.0 * h)) + 1.7726))


def microstrip_resonance(radius_a: float, eps_r: float, height_h: float,
                         mode_n: int, mode_m: int) -> dict:
    """Cavity-model resonance f_nm = K_nm c / (2 pi a sqrt(eps_r)), plus the
    value using the fringing-corrected effective radius."""
    key = (mode_n, mode_m)
    if key not in MICROSTRIP_MODE_TABLE:
        raise DomainError(f"mode {key} not in the cavity zero table")
    k_nm = MICROSTRIP_MODE_TABLE[key]
    if k_nm == 0.0:
        warnings.warn("mode (0,1) is the trivial static mode (K = 0); "
                      "no resonance", stacklevel=2)
        return {"k_nm": 0.0, "f_nm": 0.0, "f_nm_effective": 0.0}
    f = k_nm * C0 / (2 * math.pi * radius_a * math.sqrt(eps_r))
    a_e = microstrip_effective_radius(radius_a, eps_r, height_h)
    f_eff = k_nm * C0 / (2 * math.pi * a_e * math.sqrt(eps_r))
    return {"k_nm": k_nm, "f_nm": f, "f_nm_effective": f_eff, "a_e": a_e}


# ---------------------------------------------------------------------------
# Link budgets and antenna noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkSpec:
    p_t: float                 # transmit power [W]
    g_t: float = 1.0           # transmit gain (linear)
    g_r: float = 1.0           # receive gain (linear)
    freq: float = 1e9          # Hz
    range_r: float = 1.0       # m
    sigma_rcs: float = 1.0     # radar cross section [m^2]
    p_r_min: float = 1e-12     # receiver sensitivity [W]
    bandwidth_b: float = 1e6   # Hz
    nf: float = 1.0            # receiver noise factor (linear)
    t0: float = 300.0          # reference temperature [K]

    def __post_init__(self):
        for name in ("p_t", "g_t", "g_r", "freq", "range_r", "sigma_rcs",
                     "p_r_min", "bandwidth_b", "nf", "t0"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")


def effective_aperture(gain: float, freq: float) -> float:
    """A_e = G lambda0^2 / (4 pi)."""
    lam = C0 / freq
    return gain * lam**2 / (4 * math.pi)


def gain_from_aperture(a_e: float, freq: float) -> float:
    """G = 4 pi A_e / lambda0^2."""
    lam = C0 / freq
    return 4 * math.pi * a_e / lam**2


def link_budget(spec: LinkSpec, mode: str = "radio") -> dict:
    """Friis radio link or radar budget with range inversion and noise floor."""
    lam = C0 / spec.freq
    if mode == "radio":
        p_r = spec.p_t * spec.g_t * spec.g_r * lam**2 / ((4 * math.pi) ** 2 * spec.range_r**2)
        r_max = math.sqrt(spec.p_t * spec.g_t * spec.g_r * lam**2 /
                          ((4 * math.pi) ** 2 * spec.p_r_min))
    elif mode == "radar":
        g2 = spec.g_t * spec.g_r
        p_r = spec.p_t * g2 * spec.sigma_rcs * lam**2 / ((4 * math.pi) ** 3 * spec.range_r**4)
        r_max = (spec.p_t * g2 * spec.sigma_rcs * lam**2 /
                 ((4 * math.pi) ** 3 * spec.p_r_min)) ** 0.25
    else:
        raise DomainError("mode must be 'radio' or 'radar'")
    noise_w = KB * spec.t0 * spec.bandwidth_b * spec.nf
    p_r_dbm = db10(p_r / 1e-3)
    noise_dbm = db10(noise_w / 1e-3)
    return {
        "p_r": p_r,
        "p_r_dbm": p_r_dbm,
        "r_max": r_max,
        "noise_floor_dbm": noise_dbm,
        "noise_density_dbm_hz": db10(KB * spec.t0 / 1e-3),
        "snr_margin_db": p_r_dbm - noise_dbm,
    }


def antenna_noise_temperature(t_sky, gain_fn, n_phi: int = 32,
                              spec: QuadratureSpec | None = None) -> float:
    """T_a = (1/4pi) Int T(theta, phi) G(theta, phi) dOmega.

    The gain function is checked to integrate to 4 pi within 2%; otherwise it
    is renormalized with a warning.
    """
    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7, max_subdivisions=4000)
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)

    def ring(f):
        def inner(theta):
            vals = [f(theta, p) for p in phis]
            return float(np.mean(vals)) * 2 * math.pi * math.sin(theta)
        return inner

    g_total, _ = integrate_adaptive(ring(gain_fn), 0.0, math.pi, spec)
    scale = 1.0
    if abs(g_total - 4 * math.pi) > 0.02 * 4 * math.pi:
        scale = 4 * math.pi / g_total
        warnings.warn(f"gain function integrates to {g_total:.4g}, not 4 pi; "
                      f"renormalizing by {scale:.4g}", stacklevel=2)
    tg, _ = integrate_adaptive(ring(lambda th, ph: t_sky(th, ph) * gain_fn(th, ph)),
                               0.0, math.pi, spec)
    return scale * tg / (4 * math.pi)
