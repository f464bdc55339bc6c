"""Two-port amplifier design: power gains and mismatch factors, stability
tests and circles, unilateral constant-gain circles, noise cascades and
constant-noise-figure circles.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .network import PortTermination, two_port_gammas
from .numerics import DomainError, db10, from_db10


class InfeasibleError(ValueError):
    """Requested gain/noise target cannot be met by this device."""


@dataclass(frozen=True)
class GainReport:
    g_del: float
    g_av: float
    g_t: float
    m_s: float
    m_l: float
    gamma_in: complex
    gamma_out: complex
    potentially_unstable: bool = False

    def db(self) -> dict:
        return {k: db10(v) for k, v in (
            ("g_del", self.g_del), ("g_av", self.g_av), ("g_t", self.g_t),
            ("m_s", self.m_s), ("m_l", self.m_l))}


@dataclass(frozen=True)
class CircleInChart:
    center: complex
    radius: float
    meaning: str

    def points(self, n: int = 64) -> np.ndarray:
        ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        return self.center + self.radius * np.exp(1j * ang)


@dataclass(frozen=True)
class NoiseSpec:
    """Transistor noise parameters: F_min (linear), R_n and Gamma_opt."""

    f_min: float
    r_n: float
    gamma_opt: complex

    def __post_init__(self):
        if self.f_min < 1.0:
            raise DomainError("F_min must be >= 1 (linear)")
        if self.r_n <= 0:
            raise DomainError("R_n must be > 0")
        if abs(self.gamma_opt) >= 1.0:
            raise DomainError("Gamma_opt must be inside the unit circle")

    @staticmethod
    def from_z_opt(nf_min_db: float, r_n: float, z_opt: complex,
                   z0: float = 50.0) -> "NoiseSpec":
        return NoiseSpec(f_min=from_db10(nf_min_db), r_n=r_n,
                         gamma_opt=(z_opt - z0) / (z_opt + z0))


def power_gains(s: np.ndarray, gamma_s: complex, gamma_l: complex) -> GainReport:
    """Delivered, available and transducer power gain with mismatch factors."""
    s = np.asarray(s, dtype=complex)
    g = two_port_gammas(s, PortTermination(gamma_s=gamma_s, gamma_l=gamma_l))
    gin, gout = g["gamma_in"], g["gamma_out"]
    unstable = abs(gin) >= 1.0 or abs(gout) >= 1.0
    if unstable:
        warnings.warn("|Gamma_in| or |Gamma_out| >= 1: potentially unstable "
                      "operating point", stacklevel=2)
    s21_2 = abs(s[1, 0]) ** 2
    den_l = abs(1 - s[1, 1] * gamma_l) ** 2
    den_s = abs(1 - s[0, 0] * gamma_s) ** 2
    g_del = s21_2 * (1 - abs(gamma_l) ** 2) / (den_l * (1 - abs(gin) ** 2))
    g_av = s21_2 * (1 - abs(gamma_s) ** 2) / (den_s * (1 - abs(gout) ** 2))
    m_s = (1 - abs(gin) ** 2) * (1 - abs(gamma_s) ** 2) / abs(1 - gin * gamma_s) ** 2
    m_l = (1 - abs(gout) ** 2) * (1 - abs(gamma_l) ** 2) / abs(1 - gout * gamma_l) ** 2
    return GainReport(g_del=g_del, g_av=g_av, g_t=g_av * m_l,
                      m_s=m_s, m_l=m_l, gamma_in=gin, gamma_out=gout,
                      potentially_unstable=unstable)


def available_source_power(v_source: float, z_source: complex) -> float:
    """Available power |V_S|^2 / (8 Re Z_S) of a Thevenin source."""
    zs = complex(z_source)
    if zs.real <= 0:
        raise DomainError("source needs Re(Z_S) > 0")
    return abs(v_source) ** 2 / (8.0 * zs.real)


def stability_factors(s: np.ndarray) -> dict:
    """Rollett K-Delta test and the single-parameter mu test."""
    s = np.asarray(s, dtype=complex)
    delta = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    s12s21 = abs(s[0, 1] * s[1, 0])
    num = 1 - abs(s[0, 0]) ** 2 - abs(s[1, 1]) ** 2 + abs(delta) ** 2
    k = math.inf if s12s21 == 0 else num / (2 * s12s21)
    mu_den = abs(s[1, 1] - np.conj(s[0, 0]) * delta) + s12s21
    mu = math.inf if mu_den == 0 else (1 - abs(s[0, 0]) ** 2) / mu_den
    if s12s21 == 0:
        stable = abs(s[0, 0]) < 1 and abs(s[1, 1]) < 1
    else:
        stable = (k > 1) and (abs(delta) < 1)
    return {"k": k, "delta": delta, "mu": mu, "unconditionally_stable": stable}


def stability_circles(s: np.ndarray) -> dict:
    """Load (output) and source (input) stability circles in the Smith chart."""
    s = np.asarray(s, dtype=complex)
    delta = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    out = {}
    for side, sii, sjj in (("load", s[1, 1], s[0, 0]),
                           ("source", s[0, 0], s[1, 1])):
        den = abs(sii) ** 2 - abs(delta) ** 2
        if abs(den) < 1e-300:
            out[side] = CircleInChart(center=complex(math.inf, 0.0),
                                      radius=math.inf,
                                      meaning=f"{side}-stability (degenerate line)")
            continue
        r = abs(s[0, 1] * s[1, 0]) / abs(den)
        c = np.conj(sii - delta * np.conj(sjj)) / den
        out[side] = CircleInChart(center=complex(c), radius=r,
                                  meaning=f"{side}-stability")
    out["origin_side_stable"] = {
        "load": abs(s[0, 0]) < 1.0,
        "source": abs(s[1, 1]) < 1.0,
    }
    return out


def constant_gain_circles(s: np.ndarray, side: str, gain_db_values) -> list:
    """Unilateral constant-gain circles (S12 treated as 0) for the chosen side."""
    s = np.asarray(s, dtype=complex)
    if side == "source":
        sii = s[0, 0]
    elif side == "load":
        sii = s[1, 1]
    else:
        raise DomainError("side must be 'source' or 'load'")
    m_max = 1.0 / (1.0 - abs(sii) ** 2)
    circles = []
    for gdb in np.atleast_1d(gain_db_values):
        m = 10 ** (gdb / 10.0)
        if m > m_max * (1 + 1e-12):
            raise InfeasibleError(
                f"{side} gain {gdb:.2f} dB exceeds the maximum "
                f"{db10(m_max):.2f} dB")
        gnorm = m / m_max
        den = 1.0 - abs(sii) ** 2 * (1.0 - gnorm)
        radius = (1.0 - abs(sii) ** 2) * math.sqrt(1.0 - gnorm) / den
        center = gnorm * np.conj(sii) / den
        circles.append(CircleInChart(center=complex(center), radius=radius,
                                     meaning=f"{side}-gain {gdb:g} dB"))
    return circles


def unilateral_mismatch(sii: complex, gamma: complex) -> float:
    """Unilateral mismatch factor M = (1-|G|^2)/|1 - s_ii G|^2."""
    return (1 - abs(gamma) ** 2) / abs(1 - sii * gamma) ** 2


def noise_cascade(stages, t0: float = 300.0) -> dict:
    """Friis cascade of (available gain, noise factor) stages, both linear."""
    stages = list(stages)
    if not stages:
        raise DomainError("noise cascade needs at least one stage")
    f_total = 0.0
    gain_prod = 1.0
    for g_av, f in stages:
        if g_av <= 0 or f < 1:
            raise DomainError("stages need G_av > 0 and F >= 1")
        if f_total == 0.0:
            f_total = f
        else:
            f_total += (f - 1.0) / gain_prod
        gain_prod *= g_av
    gain_prod_db = db10(gain_prod)
    return {
        "f_total": f_total,
        "nf_total_db": db10(f_total),
        "t_e_total": (f_total - 1.0) * t0,
        "gain_total_db": gain_prod_db,
    }


def noise_figure_at_source(spec: NoiseSpec, gamma_source: complex | None = None,
                           y_source: complex | None = None, z0: float = 50.0) -> float:
    """Noise factor for a given source admittance or reflection coefficient."""
    if (gamma_source is None) == (y_source is None):
        raise DomainError("give exactly one of gamma_source or y_source")
    if y_source is not None:
        ys = complex(y_source)
        if ys.real <= 0:
            raise DomainError("source needs Re(Y_S) > 0")
        y0 = 1.0 / z0
        y_opt = y0 * (1 - spec.gamma_opt) / (1 + spec.gamma_opt)
        return spec.f_min + spec.r_n / ys.real * abs(ys - y_opt) ** 2
    gs = complex(gamma_source)
    if abs(gs) >= 1.0:
        raise DomainError("source reflection must be inside the unit circle")
    return spec.f_min + (4.0 * spec.r_n / z0) * abs(gs - spec.gamma_opt) ** 2 / (
        (1 - abs(gs) ** 2) * abs(1 + spec.gamma_opt) ** 2)


def noise_circle(spec: NoiseSpec, f_target: float, z0: float = 50.0) -> CircleInChart:
    """Constant-noise-figure circle in the Gamma_S plane."""
    if f_target < spec.f_min:
        raise InfeasibleError(
            f"target noise factor {f_target:g} below device F_min {spec.f_min:g}")
    n = (f_target - spec.f_min) / (4.0 * spec.r_n / z0) * abs(1 + spec.gamma_opt) ** 2
    center = spec.gamma_opt / (1.0 + n)
    radius = math.sqrt(n * n + n * (1.0 - abs(spec.gamma_opt) ** 2)) / (1.0 + n)
    return CircleInChart(center=center, radius=radius,
                         meaning=f"noise {db10(f_target):.3g} dB")


def noise_floor_dbm(bandwidth_hz: float, t0: float = 300.0) -> float:
    """Thermal noise power k_b T0 B expressed in dBm."""
    from .numerics import KB
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth must be > 0")
    return db10(KB * t0 * bandwidth_hz / 1e-3)
