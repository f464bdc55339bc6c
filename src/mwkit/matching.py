"""Matching and filter synthesis: conjugate match, lumped L-sections,
single-stub tuners, Richards/Kuroda stub low-pass filters and coupled-line
Chebyshev bandpass designs, with an ideal-element response evaluator that acts
on the whole frequency grid at once (an ``(F, 2, 2)`` ABCD stack per element).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .network import _abcd_to_s, _line_abcd, _two_port
from .numerics import DomainError

TWO_PI = 2.0 * math.pi


class DesignInfeasibleError(ValueError):
    """The requested synthesis has no physical solution."""


@dataclass(frozen=True)
class StubSolution:
    """Single-stub tuner solution: line length d and stub length l, in
    wavelengths (principal branch)."""

    d: float
    l: float
    stub_kind: str  # 'shorted' | 'open'

    def __post_init__(self):
        if not (0.0 <= self.d < 0.5 and 0.0 < self.l < 0.5):
            raise DomainError("stub solutions are principal-branch: "
                              "0 <= d < 0.5, 0 < l < 0.5 wavelengths")


@dataclass(frozen=True)
class CoupledPair:
    """Even/odd-mode impedances of one coupled-line pair."""

    z_even: float
    z_odd: float

    def __post_init__(self):
        if not (self.z_even > self.z_odd > 0):
            raise DomainError("need z_even > z_odd > 0")


@dataclass(frozen=True)
class LowpassPrototype:
    """Normalized low-pass prototype values g0..g_{N+1} (cutoff at w' = 1)."""

    g: tuple
    ripple_db: float = 0.0

    def __post_init__(self):
        if any(gk <= 0 for gk in self.g):
            raise DomainError("prototype values must be > 0")

    @property
    def order(self) -> int:
        return len(self.g) - 2


#: Prototypes used by the worked designs (Pozar tables).
BUILTIN_PROTOTYPES = {
    ("maximally_flat", 3): LowpassPrototype(g=(1.0, 1.0, 2.0, 1.0, 1.0), ripple_db=0.0),
    ("chebyshev_3.0dB", 2): LowpassPrototype(g=(1.0, 3.1013, 0.5339, 5.8095), ripple_db=3.0),
    ("chebyshev_0.5dB", 2): LowpassPrototype(g=(1.0, 1.4029, 0.7071, 1.9841), ripple_db=0.5),
}


# ---------------------------------------------------------------------------
# Conjugate and lumped matching
# ---------------------------------------------------------------------------

def conjugate_match(z_source: complex, z_load: complex, v_source: float) -> dict:
    """Power delivered to a load directly connected to a Thevenin source."""
    zs, zl = complex(z_source), complex(z_load)
    if zs.real < 0 or zl.real < 0:
        raise DomainError("need Re(Z) >= 0 on both sides")
    if zs.real == 0 and zl.real == 0:
        raise DomainError("zero total resistance: delivered power undefined")
    den = (zs.real + zl.real) ** 2 + (zs.imag + zl.imag) ** 2
    p_load = 0.5 * abs(v_source) ** 2 * zl.real / den
    is_conj = cmath.isclose(zl, zs.conjugate(), rel_tol=1e-12, abs_tol=1e-12)
    return {"p_load": p_load, "is_conjugate": is_conj,
            "p_max": abs(v_source) ** 2 / (8 * zs.real) if zs.real > 0 else math.inf}


@dataclass(frozen=True)
class LumpedElement:
    position: str   # 'series' | 'shunt'
    kind: str       # 'L' | 'C'
    value: float    # H or F


def _element_impedance(el: LumpedElement, freq: float) -> complex:
    w = TWO_PI * freq
    return 1j * w * el.value if el.kind == "L" else 1.0 / (1j * w * el.value)


def evaluate_lumped_network(elements, z_load: complex, freq: float) -> complex:
    """Input impedance of a ladder of series/shunt L,C in front of a load.

    ``elements`` are listed from the source side towards the load.
    """
    z = complex(z_load)
    for el in reversed(list(elements)):
        ze = _element_impedance(el, freq)
        if el.position == "series":
            z = z + ze
        else:
            z = z * ze / (z + ze)
    return z


def _reactance_to_element(x: float, freq: float, position: str) -> LumpedElement | None:
    """Element for a series reactance / shunt susceptance; None when the
    value is (numerically) zero and no element is needed."""
    w = TWO_PI * freq
    if abs(x) < 1e-30:
        return None
    if position == "series":
        return LumpedElement("series", "L", x / w) if x > 0 else \
            LumpedElement("series", "C", -1.0 / (w * x))
    # shunt element specified by its susceptance b
    return LumpedElement("shunt", "C", x / w) if x > 0 else \
        LumpedElement("shunt", "L", -1.0 / (w * x))


def lumped_match_synthesize(z_load: complex, z_target: float, freq: float) -> dict:
    """Analytic two-element L-section matching networks.

    Returns up to two networks (element lists, source side first); each is
    verified by evaluation to land within |Gamma| < 1e-6 of z_target.
    """
    if not (math.isfinite(freq) and freq > 0):
        raise DomainError(f"freq must be finite and > 0, got {freq}")
    zl = complex(z_load)
    rt = float(z_target)
    if zl.real <= 0:
        raise DomainError("load needs Re > 0")
    if rt <= 0:
        raise DomainError("target impedance must be real and > 0")
    if abs(zl - rt) / rt < 1e-12:
        return {"networks": [], "reason": "already matched"}

    rl, xl = zl.real, zl.imag
    networks = []

    if abs(rl - rt) < 1e-12 * rt and xl != 0.0:
        # degenerate: one series element cancels the reactance
        el = _reactance_to_element(-xl, freq, "series")
        net = [el] if el is not None else []
        z_in = evaluate_lumped_network(net, zl, freq)
        gamma = abs((z_in - rt) / (z_in + rt))
        return {"networks": [{"elements": net, "gamma": gamma}],
                "reason": "single series element suffices (R_L = target)"}

    # Topology A: shunt element at the load, then series towards the source.
    # Valid when r_l > r_t (load inside the rotated 1+jx circle).
    disc = rl * rl + xl * xl - rt * rl
    if rl > rt and disc > 0:
        # b = (x_l +/- sqrt(r_l/r_t) sqrt(r_l^2 + x_l^2 - r_t r_l)) / (r_l^2 + x_l^2)
        mag2 = rl * rl + xl * xl
        for sgn in (+1.0, -1.0):
            b = (xl + sgn * math.sqrt(rl / rt) * math.sqrt(disc)) / mag2
            if b == 0:
                continue
            x = 1.0 / b + xl * rt / rl - rt / (b * rl)
            net = [el for el in (_reactance_to_element(x, freq, "series"),
                                 _reactance_to_element(b, freq, "shunt"))
                   if el is not None]
            if net:
                networks.append(net)

    # Topology B: series element at the load, then shunt towards the source.
    # Valid when r_l < r_t.
    if rl < rt:
        for sgn in (+1.0, -1.0):
            x = sgn * math.sqrt(rl * (rt - rl)) - xl
            b = sgn * math.sqrt((rt - rl) / rl) / rt
            net = [el for el in (_reactance_to_element(b, freq, "shunt"),
                                 _reactance_to_element(x, freq, "series"))
                   if el is not None]
            if net:
                networks.append(net)

    verified = []
    for net in networks:
        z_in = evaluate_lumped_network(net, zl, freq)
        gamma = abs((z_in - rt) / (z_in + rt))
        if gamma < 1e-6:
            verified.append({"elements": net, "gamma": gamma})
    if not verified:
        return {"networks": [], "reason": "no two-element solution for this load"}
    return {"networks": verified, "reason": None}


# ---------------------------------------------------------------------------
# Single-stub tuner
# ---------------------------------------------------------------------------

def _line_input_impedance(zl: complex, z0: float, bl: float) -> complex:
    t = math.tan(bl)
    if abs(t) > 1e14:
        return z0 * z0 / zl
    return z0 * (zl + 1j * z0 * t) / (z0 + 1j * zl * t)


def single_stub_tuner(z_load: complex, z0: float, stub_kind: str = "shorted"):
    """Shunt single-stub tuner solutions (up to two), ordered by line length d.

    Each solution is verified by evaluating the full circuit at the design
    frequency: |Gamma| < min(max(1e-9, 1e3 eps max(1, |Z_L|/z0, z0/|Z_L|)),
    1e-6), or DesignInfeasibleError.
    """
    if stub_kind not in ("shorted", "open"):
        raise DomainError("stub_kind must be 'shorted' or 'open'")
    zl = complex(z_load)
    if zl.real <= 0:
        raise DomainError("load needs Re > 0")
    if abs(zl - z0) / z0 < 1e-12:
        return {"solutions": [], "reason": "load already matched (d = l = 0)"}

    rl, xl = zl.real, zl.imag
    if abs(rl - z0) < 1e-12 * z0:
        ts = [-xl / (2.0 * z0)]
    else:
        disc = rl * ((z0 - rl) ** 2 + xl * xl) / z0
        root = math.sqrt(disc)
        ts = [(xl + root) / (rl - z0), (xl - root) / (rl - z0)]

    solutions = []
    for t in ts:
        d = math.atan(t) / TWO_PI
        if d < 0:
            d += 0.5
        zt = _line_input_impedance(zl, z0, math.atan(t))
        bt = (1.0 / zt).imag
        if stub_kind == "shorted":
            # Y_stub = -j cot(beta l)/z0 must equal -j b_t
            bl = math.atan2(1.0, bt * z0)
        else:
            # Y_stub = +j tan(beta l)/z0 must equal -j b_t
            bl = math.atan(-bt * z0)
        if bl <= 0:
            bl += math.pi
        l = bl / TWO_PI
        # evaluate: stub admittance in parallel with the transformed load
        y = 1.0 / _line_input_impedance(zl, z0, TWO_PI * d)
        if stub_kind == "shorted":
            y_stub = -1j / (z0 * math.tan(bl))
        else:
            y_stub = 1j * math.tan(bl) / z0
        z_in = 1.0 / (y + y_stub)
        gamma = abs((z_in - z0) / (z_in + z0))
        solutions.append((StubSolution(d=d, l=l, stub_kind=stub_kind), gamma))
    solutions.sort(key=lambda sg: sg[0].d)
    # rounding leaves |Gamma| of order eps times the load's mismatch to z0
    # (|Gamma| = 4.6e-9 at 1e9 ohm on 50 ohm); 1e-9 is the floor, and a load
    # so mismatched that rounding alone exceeds 1e-6 is not matched
    mismatch = max(1.0, abs(zl) / z0, z0 / abs(zl))
    tol = min(max(1e-9, 1e3 * sys.float_info.epsilon * mismatch), 1e-6)
    for _, gamma in solutions:
        if not gamma < tol:
            raise DesignInfeasibleError(f"stub synthesis self-check failed: |Gamma| = "
                                        f"{gamma:g}, tolerance {tol:g}")
    return {"solutions": [s for s, _ in solutions], "reason": None}


# ---------------------------------------------------------------------------
# Distributed-element networks and response evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributedElement:
    """One ideal transmission-line element of a filter network.

    kinds: 'unit_element', 'shunt_open_stub', 'shunt_shorted_stub',
    'series_open_stub', 'series_shorted_stub'. ``theta0`` is the electrical
    length in radians at the reference frequency ``f0``.
    """

    kind: str
    z: float
    theta0: float
    f0: float

    def theta(self, freq: float | np.ndarray) -> float | np.ndarray:
        return self.theta0 * freq / self.f0


@dataclass(frozen=True)
class DistributedNetwork:
    elements: tuple
    z0: float
    meta: dict = field(default_factory=dict)


def _element_abcd(el: DistributedElement, freqs: np.ndarray) -> np.ndarray:
    """(F, 2, 2) ABCD stack of one element; a stub at its pole is 1e30."""
    th = el.theta(freqs)
    if el.kind == "unit_element":
        return _line_abcd(el.z, th)
    ct, st = np.cos(th), np.sin(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        if el.kind == "series_open_stub":
            return _two_port(1.0, np.where(st != 0, -1j * (el.z * ct / st), 1e30), 0.0, 1.0)
        if el.kind == "series_shorted_stub":
            return _two_port(1.0, np.where(ct != 0, 1j * (el.z * st / ct), 1e30), 0.0, 1.0)
        if el.kind == "shunt_open_stub":
            return _two_port(1.0, 0.0, np.where(ct != 0, 1j * (st / (el.z * ct)), 1e30), 1.0)
        if el.kind == "shunt_shorted_stub":
            return _two_port(1.0, 0.0, np.where(st != 0, -1j * (ct / (el.z * st)), 1e30), 1.0)
    raise DomainError(f"unknown element kind {el.kind!r}")


def filter_response(network: DistributedNetwork, freqs) -> dict:
    """{s11, s21} of an ideal-element network between z0 terminations."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    m = np.broadcast_to(np.eye(2, dtype=complex), (len(freqs), 2, 2))
    for el in network.elements:
        m = m @ _element_abcd(el, freqs)
    s = _abcd_to_s(m, network.z0)
    return {"s11": s[:, 0, 0], "s21": s[:, 1, 0], "freqs": freqs}


# ---------------------------------------------------------------------------
# Richards / Kuroda low-pass
# ---------------------------------------------------------------------------

def kuroda_shift(z_unit: float, z_series_stub: float) -> tuple:
    """Kuroda identity: [UE(Zu), series shorted stub(Zs)] equals
    [shunt open stub(n^2 Zu), UE(n^2 Zs)] with n^2 = 1 + Zu/Zs."""
    n2 = 1.0 + z_unit / z_series_stub
    return n2 * z_unit, n2 * z_series_stub, n2


def richard_kuroda_lowpass(prototype: LowpassPrototype, f_cutoff: float,
                           z0: float) -> DistributedNetwork:
    """Stub-only low-pass filter via Richards' transformation and Kuroda's
    identities; all elements are lambda/8 long at f_cutoff.

    Supports odd order (series stubs at both ends can then be shifted inward
    with one Kuroda pass each); currently orders 1 and 3.
    """
    n = prototype.order
    if n % 2 == 0:
        raise DesignInfeasibleError("even order leaves an unconvertible series stub; "
                                    "use an odd order")
    if n not in (1, 3):
        raise DesignInfeasibleError("orders 1 and 3 are supported")
    g = prototype.g
    theta0 = math.pi / 4.0  # lambda/8 at f_cutoff

    def ue(z):
        return DistributedElement("unit_element", z * z0, theta0, f_cutoff)

    def shunt(z):
        return DistributedElement("shunt_open_stub", z * z0, theta0, f_cutoff)

    if n == 1:
        # single series stub g1 between unit elements; one Kuroda pass
        za, zb, n2 = kuroda_shift(1.0, g[1])
        elements = (shunt(za), ue(zb))
        meta = {"kuroda_n2": [n2]}
    else:
        # series stub g1 | shunt stub 1/g2 | series stub g3, plus edge UEs
        za1, zb1, n2a = kuroda_shift(1.0, g[1])
        za2, zb2, n2b = kuroda_shift(1.0, g[3])
        elements = (
            shunt(za1), ue(zb1),
            shunt(1.0 / g[2]),
            ue(zb2), shunt(za2),
        )
        meta = {"kuroda_n2": [n2a, n2b]}
    return DistributedNetwork(elements=elements, z0=z0, meta=meta)


# ---------------------------------------------------------------------------
# Coupled-line Chebyshev bandpass
# ---------------------------------------------------------------------------

def coupled_line_bandpass_design(prototype: LowpassPrototype, f0: float,
                                 f1: float, z0: float) -> dict:
    """Coupled-line bandpass design: even/odd impedances of the N+1 coupled
    pairs plus the equivalent series-stub / quarter-wave-line circuit.

    f0 is the center frequency, f1 the lower passband edge.
    """
    if not (0 < f1 < f0):
        raise DomainError("need 0 < f1 < f0")
    g = prototype.g
    n = prototype.order
    th1 = 0.5 * math.pi * f1 / f0
    q = 1.0 / math.tan(th1)
    k1 = z0 / math.sqrt(g[0] * g[1])
    denom = q + 1.0 / (2.0 * (k1 / z0) ** 2)
    p = math.sqrt(q * (q * q + 1.0) / denom)
    s = z0 * (p * math.sin(th1) / (k1 / z0)) ** 2
    if s <= 0 or p * math.sin(th1) >= 1.0:
        raise DesignInfeasibleError("prototype/bandwidth combination gives a "
                                    "non-physical coupled pair")

    ze = np.zeros(n + 2)
    zo = np.zeros(n + 2)
    ze[1] = ze[n + 1] = z0 * (1.0 + p * math.sin(th1))
    zo[1] = zo[n + 1] = z0 * (1.0 - p * math.sin(th1))
    for k in range(2, n + 1):
        kk = z0 / math.sqrt(g[k - 1] * g[k])
        nk = math.sqrt((kk / z0) ** 2 + (math.tan(th1) / 2.0) ** 2)
        ze[k] = ze[n + 2 - k] = s * (nk + kk / z0)
        zo[k] = zo[n + 2 - k] = s * (nk - kk / z0)
    pairs = [CoupledPair(z_even=ze[k], z_odd=zo[k]) for k in range(1, n + 2)]

    # Equivalent circuit: series open stubs separated by quarter-wave lines.
    # Interior stub k merges the odd-mode stubs of the adjacent pairs; the end
    # stubs are the odd-mode impedances of the first/last pair.
    line_z = [(pr.z_even - pr.z_odd) / 2.0 for pr in pairs]
    stub_z = [pairs[0].z_odd]
    stub_z += [pairs[k - 1].z_odd + pairs[k].z_odd for k in range(1, n + 1)]
    stub_z += [pairs[-1].z_odd]

    theta0 = math.pi / 2.0  # quarter wave at f0
    elements = []
    for k in range(n + 1):
        elements.append(DistributedElement("series_open_stub", stub_z[k], theta0, f0))
        elements.append(DistributedElement("unit_element", line_z[k], theta0, f0))
    elements.append(DistributedElement("series_open_stub", stub_z[-1], theta0, f0))
    network = DistributedNetwork(elements=tuple(elements), z0=z0,
                                 meta={"pairs": pairs})
    return {"pairs": pairs, "stub_z": stub_z, "line_z": line_z, "network": network}
