"""Method-of-Moments solver for a center-fed cylindrical wire dipole:
Pocklington kernel with piece-wise constant sub-domain bases, delta-gap
excitation, Toeplitz impedance-matrix fill, solve, input impedance and far
fields from the solved current.

Expansion currents live on the wire surface (rho = a); testing happens on the
axis (rho = 0), which keeps the kernel regular without self-term extraction.
This reduced kernel holds while the segment length delta is at least the
radius a; for delta < a the discrete equation has no limit and the currents
oscillate, so WireProblem warns there.

Testing and source segments share the length delta, and the convolution of
two boxes of width delta is a triangle, so each Toeplitz entry is exactly one
integral with a triangle weight (collocation: a box of half the width):

    Z_k = delta^2 Int_{-1}^{1} K((k + t) delta) (1 - |t|) dt.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import (C0, ETA0, DomainError, ConvergenceError, QuadratureSpec,
                       integrate_gk15, solve_complex_dense)
from .numerics import integrate_adaptive  # noqa: F401  (bench/harness.py wraps it by this name)
from .radiator import FarFieldSample


@dataclass(frozen=True)
class WireProblem:
    half_length_l: float
    radius_a: float
    freq: float
    n_segments: int
    feed_segment_index: int | None = None  # default: center segment
    v_gap: complex = 1.0 + 0j
    collocation: bool = False  # True: 1-point testing instead of sub-domain integration

    def __post_init__(self):
        for name in ("freq", "half_length_l", "radius_a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value}")
        if self.n_segments < 3 or self.n_segments % 2 == 0:
            raise DomainError("n_segments must be odd and >= 3 so a segment "
                              "center sits at the feed (z = 0)")
        lam = C0 / self.freq
        if 2 * self.radius_a > lam / 100.0:
            warnings.warn("thin-wire kernel assumes diameter < lambda0/100",
                          stacklevel=2)
        delta = 2 * self.half_length_l / self.n_segments
        if delta < self.radius_a:
            warnings.warn(f"segment length {delta:.4g} is below the wire radius "
                          f"{self.radius_a:.4g}: the reduced kernel breaks down "
                          "and the currents oscillate", stacklevel=2)

    @property
    def wavelength(self) -> float:
        return C0 / self.freq

    @property
    def k0(self) -> float:
        return 2 * math.pi / self.wavelength

    @property
    def feed_index(self) -> int:
        return self.n_segments // 2 if self.feed_segment_index is None \
            else self.feed_segment_index


@dataclass(frozen=True)
class WireMesh:
    boundaries: np.ndarray
    centers: np.ndarray

    @property
    def delta(self) -> float:
        return float(self.boundaries[1] - self.boundaries[0])


@dataclass(frozen=True)
class MoMSolution:
    problem: WireProblem
    currents: np.ndarray       # mode coefficients I_n [A]
    z_in: complex              # V_gap / I_feed [ohm]
    segment_centers: np.ndarray


def segment_wire(problem: WireProblem) -> WireMesh:
    """Uniform mesh of n_segments over [-l, l]."""
    bounds = np.linspace(-problem.half_length_l, problem.half_length_l,
                         problem.n_segments + 1)
    centers = 0.5 * (bounds[:-1] + bounds[1:])
    return WireMesh(boundaries=bounds, centers=centers)


def _kernel(u: np.ndarray, a: float, k0: float) -> np.ndarray:
    """Pocklington integrand: -j eta/(4 pi k0) e^{-jk0R}
    [(1+jk0R)(2R^2-3a^2) + (k0 a R)^2] / R^5 with R = sqrt(a^2 + u^2).

    The double z-derivative of the Green function has been carried out
    analytically; u = z - z0.
    """
    r = np.sqrt(a * a + u * u)
    return (-1j * ETA0 / (4 * math.pi * k0)) * np.exp(-1j * k0 * r) * \
        ((1 + 1j * k0 * r) * (2 * r * r - 3 * a * a) + (k0 * a * r) ** 2) / r**5


def fill_impedance_matrix(problem: WireProblem, mesh: WireMesh,
                          spec: QuadratureSpec | None = None) -> np.ndarray:
    """Symmetric Toeplitz MoM matrix; only the first row is computed.

    Testing and source segments share the length delta, and the convolution
    of the two boxes is a triangle, so the double integral of each entry is
    exactly one integral over the offset t (in segments), u = (k + t) delta:

        Z_k = delta^2 Int_{-1}^{1} K((k + t) delta) (1 - |t|) dt,  k = |m - n|.

    Collocation (testing at the segment center) is the same integral over
    t in [-1/2, 1/2] with weight 1. One batched adaptive GK15 rule integrates
    all offsets at once: the peaked offsets {0, 1} apart from the smooth
    2..N-1, each interval split at t = 0. The tolerances of ``spec`` apply to
    the entries Z_k.

    The reduced kernel holds for delta >= a; below that the currents
    oscillate, and WireProblem warns.
    """
    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=2000)
    n = problem.n_segments
    d = mesh.delta
    a, k0 = problem.radius_a, problem.k0
    half = 0.5 if problem.collocation else 1.0
    row = np.empty(n, dtype=complex)
    for offsets in (np.arange(2), np.arange(2, n)):  # n >= 3
        def integrand(t, offsets=offsets):
            w = 1.0 if problem.collocation else (1.0 - np.abs(t))[:, None]
            return (d * d) * w * _kernel(d * (offsets + t[:, None]), a, k0)

        try:
            row[offsets], _ = integrate_gk15(integrand, (-half, 0.0, half), spec)
        except ConvergenceError as exc:
            worst = int(np.argmax(exc.error))
            off = int(offsets[worst])
            raise ConvergenceError(
                f"matrix fill failed to converge at offset {off} "
                f"(entries (m, n) with |m-n| = {off})",
                estimate=exc.estimate[worst], error=exc.error[worst]) from exc
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return row[idx]


def excitation_vector(problem: WireProblem, mesh: WireMesh) -> np.ndarray:
    """Delta-gap excitation: a single nonzero entry v_gap at the feed segment."""
    n = problem.n_segments
    i = problem.feed_index
    if not (0 <= i < n):
        raise DomainError(f"feed index {i} outside 0..{n - 1}")
    v = np.zeros(n, dtype=complex)
    v[i] = problem.v_gap
    return v


def solve_currents(problem: WireProblem, spec: QuadratureSpec | None = None) -> MoMSolution:
    """Assemble and solve [Z][I] + [V] = 0; input impedance is V_gap/I_feed."""
    mesh = segment_wire(problem)
    z = fill_impedance_matrix(problem, mesh, spec)
    v = excitation_vector(problem, mesh)
    currents = solve_complex_dense(z, -v)
    i_feed = currents[problem.feed_index]
    return MoMSolution(problem=problem, currents=currents,
                       z_in=problem.v_gap / i_feed,
                       segment_centers=mesh.centers)


def mom_far_field(solution: MoMSolution, theta) -> FarFieldSample:
    """E_theta angular factor radiated by the solved PWC current (z-directed).

    Each segment contributes delta * sinc(k0 delta cos(theta)/2)
    * exp(j k0 z_n cos(theta)).
    """
    prob = solution.problem
    k0 = prob.k0
    theta = np.asarray(theta, dtype=float)
    mesh_delta = solution.segment_centers[1] - solution.segment_centers[0] \
        if len(solution.segment_centers) > 1 else 2 * prob.half_length_l
    ct = np.cos(theta)
    arg = 0.5 * k0 * mesh_delta * ct
    seg = mesh_delta * np.sinc(arg / math.pi)
    phases = np.exp(1j * k0 * np.multiply.outer(ct, solution.segment_centers))
    total = phases @ solution.currents * seg
    e_theta = 1j * k0 * ETA0 / (4 * math.pi) * np.sin(theta) * total
    return FarFieldSample(e_theta=e_theta, e_phi=np.zeros_like(np.asarray(e_theta)))


def radiated_power(solution: MoMSolution, n_theta: int = 721) -> float:
    """Total power radiated by the solved current, from the far field."""
    th = np.linspace(0.0, math.pi, n_theta)
    e = mom_far_field(solution, th).e_theta
    integrand = np.abs(e) ** 2 * np.sin(th)
    return 2 * math.pi * np.trapezoid(integrand, th) / (2 * ETA0)


def input_power(solution: MoMSolution) -> float:
    """Power accepted at the delta gap, Re(V I*)/2."""
    i_feed = solution.currents[solution.problem.feed_index]
    return 0.5 * (solution.problem.v_gap * np.conj(i_feed)).real


def convergence_report(problem: WireProblem, n_sequence) -> list:
    """z_in versus segment count for an ascending odd-N sequence."""
    ns = list(n_sequence)
    if any(n % 2 == 0 for n in ns) or ns != sorted(ns):
        raise DomainError("n_sequence must be ascending odd integers")
    rows = []
    prev = None
    for n in ns:
        p = WireProblem(half_length_l=problem.half_length_l,
                        radius_a=problem.radius_a, freq=problem.freq,
                        n_segments=n, v_gap=problem.v_gap,
                        collocation=problem.collocation)
        sol = solve_currents(p)
        delta = None if prev is None else abs(sol.z_in - prev)
        rows.append({"n_segments": n, "z_in": sol.z_in, "delta_z_in": delta})
        prev = sol.z_in
    return rows
