"""Phased-array analysis: array factors (linear/planar/arbitrary), steering,
tapers, Schelkunov zero synthesis, grating lobes, directivity and taper
efficiency, phase/amplitude error statistics (closed form and Monte Carlo),
array SNR, active reflection, sparse layouts, calibration, focal-plane-array
fields and beam squint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import C0, KB, DomainError, bessel_j, db10

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MC_BLOCK = 256   # Monte Carlo trials per stacked matrix product


class InfeasibleError(ValueError):
    """Requested synthesis target cannot be met."""


@dataclass(frozen=True)
class ArrayLayout:
    """Element positions in meters; linear layouts have y = 0."""

    positions: np.ndarray     # (N, 2)
    kind: str = "custom"      # linear | rect_grid | sparse_regular | sunflower | custom
    dx: float | None = None   # grid pitch when regular
    dy: float | None = None
    shape: tuple | None = None  # (K, L) for rect grids

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "positions", pos)
        if len(np.unique(pos, axis=0)) != len(pos):
            raise DomainError("element positions must be distinct")

    @property
    def n_elements(self) -> int:
        return len(self.positions)


def linear_layout(k: int, dx: float) -> ArrayLayout:
    """K elements along x with pitch dx, first element at the origin."""
    if k < 1 or dx <= 0:
        raise DomainError("need k >= 1 and dx > 0")
    pos = np.zeros((k, 2))
    pos[:, 0] = np.arange(k) * dx
    return ArrayLayout(positions=pos, kind="linear", dx=dx, shape=(k, 1))


def rect_grid_layout(k: int, l: int, dx: float, dy: float) -> ArrayLayout:
    """K x L rectangular grid; element j = (l-1)K + k."""
    if k < 1 or l < 1 or dx <= 0 or dy <= 0:
        raise DomainError("need k, l >= 1 and positive pitches")
    xi, yi = np.meshgrid(np.arange(k), np.arange(l), indexing="xy")
    pos = np.column_stack([(xi * dx).ravel(), (yi * dy).ravel()])
    return ArrayLayout(positions=pos, kind="rect_grid", dx=dx, dy=dy, shape=(k, l))


@dataclass(frozen=True)
class ExcitationSet:
    """Complex element weights a_k = |a_k| exp(-j psi_k)."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        object.__setattr__(self, "a", a)
        if a.ndim != 1 or not np.any(np.abs(a) > 0):
            raise DomainError("excitation must be a 1-D, not-all-zero vector")

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.a)

    @property
    def phases(self) -> np.ndarray:
        return -np.angle(self.a)


@dataclass(frozen=True)
class ErrorModel:
    """Random per-element errors: phase variance [rad^2], fractional amplitude
    variance, or a P-bit phase quantizer."""

    phase_var: float = 0.0
    amp_var: float = 0.0
    phase_bits: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.phase_var < 0 or self.amp_var < 0:
            raise DomainError("variances must be >= 0")
        if self.phase_bits is not None and self.phase_bits < 1:
            raise DomainError("phase_bits must be >= 1")

    def effective_phase_var(self) -> float:
        if self.phase_bits is not None:
            return math.pi**2 / (3.0 * 2.0 ** (2 * self.phase_bits))
        return self.phase_var


@dataclass(frozen=True)
class CouplingModel:
    """Mutual-coupling S matrix (element ports) and isolated element pattern."""

    s_matrix: np.ndarray | None = None
    element_pattern: object = None   # callable (u, v) -> complex amplitude

    def __post_init__(self):
        if self.s_matrix is not None:
            s = np.asarray(self.s_matrix, dtype=complex)
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise DomainError("coupling S matrix must be square")
            object.__setattr__(self, "s_matrix", s)


# ---------------------------------------------------------------------------
# Steering and array factors
# ---------------------------------------------------------------------------

def steering_phases(layout: ArrayLayout, u0: float, v0: float, freq: float,
                    amplitudes=None) -> ExcitationSet:
    """Phase-steer the beam to direction cosines (u0, v0)."""
    if u0 * u0 + v0 * v0 > 1.0 + 1e-12:
        raise DomainError("(u0, v0) must lie inside the unit disk")
    k0 = 2 * math.pi * freq / C0
    psi = k0 * (layout.positions[:, 0] * u0 + layout.positions[:, 1] * v0)
    amp = np.ones(layout.n_elements) if amplitudes is None else \
        np.asarray(amplitudes, dtype=float)
    return ExcitationSet(a=amp * np.exp(-1j * psi))


def _grid_axes(layout: ArrayLayout):
    """Axes (x, y) of a rect_grid layout whose positions are exactly the
    product grid, element j = l K + k at (x_k, y_l); None otherwise."""
    if layout.kind != "rect_grid" or layout.shape is None or len(layout.shape) != 2:
        return None
    k, l = layout.shape
    pos = layout.positions
    if k * l != len(pos):
        return None
    x, y = pos[:k, 0], pos[::k, 1]
    if not (np.array_equal(pos[:, 0], np.tile(x, l)) and
            np.array_equal(pos[:, 1], np.repeat(y, k))):
        return None
    return x, y


def array_factor(layout: ArrayLayout, excitation: ExcitationSet, u, v, freq: float,
                 coupling: CouplingModel | None = None, scan_uv=(0.0, 0.0)):
    """Array factor S(u, v) = sum_k a_k exp(j k0 (x_k u + y_k v)).

    With a coupling model, each element is scaled by the isolated element
    pattern and its scan-loss factor sqrt(1 - |R_act|^2).
    """
    k0 = 2 * math.pi * freq / C0
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    a = excitation.a
    if len(a) != layout.n_elements:
        raise DomainError("excitation length must match the element count")
    weights = a
    if coupling is not None and coupling.s_matrix is not None:
        act = active_reflection(coupling, excitation, scan_uv=scan_uv)
        weights = a * np.sqrt(np.maximum(0.0, 1.0 - np.abs(act["r_act"]) ** 2))
    axes = _grid_axes(layout)
    if axes is None:
        phase = np.exp(1j * k0 * (np.multiply.outer(u, layout.positions[:, 0]) +
                                  np.multiply.outer(v, layout.positions[:, 1])))
        s = phase @ weights
    else:
        # product grid: S = sum_l e^{j k0 y_l v} sum_k a_kl e^{j k0 x_k u},
        # P (K + L) exponentials instead of P K L
        x, y = axes
        u, v = np.broadcast_arrays(u, v)
        ex = np.exp(1j * k0 * np.multiply.outer(u, x))
        ey = np.exp(1j * k0 * np.multiply.outer(v, y))
        s = np.sum((ex @ weights.reshape(len(y), len(x)).T) * ey, axis=-1)
    if coupling is not None and coupling.element_pattern is not None:
        s = s * coupling.element_pattern(u, v)
    return s if s.shape else complex(s)


def uniform_linear_af_closed_form(k: int, dx: float, u, u0: float, freq: float):
    """|S(u)| of a uniform linear array, sin(K x)/sin(x) closed form."""
    k0 = 2 * math.pi * freq / C0
    x = 0.5 * k0 * dx * (np.asarray(u, dtype=float) - u0)
    den = np.sin(x)
    pole = np.abs(den) < 1e-12
    safe = np.where(pole, 1.0, den)
    out = np.where(pole, float(k) * np.cos(k * x) / np.cos(x), np.sin(k * x) / safe)
    return np.abs(out)


def pattern_grid(layout: ArrayLayout, excitation: ExcitationSet, freq: float,
                 n_u: int = 512, use_fft: bool = False, pad: int = 8) -> dict:
    """Sampled power pattern on a direction-cosine grid.

    The FFT path needs a regular grid layout; it returns the DFT samples of
    the aperture (zero-padded by ``pad``) with their exact u (and v) values.
    """
    lam = C0 / freq
    if use_fft:
        if layout.kind not in ("linear", "rect_grid") or layout.dx is None:
            warnings.warn("FFT path needs a uniform grid layout; "
                          "falling back to direct summation", stacklevel=2)
            use_fft = False
    if use_fft:
        kx, ly = layout.shape
        a = excitation.a.reshape(ly, kx)
        nx = pad * kx
        ny = pad * ly if ly > 1 else 1
        spec = nx * ny * np.fft.ifft2(a, s=(ny, nx))
        spec = np.fft.fftshift(spec)
        u = np.fft.fftshift(np.fft.fftfreq(nx)) * lam / layout.dx
        if ly > 1:
            v = np.fft.fftshift(np.fft.fftfreq(ny)) * lam / layout.dy
            return {"u": u, "v": v, "s": spec, "power": np.abs(spec) ** 2}
        s = spec[0]
        return {"u": u, "s": s, "power": np.abs(s) ** 2}
    u = np.linspace(-1.0, 1.0, n_u)
    s = array_factor(layout, excitation, u, np.zeros_like(u), freq)
    return {"u": u, "s": s, "power": np.abs(s) ** 2}


# ---------------------------------------------------------------------------
# Tapers and synthesis
# ---------------------------------------------------------------------------

def taper_generate(kind: str, count: int, *, m: int = 1, h: float = 0.0,
                   sll_db: float = 30.0, nbar: int = 8, dx: float = 1.0) -> np.ndarray:
    """Amplitude taper |a_k| (normalized to max 1, symmetric).

    kinds: 'uniform', 'cosine_pedestal' (cos^m on a pedestal h),
    'taylor' (n-bar line source) and 'chebyshev' (Dolph SLL design).
    """
    if count < 2:
        raise DomainError("need at least 2 elements")
    if kind == "uniform":
        return np.ones(count)
    if kind == "cosine_pedestal":
        if not dx > 0:
            raise DomainError("cosine taper needs an element pitch dx > 0")
        xk = (np.arange(count) - (count - 1) / 2.0) * dx
        amp = h + (1.0 - h) * np.cos(math.pi * xk / ((count - 1) * dx)) ** m
        return amp / amp.max()
    if kind in ("taylor", "chebyshev") and sll_db < 13.26:
        raise InfeasibleError("sidelobe targets below the uniform level of "
                              "13.26 dB are not achievable")
    if kind == "taylor":
        return _taylor_taper(count, sll_db, nbar)
    if kind == "chebyshev":
        return _chebyshev_taper(count, sll_db)
    raise DomainError(f"unknown taper kind {kind!r}")


def _taylor_taper(count: int, sll_db: float, nbar: int) -> np.ndarray:
    r = 10.0 ** (sll_db / 20.0)
    a = math.acosh(r) / math.pi
    sigma2 = nbar**2 / (a**2 + (nbar - 0.5) ** 2)
    coeffs = np.zeros(nbar)
    coeffs[0] = 1.0
    for mm in range(1, nbar):
        num = 1.0
        for n in range(1, nbar):
            num *= 1.0 - mm**2 / (sigma2 * (a**2 + (n - 0.5) ** 2))
        den = 1.0
        for n in range(1, nbar):
            if n != mm:
                den *= 1.0 - (mm / n) ** 2
        coeffs[mm] = ((-1) ** (mm + 1) / 2.0) * num / den
    p = 2 * math.pi * (np.arange(count) - (count - 1) / 2.0) / count
    amp = np.ones(count) * coeffs[0]
    for mm in range(1, nbar):
        amp += 2.0 * coeffs[mm] * np.cos(mm * p)
    return amp / amp.max()


def _chebyshev_taper(count: int, sll_db: float) -> np.ndarray:
    r = 10.0 ** (sll_db / 20.0)
    n = count - 1
    x0 = math.cosh(math.acosh(r) / n)
    mm = np.arange(1, count)
    psi = 2.0 * np.arccos(np.cos((2 * mm - 1) * math.pi / (2 * n)) / x0)
    zeros = np.exp(1j * psi)
    coeff = np.real(np.poly(zeros))[::-1]
    amp = np.abs(coeff)
    return amp / amp.max()


def schelkunov_zeros(excitation: ExcitationSet) -> np.ndarray:
    """Zeros of the Schelkunov polynomial S(z) = a_1 + a_2 z + ... + a_K z^{K-1}."""
    a = excitation.a
    if abs(a[-1]) == 0:
        raise DomainError("leading coefficient a_K must be nonzero")
    roots = np.roots(a[::-1])
    if not np.all(np.isfinite(roots)):
        raise RuntimeError("polynomial root finding did not converge")
    return roots


def schelkunov_coefficients(zeros, scale: complex = 1.0) -> ExcitationSet:
    """Excitation from polynomial zeros (up to an overall complex scale)."""
    coeff = np.poly(np.asarray(zeros, dtype=complex))
    return ExcitationSet(a=scale * coeff[::-1])


def schelkunov_z(theta: float, dx: float, freq: float) -> complex:
    """The Schelkunov variable z = exp(j k0 d sin(theta))."""
    k0 = 2 * math.pi * freq / C0
    return np.exp(1j * k0 * dx * math.sin(theta))


# ---------------------------------------------------------------------------
# Grating lobes
# ---------------------------------------------------------------------------

def grating_lobes(dx_wl: float, u0: float, dy_wl: float | None = None,
                  v0: float = 0.0, include_main: bool = False) -> dict:
    """Grating-lobe positions of a regular grid inside the closed unit disk.
    ``max_spacing_wl`` gives the spacing bound that keeps them out."""
    if dx_wl <= 0:
        raise DomainError("spacing must be > 0")
    lobes = []
    iu_max = int(math.ceil((1.0 + abs(u0)) * dx_wl)) + 1
    ivs = [0] if dy_wl is None else range(-int(math.ceil((1 + abs(v0)) * dy_wl)) - 1,
                                          int(math.ceil((1 + abs(v0)) * dy_wl)) + 2)
    for i in range(-iu_max, iu_max + 1):
        for jj in ivs:
            if i == 0 and jj == 0 and not include_main:
                continue
            um = u0 + i / dx_wl
            vm = v0 + (jj / dy_wl if dy_wl else 0.0)
            if um * um + vm * vm <= 1.0 + 1e-12:
                lobes.append((um, vm))
    return {"lobes": lobes}


def max_spacing_wl(theta_scan_max_rad: float) -> float:
    """Largest grating-lobe-free element spacing in wavelengths."""
    return 1.0 / (1.0 + abs(math.sin(theta_scan_max_rad)))


# ---------------------------------------------------------------------------
# Directivity, errors, noise
# ---------------------------------------------------------------------------

def directivity_taper_efficiency(excitation: ExcitationSet, dx_wl: float = 0.5) -> dict:
    """Broadside directivity of a linear array (sinc double-sum closed form)
    and the taper efficiency (sum|a|)^2 / (K sum|a|^2)."""
    amp = excitation.amplitudes
    k = len(amp)
    ksum = amp.sum() ** 2
    idx = np.arange(k)
    arg = 2 * math.pi * dx_wl * np.subtract.outer(idx, idx)
    kern = np.sinc(arg / math.pi)
    denom = amp @ kern @ amp
    d = ksum / denom
    eta = ksum / (k * (amp**2).sum())
    return {"directivity": d, "directivity_db": db10(d), "eta_tap": eta}


def error_statistics(excitation: ExcitationSet, model: ErrorModel,
                     dx_wl: float = 0.5, n_trials: int = 0,
                     mean_pattern_points: int | None = 201) -> dict:
    """Average-null sidelobe level and directivity loss from random phase and
    amplitude errors; closed forms plus an optional Monte Carlo check.

    Monte Carlo trials draw per-trial seeds from (seed, trial index), so the
    draws are independent of the trial blocking: each block of 256 trials
    shares one matrix product per pattern, and the per-trial values are
    summed in trial order.
    """
    if n_trials < 0:
        raise DomainError(f"n_trials must be >= 0, got {n_trials}")
    d2 = model.effective_phase_var()
    a2 = model.amp_var
    if d2 + a2 >= 0.1:
        warnings.warn("closed forms assume a small-error regime "
                      "(variance < 0.1)", stacklevel=2)
    amp = excitation.amplitudes
    k = len(amp)
    d0 = amp.sum() ** 2 / (amp**2).sum()   # half-wave-grid directivity
    null_ratio = (d2 + a2) / (d0 * (1.0 - d2 - a2))
    closed = {
        "avg_null_sll": null_ratio,
        "avg_null_sll_db": db10(null_ratio),
        "directivity_ratio": 1.0 / (1.0 + d2 + a2),
        "directivity_ratio_db": db10(1.0 / (1.0 + d2 + a2)),
        "phase_var": d2,
    }
    out = {"closed_form": closed}
    if n_trials > 0:
        out["monte_carlo"] = _error_monte_carlo(excitation, model, dx_wl,
                                                n_trials, mean_pattern_points)
    return out


def _error_monte_carlo(excitation: ExcitationSet, model: ErrorModel,
                       dx_wl: float, n_trials: int,
                       mean_pattern_points: int | None) -> dict:
    amp = excitation.a
    k = len(amp)
    if k < 2:
        raise DomainError(f"the Monte Carlo null level needs K >= 2 elements, got {k}")
    x = np.arange(k) * dx_wl               # element positions in wavelengths
    # error-free nulls of the uniform broadside pattern: u = m / (K dx)
    m = np.arange(1, min(k, 8))
    u_nulls = m / (k * dx_wl)
    phase_nulls = np.exp(2j * math.pi * np.multiply.outer(x, u_nulls))
    d2 = model.effective_phase_var()
    u_grid = None
    phase_grid = None
    mean_pattern = None
    if mean_pattern_points:
        u_grid = np.linspace(-1, 1, mean_pattern_points)
        phase_grid = np.exp(2j * math.pi * np.multiply.outer(x, u_grid))
        mean_pattern = np.zeros_like(u_grid)
    mean_null = 0.0
    mean_peak = 0.0
    for start in range(0, n_trials, _MC_BLOCK):
        a_err = np.empty((min(_MC_BLOCK, n_trials - start), k), dtype=complex)
        for row, trial in enumerate(range(start, start + len(a_err))):
            rng = np.random.default_rng([model.seed, trial])
            if model.phase_bits is not None:
                step = 2 * math.pi / 2**model.phase_bits
                dphi = rng.uniform(-0.5 * step, 0.5 * step, k)
            else:
                dphi = rng.normal(0.0, math.sqrt(d2), k) if d2 > 0 else np.zeros(k)
            damp = 1.0 + (rng.normal(0.0, math.sqrt(model.amp_var), k)
                          if model.amp_var > 0 else 0.0)
            a_err[row] = amp * damp * np.exp(-1j * dphi)
        nulls = np.mean(np.abs(a_err @ phase_nulls) ** 2, axis=1)
        peaks = np.abs(np.sum(a_err, axis=1)) ** 2
        for null, peak in zip(nulls, peaks):
            mean_null += null
            mean_peak += peak
        if mean_pattern is not None:
            for pattern in np.abs(a_err @ phase_grid) ** 2:
                mean_pattern += pattern
    mean_null /= n_trials
    mean_peak /= n_trials
    ratio = mean_null / mean_peak
    out = {"avg_null_sll": ratio, "avg_null_sll_db": db10(ratio),
           "n_trials": n_trials}
    if mean_pattern is not None:
        out["u"] = u_grid
        out["mean_pattern"] = mean_pattern / n_trials
    return out


def array_snr(k_elements: int, g_av: float, nf: float, t_a: float, t0: float,
              bandwidth: float, s_a: float) -> dict:
    """Output SNR of a K-element array with per-element receivers:
    (S/N)out = S_a / (kb T_a B + kb T0 B (F - 1)/K)."""
    if min(k_elements, g_av, nf, t_a, t0, bandwidth, s_a) <= 0:
        raise DomainError("all inputs must be > 0")
    n_ant = KB * t_a * bandwidth
    n_elec = KB * t0 * bandwidth * (nf - 1.0) / k_elements
    snr = s_a / (n_ant + n_elec)
    return {"snr": snr, "snr_db": db10(snr),
            "noise_antenna_w": n_ant, "noise_electronics_w": n_elec}


# ---------------------------------------------------------------------------
# Mutual coupling
# ---------------------------------------------------------------------------

def active_reflection(coupling: CouplingModel, excitation: ExcitationSet,
                      z0: float = 50.0, scan_uv=(0.0, 0.0)) -> dict:
    """Active reflection R_j = (sum_i S_ji a_i)/a_j, scan loss and active
    input impedance per element."""
    if coupling.s_matrix is None:
        raise DomainError("coupling model has no S matrix")
    s = coupling.s_matrix
    a = excitation.a
    if s.shape[0] != len(a):
        raise DomainError("S-matrix size must match the element count")
    b = s @ a
    r = np.full(len(a), np.nan + 0j)
    ok = np.abs(a) > 0
    r[ok] = b[ok] / a[ok]
    scan_loss = 1.0 - np.abs(r) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        z_act = z0 * (1.0 + r) / (1.0 - r)
    return {"r_act": r, "scan_loss": scan_loss,
            "scan_loss_db": db10(np.maximum(scan_loss, 1e-30)),
            "z_in_act": z_act, "undefined": ~ok, "scan_uv": tuple(scan_uv)}


# ---------------------------------------------------------------------------
# Sparse layouts
# ---------------------------------------------------------------------------

def _nearest_neighbor_mean(pos: np.ndarray) -> float:
    """Mean nearest-neighbour distance of points listed by non-decreasing
    radius rho, in O(N) memory.

    Pairs are visited by index offset o = 1, 2, ...; each forms its squared
    distance exactly as an all-pairs scan would, so the per-point minima are
    bit-identical. Since |p_i - p_j| >= |rho_i - rho_j| and rho is sorted,
    once every pair at offset o has a radial gap beyond both its points'
    best distance, no larger offset can improve any minimum. The 1e-12
    margin covers rounding in rho.
    """
    rho = np.hypot(pos[:, 0], pos[:, 1])
    best = np.full(len(pos), np.inf)
    for o in range(1, len(pos)):
        d2 = np.sum((pos[:-o] - pos[o:]) ** 2, axis=-1)
        np.minimum(best[:-o], d2, out=best[:-o])
        np.minimum(best[o:], d2, out=best[o:])
        gap = rho[o:] - rho[:-o]
        if np.all(gap * gap * (1.0 - 1e-12) > np.maximum(best[:-o], best[o:])):
            break
    return float(np.mean(np.sqrt(best)))


def sparse_layout(kind: str, count: int, *, d: float | None = None,
                  avg_spacing: float | None = None) -> dict:
    """Sparse array layouts with the 1/N average-sidelobe prediction.

    'regular': a linear grid with pitch d. 'sunflower': a Vogel spiral scaled
    so the mean nearest-neighbor distance equals avg_spacing. The spiral
    lists its points by increasing radius, and two points are at least
    their radial gap apart, so the nearest-neighbour search stops at the
    first index offset whose radial gaps all exceed the best distances
    found: O(N) memory, and the same minima as an all-pairs search.
    """
    if count < 2:
        raise DomainError("need at least 2 elements")
    if kind == "regular":
        if d is None or d <= 0:
            raise DomainError("regular sparse layout needs pitch d > 0")
        layout = ArrayLayout(positions=np.column_stack(
            [np.arange(count) * d, np.zeros(count)]), kind="sparse_regular",
            dx=d, shape=(count, 1))
    elif kind == "sunflower":
        if avg_spacing is None or avg_spacing <= 0:
            raise DomainError("sunflower layout needs avg_spacing > 0")
        n = np.arange(count)
        rr = np.sqrt(n + 0.5)
        ang = n * GOLDEN_ANGLE
        pos = np.column_stack([rr * np.cos(ang), rr * np.sin(ang)])
        pos *= avg_spacing / _nearest_neighbor_mean(pos)
        layout = ArrayLayout(positions=pos, kind="sunflower")
    else:
        raise DomainError(f"unknown sparse layout kind {kind!r}")
    predicted = 1.0 / count
    out = {"layout": layout, "predicted_avg_sll": predicted,
           "predicted_avg_sll_db": db10(predicted)}
    if count >= 16:
        return out
    warnings.warn("average-SLL prediction assumes a large array (>= 16 "
                  "elements)", stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibration(a_offline, b_offline, b_online) -> dict:
    """Off-line calibration coefficients c_k = a_k/b_k and the reconstructed
    far-field transfers a~_k = b~_k c_k."""
    a = np.asarray(a_offline, dtype=complex)
    b = np.asarray(b_offline, dtype=complex)
    bt = np.asarray(b_online, dtype=complex)
    if a.shape != b.shape or a.shape != bt.shape:
        raise DomainError("calibration vectors must have matching lengths")
    failed = np.abs(b) == 0
    c = np.full(a.shape, np.nan + 0j)
    c[~failed] = a[~failed] / b[~failed]
    return {"c": c, "a_reconstructed": bt * c, "failed": failed}


# ---------------------------------------------------------------------------
# Focal-plane arrays and squint
# ---------------------------------------------------------------------------

def fpa_focal_field(r, freq: float, psi0: float = math.pi / 4):
    """Airy focal-field amplitude 2 J1(k0 r sin psi0)/(k0 r sin psi0)."""
    if np.any(np.asarray(r) < 0):
        raise DomainError("radius must be >= 0")
    k0 = 2 * math.pi * freq / C0
    v = k0 * np.asarray(r, dtype=float) * math.sin(psi0)
    small = np.abs(v) < 1e-9
    safe = np.where(small, 1.0, v)
    out = np.where(small, 1.0, 2.0 * bessel_j(1, v) / safe)
    return float(out) if np.isscalar(r) else out


def fpa_efficiency(r_p: float, freq: float, psi0: float = math.pi / 4) -> float:
    """Fraction of focal-plane power inside radius r_p:
    eta = int_0^{rp} |E|^2 r dr / int_0^inf = 1 - J0(V)^2 - J1(V)^2."""
    if r_p < 0:
        raise DomainError("radius must be >= 0")
    k0 = 2 * math.pi * freq / C0
    v = k0 * r_p * math.sin(psi0)
    return 1.0 - bessel_j(0, v) ** 2 - bessel_j(1, v) ** 2


def beam_squint(u0: float, f0: float, f: float) -> dict:
    """Phase-steered beam direction at an off-design frequency: u = u0 f0/f."""
    if f <= 0 or f0 <= 0:
        raise DomainError("frequencies must be > 0")
    u = u0 * f0 / f
    return {"u_actual": u, "visible": abs(u) <= 1.0,
            "theta_deg": math.degrees(math.asin(u)) if abs(u) <= 1 else None}


def broadened_hpbw(hpbw_broadside_deg: float, theta0_rad: float) -> float:
    """Scanned-beam width: HPBW(theta0) = HPBW(0)/cos(theta0)."""
    c = math.cos(theta0_rad)
    if c <= 1e-12:
        raise DomainError("scan angle must be below 90 degrees")
    return hpbw_broadside_deg / c
