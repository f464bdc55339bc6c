"""Self-contained numerical kernels: Bessel J_n, cosine integral, adaptive
quadrature and dense complex linear solves.

Sign conventions used throughout the package are fixed here: time factor
e^{+j omega t}, forward wave e^{-j beta z}, theta measured from the +z axis.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as _sla

# Physical constants (SI)
C0 = 299_792_458.0          # speed of light [m/s]
MU0 = 4e-7 * math.pi        # vacuum permeability [H/m]
EPS0 = 1.0 / (MU0 * C0**2)  # vacuum permittivity [F/m]
ETA0 = math.sqrt(MU0 / EPS0)  # free-space wave impedance, ~376.73 ohm
KB = 1.380649e-23           # Boltzmann constant [J/K]

_EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """Input outside the supported domain of an operation."""


class ConvergenceError(RuntimeError):
    """Iteration/subdivision budget exhausted; carries the best estimate."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class SingularMatrixError(RuntimeError):
    """Matrix singular to working precision; carries the failing pivot index."""

    def __init__(self, message, pivot_index):
        super().__init__(message)
        self.pivot_index = pivot_index


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

def _j0_j1_series(x):
    """Ascending power series for J0 and J1, reliable for |x| < 12."""
    x = np.asarray(x, dtype=float)
    q = -0.25 * x * x
    t0 = np.ones_like(x)
    j0 = t0.copy()
    t1 = np.full_like(x, 0.5)
    j1 = t1.copy()
    for k in range(1, 40):
        t0 = t0 * q / (k * k)
        j0 += t0
        t1 = t1 * q / (k * (k + 1))
        j1 += t1
    return j0, j1 * x


def _j0_j1_asymptotic(x):
    """Hankel (Stokes) asymptotic expansion for J0 and J1, x >= 12.

    Each element stops at its smallest term (optimal truncation).
    """
    x = np.asarray(x, dtype=float)
    out = []
    for mu in (0.0, 4.0):  # mu = 4 nu^2 for nu = 0, 1
        p = np.ones_like(x)
        q = np.zeros_like(x)
        term = np.ones_like(x)
        active = np.ones_like(x, dtype=bool)
        z8 = 8.0 * x
        for k in range(1, 40):
            new = term * (mu - (2 * k - 1) ** 2) / (k * z8)
            active &= np.abs(new) < np.abs(term)
            if not np.any(active):
                break
            if k % 2 == 1:
                q += np.where(active, new * (-1) ** ((k - 1) // 2), 0.0)
            else:
                p += np.where(active, new * (-1) ** (k // 2), 0.0)
            term = new
        out.append((p, q))
    (p0, q0), (p1, q1) = out
    amp = np.sqrt(2.0 / (math.pi * x))
    chi0 = x - 0.25 * math.pi
    chi1 = x - 0.75 * math.pi
    j0 = amp * (p0 * np.cos(chi0) - q0 * np.sin(chi0))
    j1 = amp * (p1 * np.cos(chi1) - q1 * np.sin(chi1))
    return j0, j1


def _j0_j1(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 12.0
    j0 = np.empty_like(x)
    j1 = np.empty_like(x)
    if np.any(small):
        j0[small], j1[small] = _j0_j1_series(x[small])
    if np.any(~small):
        j0s, j1s = _j0_j1_asymptotic(np.abs(x[~small]))
        j0[~small] = j0s
        j1[~small] = np.sign(x[~small]) * j1s
    return j0, j1


def _jn_upward(n, x, j0, j1):
    """Forward recurrence, stable for x >= n."""
    jm, jc = j0.copy(), j1.copy()
    for k in range(1, n):
        jm, jc = jc, (2.0 * k / x) * jc - jm
    return jc


def _jn_miller(n, x):
    """Backward (Miller) recurrence with series normalization, for x < n."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0.0
    if not np.any(nz):
        return out
    xv = x[nz]
    m = int(2 * ((n + int(math.sqrt(60.0 * n)) + 16) // 2))
    jp = np.zeros_like(xv)
    jc = np.full_like(xv, 1e-30)
    norm = np.zeros_like(xv)
    result = np.zeros_like(xv)
    for k in range(m, 0, -1):
        jm = (2.0 * k / xv) * jc - jp
        jp, jc = jc, jm
        if k - 1 == n:
            result = jc.copy()
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += 2.0 * jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            jc[big] *= 1e-250
            jp[big] *= 1e-250
            norm[big] *= 1e-250
            result[big] *= 1e-250
    norm += jc  # J0 contribution
    out[nz] = result / norm
    return out


def bessel_j(order: int, x):
    """Bessel function of the first kind J_n(x).

    Supports scalar or ndarray x with order 0..50 and |x| <= 1e4.
    """
    if order < 0 or order > 50 or order != int(order):
        raise DomainError(f"bessel_j order must be an integer in [0, 50], got {order}")
    n = int(order)
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xa) > 1e4) or not np.all(np.isfinite(xa)):
        raise DomainError("bessel_j argument must be finite with |x| <= 1e4")

    sign = np.where((xa < 0) & (n % 2 == 1), -1.0, 1.0)
    ax = np.abs(xa)
    j0, j1 = _j0_j1(ax)
    if n == 0:
        res = j0
    elif n == 1:
        res = j1
    else:
        res = np.empty_like(ax)
        up = ax >= n
        if np.any(up):
            res[up] = _jn_upward(n, ax[up], j0[up], j1[up])
        if np.any(~up):
            res[~up] = _jn_miller(n, ax[~up])
    res = sign * res
    return float(res[0]) if scalar else res.reshape(np.shape(x))


def sinc(x):
    """sin(x)/x with the removable singularity filled in (sinc(0) = 1)."""
    return np.sinc(np.asarray(x) / math.pi) if not np.isscalar(x) else float(np.sinc(x / math.pi))


def cosine_integral(x: float) -> float:
    """Cosine integral ci(x) = -integral_x^inf cos(t)/t dt for x > 0."""
    if not (x > 0):
        raise DomainError("cosine_integral requires x > 0")
    if x < 20.0:
        # ci(x) = gamma + ln x + sum_k (-1)^k x^{2k} / (2k (2k)!)
        total = _EULER_GAMMA + math.log(x)
        term = 1.0
        q = -x * x
        for k in range(1, 60):
            term = term * q / ((2 * k) * (2 * k - 1))
            total += term / (2 * k)
            if abs(term) < 1e-18 * max(1.0, abs(total)):
                break
        return total
    # ci(x) = -Re[E1(jx)]; evaluate E1 by modified Lentz continued fraction,
    # the stable form of the asymptotic auxiliary functions.
    z = 1j * x
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 200):
        a = -k * k * 1.0
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    e1 = h * np.exp(-z)
    return float(-e1.real)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes/weights with embedded 7-point Gauss rule (QUADPACK).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


_NODES = np.concatenate([-_XGK, _XGK[6::-1]])   # 15 nodes in ascending order
_KRONROD = np.concatenate([_WGK, _WGK[6::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1:15:2] = np.concatenate([_WG, _WG[2::-1]])


def _gk15(f, a, b):
    """One Gauss-Kronrod 15(7) panel on [a, b] with a single call of f on all
    15 nodes. Returns the Kronrod value and |Kronrod - Gauss| as (m,) arrays,
    the largest of those errors, and the trailing shape of f's values."""
    h = 0.5 * (b - a)
    fx = np.asarray(f(0.5 * (a + b) + h * _NODES))
    flat = fx.reshape(15, -1)
    resk = h * (_KRONROD @ flat)
    err = np.abs(resk - h * (_GAUSS @ flat))
    return resk, err, err.max(), fx.shape[1:]


def integrate_gk15(f, breaks, spec: QuadratureSpec | None = None):
    """Globally adaptive GK15 quadrature of a batched integrand over the
    panels between ascending ``breaks``.

    ``f`` maps the 15 nodes of a panel, an array of shape (15,), to values of
    shape (15,) or (15, m), real or complex. The panel with the largest error
    (max-norm over the m components) is bisected until the max-norm of the
    summed error estimate is within ``max(abs_tol, rel_tol * max|value|)``.
    Returns (value, error_estimate), each a scalar or an (m,) array. Raises
    ConvergenceError carrying both when the subdivision budget is exhausted.
    """
    if spec is None:
        spec = QuadratureSpec()
    breaks = [float(x) for x in breaks]
    if len(breaks) < 2 or not all(lo < hi for lo, hi in zip(breaks, breaks[1:])):
        raise DomainError("quadrature breakpoints must be strictly ascending")

    heap = []
    for lo, hi in zip(breaks, breaks[1:]):
        val, err, emax, shape = _gk15(f, lo, hi)
        heap.append((-emax, lo, hi, val, err))
    heapq.heapify(heap)
    total = sum(p[3] for p in heap)
    total_err = sum(p[4] for p in heap)

    def converged():
        return total_err.max() <= max(spec.abs_tol, spec.rel_tol * np.abs(total).max())

    for _ in range(spec.max_subdivisions):
        if converged():
            break
        _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, m1, _ = _gk15(f, lo, mid)
        v2, e2, m2, _ = _gk15(f, mid, hi)
        total = total - v_old + v1 + v2
        total_err = total_err - e_old + e1 + e2
        heapq.heappush(heap, (-m1, lo, mid, v1, e1))
        heapq.heappush(heap, (-m2, mid, hi, v2, e2))

    def unflat(x):  # (m,) arrays back to the shape of f's values
        return x.reshape(shape)[()]

    if not converged():
        raise ConvergenceError(
            f"quadrature budget of {spec.max_subdivisions} subdivisions exhausted "
            f"(estimate {unflat(total)}, error {total_err.max():.3e})",
            estimate=unflat(total), error=unflat(total_err),
        )
    # re-add the panels so that the running update's rounding is dropped
    return unflat(sum(p[3] for p in heap)), unflat(total_err)


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec | None = None):
    """Globally adaptive GK15 quadrature of a real- or complex-valued scalar
    callback f(x), evaluated node by node through ``integrate_gk15``.

    Returns (value, error_estimate). Raises ConvergenceError (carrying the
    best estimate) when the subdivision budget is exhausted.
    """
    return integrate_gk15(lambda x: [f(xi) for xi in x.tolist()], (a, b), spec)


# ---------------------------------------------------------------------------
# Dense complex linear algebra
# ---------------------------------------------------------------------------

def solve_complex_dense(a, b):
    """Solve A x = b for dense complex A using LU with partial pivoting."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise DomainError("right-hand side length must match matrix size")
    lu, piv = _sla.lu_factor(a, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = np.max(np.abs(a)) if a.size else 0.0
    bad = np.where(diag <= scale * a.shape[0] * np.finfo(float).eps)[0]
    if scale == 0.0 or bad.size:
        idx = int(bad[0]) if bad.size else 0
        raise SingularMatrixError(
            f"matrix singular to working precision at pivot {idx}", pivot_index=idx)
    return _sla.lu_solve((lu, piv), b, check_finite=False)


def spherical_basis(theta: float, phi: float):
    """Orthonormal spherical unit vectors (u_r, u_theta, u_phi) as Cartesian triplets."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    u_r = np.array([st * cp, st * sp, ct])
    u_theta = np.array([ct * cp, ct * sp, -st])
    u_phi = np.array([-sp, cp, 0.0])
    return u_r, u_theta, u_phi


def db10(x):
    """Power ratio to dB."""
    return 10.0 * np.log10(x)


def db20(x):
    """Voltage/reflection ratio to dB."""
    return 20.0 * np.log10(x)
