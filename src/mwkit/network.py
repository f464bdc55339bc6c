"""Frequency-indexed N-port parameter algebra: S/Z/Y representations and
conversions, two-port embedding and cascading, canonical component generators
and Touchstone v1 file I/O. Conversions, cascades and components act on the
whole ``(F, N, N)`` stack at once, with no loop over frequency (the layout of
scikit-rf, https://scikit-rf.org; Pozar, *Microwave Engineering*, ch. 4).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .numerics import DomainError


class ConversionError(RuntimeError):
    """Parameter conversion failed; carries the frequency index."""

    def __init__(self, message, freq_index):
        super().__init__(message)
        self.freq_index = freq_index


class ParseError(ValueError):
    """Touchstone parse failure; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GridMismatchError(ValueError):
    """Operands live on different frequency grids or references."""


@dataclass
class NPortParams:
    """N-port network parameters on an ascending frequency grid.

    matrices has shape (n_freqs, n_ports, n_ports); z_ref is a per-port
    reference (only meaningful for kind 'S').
    """

    kind: str                    # 'S' | 'Z' | 'Y'
    freqs: np.ndarray            # Hz, strictly ascending
    matrices: np.ndarray         # complex, (F, N, N)
    z_ref: np.ndarray = field(default=None)  # ohm per port

    def __post_init__(self):
        if self.kind not in ("S", "Z", "Y"):
            raise DomainError(f"kind must be S, Z or Y, got {self.kind!r}")
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise DomainError("matrices must have shape (F, N, N)")
        if self.matrices.shape[0] != self.freqs.shape[0]:
            raise DomainError("matrix count must equal frequency count")
        if self.freqs.size > 1 and not np.all(np.diff(self.freqs) > 0):
            raise DomainError("frequencies must be strictly ascending")
        n = self.n_ports
        if self.z_ref is None:
            self.z_ref = np.full(n, 50.0)
        else:
            self.z_ref = np.broadcast_to(np.asarray(self.z_ref, dtype=float), (n,)).copy()
        if np.any(self.z_ref <= 0):
            raise DomainError("reference impedances must be > 0")

    @property
    def n_ports(self) -> int:
        return self.matrices.shape[1]

    def uniform_z_ref(self) -> float:
        if not np.allclose(self.z_ref, self.z_ref[0]):
            raise DomainError("operation needs a uniform per-port reference impedance")
        return float(self.z_ref[0])


@dataclass(frozen=True)
class PortTermination:
    """Source/load reflection coefficients seen by a two-port."""

    gamma_s: complex = 0j
    gamma_l: complex = 0j

    def __post_init__(self):
        for name, g in (("gamma_s", self.gamma_s), ("gamma_l", self.gamma_l)):
            if abs(g) > 1.0 + 1e-12:
                warnings.warn(f"{name} has |gamma| > 1 (active termination)",
                              stacklevel=2)

    @staticmethod
    def from_impedances(z_s: complex, z_l: complex, z0: float = 50.0) -> "PortTermination":
        return PortTermination(gamma_s=(z_s - z0) / (z_s + z0),
                               gamma_l=(z_l - z0) / (z_l + z0))


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def convert(params: NPortParams, to_kind: str, z_ref: float | None = None) -> NPortParams:
    """Convert between S, Z and Y representations (uniform real z_ref); a
    singular matrix raises ConversionError at its lowest frequency index."""
    if to_kind not in ("S", "Z", "Y"):
        raise DomainError(f"unknown target kind {to_kind!r}")
    zr = params.uniform_z_ref() if z_ref is None else float(z_ref)
    n = params.n_ports
    eye = np.eye(n)
    m = params.matrices
    failed = []  # (first singular frequency index, stage), in stage order

    def inv(x, what):
        sv = np.linalg.svd(x, compute_uv=False)
        bad = sv[:, -1] <= sv[:, 0] * n * 1e-14
        if bad.any():
            failed.append((int(np.argmax(bad)), what))
            x = np.where(bad[:, None, None], eye, x)  # stand-in: later stages there go unreported
        return np.linalg.inv(x)

    if params.kind == "S":
        z = zr * (eye + m) @ inv(eye - m, "(I - S)")
    elif params.kind == "Z":
        z = m
    else:
        z = inv(m, "Y")
    if to_kind == "Z":
        out = z.copy() if z is m else z  # never alias the input stack
    elif to_kind == "Y":
        out = inv(z, "Z")
    else:
        out = (z - zr * eye) @ inv(z + zr * eye, "(Z + Zref I)")
    if failed:
        fi, what = min(failed, key=lambda t: t[0])  # ties keep the earlier stage
        raise ConversionError(f"singular {what} at frequency index {fi}", fi)
    return NPortParams(kind=to_kind, freqs=params.freqs.copy(), matrices=out,
                       z_ref=np.full(n, zr))


def two_port_gammas(s: np.ndarray, term: PortTermination) -> dict:
    """Input/output reflection coefficients of a terminated two-port."""
    s = np.asarray(s, dtype=complex)
    gl, gs = term.gamma_l, term.gamma_s
    den_l = 1.0 - s[1, 1] * gl
    den_s = 1.0 - s[0, 0] * gs
    if abs(den_l) < 1e-12 or abs(den_s) < 1e-12:
        warnings.warn("termination nearly resonant with the network "
                      "(|1 - S_ii Gamma| < 1e-12)", stacklevel=2)
    gamma_in = s[0, 0] + s[0, 1] * s[1, 0] * gl / den_l
    gamma_out = s[1, 1] + s[0, 1] * s[1, 0] * gs / den_s
    return {"gamma_in": gamma_in, "gamma_out": gamma_out}


# ---------------------------------------------------------------------------
# ABCD helpers and cascading
# ---------------------------------------------------------------------------

def _two_port(a, b, c, d):
    """Stack (..., 2, 2) of [[a, b], [c, d]] from broadcastable entries."""
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def _line_abcd(z, theta):
    """ABCD stack of a lossless line of impedance z, electrical length theta (rad)."""
    ct, st = np.cos(theta), np.sin(theta)
    return _two_port(ct, 1j * (z * st), 1j * (st / z), ct)


def _abcd_to_s(m, z0_in, z0_out=None):
    if z0_out is None:
        z0_out = z0_in
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    den = a * z0_out + b + c * z0_in * z0_out + d * z0_in
    s11 = (a * z0_out + b - c * z0_in * z0_out - d * z0_in) / den
    s21 = 2.0 * math.sqrt(z0_in * z0_out) / den
    s12 = 2.0 * (a * d - b * c) * math.sqrt(z0_in * z0_out) / den
    s22 = (-a * z0_out + b - c * z0_in * z0_out + d * z0_in) / den
    return _two_port(s11, s12, s21, s22)


def cascade(a: NPortParams, b: NPortParams) -> NPortParams:
    """Cascade two 2-ports (port 2 of ``a`` into port 1 of ``b``).

    Redheffer star product of the S stacks: eliminating the waves between
    the two networks leaves the one denominator 1 - S22a S11b, the
    multiple-reflection loop. Unlike an ABCD product this has no pole at
    S21 = 0, so a blocking network cascades to a finite result. A lossless
    loop (1 - S22a S11b = 0) raises ConversionError at the lowest such
    frequency index.
    """
    if a.n_ports != 2 or b.n_ports != 2:
        raise DomainError("cascade works on 2-ports")
    if a.freqs.shape != b.freqs.shape or not np.array_equal(a.freqs, b.freqs):
        raise GridMismatchError("frequency grids differ")
    za, zb = a.uniform_z_ref(), b.uniform_z_ref()
    if za != zb:
        raise GridMismatchError("reference impedances differ")
    sa = a if a.kind == "S" else convert(a, "S", za)
    sb = b if b.kind == "S" else convert(b, "S", zb)
    ma, mb = sa.matrices, sb.matrices
    a11, a12, a21, a22 = ma[:, 0, 0], ma[:, 0, 1], ma[:, 1, 0], ma[:, 1, 1]
    b11, b12, b21, b22 = mb[:, 0, 0], mb[:, 0, 1], mb[:, 1, 0], mb[:, 1, 1]
    loop = 1 - a22 * b11
    bad = np.flatnonzero(loop == 0)
    if bad.size:
        fi = int(bad[0])
        raise ConversionError(f"1 - S22a S11b = 0 at frequency index {fi}", fi)
    out = _two_port(a11 + a12 * a21 * b11 / loop, a12 * b12 / loop,
                    a21 * b21 / loop, b22 + b12 * b21 * a22 / loop)
    return NPortParams("S", a.freqs.copy(), out, z_ref=np.full(2, za))


# ---------------------------------------------------------------------------
# Canonical components
# ---------------------------------------------------------------------------

def _junction_s(y_ports):
    """S of an ideal parallel junction of lines with admittances y_ports."""
    y = np.asarray(y_ports, dtype=float)
    ysum = y.sum()
    root = np.sqrt(y)
    return 2.0 * np.outer(root, root) / ysum - np.eye(len(y))


def component_sparams(kind: str, params: dict, freqs, z_ref: float = 50.0) -> NPortParams:
    """Generate S-parameters of canonical components.

    kinds: series_z {z}, shunt_y {y}, ideal_line {z0_line, length_m, vp | theta_at_f0, f0},
    t_junction {z1, z2}, resistive_divider {}, wilkinson_equal {f0}.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    z0 = float(z_ref)
    nf = len(freqs)

    if kind == "series_z":
        z = complex(params["z"])
        s11 = z / (z + 2 * z0)
        s21 = 2 * z0 / (z + 2 * z0)
        m = np.array([[s11, s21], [s21, s11]])
        return NPortParams("S", freqs, np.repeat(m[None, :, :], nf, axis=0), z_ref=z0)

    if kind == "shunt_y":
        y = complex(params["y"])
        y0 = 1.0 / z0
        s11 = -y / (y + 2 * y0)
        s21 = 2 * y0 / (y + 2 * y0)
        m = np.array([[s11, s21], [s21, s11]])
        return NPortParams("S", freqs, np.repeat(m[None, :, :], nf, axis=0), z_ref=z0)

    if kind == "ideal_line":
        zline = complex(params.get("z0_line", z0))
        out = _abcd_to_s(_line_abcd(zline, _electrical_angle(params, freqs)), z0)
        return NPortParams("S", freqs, out, z_ref=z0)

    if kind == "t_junction":
        z1, z2 = float(params["z1"]), float(params["z2"])
        if z1 <= 0 or z2 <= 0:
            raise DomainError("t_junction branch impedances must be > 0")
        m = _junction_s([1.0 / z0, 1.0 / z1, 1.0 / z2]).astype(complex)
        return NPortParams("S", freqs, np.repeat(m[None, :, :], nf, axis=0),
                           z_ref=np.array([z0, z1, z2]))

    if kind == "resistive_divider":
        m = 0.5 * (np.ones((3, 3)) - np.eye(3)).astype(complex)
        return NPortParams("S", freqs, np.repeat(m[None, :, :], nf, axis=0), z_ref=z0)

    if kind == "wilkinson_equal":
        f0 = float(params["f0"])
        if f0 <= 0:
            raise DomainError("wilkinson_equal needs f0 > 0")
        z = math.sqrt(2.0) * z0
        th = 0.5 * math.pi * freqs / f0
        ct, st = np.cos(th), np.sin(th)
        # port 1: two branch lines in parallel, each terminated with z0
        zp = 0.5 * z * (z0 * ct + 1j * z * st) / (z * ct + 1j * z0 * st)
        s11 = (zp - z0) / (zp + z0)
        # even mode seen from port 2: branch line terminated with 2 z0
        zin_e = z * (2 * z0 * ct + 1j * z * st) / (z * ct + 1j * 2 * z0 * st)
        g_e = (zin_e - z0) / (zin_e + z0)
        # odd mode: R/2 = z0 in parallel with a shorted branch stub (open at ct = 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            zst = 1j * (z * st / ct)
            z_o = np.where(np.abs(ct) > 1e-15, z0 * zst / (z0 + zst), z0)
        g_o = (z_o - z0) / (z_o + z0)
        s22 = 0.5 * (g_e + g_o)
        s23 = 0.5 * (g_e - g_o)
        # transmission port2 -> port1 via the even-mode half circuit
        s21 = _abcd_to_s(_line_abcd(z, th), z0, 2 * z0)[:, 1, 0] / math.sqrt(2.0)
        out = np.stack([s11, s21, s21, s21, s22, s23, s21, s23, s22], -1).reshape(nf, 3, 3)
        return NPortParams("S", freqs, out, z_ref=z0)

    raise DomainError(f"unsupported component kind {kind!r}")


def _electrical_angle(params: dict, f: np.ndarray) -> np.ndarray:
    """Electrical length in radians at frequencies f from one of the accepted
    parameterizations."""
    if "theta_at_f0" in params:
        return float(params["theta_at_f0"]) * f / float(params["f0"])
    from .numerics import C0
    vp = float(params.get("vp", C0))
    return 2.0 * math.pi * f * float(params["length_m"]) / vp


# ---------------------------------------------------------------------------
# Touchstone v1
# ---------------------------------------------------------------------------

_UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
# Token count of one frequency point, 1 + 2 n^2, to its port count.
_PORTS_OF_POINT = {3: 1, 9: 2, 19: 3, 33: 4}
# On text of only these bytes (decimal and inf/infinity literals and
# whitespace), np.fromstring reads every token exactly as float() does, or
# raises, or returns a different count. No 'a': np.fromstring takes
# 'nan(...)', which float() rejects, and drops the sign of '-nan'.
_BULK_BYTES = b"0123456789.+-eEiInNfFtTyY \t\n"
_WRITE_CHUNK = 2048  # frequencies formatted per block of columns


def _parse_options(line: str, line_no: int) -> tuple:
    """(unit, kind, fmt, zref) of one '#' option line."""
    unit, kind, fmt, zref = "GHZ", "S", "MA", 50.0
    parts = line.lstrip()[1:].upper().split()
    i = 0
    while i < len(parts):
        p = parts[i]
        if p in _UNIT_SCALE:
            unit = p
        elif p in ("S", "Z", "Y"):
            kind = p
        elif p in ("G", "H"):
            raise ParseError(f"unsupported parameter kind {p}", line_no)
        elif p in ("RI", "MA", "DB"):
            fmt = p
        elif p == "R":
            if i + 1 >= len(parts):
                raise ParseError("option 'R' needs a value", line_no)
            try:
                zref = float(parts[i + 1])
            except ValueError:
                raise ParseError("option 'R' needs a number", line_no) from None
            i += 1
        else:
            raise ParseError(f"unknown option token {p!r}", line_no)
        i += 1
    return unit, kind, fmt, zref


def _bulk_floats(body: str, count: int) -> np.ndarray | None:
    """Every token of ``body`` by one np.fromstring, or None unless that
    provably equals float() token by token (see _BULK_BYTES)."""
    if not body.isascii() or body.encode().translate(None, _BULK_BYTES):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x
        try:
            values = np.fromstring(body, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if values.size == count else None


def _token_floats(lines: list) -> np.ndarray:
    """float() of every token; the first bad token is a ParseError."""
    values = []
    for line_no, line in enumerate(lines, start=1):
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"bad numeric token {tok!r}", line_no) from None
    return np.array(values)


def _rect(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """cmath.rect over arrays, bit for bit (its special values included)."""
    z = np.empty(r.shape, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0; non-finite input is redone below
        z.real = r * np.cos(phi)
        z.imag = r * np.sin(phi)
    odd = ~(np.isfinite(r) & np.isfinite(phi))
    if odd.any():
        z[odd] = list(map(cmath.rect, r[odd].tolist(), phi[odd].tolist()))
    return z


def touchstone_read(text: str, n_ports: int | None = None) -> NPortParams:
    """Parse a version-1 Touchstone file body (1 to 4 ports).

    Points are framed by line structure (Touchstone File Format
    Specification 1.1): a line with an odd token count (the frequency plus
    pairs) starts a frequency point, and the lines after it with an even
    count continue it. The first point's token count, 1 + 2n^2, gives the
    port count n; ``n_ports``, when given, must agree with it. Every point
    must hold that many tokens.

    Frequencies must ascend. Only in a 2-port file does a point whose
    frequency is <= the previous one start the noise-parameter block, which
    is skipped with a warning; in any other file it is a ParseError.
    """
    lines = text.splitlines()
    if "!" in text:
        lines = [line.partition("!")[0] for line in lines]
    unit, kind, fmt, zref = "GHZ", "S", "MA", 50.0
    options = [i for i, line in enumerate(lines)  # "in" first: it is the cheap test
               if "#" in line and line.lstrip().startswith("#")]
    if options:
        unit, kind, fmt, zref = _parse_options(lines[options[0]], options[0] + 1)
        if len(options) > 1:
            raise ParseError("duplicate option line", options[1] + 1)
        lines[options[0]] = ""
    body = "\n".join(lines)  # line i is the text after the i-th "\n"

    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
    data = np.flatnonzero(counts)
    if data.size == 0:
        raise ParseError("no data found", 1)
    first = int(data[0])
    if counts[first] % 2 == 0:
        raise ParseError("data before the first frequency (an even token count)",
                         first + 1)
    n_tokens = int(counts.sum())
    values = _bulk_floats(body, n_tokens)
    if values is None:
        values = _token_floats(lines)

    # a point starts at each odd line and runs to the next one
    start_lines = np.flatnonzero(counts % 2 == 1)
    starts = (np.cumsum(counts) - counts)[start_lines]
    sizes = np.diff(starts, append=n_tokens)
    n = _PORTS_OF_POINT.get(int(sizes[0]))
    if n is None:
        raise ParseError(f"cannot infer port count from {sizes[0] - 1} values "
                         "in the first frequency point", first + 1)
    if n_ports is not None and n_ports != n:
        raise ParseError(f"{n_ports} ports expected, but the first frequency point "
                         f"holds {sizes[0] - 1} values ({n} ports)", first + 1)

    freqs = values[starts] * _UNIT_SCALE[unit]
    falls = np.flatnonzero(freqs[1:] <= freqs[:-1]) + 1
    n_points = len(starts)
    if falls.size and n == 2:
        warnings.warn("non-ascending frequency: noise-parameter block "
                      "skipped", stacklevel=2)
        n_points = int(falls[0])
    per_point = 1 + 2 * n * n
    wrong = np.flatnonzero(sizes[:n_points] != per_point)
    if wrong.size:
        raise ParseError("wrong token count in frequency point",
                         int(start_lines[wrong[0]]) + 1)
    if falls.size and n != 2:
        raise ParseError("non-ascending frequency", int(start_lines[falls[0]]) + 1)

    block = values[:n_points * per_point].reshape(n_points, per_point)
    a, b = block[:, 1::2], block[:, 2::2]
    if fmt == "RI":
        m = np.empty(a.shape, dtype=complex)
        m.real, m.imag = a, b
    else:
        if fmt == "DB":  # 10 ** x as Python computes it; np.power rounds differently
            a = np.fromiter(map(math.pow, repeat(10.0), (a / 20.0).ravel().tolist()),
                            dtype=float, count=a.size).reshape(a.shape)
        m = _rect(a, b * (math.pi / 180.0))  # math.radians
    m = m.reshape(n_points, n, n)
    if n == 2:
        m = m.transpose(0, 2, 1).copy()  # v1 2-port order is S11 S21 S12 S22
    return NPortParams(kind, freqs[:n_points], m, z_ref=zref)


def _write_pairs(z: np.ndarray, fmt: str) -> tuple:
    """The two value columns of ``fmt`` for complex ``z``, bit-equal per
    value to abs(), math.degrees(math.atan2()) and 20 * math.log10(); atan2
    is cmath.phase without its OverflowError on an underflowing angle."""
    re, im = z.real, z.imag
    if fmt == "RI":
        return re, im
    # np.arctan2 and np.log10 round differently from libm on some values
    ang = np.fromiter(map(math.atan2, im.ravel().tolist(), re.ravel().tolist()),
                      dtype=float, count=z.size).reshape(z.shape) * (180.0 / math.pi)
    mag = np.hypot(re, im)
    if fmt == "MA":
        return mag, ang
    zero = mag == 0
    log = np.fromiter(map(math.log10, np.where(zero, 1.0, mag).ravel().tolist()),
                      dtype=float, count=z.size).reshape(z.shape)
    db = 20.0 * log
    db[zero] = -math.inf
    return db, ang


def touchstone_write(params: NPortParams, fmt: str = "MA", unit: str = "GHZ") -> str:
    """Serialize to Touchstone v1 text: one line per frequency for 1 and 2
    ports, one line per matrix row for 3 and 4 ports. Values are "%.12g";
    the columns are computed on blocks of _WRITE_CHUNK frequencies, so
    memory stays bounded at any frequency count."""
    fmt = fmt.upper()
    unit = unit.upper()
    if fmt not in ("RI", "MA", "DB"):
        raise DomainError(f"unknown format {fmt!r}")
    if unit not in _UNIT_SCALE:
        raise DomainError(f"unknown unit {unit!r}")
    n = params.n_ports
    if n > 4:
        raise DomainError("touchstone v1 writer supports up to 4 ports")
    zr = params.uniform_z_ref()
    row = " ".join(["%.12g"] * (2 * n))
    point = "%.12g " + (" " if n <= 2 else "\n  ").join([row] * n)
    out = [f"# {unit} {params.kind} {fmt} R {zr:g}"]
    for lo in range(0, len(params.freqs), _WRITE_CHUNK):
        m = params.matrices[lo:lo + _WRITE_CHUNK]
        if n == 2:
            m = m.transpose(0, 2, 1)
        cols = np.empty((len(m), 1 + 2 * n * n))
        cols[:, 0] = params.freqs[lo:lo + _WRITE_CHUNK] / _UNIT_SCALE[unit]
        cols[:, 1::2], cols[:, 2::2] = _write_pairs(m.reshape(len(m), n * n), fmt)
        out += map(point.__mod__, map(tuple, cols.tolist()))
    return "\n".join(out) + "\n"
