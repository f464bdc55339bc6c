"""wire_sweep: one Method-of-Moments study per op.

Each op solves a centre-fed wire, evaluates its far field on a theta cut,
and compares radiated with accepted power. Segment counts span
N = 21..641, so the nested scalar quadrature of the matrix fill dominates
small N and the dense LU (with its BLAS thread start-up) takes a real share
at N >= 321. Geometries come from a grid with segment length / radius >= 1,
where the reduced thin-wire kernel holds; z_in is checked against values
recorded on that grid.
"""

from __future__ import annotations

import math
import random

import numpy as np

from mwkit import mom_wire
from mwkit.numerics import C0

import reference

NAME = "wire_sweep"
HALF_LENGTHS_WL = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)
RADII_WL = (5e-4, 1e-3, 2e-3)
SEGMENTS = (21, 41, 81, 161, 321, 641)
THETA = np.linspace(0.0, math.pi, 181)
POWER_BALANCE_TOL = 0.05   # as the package's own power-balance test asserts
Z_IN_RTOL = 1e-6
WARMUP = {"kind": "mom", "l": 0.25, "a": 1e-3, "n": 21, "collocation": True}
STRATA = 6
ROUND_S = 2.5  # one round on a 2-core Xeon at the commit that added this benchmark


def valid_geometries(n: int):
    """(l, a) pairs with segment length 2l/n at least the radius a."""
    return [(l, a) for l in HALF_LENGTHS_WL for a in RADII_WL if 2 * l / n >= a]


def make_round(seed: int, r: int) -> list:
    """One round: every N once with sub-domain testing, plus one collocation
    op in even rounds and two in odd ones (3 in 15 over two rounds).

    Fill cost grows with l / a by up to 4x, so the sub-domain geometry of
    each N comes from one of STRATA bands of that ratio, taken in turn from a
    seeded start: any STRATA consecutive rounds cost about the same."""
    rng = random.Random(f"{NAME}:{seed}:{r}")
    start = random.Random(f"{NAME}:{seed}").randrange(STRATA)
    ops = []
    for n in SEGMENTS:
        geoms = sorted(valid_geometries(n), key=lambda g: g[0] / g[1])
        band = (r + start) % STRATA
        l, a = rng.choice(geoms[band * len(geoms) // STRATA:(band + 1) * len(geoms) // STRATA])
        ops.append({"kind": "mom", "l": l, "a": a, "n": n, "collocation": False})
    for _ in range(1 + r % 2):
        n = rng.choice(SEGMENTS)
        l, a = rng.choice(valid_geometries(n))
        ops.append({"kind": "mom", "l": l, "a": a, "n": n, "collocation": True})
    rng.shuffle(ops)
    return ops


def setup(seed: int, workdir: str):
    return None


def prepare(ctx, op):
    # freq = C0 makes the wavelength 1 m, so lengths in wavelengths are metres
    return mom_wire.WireProblem(half_length_l=op["l"], radius_a=op["a"], freq=C0,
                                n_segments=op["n"], collocation=op["collocation"])


def run(ctx, problem):
    sol = mom_wire.solve_currents(problem)
    ff = mom_wire.mom_far_field(sol, THETA)
    return {"z_in": complex(sol.z_in), "e_theta": np.abs(ff.e_theta),
            "p_rad": float(mom_wire.radiated_power(sol)),
            "p_in": float(mom_wire.input_power(sol))}


def reference_key(op) -> str:
    return f"{op['l']:g}/{op['a']:g}/{op['n']}/{int(op['collocation'])}"


def check(op, res):
    balance = res["p_in"] / res["p_rad"]
    if not abs(balance - 1.0) <= POWER_BALANCE_TOL:
        return f"P_in/P_rad = {balance:.6g}, outside 1 +- {POWER_BALANCE_TOL:g}"
    e = res["e_theta"]
    if not np.allclose(e, e[::-1], rtol=0.0, atol=1e-9 * e.max()):
        return "far field of the symmetric wire is not symmetric about theta = 90 deg"
    re, im = reference.load()["wire_sweep"][reference_key(op)]
    ref = complex(re, im)
    if not abs(res["z_in"] - ref) <= Z_IN_RTOL * abs(ref):
        return f"z_in = {res['z_in']:.8g}, recorded {ref:.8g} (rtol {Z_IN_RTOL:g})"
    return None
