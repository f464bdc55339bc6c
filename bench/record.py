"""Record the reference values that the oracles without a closed form use.

    python3 bench/record.py

Writes reference.json beside this file from the mwkit under ``src/``. Run it
only to re-baseline on purpose: the oracles then accept whatever the code
computes at that commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import warnings

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import reference  # noqa: E402
import wl_cli  # noqa: E402
import wl_pattern  # noqa: E402
import wl_wire  # noqa: E402


def record_wire() -> dict:
    out = {}
    for n in wl_wire.SEGMENTS:
        for l, a in wl_wire.valid_geometries(n):
            for coll in (False, True):
                op = {"kind": "mom", "l": l, "a": a, "n": n, "collocation": coll}
                z = wl_wire.run(None, wl_wire.prepare(None, op))["z_in"]
                out[wl_wire.reference_key(op)] = [z.real, z.imag]
    return out


def record_pattern() -> dict:
    out = {}
    for h in wl_pattern.WOG_HEIGHTS_WL:
        out[f"wog/{h:g}"] = wl_pattern.run(None, {"kind": "wog", "h": h})
    for n, m in wl_pattern.MICROSTRIP_MODES:
        out[f"microstrip/{n}{m}"] = wl_pattern.run(None, {"kind": "microstrip", "mode": [n, m]})
    return out


def record_cli() -> dict:
    out = {}
    workdir = tempfile.mkdtemp(prefix="record-", dir=BENCH)
    try:
        ctx = wl_cli.setup(0, workdir)
        for key, args in wl_cli.RECORDED.items():
            op = {"kind": "recorded", "args": args, "expect": 0, "out": "recorded.csv"}
            res = wl_cli.run(ctx, wl_cli.prepare(ctx, op))
            if res["code"] != 0:
                raise RuntimeError(f"{key} exited {res['code']}: {res['stderr']}")
            out[key] = {"stdout": res["stdout"], "out": res["out"]}
    finally:
        shutil.rmtree(workdir)
    return out


def main():
    warnings.simplefilter("ignore")
    data = {"wire_sweep": record_wire(), "pattern_mix": record_pattern(),
            "cli_mix": record_cli()}
    with open(reference.PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
