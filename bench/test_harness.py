"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import os
import re
import sys
import warnings

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import harness  # noqa: E402
import wl_cli  # noqa: E402
import wl_network  # noqa: E402
import wl_pattern  # noqa: E402
import wl_wire  # noqa: E402

WORKLOAD_MODULES = (wl_cli, wl_wire, wl_pattern, wl_network)


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


# ---------------------------------------------------------------------------
# Statistics and spans
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 7] > (b [2, 4], c [5, 6]); d [8, 9] under op
    tracer = harness.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 8, 9, 10]))
    tracer.start("op")
    tracer.start("a")
    tracer.start("b")
    tracer.stop()
    tracer.start("c")
    tracer.stop()
    tracer.stop()
    tracer.start("d")
    tracer.stop()
    tracer.stop()
    totals = tracer.totals()
    assert totals["b"]["self_s"] == 2 and totals["c"]["self_s"] == 1
    assert totals["a"]["total_s"] == 6 and totals["a"]["self_s"] == 3
    assert totals["op"]["total_s"] == 10 and totals["op"]["self_s"] == 10 - 6 - 1
    parents = {span[3]: span[1] for span in tracer.spans}
    ids = {span[3]: span[0] for span in tracer.spans}
    assert parents["b"] == ids["a"] and parents["a"] == ids["op"] and parents["op"] is None


def test_self_times_sum_to_root_duration():
    tracer = harness.Tracer(clock=FakeClock([0, 2, 3, 7, 11, 12, 15, 20]))
    tracer.start("root")
    tracer.start("x")
    tracer.start("x")
    tracer.stop()
    tracer.stop()
    tracer.start("y")
    tracer.stop()
    tracer.stop()
    totals = tracer.totals()
    assert sum(t["self_s"] for t in totals.values()) == totals["root"]["total_s"] == 20
    assert totals["x"]["calls"] == 2


@pytest.mark.parametrize("n, index, percentile", [
    (100, 89, 90.0), (27, 16, 100 * 17 / 27), (11, 0, 100 / 11), (1000, 989, 99.0)])
def test_tail_keeps_ten_samples_beyond(n, index, percentile):
    xs = [float(i) for i in range(n)]
    value, pct, beyond = harness.tail(list(reversed(xs)))
    assert value == xs[index]
    assert pct == pytest.approx(percentile)
    assert beyond == 10 == sum(x > value for x in xs)


def test_tail_with_too_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_summary_metrics():
    metrics, tail = harness.summarize([0.1] * 5 + [0.3] * 15, 2, 50.0, [1.0, 3.0, 2.0])
    assert metrics["ops_per_s"][0] == pytest.approx(20 / 5.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(300.0)
    assert metrics["failed_frac"][0] == pytest.approx(0.1)
    assert metrics["setup_s"][0] == 2.0
    assert tail == {"percentile": 50.0, "samples_beyond": 10, "samples": 20}


def test_instrument_wraps_sibling_imports_and_restores():
    from mwkit import mom_wire, numerics, radiator

    original = numerics.integrate_adaptive
    tracer = harness.Tracer()
    restore = harness.instrument(tracer)
    try:
        assert mom_wire.integrate_adaptive is numerics.integrate_adaptive is not original
        assert radiator.bessel_j is numerics.bessel_j
        value, _ = mom_wire.integrate_adaptive(lambda x: x * x, 0.0, 1.0)
    finally:
        restore()
    assert mom_wire.integrate_adaptive is original is numerics.integrate_adaptive
    assert value == pytest.approx(1 / 3)
    assert tracer.totals()["numerics.integrate_adaptive"]["calls"] == 1
    assert tracer.counts["numerics.integrate_adaptive.evals"] == 15


# ---------------------------------------------------------------------------
# Seeded op lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mod", WORKLOAD_MODULES, ids=lambda m: m.NAME)
def test_identical_seed_gives_identical_ops(mod):
    assert mod.make_round(7, 0) == mod.make_round(7, 0)
    assert mod.make_round(7, 3) == mod.make_round(7, 3)
    assert mod.make_round(7, 0) != mod.make_round(8, 0)
    assert mod.make_round(7, 0) != mod.make_round(7, 1)


def test_wire_geometries_keep_segments_longer_than_the_radius():
    for r in range(4):
        for op in wl_wire.make_round(3, r):
            assert 2 * op["l"] / op["n"] >= op["a"]


# ---------------------------------------------------------------------------
# Oracles reject perturbed results
# ---------------------------------------------------------------------------

def test_wire_oracle():
    op = {"kind": "mom", "l": 0.25, "a": 1e-3, "n": 21, "collocation": True}
    res = wl_wire.run(None, wl_wire.prepare(None, op))
    assert wl_wire.check(op, res) is None
    assert wl_wire.check(op, dict(res, z_in=res["z_in"] * (1 + 1e-5)))
    assert wl_wire.check(op, dict(res, p_in=res["p_in"] * 1.1))
    assert wl_wire.check(op, dict(res, e_theta=res["e_theta"] * (1 + 0.01 * wl_wire.THETA)))


PATTERN_OPS = [
    {"kind": "circ", "a": 1.2, "p": 1},
    {"kind": "rect", "a": 2.0, "b": 1.5},
    {"kind": "dipole", "i0l": 0.01},
    {"kind": "loop", "r": 0.05},
    {"kind": "wog", "h": 0.25},
    {"kind": "wire_rr", "l": 0.3, "i": 1.5},
    {"kind": "cut", "model": "circ", "a": 2.0, "b": 2.0, "p": 2},
    {"kind": "cut", "model": "rect", "a": 2.5, "b": 2.0, "p": 0},
    {"kind": "noise_temp", "t0": 100.0, "t1": 10.0},
    {"kind": "af", "k": 8, "l": 4, "points": 301, "u0": 0.2},
    {"kind": "fft", "k": 8, "l": 8, "pad": 4, "u0": 0.1, "seed": 5},
    {"kind": "errstat", "k": 64, "trials": 200, "seed": 3, "phase_bits": 4},
    {"kind": "sunflower", "n": 250, "spacing": 1.5},
    {"kind": "fpa", "r": 0.8, "psi0": 0.7},
]


def _perturb_pattern(op, res):
    kind = op["kind"]
    if kind == "cut":
        f_db = res["f_db"].copy()
        f_db[len(f_db) // 2 + 20] += 0.01
        return {"f_db": f_db, "metrics": res["metrics"]}
    if kind == "af":
        return res * 1.001
    if kind == "fft":
        g = dict(res["grid"], s=res["grid"]["s"] * (1 + 1e-6))
        return dict(res, grid=g)
    if kind == "errstat":
        mc = dict(res["monte_carlo"], avg_null_sll_db=res["monte_carlo"]["avg_null_sll_db"] + 2)
        return dict(res, monte_carlo=mc)
    if kind == "sunflower":
        from mwkit.array_engine import ArrayLayout
        return dict(res, layout=ArrayLayout(positions=res["layout"].positions * 1.001))
    if kind == "fpa":
        return res + 1e-6
    factor = {"circ": 1.5, "rect": 1.5, "loop": 1.05, "dipole": 1.01}.get(kind, 1 + 1e-5)
    return res * factor


@pytest.mark.parametrize("op", PATTERN_OPS, ids=lambda op: op["kind"])
def test_pattern_oracle(op):
    res = wl_pattern.run(None, wl_pattern.prepare(None, op))
    assert wl_pattern.check(op, res) is None
    assert wl_pattern.check(op, _perturb_pattern(op, res))


def _network_op(kind):
    op = next(o for o in wl_network.make_round(11, 0) if o["kind"] == kind and o["f"] == 201)
    return op, wl_network.run(None, wl_network.prepare(None, op))


def _scaled(params, factor):
    from mwkit.network import NPortParams
    return NPortParams(params.kind, params.freqs, params.matrices * factor, params.z_ref)


@pytest.mark.parametrize("kind", wl_network.KINDS)
def test_network_oracle(kind):
    op, res = _network_op(kind)
    assert wl_network.check(op, res) is None
    if kind == "components":
        bad = dict(res, ideal_line=_scaled(res["ideal_line"], 1 + 1e-6))
    elif kind in ("cascade_lines", "cascade_chain"):
        bad = _scaled(res, 1 + 1e-6)
    elif kind == "convert":
        bad = dict(res, back=res["back"] * (1 + 1e-6))
    elif kind == "convert_kpi":
        bad = {"conversion_error": None}
    elif kind.startswith("touchstone"):
        bad = dict(res, back=_scaled(res["back"], 1 + 1e-8))
    elif kind.startswith("filter"):
        bad = dict(res, s21=res["s21"] * 1.001)
    else:
        bad = [(g_t * 1.001, st) for g_t, st in res]
    assert wl_network.check(op, bad)


def _rejects(check, op, res) -> bool:
    try:
        return bool(check(op, res))
    except (KeyError, ValueError, AttributeError, IndexError, TypeError):
        return True


def _scale_numbers(text):
    if text is None:
        return None
    return re.sub(r"(?<![\w.])-?\d+\.\d+(?:[eE][-+]?\d+)?",
                  lambda m: repr(float(m.group(0)) * 1.01), text)


def test_cli_oracles(tmp_path):
    ctx = wl_cli.setup(5, str(tmp_path))
    ops = wl_cli.make_round(5, 0)
    assert {op["args"][0] for op in ops if op["kind"] != "usage"} >= {
        "tline", "smith", "net", "match", "filter", "amp", "noise", "antenna", "mom",
        "array", "link", "--config"}
    for op in ops:
        res = wl_cli.run_in_process(ctx, wl_cli.prepare(ctx, op))
        assert wl_cli.check(op, res) is None, op
        if op["kind"] == "usage":
            bad = dict(res, code=0)
        else:
            bad = dict(res, stdout=_scale_numbers(res["stdout"]), out=_scale_numbers(res["out"]))
        assert _rejects(wl_cli.check, op, bad), op["kind"]


def test_recorded_comparison_is_token_by_token():
    assert wl_cli.same_numbers("z = 1.0000001, n = 3", "z = 1.0, n = 3") is None
    assert wl_cli.same_numbers("z = 1.01, n = 3", "z = 1.0, n = 3")
    assert wl_cli.same_numbers("z = 1.0, n = 3", "y = 1.0, n = 3")
    assert wl_cli.same_numbers("x = inf", "x = inf") is None


def test_speed_track_rescales_by_the_probes_around_each_sample(monkeypatch):
    probes = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(harness, "probe", lambda: next(probes))
    track = harness.SpeedTrack(interval_s=0.0)
    track.before_sample()
    track.add(3.0)
    track.before_sample()
    track.add(6.0)
    assert track.rescaled() == pytest.approx([3.0 * harness.PROBE_REF_S / 1.5,
                                              6.0 * harness.PROBE_REF_S / 3.0])
