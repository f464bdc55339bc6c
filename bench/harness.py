"""Measurement plumbing shared by the workloads: latency statistics, the
span tracer that wraps mwkit's public functions, and the machine block.

Nothing here imports mwkit or numpy at module level, so importing this file
costs nothing that the set-up timing of a workload would have to exclude.
"""

from __future__ import annotations

import ctypes
import functools
import gzip
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata

TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Latency statistics
# ---------------------------------------------------------------------------

def tail(latencies, beyond: int = TAIL_BEYOND):
    """Highest percentile that still has ``beyond`` samples above it.

    Returns (value, percentile, samples_beyond). The value is the order
    statistic with exactly ``beyond`` samples after it in sorted order, and
    its percentile is the share of samples at or below it. With too few
    samples the maximum is returned with the samples that actually lie
    beyond it (zero).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


PROBE_REF_S = 4.6e-3
"""Time of ``probe()`` on the reference machine (2-core Xeon VM, fast phase)."""


def probe() -> float:
    """Median time of three runs of a fixed pure-Python loop, in seconds.

    The shared host's speed drifts by 20-30 % for minutes at a time (this
    loop takes 17 to 31 ms over 40 s in a 300k-step version). The loop
    touches no memory beyond a few objects, so it measures the host's speed
    and not the cache state the previous op left behind.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(80_000):
            s += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedTrack:
    """Probes the host's speed at most once per ``interval_s`` of wall time
    and rescales each sample to the reference speed by the mean of the
    probes taken just before and just after it."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.probes = []        # (time, probe seconds)
        self.samples = []       # (value, index of the probe before it)

    def before_sample(self, force: bool = False):
        now = time.perf_counter()
        if force or not self.probes or now - self.probes[-1][0] >= self.interval_s:
            self.probes.append((now, probe()))

    def add(self, value: float):
        self.samples.append((value, len(self.probes) - 1))

    def rescaled(self) -> list:
        self.before_sample(force=True)
        return [at_reference_speed(value, self.probes[i][1], self.probes[i + 1][1])
                for value, i in self.samples]


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time measured between two probes, rescaled to the reference speed."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def timed_between_probes(fn):
    """(fn's result, its wall time rescaled by probes just before and after)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, at_reference_speed(elapsed, before, probe())


def summarize(latencies_s, failed: int, rss_mb: float, setup_samples_s):
    """The six end-to-end metrics (name -> (value, unit)) of one workload
    run, and where the tail percentile fell."""
    n = len(latencies_s)
    busy = sum(latencies_s)
    tail_s, pct, beyond = tail(latencies_s)
    return {
        "ops_per_s": (n / busy, "op/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies_s), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "failed_frac": (failed / n, "ratio"),
        "setup_s": (statistics.median(setup_samples_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"percentile": pct, "samples_beyond": beyond, "samples": n}


# ---------------------------------------------------------------------------
# Span tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Records one span per call of a wrapped function.

    A span is (id, parent_id, op_id, name, start_s, duration_s, self_s);
    self time is the duration minus the time covered by direct children.
    Counters accumulate beside the spans under dotted names.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.op_id = None
        self._stack = []   # [span_id, parent_id, name, start, child_time]
        self._next_id = 0

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def start(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, self.clock(), 0.0])
        self._next_id += 1

    def stop(self):
        span_id, parent, name, start, child = self._stack.pop()
        dur = self.clock() - start
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append((span_id, parent, self.op_id, name, start, dur, dur - child))

    def totals(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        out = {}
        for _, _, _, name, _, dur, self_s in self.spans:
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += self_s
        return out

    def write(self, path: str, meta: dict):
        """Write the spans (one JSON array per line) and counters, gzipped."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta, "counts": self.counts,
                                 "fields": ["id", "parent", "op", "name", "start_s",
                                            "dur_s", "self_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, key: str, fn, before=None, after=None, errors=()):
    """Span around ``fn``. ``before(args, kwargs)`` may count and rewrite the
    arguments, ``after(result)`` may count the result, and a raise of one of
    ``errors`` is counted as ``numerics.errors``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        tracer.start(key)
        try:
            result = fn(*args, **kwargs)
        except errors:
            tracer.count("numerics.errors")
            raise
        finally:
            tracer.stop()
        if after is not None:
            after(result)
        return result

    return wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return [name for name, obj in vars(module).items()
            if callable(obj) and not name.startswith("_") and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__]


def instrument(tracer: Tracer):
    """Wrap the layer functions of mwkit by replacing module attributes.

    Every mwkit module that imported a wrapped function by name (for example
    ``mom_wire.integrate_adaptive`` or ``radiator.bessel_j``) gets the
    wrapper too. Returns a function that restores the originals.
    """
    import numpy as np

    from mwkit import (amplifier, array_engine, cli, matching, mom_wire, network,
                       numerics, radiator, tline)

    def count_integrand(args, kwargs):
        f = _arg(args, kwargs, 0, "f")
        tracer.count("numerics.integrate_adaptive.evals", 0)

        def counted(x):
            tracer.counts["numerics.integrate_adaptive.evals"] += 1
            return f(x)

        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=counted)
        return args, kwargs

    def count_solve(args, kwargs):
        n = np.shape(_arg(args, kwargs, 0, "a"))[0]
        # complex LU (8/3 n^3 real flop) plus two triangular solves (8 n^2)
        tracer.count("numerics.solve_complex_dense.flop", 8 * n**3 // 3 + 8 * n * n)
        return args, kwargs

    def count_bessel(args, kwargs):
        tracer.count("numerics.bessel_j.points", int(np.size(_arg(args, kwargs, 1, "x"))))
        return args, kwargs

    def count_af(args, kwargs):
        layout = _arg(args, kwargs, 0, "layout")
        points = int(np.size(_arg(args, kwargs, 2, "u")))
        tracer.count("array_engine.array_factor.bytes", 16 * points * layout.n_elements)
        return args, kwargs

    def count_freqs(key, index, name):
        def before(args, kwargs):
            obj = _arg(args, kwargs, index, name)
            freqs = obj.freqs if hasattr(obj, "freqs") else obj
            tracer.count(key, int(np.size(freqs)))
            return args, kwargs
        return before

    def count_ts_read(args, kwargs):
        tracer.count("network.touchstone_read.bytes", len(_arg(args, kwargs, 0, "text")))
        return args, kwargs

    targets = [
        (numerics, "integrate_adaptive", "numerics.integrate_adaptive", count_integrand),
        (numerics, "solve_complex_dense", "numerics.solve_complex_dense", count_solve),
        (numerics, "bessel_j", "numerics.bessel_j", count_bessel),
        (array_engine, "array_factor", "array_engine.array_factor", count_af),
        (network, "component_sparams", "network.component_sparams",
         count_freqs("network.freq_points", 2, "freqs")),
        (network, "convert", "network.convert",
         count_freqs("network.freq_points", 0, "params")),
        (network, "cascade", "network.cascade",
         count_freqs("network.freq_points", 0, "a")),
        (network, "touchstone_read", "network.touchstone_read", count_ts_read),
        (matching, "filter_response", "matching.filter_response",
         count_freqs("matching.filter_response.freq_points", 1, "freqs")),
        (cli, "main", "cli.main", None),
    ]
    for mod, names in ((mom_wire, ("fill_impedance_matrix", "solve_currents",
                                   "mom_far_field", "radiated_power")),
                       (radiator, ("directivity", "radiated_power_and_rr", "power_pattern",
                                   "normalized_pattern", "antenna_noise_temperature")),
                       (array_engine, ("pattern_grid", "error_statistics", "sparse_layout",
                                       "fpa_efficiency")),
                       (network, ("touchstone_write",))):
        targets += [(mod, n, f"{mod.__name__.split('.')[-1]}.{n}", None) for n in names]
    for mod in (amplifier, tline):
        targets += [(mod, n, f"{mod.__name__.split('.')[-1]}.{n}", None)
                    for n in _public_functions(mod)]

    error_types = (numerics.ConvergenceError, numerics.SingularMatrixError)
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "mwkit" or name.startswith("mwkit."))]
    replaced = []
    for mod, name, key, before in targets:
        original = getattr(mod, name)
        wrapper = _wrap(tracer, key, original, before,
                        after=(lambda text: tracer.count("network.touchstone_write.bytes",
                                                         len(text)))
                        if key == "network.touchstone_write" else None,
                        errors=error_types if mod is numerics else ())
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is original:
                    setattr(m, attr, wrapper)
                    replaced.append((m, attr, original))

    def restore():
        for m, attr, original in reversed(replaced):
            setattr(m, attr, original)

    return restore


LAYER_SELF = [
    "numerics.integrate_adaptive", "numerics.solve_complex_dense", "numerics.bessel_j",
    "mom_wire.fill_impedance_matrix", "mom_wire.solve_currents",
    "mom_wire.mom_far_field", "mom_wire.radiated_power",
    "radiator.directivity", "radiator.radiated_power_and_rr", "radiator.power_pattern",
    "radiator.normalized_pattern", "radiator.antenna_noise_temperature",
    "array_engine.array_factor", "array_engine.pattern_grid",
    "array_engine.error_statistics", "array_engine.sparse_layout",
    "array_engine.fpa_efficiency",
    "network.component_sparams", "network.convert", "network.cascade",
    "network.touchstone_write", "network.touchstone_read",
    "matching.filter_response", "cli.main",
]
LAYER_CALLS = ["numerics.integrate_adaptive", "numerics.solve_complex_dense",
               "numerics.bessel_j", "radiator.power_pattern"]
LAYER_COUNTS = [
    ("numerics.integrate_adaptive.evals", "count"),
    ("numerics.solve_complex_dense.flop", "flop"),
    ("numerics.bessel_j.points", "count"),
    ("numerics.errors", "count"),
    ("array_engine.array_factor.bytes", "B"),
    ("network.touchstone_write.bytes", "B"),
    ("network.touchstone_read.bytes", "B"),
    ("network.freq_points", "count"),
    ("matching.filter_response.freq_points", "count"),
]


def layer_metrics(totals: dict, counts: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from span totals and counters."""
    out = {}
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (totals.get(name, {}).get("self_s", 0.0), "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (totals.get(name, {}).get("calls", 0), "count")
    for name, unit in LAYER_COUNTS:
        out[name] = (counts.get(name, 0), unit)
    for layer in ("amplifier", "tline"):
        out[f"{layer}.self_s"] = (sum(t["self_s"] for n, t in totals.items()
                                      if n.startswith(layer + ".")), "s")
    return out


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of every OpenBLAS build mapped into this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_block() -> dict:
    """Hardware and library facts that the timings depend on."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OPENBLAS_", "OMP_", "MKL_", "PYTHONDONTWRITEBYTECODE",
                                 "PYTHONHASHSEED"))},
    }
