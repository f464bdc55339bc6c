"""mwkit benchmark: seeded closed-loop workloads with one caller each.

    python3 bench/run.py --workload wire_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; mwkit is imported from ``src/`` beside this directory.
With ``--trace 0`` the last stdout line is a JSON object with the six
end-to-end metrics of the workload; with ``--trace 1`` it holds the
per-layer metrics and the tracing overhead instead. The lines before it are
the machine block, a readable summary and one line per failed op. See
README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import harness

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
WORKLOADS = {"cli_mix": "wl_cli", "wire_sweep": "wl_wire", "pattern_mix": "wl_pattern",
             "network_sweep": "wl_network"}
SETUP_SAMPLES = 5
CLI_SETUP_SAMPLES = 25   # input generation takes well under a millisecond
E2E_ORDER = ("ops_per_s", "op_p50_ms", "op_tail_ms", "failed_frac", "setup_s", "peak_rss_mb")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Outcome:
    """Latencies, attempts and failures of a sequence of ops."""

    def __init__(self, workload: str, speed: harness.SpeedTrack | None = None):
        self.workload = workload
        self.speed = speed
        self.latencies = []
        self.failures = []

    def run_op(self, mod, ctx, op, op_id, runner=None, tracer=None):
        prepared = mod.prepare(ctx, op)
        runner = runner or mod.run
        if tracer is not None:
            tracer.op_id = f"{self.workload}:{op_id}"
        if self.speed is not None:
            self.speed.before_sample()
        t0 = time.perf_counter()
        try:
            result, reason = runner(ctx, prepared), None
        except Exception as exc:  # an unexpected raise is a failed op, not a crash
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        if self.speed is not None:
            self.speed.add(self.latencies[-1])
        if reason is None:
            try:
                reason = mod.check(op, result)
            except Exception as exc:  # malformed output makes the oracle raise
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append({"workload": self.workload, "kind": op["kind"],
                                  "op": op_id, "reason": reason})

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def _setup(name: str, seed: int, workdir: str):
    """Fresh-process set-up: import mwkit (through the workload module),
    generate the first round's inputs, run one warm-up op."""
    mod = importlib.import_module(WORKLOADS[name])
    ctx = mod.setup(seed, workdir)
    first = mod.make_round(seed, 0)
    mod.run(ctx, mod.prepare(ctx, mod.WARMUP))
    return mod, ctx, first


def _spawned_setup_s(name: str, seed: int) -> float:
    """Set-up time of a fresh process, rescaled to the reference speed."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, timeout=120, env=_env())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cli_setup_samples(mod, seed: int, workdir: str):
    """cli_mix set-up is input generation only: every op pays interpreter
    start itself."""
    samples = []
    for i in range(CLI_SETUP_SAMPLES):
        d = os.path.join(workdir, f"setup{i}")
        os.makedirs(d)
        (ctx, first), setup_s = harness.timed_between_probes(
            lambda: (mod.setup(seed, d), mod.make_round(seed, 0)))
        samples.append(setup_s)
    return samples, ctx, first


def measure(name: str, seed: int, seconds: float, workdir: str):
    """Untraced run: returns (metrics, tail position, outcome).

    Every time is rescaled to the reference machine's speed by the speed
    probes taken around it (see ``harness.SpeedTrack``).
    """
    if name == "cli_mix":
        mod = importlib.import_module(WORKLOADS[name])
        setup_samples, ctx, first = _cli_setup_samples(mod, seed, workdir)
    else:
        (mod, ctx, first), s0 = harness.timed_between_probes(lambda: _setup(name, seed, workdir))
        setup_samples = [s0]
    out = Outcome(name, harness.SpeedTrack())
    # A fixed number of whole rounds, so that every run of a seed measures the
    # same ops and the tail percentile falls at the same sample count; a host
    # running at under half the reference speed stops early instead.
    rounds = max(1, round(seconds / mod.ROUND_S))
    t_start = time.perf_counter()
    for r in range(rounds):
        if r and time.perf_counter() - t_start > 2 * seconds:
            rounds = r
            break
        ops = first if r == 0 else mod.make_round(seed, r)
        for i, op in enumerate(ops):
            out.run_op(mod, ctx, op, f"{r}.{i}")
    if name == "cli_mix":
        rss = _max_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        rss = _max_rss_mb(resource.RUSAGE_SELF)
        setup_samples += [_spawned_setup_s(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    metrics, tail = harness.summarize(out.speed.rescaled(), len(out.failures), rss,
                                      setup_samples)
    tail["rounds"] = rounds
    return metrics, tail, out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _import_times():
    """(mwkit.cli, scipy) cumulative import seconds from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mwkit.cli"],
                          capture_output=True, text=True, timeout=120, env=_env())
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-500:])
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            entries.append((int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)))
    mwkit_s = sum(c for c, depth, name in entries if depth == 0 and
                  (name == "mwkit" or name.startswith("mwkit.")))
    # children print before their parent; walk backwards so that a scipy
    # module is counted only when no enclosing import is scipy
    scipy_s, open_scipy = 0.0, []
    for cum, depth, name in reversed(entries):
        while open_scipy and open_scipy[-1] >= depth:
            open_scipy.pop()
        if name == "scipy" or name.startswith("scipy."):
            if not open_scipy:
                scipy_s += cum
            open_scipy.append(depth)
    return mwkit_s, scipy_s


def cli_layer_metrics() -> dict:
    interp = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
    imports = [_import_times() for _ in range(3)]
    from mwkit import cli

    build = []
    for _ in range(5):
        t0 = time.perf_counter()
        cli.build_parser()
        build.append(time.perf_counter() - t0)
    return {"cli.interp_s": (statistics.median(interp), "s"),
            "cli.import_s": (statistics.median(i[0] for i in imports), "s"),
            "cli.import_scipy_s": (statistics.median(i[1] for i in imports), "s"),
            "cli.build_parser_s": (statistics.median(build), "s")}


def measure_traced(name: str, seed: int, workdir: str):
    """One round of every workload in this process (cli_mix through
    ``cli.main``), so that every layer is measured. Each op runs once to
    warm up, then once untraced and once traced, back to back in alternating
    order, so that both see the same host speed and the same cache state;
    the tracing overhead is reported for ``name``."""
    tracer = harness.Tracer()
    outcomes, rates = [], {}
    for wl in [name] + [w for w in WORKLOADS if w != name]:
        mod = importlib.import_module(WORKLOADS[wl])
        d = os.path.join(workdir, wl)
        os.makedirs(d)
        ctx = mod.setup(seed, d)
        runner = mod.run_in_process if wl == "cli_mix" else mod.run
        runner(ctx, mod.prepare(ctx, mod.WARMUP))
        plain, traced = Outcome(wl), Outcome(wl)
        for i, op in enumerate(mod.make_round(seed, 0)):
            runner(ctx, mod.prepare(ctx, op))
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                if not use_tracer:
                    plain.run_op(mod, ctx, op, f"0.{i}", runner)
                    continue
                restore = harness.instrument(tracer)
                try:
                    traced.run_op(mod, ctx, op, f"0.{i}", runner, tracer)
                finally:
                    restore()
        outcomes += [plain, traced]
        rates[wl] = (plain.ops_per_s(), traced.ops_per_s())
    metrics = harness.layer_metrics(tracer.totals(), tracer.counts)
    metrics.update(cli_layer_metrics())
    untraced, traced = rates[name]
    metrics["tracing.untraced_ops_per_s"] = (untraced, "op/s")
    metrics["tracing.traced_ops_per_s"] = (traced, "op/s")
    metrics["tracing.overhead_ops_per_s"] = (traced - untraced, "op/s")
    return metrics, outcomes, tracer, rates


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _result_line(metrics: dict, outcomes) -> str:
    """The last stdout line. failed_frac stays in the summary line only: it is
    0 on a clean run, a relative bound on it means nothing, and the line's
    failed/attempted already carry it."""
    attempted = sum(len(o.latencies) for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                                   if k != "failed_frac"}})


def _print_failures(outcomes):
    for o in outcomes:
        for f in o.failures:
            print(f"failure {f['workload']} {f['kind']} op {f['op']}: {f['reason']}")


def _summary(name: str, metrics: dict, t: dict) -> str:
    parts = [f"{k} = {metrics[k][0]:.6g} {metrics[k][1]}" for k in E2E_ORDER]
    return (f"{name}: " + ", ".join(parts) + f"; tail is p{t['percentile']:.1f} with "
            f"{t['samples_beyond']} of {t['samples']} samples beyond it, {t['rounds']} rounds")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                               name, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True, env=_env())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        combined.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print one set-up time sample (used by the run itself)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mwkit", "__init__.py")):
        print(f"mwkit sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore")
    if args.workload == "all":
        if args.trace or args.setup_only:
            p.error("--workload all runs the untraced workloads only")
        return run_all(args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            setup_s = harness.timed_between_probes(
                lambda: _setup(args.workload, args.seed, workdir))[1]
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, outcomes, tracer, rates = measure_traced(args.workload, args.seed, workdir)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            tracer.write(path, {"workload": args.workload, "seed": args.seed})
            for wl, (plain, traced) in rates.items():
                print(f"tracing {wl}: untraced {plain:.4g} op/s, traced {traced:.4g} op/s")
            print(f"spans written to {os.path.relpath(path, ROOT)}")
        else:
            metrics, tail, out = measure(args.workload, args.seed, args.seconds, workdir)
            outcomes = [out]
            print(_summary(args.workload, metrics, tail))
        # after the timed phase: the machine block imports numpy
        print("machine " + json.dumps(harness.machine_block()))
        _print_failures(outcomes)
        print(_result_line(metrics, outcomes))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
