"""Benchmark for diamondfield: one workload per process, one thread of work.

    python3 perfbench/run.py --workload {spectrum,fig2,oracle} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
`src/` and exits with code 2 when that is missing.  With --trace 0 it
repeats the workload's batch of operations while the measured time stays
within --seconds (at least one batch) and prints the end-to-end metrics,
with times scaled to a reference host speed by SpeedProbe.  With --trace 1
it runs one batch untraced and the same batch with every layer wrapped by
perfbench/tracer.py, and prints the per-layer metrics.
Every operation is checked outside its timed span.  The last line of
stdout is the result object; a report with the environment, the operation
list and the output digests goes to .bench_out/ and the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
SETUP_PERIOD = 0.05  # seconds between python_unit samples in a set-up child
PYTHON_UNIT_REF_S = 0.0006

# reference figures from the ROADMAP Baseline table, reported next to the traced ones
ROADMAP_BASELINE = {
    "mp_calls_per_occupation": "63k-84k",
    "ms_per_fig2_covariance": "78",
    "s_per_kg_product": "0.28-0.33",
    "s_per_cross_moments": "~0.4",
}


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def measure_setup(lazy_imports):
    """Seconds to import diamondfield and its CLI (and the modules the
    workload's operations import lazily) in a fresh interpreter, as the lower
    quartile over SETUP_REPEATS children; also the raw and scaled child
    times.  numpy is not loaded before the clock starts, so each child
    samples the host with python_unit alone: a SIGALRM handler runs it every
    SETUP_PERIOD seconds during the imports, its wall time is left out of
    the import time, and the mean unit scales that time to the reference
    host speed."""
    code = "\n".join([
        "import importlib, signal, time",
        inspect.getsource(python_unit),
        "units, spent = [], [0.0]",
        "def sample(*_):",
        "    t = time.perf_counter()",
        "    units.append(python_unit())",
        "    spent[0] += time.perf_counter() - t",
        "signal.signal(signal.SIGALRM, sample)",
        f"signal.setitimer(signal.ITIMER_REAL, {SETUP_PERIOD}, {SETUP_PERIOD})",
        "t = time.perf_counter()",
        "import diamondfield, diamondfield.cli",
        "diamondfield.cli.build_parser()",
        f"for m in {list(lazy_imports)!r}: importlib.import_module(m)",
        "d = time.perf_counter() - t - spent[0]",
        "signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)",
        "sample()",
        "print(repr(d), repr(sum(units) / len(units)))",
    ])
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        d, unit = map(float, proc.stdout.split())
        raw.append(d)
        scaled.append(d * PYTHON_UNIT_REF_S / unit)
    return statistics.quantiles(scaled, n=4, method="inclusive")[0], raw, scaled


def digest(text):
    # validate's '# elapsed=' line reports wall time; every other byte must repeat
    return hashlib.sha256(re.sub(r"elapsed=[0-9.]+s", "elapsed=<t>s", text).encode()).hexdigest()


def python_unit():
    """Thread CPU seconds of a fixed piece of Python big-int arithmetic.
    CPU time leaves out any wait for a core or the GIL."""
    c = time.thread_time()
    n = 1
    for _ in range(900):
        n = (n * 0x9E3779B97F4A7C15 + 12345) % (1 << 600)
    return time.thread_time() - c


def calibration_unit():
    """Thread CPU seconds of the unit of host-speed calibration: python_unit
    plus small and dense numpy arrays, no package code."""
    import numpy as np

    c = time.thread_time()
    python_unit()
    x, u = np.linspace(0.5, 1.5, 96), np.linspace(-3.0, 3.0, 64)
    for j in range(36):
        (np.exp(1j * x * j) * np.log(x + j)).sum()
    np.exp(-1j * np.multiply.outer(u, x)).sum()
    return time.thread_time() - c


class SpeedProbe:
    """Samples the host's speed while a batch runs.

    Every PERIOD seconds a SIGALRM handler runs one calibration unit in the
    workload's own thread, so it measures the core the workload is on.  (A
    sampler in a separate process, on the other core, tracked the
    workload's speed no better than no sampler: see perfbench/README.md.)
    The handler's wall time is left out of every span it lands in, and
    `scale` converts the batch's seconds to seconds at the speed where one
    unit takes UNIT_REF_S of CPU time.  On a shared host whose speed drifts
    by 20% over minutes, this removes most of the drift that no run length
    averages out.
    """

    PERIOD = 0.2
    UNIT_REF_S = 0.0015
    MARGIN_S = 1.0  # units up to this far outside a span still count for it

    def __init__(self):
        self.units = []  # (start, CPU seconds) of every calibration unit
        self.spent = 0.0  # wall seconds spent in the handler
        self.busy = False

    def sample(self, *_):
        if self.busy:  # a signal that lands inside the unit is dropped
            return
        self.busy = True
        t = time.perf_counter()
        self.units.append((t, calibration_unit()))
        self.spent += time.perf_counter() - t
        self.busy = False

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def scale(self, start=-float("inf"), end=float("inf")):
        """Reference seconds per measured second over [start, end] (the whole
        probe when no span is given)."""
        near = [d for t, d in self.units if start - self.MARGIN_S <= t <= end + self.MARGIN_S]
        return self.UNIT_REF_S / statistics.fmean(near or [d for _, d in self.units])


def run_batch(ops, cli, rec=None, probe=None):
    """Run ops back to back; (results, per-op (start, seconds), batch wall s,
    batch cpu s).  With a probe, its own time is left out of every figure."""
    from workloads import run_op

    results, op_s = [], []
    spent = (lambda: probe.spent) if probe else (lambda: 0.0)
    c0, w0, p0 = time.process_time(), time.perf_counter(), spent()
    for i, argv in enumerate(ops):
        if rec is not None:
            rec.op = i
        t, p = time.perf_counter(), spent()
        results.append(run_op(argv, cli))
        op_s.append((t, time.perf_counter() - t - (spent() - p)))
    probe_s = spent() - p0
    return results, op_s, time.perf_counter() - w0 - probe_s, time.process_time() - c0 - probe_s


def src_lines():
    return {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
            for p in sorted((SRC / "diamondfield").glob("*.py"))}


def environment():
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def source_hash():
    h = hashlib.sha256()
    for p in sorted((SRC / "diamondfield").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class DigestLog:
    """Digest of every CLI output by command line, kept across batches and
    across runs of the same package source at the same seed; any mismatch
    marks the run incorrect.  A log written by other source starts afresh,
    since a change may alter output bytes on purpose."""

    def __init__(self, path, source):
        self.path, self.source = path, source
        saved = json.loads(path.read_text()) if path.is_file() else {}
        self.known = saved.get("digests", {}) if saved.get("source") == source else {}
        self.mismatches = []

    def record(self, ops, results):
        for argv, (code, out) in zip(ops, results):
            key, d = " ".join(argv), f"{code}:{digest(out)}"
            if self.known.setdefault(key, d) != d:
                self.mismatches.append(key)

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps({"source": self.source, "digests": self.known},
                                        indent=1, sort_keys=True))


def untraced(wl, args, cli, log):
    setup_s, setup_raw, setup_scaled = measure_setup(wl.lazy_imports)
    walls, cpus, op_s, batches = [], [], [], []
    attempted = failed = 0
    worst = 0.0
    measured, index = 0.0, 0
    while True:
        ops = wl.make_batch(args.seed, index)
        with SpeedProbe() as probe:
            results, ts, wall, cpu = run_batch(ops, cli, probe=probe)
        k = probe.scale()
        flags, err = wl.check(ops, results)
        log.record(ops, results)
        walls.append(wall * k)
        cpus.append(cpu * k)
        # each operation is scaled by the host speed sampled around it
        op_s += [d * probe.scale(t, t + d) for t, d in ts]
        attempted += len(ops)
        failed += sum(flags)
        worst = max(worst, err)
        batches.append({"ops": [" ".join(a) for a in ops], "raw_wall_s": wall, "raw_cpu_s": cpu,
                        "scale": k, "probe_units": len(probe.units)})
        measured += wall * k
        index += 1
        if measured + wall * k > args.seconds:
            break
    q = statistics.quantiles(op_s, n=10, method="inclusive") if len(op_s) > 1 else [op_s[0]] * 9
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "op_p50_s": _metric(statistics.median(op_s), "s"),
        "op_p90_s": _metric(q[8], "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric((attempted - failed) / attempted, "1"),
        "max_rel_err": _metric(worst, "1"),
    }
    report = {"batches": batches, "raw_setup_s": setup_raw, "scaled_setup_s": setup_scaled}
    return attempted, failed, metrics, report


def traced(wl, args, cli, log):
    import tracer

    ops = wl.make_batch(args.seed, 0)
    results, _, wall0, _ = run_batch(ops, cli)
    flags, _ = wl.check(ops, results)
    log.record(ops, results)
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        results_t, _, wall1, _ = run_batch(ops, cli, rec)
    finally:
        uninstall()
    log.record(ops, results_t)  # tracing must not change a single output byte
    metrics = tracer.layer_metrics(rec, src_lines(), (wall1 - wall0) / wall0)
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"spans-{wl.name}-{args.seed}.jsonl")

    tot = rec.totals()

    def per_call(num, den, q="s", scale=1.0):
        n = tot.get(den, {}).get("calls", 0)
        return scale * tot.get(num, {}).get(q, 0) / n if n else None

    report = {
        "ops": [" ".join(a) for a in ops],
        "untraced_wall_s": wall0,
        "traced_wall_s": wall1,
        "baseline_comparison": {
            "roadmap": ROADMAP_BASELINE,
            "traced": {
                "mp_calls_per_occupation": per_call(tracer.MP_SPAN, "bogoliubov.thermal_occupation", "calls"),
                "ms_per_fig2_covariance": per_call("gaussian.build_covariance", "gaussian.build_covariance", scale=1e3),
                "s_per_kg_product": per_call("modes.kg_product", "modes.kg_product"),
                "s_per_cross_moments": per_call("correlations.cross_moments", "correlations.cross_moments"),
            },
        },
    }
    return len(ops), sum(flags), metrics, report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "diamondfield" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'diamondfield'}; run from a diamondfield checkout")
    for v in THREAD_VARS:
        os.environ[v] = "1"  # one thread of work, set before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    import diamondfield.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "diamondfield").resolve():
        return _fail(f"imported diamondfield from {cli.__file__}, not from {SRC}")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    for m in wl.lazy_imports:
        __import__(m)  # lazy set-up is paid before timing; setup_s accounts for it

    log = DigestLog(OUT / "digests" / f"{wl.name}-{args.seed}.json", source_hash())
    run = traced if args.trace else untraced
    attempted, failed, metrics, report = run(wl, args, cli, log)
    log.save()

    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    report.update(workload=wl.name, why=why.get(wl.name), seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(),
                  digest_mismatches=log.mismatches, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({k: report[k] for k in ("workload", "seed", "environment", "digest_mismatches")}
                     | {"baseline_comparison": report.get("baseline_comparison")}))
    correct = failed == 0 and not log.mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
