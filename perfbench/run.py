"""Benchmark of the usdisc command line, driven in process.

    python3 perfbench/run.py --workload solve-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; usdisc is imported from `src/`.
With `--trace 0` the named workload runs untraced for `--seconds` and the
end-to-end metrics are reported. With `--trace 1` every workload is run
for a third of `--seconds`, alternating plain and traced batches of the
same requests, and the per-layer metrics are reported under names that
start with the workload they were read on. Human-readable lines come
first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported; the
# imports below come after this on purpose.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import spans
from workloads import TAMPER_CLASSES, WORKLOADS, Tally, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Fresh-interpreter set-ups timed before and again after the timed loop,
# so the median spans the run rather than one moment of it.
SETUP_REPEATS = 8
# setup_s is set-up time in reference units (see measure_setup) scaled to
# seconds on a machine where one reference probe takes this long.
REF_NOMINAL_MS = 10.0
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
from usdisc import cli
rc = cli.main(["solve", "--input", sys.argv[1], "--output", sys.argv[2]])
print(time.perf_counter() - t0)
sys.exit(rc)
"""

# Requests in one plain or traced batch of the traced run. Batches are
# identical, so per-request counts repeat exactly across runs of a seed.
TRACE_BATCH = {"solve-certify": 40, "bb84-sweep": 1, "oracle-fallback": 3}

# Layers each workload reaches; per-layer times are reported for these.
REACHED = {
    "solve-certify": ("cli", "serialize", "problem", "linalg", "bounds",
                      "certificates", "solvers"),
    "bb84-sweep": ("cli", "problem", "linalg", "bounds", "certificates",
                   "solvers", "bb84"),
    "oracle-fallback": ("cli", "serialize", "problem", "linalg", "bounds",
                        "certificates", "solvers", "oracle"),
}

# A reference probe runs before a request once the last probe is older
# than PROBE_EVERY_S; see reference_ms.
PROBE_EVERY_S = 0.2
REF_REPEATS = 20
_REF_PAIR = inputs.reference_pair()
_REF_BATCH = inputs.reference_batch()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure_setup(problem, report):
    """Time each of SETUP_REPEATS fresh interpreters takes to import
    usdisc.cli and run one small solve: the set-up every command-line
    call pays. Returns (seconds, reference units) per interpreter; the
    latter divides by the mean of the median of three reference probes
    taken just before and of three just after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(reference_ms() for _ in range(3))
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, problem, report],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        after = statistics.median(reference_ms() for _ in range(3))
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append((seconds, seconds * 1e3 / (0.5 * (before + after))))
    return times


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = ",".join(f"{v}={os.environ[v]}" for v in THREAD_PINS)
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} {pins}")


def reference_ms():
    """Time of a fixed computation, without usdisc, that mixes what the
    workloads spend their time on: the numpy reference math for one d = 4
    pair's rank-condition operators (small dense linear algebra driven
    from Python), and batched eigendecompositions with a PSD clip (the
    oracle's kernel)."""
    t0 = perf_counter()
    for _ in range(REF_REPEATS):
        inputs.rank_condition_min(*_REF_PAIR)
    for _ in range(3 * REF_REPEATS):
        w, v = np.linalg.eigh(_REF_BATCH)
        x = (v * np.clip(w, 0.0, None)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))
    return (perf_counter() - t0) * 1e3


def run_workload(w, seconds):
    """Closed loop for `seconds`. Returns the tally and, per request, its
    latency in reference units: divided by the mean of the reference
    probes taken just before and just after it."""
    tally = Tally()
    probes = [reference_ms()]
    last_probe = perf_counter()
    preceding = []
    deadline = last_probe + seconds
    index = 0
    while perf_counter() < deadline:
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(reference_ms())
            last_probe = perf_counter()
        preceding.append(len(probes) - 1)
        w.run(index, tally)
        index += 1
    probes.append(reference_ms())
    in_ref = [ms / (0.5 * (probes[k] + probes[k + 1]))
              for ms, k in zip(tally.request_ms, preceding)]
    return tally, in_ref, probes


def end_to_end(name, tally, in_ref, probes, setup_times):
    n = tally.attempted
    req = tally.request_ms
    setup_ref = statistics.median(ref for _, ref in setup_times)
    metrics = {
        "setup_s": (setup_ref * REF_NOMINAL_MS / 1e3, "s"),
        "request_ref.mean": (statistics.fmean(in_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{name} requests={n} (closed loop, one client); "
          f"reference probe p50={statistics.median(probes):.4g} ms over {len(probes)} probes")
    extra = {
        "setup_ref": (setup_ref, "ref"),
        "setup_raw_s": (statistics.median(s for s, _ in setup_times), "s"),
        "request_ref.p50": (statistics.median(in_ref), "ref"),
        "request_ms.p50": (statistics.median(req), "ms"),
        "failed_frac": (tally.failed / n, "frac"),
    }
    if name == "bb84-sweep":
        extra["sweep_s.p50"] = (statistics.median(req) / 1e3, "s")
    else:
        # one client, so requests completed per second of request time
        extra["solves_per_s"] = (n / (sum(req) / 1e3), "1/s")
        for key, values in (("solve_ms", tally.solve_ms), ("certify_ms", tally.certify_ms)):
            extra[f"{key}.p50"] = (statistics.median(values), "ms")
            # a p99 needs at least ten samples beyond it
            if len(values) >= 1000:
                extra[f"{key}.p99"] = (percentile(values, 99), "ms")
    if name == "oracle-fallback":
        extra["certified_frac"] = ((n - tally.failed - tally.uncertified) / n, "frac")
    if tally.tampered:
        caught = {kind: tally.tamper_caught[kind] / tally.tampered[kind]
                  for kind in TAMPER_CLASSES}
        # classes weigh equally, however the last cycle of them was cut
        extra["tamper_caught_frac"] = (statistics.fmean(caught.values()), "frac")
        for kind, frac in caught.items():
            extra[f"tamper_caught_frac.{kind}"] = (frac, "frac")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    return metrics


def traced_workload(w, tally, seconds):
    """Alternate plain and traced batches of the same requests."""
    name = w.name
    batch = TRACE_BATCH[name]
    plain, traced = Tally(), Tally()
    tracer = spans.Tracer()
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        for k in range(batch):
            w.run(k, plain, tamper=False)
        tracer.install()
        try:
            for k in range(batch):
                tracer.request = f"{name}:{rounds}:{k}"
                w.run(k, traced, tamper=False)
        finally:
            tracer.uninstall()
        # later rounds repeat the same requests; their spans add nothing
        tracer.keep_spans = False
        rounds += 1
    for t in (plain, traced):
        tally.request_ms += t.request_ms
        tally.failed += t.failed
        tally.failures += t.failures

    n = traced.attempted
    metrics = {}

    def put(key, value, unit):
        metrics[f"{name}.{key}"] = (value, unit)

    for layer in REACHED[name]:
        if layer == "certificates":
            fit = (tracer.self_time["certificates.fit_certificate"]
                   + tracer.self_time["certificates.build_fidelity_certificate"])
            put("certificates.fit_ms", fit / n * 1e3, "ms")
            put("certificates.verify_ms",
                tracer.self_time["certificates.verify_certificate"] / n * 1e3, "ms")
        else:
            put(f"{layer}.ms", tracer.layer_self_time(layer) / n * 1e3, "ms")
    linalg_calls = sum(c for f, c in tracer.calls.items() if f.startswith("linalg."))
    put("linalg.calls", linalg_calls / n, "count")
    put("linalg.np_eig_calls", tracer.eig_calls["linalg"] / n, "count")
    put("np_eig_calls", sum(tracer.eig_calls.values()) / n, "count")
    if name != "oracle-fallback":
        put("bounds.fidelity_operators_calls",
            tracer.calls["bounds.fidelity_operators"] / n, "count")
    if name != "bb84-sweep":
        fits = tracer.calls["certificates.fit_certificate"]
        found = fits - tracer.none_results["certificates.fit_certificate"]
        put("certificates.fit_success_frac", found / fits, "frac")
    if name == "solve-certify":
        for branch in ("FirstClassFidelity", "GuProjective"):
            put(f"solvers.branch_frac.{branch}", traced.branches[branch] / n, "frac")
    if name == "oracle-fallback":
        put("solvers.branch_frac.OracleOnly", traced.branches["OracleOnly"] / n, "frac")
        put("oracle.iterations", statistics.fmean(traced.oracle_iterations), "count")
        put("oracle.np_eig_calls", tracer.eig_calls["oracle"] / n, "count")
        put("oracle.us_per_eig_call",
            tracer.eig_time["oracle"] / tracer.eig_calls["oracle"] * 1e6, "us")
        put("oracle.converged_frac", statistics.fmean(traced.oracle_converged), "frac")
    put("trace.overhead_frac", sum(traced.request_ms) / sum(plain.request_ms) - 1.0, "frac")
    print(f"{name} traced {rounds} batch(es) of {batch} request(s); "
          f"{len(tracer.spans)} spans")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return metrics, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "usdisc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no usdisc sources under {SRC}; run from a source checkout\n")
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _run(args, workdir):
    # inputs are made before usdisc is imported, so it cannot touch them
    names = WORKLOADS if args.trace else (args.workload,)
    loads = []
    for name in names:
        sub = workdir / name
        sub.mkdir(parents=True)
        loads.append(Workload(name, args.seed, str(sub)))
    warm = str(workdir / "warmup.json")
    warm_report = str(workdir / "warmup-report.json")
    with open(warm, "w", encoding="utf-8") as fh:
        fh.write(inputs.warmup_text())

    print(f"# machine: {machine_facts()}")
    for w in loads:
        print(f"# inputs: {w.name} seed={args.seed} sha256={w.digest}")

    setup_times = [] if args.trace else measure_setup(warm, warm_report)
    sys.path.insert(0, str(SRC))
    from usdisc import cli
    for w in loads:
        w.cli = cli
    if cli.main(["solve", "--input", warm, "--output", warm_report]) != 0:
        sys.stderr.write("error: warm-up solve failed\n")
        return 1

    if args.trace:
        tally = Tally()
        metrics = {}
        tracers = []
        for w in loads:
            m, tracer = traced_workload(w, tally, args.seconds / len(loads))
            metrics.update(m)
            tracers.append(tracer)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-seed{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for tracer in tracers:
                tracer.write(fh)
        print(f"# spans written to {span_file.relative_to(ROOT)}")
    else:
        tally, in_ref, probes = run_workload(loads[0], args.seconds)
        setup_times += measure_setup(warm, warm_report)
        metrics = end_to_end(args.workload, tally, in_ref, probes, setup_times)

    for reason, count in sorted(tally.failures.items()):
        sys.stderr.write(f"check failed {count}x: {reason}\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
