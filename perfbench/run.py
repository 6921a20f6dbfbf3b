"""weakbounds benchmark: CLI workloads timed end to end, plus a traced run
that breaks each job down by layer.

    python3 perfbench/run.py --workload smoothed --seed 0 --seconds 50 --trace 0

Run it from anywhere inside a checkout; it uses the ``src`` tree next to this
directory and writes only under ``perfbench/_work`` and ``perfbench/_results``.

--trace 0 runs each job's CLI commands one at a time, each in a fresh
``python -m weakbounds.cli`` process as users run them, and reports the
end-to-end metrics named in BENCHMARK.json. Their times are in reference
seconds: each is divided by a fixed reference process timed right after it
(see REF), so that the host's changing speed cancels out. --trace 1 runs the
same jobs inside this process, alternating traced and untraced jobs, and
reports the per-layer metrics. Every output of every command is checked against an
independent exact reference. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS/OpenMP thread, set before numpy loads, here and in children. On a
# shared 2-core host, two BLAS threads made the same job's time vary by +-20%
# from one repetition to the next; one thread, by +-3%.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import ENTRY, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # a second seed that must pass every check too
MIN_JOBS = 2  # a run times at least this many jobs, whatever --seconds says
MAX_WINDOW_S = 100.0  # ...but starts none after this
RUN_LIMIT_S = 170.0  # any command still running then is killed and fails
SETUP_PROBES = 3
# The shared 2-core host changes speed by up to 1.5x, in phases of seconds to
# minutes, and user CPU time moves with wall time. So every timed sample is
# divided by the time of a fixed reference process run right next to it: a
# fresh interpreter importing what weakbounds.cli imports, and nothing of
# weakbounds. Times are then in reference seconds: seconds on a host where the
# reference takes REF_S. Over five runs in a noisy spell this cut the spread
# of job_s from 0.19-0.22 to 0.07-0.08, and of setup_s from 0.08-0.31 to
# 0.02-0.06. The raw seconds stay in the report file.
REF = "import time, numpy, scipy.optimize, scipy.stats; print(time.perf_counter())"
REF_S = 1.0
# How each end-to-end metric sums up its samples in a run: job time and CPU
# as the mean of every job in the window, set-up over its probes and peak RSS
# as a median.
SUMMARY = {"setup_s": "median", "job_s": "mean", "cpu_s": "mean", "peak_rss_mb": "median"}
SUMMARIZE = {"median": statistics.median, "mean": statistics.fmean}
PROBE = "import time, weakbounds.cli as c; print(time.perf_counter(), c.__file__)"


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    reports: int = 0
    unconverged: int = 0
    verified: dict = field(default_factory=dict)  # op name -> (digest, verdict)

    def record(self, op, failure):
        """Count one finished command; check its outputs unless it already failed."""
        self.attempted += 1
        failure = failure or self._check_outputs(op)
        if failure:
            self.failed += 1
            self.problems.append(f"{op.name}: {failure}")

    def _check_outputs(self, op):
        missing = [p.name for p in op.outputs if not p.is_file()]
        if missing:
            return f"missing output {missing}"
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in op.outputs)).hexdigest()
        if op.name in self.verified:
            first, verdict = self.verified[op.name]
            if digest != first:
                return "output not byte-identical to an earlier run on the same inputs"
        else:
            verdict = op.check()
            if verdict.problems:
                return "; ".join(verdict.problems)
            self.verified[op.name] = (digest, verdict)
        self.reports += verdict.reports
        self.unconverged += verdict.unconverged
        return ""


def calibrate():
    """Time a fixed numpy plus pure-Python kernel, to show host speed drift."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    np.sort(rng.random(1_000_000))
    small = rng.random((64, 3))
    for _ in range(10_000):  # small-array calls, the regime the solver runs in
        float(np.exp(small - small.max(axis=1, keepdims=True)).sum())
    index = {}
    for i in range(150_000):  # tuple hashing and allocation, as in signature encoding
        index.setdefault((i % 7, i % 11, i % 13, i), i)
    return time.perf_counter() - start


def host_metadata():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log_stem, deadline):
    """Run one process to completion; return (exit code, cpu s, max RSS MB, stdout)."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
    killer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # e.g. SIGTERM: never leave the child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, cpu, usage.ru_maxrss / 1024.0, out_path.read_text()


def _stderr_tail(log_stem):
    text = log_stem.with_suffix(".err").read_text().strip().splitlines()
    return text[-1] if text else "(no stderr)"


def _fresh_outputs(inputs):
    for inp in inputs:
        shutil.rmtree(inp.dir / "out", ignore_errors=True)
        (inp.dir / "out").mkdir()


def _keep_going(rounds, elapsed, seconds):
    if len(rounds) < MIN_JOBS:
        return elapsed < MAX_WINDOW_S
    return elapsed + statistics.median(rounds) <= min(seconds, MAX_WINDOW_S)


def _timed_probe(code, log_stem, deadline):
    """Seconds from starting a fresh interpreter on ``code`` until it prints its first field."""
    t0 = time.perf_counter()
    rc, _, _, out = run_child([sys.executable, "-c", code], log_stem, deadline)
    if rc != 0:
        raise SystemExit(f"probe {code!r} failed: {_stderr_tail(log_stem)}")
    fields = out.split()
    return float(fields[0]) - t0, fields[1:]


def probe_setup(logs, i, deadline):
    """Setup in reference seconds: fresh interpreter until `import weakbounds.cli`
    returns, over a reference probe run just before it."""
    ref, _ = _timed_probe(REF, logs / f"ref-setup{i}", deadline)
    setup, (path,) = _timed_probe(PROBE, logs / f"probe{i}", deadline)
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"weakbounds imported from {path}, not from {SRC}")
    return setup, ref


def measure_processes(workload, inputs, seconds, work, tally, deadline):
    """End-to-end run: every CLI command in a fresh process, one at a time,
    each followed by a reference probe."""
    logs = work / "logs"
    logs.mkdir()
    jobs = []  # (wall s, cpu s, peak RSS MB, mean reference s), raw
    setup = []  # (setup s, reference s), raw
    all_refs = []
    rounds = []  # one job, its reference probes and one set-up probe
    window = time.perf_counter()
    while _keep_going(rounds, time.perf_counter() - window, seconds):
        begin = time.perf_counter()
        # every job reruns the same inputs, so each run checks byte-identical reruns
        _fresh_outputs(inputs)
        children, walls, refs = [], [], []
        for k, op in enumerate(workload.job(inputs)):
            stem = logs / f"job{len(jobs)}-{k}"
            argv = [sys.executable, "-m", "weakbounds.cli", *op.argv]
            start = time.perf_counter()
            children.append((op, stem, run_child(argv, stem, deadline)))
            walls.append(time.perf_counter() - start)
            refs.append(_timed_probe(REF, logs / f"ref{len(jobs)}-{k}", deadline)[0])
        all_refs += refs
        for op, stem, (rc, _, _, _) in children:
            tally.record(op, rc and f"exit {rc}: {_stderr_tail(stem)}")
        cpu = sum(c[2][1] for c in children)
        jobs.append((sum(walls), cpu, max(c[2][2] for c in children), statistics.fmean(refs)))
        # a probe after each job (so .pyc files are warm), spread over the window
        setup.append(probe_setup(logs, len(setup), deadline))
        rounds.append(time.perf_counter() - begin)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(logs, len(setup), deadline))

    samples = {  # in reference seconds
        "setup_s": [s * REF_S / r for s, r in setup],
        "job_s": [wall * REF_S / r for wall, _, _, r in jobs],
        "cpu_s": [cpu * REF_S / r for _, cpu, _, r in jobs],
        "peak_rss_mb": [j[2] for j in jobs],
    }
    raw = {
        "setup_s": [s for s, _ in setup],
        "job_s": [j[0] for j in jobs],
        "cpu_s": [j[1] for j in jobs],
        "ref_s": all_refs + [r for _, r in setup],
    }
    metrics = {name: SUMMARIZE[SUMMARY[name]](v) for name, v in samples.items()}
    return metrics, samples, raw


def _run_inprocess(main, op, tally):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = main(op.argv)
    except Exception:  # a traceback is a failed operation, not a dead benchmark
        tally.record(op, traceback.format_exc().strip().splitlines()[-1])
        return
    tail = buf.getvalue().strip().splitlines() or [""]
    tally.record(op, rc and f"exit {rc}: {tail[-1]}")


def measure_traced(workload, inputs, seconds, tally):
    """Per-layer run: jobs in this process, traced and untraced in turn."""
    sys.path.insert(0, str(SRC))
    import weakbounds.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"weakbounds imported from {cli.__file__}, not from {SRC}")
    tracer = Tracer()

    def job(traced, pair):
        _fresh_outputs(inputs)
        main = cli.main
        if traced:
            tracer.job = pair
            tracer.install()
            main = tracer.wrap(ENTRY, cli.main)
        start = time.perf_counter()
        try:
            for op in workload.job(inputs):
                _run_inprocess(main, op, tally)
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        return wall

    job(False, None)  # warm-up: lazy imports and first-touch allocations
    pairs = []  # (traced wall, untraced wall) on the same inputs, order alternating
    window = time.perf_counter()
    while not pairs or (time.perf_counter() - window + sum(pairs[-1])
                        <= min(seconds, MAX_WINDOW_S)):
        first = len(pairs) % 2 == 0
        a = job(first, len(pairs))
        b = job(not first, len(pairs))
        pairs.append((a, b) if first else (b, a))

    per_job = [tracer.job_metrics(j) for j in range(len(pairs))]
    # median_low: a value one traced job really had, so counts stay whole
    metrics = {name: statistics.median_low(m[name] for m in per_job) for name in per_job[0]}
    metrics["trace.job_s"] = statistics.median(u for _, u in pairs)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    return metrics, tracer


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (held-out check seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "weakbounds" / "cli.py").is_file():
        print(f"error: no weakbounds source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        calib_start = calibrate()
        inputs = workload.make(work / "data", args.seed)  # input generation is never timed
        if args.trace:
            metrics, tracer = measure_traced(workload, inputs, seconds, tally)
            samples, raw = {}, {}
        else:
            deadline = time.perf_counter() + RUN_LIMIT_S
            metrics, samples, raw = measure_processes(workload, inputs, seconds, work, tally,
                                                      deadline)
        calib_end = calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["host.calib_s"] = statistics.mean([calib_start, calib_end])

    if args.trace:
        tracer.write(results / f"{tag}-spans.jsonl")
        missing = sorted(set(workload.required_spans) - tracer.reached())
        if missing:
            msg = f"TRACE SELF-CHECK FAILED on {workload.name}: never reached {missing}"
            print(msg)
            print(msg, file=sys.stderr)
            return 3
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: metrics not produced: {absent}", file=sys.stderr)
        return 3

    meta = {**host_metadata(), "calib_s_start": calib_start, "calib_s_end": calib_end}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": meta,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "solver_reports": tally.reports,
        "solver_unconverged": tally.unconverged,
        "metrics": metrics,
        "samples": samples,
        "raw_samples": raw,
    }
    if args.trace:
        job_s = metrics["cli.main.s"] or 1.0
        report["shares_of_traced_job"] = {
            k[:-2]: v / job_s for k, v in metrics.items() if k.endswith(".s") and v
        }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}",
             "host " + " ".join(f"{k}={v}" for k, v in meta.items())]
    for m in wanted:
        name = m["name"]
        line = f"  {name:<40} {metrics[name]:>14.6g} {m['unit']}"
        if name in raw:
            summary = SUMMARY[name]
            line += (f"  ({summary} of {len(samples[name])} in reference s;"
                     f" raw {SUMMARIZE[summary](raw[name]):.6g} s)")
        elif name in samples:
            line += f"  ({SUMMARY[name]} of {len(samples[name])})"
        lines.append(line)
    if raw:
        lines.append(f"  {'reference probe':<40} {statistics.fmean(raw['ref_s']):>14.6g} s"
                     f"  (mean of {len(raw['ref_s'])}; REF_S = {REF_S:g} s)")
    if not args.trace:
        lines.append(f"  {'fail_ratio':<40} {tally.failed / max(tally.attempted, 1):>14.6g} 1"
                     f"  ({tally.failed} failed of {tally.attempted} commands)")
        ratio = tally.unconverged / tally.reports if tally.reports else float("nan")
        lines.append(f"  {'unconverged_ratio':<40} {ratio:>14.6g} 1"
                     f"  ({tally.unconverged} of {tally.reports} solver reports)")
    lines += [f"  FAILED {p}" for p in tally.problems[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
