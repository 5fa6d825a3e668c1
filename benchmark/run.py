"""End-to-end benchmark of the loccdetect command line.

Run from the repository root:

    python3 benchmark/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

One client drives ``loccdetect.cli.run`` in this process, warm, as a closed
loop: each request is sent when the previous one has returned.  Requests
come in seeded cycles (see ``workloads.py``).  A run sends as many whole
cycles as take about ``--seconds`` (``workloads.CYCLE_SECONDS``), so every
run of a workload sends the same number and kinds of requests, and its tail
percentile is the same in every run.  Every payload is checked by the
independent oracle in ``oracle.py``, and every request runs under a SIGALRM
time limit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends the first
OVERHEAD_JOBS jobs of each cycle untraced, then the whole cycle traced with
the spans of ``spans.py``, and prints the per-layer metrics plus the tracing
overhead.  A JSON record with the
machine, the output digest and the failure causes is printed first; the
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = "benchmark/_work"

#: Per-request limit, well above the slowest legitimate request (about 0.6 s
#: for a d = 16 adversary on a 2-core x86-64 machine).
REQUEST_LIMIT_S = 3.0
#: One BLAS thread: the matrices are at most 256 x 256, where a second
#: thread gains little and makes timings depend on other processes' load.
BLAS_THREADS = 1
#: Jobs per cycle that a traced run also sends untraced, to measure overhead.
OVERHEAD_JOBS = 45
#: Cold start-ups per run; setup_s is their median.
SETUP_REPS = 11
#: The layer expected to have the most self time on each workload.
PREDICTED_DOMINANT = {"pipeline": ("analysis",), "shots": ("simulator",),
                      "tables": ("asymptotics", "cli")}
#: Failures the program is known to produce on these workloads, and why.
KNOWN_FAILURES = {
    ("overrun", "product", "theta=1e-15"):
        "the worst-case dual search never shrinks its bracket below the float "
        "spacing near mu = 1e6, so it does not return",
    ("SystemExit 2", "q2", None):
        "the bounds and adversary --measurement choices omit q2, so argparse refuses it",
}


class Overrun(BaseException):
    """Raised from SIGALRM when a request outlives REQUEST_LIMIT_S."""


def _on_alarm(signum, frame):
    raise Overrun()


class Tally:
    """Outcomes of the requests of one pass or run."""

    def __init__(self):
        self.ok_latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.oracle_misses = 0
        self.shots = 0
        self.rows = 0
        self.bytes_out = 0
        self.causes: Counter = Counter()
        self.examples: dict[str, str] = {}


def _payload(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(True) if not line.startswith("#"))


def execute(cli, request, tally: Tally, digest=None) -> bool:
    """Send one request, check its payload, and record the outcome."""
    if request.output:
        with contextlib.suppress(FileNotFoundError):
            os.remove(request.output)
    # Collect the client's garbage (oracle parses, captured output) now, so
    # no collection triggered by it runs inside the timed request.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(request.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        cause = None if code == 0 else f"exit {code}"
    except Overrun:
        cause = "overrun"
    except SystemExit as exc:
        cause = f"SystemExit {exc.code}"
    except Exception as exc:  # a crash of the program under test is a failed request
        cause = f"uncaught {type(exc).__name__}"
    latency = time.perf_counter() - start
    tally.attempted += 1
    tally.busy += latency
    tally.bytes_out += len(out.getvalue())
    payload = _payload(out.getvalue())
    detail = err.getvalue().strip()[-300:]
    if cause is None:
        try:
            problems = request.check(payload)
        except Exception as exc:  # a payload the oracle cannot parse is wrong
            problems = [f"unreadable payload ({type(exc).__name__}: {exc})"]
        if problems:
            tally.oracle_misses += 1
            cause, detail = "oracle miss", "; ".join(problems[:3])
    if digest is not None:
        digest.update(f"{cause or 'ok'}\n{payload}\n".encode())
    if cause is not None:
        tally.failed += 1
        # Failures are grouped across dimensions.
        key = f"{cause} | " + " ".join(w for w in request.label.split() if not w.startswith("d="))
        tally.causes[key] += 1
        tally.examples.setdefault(key, f"{request.label}: {detail}")
        return False
    tally.ok_latencies.append(latency)
    tally.shots += request.shots
    tally.rows += request.rows
    return True


def run_cycle(cli, jobs, tally: Tally, digest=None) -> None:
    for job in jobs:
        for request in job:
            if not execute(cli, request, tally, digest):
                break


def measure_setup() -> tuple[float, float]:
    """Median cold start of the CLI and of a bare interpreter, in seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def cold(args):
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which quantizes the measured time.
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - start

    interpreter, full = [], []
    for _ in range(SETUP_REPS):
        interpreter.append(cold(["-c", "pass"]))
        full.append(cold(["-m", "loccdetect.cli", "--version"]))
    return statistics.median(full), statistics.median(interpreter)


def self_check(cli, workloads, oracle) -> list[str]:
    """Warm the program up and show that the oracle can fail.

    An honest bounds payload must pass; the same payload with p_err moved by
    1e-6 must not, and neither may a sigma file holding the target itself.
    """
    s = oracle.Spectrum([0.5, 0.3, 0.2])
    theta = 0.3
    warm = workloads.pipeline_job(3, "t-tilde", theta, s.c, 7, {}, f"{WORKDIR}/warm.json")
    bounds, chain = warm[0], warm[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(list(bounds.argv))
    honest = Tally()
    run_cycle(cli, [chain], honest)
    for argv in (("asymptotic", "--lambda", "0.7", "--alpha", "0.5", "--theta", "0.2"),
                 ("figure2", "--grid", "20"), ("chernoff", "--lambda", "0.9")):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(list(argv))
    problems = []
    if honest.failed:
        problems.append(f"warm-up chain failed: {honest.examples}")
    payload = _payload(out.getvalue())
    if oracle.check_bounds(s, theta, "t-tilde", None, payload):
        problems.append("oracle rejected an honest bounds payload")
    fields = oracle.parse_fields(payload)
    moved = float(fields["p_err"]) + 1e-6
    perturbed = payload.replace(f"p_err = {fields['p_err']}", f"p_err = {moved:.12g}")
    if not oracle.check_bounds(s, theta, "t-tilde", None, perturbed):
        problems.append("oracle accepted a bounds payload with p_err moved by 1e-6")
    path = f"{WORKDIR}/infeasible.json"
    ket = s.ket()
    entries = [[float(x), 0.0] for x in (ket[:, None] * ket[None, :]).reshape(-1)]
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"format": "bipartite-operator", "local_dim": s.d, "entries": entries}, fh)
    t = oracle.effect("t-tilde", s)
    value = oracle.worst_case("t-tilde", s, theta)
    if not oracle.check_sigma(s, theta, t, value, oracle.read_operator_file(path)):
        problems.append("oracle accepted a sigma file with overlap 1 above theta")
    return problems


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = max(n - 11, 0)
    return {
        "samples": n,
        "p50_ms": 1e3 * statistics.median(ordered),
        "tail_ms": 1e3 * ordered[tail_index],
        "tail_percentile": 100.0 * tail_index / n,
        "samples_beyond_tail": n - 1 - tail_index,
    }


def _explain(tally: Tally) -> dict:
    out = {}
    for key, count in tally.causes.items():
        cause, _, label = key.partition(" | ")
        why = "unexpected"
        for (known_cause, name, theta), text in KNOWN_FAILURES.items():
            words = label.split()
            if cause == known_cause and name in words and (theta is None or theta in words):
                why = text
        out[key] = {"count": count, "why": why, "example": tally.examples[key]}
    return out


def machine_record(load_before) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown: not a git checkout"
    except OSError:
        commit = "unknown: git not found"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "shots", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "loccdetect", "cli.py")):
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    from loccdetect import cli

    import oracle
    import spans
    import workloads

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported {cli.__file__}, not the checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        setup_s, interpreter_s = measure_setup()
        problems = self_check(cli, workloads, oracle)
        make_cycle = workloads.WORKLOADS[args.workload]
        sim_stats: dict = {}
        digest = hashlib.sha256()
        plain, traced = Tally(), Tally()
        tracer = spans.Tracer()
        traced_wall = traced_head_busy = 0.0
        cycles = max(1, round(args.seconds / workloads.CYCLE_SECONDS[args.workload]))
        start = time.perf_counter()
        for cycle in range(cycles):
            jobs = make_cycle(args.seed, cycle, sim_stats, WORKDIR)
            if not args.trace:
                run_cycle(cli, jobs, plain, digest if cycle == 0 else None)
            else:
                # The overhead compares an untraced and a traced pass over
                # the same first jobs of the cycle.
                run_cycle(cli, jobs[:OVERHEAD_JOBS], plain)
                pass_start = time.perf_counter()
                head_start = traced.busy
                with tracer.installed():
                    run_cycle(cli, jobs[:OVERHEAD_JOBS], traced)
                    traced_head_busy += traced.busy - head_start
                    run_cycle(cli, jobs[OVERHEAD_JOBS:], traced)
                traced_wall += time.perf_counter() - pass_start
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    tally = traced if args.trace else plain
    latency = latency_summary(plain.ok_latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(plain.ok_latencies) / plain.busy, "1/s"),
        "latency_p50_ms": (latency["p50_ms"], "ms"),
        "latency_tail_ms": (latency["tail_ms"], "ms"),
        "success_frac": (1.0 - plain.failed / plain.attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": cycles,
        "elapsed_s": elapsed,
        "request_limit_s": REQUEST_LIMIT_S,
        "machine": machine_record(load_before),
        "digest_first_cycle_sha256": None if args.trace else digest.hexdigest(),
        "latency": latency,
        "failed_frac": plain.failed / plain.attempted,
        "shots_per_s": plain.shots / plain.busy,
        "csv_rows_per_s": plain.rows / plain.busy,
        "failures": _explain(traced if args.trace else plain),
        "oracle_misses": plain.oracle_misses + traced.oracle_misses,
        "simulate_ci_exceedances": sim_stats,
        "self_check_problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    correct = not problems and record["oracle_misses"] == 0
    if args.trace:
        layers = tracer.metrics()
        spanned_self = sum(tracer.self_time.values())
        unspanned = traced_wall - tracer.root_busy
        accounted = abs(spanned_self + unspanned - traced_wall) <= 1e-6 * max(traced_wall, 1.0)
        correct = correct and accounted and not tracer.stack
        by_layer = tracer.self_by_layer()
        dominant = max(by_layer, key=by_layer.get)
        layers.update({
            "cli.run.bytes_out": (traced.bytes_out, "B"),
            "setup.interpreter_s": (interpreter_s, "s"),
            "setup.import_s": (setup_s - interpreter_s, "s"),
            "trace.overhead_frac": (traced_head_busy / plain.busy - 1.0, "frac"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.unspanned_s": (unspanned, "s"),
        })
        record["trace"] = {
            "self_s_by_layer": by_layer,
            "dominant_layer": dominant,
            "predicted_dominant": PREDICTED_DOMINANT[args.workload],
            "dominant_as_predicted": dominant in PREDICTED_DOMINANT[args.workload],
            "self_plus_unspanned_equals_wall": accounted,
        }
        metrics = layers
    else:
        metrics = end_to_end
    print(json.dumps(record, indent=1, default=str))
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
