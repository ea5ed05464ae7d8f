"""One benchmark workload in one fresh process.

Usage (normally started by ``run.py``, which pins the environment):

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --setup-only

The first thing the process does is import ``eucalc.cli`` and time it: that
is one sample of ``setup_s``.  With ``--setup-only`` it prints that time and
stops.  Otherwise it runs whole rounds of requests (see ``gen.py``) through
``eucalc.cli.main`` in-process, one at a time, until the next round would
end after ``--seconds`` (but at least ``MIN_ROUNDS`` rounds); then it checks
every response outside the timed region and prints one JSON object.

Times are CPU seconds of this process (user + system) scaled to a reference
speed.  The machine the benchmark was defined on is shared, and its speed
drifts by 20-30 % over minutes; a fixed reference loop, independent of
eucalc, is timed the same way after every request and after the import, and
each time is multiplied by ``REF_S`` over the median loop time of its round
(or of the set-up).  A time is then what it would be on a machine where the
loop takes ``REF_S``, which on the defining machine is about the same as
the raw time.  The raw wall-clock figures are reported next to them.

With ``--trace 1`` it runs a fixed number of rounds, each one untraced and
then traced, and reports the per-layer metrics of the traced passes and the
tracing overhead.  The round count is fixed so that per-layer counts compare
across versions of the program.
"""

import argparse
import sys
import time

_T0 = time.process_time()
import eucalc.cli  # noqa: E402  (timed: this import is the set-up a CLI user pays)

SETUP_CPU_S = time.process_time() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
# rounds of the traced run: about 10 s each way at the seed commit
TRACE_ROUNDS = {"scene_grid": 3, "mesh_curves": 5, "radon_recover": 4,
                "verify_small": 10}
# a timed run holds at least this many rounds of 15 requests, so that at
# least 10 requests lie beyond the 90th percentile
MIN_ROUNDS = 7
# CPU seconds of ``reference_loop`` at the reference speed
REF_S = 0.005
# reference loops timed after the import for the set-up's speed factor
SETUP_REF_LOOPS = 9


def reference_loop():
    """CPU seconds of a fixed piece of work in the style of eucalc's own:
    small objects sorted and merged into dicts, and short numpy arrays."""
    start = time.process_time()
    items = [(k * 0.5, k * 0.5 + 1.0, k % 7 - 3) for k in range(400)]
    for _ in range(9):
        items.sort(key=lambda p: (p[1], -p[0]))
        merged = {}
        for lo, _, v in items:
            key = round(lo, 3)
            merged[key] = merged.get(key, 0) + v
        sum(v for v in merged.values() if v)
        np.searchsorted(np.sort(np.array([p[1] for p in items])), 10.0)
    return time.process_time() - start


def speed_factor(loop_times):
    return REF_S / statistics.median(loop_times)


def run_request(request, workdir):
    """(exit code, stdout, stderr text, wall seconds, CPU seconds) of one
    CLI call."""
    argv = [str(workdir / a) if a in request["files"] else a for a in request["argv"]]
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = eucalc.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed request, not a failed run
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return code, out.getvalue(), err.getvalue(), wall, cpu


def write_inputs(requests, workdir):
    for request in requests:
        for name, doc in request["files"].items():
            path = workdir / name
            if not path.exists():
                path.write_text(json.dumps(doc))


def run_round(workload, seed, index, workdir, responses, trace=None):
    """Run round ``index``, append its responses, return its busy seconds.

    Input files are written before the round and removed after it, outside
    the timed region.  A response is (round, position in round, exit code,
    stdout, stderr, wall seconds, scaled CPU seconds).  Untraced, the
    reference loop runs after every request, and the round's CPU times are
    scaled by the median of its loop times.  Only strings and numbers are
    kept, so the inputs of past rounds do not pile up in the heap that the
    garbage collector scans during later requests; ``check_all`` rebuilds
    them.
    """
    requests = gen.make_round(workload, seed, index)
    write_inputs(requests, workdir)
    busy, done, loops = 0.0, [], []
    for position, request in enumerate(requests):
        if trace is not None:
            trace.current_request = len(responses) + position
        done.append((index, position, *run_request(request, workdir)))
        busy += done[-1][5]
        if trace is None:
            loops.append(reference_loop())
    factor = speed_factor(loops) if loops else 1.0
    responses += [(*r[:6], r[6] * factor) for r in done]
    for path in workdir.iterdir():
        path.unlink()
    return busy


def run_timed(workload, seed, workdir, seconds):
    """Rounds 0, 1, ... while the mean round time says the next one still
    ends within ``seconds``, and at least ``MIN_ROUNDS``; returns
    (responses, busy wall seconds)."""
    responses, busy, index = [], 0.0, 0
    while index < MIN_ROUNDS or busy + busy / index <= seconds:
        busy += run_round(workload, seed, index, workdir, responses)
        index += 1
    return responses, busy


def run_traced(workload, seed, workdir, rounds):
    """Each of ``rounds`` rounds untraced and then traced.

    Alternating the two passes round by round keeps a drift in machine speed
    out of the overhead.  Returns (responses, tracer, untraced seconds,
    traced seconds).
    """
    trace = tracer.Tracer()
    responses, plain, traced = [], 0.0, 0.0
    for index in range(rounds):
        plain += run_round(workload, seed, index, workdir, responses)
        trace.install()
        try:
            traced += run_round(workload, seed, index, workdir, responses, trace)
        finally:
            trace.uninstall()
    return responses, trace, plain, traced


def check_all(workload, seed, responses):
    """Number of failed requests; prints the first problems to stderr."""
    failed, rounds = 0, {}
    for index, position, code, out, err, _, _ in responses:
        if index not in rounds:
            rounds = {index: gen.make_round(workload, seed, index)}
        request = rounds[index][position]
        problems = ["raised " + err] if code is None else check.check(request, code, out)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"failed {request['class']} {request['argv']}: {problems[:3]}",
                      file=sys.stderr)
    return failed


def provenance():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup_s():
    """Scaled CPU seconds of the ``eucalc.cli`` import above."""
    return SETUP_CPU_S * speed_factor([reference_loop() for _ in range(SETUP_REF_LOOPS)])


def latency_metrics(responses):
    """End-to-end metrics of a timed stream: scaled CPU times, and the raw
    wall-clock ones under ``wall.``."""
    out = {}
    for prefix, column in (("", 6), ("wall.", 5)):
        times = [r[column] for r in responses]
        out[prefix + "throughput_rps"] = len(times) / sum(times)
        out[prefix + "latency_p50_ms"] = 1e3 * statistics.median(times)
        out[prefix + "latency_p90_ms"] = 1e3 * statistics.quantiles(
            times, n=10, method="inclusive")[-1]
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    setup = setup_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            responses, trace, plain, busy = run_traced(
                args.workload, args.seed, workdir, TRACE_ROUNDS[args.workload])
            metrics = tracer.layer_metrics(trace, args.workload)
            metrics["trace.overhead_frac"] = busy / plain - 1.0
            trace.write_jsonl(OUT / f"spans-{args.workload}.jsonl")
        else:
            responses, busy = run_timed(args.workload, args.seed, workdir,
                                        args.seconds)
            metrics = latency_metrics(responses)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = check_all(args.workload, args.seed, responses)
    print(json.dumps({
        "setup_s": setup, "attempted": len(responses), "failed": failed,
        "busy_s": busy, "metrics": metrics, "provenance": provenance(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
