"""The eucalc benchmark: seeded CLI workloads, checked, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py                       # the three listed workloads
    python3 bench/run.py --workload all        # ... and verify_small
    python3 bench/run.py --workload scene_grid --seed 3 --seconds 30
    python3 bench/run.py --workload mesh_curves --trace 1   # per-layer run

Each workload runs in its own fresh process (``workload.py``) with the
environment pinned: ``EHC_THREADS`` cleared, single-threaded BLAS/OpenMP,
``PYTHONPATH`` set to this checkout's ``src``.  ``setup_s`` is the median of
five fresh-process timings of ``import eucalc.cli``: the workload process's
own and four more that do nothing else.  Times are scaled CPU times; see
``workload.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, ``fail_frac``, the raw wall-clock
times and the provenance.  With one workload the metric names are those of
BENCHMARK.json; with several each is prefixed by its workload's name, and
``correct``, ``attempted`` and ``failed`` count the listed workloads only
(``verify_small``'s own counts are printed above).  Each result is also
appended to ``.bench_out/results.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from gen import LISTED, WORKLOADS  # noqa: E402
from tracer import metric_units  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
WALL = ("wall.throughput_rps", "wall.latency_p50_ms", "wall.latency_p90_ms")


def child_env():
    env = dict(os.environ)
    env.pop("EHC_THREADS", None)  # grid_eval's thread-pool knob
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args):
    """Parsed last stdout line of ``workload.py`` with these arguments."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own
    return lines[1]


def run_workload(workload, seed, seconds, trace):
    """Result dict of one workload: metrics, counts and provenance."""
    result = run_child(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)])
    if not trace:
        samples = [result["setup_s"]]
        samples += [run_child(["--setup-only"])["setup_s"]
                    for _ in range(SETUP_SAMPLES - 1)]
        result["metrics"]["setup_s"] = statistics.median(samples)
        result["setup_samples_s"] = samples
    result["provenance"]["git_sha"] = git_sha()
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as log:
        log.write(json.dumps(result) + "\n")
    return result


def units(workload, trace):
    return metric_units(workload) if trace else END_TO_END


def report(result, trace):
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"requests {attempted}  busy {result['busy_s']:.2f} s")
    metrics = result["metrics"]
    for name, unit in units(result["workload"], trace).items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"  {'fail_frac':36s} {failed / attempted:14.6g} ratio")
    if not trace:
        print(f"  {'setup_s samples':36s} "
              + " ".join(f"{v:.4g}" for v in result["setup_samples_s"]) + " s")
        for name in WALL:
            print(f"  {name:36s} {metrics[name]:14.6g} {END_TO_END[name[5:]]}")
    prov = result["provenance"]
    print("  provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' (default: the listed ones)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eucalc" / "cli.py").is_file():
        print(f"error: no eucalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = {None: LISTED, "all": WORKLOADS}.get(args.workload, (args.workload,))
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result, args.trace)
    if len(results) == 1:
        counted = results
        metrics = {name: {"value": results[0]["metrics"][name], "unit": unit}
                   for name, unit in units(names[0], args.trace).items()}
    else:
        counted = [r for r in results if r["workload"] in LISTED]
        metrics = {f"{r['workload']}.{name}": {"value": r["metrics"][name], "unit": unit}
                   for r in results
                   for name, unit in units(r["workload"], args.trace).items()}
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
