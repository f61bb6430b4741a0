"""Run one workload of the ctcbox benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is the checkout's
src/ctcbox, put on PYTHONPATH for a fresh interpreter per workload
(perfbench/bench.py).  With --trace 0 the set-up alone is timed in
SETUP_REPEATS fresh interpreters, then one more sets up and measures;
the end-to-end metrics of BENCHMARK.json are printed, scaled to the
nominal machine speed (perfbench/speed.py).  With --trace 1 a single
traced interpreter prints the per-layer metrics.  Every process is held
to one CPU.

The second-to-last stdout line is a JSON record of the environment,
sample counts, error rate, solver accuracy and any failed checks; the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
Exits 2 without a result when the checkout has no src/ctcbox, and 1
when a run does not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_session", "classical_scale", "deutsch_mix")
SETUP_REPEATS = 9
DEADLINE_S = 170
NPROC = len(os.sched_getaffinity(0))  # usable CPUs, before pin()


class RunFailed(Exception):
    pass


def fingerprint(seed: int, numpy_version) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": NPROC, "cpu": cpu, "seed": seed,
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def spawn(args, env, deadline, *extra):
    """Start bench.py; return the process and seconds until it printed READY."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RunFailed(f"set-up of {args.workload} failed")
    return proc, setup


def finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("run exceeded its deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"bench.py exited with {proc.returncode}")
    return out


def pin() -> int:
    """Hold this process and every process it starts to one CPU.

    The CLI children, the workload and the calibration kernel (speed.py)
    then run on the same CPU, whose speed the kernel samples; on a shared
    host two CPUs can differ in speed from moment to moment.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args, spec) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    cpu = pin()
    # one thread per process: BLAS pools would add threads that contend for
    # the same cores as the client
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            proc, setup = spawn(args, env, deadline, "--setup-only")
            factor = json.loads(finish(proc, deadline).strip().splitlines()[-1])["speed_factor"]
            raw_setups.append(setup)
            setups.append(setup * factor)
    proc, _ = spawn(args, env, deadline)
    record = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    info = {"workload": args.workload, "fingerprint": fingerprint(args.seed, record["numpy"]),
            "pinned_cpu": cpu,
            "attempted": record["attempted"], "failed": record["failed"],
            "wrong": record["wrong"],
            "error_rate": record["failed"] / record["attempted"],
            "problems": record["problems"]}
    if args.trace:
        info["traced_wall_s"] = record["traced_wall_s"]
        values = record["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), **{
            k: record[k] for k in ("wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}}
        info["samples"] = {"setup_s": len(setups), "wall_s": record["passes"],
                           "op_p50_ms": record["attempted"],
                           "op_tail_ms": record["attempted"],
                           "peak_rss_mb": 1}
        info["raw"] = {"setup_s": statistics.median(raw_setups), **record["raw"]}
        info["tail_percentile"] = record["tail_percentile"]
        info["tail_beyond"] = record["tail_beyond"]
        info["sigma_err_max"] = record["sigma_err_max"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": record["wrong"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description="ctcbox benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ctcbox" / "__init__.py").is_file():
        print(f"error: no src/ctcbox under {ROOT}; run from a ctcbox checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        info, result = run(args, spec)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
