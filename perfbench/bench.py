"""One workload of the ctcbox benchmark, run in a fresh interpreter.

run.py starts this file with PYTHONPATH pointing at the src/ of the
checkout under test.  The process sets up (imports ctcbox and generates
the inputs from the seed) and prints READY.  With --setup-only it then
samples the calibration kernel (speed.py) and reports the speed factor
that scales its set-up time.  Otherwise it makes closed-loop passes over
the workload's fixed list of operations: one client, each operation
started only after the previous one returned, with the kernel sampled on
a timer.  Passes repeat until --seconds have gone by and at least
MIN_PASSES passes are done.  Every output is checked outside the timed
region; a wrong or failed output is counted and the run goes on.  The
last stdout line is a JSON record that run.py turns into metrics.

With --trace 1 the process makes one pass of every workload with spans
around each call into ctcbox, runs the per-layer probes, and reports
per-layer metrics instead.

Each workload lives in the module of its name.  Only deutsch_mix
imports numpy, and only its calibration kernel uses numpy, so the
classical workloads measure ctcbox's own imports and memory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import ctcbox  # noqa: F401  -- setup_s covers the program's import

from harness import Session, Tracer
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_FILE = HERE / "golden.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 2
# passes per run at least, so every tail percentile has ten samples beyond it
MIN_PASSES = {"cli_session": 3, "classical_scale": 1, "deutsch_mix": 1}
TAIL_PERCENTILE = {"cli_session": 75, "classical_scale": 95, "deutsch_mix": 95}
WORKLOADS = tuple(MIN_PASSES)
# the calibration kernel closest to each workload's work (speed.py)
KERNEL = {"cli_session": "python", "classical_scale": "python", "deutsch_mix": "matrix"}
SETUP_CALLS = 64


def workload(name: str, seed: int, tmp: Path):
    """Set up a workload; its module is named after it and imported here,
    so only deutsch_mix brings numpy into the process."""
    return importlib.import_module(name).WORKLOAD(seed, tmp)


def load_goldens(seed: int) -> dict:
    data = json.loads(GOLDEN_FILE.read_text())
    return {**data["any_seed"], **data["by_seed"].get(str(seed), {})}


def percentile(values, p):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def numpy_version():
    module = sys.modules.get("numpy")
    return getattr(module, "__version__", None)


def measured(args, tmp: Path):
    work = workload(args.workload, args.seed, tmp)
    print("READY", flush=True)
    speed = Speed(KERNEL[args.workload])
    if args.setup_only:
        # the machine's speed right after this set-up, to scale setup_s
        speed.sample(SETUP_CALLS)
        return {"speed_factor": speed.factor()}
    s = Session(Tracer(False), load_goldens(args.seed), speed=speed)
    walls, raw_walls = [], []
    speed.start()
    start = time.perf_counter()
    try:
        while (len(walls) < MIN_PASSES[args.workload]
               or time.perf_counter() - start < args.seconds):
            before = len(s.latencies)
            work.run_pass(s)
            walls.append(sum(s.latencies[before:]))
            raw_walls.append(sum(s.raw[before:]))
    finally:
        speed.stop()
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli_session"
           else resource.RUSAGE_SELF)
    p = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(s.latencies, p)
    return {"attempted": len(s.latencies), "failed": s.failed, "wrong": s.wrong,
            "problems": s.problems, "passes": len(walls),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(s.latencies) * 1e3,
            "op_tail_ms": tail * 1e3, "tail_percentile": p, "tail_beyond": beyond,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "raw": {"wall_s": statistics.median(raw_walls),
                    "op_p50_ms": statistics.median(s.raw) * 1e3,
                    "op_tail_ms": percentile(s.raw, p)[0] * 1e3},
            "sigma_err_max": max(s.sigma_errors) if s.sigma_errors else None,
            "numpy": numpy_version()}


def traced(args, tmp: Path):
    """One traced pass of every workload (the requested one first) and the probes."""
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    work = {w: workload(w, args.seed, tmp) for w in order}
    print("READY", flush=True)
    from cli_session import cli_probes
    from deutsch_mix import deutsch_probes
    s = Session(Tracer(True), load_goldens(args.seed))
    walls = {}
    for w in order:
        before = len(s.latencies)
        work[w].run_pass(s)
        walls[w] = sum(s.latencies[before:])
    metrics = cli_probes(s, work["cli_session"].cwd)
    metrics.update(deutsch_probes())
    metrics.update(layer_metrics(s))
    return {"attempted": len(s.latencies), "failed": s.failed, "wrong": s.wrong,
            "problems": s.problems, "traced_wall_s": walls, "per_layer": metrics,
            "numpy": numpy_version()}


def layer_metrics(s: Session) -> dict:
    t = s.tracer
    med = statistics.median
    m = {
        "boxes.parity_box.ms": sum(t.times("boxes.parity_box")),
        "boxes.parity_box.n7_ms": med(t.times("boxes.parity_box", n=7)),
        "boxes.box_from_spec.ms": sum(t.times("boxes.box_from_spec")),
        "boxes.is_no_signaling.pass_ms": sum(t.times("boxes.is_no_signaling", kind="pass")),
        "boxes.is_no_signaling.witness_ms": sum(t.times("boxes.is_no_signaling", kind="witness")),
        "boxes.is_no_signaling.mixture_ms": sum(t.times("boxes.is_no_signaling", kind="mixture")),
        "ctc.constrain.ms": sum(t.times("ctc.constrain")),
        "ctc.constrain.n7_ms": med(t.times("ctc.constrain", n=7)),
        "signaling.scan_report_json.ms": sum(t.times("signaling.scan_report_json", kind="parity")),
        "signaling.scan_report_json.mixture_ms": sum(t.times("signaling.scan_report_json", kind="mixture")),
        "deutsch.fixed_point.ms": sum(t.times("deutsch.fixed_point")),
        "deutsch.fixed_point.easy_p50_ms": med(
            [x for g in ("builtin", "haar", "perm")
             for x in t.times("deutsch.fixed_point", group=g)]),
        "deutsch.crosscheck.ms": sum(t.times("deutsch.crosscheck")),
        "deutsch.sigma_err_max": max(s.sigma_errors),
    }
    for n in (5, 6, 7):
        m[f"boxes.is_no_signaling.n{n}_ms"] = med(t.times("boxes.is_no_signaling", n=n, kind="pass"))
    for n in (5, 6):
        m[f"signaling.scan_report_json.n{n}_ms"] = med(
            t.times("signaling.scan_report_json", n=n, kind="parity"))
    gap = ("oscillating", "weak_swap", "weak_rot", "nonconv")
    for key in gap:
        m[f"deutsch.fixed_point.{key}_ms"] = med(t.times("deutsch.fixed_point", case=key))
    # iteration and table counts come from seed-independent cases only,
    # so they repeat exactly from run to run
    iterations = {k[len("deutsch.iterations."):]: v for k, v in s.counts.items()
                  if k.startswith("deutsch.iterations.")}
    m["deutsch.iterations.total"] = sum(iterations.values())
    for key in ("weak_swap", "weak_rot", "nonconv"):
        m[f"deutsch.iterations.{key}"] = iterations[key]
    for name in ("boxes.rows_nonzero", "ctc.paradox_rows", "signaling.directions",
                 "signaling.settings", "signaling.dependent_settings"):
        m[name] = s.counts[name]
    return m


def record_goldens(tmp: Path):
    """Write golden.json from the ctcbox on PYTHONPATH, which must be the
    parent commit of any change the goldens will judge."""
    data = {"any_seed": {}, "by_seed": {}}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        s = Session(Tracer(False), {}, recording=True)
        for name in ("cli_session", "classical_scale"):
            workload(name, seed, tmp / str(seed)).run_pass(s)
        if s.problems:
            raise SystemExit("not recording goldens over failed checks:\n"
                             + "\n".join(s.problems))
        data["any_seed"].update(s.recorded["any_seed"])
        data["by_seed"][str(seed)] = s.recorded["by_seed"]
    GOLDEN_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.record_goldens:
            record = record_goldens(tmp)
        else:
            record = traced(args, tmp) if args.trace else measured(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if record is not None:
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
