"""Run the benchmark over several seeds and print every metric with its spread.

    python3 perfbench/report.py                      # all workloads, seeds 1..10
    python3 perfbench/report.py --seeds 1,2,3 --workloads deutsch_mix
    python3 perfbench/report.py --traced --out perfbench/results/NAME.json

For each workload it prints, per end-to-end metric, the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, with the unit, the samples behind one run's value
and, for times, the same spread before scaling to the nominal speed
(speed.py); then the error rate and, for deutsch_mix, sigma_err_max.  With
--traced it also makes one traced run per workload on the first seed,
prints the per-layer metrics and the tracing overhead (traced wall_s of
the workload's pass minus the untraced median wall_s).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info, result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "runs": len(values)}


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        info0 = runs[0][0]
        entry = {"fingerprint": info0["fingerprint"], "metrics": {},
                 "tail_percentile": info0["tail_percentile"],
                 "correct": all(r["correct"] for _, r in runs),
                 "attempted": [r["attempted"] for _, r in runs],
                 "failed": [r["failed"] for _, r in runs],
                 "problems": sorted({p for i, _ in runs for p in i["problems"]})}
        print(f"\n{workload}  (seeds {args.seeds}, {args.seconds} s runs, "
              f"tail = p{entry['tail_percentile']})")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  unit   samples/run")
        for name in bounds:
            values = [r["metrics"][name]["value"] for _, r in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            samples = sorted({i["samples"][name] for i, _ in runs})
            s = summarize(values)
            entry["metrics"][name] = {**s, "unit": unit, "values": values,
                                      "samples_per_run": samples}
            raw = ""
            if name in runs[0][0]["raw"]:
                # the same metric before scaling to the nominal speed
                raw_values = [i["raw"][name] for i, _ in runs]
                entry["metrics"][name]["raw"] = summarize(raw_values) | {"values": raw_values}
                raw = f"  raw spread {entry['metrics'][name]['raw']['spread']:.4f}"
            print(f"  {name:<14}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
                  f"{s['spread']:>9.4f}{bounds[name]:>7}  {unit:<6} "
                  f"{'/'.join(map(str, samples))}{raw}")
        rates = [i["error_rate"] for i, _ in runs]
        entry["error_rate"] = summarize(rates) | {"values": rates}
        print(f"  {'error_rate':<14}{statistics.median(rates):>14.6g}"
              f"{'':>44}  1      {'/'.join(map(str, sorted(set(entry['attempted']))))}")
        errs = [i["sigma_err_max"] for i, _ in runs if i["sigma_err_max"] is not None]
        if errs:
            entry["sigma_err_max"] = summarize(errs) | {"values": errs}
            print(f"  {'sigma_err_max':<14}{statistics.median(errs):>14.6g}"
                  f"{'':>44}  tracenorm")
        print(f"  correct: {entry['correct']}; failed per run: {sorted(set(entry['failed']))}")
        for problem in entry["problems"]:
            print(f"    {problem}")
        if args.traced:
            info, result = run(workload, seeds[0], args.seconds, 1)
            # the traced pass is not scaled to the nominal speed, so it is
            # compared with the untraced runs' wall time as measured
            overhead = (info["traced_wall_s"][workload]
                        - statistics.median(i["raw"]["wall_s"] for i, _ in runs))
            entry["trace_overhead_s"] = overhead
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  trace overhead: {overhead:+.4f} s on wall_s")
            for name, m in result["metrics"].items():
                print(f"    {name:<40}{m['value']:>14.6g} {m['unit']}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
