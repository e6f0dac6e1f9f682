"""Run the benchmark over several seeds and write medians and quartiles.

    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_baseline.json

Each (workload, seed) is one ``bench/run.py`` process, run one after another
so they never compete for a core.  For every end-to-end metric the output
holds the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance over the median.  ``--trace-seeds`` adds traced runs, whose
per-layer metrics and solver iteration counts are stored beside the times.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("REPORT "))[len("REPORT "):])
    return result, report, wall


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="segment_family,random_sets,field_maps")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace-seeds", type=seed_list, default=[])
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, traced = [], []
        for seed in args.seeds:
            result, report, wall = run_once(workload, seed, args.seconds, 0)
            runs.append((seed, result, report, wall))
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        for seed in args.trace_seeds:
            result, report, wall = run_once(workload, seed, args.seconds, 1)
            traced.append({"seed": seed, "wall_s": wall, "metrics": result["metrics"],
                           "trace": report["workloads"][workload]["trace"]["spans"]})
            print(f"{workload} traced seed {seed}: {wall:.1f} s wall", flush=True)
        names = list(runs[0][1]["metrics"])
        summary = runs[0][2]["workloads"][workload]["summary"]
        out["machine"] = runs[0][2]["machine"]
        out["workloads"][workload] = {
            "metrics": {m: {"unit": runs[0][1]["metrics"][m]["unit"],
                            **describe([r[1]["metrics"][m]["value"] for r in runs])}
                        for m in names},
            "correct": all(r[1]["correct"] for r in runs),
            "attempted": sum(r[1]["attempted"] for r in runs),
            "failed": sum(r[1]["failed"] for r in runs),
            "failure_details": sorted({d for r in runs for d in
                                       r[2]["workloads"][workload]["checks"]["details"]}),
            "wall_s": [r[3] for r in runs],
            "calibration_probe_ms": [r[2]["calibration_probe_ms"] for r in runs],
            "iterations_and_times_seed_%d" % runs[0][0]: summary["ops"],
            "traced": traced,
        }
        for m, d in out["workloads"][workload]["metrics"].items():
            print(f"  {m}: median {d['median']:.6g} {d['unit']}, spread {d['spread']:.3f}",
                  flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
