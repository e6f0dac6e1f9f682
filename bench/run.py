"""bregcheb benchmark: end-to-end and per-layer timings with checked outputs.

Run from the repository root:

    python3 bench/run.py                                  # all three workloads
    python3 bench/run.py --workload random_sets --seed 2 --seconds 30 --trace 1

One process runs one workload closed-loop (one caller; the next operation
starts when the last one ends) with BLAS pinned to one thread; ``--workload
all`` runs each workload in a child process of its own, one after another,
so each one's peak memory is its own.  A workload measures for ``--seconds``
of wall time (default: ``run_seconds`` of BENCHMARK.json), checks every
output against a reference that does not trust the solver, and prints every
metric by name and unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, from traced passes that alternate with untraced ones.  The
gated timings are in units of a speed probe timed between operations (see
``summarize``); their wall-clock counterparts are printed beside them.  The
line before the result, prefixed ``REPORT``, holds everything else (machine,
versions, seed, calibration probe, iteration counts beside times, per-layer
detail).

Exit codes: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the library source is missing or the harness's
own self-check failed (no result is printed).
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported anywhere.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("segment_family", "random_sets", "field_maps")
SETUP_TRIALS = 5
PROBE_X = np.linspace(0.5, 1.5, 8)
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import bregcheb, bregcheb.cli, bregcheb.repro; "
                "print(time.perf_counter() - t)")


class HarnessError(Exception):
    """The benchmark itself is broken; no result may be printed."""


@dataclass
class Record:
    op: object
    seconds: float
    outcome: object
    probe: float = 0.0               # mean speed-probe seconds right before and after


def run_op(op):
    t0 = time.perf_counter()
    try:
        result = op.run()
    except (Exception, SystemExit) as exc:  # a failed operation, never retried
        result = exc
    seconds = time.perf_counter() - t0
    return Record(op, seconds, op.check(result))


def speed_probe():
    """Seconds taken by a fixed piece of the benchmark's own work, the mix
    the library's solvers run: small-array numpy calls and interpreter
    arithmetic.  About 0.85 ms on the 2-core Xeon VM the baseline ran on."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200):
        y = np.log(PROBE_X) * PROBE_X - PROBE_X
        acc += float(y.sum()) + i * 0.5
    return time.perf_counter() - t0


def run_for(ops, seconds):
    """Passes over ``ops`` until ``seconds`` of wall time have gone by: at
    least one whole pass, and the last pass is cut at the deadline.  The
    speed probe runs before the first operation and after each one, and
    every record keeps the mean of the two probes around it.  Returns one
    list of records per pass."""
    deadline = time.perf_counter() + seconds
    passes = []
    before = speed_probe()
    while not passes or time.perf_counter() < deadline:
        recs = []
        for op in ops:
            if passes and time.perf_counter() >= deadline:
                break
            rec = run_op(op)
            after = speed_probe()
            rec.probe = 0.5 * (before + after)
            before = after
            recs.append(rec)
        passes.append(recs)
    return passes


def run_pass(ops):
    return run_for(ops, 0.0)[0]


def tail(values):
    """Highest percentile with ten samples beyond it, or the maximum when
    there are too few samples: (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def calibration_probe_ms(np):
    """Fixed interpreter and numpy work, timed at the start and the end of
    a run; recorded to diagnose machine noise."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    a = np.arange(4096.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    return (time.perf_counter() - t0) * 1e3


def machine_info(np, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_thread_caps": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def git_commit():
    """HEAD of the checkout read from .git directly (git itself would climb
    into enclosing repositories when the checkout is not one)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child_import_seconds():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise HarnessError(f"importing bregcheb in a fresh interpreter failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def set_up(build, seed, smoke, scratch):
    """Import (in a fresh interpreter), input generation, set construction
    and validation, and the first call of each operation kind; repeated
    SETUP_TRIALS times, the median is reported."""
    trials, warm = [], []
    wl = None
    for _ in range(SETUP_TRIALS):
        imp = child_import_seconds()
        t0 = time.perf_counter()
        wl = build(seed, smoke, scratch)
        warm = [run_op(op) for op in wl.warmup]
        trials.append(imp + time.perf_counter() - t0)
    return wl, statistics.median(trials), trials, warm


def fastest_pass_seconds(passes):
    """One pass's time, each operation taken at its fastest repetition."""
    best = {}
    for recs in passes:
        for r in recs:
            best[r.op.label] = min(best.get(r.op.label, r.seconds), r.seconds)
    return sum(best.values())


def summarize(passes):
    """End-to-end metrics and per-operation detail of untraced passes.

    The host's speed drifts, from outside the process, by up to a factor of
    1.8 in epochs of seconds to minutes, so whole runs of identical work
    differ that much in wall time, whatever statistic is taken within a run.
    Each operation's time is therefore also expressed in probes: its wall
    time over the mean of the speed probes run right before and after it.
    A change to the library moves that ratio; a change in the host's speed
    moves both of its terms.

    A rate is the checked units of one pass over the summed mean times of
    its operations (means over each operation's repetitions, so a pass cut
    at the deadline does not shift the mix); ``_per_kprobe`` counts them
    per 1000 probes, ``_per_s`` per second of wall time.  The median and
    the tail are taken over all samples of the primary operations.
    """
    per_op = {}
    for recs in passes:
        for r in recs:
            e = per_op.setdefault(r.op.label, {"cls": r.op.cls, "units": r.op.units, "ms": [],
                                               "probes": [], "ok": 0, "iterations": None})
            e["ms"].append(r.seconds * 1e3)
            e["probes"].append(r.seconds / r.probe)
            e["ok"] += r.outcome.status == "ok"
            if r.outcome.iterations:
                e["iterations"] = next(iter(r.outcome.iterations.values()))

    def rate(cls, times, scale):
        ops = [e for e in per_op.values() if e["cls"] == cls]
        done = sum(e["units"] * e["ok"] / len(e[times]) for e in ops)
        return done / sum(statistics.fmean(e[times]) for e in ops) * scale

    def primary(times):
        return [t for e in per_op.values() if e["cls"] == "primary" for t in e[times]]

    prim_ms = primary("ms")
    tail_ms, tail_pct, beyond = tail(prim_ms)
    iterations = {}
    for recs in passes:
        for r in recs:
            if r.op.cls == "primary":
                for solver, its in r.outcome.iterations.items():
                    iterations.setdefault(solver, []).append(its)
    return {
        "ops_per_kprobe": rate("primary", "probes", 1e3),
        "op_probes_p50": statistics.median(primary("probes")),
        "aux_ops_per_kprobe": rate("aux", "probes", 1e3),
        "probe_ms_p50": statistics.median(r.probe * 1e3 for recs in passes for r in recs),
        "ops_per_s": rate("primary", "ms", 1e3),
        "op_ms_p50": statistics.median(prim_ms),
        "op_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "primary_samples": len(prim_ms),
        "aux_ops_per_s": rate("aux", "ms", 1e3),
        "aux_samples": sum(len(e["ms"]) for e in per_op.values() if e["cls"] == "aux"),
        "aux_units": sum(e["units"] * len(e["ms"]) for e in per_op.values() if e["cls"] == "aux"),
        "passes": len(passes),
        "iterations": {s: {"median": statistics.median(v), "min": min(v), "max": max(v),
                           "solves": len(v)} for s, v in iterations.items()},
        "ops": {label: {"ms_min": min(e["ms"]), "ms_median": statistics.median(e["ms"]),
                        "probes_median": statistics.median(e["probes"]), "runs": len(e["ms"]), "iterations": e["iterations"],
                        "failed": len(e["ms"]) - e["ok"]}
                for label, e in per_op.items()},
    }


def layer_metrics(tracer, passes, overhead):
    """Per-layer metrics of the traced passes, per pass over the workload.
    ``overhead`` compares traced and untraced passes at their fastest."""
    stats = tracer.stats
    totals = tracer.layer_totals()

    def stat(span, key):
        return stats.get(span, {}).get(key, 0) / passes

    leg = totals["legendre"]
    certify_calls = stats.get("center.certify", {}).get("calls", 0)
    out = {
        "legendre.calls": (leg["calls"] / passes, "calls/pass"),
        "legendre.rows": (sum(s.get("rows", 0) for n, s in stats.items()
                              if n.startswith("legendre.")) / passes, "rows/pass"),
        "legendre.self_s": (leg["self_s"] / passes, "s/pass"),
        "legendre.us_per_call": (leg["self_s"] / leg["calls"] * 1e6 if leg["calls"] else 0.0,
                                 "us"),
        "compactset.enumerate.calls": (stat("compactset.enumerate", "calls"), "calls/pass"),
        "compactset.enumerate.self_s": (stat("compactset.enumerate", "self_s"), "s/pass"),
        "bregman.distance_matrix.calls": (stat("bregman.distance_matrix", "calls"), "calls/pass"),
        "bregman.distance_matrix.self_s": (stat("bregman.distance_matrix", "self_s"), "s/pass"),
        "bregman.distance_matrix.cells": (stat("bregman.distance_matrix", "cells"), "cells/pass"),
        "bregman.distance_matrix.bytes_computed": (
            stat("bregman.distance_matrix", "bytes_computed"), "B/pass"),
        "farthest.farthest.calls": (stat("farthest.farthest", "calls"), "calls/pass"),
        "farthest.farthest.self_s": (stat("farthest.farthest", "self_s"), "s/pass"),
        "farthest.farthest_values.calls": (stat("farthest.farthest_values", "calls"), "calls/pass"),
        "farthest.farthest_values.self_s": (stat("farthest.farthest_values", "self_s"), "s/pass"),
        "farthest.farthest_values.points": (stat("farthest.farthest_values", "points"),
                                            "points/pass"),
        "simplex.lsq_simplex_weights.calls": (stat("simplex.lsq_simplex_weights", "calls"),
                                              "calls/pass"),
        "simplex.lsq_simplex_weights.self_s": (stat("simplex.lsq_simplex_weights", "self_s"),
                                               "s/pass"),
        "simplex.min_norm_in_hull.calls": (stat("simplex.min_norm_in_hull", "calls"), "calls/pass"),
        "simplex.min_norm_in_hull.self_s": (stat("simplex.min_norm_in_hull", "self_s"), "s/pass"),
        "center.default_start.self_s": (stat("center.default_start", "self_s"), "s/pass"),
        "center.solve_fixed_point.self_s": (stat("center.solve_fixed_point", "self_s"), "s/pass"),
        "center.solve_fixed_point.iterations": (stat("center.solve_fixed_point", "iterations"),
                                                "iter/pass"),
        "center.solve_subgradient.self_s": (stat("center.solve_subgradient", "self_s"), "s/pass"),
        "center.solve_subgradient.iterations": (stat("center.solve_subgradient", "iterations"),
                                                "iter/pass"),
        "center.certify.calls": (stat("center.certify", "calls"), "calls/pass"),
        "center.certify.self_s": (stat("center.certify", "self_s"), "s/pass"),
        # 1 when the workload made no certificate: none of them was invalid
        "center.valid_ratio": (stats["center.certify"]["valid"] / certify_calls
                               if certify_calls else 1.0, "ratio"),
        "center.dual_hull_projection.calls": (stat("center.dual_hull_projection", "calls"),
                                              "calls/pass"),
        "center.dual_hull_projection.self_s": (stat("center.dual_hull_projection", "self_s"),
                                               "s/pass"),
        "cli.main.calls": (stat("cli.main", "calls"), "calls/pass"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s/pass"),
        "cli.bytes_written": (stat("cli.main", "bytes_written"), "B/pass"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return out


def run_workload(name, args, scratch, tracing, workloads):
    wl, setup_s, setup_trials, warm = set_up(workloads.WORKLOADS[name], args.seed,
                                             args.smoke, scratch)
    report = {"workload": name, "setup_s": setup_s, "setup_trials": setup_trials}
    if tracing.installed_wrappers():
        raise HarnessError("trace wrappers installed before the timed phase")
    if not args.trace:
        passes = run_for(wl.ops, args.seconds)
        records = [r for recs in passes for r in recs]
        if tracing.installed_wrappers():
            raise HarnessError("trace wrappers found in an untraced run")
        summary = summarize(passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_kprobe": (summary["ops_per_kprobe"], "1/kprobe"),
            "op_probes_p50": (summary["op_probes_p50"], "probes"),
            "aux_ops_per_kprobe": (summary["aux_ops_per_kprobe"], "1/kprobe"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "op_ms_p50": (summary["op_ms_p50"], "ms"),
            "op_ms_tail": (summary["op_ms_tail"], "ms"),
            "aux_ops_per_s": (summary["aux_ops_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["summary"] = summary
    else:
        tracer = tracing.Tracer()
        untraced, traced = [], []
        # untraced and traced whole passes alternate, so both see the same
        # drift in the host's speed, while the next pair, taking as long as
        # the last one, still ends by the deadline
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while not traced or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            untraced.append(run_pass(wl.ops))
            tracer.install()
            try:
                traced.append(run_pass(wl.ops))
            finally:
                tracer.uninstall()
            leftover = tracing.installed_wrappers()
            if leftover:
                raise HarnessError(f"wrappers left installed after tracing: {leftover[:5]}")
            last = time.perf_counter() - t0
        silent = [layer for layer in wl.layers if tracer.layer_totals()[layer]["calls"] == 0]
        if silent:
            raise HarnessError(f"{name}: traced layers recorded no calls: {silent}")
        untraced_s, traced_s = fastest_pass_seconds(untraced), fastest_pass_seconds(traced)
        metrics = layer_metrics(tracer, len(traced), traced_s / untraced_s - 1.0)
        report["summary"] = summarize(untraced)
        report["trace"] = {"passes": len(traced), "fastest_untraced_pass_s": untraced_s,
                           "fastest_traced_pass_s": traced_s, "spans": tracer.stats}
        records = [r for recs in untraced + traced for r in recs]
    outcomes = [r.outcome for r in records]
    wrong = [o for o in outcomes + [r.outcome for r in warm] if o.status == "wrong"]
    failed = [o for o in outcomes if o.status != "ok"]
    report["checks"] = {"run": len(outcomes) + len(warm), "wrong": len(wrong),
                        "failed": len(failed),
                        "details": sorted({o.detail for o in failed + wrong})[:20]}
    return {"correct": not wrong, "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics, "report": report, "workload": wl}


def contract_metrics(metrics, trace):
    """The metrics BENCHMARK.json lists for this mode (end-to-end untraced,
    per-layer traced), each with the unit it names there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = metrics.get(entry["name"], (None, None))
        if value is None or unit != entry["unit"]:
            raise HarnessError(f"metric {entry['name']} missing or not in {entry['unit']}")
        out[entry["name"]] = (value, unit)
    return out


def print_report(name, res):
    """Human-readable lines; every metric by name, value and unit."""
    rep = res["report"]
    summary = rep["summary"]
    rate, lat, aux = res["workload"].names
    fail_frac = res["failed"] / res["attempted"]
    lines = [
        f"setup_s = {rep['setup_s']:.4f} s  (median of {len(rep['setup_trials'])} set-ups)",
        f"speed probe = {summary['probe_ms_p50']:.4f} ms  (median over operations)",
        f"{rate} = {summary['ops_per_s']:.4f} 1/s, {summary['ops_per_kprobe']:.4f} 1/kprobe  "
        f"({summary['primary_samples']} {res['workload'].op_name} operations in "
        f"{summary['passes']} passes)",
        f"{lat}_p50 = {summary['op_ms_p50']:.3f} ms, {summary['op_probes_p50']:.3f} probes  "
        f"(median over all samples)",
        f"{lat}_tail = {summary['op_ms_tail']:.3f} ms  (p{summary['tail_percentile']:.1f}, "
        f"{summary['tail_samples_beyond']} samples beyond, n={summary['primary_samples']})",
        f"{aux} = {summary['aux_ops_per_s']:.4f} 1/s, "
        f"{summary['aux_ops_per_kprobe']:.4f} 1/kprobe  ({summary['aux_units']} units in "
        f"{summary['aux_samples']} operations)",
        f"fail_frac = {fail_frac:.4f} ratio  ({res['failed']} of {res['attempted']})",
        f"checks: {rep['checks']['run']} run, {rep['checks']['wrong']} wrong",
    ]
    for solver, it in summary["iterations"].items():
        lines.append(f"iterations {solver}: median {it['median']}, min {it['min']}, "
                     f"max {it['max']} over {it['solves']} solves")
    for detail in rep["checks"]["details"]:
        lines.append(f"check: {detail}")
    for metric, (value, unit) in res["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{metric} = {shown} {unit}")
    for line in lines:
        print(f"[{name}] {line}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one case per workload at a tiny size (for the smoke test)")
    return p.parse_args(argv)


def run_all(args):
    """Each workload in a child process of its own, one after another; the
    children's lines are passed on, and their results merged with the
    workload's name as a prefix of each metric."""
    metrics, reports, correct, attempted, failed = {}, {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith("REPORT "):
                reports[name] = json.loads(line[len("REPORT "):])
            else:
                print(line)
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print("REPORT " + json.dumps({"processes": reports}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bregcheb" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'bregcheb'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import bregcheb

    if Path(bregcheb.__file__).resolve().parent != (SRC / "bregcheb").resolve():
        print(f"error: imported bregcheb from {bregcheb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    warm_until = time.perf_counter() + 0.5  # let the CPU leave idle before measuring
    while time.perf_counter() < warm_until:
        calibration_probe_ms(np)
    probe_start = calibration_probe_ms(np)

    name = args.workload
    scratch = ROOT / ".bench_scratch" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        res = run_workload(name, args, scratch, tracing, workloads)
        metrics = {metric: {"value": value, "unit": unit} for metric, (value, unit)
                   in contract_metrics(res["metrics"], args.trace).items()}
    except HarnessError as exc:
        print(f"error: benchmark self-check failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    probe_end = calibration_probe_ms(np)

    print_report(name, res)
    report = {"machine": machine_info(np, args.seed), "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "calibration_probe_ms": {"start": probe_start, "end": probe_end},
              "workloads": {name: res["report"]}}
    print("REPORT " + json.dumps(report, default=float))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
