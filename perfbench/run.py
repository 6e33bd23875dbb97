"""The polyminor benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Workloads (see workloads.py): corpus, holes, large; `all` runs each in
turn and prints every metric per workload.

--trace 0 prints the end-to-end metrics.  Each workload runs in a fresh
interpreter (worker.py), one caller in a closed loop, in whole passes over
its instances until --seconds of queries have run.  Set-up is timed from
spawning a fresh interpreter to its first query, five times.  Times are
reference seconds (speed.py); wall-clock figures go to the run record in
perfbench/out/.

--trace 1 prints the per-layer metrics of a traced run instead, writes
its spans to perfbench/out/, and fails when the two traced passes do not
count alike.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exits 2, printing no result, when the package source
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "holes", "large")
SETUP_SAMPLES = 5  # fresh interpreters timed per run, the measured one included
DEADLINE_S = 170.0  # the whole invocation ends before this


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def spawn(args, mode: str, budget: float) -> tuple[float, dict]:
    """Start worker.py; (spawn time on the monotonic clock, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--max-instances", str(args.max_instances),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=budget
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return start, json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_metrics(latencies: dict) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) over every run of every instance.

    The tail is the highest percentile that still has ten instances beyond
    it, 1 - 10/instances, so it does not move with the number of passes.
    With ten instances or fewer it leaves one instance beyond it instead.
    """
    samples = [x for runs in latencies.values() for x in runs]
    n = len(latencies)
    q = (n - (10 if n > 10 else 1)) / n
    return quantile(samples, 0.5), quantile(samples, q), q


def end_to_end(args, begun: float) -> tuple[dict, dict, dict]:
    """(worker result, metric values, notes) of an untraced run."""
    setups = []
    wall_setups = []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
        start, res = spawn(args, mode, DEADLINE_S - (monotonic() - begun))
        wall_setups.append(res["ready"] - start)
        setups.append(wall_setups[-1] * res["setup_scale"])
    p50, tail, tail_q = latency_metrics(res["latencies"])
    reference_s = sum(sum(runs) for runs in res["latencies"].values())
    wall_s = sum(sum(runs) for runs in res["wall_latencies"].values())
    values = {
        "setup_s": statistics.median(setups),
        "instances_per_s": res["attempted"] / reference_s,
        "instance_p50_ms": 1000.0 * p50,
        "instance_tail_ms": 1000.0 * tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall_p50, wall_tail, _ = latency_metrics(res["wall_latencies"])
    notes = {
        "passes": res["passes"],
        "instances": res["instances"],
        "tail_percentile": 100.0 * tail_q,
        "tail_samples": res["attempted"],
        "fail_rate": res["failed"] / res["attempted"],
        "wall": {
            "setup_s": statistics.median(wall_setups),
            "instances_per_s": res["attempted"] / wall_s,
            "instance_p50_ms": 1000.0 * wall_p50,
            "instance_tail_ms": 1000.0 * wall_tail,
        },
        "setup_samples_s": setups,
        "instance_latency_s": {k: statistics.median(v) for k, v in res["latencies"].items()},
    }
    return res, values, notes


def per_layer(args, begun: float) -> tuple[dict, dict, dict]:
    """(worker result, metric values, notes) of a traced run."""
    _, res = spawn(args, "trace", DEADLINE_S - (monotonic() - begun))
    notes = {
        "counts_repeat": res["counts_repeat"],
        "design": res["design"],
        "spans": res["spans"],
        "span_count": res["span_count"],
        "reference_s": res["reference_s"],
        "fail_rate": res["failed"] / res["attempted"],
    }
    return res, res["layer"], notes


def run_one(args, spec: dict) -> dict:
    """Run one workload; the metrics are those BENCHMARK.json declares."""
    begun = monotonic()
    if args.trace:
        res, values, notes = per_layer(args, begun)
        declared = spec["per_layer"]
    else:
        res, values, notes = end_to_end(args, begun)
        declared = spec["end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {m["name"]: (values[m["name"]], m["unit"]) for m in declared},
        "notes": notes,
        "all_values": values,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    notes = record["notes"]
    m = record["machine"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"on nproc {m['nproc']}, {m['cpu']}, python {m['python']}")
    for name, (value, unit) in record["metrics"].items():
        extra = ""
        if name == "instance_tail_ms":
            extra = (f"  (p{notes['tail_percentile']:.1f} of {notes['tail_samples']} runs"
                     f" of {notes['instances']} instances)")
        print(f"{record['workload']:7} {name:44} {value:14.6g} {unit}{extra}")
    print(f"{record['workload']:7} {'fail_rate':44} {notes['fail_rate']:14.6g} "
          f"({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for check, ok in notes.get("design", {}).items():
        if not ok:
            print(f"DESIGN FAILURE on {record['workload']}: {check}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one polyminor benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-instances", type=int, default=0,
                        help="only the first N instances of each pass (self-test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "polyminor" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'polyminor'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_one(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        except (RuntimeError, KeyError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_record(record)
        records.append(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["notes"].get("counts_repeat", True) for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        for name, (value, unit) in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
