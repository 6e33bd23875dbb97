"""One workload in a fresh interpreter: set up, run timed passes, check.

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 20 --mode run

run.py starts this script; it prints one JSON object as its last line.

Modes:
  setup  stop right after set-up; run.py times several fresh set-ups
  run    untraced passes over every instance until --seconds of queries
         have run, for the end-to-end metrics
  trace  one traced pass, one untraced pass, one traced pass, for the
         per-layer metrics; the two traced passes must count alike

A pass asks every instance once, in the seeded order, one query after the
other.  Only the queries are timed; output checks run between them.  Times
are reported in reference seconds (see speed.py) and in wall seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402


def run_pass(probe, instances, query, check, golden, tracer=None, base=0):
    """(reference seconds per instance, wall seconds per instance, failures)."""
    reference = []
    wall = []
    failures = []
    for idx, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = base + idx
        problem = None
        start = perf_counter()
        try:
            output = query(inst)
        except Exception as exc:  # a raising query is a failed instance
            output = None
            problem = f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        reference.append(probe.reference(start, end))
        wall.append(end - start)
        if problem is None and check is not None:
            try:
                problem = check(inst, output, golden)
            except Exception as exc:  # a certificate that cannot be checked
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{inst.key}: {problem}")
        del output
    return reference, wall, failures


def per_layer(counts, times_a, times_b, wall_traced, overhead, setup_times):
    """Per-pass layer metrics: counts of one pass, wall times of both averaged."""
    times = {k: (times_a[k] + times_b[k]) / 2 for k in times_a}
    out = dict(counts)
    out.update(times)
    out["enumeration.enumerate_polyominoes.incl_s"] = setup_times[
        "enumeration.enumerate_polyominoes.incl_s"
    ]
    checked = counts["graphrep.trace.accept"] + counts["graphrep.trace.reject_labeling"]
    out["graphrep.accept_ratio"] = counts["graphrep.trace.accept"] / checked if checked else 0.0
    formed = counts["groebner.s_pair.calls"]
    out["groebner.s_pair.useful_ratio"] = (
        counts["groebner.s_pair.nonzero"] / formed if formed else 0.0
    )
    out["toric.toric_ideal_of_map.share"] = times["toric.toric_ideal_of_map.incl_s"] / wall_traced
    out["toric.saturate.share"] = times["toric.saturate.incl_s"] / wall_traced
    out["trace.overhead_ratio"] = overhead
    return out


def design_checks(workload: str, layer: dict) -> dict[str, bool]:
    """The split the workloads were chosen for; a miss is reported, not fatal."""
    if workload == "corpus":
        return {"toric_ideal_of_map share > 0.5": layer["toric.toric_ideal_of_map.share"] > 0.5}
    if workload == "holes":
        return {
            "saturate share > 0.5": layer["toric.saturate.share"] > 0.5,
            "no toric_ideal_of_map calls": layer["toric.toric_ideal_of_map.calls"] == 0,
        }
    return {
        "no saturate calls": layer["toric.saturate.calls"] == 0,
        "no search_labeling calls": layer["graphrep.search_labeling.calls"] == 0,
    }


def timed_run(probe, instances, query, check, golden, seconds: float) -> dict:
    """Untraced whole passes until `seconds` of queries have run."""
    keys = [inst.key for inst in instances]
    reference = {key: [] for key in keys}
    wall = {key: [] for key in keys}
    failures = []
    busy, passes = 0.0, 0
    while passes == 0 or busy < seconds:
        ref, raw, failed = run_pass(probe, instances, query, check, golden)
        busy += sum(raw)
        passes += 1
        failures.extend(failed)
        for key, r, w in zip(keys, ref, raw):
            reference[key].append(r)
            wall[key].append(w)
    return {
        "passes": passes,
        "attempted": passes * len(instances),
        "failed": len(failures),
        "failures": failures[:20],
        "latencies": reference,
        "wall_latencies": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(probe, tracer, workloads, instances, query, check, golden, spans: Path) -> dict:
    """Traced pass, untraced pass, traced pass; the traced ones must count alike."""
    n = len(instances)
    setup_times = tracer.times()
    tracer.reset_aggregates()
    ref_a, raw_a, _ = run_pass(probe, instances, query, None, golden, tracer, 0)
    counts_a, times_a = tracer.counts(), tracer.times()
    tracer.uninstall()
    ref_u, _, failures = run_pass(probe, instances, query, check, golden)
    tracer.install(also=(workloads,))
    tracer.reset_aggregates()
    ref_b, raw_b, _ = run_pass(probe, instances, query, None, golden, tracer, n)
    counts_b, times_b = tracer.counts(), tracer.times()
    tracer.uninstall()

    overhead = (sum(ref_a) + sum(ref_b)) / 2 / sum(ref_u)
    wall_traced = (sum(raw_a) + sum(raw_b)) / 2
    layer = per_layer(counts_a, times_a, times_b, wall_traced, overhead, setup_times)
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
    if mismatched:
        failures.append(f"traced passes count differently on {mismatched}")
    keys = [inst.key for inst in instances]
    tracer.write_spans(str(spans), {"instance_keys": keys * 2})
    return {
        "passes": 3,
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:20],
        "layer": layer,
        "counts_repeat": not mismatched,
        "spans": str(spans.relative_to(HERE.parent)),
        "span_count": tracer.span_count(),
        "reference_s": {"traced_a": sum(ref_a), "untraced": sum(ref_u), "traced_b": sum(ref_b)},
    }


def main() -> int:
    begun = perf_counter()
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--max-instances", type=int, default=0)
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(also=(workloads,))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir, prefix=f"{args.workload}-")
    try:
        instances = workloads.build(args.workload, args.seed, workdir)
        if args.max_instances:
            instances = instances[: args.max_instances]
        ready = monotonic()
        ready_pc = perf_counter()
        # the scale of this process's set-up applies to its interpreter start too
        scale = probe.reference(begun, ready_pc) / (ready_pc - begun)
        result = {"ready": ready, "setup_scale": scale}
        if args.mode != "setup":
            with open(HERE / "golden.json", encoding="utf-8") as fh:
                golden = json.load(fh)
            query = workloads.QUERY[args.workload]
            check = workloads.CHECK[args.workload]
            result.update(instances=len(instances), keys=[inst.key for inst in instances])
            if args.mode == "run":
                result.update(timed_run(probe, instances, query, check, golden, args.seconds))
            else:
                spans = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
                result.update(
                    traced_run(probe, tracer, workloads, instances, query, check, golden, spans)
                )
                result["design"] = design_checks(args.workload, result["layer"])
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
