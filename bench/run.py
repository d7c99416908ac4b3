"""cedensity benchmark: time one workload of CLI jobs end to end, or trace
it layer by layer, and check every output.

Run from the root of a cedensity checkout:

    python3 bench/run.py --workload extract --seed 1 --seconds 20 --trace 0

The workload runs in a single worker process (``bench/worker.py``) that
calls ``cedensity.cli.main`` once per job, in sequence.  Set-up (fresh
interpreter, imports, input generation, prebuild jobs) is timed from this
process, SETUP_REPEATS times, the last of which goes on to the timed
passes.  The outputs of the first pass and of the prebuild jobs are then
checked here by ``checker.py``; every pass must also reproduce the first
pass's bytes.

The end-to-end times (``wall_s``, ``cpu_s``, ``setup_s``) are scaled to
reference host speed: each job and each set-up is bracketed by timings of
the fixed loop in ``hostspeed.py``, and its time is multiplied by
``REF_LOOP_S`` over their mean, so that the drift of a shared host's CPU
speed cancels out.  The first pass is a warm-up that is checked but not
timed; ``wall_s`` and ``cpu_s`` add up each job's median over the other
passes.  The raw medians are printed as comment lines.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The ``metrics`` units are listed in END_TO_END and
PER_LAYER and mirrored in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checker
import hostspeed
import workloads
from worker import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
TIME_LIMIT_S = 175

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "output_bytes": "bytes", "job_success_ratio": "ratio",
}

PER_LAYER = {
    "core.stream_build.self_s": "s",
    "core.stream_build.calls": "count",
    "core.density_profile.self_s": "s",
    "core.profile_csv.self_s": "s",
    "core.profile_csv.bytes": "bytes",
    "core.window_bounds.self_s": "s",
    "metrics.symdiff.self_s": "s",
    "metrics.symdiff_csv.self_s": "s",
    "metrics.symdiff_csv.bytes": "bytes",
    "genericity.evaluate_partial.self_s": "s",
    "genericity.evaluate_partial.calls_per_job": "calls/job",
    "approximators.checkpoint_subset.self_s": "s",
    "approximators.precondition.self_s": "s",
    "approximators.pair_search.self_s": "s",
    "approximators.pair_search.calls": "count",
    "approximators.checkpoints": "ratio",
    "approximators.stage_table.self_s": "s",
    "approximators.lookahead_bits.self_s": "s",
    "approximators.margin_check.self_s": "s",
    "approximators.helpers_absent": "count",
    "builders.sparse_hitting.self_s": "s",
    "builders.sparse_hitting.stage_scans": "count",
    "prioritysim.ratio_interval.self_s": "s",
    "prioritysim.restraint_witness.self_s": "s",
    "prioritysim.permitted_interval.self_s": "s",
    "prioritysim.split_interval.self_s": "s",
    "prioritysim.stages_simulated": "count",
    "prioritysim.trace_write.self_s": "s",
    "prioritysim.trace_write.bytes": "bytes",
    "artifacts.save.self_s": "s",
    "artifacts.save.bytes": "bytes",
    "artifacts.certified_csv.self_s": "s",
    "artifacts.certified_csv.rows": "count",
    "artifacts.load.self_s": "s",
    "artifacts.verify.self_s": "s",
    "artifacts.verify.failures": "count",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
    "trace.pass_wall_s": "s",
    **{f"growth.{layer}": "exponent" for layer in LAYERS},
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _remaining(start):
    left = TIME_LIMIT_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("time limit exceeded")
    return left


def run_worker(args, work, start, setup_only):
    """Run one worker to completion; returns its set-up seconds, from
    process start to its ``ready`` line, raw and scaled to reference host
    speed by the loop timed just before and just after."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--root", os.getcwd(), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    if args.trace:
        cmd += ["--spans", os.path.join(
            ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    loop0 = hostspeed.ref_loop_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(start))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        loop1 = hostspeed.ref_loop_s()
        proc.wait(timeout=_remaining(start))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup_s, setup_s * hostspeed.scale_factors([loop0, loop1])[0]


def check_outputs(wl, result, full_dir):
    """(attempted, failed, problems) over prebuild jobs and every pass."""
    attempted = failed = 0
    problems = []
    for j in wl["prebuild"]:
        res = result["prebuild"][j["name"]]
        found = checker.check_job(j, os.path.join(full_dir, "prebuilt",
                                                  j["name"]),
                                  res["exit"], res["stdout"])
        attempted += 1
        failed += bool(found)
        problems += found
    passes = result["passes"]
    for j in wl["jobs"]:
        first = passes[0]["jobs"][j["name"]]
        found = checker.check_job(j, os.path.join(full_dir, "pass-0",
                                                  j["name"]),
                                  first["exit"], first["stdout"])
        problems += found
        for i, p in enumerate(passes):
            rec = p["jobs"][j["name"]]
            attempted += 1
            if rec["digest"] != first["digest"]:
                problems.append(f"{j['name']}: pass {i} output bytes differ "
                                "from pass 0")
            failed += bool(found or rec["exit"] != 0
                           or rec["digest"] != first["digest"])
    return attempted, failed, problems


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def typical_pass(passes, key):
    """Sum over the jobs of each job's median scaled time over ``passes``:
    a typical pass, which a slow spell of the host during one job of one
    pass does not move."""
    return sum(statistics.median(p[key][i] for p in passes)
               for i in range(len(passes[0][key])))


def end_to_end(result, setups, attempted, failed):
    """Times are scaled to reference host speed (``hostspeed``).  The first
    pass is a warm-up: it is checked but not timed.  The raw medians are
    printed alongside."""
    passes = result["passes"][1:]
    scaled_setups = [scaled for _, scaled in setups]
    for name, vals, raw in (
            ("wall_s", [sum(p["wall_ref"]) for p in passes],
             [p["wall"] for p in passes]),
            ("cpu_s", [sum(p["cpu_ref"]) for p in passes],
             [p["cpu"] for p in passes]),
            ("setup_s", scaled_setups, [s for s, _ in setups])):
        q1, q3 = _quartiles(vals)
        print(f"# {name}: median {statistics.median(vals):.4f} s scaled, "
              f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(vals)}; "
              f"raw median {statistics.median(raw):.4f} s")
    loop = statistics.median(p["ref_loop"] for p in passes)
    print(f"# reference loop: median {loop * 1e3:.3f} ms "
          f"(REF_LOOP_S {hostspeed.REF_LOOP_S * 1e3:.3f} ms)")
    print(f"# fail_ratio: {failed}/{attempted} jobs")
    return {
        "wall_s": typical_pass(passes, "wall_ref"),
        "cpu_s": typical_pass(passes, "cpu_ref"),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(scaled_setups),
        "output_bytes": passes[0]["bytes"],
        "job_success_ratio": (attempted - failed) / attempted,
    }


def per_layer(result):
    """Layer metrics of the traced pass with the median wall time, so that
    its self times add up to its wall time; the tracing overhead is the
    median over (untraced, traced) pass pairs run back to back."""
    passes = result["passes"]
    plain, traced = passes[0::2], passes[1::2]
    rep = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
    out = dict(rep["layers"])
    out["trace.pass_wall_s"] = rep["wall"]
    out["trace_overhead_s"] = statistics.median(
        t["wall"] - u["wall"] for u, t in zip(plain, traced))
    out["approximators.helpers_absent"] = len(rep["helpers_absent"])
    out.update(result["growth"])
    if rep["helpers_absent"]:
        print("# absent helpers: " + ", ".join(rep["helpers_absent"]))
    self_sum = sum(v for k, v in rep["layers"].items()
                   if k.endswith(".self_s"))
    print(f"# traced passes: {len(traced)}; self times sum to "
          f"{self_sum:.4f} s of a {rep['wall']:.4f} s traced pass")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the worker is killed and the work removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join("src", "cedensity", "cli.py")):
        print("bench/run.py: no src/cedensity here; run it from the root "
              "of a cedensity checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    work = os.path.join(".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for i in range(repeats):
            last = i == repeats - 1
            setups.append(run_worker(args, work if last else f"{work}-s{i}",
                                     start, setup_only=not last))
            if not last:
                shutil.rmtree(f"{work}-s{i}")
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        wl = workloads.make_workload(args.workload, args.seed)
        attempted, failed, problems = check_outputs(
            wl, result, os.path.join(work, "full"))
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in (work, *(f"{work}-s{i}" for i in range(SETUP_REPEATS))):
            shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(".bench_work")

    for p in problems[:20]:
        print(f"# FAIL {p}")
    values = (per_layer(result) if args.trace
              else end_to_end(result, setups, attempted, failed))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
