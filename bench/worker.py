"""Benchmark worker: one process, one workload, no threads.

Set-up imports ``cedensity`` from the checkout's ``src/``, writes the
workload's configs and runs its prebuild jobs, then prints ``ready``.
After that the worker calls ``cedensity.cli.main`` once per job, in
sequence, for timed passes over the job list until ``--seconds`` is used
up.  Each pass's wall and CPU time come from this process alone
(``RUSAGE_SELF``), as does the peak RSS; both times are summed over the
jobs, and also scaled job by job to reference host speed with the
``hostspeed`` loop timed between jobs.  Every job's output files and
stdout are hashed after each pass, outside the timed region, so that
byte-identical reruns can be checked; the outputs of the first pass are
kept for the semantic checks in ``run.py``.

With ``--trace 1`` the worker alternates untraced and traced passes and
then runs traced passes at a smaller window for growth exponents.  Spans
stay in memory and are written to ``--spans`` when the run ends.

    python3 bench/worker.py --root . --workload extract --seed 1 \
        --seconds 20 --trace 0 --work .bench_work/x
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import hostspeed
import workloads
from tracer import Tracer, call_counts, self_times

MIN_PASSES = 4       # untraced runs, the first of them a warm-up
MIN_PAIRS = 2        # traced runs: (untraced, traced) pairs
GROWTH_PASSES = 3
LAYERS = ("core", "metrics", "genericity", "approximators", "builders",
          "prioritysim", "artifacts", "cli")


# -- counters taken at layer boundaries ---------------------------------------

def _file_bytes(key, path_arg):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[path_arg])
    return count


def _csv_rows(counts, args, kwargs, result):
    with open(args[1], "rb") as fh:
        counts["artifacts.certified_csv.rows"] += sum(1 for _ in fh) - 1


def _verify_failures(counts, args, kwargs, result):
    counts["artifacts.verify.failures"] += len(result["failures"])


def _checkpoint_found(counts, args, kwargs, result):
    counts["approximators.checkpoints_found"] += result is not None


def _stages(counts, args, kwargs, result):
    stage_max = kwargs.get("stage_max", args[-1])
    counts["prioritysim.stages_simulated"] += stage_max + 1


class _ScanCountingNumpy:
    """numpy as ``builders`` sees it while traced: counts ``np.nonzero``
    calls made directly by ``sparse_hitting_build``, each one a scan of a
    whole stream for one stage."""

    def __init__(self, np, tracer):
        self._np = np
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._np, name)

    def nonzero(self, *args, **kwargs):
        if self._tracer.innermost() == "builders.sparse_hitting":
            self._tracer.counters["builders.sparse_hitting.stage_scans"] += 1
        return self._np.nonzero(*args, **kwargs)


def install_layer_spans(tracer, mods) -> list:
    """Wrap each layer's public functions where the CLI looks them up.
    Returns the private approximator helpers that no longer exist; their
    metrics then read 0."""
    core, cli, ap = mods["core"], mods["cli"], mods["approximators"]
    art, pr, gen = mods["artifacts"], mods["prioritysim"], mods["genericity"]
    bld, met = mods["builders"], mods["metrics"]
    # core.stream_build also covers the builds inside prioritysim builders
    tracer.wrap(core.CEStream, "from_oracle", "core.stream_build")
    tracer.wrap(core.CEStream, "from_schedule", "core.stream_build")
    tracer.wrap(cli, "density_profile", "core.density_profile")
    tracer.wrap(core.DensityProfile, "write_csv", "core.profile_csv",
                _file_bytes("core.profile_csv.bytes", 1))
    tracer.wrap(core.DensityProfile, "window_bounds", "core.window_bounds")
    tracer.wrap(cli, "symdiff_profile", "metrics.symdiff")
    tracer.wrap(met.SymDiffProfile, "write_csv", "metrics.symdiff_csv",
                _file_bytes("metrics.symdiff_csv.bytes", 1))
    tracer.wrap(gen, "evaluate_partial", "genericity.evaluate_partial")
    tracer.wrap(ap, "checkpoint_subset", "approximators.checkpoint_subset")
    # lookahead_subset's own time is its inline precondition scan and the
    # guarantee record, once the helper spans below are taken out
    tracer.wrap(ap, "lookahead_subset", "approximators.precondition")
    absent = [h for h, span, counter in (
        ("_first_pair_search", "approximators.pair_search",
         _checkpoint_found),
        ("_stage_table_kth", "approximators.stage_table", None),
        ("_lookahead_bits", "approximators.lookahead_bits", None),
        ("_margin_guarantee_holds", "approximators.margin_check", None))
        if not tracer.wrap(ap, h, span, counter)]
    tracer.wrap(bld, "sparse_hitting_build", "builders.sparse_hitting")
    tracer.replace(bld, "np", _ScanCountingNumpy(bld.np, tracer))
    for fn in ("ratio_interval", "restraint_witness", "permitted_interval",
               "split_interval"):
        tracer.wrap(pr, f"{fn}_build", f"prioritysim.{fn}", _stages)
    tracer.wrap(pr.ConstructionTrace, "write_jsonl", "prioritysim.trace_write",
                _file_bytes("prioritysim.trace_write.bytes", 1))
    tracer.wrap(art, "save_artifact", "artifacts.save",
                _file_bytes("artifacts.save.bytes", 1))
    tracer.wrap(art, "load_artifact", "artifacts.load")
    tracer.wrap(art, "write_certified_csv", "artifacts.certified_csv",
                _csv_rows)
    tracer.wrap(art, "verify_artifact", "artifacts.verify", _verify_failures)
    return absent


SELF_TIME_SPANS = (
    "core.stream_build", "core.density_profile", "core.profile_csv",
    "core.window_bounds", "metrics.symdiff", "metrics.symdiff_csv",
    "genericity.evaluate_partial", "approximators.checkpoint_subset",
    "approximators.precondition", "approximators.pair_search",
    "approximators.stage_table", "approximators.lookahead_bits",
    "approximators.margin_check", "builders.sparse_hitting",
    "prioritysim.ratio_interval", "prioritysim.restraint_witness",
    "prioritysim.permitted_interval", "prioritysim.split_interval",
    "prioritysim.trace_write", "artifacts.save", "artifacts.certified_csv",
    "artifacts.load", "artifacts.verify", "cli")

COUNTERS = (
    "core.profile_csv.bytes", "metrics.symdiff_csv.bytes",
    "builders.sparse_hitting.stage_scans", "prioritysim.stages_simulated",
    "prioritysim.trace_write.bytes", "artifacts.save.bytes",
    "artifacts.certified_csv.rows", "artifacts.verify.failures")


def layer_metrics(spans, counts, jobs) -> dict:
    """Per-layer metrics of one traced pass."""
    st = self_times(spans)
    calls = call_counts(spans)
    out = {f"{s}.self_s": st.get(s, 0.0) for s in SELF_TIME_SPANS}
    out.update({c: counts.get(c, 0) for c in COUNTERS})
    out["core.stream_build.calls"] = calls.get("core.stream_build", 0)
    searches = calls.get("approximators.pair_search", 0)
    out["approximators.pair_search.calls"] = searches
    out["approximators.checkpoints"] = (
        counts.get("approximators.checkpoints_found", 0) / searches
        if searches else 0.0)
    generic_jobs = sum(j["command"] == "generic" for j in jobs)
    out["genericity.evaluate_partial.calls_per_job"] = (
        calls.get("genericity.evaluate_partial", 0) / generic_jobs
        if generic_jobs else 0.0)
    return out


def layer_seconds(spans) -> dict:
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, secs in self_times(spans).items():
        per_layer[name.split(".")[0]] += secs
    return per_layer


# -- jobs and passes ----------------------------------------------------------

def run_job(cli, job, config_dir, pass_dir, artifact_dirs):
    """Call ``cli.main`` once; returns (exit code, captured stdout)."""
    if job["command"] == "check":
        argv = ["check", "--artifact",
                os.path.join(artifact_dirs[job["artifact_of"]],
                             "artifact.json")]
    else:
        argv = [job["command"], "--config",
                os.path.join(config_dir, f"{job['name']}.json"),
                "--out", os.path.join(pass_dir, job["name"])]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job, not a failed run
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def job_output(job, pass_dir, stdout):
    """(sha256, bytes) over a job's stdout and every file it wrote."""
    h = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    out = os.path.join(pass_dir, job["name"])
    if job["command"] != "check" and os.path.isdir(out):
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                data = fh.read()
            h.update(fname.encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cli, wl, pass_dir, tracer=None, mods=None):
    jobs = wl["jobs"]
    artifact_dirs = dict(wl["prebuilt_dirs"])
    artifact_dirs.update({j["name"]: os.path.join(pass_dir, j["name"])
                          for j in jobs})
    os.makedirs(pass_dir)
    absent = []
    if tracer is not None:
        tracer.reset()
        absent = install_layer_spans(tracer, mods)
    gc.collect()
    results, walls, cpus = [], [], []
    loops = [hostspeed.ref_loop_s()]
    for j in jobs:
        t0, c0 = time.perf_counter(), _cpu_seconds()
        idx = tracer.open("cli") if tracer is not None else None
        results.append(run_job(cli, j, wl["config_dir"], pass_dir,
                               artifact_dirs))
        if tracer is not None:
            tracer.close(idx)
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_seconds() - c0)
        loops.append(hostspeed.ref_loop_s())
    factors = hostspeed.scale_factors(loops)
    record = {"wall": sum(walls), "cpu": sum(cpus),
              "wall_ref": [w * f for w, f in zip(walls, factors)],
              "cpu_ref": [c * f for c, f in zip(cpus, factors)],
              "ref_loop": statistics.median(loops),
              "traced": tracer is not None, "scale": wl["scale"],
              "jobs": {}}
    if tracer is not None:
        tracer.restore()
        counts = tracer.settle()
        record["layers"] = layer_metrics(tracer.spans, counts, jobs)
        record["layer_seconds"] = layer_seconds(tracer.spans)
        record["helpers_absent"] = absent
        record["spans"] = tracer.spans
    total = 0
    for j, (code, stdout) in zip(jobs, results):
        digest, size = job_output(j, pass_dir, stdout)
        total += size
        record["jobs"][j["name"]] = {"exit": code, "digest": digest,
                                     "bytes": size, "stdout": stdout}
    record["bytes"] = total
    return record


def prepare(cli, wl, work):
    """Write configs and run prebuild jobs (part of set-up)."""
    config_dir = os.path.join(work, "configs")
    os.makedirs(config_dir)
    for j in wl["prebuild"] + wl["jobs"]:
        if j["config"] is not None:
            with open(os.path.join(config_dir, f"{j['name']}.json"),
                      "w") as fh:
                json.dump(j["config"], fh, sort_keys=True)
    prebuilt = os.path.join(work, "prebuilt")
    os.makedirs(prebuilt)
    wl["config_dir"] = config_dir
    wl["prebuilt_dirs"] = {}
    wl["prebuild_results"] = {}
    for j in wl["prebuild"]:
        code, stdout = run_job(cli, j, config_dir, prebuilt, {})
        wl["prebuild_results"][j["name"]] = {"exit": code, "stdout": stdout}
        wl["prebuilt_dirs"][j["name"]] = os.path.join(prebuilt, j["name"])


def measure(cli, wl, work, seconds, tracer=None, mods=None):
    """Passes until ``seconds`` is used up: single untraced passes, or with
    a tracer, pairs of one untraced and one traced pass."""
    modes = (None,) if tracer is None else (None, tracer)
    least = MIN_PASSES if tracer is None else MIN_PAIRS
    start = time.perf_counter()
    passes = []
    while True:
        before = time.perf_counter()
        for t in modes:
            pass_dir = os.path.join(work, f"pass-{len(passes)}")
            passes.append(run_pass(cli, wl, pass_dir, t, mods))
            if len(passes) > 1:
                shutil.rmtree(pass_dir)
        cycle = time.perf_counter() - before
        done = len(passes) // len(modes)
        if (done >= least
                and time.perf_counter() - start + cycle > seconds):
            return passes


def write_spans(path, passes) -> None:
    """One JSON line per span: pass index, window scale, name, parent span
    index within the pass, start and end (perf_counter seconds)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for i, p in enumerate(passes):
            for name, parent, start, end in p.pop("spans", ()):
                fh.write(json.dumps([i, p["scale"], name, parent, start, end])
                         + "\n")


def growth_exponents(full_passes, small_passes) -> dict:
    """Per-layer exponent b in time ~ n^b, from the median traced layer
    seconds at n_max and at n_max / GROWTH_DIVISOR."""
    out = {}
    for layer in LAYERS:
        big = statistics.median(p["layer_seconds"][layer]
                                for p in full_passes)
        small = statistics.median(p["layer_seconds"][layer]
                                  for p in small_passes)
        out[f"growth.{layer}"] = (
            math.log(big / small) / math.log(workloads.GROWTH_DIVISOR)
            if big > 0 and small > 0 else 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import cedensity
    from cedensity import (approximators, artifacts, builders, cli, core,
                           genericity, metrics, prioritysim)
    if os.path.dirname(os.path.abspath(cedensity.__file__)) != os.path.join(
            src, "cedensity"):
        print(f"cedensity imported from {cedensity.__file__}, not {src}",
              file=sys.stderr)
        return 2
    mods = {"core": core, "cli": cli, "approximators": approximators,
            "artifacts": artifacts, "prioritysim": prioritysim,
            "genericity": genericity, "builders": builders,
            "metrics": metrics}

    os.makedirs(args.work)
    wl = workloads.make_workload(args.workload, args.seed)
    prepare(cli, wl, os.path.join(args.work, "full"))
    if args.trace:
        small = workloads.make_workload(args.workload, args.seed,
                                        scale=workloads.GROWTH_DIVISOR)
        prepare(cli, small, os.path.join(args.work, "small"))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    passes = measure(cli, wl, os.path.join(args.work, "full"), args.seconds,
                     tracer, mods)
    result = {"passes": passes, "prebuild": wl["prebuild_results"],
              "maxrss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if args.trace:
        small_passes = []
        for i in range(GROWTH_PASSES):
            pass_dir = os.path.join(args.work, "small", f"pass-{i}")
            small_passes.append(run_pass(cli, small, pass_dir, tracer,
                                         mods))
            shutil.rmtree(pass_dir)
        result["growth"] = growth_exponents(
            [p for p in passes if p["traced"]], small_passes)
        if args.spans:
            write_spans(args.spans, passes + small_passes)
    for p in passes:
        p.pop("spans", None)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
