"""Command-line entry point: config ingestion, construction dispatch, and
reproducible CSV/JSONL/artifact emission.

All machine behaviour is declared from a fixed vocabulary of rule kinds —
configs never carry executable code.  Outputs are byte-deterministic:
sorted JSON keys, LF-terminated CSV, no timestamps.
Exit codes: 0 success, 1 library precondition error (``InvalidResidue``,
``PreconditionViolated``, ``RatioUnrealizable``, ``WindowExhausted``, ...),
2 configuration, 3 budget, 4 artifact integrity or verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import approximators, artifacts, builders, genericity, prioritysim
from .approximators import SubsetArtifact
from .core import (NEVER, CEStream, SetOracle, density_profile,
                   dyadic_class, dyadic_union, write_json, write_jsonl)
from .errors import (ArtifactError, BudgetExceeded, CedensityError,
                     ConfigError)
from .metrics import symdiff_profile


def _frac(v) -> Fraction:
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {v!r}") from exc


def _int_in(value, path: str, lo: int, hi=None) -> int:
    """value if it is an int (not a bool) in [lo, hi]; else a ConfigError
    naming its JSON path."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return value
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ConfigError(f"{path}: must be an integer {bound}, got {value!r}")


def _need(table, key, path: str):
    """table[key]; a missing field, or a label that names nothing, is a
    ConfigError naming the JSON path that holds it."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{path}: {key!r} not found") from None


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: must be a JSON object")
    uni = cfg.get("universe", {})
    if not isinstance(uni, dict):
        raise ConfigError("universe: must be a JSON object")
    for key in ("n_max", "stage_max"):
        # every element and stage below NEVER fits int64
        _int_in(_int_in(uni.get(key), f"universe.{key}", 1),
                f"universe.{key}", 1, NEVER - 1)
    if uni["n_max"] > NEVER // 16:  # numpy caps int64 arrays near 2^60
        raise BudgetExceeded(f"universe.n_max: a window of {uni['n_max']} "
                             "elements is too large to allocate")
    return cfg


def _build_set(spec: dict, path: str) -> SetOracle:
    kind = spec.get("kind")
    label = spec.get("label", kind)

    def need(key):
        return _need(spec, key, path)

    if kind == "empty":
        return SetOracle.empty(label)
    if kind == "naturals":
        return SetOracle.naturals(label)
    if kind == "explicit":
        return SetOracle.explicit(need("elements"), label)
    if kind == "residue-union":
        return SetOracle.residue_union(need("modulus"), need("residues"),
                                       label)
    if kind == "dyadic-class":
        return dyadic_class(need("k"), label)
    if kind == "dyadic-union":
        return dyadic_union(need("indices"),
                            include_zero=spec.get("include_zero", False),
                            label=label)
    raise ConfigError(f"unknown set kind {kind!r}")


def _int_pairs(value, path: str, shape: str, first_hi=None) -> list:
    """value if it is a list of integer pairs [a, b] with 0 <= a <=
    first_hi and b >= 0; else a ConfigError naming the JSON path."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: must be a list")
    for j, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{path}[{j}]: must be an {shape} pair, "
                              f"got {pair!r}")
        _int_in(pair[0], f"{path}[{j}]", 0, first_hi)
        _int_in(pair[1], f"{path}[{j}]", 0)
    return value


def _sets(cfg) -> dict:
    out = {}
    for i, spec in enumerate(cfg.get("sets", [])):
        if "label" not in spec:
            raise ConfigError("every set needs a label")
        out[spec["label"]] = _build_set(spec, f"sets[{i}]")
    return out


def _affine_stages(q, f: int, off: int, cut: int):
    """f·q + off for each entry q >= 0 of an int64 array, NEVER where that
    exceeds ``cut``.  f and q are capped at kept values before the product,
    so int64 never wraps, even for an f or off past it."""
    if off > cut:
        return NEVER
    last = (cut - off) // f if f else NEVER  # the largest q kept
    return np.where(q <= last, min(f, cut) * np.minimum(q, last) + off,
                    NEVER)


def _stage_fn(schedule: dict, path: str, stage_max: int):
    """The schedule's entry stages of the members m, in the array form that
    ``CEStream.from_oracle`` calls; it drops every stage past stage_max."""
    kind = schedule.get("kind", "own-stage")
    cut = min(stage_max, NEVER - 1)  # every stage kept fits int64
    if kind == "immediate":
        return lambda m: 0
    if kind == "own-stage":
        return lambda m: m
    if kind == "successor":
        return lambda m: m + 1
    if kind == "delayed":
        f = _int_in(schedule.get("factor", 1), f"{path}.factor", 0)
        off = _int_in(schedule.get("offset", 0), f"{path}.offset", 0)
        return lambda m: _affine_stages(m, f, off, cut)
    if kind == "burst":
        p = _int_in(_need(schedule, "period", path), f"{path}.period", 1)
        # ((m // p) + 1)·p; m // p is 0 for every m once p passes int64
        return lambda m: _affine_stages(m // min(p, NEVER) + 1, p, 0, cut)
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _streams(cfg, sets) -> dict:
    n_max = cfg["universe"]["n_max"]
    stage_max = cfg["universe"]["stage_max"]
    out = {}
    for i, spec in enumerate(cfg.get("streams", [])):
        label = spec.get("label")
        if label is None:
            raise ConfigError("every stream needs a label")
        schedule = spec.get("schedule", {})
        path = f"streams[{i}].schedule"
        if not isinstance(schedule, dict):
            raise ConfigError(f"{path}: must be a JSON object")
        if schedule.get("kind") == "scripted":
            pairs = _int_pairs(_need(schedule, "pairs", path),
                               f"{path}.pairs", "[element, stage]")
            try:
                out[label] = CEStream.from_schedule(
                    pairs, n_max=n_max, stage_max=stage_max, label=label)
            except ValueError as exc:  # an element given two stages
                raise ConfigError(f"{path}.pairs: {exc}") from None
            continue
        base = sets.get(spec.get("set"))
        if base is None:
            raise ConfigError(f"stream {label}: unknown set {spec.get('set')!r}")
        out[label] = CEStream.from_oracle(
            base, n_max=n_max, stage_max=stage_max,
            delay_fn=_stage_fn(schedule, path, stage_max), label=label)
    return out


def _decider(spec: dict, path: str) -> prioritysim.PartialDecider:
    P = prioritysim.PartialDecider
    label = spec.get("label")
    kind = spec.get("kind")
    delay = spec.get("delay", 0)

    def need(key):
        return _need(spec, key, path)

    if kind == "constant":
        return P.constant(need("value"), delay, label)
    if kind == "parity":
        return P.parity(delay, label)
    if kind == "residue":
        return P.residue(need("modulus"), need("residues"), delay, label)
    if kind == "never":
        return P.never(label)
    if kind == "value-delay":
        v = need("value")
        f = spec.get("delay_factor", 1)
        return P.delayed_rule(lambda n: v, lambda n: f * n, label)
    raise ConfigError(f"unknown decider kind {kind!r}")


def _deciders(cfg) -> dict:
    return {spec.get("label"): _decider(spec, f"deciders[{i}]")
            for i, spec in enumerate(cfg.get("deciders", []))}


def _jump(spec) -> prioritysim.JumpApprox:
    path = "construction.jump"
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    kind = spec.get("kind")

    def need(key, lo):
        return _int_in(_need(spec, key, path), f"{path}.{key}", lo)

    if kind == "never":
        return prioritysim.JumpApprox(lambda i, s: 0, lambda i, s: None)
    if kind == "step":
        on_at, use = need("on_at", 0), need("use", 0)
        return prioritysim.JumpApprox(
            lambda i, s: 1 if s >= on_at else 0,
            lambda i, s: use if s >= on_at else None)
    if kind == "blink":
        p, use = need("period", 1), need("use", 0)
        return prioritysim.JumpApprox(
            lambda i, s: (s // p) % 2, lambda i, s: use)
    raise ConfigError(f"unknown jump kind {kind!r}")


def _targets(values):
    return [_frac(v) for v in values]


class _ListTrace:
    """JSONL adapter for builders whose trace is a plain list of records."""

    def __init__(self, rows):
        self.rows = rows

    def write_jsonl(self, path):
        write_jsonl(path, self.rows)


def _approx(spec: dict, sets, n_max: int) -> builders.Delta2Approx:
    kind = spec.get("kind")
    window = spec.get("window", n_max)
    path = "construction.approx"

    def members(key):
        label = _need(spec, key, path)
        return _need(sets, label, f"{path}.{key}").membership_array(window)

    if kind == "constant":
        return builders.Delta2Approx.constant(members("set"),
                                              label=spec["set"])
    if kind == "flip":
        before, after = members("before"), members("after")
        at = _need(spec, "at", path)
        return builders.Delta2Approx(
            lambda s: after if s >= at else before, window, label="flip")
    raise ConfigError(f"unknown approximation kind {kind!r}")


# -- subcommands --------------------------------------------------------------

def cmd_density(cfg, outdir):
    n_max = cfg["universe"]["n_max"]
    sets = _sets(cfg)
    summary = {}
    for label, oracle in sorted(sets.items()):
        prof = density_profile(oracle, n_max)
        prof.write_csv(os.path.join(outdir, f"density_{label}.csv"))
        lo, hi = prof.window_bounds(1, n_max)
        summary[label] = {"window": [1, n_max],
                          "min": [lo.numerator, lo.denominator],
                          "max": [hi.numerator, hi.denominator]}
    write_json(os.path.join(outdir, "density_summary.json"), summary)
    return 0


def cmd_metrics(cfg, outdir):
    sets = _sets(cfg)
    spec = cfg.get("metrics")
    if not spec:
        raise ConfigError("config has no 'metrics' section")
    if not isinstance(spec, dict):
        raise ConfigError("metrics: must be a JSON object")
    a, b = (_need(sets, _need(spec, k, "metrics"), f"metrics.{k}")
            for k in ("a", "b"))
    n_max = cfg["universe"]["n_max"]
    lo = _int_in(spec.get("lo", 1), "metrics.lo", 1)
    hi = _int_in(spec.get("hi", n_max), "metrics.hi", lo)
    _int_in(hi, "metrics.hi", lo, n_max)  # no rows past the universe
    prof = symdiff_profile(a, b, hi)
    prof.write_csv(os.path.join(outdir, "metrics_profile.csv"))
    dmin, dmax = prof.sym.window_bounds(lo, hi)
    write_json(os.path.join(outdir, "metrics_summary.json"), {
        "window": [lo, hi],
        "sym_min": [dmin.numerator, dmin.denominator],
        "sym_max": [dmax.numerator, dmax.denominator],
        "b_subset_of_a": prof.b_subset_of_a,
    })
    return 0


def _dispatch_construct(cfg, sets, streams, deciders):
    """Returns (artifact, trace_or_None)."""
    spec = cfg.get("construction")
    if not spec:
        raise ConfigError("config has no 'construction' section")
    op = spec.get("op")
    n_max = cfg["universe"]["n_max"]
    stage_max = cfg["universe"]["stage_max"]

    def need(key):
        return _need(spec, key, "construction")

    def stream(key="stream"):
        return _need(streams, need(key), f"construction.{key}")

    def stream_list(key="streams"):
        return [_need(streams, x, f"construction.{key}") for x in need(key)]

    def decider_list(key="deciders"):
        return [_need(deciders, x, f"construction.{key}") for x in need(key)]

    if op == "checkpoint-subset":
        return approximators.checkpoint_subset(stream(), _frac(need("q"))), None
    if op == "tracking-checkpoint-subset":
        return approximators.tracking_checkpoint_subset(
            stream(), _targets(need("targets"))), None
    if op == "lookahead-subset":
        n0 = _int_in(spec.get("n0", 1), "construction.n0", 1, n_max + 1)
        return approximators.lookahead_subset(
            stream(), _frac(need("q")), n0), None
    if op == "witnessed-subset":
        w = spec.get("witness", {})
        if w.get("kind") == "constant":
            wfn = lambda k: w.get("value", 0)
        elif w.get("kind") == "exponential":
            base, shift = w.get("base", 2), w.get("shift", 1)
            wfn = lambda k: base ** (k + shift)
        else:
            raise ConfigError(f"unknown witness kind {w.get('kind')!r}")
        return approximators.witnessed_subset(stream(), wfn), None
    if op == "target-oscillation":
        return builders.infsup_build(_targets(need("targets")),
                                     need("n_checkpoints"), n_max), None
    if op == "density-transfer":
        B = _approx(need("approx"), sets, n_max)
        st, t, rows, report = builders.density_transfer_build(
            B, need("n_checkpoints"), stage_max, n_max)
        art = _stream_artifact(st, "density_transfer",
                               {"form": "membership-only"})
        art.meta["t"] = {str(k): v for k, v in sorted(t.items())}
        art.meta["report"] = report
        if "diagnostics" in report:
            art.diagnostics = report.pop("diagnostics")
        return art, _ListTrace(rows)
    if op == "blockwise-levels":
        vals = {int(k): _frac(v) for k, v in need("levels").items()}
        g = builders.StableMonotoneG(
            lambda n, s: vals.get(n, Fraction(0)), label="const-levels")
        st, levels = builders.blockwise_limit_build(
            g, need("n_blocks"), stage_max)
        return _stream_artifact(st, "blockwise_levels",
                                builders.levels_guarantee(levels)), None
    if op == "limsup-blockwise":
        st, levels, _g = builders.limsup_density_build(
            _targets(need("targets")), need("n_blocks"), stage_max)
        return _stream_artifact(st, "limsup_blockwise",
                                builders.levels_guarantee(levels)), None
    if op == "blockwise-union":
        st = prioritysim.blockwise_union_build(stream_list(), n_max,
                                               stage_max)
        return _stream_artifact(st, "blockwise_union",
                                {"form": "membership-only"}), None
    if op == "prefix-gated":
        st, report = prioritysim.prefix_gated_build(stream_list(), n_max,
                                                    stage_max)
        art = _stream_artifact(st, "prefix_gated",
                               {"form": "membership-only"})
        art.meta["report"] = {str(k): v for k, v in report.items()}
        return art, None
    if op == "ratio-interval":
        st, intervals, trace = prioritysim.ratio_interval_build(
            decider_list(), n_max, stage_max)
        recs = [iv for e in sorted(trace.outcomes)
                for iv in [dict(v, e=e) for v in
                           trace.outcomes[e]["intervals"]]]
        art = _stream_artifact(st, "ratio_interval",
                               {"form": "ratio-interval-report"})
        art.checkpoints = recs
        return art, trace
    if op == "restraint-witness":
        st, trace = prioritysim.restraint_witness_build(stream_list(), n_max,
                                                        stage_max)
        art = _stream_artifact(st, "restraint_witness",
                               {"form": "restraint-report"})
        art.checkpoints = [dict(v, k=k) for k, v in
                           sorted(trace.outcomes.items())]
        return art, trace
    if op == "sparse-hitting":
        st, report = builders.sparse_hitting_build(stream_list(), n_max,
                                                   stage_max)
        art = _stream_artifact(st, "sparse_hitting", {"form": "log-sparse"})
        art.checkpoints = report
        return art, None
    if op == "permitted-interval":
        permitter, jump = stream("permitter"), _jump(spec.get("jump", {}))
        members = stream_list()
        pairs = None
        if "pairs" in spec:
            pairs = [tuple(p) for p in _int_pairs(
                spec["pairs"], "construction.pairs", "[e, i]",
                len(members) - 1)]
            if len(set(pairs)) < len(pairs):  # one strategy per pair
                raise ConfigError("construction.pairs: a pair is listed twice")
        st, g_rows, trace = prioritysim.permitted_interval_build(
            permitter, jump, members, n_max, stage_max, pairs=pairs)
        art = _stream_artifact(st, "permitted_interval",
                               {"form": "membership-only"})
        art.meta["g_rows"] = {str(p): rows for p, rows in g_rows.items()}
        return art, trace
    if op == "split-interval":
        a0, a1, trace = prioritysim.split_interval_build(
            stream("permitter"), decider_list(), n_max, stage_max)
        art = _stream_artifact(a0, "split_interval_a0",
                               {"form": "membership-only"})
        art.meta["a1_rle"] = artifacts.bits_to_rle(a1.final_members())
        return art, trace
    raise ConfigError(f"unknown construction op {op!r}")


def _stream_artifact(st: CEStream, kind: str, guarantee: dict):
    return SubsetArtifact(kind, st.final_members(), guarantee=guarantee,
                          meta={"stream": st.label})


def cmd_construct(cfg, outdir):
    sets = _sets(cfg)
    streams = _streams(cfg, sets)
    deciders = _deciders(cfg)
    art, trace = _dispatch_construct(cfg, sets, streams, deciders)
    apath = os.path.join(outdir, "artifact.json")
    artifacts.save_artifact(art, apath)
    if trace is not None:
        trace.write_jsonl(os.path.join(outdir, "trace.jsonl"))
    # independent re-verification pass, from the file just written
    reloaded = artifacts.load_artifact(apath)
    artifacts.write_certified_csv(reloaded, os.path.join(outdir,
                                                         "certified.csv"))
    report = artifacts.verify_artifact(reloaded)
    write_json(os.path.join(outdir, "verify.json"), report)
    if not report["ok"]:
        print("verification failed:", report["failures"][:3],
              file=sys.stderr)
        return 4
    return 0


def cmd_check(artifact_path):
    try:
        art = artifacts.load_artifact(artifact_path)
    except ArtifactError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 4
    report = artifacts.verify_artifact(art)
    if report["ok"]:
        print(f"PASS: {art.kind} ({art.n_max} elements, "
              f"{len(art.checkpoints)} records)")
        return 0
    print("FAIL:", "; ".join(report["failures"][:5]), file=sys.stderr)
    return 4


def cmd_generic(cfg, outdir):
    sets = _sets(cfg)
    deciders = _deciders(cfg)
    spec = cfg.get("generic")
    if not spec:
        raise ConfigError("config has no 'generic' section")
    dec = _need(deciders, _need(spec, "decider", "generic"), "generic.decider")
    target = _need(sets, _need(spec, "set", "generic"), "generic.set")
    n_max = cfg["universe"]["n_max"]
    r = _frac(spec.get("r", "0"))
    lo = _int_in(spec.get("lo", 1), "generic.lo", 1, n_max)
    rep = genericity.evaluate_partial(dec, target, n_max,
                                      cfg["universe"]["stage_max"])
    rep.domain.write_csv(os.path.join(outdir, "generic_domain.csv"))
    report = genericity.density_verdict(rep, r, lo)
    alpha = report.pop("alpha_estimate")
    report["alpha_estimate"] = [alpha.numerator, alpha.denominator]
    write_json(os.path.join(outdir, "generic_summary.json"), report)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cedensity",
        description="exact density profiles and effective constructions")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("density", "construct", "generic", "metrics"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    pc = sub.add_parser("check")
    pc.add_argument("--artifact", required=True)
    args = ap.parse_args(argv)

    try:
        if args.command == "check":
            return cmd_check(args.artifact)
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        fn = {"density": cmd_density, "construct": cmd_construct,
              "generic": cmd_generic, "metrics": cmd_metrics}[args.command]
        return fn(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, MemoryError) as exc:  # a window past memory
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except CedensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
