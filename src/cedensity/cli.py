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


def _frac(v, path: str) -> Fraction:
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: bad rational {v!r}") from exc


def _unit(v, path: str) -> Fraction:
    """v as a rational strictly between 0 and 1; else a ConfigError."""
    q = _frac(v, path)
    if not 0 < q < 1:
        raise ConfigError(f"{path}: must be a rational in (0, 1), got {v!r}")
    return q


def _int_in(value, path: str, lo: int, hi=None) -> int:
    """value if it is an int (not a bool) in [lo, hi]; else a ConfigError
    naming its JSON path."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return value
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ConfigError(f"{path}: must be an integer {bound}, got {value!r}")


def _object(value, path: str) -> dict:
    """value if it is a JSON object; else a ConfigError naming its path."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    return value


def _list(value, path: str, nonempty: bool = False) -> list:
    """value if it is a list (with an entry, if ``nonempty``); else a
    ConfigError naming its path."""
    if not isinstance(value, list) or (nonempty and not value):
        kind = "a nonempty list" if nonempty else "a list"
        raise ConfigError(f"{path}: must be {kind}, got {value!r}")
    return value


def _ints(value, path: str, lo: int, hi=None) -> list:
    """value if it is a list of ints in [lo, hi]; else a ConfigError."""
    return [_int_in(v, f"{path}[{j}]", lo, hi)
            for j, v in enumerate(_list(value, path))]


def _label(spec: dict, path: str) -> str:
    label = _need(spec, "label", path)
    if not isinstance(label, str):
        raise ConfigError(f"{path}.label: must be a string, got {label!r}")
    return label


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
    uni = _object(_object(cfg, "config").get("universe", {}), "universe")
    for key in ("n_max", "stage_max"):
        # every element and stage below NEVER fits int64
        _int_in(_int_in(uni.get(key), f"universe.{key}", 1),
                f"universe.{key}", 1, NEVER - 1)
    if uni["n_max"] > NEVER // 16:  # numpy caps int64 arrays near 2^60
        raise BudgetExceeded(f"universe.n_max: a window of {uni['n_max']} "
                             "elements is too large to allocate")
    return cfg


def _build_set(spec: dict, label: str, path: str) -> SetOracle:
    kind = spec.get("kind")

    def need(key):
        return _need(spec, key, path)

    def ints(key, lo, hi=None):
        return _ints(need(key), f"{path}.{key}", lo, hi)

    if kind == "empty":
        return SetOracle.empty(label)
    if kind == "naturals":
        return SetOracle.naturals(label)
    if kind == "explicit":
        return SetOracle.explicit(ints("elements", 0, NEVER), label)
    if kind == "residue-union":
        m = _int_in(need("modulus"), f"{path}.modulus", 1, NEVER)
        return SetOracle.residue_union(m, ints("residues", 0, m - 1), label)
    if kind == "dyadic-class":
        # 2^k < 2^63: past that no window holds a member of the class
        return dyadic_class(_int_in(need("k"), f"{path}.k", 0, 62), label)
    if kind == "dyadic-union":
        include_zero = spec.get("include_zero", False)
        if not isinstance(include_zero, bool):
            raise ConfigError(f"{path}.include_zero: must be true or false, "
                              f"got {include_zero!r}")
        return dyadic_union(ints("indices", 0), include_zero=include_zero,
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
    for i, spec in enumerate(_list(cfg.get("sets", []), "sets")):
        path = f"sets[{i}]"
        label = _label(_object(spec, path), path)
        if "/" in label or "\0" in label:  # density_<label>.csv is a file
            raise ConfigError(f"{path}.label: must not hold '/' or NUL, "
                              f"got {label!r}")
        out[label] = _build_set(spec, label, path)
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
    for i, spec in enumerate(_list(cfg.get("streams", []), "streams")):
        label = _label(_object(spec, f"streams[{i}]"), f"streams[{i}]")
        path = f"streams[{i}].schedule"
        schedule = _object(spec.get("schedule", {}), path)
        if schedule.get("kind") == "scripted":
            pairs = _int_pairs(_need(schedule, "pairs", path),
                               f"{path}.pairs", "[element, stage]")
            try:
                out[label] = CEStream.from_schedule(
                    pairs, n_max=n_max, stage_max=stage_max, label=label)
            except ValueError as exc:  # an element given two stages
                raise ConfigError(f"{path}.pairs: {exc}") from None
            continue
        base = _need(sets, _need(spec, "set", f"streams[{i}]"),
                     f"streams[{i}].set")
        out[label] = CEStream.from_oracle(
            base, n_max=n_max, stage_max=stage_max,
            delay_fn=_stage_fn(schedule, path, stage_max), label=label)
    return out


def _decider(spec: dict, label: str, path: str
             ) -> prioritysim.PartialDecider:
    P = prioritysim.PartialDecider
    kind = spec.get("kind")

    def int_field(key, lo, hi=None):
        return _int_in(_need(spec, key, path), f"{path}.{key}", lo, hi)

    delay = _int_in(spec.get("delay", 0), f"{path}.delay", 0)
    if kind == "constant":
        return P.constant(int_field("value", 0, 1), delay, label)
    if kind == "parity":
        return P.parity(delay, label)
    if kind == "residue":
        m = int_field("modulus", 1)
        return P.residue(m, _ints(_need(spec, "residues", path),
                                  f"{path}.residues", 0, m - 1), delay, label)
    if kind == "never":
        return P.never(label)
    if kind == "value-delay":
        v = int_field("value", 0, 1)
        f = _int_in(spec.get("delay_factor", 1), f"{path}.delay_factor", 0)
        return P.delayed_rule(lambda n: v, lambda n: f * n, label)
    raise ConfigError(f"unknown decider kind {kind!r}")


def _deciders(cfg) -> dict:
    out = {}
    for i, spec in enumerate(_list(cfg.get("deciders", []), "deciders")):
        path = f"deciders[{i}]"
        label = _label(_object(spec, path), path)
        out[label] = _decider(spec, label, path)
    return out


def _jump(spec) -> prioritysim.JumpApprox:
    path = "construction.jump"
    kind = _object(spec, path).get("kind")

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


def _targets(values, path: str) -> list:
    """A nonempty list of rationals (a sequence read past its end repeats
    its last entry)."""
    return [_frac(v, f"{path}[{j}]")
            for j, v in enumerate(_list(values, path, nonempty=True))]


class _ListTrace:
    """JSONL adapter for builders whose trace is a plain list of records."""

    def __init__(self, rows):
        self.rows = rows

    def write_jsonl(self, path):
        write_jsonl(path, self.rows)


def _approx(spec, sets, n_max: int) -> builders.Delta2Approx:
    path = "construction.approx"
    kind = _object(spec, path).get("kind")
    window = _int_in(spec.get("window", n_max), f"{path}.window", 1,
                     NEVER // 16)

    def members(key):
        label = _need(spec, key, path)
        return _need(sets, label, f"{path}.{key}").membership_array(window)

    if kind == "constant":
        return builders.Delta2Approx.constant(members("set"),
                                              label=spec["set"])
    if kind == "flip":
        before, after = members("before"), members("after")
        at = _int_in(_need(spec, "at", path), f"{path}.at", 0)
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


def _section(cfg, name: str) -> dict:
    spec = cfg.get(name)
    if not spec:
        raise ConfigError(f"config has no {name!r} section")
    return _object(spec, name)


def cmd_metrics(cfg, outdir):
    sets = _sets(cfg)
    spec = _section(cfg, "metrics")
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
    spec = _section(cfg, "construction")
    op = spec.get("op")
    n_max = cfg["universe"]["n_max"]
    stage_max = cfg["universe"]["stage_max"]

    def need(key):
        return _need(spec, key, "construction")

    def stream(key="stream"):
        return _need(streams, need(key), f"construction.{key}")

    def stream_list(key="streams"):
        path = f"construction.{key}"
        return [_need(streams, x, path) for x in _list(need(key), path)]

    def decider_list(key="deciders"):
        path = f"construction.{key}"
        return [_need(deciders, x, path) for x in _list(need(key), path)]

    def targets():
        return _targets(need("targets"), "construction.targets")

    def count(key, hi=None):
        return _int_in(need(key), f"construction.{key}", 0, hi)

    if op == "checkpoint-subset":
        return approximators.checkpoint_subset(
            stream(), _unit(need("q"), "construction.q")), None
    if op == "tracking-checkpoint-subset":
        return approximators.tracking_checkpoint_subset(
            stream(), targets()), None
    if op == "lookahead-subset":
        n0 = _int_in(spec.get("n0", 1), "construction.n0", 1, n_max + 1)
        return approximators.lookahead_subset(
            stream(), _unit(need("q"), "construction.q"), n0), None
    if op == "witnessed-subset":
        path = "construction.witness"
        w = _object(spec.get("witness", {}), path)

        def w_int(key, default):
            return _int_in(w.get(key, default), f"{path}.{key}", 0)

        if w.get("kind") == "constant":
            value = w_int("value", 0)
            wfn = lambda k: value
        elif w.get("kind") == "exponential":
            base, shift = w_int("base", 2), w_int("shift", 1)
            # a power past 2^63 ends the witness as any larger one would
            wfn = lambda k: base ** min(k + shift, 64)
        else:
            raise ConfigError(f"unknown witness kind {w.get('kind')!r}")
        return approximators.witnessed_subset(stream(), wfn), None
    if op == "target-oscillation":
        _int_in(n_max, "universe.n_max", 2)  # [0, 1) is the first block
        return builders.infsup_build(targets(), count("n_checkpoints"),
                                     n_max), None
    if op == "density-transfer":
        B = _approx(need("approx"), sets, n_max)
        st, t, rows, report = builders.density_transfer_build(
            B, count("n_checkpoints", B.window - 1), stage_max, n_max)
        art = _stream_artifact(st, "density_transfer",
                               {"form": "membership-only"})
        art.meta["t"] = {str(k): v for k, v in sorted(t.items())}
        if "diagnostics" in report:
            art.diagnostics = report.pop("diagnostics")
        # keys as strings, as they reload: int keys past 9 sort in another
        # order, and the reloaded artifact would fail its digest
        art.meta["report"] = {name: {str(n): v for n, v in by_n.items()}
                              for name, by_n in report.items()}
        return art, _ListTrace(rows)
    if op == "blockwise-levels":
        path = "construction.levels"
        given = _object(need("levels"), path)
        if not all(k.isdecimal() for k in given):
            raise ConfigError(f"{path}: every key must be a block number")
        vals = {int(k): _frac(v, f"{path}.{k}") for k, v in given.items()}
        g = builders.StableMonotoneG(
            lambda n, s: vals.get(n, Fraction(0)), label="const-levels")
        st, levels = builders.blockwise_limit_build(
            g, count("n_blocks", builders.FACTORIAL_BLOCK_CAP), stage_max)
        return _stream_artifact(st, "blockwise_levels",
                                builders.levels_guarantee(levels)), None
    if op == "limsup-blockwise":
        st, levels, _g = builders.limsup_density_build(
            targets(), count("n_blocks", builders.FACTORIAL_BLOCK_CAP),
            stage_max)
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
    spec = _section(cfg, "generic")
    dec = _need(deciders, _need(spec, "decider", "generic"), "generic.decider")
    target = _need(sets, _need(spec, "set", "generic"), "generic.set")
    n_max = cfg["universe"]["n_max"]
    r = _frac(spec.get("r", "0"), "generic.r")
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
