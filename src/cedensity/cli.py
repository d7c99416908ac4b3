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
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import approximators, artifacts, builders, genericity, prioritysim
from .approximators import SubsetArtifact
from .core import (NEVER, CEStream, SetOracle, density_profile,
                   dyadic_class, dyadic_union, write_json)
from .errors import (ArtifactError, BudgetExceeded, CedensityError,
                     ConfigError)
from .metrics import symdiff_profile


class _Field:
    """A config value and its JSON path, which every ConfigError raised
    while reading the value names.  The root's path is empty, so its
    children read ``universe.n_max``, ``sets[0]``, ``construction.q``."""

    def __init__(self, value, path: str = ""):
        self.value, self.path = value, path

    def error(self, message) -> ConfigError:
        return ConfigError(f"{self.path}: {message}")

    def _find(self, table, key):
        # a missing field, or a label that names nothing
        try:
            found = table[key]
        except (KeyError, TypeError):
            raise self.error(f"{key!r} not found") from None
        return found.value if isinstance(found, _Deferred) else found

    def _child(self, key: str, value) -> _Field:
        return _Field(value, f"{self.path}.{key}" if self.path else key)

    def __getitem__(self, key: str) -> _Field:
        """The required field ``key``."""
        return self._child(key, self._find(self.value, key))

    def get(self, key: str, default=None) -> _Field:
        return self._child(key, self.value.get(key, default))

    def obj(self) -> _Field:
        if not isinstance(self.value, dict):
            raise ConfigError(
                f"{self.path or 'config'}: must be a JSON object")
        return self

    def list(self, nonempty: bool = False) -> list:
        """The entries of a list (nonempty, if asked), entry j at path[j]."""
        if not isinstance(self.value, list) or (nonempty and not self.value):
            kind = "a nonempty list" if nonempty else "a list"
            raise self.error(f"must be {kind}, got {self.value!r}")
        return [_Field(v, f"{self.path}[{j}]")
                for j, v in enumerate(self.value)]

    def int(self, lo: int, hi=None) -> int:
        """The value if it is an int (not a bool) in [lo, hi]."""
        v = self.value
        if (isinstance(v, int) and not isinstance(v, bool)
                and lo <= v and (hi is None or v <= hi)):
            return v
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise self.error(f"must be an integer {bound}, got {v!r}")

    def ints(self, lo: int, hi=None) -> list:
        return [f.int(lo, hi) for f in self.list()]

    def frac(self) -> Fraction:
        try:
            return Fraction(self.value)
        except (TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:  # OverflowError: an infinite float
            raise self.error(f"bad rational {self.value!r}") from exc

    def unit(self) -> Fraction:
        """The value as a rational strictly between 0 and 1."""
        q = self.frac()
        if not 0 < q < 1:
            raise self.error(f"must be a rational in (0, 1), "
                             f"got {self.value!r}")
        return q

    def label(self) -> str:
        if not isinstance(self.value, str):
            raise self.error(f"must be a string, got {self.value!r}")
        return self.value

    def ref(self, table):
        """The entry of ``table`` that this label names."""
        return self._find(table, self.value)

    def refs(self, table) -> list:
        """The entries of ``table`` that the listed labels name; a label
        that names nothing is reported at the list's path."""
        return [self._find(table, f.value) for f in self.list()]

    def pairs(self, shape: str, first_hi=None) -> list:
        """The value if it is a list of integer pairs [a, b] with 0 <= a <=
        first_hi and b >= 0."""
        if not isinstance(self.value, list):
            raise self.error("must be a list")
        for pair in self.list():
            if not (isinstance(pair.value, list) and len(pair.value) == 2):
                raise pair.error(f"must be an {shape} pair, "
                                 f"got {pair.value!r}")
            _Field(pair.value[0], pair.path).int(0, first_hi)
            _Field(pair.value[1], pair.path).int(0)
        return self.value


class _Deferred:
    """A table entry built when a label first names it: ``_Field`` looks
    up ``value``, which calls ``build`` once and keeps what it returns."""

    def __init__(self, build):
        self._build = build

    @functools.cached_property
    def value(self):
        return self._build()


def _load_config(path) -> _Field:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = _Field(json.load(fh)).obj()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    uni = cfg.get("universe", {}).obj()
    for key in ("n_max", "stage_max"):
        # every element and stage below NEVER fits int64
        uni.get(key).int(1)
        uni.get(key).int(1, NEVER - 1)
    n_max = uni.value["n_max"]
    if n_max > NEVER // 16:  # numpy caps int64 arrays near 2^60
        raise BudgetExceeded(f"universe.n_max: a window of {n_max} "
                             "elements is too large to allocate")
    return cfg


def _universe(cfg: _Field) -> tuple:
    uni = cfg.value["universe"]
    return uni["n_max"], uni["stage_max"]


def _labelled(cfg: _Field, section: str, build) -> dict:
    """``build(spec, label)`` of each entry of the section, by its label;
    each label names one entry."""
    out = {}
    for spec in cfg.get(section, []).list():
        name = spec.obj()["label"]
        label = name.label()
        if label in out:
            raise name.error(f"{label!r} is already defined")
        out[label] = build(spec, label)
    return out


def _build_set(spec: _Field, label: str) -> SetOracle:
    if "/" in label or "\0" in label:  # density_<label>.csv is a file
        raise spec["label"].error(f"must not hold '/' or NUL, got {label!r}")
    kind = spec.get("kind").value
    if kind == "empty":
        return SetOracle.empty(label)
    if kind == "naturals":
        return SetOracle.naturals(label)
    if kind == "explicit":
        return SetOracle.explicit(spec["elements"].ints(0, NEVER), label)
    if kind == "residue-union":
        m = spec["modulus"].int(1, NEVER)
        return SetOracle.residue_union(m, spec["residues"].ints(0, m - 1),
                                       label)
    if kind == "dyadic-class":
        # 2^k < 2^63: past that no window holds a member of the class
        return dyadic_class(spec["k"].int(0, 62), label)
    if kind == "dyadic-union":
        include_zero = spec.get("include_zero", False)
        if not isinstance(include_zero.value, bool):
            raise include_zero.error(f"must be true or false, "
                                     f"got {include_zero.value!r}")
        return dyadic_union(spec["indices"].ints(0),
                            include_zero=include_zero.value, label=label)
    raise spec.get("kind").error(f"unknown set kind {kind!r}")


def _sets(cfg: _Field) -> dict:
    return _labelled(cfg, "sets", _build_set)


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
    spec = _Field(schedule, path)
    kind = spec.get("kind", "own-stage").value
    cut = min(stage_max, NEVER - 1)  # every stage kept fits int64
    if kind == "immediate":
        return lambda m: 0
    if kind == "own-stage":
        return lambda m: m
    if kind == "successor":
        return lambda m: m + 1
    if kind == "delayed":
        f = spec.get("factor", 1).int(0)
        off = spec.get("offset", 0).int(0)
        return lambda m: _affine_stages(m, f, off, cut)
    if kind == "burst":
        p = spec["period"].int(1)
        # ((m // p) + 1)·p; m // p is 0 for every m once p passes int64
        return lambda m: _affine_stages(m // min(p, NEVER) + 1, p, 0, cut)
    raise spec.get("kind").error(f"unknown schedule kind {kind!r}")


def _streams(cfg: _Field, sets) -> dict:
    """The declared streams by label.  Each is checked here, but a stream
    from a set is built only when a label names it; a scripted stream is
    built here, where an element given two stages is reported."""
    n_max, stage_max = _universe(cfg)

    def build(spec: _Field, label: str):
        schedule = spec.get("schedule", {}).obj()
        if schedule.value.get("kind") == "scripted":
            pairs = schedule["pairs"]
            try:
                return CEStream.from_schedule(
                    pairs.pairs("[element, stage]"), n_max=n_max,
                    stage_max=stage_max, label=label)
            except ValueError as exc:  # an element given two stages
                raise pairs.error(exc) from None
        base = spec["set"].ref(sets)
        delay_fn = _stage_fn(schedule.value, schedule.path, stage_max)
        return _Deferred(lambda: CEStream.from_oracle(
            base, n_max=n_max, stage_max=stage_max, delay_fn=delay_fn,
            label=label))

    return _labelled(cfg, "streams", build)


def _decider(spec: _Field, label: str) -> prioritysim.PartialDecider:
    P = prioritysim.PartialDecider
    kind = spec.get("kind").value
    delay = spec.get("delay", 0).int(0)
    if kind == "constant":
        return P.constant(spec["value"].int(0, 1), delay, label)
    if kind == "parity":
        return P.parity(delay, label)
    if kind == "residue":
        m = spec["modulus"].int(1)
        return P.residue(m, spec["residues"].ints(0, m - 1), delay, label)
    if kind == "never":
        return P.never(label)
    if kind == "value-delay":
        v = spec["value"].int(0, 1)
        f = spec.get("delay_factor", 1).int(0)
        return P.linear_delay(v, f, label)
    raise spec.get("kind").error(f"unknown decider kind {kind!r}")


def _deciders(cfg: _Field) -> dict:
    return _labelled(cfg, "deciders", _decider)


def _jump(spec: _Field) -> prioritysim.JumpApprox:
    J = prioritysim.JumpApprox
    kind = spec.obj().get("kind").value
    if kind == "never":
        return J.never()
    if kind == "step":
        return J.step(spec["on_at"].int(0), spec["use"].int(0))
    if kind == "blink":
        return J.blink(spec["period"].int(1), spec["use"].int(0))
    raise spec.get("kind").error(f"unknown jump kind {kind!r}")


def _approx(spec: _Field, sets, n_max: int) -> builders.Delta2Approx:
    kind = spec.obj().get("kind").value
    window = spec.get("window", n_max).int(1, NEVER // 16)
    if kind == "constant":
        return builders.Delta2Approx.constant(
            spec["set"].ref(sets).membership_array(window),
            label=spec.value["set"])
    if kind == "flip":
        before, after = (spec[key].ref(sets).membership_array(window)
                         for key in ("before", "after"))
        at = spec["at"].int(0)
        return builders.Delta2Approx(
            lambda s: after if s >= at else before, window, label="flip",
            next_change=lambda s: at if s < at else NEVER)
    raise spec.get("kind").error(f"unknown approximation kind {kind!r}")


# -- subcommands --------------------------------------------------------------

def cmd_density(cfg, outdir):
    n_max, _ = _universe(cfg)
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


def _section(cfg: _Field, name: str) -> _Field:
    spec = cfg.get(name)
    if not spec.value:
        raise ConfigError(f"config has no {name!r} section")
    return spec.obj()


def cmd_metrics(cfg, outdir):
    sets = _sets(cfg)
    spec = _section(cfg, "metrics")
    a, b = (spec[key].ref(sets) for key in ("a", "b"))
    n_max, _ = _universe(cfg)
    spec.get("lo", 1).int(1)
    lo = spec.get("lo", 1).int(1, n_max)
    spec.get("hi", n_max).int(lo)
    hi = spec.get("hi", n_max).int(lo, n_max)  # no rows past the universe
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
    op = spec.get("op").value
    n_max, stage_max = _universe(cfg)
    if op == "checkpoint-subset":
        return approximators.checkpoint_subset(
            spec["stream"].ref(streams), spec["q"].unit()), None
    if op == "tracking-checkpoint-subset":
        return approximators.tracking_checkpoint_subset(
            spec["stream"].ref(streams),
            [t.frac() for t in spec["targets"].list(nonempty=True)]), None
    if op == "lookahead-subset":
        n0 = spec.get("n0", 1).int(1, n_max + 1)
        return approximators.lookahead_subset(
            spec["stream"].ref(streams), spec["q"].unit(), n0), None
    if op == "witnessed-subset":
        w = spec["witness"].obj()
        kind = w.get("kind").value
        if kind == "constant":
            value = w.get("value", 0).int(0)
            wfn = lambda k: value
        elif kind == "exponential":
            base, shift = w.get("base", 2).int(0), w.get("shift", 1).int(0)
            # a power past 2^63 ends the witness as any larger one would
            wfn = lambda k: base ** min(k + shift, 64)
        else:
            raise w.get("kind").error(f"unknown witness kind {kind!r}")
        return approximators.witnessed_subset(spec["stream"].ref(streams),
                                              wfn), None
    if op == "target-oscillation":
        cfg["universe"]["n_max"].int(2)  # [0, 1) is the first block
        return builders.infsup_build(
            [t.frac() for t in spec["targets"].list(nonempty=True)],
            spec["n_checkpoints"].int(0), n_max), None
    if op == "density-transfer":
        B = _approx(spec["approx"], sets, n_max)
        st, t, trace, report = builders.density_transfer_build(
            B, spec["n_checkpoints"].int(0, B.window - 1), stage_max, n_max)
        return _stream_artifact(st, "density_transfer",
                                diagnostics=report.pop("diagnostics", []),
                                t=t, report=report), trace
    if op == "blockwise-levels":
        given = spec["levels"].obj()
        if not all(k.isdecimal() for k in given.value):
            raise given.error("every key must be a block number")
        vals = {int(k): given[k].frac() for k in given.value}
        g = builders.StableMonotoneG(
            lambda n, s: vals.get(n, Fraction(0)), label="const-levels",
            next_change=lambda s: NEVER)
        st, levels = builders.blockwise_limit_build(
            g, spec["n_blocks"].int(0, builders.FACTORIAL_BLOCK_CAP),
            stage_max)
        return _stream_artifact(st, "blockwise_levels",
                                builders.levels_guarantee(levels)), None
    if op == "limsup-blockwise":
        st, levels, _g = builders.limsup_density_build(
            [t.frac() for t in spec["targets"].list(nonempty=True)],
            spec["n_blocks"].int(0, builders.FACTORIAL_BLOCK_CAP), stage_max)
        return _stream_artifact(st, "limsup_blockwise",
                                builders.levels_guarantee(levels)), None
    if op == "blockwise-union":
        st = prioritysim.blockwise_union_build(
            spec["streams"].refs(streams), n_max, stage_max)
        return _stream_artifact(st, "blockwise_union"), None
    if op == "prefix-gated":
        st, report = prioritysim.prefix_gated_build(
            spec["streams"].refs(streams), n_max, stage_max)
        return _stream_artifact(st, "prefix_gated", report=report), None
    if op == "ratio-interval":
        st, intervals, trace = prioritysim.ratio_interval_build(
            spec["deciders"].refs(deciders), n_max, stage_max)
        recs = [iv for e in sorted(trace.outcomes)
                for iv in [dict(v, e=e) for v in
                           trace.outcomes[e]["intervals"]]]
        return _stream_artifact(st, "ratio_interval",
                                {"form": "ratio-interval-report"},
                                checkpoints=recs), trace
    if op == "restraint-witness":
        st, trace = prioritysim.restraint_witness_build(
            spec["streams"].refs(streams), n_max, stage_max)
        recs = [dict(v, k=k) for k, v in sorted(trace.outcomes.items())]
        return _stream_artifact(st, "restraint_witness",
                                {"form": "restraint-report"},
                                checkpoints=recs), trace
    if op == "sparse-hitting":
        st, report = builders.sparse_hitting_build(
            spec["streams"].refs(streams), n_max, stage_max)
        return _stream_artifact(st, "sparse_hitting", {"form": "log-sparse"},
                                checkpoints=report), None
    if op == "permitted-interval":
        permitter = spec["permitter"].ref(streams)
        jump = _jump(spec["jump"])
        members = spec["streams"].refs(streams)
        pairs = None
        if "pairs" in spec.value:
            pairs = [tuple(p) for p in spec["pairs"].pairs(
                "[e, i]", len(members) - 1)]
            if len(set(pairs)) < len(pairs):  # one strategy per pair
                raise spec["pairs"].error("a pair is listed twice")
        st, g_rows, trace = prioritysim.permitted_interval_build(
            permitter, jump, members, n_max, stage_max, pairs=pairs)
        return _stream_artifact(st, "permitted_interval",
                                g_rows=g_rows), trace
    if op == "split-interval":
        a0, a1, trace = prioritysim.split_interval_build(
            spec["permitter"].ref(streams), spec["deciders"].refs(deciders),
            n_max, stage_max)
        return _stream_artifact(
            a0, "split_interval_a0",
            a1_rle=artifacts.bits_to_rle(a1.final_members())), trace
    raise spec.get("op").error(f"unknown construction op {op!r}")


def _stream_artifact(st: CEStream, kind: str, guarantee: dict | None = None,
                     checkpoints=(), diagnostics=(), **meta):
    """The artifact of a built stream's final members; its guarantee is
    bare membership unless given, and meta holds the stream's label and
    the given fields."""
    return SubsetArtifact(kind, st.final_members(), list(checkpoints),
                          guarantee or {"form": "membership-only"},
                          list(diagnostics), meta={"stream": st.label, **meta})


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
    report = artifacts.write_certified_csv(
        reloaded, os.path.join(outdir, "certified.csv"))
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
    dec = spec["decider"].ref(deciders)
    target = spec["set"].ref(sets)
    n_max, stage_max = _universe(cfg)
    r = spec.get("r", "0").frac()
    lo = spec.get("lo", 1).int(1, n_max)
    rep = genericity.evaluate_partial(dec, target, n_max, stage_max)
    rep.domain.write_csv(os.path.join(outdir, "generic_domain.csv"))
    report = genericity.density_verdict(rep, r, lo)
    alpha = report.pop("alpha_estimate")
    report["alpha_estimate"] = [alpha.numerator, alpha.denominator]
    write_json(os.path.join(outdir, "generic_summary.json"), report)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was."""
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
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
        # a list's MemoryError has no text; numpy's names the allocation
        print(f"budget error: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except CedensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
