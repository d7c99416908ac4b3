"""Artifact files: run-length-encoded bitsets, checkpoint and guarantee
records, and an integrity digest.

Verification is two-layered: the digest catches any byte-level corruption
(including bit flips that would otherwise *strengthen* an inequality and
slip past a semantic re-check), and ``verify_artifact`` re-derives every
certified inequality from the stored bitset and numbers.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial
from typing import Callable, NamedTuple

import numpy as np

from .approximators import SubsetArtifact
from .core import (ceil_sqrt_array, compact_json, csv_bytes, exact_ints,
                   json_indent1, write_columns)
from .errors import ArtifactError

FORMAT_VERSION = 1


def bits_to_rle(bits) -> list:
    """Run lengths of an alternating 0/1 sequence, starting with the length
    of the initial zero run (possibly 0)."""
    bits = np.asarray(bits, dtype=bool)
    if bits.size == 0:
        return []
    flips = np.nonzero(bits[1:] != bits[:-1])[0] + 1
    edges = np.concatenate(([0], flips, [bits.size]))
    runs = np.diff(edges).tolist()
    if bits[0]:
        runs.insert(0, 0)
    return [int(r) for r in runs]


def rle_to_bits(runs, n: int) -> np.ndarray:
    """Inverse of ``bits_to_rle``: runs must be a list of non-negative ints
    (not bools) summing to n, else the artifact is rejected."""
    if not (isinstance(runs, list) and set(map(type, runs)) <= {int}
            and min(runs, default=0) >= 0 and sum(runs) == n):
        raise ArtifactError("run-length data inconsistent with n_max")
    values = np.arange(len(runs)) % 2 == 1  # runs alternate, zeros first
    return np.repeat(values, np.array(runs, dtype=np.int64))


_canonical = compact_json  # the bytes the integrity digest is taken of


def artifact_payload(art: SubsetArtifact) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": art.kind,
        "n_max": art.n_max,
        "bits_rle": bits_to_rle(art.bits),
        "checkpoints": art.checkpoints,
        "guarantee": art.guarantee,
        "diagnostics": art.diagnostics,
        "meta": art.meta,
    }


def save_artifact(art: SubsetArtifact, path) -> None:
    """Write ``write_json`` of the payload with its digest added, encoding
    the payload once: the keys sorting before and after the digest's key
    are two compact halves, which joined are the canonical bytes."""
    payload = artifact_payload(art)
    head = _canonical({k: v for k, v in payload.items()
                       if k < "integrity_sha256"})
    tail = _canonical({k: v for k, v in payload.items()
                       if k > "integrity_sha256"})
    digest = hashlib.sha256(head[:-1] + b"," + tail[1:]).hexdigest()
    with open(path, "wb") as fh:
        fh.write(json_indent1(b'%s,"integrity_sha256":"%s",%s' % (
            head[:-1], digest.encode(), tail[1:])))
        fh.write(b"\n")


# the payload's fields and their JSON types; rle_to_bits checks bits_rle
_FIELD_TYPES = {"format_version": (int, "an integer"),
                "kind": (str, "a string"), "n_max": (int, "an integer"),
                "checkpoints": (list, "an array"),
                "guarantee": (dict, "an object"),
                "diagnostics": (list, "an array"), "meta": (dict, "an object")}


def load_artifact(path) -> SubsetArtifact:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"unreadable artifact: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError("artifact is not a JSON object")
    digest = payload.pop("integrity_sha256", None)
    if digest is None:
        raise ArtifactError("artifact missing integrity digest")
    if hashlib.sha256(_canonical(payload)).hexdigest() != digest:
        raise ArtifactError("integrity digest mismatch")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported format version {payload.get('format_version')}")
    for key, (t, name) in _FIELD_TYPES.items():
        if type(payload.get(key)) is not t:
            raise ArtifactError(f"artifact field {key!r} must be {name}")
    bits = rle_to_bits(payload.get("bits_rle"), payload["n_max"])
    return SubsetArtifact(payload["kind"], bits,
                          checkpoints=payload["checkpoints"],
                          guarantee=payload["guarantee"],
                          diagnostics=payload["diagnostics"],
                          meta=payload["meta"])


# -- guarantee forms ----------------------------------------------------------
#
# Every guarantee form is declared once, in FORMS: (a) its per-n count bounds
# lower_num/lower_den <= counts[n] <= upper_num/upper_den, as reduced integer
# fractions, and (b) labelled checks of whatever else its records claim.
# verify_artifact, write_certified_csv and the builders' verifiers read it.
# Bound arithmetic is exact: int64 where a value provably fits, Python ints
# (dtype=object) where a user's rational or a power of two may not.

CSV_HEADER = "n,count,lower_num,lower_den,upper_num,upper_den,holds\n"


class Form(NamedTuple):
    """``bounds(art)`` returns ``(n, lower, upper)``: the int64 array of
    window lengths n and the (num, den) array pairs bounding counts[n], or
    None where the form has no such bound.  ``checks`` are
    ``(label, fn(art, counts) -> [message])`` pairs; violated bound rows
    carry ``bound_label``.  ``positions(art)`` lists ``(name, value, lo,
    hi)`` for every stored number that bounds or checks use as a position
    in the window; each must lie in [lo, hi] before either runs.
    ``exponents(art)`` lists ``(name, value)`` for every stored power of
    two they shift by; each must be non-negative before either runs."""

    bounds: Callable | None = None
    strict_upper: bool = False
    bound_label: str = "bound"
    checks: tuple = ()
    positions: Callable | None = None
    exponents: Callable | None = None


def _column(records, key) -> np.ndarray:
    return np.array([r[key] for r in records], dtype=object)


def _reduced(num, den):
    g = np.gcd(num, den)
    return num // g, den // g


def _whole(values):
    return values, np.ones(len(values), dtype=np.int64)


def _checkpoint_bounds(art):
    # count · den >= num · s at every checkpoint with s >= 1
    q_num, q_den = art.guarantee["q_num"], art.guarantee["q_den"]
    n = np.array([cp["s"] for cp in art.checkpoints if cp["s"] > 0],
                 dtype=np.int64)
    s = exact_ints(n, max(q_num, q_den) * art.n_max)
    return n, _reduced(q_num * s, q_den), None


def _tracking_bounds(art):
    # count >= max(q_t − 2^-slack_pow, 0) · s
    cps = [cp for cp in art.checkpoints if cp["s"] != 0]
    s, num, den = (_column(cps, k) for k in ("s", "target_num", "target_den"))
    scale = np.array([1 << cp["slack_pow"] for cp in cps], dtype=object)
    slacked = np.maximum(num * scale - den, 0)
    return s.astype(np.int64), _reduced(slacked * s, den * scale), None


def _lookahead_bounds(art):
    # count >= ceil(q·n) − ceil_sqrt(n) for n in [n0, n_max]
    g = art.guarantee
    q_num, q_den = g["q_num"], g["q_den"]
    n = np.arange(g["n0"], art.n_max + 1, dtype=np.int64)
    need = -(-q_num * exact_ints(n, max(q_num, q_den) * art.n_max) // q_den)
    return n, _whole(need - ceil_sqrt_array(n)), None


def _witness_bounds(art):
    # count >= ceil(n·(2^h − 1)/2^h) − ceil_sqrt(n) = n − ⌊n/2^h⌋ − ceil_sqrt(n);
    # n < 2^62, so every h >= 62 gives ⌊n/2^h⌋ = 0
    h = art.guarantee["h_of_n"]
    if not (isinstance(h, list) and len(h) == art.n_max
            and set(map(type, h)) <= {int}):
        raise ValueError("h_of_n must hold n_max integers")
    n = np.arange(1, art.n_max + 1, dtype=np.int64)
    h = np.minimum(np.asarray(h, dtype=np.int64), 62)
    return n, _whole(n - (n >> h) - ceil_sqrt_array(n)), None


def _approach_bounds(art):
    # |count − q·s| <= s/(n+1) at checkpoint n, over the denominator q_den·(n+1)
    cps = art.checkpoints
    s, q_num, q_den = (_column(cps, k) for k in ("s", "q_num", "q_den"))
    m = _column(cps, "n") + 1
    return (s.astype(np.int64), _reduced(s * (q_num * m - q_den), q_den * m),
            _reduced(s * (q_num * m + q_den), q_den * m))


def _blockwise_bounds(art):
    # rho((n+1)!) − L/n within [−L/n, 1 − L/n]·1/(n+1), i.e.
    # L·n! <= count((n+1)!) <= (L + 1)·n!
    levels = art.guarantee["levels"]
    n = np.array([factorial(k + 1) for k, _ in levels], dtype=np.int64)
    block = np.array([factorial(k) for k, _ in levels], dtype=object)
    L = np.array([L for _, L in levels], dtype=object)
    return n, _whole(L * block), _whole((L + 1) * block)


def _restraint_bounds(art):
    # rho_m(A) strictly below 1 − 2^-(k+2) at each final interval's end m
    recs = [r for r in art.checkpoints if r.get("final_interval") is not None]
    m = np.array([r["final_interval"][1] for r in recs], dtype=object)
    p = np.array([1 << (r["k"] + 2) for r in recs], dtype=object)
    return m.astype(np.int64), None, _reduced((p - 1) * m, p)


def _sparse_bounds(art):
    # count <= floor(log2 n) + 1, the number of powers of two <= n
    n = np.arange(1, art.n_max + 1, dtype=np.int64)
    powers = np.left_shift(1, np.arange(63, dtype=np.int64))
    return n, None, _whole(np.searchsorted(powers, n, side="right"))


def _checkpoint_positions(art):
    return [("checkpoint s", cp["s"], 0, art.n_max) for cp in art.checkpoints]


def _lookahead_positions(art):
    return [("n0", art.guarantee["n0"], 0, art.n_max + 1)]


def _block_positions(art):
    # block n reads counts at (n+1)!, and 21! is past any window
    last = max((k for k in range(1, 21) if factorial(k + 1) <= art.n_max),
               default=0)
    return [("block", n, 1, last) for n, _ in art.guarantee["levels"]]


def _interval_positions(art):
    out = []
    for iv in art.checkpoints:
        out += [("interval a", iv["a"], 0, art.n_max),
                ("interval c", iv["c"], 0, art.n_max - 1)]
        if iv["state"] == "finalized":
            out.append(("witness", iv["witness"], 0, art.n_max - 1))
    return out


def _restraint_positions(art):
    return [("final interval end", r["final_interval"][1], 0, art.n_max)
            for r in art.checkpoints if r.get("final_interval") is not None]


def _slack_exponents(art):
    return [("slack_pow", cp["slack_pow"]) for cp in art.checkpoints
            if cp["s"] != 0]


def _interval_exponents(art):
    return [("interval e", iv["e"]) for iv in art.checkpoints]


def _restraint_exponents(art):
    return [("k", r["k"]) for r in art.checkpoints
            if r.get("final_interval") is not None]


def _stored_counts(art, counts):
    return [f"checkpoint s={cp['s']}: stored count {cp['count']} "
            f"!= bitset count {int(counts[cp['s']])}"
            for cp in art.checkpoints if int(counts[cp["s"]]) != cp["count"]]


def _betweenness(art, counts):
    """Each prefix density strictly between two consecutive checkpoints
    lies between theirs: (rho_k − rho_a)·(rho_k − rho_b) <= 0."""
    failures = []
    for a, b in zip(art.checkpoints, art.checkpoints[1:]):
        sa, sb = a["s"], b["s"]
        k = exact_ints(np.arange(sa + 1, sb), art.n_max ** 2)
        ck = exact_ints(counts[sa + 1:sb], art.n_max ** 2)
        side_a = np.sign(ck * sa - int(counts[sa]) * k)
        side_b = np.sign(ck * sb - int(counts[sb]) * k)
        bad = np.nonzero(side_a * side_b > 0)[0]
        if bad.size:
            failures.append(f"betweenness fails at k={sa + 1 + int(bad[0])}")
    return failures


def _block_density(art, counts):
    failures = []
    for n, L in art.guarantee["levels"]:
        lo, hi = factorial(n), factorial(n + 1)
        if int(counts[hi] - counts[lo]) * n != L * (hi - lo):
            failures.append(f"block {n}: density != {L}/{n}")
    return failures


def _interval_records(art, counts):
    failures = []
    for iv in art.checkpoints:
        a, c, e = iv["a"], iv["c"], iv["e"]
        blk = int(counts[c + 1] - counts[a])
        if blk != iv["block_count"]:
            failures.append(f"interval [{a},{c}]: block count mismatch")
        if iv["state"] == "completed" and blk != c - a + 1:
            failures.append(f"interval [{a},{c}]: marked completed but "
                            "not fully enumerated")
        if iv.get("gap_avoided") and iv.get("identity_exact") is False:
            failures.append(f"interval [{a},{c}]: exact ratio identity "
                            "recorded violated")
        if iv["state"] == "finalized" and art.bits[iv["witness"]]:
            failures.append(f"witness {iv['witness']} was enumerated")
        # block density floor 1 − 2^-e (waiting/finalized keep >= |J|/|I|)
        if blk * (1 << e) < (c - a + 1) * ((1 << e) - 1):
            failures.append(f"interval [{a},{c}]: density floor violated")
    return failures


def _recorded_verdict(art, counts):
    # the relative margin needs the source stream; the artifact alone can
    # only re-check its recorded verdict flag
    if art.guarantee.get("holds") is True:
        return []
    return ["recorded guarantee verdict is not 'holds'"]


FORMS = {
    "checkpoint-ratio": Form(_checkpoint_bounds,
                             checks=(("count", _stored_counts),),
                             positions=_checkpoint_positions),
    "tracking-checkpoint-ratio": Form(_tracking_bounds,
                                      checks=(("count", _stored_counts),),
                                      positions=_checkpoint_positions,
                                      exponents=_slack_exponents),
    "lookahead-margin": Form(_lookahead_bounds,
                             positions=_lookahead_positions),
    "witness-margin": Form(_witness_bounds),
    "lookahead-margin-relative": Form(
        checks=(("holds", _recorded_verdict),)),
    "target-approach": Form(_approach_bounds, bound_label="approach",
                            checks=(("approach", _stored_counts),
                                    ("between", _betweenness)),
                            positions=_checkpoint_positions),
    "blockwise-levels": Form(_blockwise_bounds, bound_label="sandwich",
                             checks=(("block_density", _block_density),),
                             positions=_block_positions),
    "ratio-interval-report": Form(checks=(("interval", _interval_records),),
                                  positions=_interval_positions,
                                  exponents=_interval_exponents),
    "restraint-report": Form(_restraint_bounds, strict_upper=True,
                             positions=_restraint_positions,
                             exponents=_restraint_exponents),
    "log-sparse": Form(_sparse_bounds),
    "membership-only": Form(),
}


def _bound_rows(form: Form, art: SubsetArtifact, counts):
    """The columns of ``CSV_HEADER`` (None where a bound is absent) for the
    form's bounds, and whether each row holds."""
    n, lower, upper = form.bounds(art)
    c = counts[n]
    holds = np.ones(n.size, dtype=bool)
    if lower is not None:
        holds &= c * lower[1] >= lower[0]
    if upper is not None:
        lhs = c * upper[1]
        holds &= lhs < upper[0] if form.strict_upper else lhs <= upper[0]
    return [n, c, *(lower or (None, None)), *(upper or (None, None)),
            holds.view(np.uint8)], holds


def _range_failures(form: Form, art: SubsetArtifact) -> list:
    """(label, message) for every stored position outside its range in the
    window and every negative exponent; raises TypeError if one is not an
    integer."""
    positions = form.positions(art) if form.positions is not None else []
    exponents = form.exponents(art) if form.exponents is not None else []
    for name, value, *_ in positions + exponents:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} {value!r} is not an integer")
    return ([("window", f"{name} {value} outside [{lo}, {hi}]")
             for name, value, lo, hi in positions if not lo <= value <= hi]
            + [("exponent", f"{name} {value} is negative")
               for name, value in exponents if value < 0])


# a form raises one of these on reading a record that lacks a field, or
# holds one of the wrong type or shape
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError,
              ArithmeticError)


def _evaluate(art: SubsetArtifact):
    """(failures, cols): the (label, message) failures of
    ``labelled_failures``, and the columns of the form's bound rows; no
    columns if it has none, or if a record is malformed or out of range."""
    name = art.guarantee.get("form", "")
    form = FORMS.get(name) if isinstance(name, str) else None
    if form is None:
        return [("form", f"unknown guarantee form {name!r}")], []
    counts = art.counts()
    try:
        out_of_range = _range_failures(form, art)
        if out_of_range:
            return out_of_range, []
        out = [(label, msg) for label, check in form.checks
               for msg in check(art, counts)]
        if form.bounds is None:
            return out, []
        cols, holds = _bound_rows(form, art, counts)
    except _MALFORMED as exc:
        return [("form", f"malformed {name} record: {exc!r}")], []
    bad = ~holds
    rows = csv_bytes([None if col is None else col[bad] for col in cols])
    out += [(form.bound_label, f"certified row fails: {row}")
            for row in rows.decode().split("\n")[:-1]]
    return out, cols


def labelled_failures(art: SubsetArtifact) -> list:
    """(label, message) for every failed record check and every violated
    bound row of the artifact's guarantee form; only the out-of-range
    records, if some point outside the window or hold a negative
    exponent; one ``form`` failure, if a record the form reads is
    malformed."""
    return _evaluate(art)[0]


def passed_groups(art: SubsetArtifact, labels) -> dict:
    """{label: True if no check or bound row with that label failed}."""
    failed = {label for label, _ in labelled_failures(art)}
    return {label: label not in failed for label in labels}


def verify_artifact(art: SubsetArtifact) -> dict:
    """Recompute every certified inequality from the artifact's own bitset
    and stored numbers.  Returns {'ok': bool, 'failures': [...]} with one
    entry per failed record check or violated bound row."""
    failures = [msg for _, msg in labelled_failures(art)]
    return {"ok": not failures, "failures": failures}


def write_certified_csv(art: SubsetArtifact, path) -> None:
    """One row per certified per-n bound: the count at n together with the
    certified rational lower and/or upper bound on it.

    Checkpoint-style guarantees yield one row per checkpoint length;
    margin-style guarantees one row per window n.  Upper bounds from the
    restraint form are strict; all others are non-strict.  Forms whose
    guarantee cannot be expressed as per-n count bounds (relative margins,
    interval reports, bare membership) emit only the header, and so do
    artifacts whose records are malformed, point outside the window or
    hold a negative exponent.
    """
    write_columns(path, CSV_HEADER, _evaluate(art)[1])
