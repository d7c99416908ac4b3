"""Artifact files: run-length-encoded bitsets, checkpoint and guarantee
records, packed per-n integer tables, and an integrity digest.

Verification is two-layered: the digest catches any byte-level corruption
(including bit flips that would otherwise *strengthen* an inequality and
slip past a semantic re-check), and ``verify_artifact`` re-derives every
certified inequality from the stored bitset and numbers.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from math import factorial
from typing import Callable, NamedTuple

import numpy as np

from .approximators import SubsetArtifact
from .core import (ceil_sqrt_array, compact_json, csv_bytes, exact_ints,
                   write_columns)
from .errors import ArtifactError

FORMAT_VERSION = 3


def bits_to_rle(bits) -> np.ndarray:
    """Run lengths of an alternating 0/1 sequence, starting with the length
    of the initial zero run (possibly 0), as an int64 array."""
    bits = np.asarray(bits, dtype=bool)
    if bits.size == 0:
        return np.zeros(0, np.int64)
    flips = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    starts = [0, 0] if bits[0] else [0]
    return np.diff(np.concatenate((starts, flips, [bits.size]))).astype(
        np.int64, copy=False)


def _int64s(values, message: str) -> np.ndarray:
    """A list of ints (not bools) as an int64 array; ArtifactError with
    ``message`` unless values is such a list and every int fits int64."""
    try:
        if isinstance(values, list) and set(map(type, values)) <= {int}:
            return np.array(values, dtype=np.int64)
    except OverflowError:
        pass
    raise ArtifactError(message)


def rle_to_bits(runs, n: int) -> np.ndarray:
    """Inverse of ``bits_to_rle``: runs must be an int64 array, or a list of
    ints (not bools), of non-negative runs summing to n, else the artifact
    is rejected."""
    message = "run-length data inconsistent with n_max"
    lengths = (runs if isinstance(runs, np.ndarray) and runs.dtype == np.int64
               else _int64s(runs, message))
    top = int(lengths.max(initial=0))
    # with no run below 0, the int64 sum is exact while len · top < 2^63
    total = (int(lengths.sum()) if lengths.size * top < 1 << 63
             else sum(lengths.tolist()))
    if lengths.min(initial=0) < 0 or total != n:
        raise ArtifactError(message)
    values = np.zeros(lengths.size, dtype=bool)
    values[1::2] = True  # runs alternate, zeros first
    try:
        return np.repeat(values, lengths)
    except (MemoryError, ValueError) as exc:  # numpy's size cap is a ValueError
        raise ArtifactError(f"a window of {n} bits cannot be held in memory: "
                            f"{exc}") from exc


# bits a packed field: "u<b>" tables, and the "i<w>" tables (w-byte signed
# differences) that format 2 and the earlier format 3 files hold
_WIDTHS = {**{f"u{b}": b for b in (1, 2, 4, 8, 16, 32, 64)},
           **{f"i{w}": 8 * w for w in (1, 2, 4, 8)}}


def ints_to_packed(values) -> str:
    """An integer table as ``"u<b>:<first>,<lo>:<base64>"``: its first
    entry, its least step lo, and each later step less lo as an unsigned
    b-bit field, b in {1, 2, 4, ..., 64} the narrowest that holds them,
    packed from the low bits of each byte up.  Steps wrap modulo 2^64, as
    the sum that decodes them does.  The empty table is ``"u1::"``."""
    values = np.asarray(values, dtype=np.int64)
    steps = np.diff(values)
    lo = steps.min() if steps.size else np.int64(0)
    steps -= lo
    top = int(steps.view(np.uint64).max(initial=0))
    b = next(b for b in (1, 2, 4, 8, 16, 32, 64) if top >> b == 0)
    raw = steps.astype(f"<u{max(b // 8, 1)}")
    if b < 8:  # 8 / b fields a byte: OR each into the first of its byte
        raw = np.append(raw, np.zeros(-raw.size % (8 // b), np.uint8))
        for j in range(1, 8 // b):
            raw[::8 // b] |= raw[j::8 // b] << j * b
        raw = raw[::8 // b]
    head = f"{values[0]},{lo}" if values.size else ""
    return f"u{b}:{head}:{base64.b64encode(raw.tobytes()).decode()}"


def packed_to_ints(text, size=None) -> np.ndarray:
    """Inverse of ``ints_to_packed``, and the reader of ``"i<w>:<base64>"``
    (each entry's difference from the one before, the first from 0), as a
    fresh int64 array of ``size`` entries, or of as many as the bytes hold.
    The artifact is rejected unless text is such a string, its bytes are
    whole fields, ``size`` of them, and the bits past the last are 0."""
    if not isinstance(text, str):
        raise ArtifactError(f"{text!r:.40} is not a packed integer string")
    tag, _, body = text.partition(":")
    b = _WIDTHS.get(tag) if ":" in text else None
    if b is None:
        raise ArtifactError(f"unknown packed integer width {tag!r:.20}")
    head = ()  # a "u<b>" table's first entry and least step
    if tag[0] == "u":  # the empty table's head is empty
        text_head, colon, body = body.partition(":")
        pair = text_head.partition(",")[::2]
        if not colon or (text_head or body) and not all(
                len(v) <= 20 and v.removeprefix("-").isdecimal()
                and str(int(v)) == v and -1 << 63 <= int(v) < 1 << 63
                for v in pair):
            raise ArtifactError("malformed packed table head "
                                f"{(text_head if colon else text)!r:.40}")
        head = tuple(map(int, pair)) if text_head else ()
    try:
        raw = base64.b64decode(body, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ArtifactError(f"packed integers are not base64: {exc}") from exc
    if len(raw) % max(b // 8, 1):
        raise ArtifactError(
            f"{len(raw)} packed bytes are not whole {b // 8}-byte ints")
    lead = len(head) // 2  # 1 if the head holds the first entry
    have = lead + len(raw) * 8 // b
    size = have if size is None else size
    if size < lead or len(raw) != -(-(size - lead) * b // 8):
        raise ArtifactError(f"{have} packed integers, expected {size}")
    out = np.empty(size, np.int64)
    if b >= 8:
        out[lead:] = np.frombuffer(raw, f"<{tag[0]}{b // 8}")
    else:  # 8 / b fields a byte, the first in the low bits
        data = np.frombuffer(raw, np.uint8)
        for j in range(8 // b):
            column = out[lead + j::8 // b]
            column[:] = data[:column.size] >> j * b & (1 << b) - 1
        if (size - lead) * b % 8 and data[-1] >> (size - lead) * b % 8:
            raise ArtifactError("nonzero padding bits after the last field")
    if head:
        out[0] = head[0]
        out[1:] += np.int64(head[1])
    return np.cumsum(out, out=out)


_canonical = compact_json  # the bytes the integrity digest is taken of


def _str_keys(value):
    """value with every mapping key, at any depth through mappings, as
    str(key), the key it reloads as.  The encoder sorts int keys as
    numbers, so a map with keys past 9 would fail its digest on reload."""
    if not isinstance(value, dict):
        return value
    return {str(k): _str_keys(v) for k, v in value.items()}


def _payload(art: SubsetArtifact) -> dict:
    """The artifact as the values ``compact_json`` writes: bits_rle the
    int64 array of runs, per-n tables packed, meta map keys as strings."""
    arrays = (_form(art.guarantee.get("form")) or Form()).arrays
    return {
        "format_version": FORMAT_VERSION,
        "kind": art.kind,
        "n_max": art.n_max,
        "bits_rle": bits_to_rle(art.bits),
        "checkpoints": art.checkpoints,
        "guarantee": {k: ints_to_packed(v) if k in arrays else v
                      for k, v in art.guarantee.items()},
        "diagnostics": art.diagnostics,
        "meta": _str_keys(art.meta),
    }


def artifact_payload(art: SubsetArtifact) -> dict:
    """``_payload`` with bits_rle as the list of its runs: the artifact as
    JSON values, but for any int64 array its meta holds."""
    payload = _payload(art)
    payload["bits_rle"] = payload["bits_rle"].tolist()
    return payload


def save_artifact(art: SubsetArtifact, path) -> None:
    """Write the canonical bytes of the payload with its digest added in
    its sorted place, LF-terminated.  The digest is the sha256 of the
    payload's canonical bytes; the keys sorting before and after its key
    are two compact halves, so the payload is encoded once."""
    payload = _payload(art)
    head = _canonical({k: v for k, v in payload.items()
                       if k < "integrity_sha256"})[:-1]
    tail = _canonical({k: v for k, v in payload.items()
                       if k > "integrity_sha256"})[1:]
    digest = hashlib.sha256(head + b"," + tail).hexdigest().encode()
    with open(path, "wb") as fh:
        fh.write(b'%s,"integrity_sha256":"%s",%s\n' % (head, digest, tail))


# the payload's fields and their JSON types; rle_to_bits checks bits_rle
_FIELD_TYPES = {"format_version": (int, "an integer"),
                "kind": (str, "a string"), "n_max": (int, "an integer"),
                "checkpoints": (list, "an array"),
                "guarantee": (dict, "an object"),
                "diagnostics": (list, "an array"), "meta": (dict, "an object")}


def _v1_ints(values, size) -> np.ndarray:
    """A format 1 table, a list of ints, as an int64 array."""
    message = f"not a list of {size} 64-bit integers"
    table = _int64s(values, message)
    if size is not None and table.size != size:
        raise ArtifactError(message)
    return table


def _digest_covers(raw: bytes, digest) -> bool:
    """Whether digest is the sha256 of the file's bytes without its
    ``"integrity_sha256"`` member and final LF: the bytes save_artifact
    hashes, so a saved file needs no re-encode."""
    if not (isinstance(digest, str) and digest.isascii()):
        return False
    head, member, tail = raw.partition(
        b',"integrity_sha256":"%s",' % digest.encode())
    if not member:
        return False
    h = hashlib.sha256(head)
    h.update(b",")
    h.update(tail.removesuffix(b"\n"))
    return h.hexdigest() == digest


_SAVED_HEAD = b'{"bits_rle":['  # how every file save_artifact writes opens


def _plain_ints(span: bytes) -> np.ndarray | None:
    """The comma-separated ints of span as an int64 array, or None unless
    each is 1 to 18 digits with no sign and no leading zero: the texts
    JSON reads as those very ints.  Each value starts as its last digit;
    step k adds the digit k places before each field's end, times 10^k,
    to the fields that have one."""
    text = np.frombuffer(span, np.uint8)
    digit = text - np.uint8(ord("0"))  # commas and other bytes wrap past 9
    comma = text == ord(",")
    if not (comma | (digit < 10)).all():
        return None
    ends = np.flatnonzero(np.append(comma, True))  # the byte after a field
    widths = np.diff(ends, prepend=-1)
    widths -= 1
    if (widths.min() < 1 or widths.max() > 18
            or not digit[(ends - widths)[widths > 1]].all()):
        return None
    values = digit[ends - 1].astype(np.int64)
    for k in range(1, int(widths.max())):
        rows = np.flatnonzero(widths > k)
        values[rows] += digit[ends[rows] - (k + 1)] * np.int64(10**k)
    return values


def _saved_payload(raw: bytes) -> dict | None:
    """The payload of a file laid out as save_artifact writes it, its
    ``bits_rle`` parsed by ``_plain_ints`` and the rest by JSON, digest
    checked and removed; or None, and the JSON path decides, unless the
    file opens with ``_SAVED_HEAD``, the runs are plain ints, the rest
    parses and holds no second ``bits_rle`` (JSON keeps the last of
    duplicate keys), and the digest covers the file's own bytes."""
    end = raw.find(b"]", len(_SAVED_HEAD))
    if not (raw.startswith(_SAVED_HEAD) and raw[end + 1:end + 2] == b","):
        return None
    runs = _plain_ints(raw[len(_SAVED_HEAD):end])
    if runs is None:
        return None
    try:
        payload = json.loads((b"{" + raw[end + 2:]).decode())
    except ValueError:
        return None
    if "bits_rle" in payload or not _digest_covers(
            raw, payload.pop("integrity_sha256", None)):
        return None
    payload["bits_rle"] = runs
    return payload


def _json_payload(raw: bytes) -> dict:
    """The payload of the file's JSON, whose digest matches it: the digest
    of the file's own bytes (``_digest_covers``), or else of the payload's
    canonical re-encoding, as in format 1's indented files."""
    try:
        payload = json.loads(raw.decode())
    except ValueError as exc:  # not UTF-8 or JSON
        raise ArtifactError(f"unreadable artifact: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError("artifact is not a JSON object")
    digest = payload.pop("integrity_sha256", None)
    if digest is None:
        raise ArtifactError("artifact missing integrity digest")
    if not (_digest_covers(raw, digest) or hashlib.sha256(
            _canonical(payload)).hexdigest() == digest):
        raise ArtifactError("integrity digest mismatch")
    return payload


def load_artifact(path) -> SubsetArtifact:
    """The artifact of a file whose digest matches its payload, read by
    ``_saved_payload`` where it can, else by ``_json_payload``.  Formats
    2 and 3 share one layout: their tables are unpacked, and format 1
    lists converted, so either way each table a form declares in
    ``Form.arrays`` reads as an int64 array.  Meta is read as written."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ArtifactError(f"unreadable artifact: {exc}") from exc
    payload = _saved_payload(raw)
    if payload is None:
        payload = _json_payload(raw)
    version = payload.get("format_version")
    if type(version) is not int or version not in (1, 2, FORMAT_VERSION):
        raise ArtifactError(f"unsupported format version {version}")
    for key, (t, name) in _FIELD_TYPES.items():
        if type(payload.get(key)) is not t:
            raise ArtifactError(f"artifact field {key!r} must be {name}")
    n_max, guarantee = payload["n_max"], payload["guarantee"]
    bits = rle_to_bits(payload.get("bits_rle"), n_max)
    form = _form(guarantee.get("form"), version) or Form()
    size = _table_size(form, guarantee, n_max)
    for name in form.arrays:
        try:
            guarantee[name] = (_v1_ints if version == 1 else packed_to_ints)(
                guarantee.get(name), size)
        except ArtifactError as exc:
            raise ArtifactError(f"guarantee table {name!r}: {exc}") from exc
    return SubsetArtifact(payload["kind"], bits,
                          checkpoints=payload["checkpoints"],
                          guarantee=guarantee,
                          diagnostics=payload["diagnostics"],
                          meta=payload["meta"], format_version=version)


# -- guarantee forms ----------------------------------------------------------
#
# Every guarantee form is declared once, in FORMS (``Form``): one table of
# its certified rows (``Rows``), each column computed once per evaluation,
# and its record checks, ranges and keys.  verify_artifact,
# write_certified_csv and the builders' verifiers read it.  Bound arithmetic
# is exact: int64 where a value provably fits, Python ints (dtype=object)
# where a user's rational or a power of two may not.

CSV_HEADER = "n,count,lower_num,lower_den,upper_num,upper_den,holds\n"


class Rows(NamedTuple):
    """A form's certified rows: the int64 array of window lengths ``n``,
    ``count`` = counts[n], and the (num, den) array pairs ``lower`` and
    ``upper`` bounding it as reduced fractions, or None where the form has
    no such bound; the upper relation is ``<`` where ``strict``, else
    ``<=``.  ``margin`` is the producer's own per-row verdict, whose first
    failure the guarantee stores as ``holds`` and ``first_violation``, or
    None where the producer checked these bound rows.  ``failures`` are
    the (label, message) failures of per-row checks on the same columns."""

    n: np.ndarray
    count: np.ndarray
    lower: tuple | None
    upper: tuple | None = None
    strict: bool = False
    margin: np.ndarray | None = None
    failures: list | tuple = ()


class Form(NamedTuple):
    """``rows(art, counts, window)`` returns the form's ``Rows``, given the
    int64 column of the n its tables run over (``_window``); violated rows
    carry ``bound_label``.  ``checks`` are ``(label, fn(art, counts) ->
    [message])`` pairs.  ``ranges(art)`` lists ``(name, value, lo, hi)``
    for every stored number that rows or checks use as a position or index
    in the window, which must lie in [lo, hi], and for every stored
    exponent of a power of two they shift by, with lo 0 and hi None: no
    upper end.  ``arrays`` maps the guarantee's per-n tables, int64 arrays
    over n from its ``n0`` (in forms with that key) or 1 to n_max, packed
    in the file (``ints_to_packed``), to their range: [0, n] at each n
    ("window"), >= 0 ("exponent") or none (None).  Every number and table
    must lie in its range before rows or checks run.  ``keys`` are the
    guarantee's keys besides ``form`` and the tables; it holds no others."""

    rows: Callable | None = None
    bound_label: str = "bound"
    checks: tuple = ()
    ranges: Callable | None = None
    arrays: dict = {}
    keys: tuple = ()


def _column(records, key) -> np.ndarray:
    return np.array([r[key] for r in records], dtype=object)


def _reduced(num, den):
    g = np.gcd(num, den)
    return num // g, den // g


def _whole(values):
    return values, np.broadcast_to(np.int64(1), values.shape)


def _rational(rec, key="q", unit=True):
    """The stored rational rec[key_num]/rec[key_den]; ValueError unless both
    are integers, not bools, the denominator is >= 1 and, for a ``unit``
    ratio, the rational lies in (0, 1)."""
    num, den = rec[f"{key}_num"], rec[f"{key}_den"]
    if not (all(isinstance(v, int) and not isinstance(v, bool)
                for v in (num, den)) and den >= 1
            and (not unit or 0 < num < den)):
        within = "in (0, 1)" if unit else "with a denominator >= 1"
        raise ValueError(f"{key} {num!r}/{den!r} is not a ratio {within}")
    return num, den


def _checkpoint_rows(art, counts, window):
    # count · den >= num · s at every checkpoint with s >= 1
    q_num, q_den = _rational(art.guarantee)
    n = np.array([cp["s"] for cp in art.checkpoints if cp["s"] > 0],
                 dtype=np.int64)
    s = exact_ints(n, max(q_num, q_den) * art.n_max)
    return Rows(n, counts[n], _reduced(q_num * s, q_den))


def _tracking_rows(art, counts, window):
    # count >= max(q_t − 2^-slack_pow, 0) · s
    cps = [cp for cp in art.checkpoints if cp["s"] != 0]
    for cp in cps:
        _rational(cp, "target", unit=False)
    s, num, den = (_column(cps, k) for k in ("s", "target_num", "target_den"))
    scale = np.array([1 << cp["slack_pow"] for cp in cps], dtype=object)
    slacked = np.maximum(num * scale - den, 0)
    n = s.astype(np.int64)
    return Rows(n, counts[n], _reduced(slacked * s, den * scale))


def _lookahead_rows(art, counts, n):
    # count >= ceil(q·n) − ceil_sqrt(n) for n in [n0, n_max]; the producer
    # checked count >= in_a[n] − ceil_sqrt(n), which implies it where
    # in_a[n] >= ceil(q·n) (format 1 stored no in_a)
    g = art.guarantee
    q_num, q_den = _rational(g)
    need = -(-q_num * exact_ints(n, max(q_num, q_den) * art.n_max) // q_den)
    root, count = ceil_sqrt_array(n), counts[g["n0"]:]
    rows = Rows(n, count, _whole(need - root))
    if art.format_version == 1:
        return rows
    in_a = g["in_a"]
    return rows._replace(margin=count >= in_a - root, failures=[
        ("in_a", f"in_a[{n[i]}] = {in_a[i]} is below ceil(q·n) = {need[i]}")
        for i in np.flatnonzero(in_a < need)[:1]])


def _relative_rows(art, counts, n):
    # count >= in_a[n] − ceil_sqrt(n) for n in [1, n_max]
    return Rows(n, counts[1:],
                _whole(art.guarantee["in_a"] - ceil_sqrt_array(n)))


def _witness_rows(art, counts, n):
    # count >= ceil(n·(2^h − 1)/2^h) − ceil_sqrt(n) = n − ⌊n/2^h⌋ − ceil_sqrt(n);
    # n < 2^62, so every h >= 62 gives ⌊n/2^h⌋ = 0
    h = np.minimum(art.guarantee["h_of_n"], 62)
    return Rows(n, counts[1:], _whole(n - (n >> h) - ceil_sqrt_array(n)))


def _approach_rows(art, counts, window):
    # |count − q·s| <= s/(n+1) at checkpoint n, over the denominator q_den·(n+1)
    cps = art.checkpoints
    for cp in cps:
        _rational(cp)
    s, q_num, q_den = (_column(cps, k) for k in ("s", "q_num", "q_den"))
    m = _column(cps, "n") + 1
    n = s.astype(np.int64)
    return Rows(n, counts[n], _reduced(s * (q_num * m - q_den), q_den * m),
                _reduced(s * (q_num * m + q_den), q_den * m))


def _blockwise_rows(art, counts, window):
    # rho((n+1)!) − L/n within [−L/n, 1 − L/n]·1/(n+1), i.e.
    # L·n! <= count((n+1)!) <= (L + 1)·n!
    levels = art.guarantee["levels"]
    n = np.array([factorial(k + 1) for k, _ in levels], dtype=np.int64)
    block = np.array([factorial(k) for k, _ in levels], dtype=object)
    L = np.array([L for _, L in levels], dtype=object)
    return Rows(n, counts[n], _whole(L * block), _whole((L + 1) * block))


def _restraint_rows(art, counts, window):
    # rho_m(A) strictly below 1 − 2^-(k+2) at each final interval's end m
    recs = _finals(art)
    m = np.array([r["final_interval"][1] for r in recs], dtype=object)
    p = np.array([1 << (r["k"] + 2) for r in recs], dtype=object)
    n = m.astype(np.int64)
    return Rows(n, counts[n], None, _reduced((p - 1) * m, p), strict=True)


def _sparse_rows(art, counts, n):
    # count <= floor(log2 n) + 1, the number of powers of two <= n
    powers = np.left_shift(1, np.arange(63, dtype=np.int64))
    return Rows(n, counts[1:], None,
                _whole(np.searchsorted(powers, n, side="right")))


def _checkpoint_ranges(art):
    return [("checkpoint s", cp["s"], 0, art.n_max) for cp in art.checkpoints]


def _tracking_ranges(art):
    return _checkpoint_ranges(art) + [("slack_pow", cp["slack_pow"], 0, None)
                                      for cp in art.checkpoints
                                      if cp["s"] != 0]


def _approach_ranges(art):
    # checkpoint n's bounds divide by n + 1; the producer numbers them 0, 1, …
    last = len(art.checkpoints) - 1
    return _checkpoint_ranges(art) + [("checkpoint n", cp["n"], 0, last)
                                      for cp in art.checkpoints]


def _lookahead_ranges(art):
    return [("n0", art.guarantee["n0"], 0, art.n_max + 1)]


def _block_ranges(art):
    # block n reads counts at (n+1)!, and 21! is past any window
    last = max((k for k in range(1, 21) if factorial(k + 1) <= art.n_max),
               default=0)
    return [("block", n, 1, last) for n, _ in art.guarantee["levels"]]


def _interval_ranges(art):
    out = []
    for iv in art.checkpoints:
        out += [("interval a", iv["a"], 0, art.n_max),
                ("interval c", iv["c"], 0, art.n_max - 1)]
        if iv["state"] == "finalized":
            out.append(("witness", iv["witness"], 0, art.n_max - 1))
    # r_b = |S ∩ [0, b]| <= b + 1, and r_c − r_b = |S ∩ (b, c]| <= c − b;
    # format 1 stored no r_b, r_c
    for iv in art.checkpoints if art.format_version != 1 else ():
        b, r_b = iv["b"], iv["r_b"]
        out += [("interval b", b, 0, iv["c"]),
                ("interval r_b", r_b, 0, b + 1),
                ("interval r_c", iv["r_c"], r_b, r_b + iv["c"] - b)]
    return out + [("interval e", iv["e"], 0, None) for iv in art.checkpoints]


def _finals(art):
    """The restraint records that hold a final interval."""
    return [r for r in art.checkpoints if r.get("final_interval") is not None]


def _restraint_ranges(art):
    recs = _finals(art)
    return ([("final interval end", r["final_interval"][1], 0, art.n_max)
             for r in recs] + [("k", r["k"], 0, None) for r in recs])


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


def _ratio_identity(iv):
    """(gap_avoided, identity_exact) recomputed from an interval's stored
    r_b = |S ∩ [0, b]| and r_c = |S ∩ [0, c]| for the decider's 1-set S:
    the gap (b, c] is avoided when r_b = r_c, and then, for b >= 1, the
    identity r_b/b − r_c/c = r_b/(b·2^(e+1)) is compared over the common
    denominator b·c·2^(e+1); None where it is not claimed."""
    b, c, r_b, r_c = iv["b"], iv["c"], iv["r_b"], iv["r_c"]
    if r_b != r_c or b < 1:
        return r_b == r_c, None
    return True, (r_b * c - r_c * b) << (iv["e"] + 1) == r_b * c


def _interval_records(art, counts):
    """Each interval's block count, completion and witness against the
    bitset, and its density floor 1 − 2^-e.  The ratio identity is about
    the decider's 1-set S, which the artifact does not hold: its counts
    r_b and r_c come from the decider.  From them the flags are
    recomputed (``_ratio_identity``); an interval fails where a stored
    flag disagrees or the identity does not hold.  Version 1 records hold
    no counts, and fail only where their flags record the identity
    violated."""
    failures = []
    for iv in art.checkpoints:
        a, c, e = iv["a"], iv["c"], iv["e"]
        blk = int(counts[c + 1] - counts[a])
        if blk != iv["block_count"]:
            failures.append(f"interval [{a},{c}]: block count mismatch")
        if iv["state"] == "completed" and blk != c - a + 1:
            failures.append(f"interval [{a},{c}]: marked completed but "
                            "not fully enumerated")
        if art.format_version == 1:
            if iv.get("gap_avoided") and iv.get("identity_exact") is False:
                failures.append(f"interval [{a},{c}]: exact ratio identity "
                                "recorded violated")
        else:
            avoided, identity = _ratio_identity(iv)
            if (iv["gap_avoided"] is not avoided
                    or iv["identity_exact"] is not identity):
                failures.append(f"interval [{a},{c}]: stored gap_avoided "
                                "or identity_exact disagrees with r_b, r_c")
            if identity is False:
                failures.append(f"interval [{a},{c}]: exact ratio identity "
                                "fails")
        if iv["state"] == "finalized" and art.bits[iv["witness"]]:
            failures.append(f"witness {iv['witness']} was enumerated")
        # block density floor 1 − 2^-e (waiting/finalized keep >= |J|/|I|)
        if blk * (1 << e) < (c - a + 1) * ((1 << e) - 1):
            failures.append(f"interval [{a},{c}]: density floor violated")
    return failures


def _restraint_verdicts(art, counts):
    """Each final interval's stored rho_m = |A ∩ [0, m)|/m and
    strictly_below_bound against the bitset, where the record stores
    them; rho_m is compared by cross-multiplication."""
    failures = []
    for r in _finals(art):
        k, m = r["k"], r["final_interval"][1]
        c, p = int(counts[m]), 1 << (k + 2)
        if "rho_m_num" in r or "rho_m_den" in r:
            num, den = _rational(r, "rho_m", unit=False)
            if num * m != den * c:
                failures.append(f"restraint k={k}: stored rho_m {num}/{den} "
                                f"!= bitset rho_m {c}/{m}")
        below = c * p < (p - 1) * m
        if r.get("strictly_below_bound", below) is not below:
            failures.append(f"restraint k={k}: stored strictly_below_bound "
                            "disagrees with the bitset")
    return failures


def _stored_verdict(art, n, margin) -> list:
    """The guarantee's stored holds and first_violation against the first
    row n at which the producer's margin check fails (None if none)."""
    bad = np.flatnonzero(~margin)[:1]
    first = int(n[bad[0]]) if bad.size else None
    holds, stored = art.guarantee["holds"], art.guarantee["first_violation"]
    if (holds is not (first is None) or type(stored) is not type(first)
            or stored != first):
        found = "holds" if first is None else f"first fails at n={first}"
        return [f"stored verdict holds={holds!r}, first_violation="
                f"{stored!r} disagrees with the margin check, which {found}"]
    return []


def _recorded_verdict(art, counts):
    # a format 1 relative margin stores no in_a: only its verdict is checked
    return [] if art.guarantee["holds"] is True else [
        "recorded guarantee verdict is not 'holds'"]


_VERDICT = ("holds", "first_violation")

FORMS = {
    "checkpoint-ratio": Form(_checkpoint_rows,
                             checks=(("count", _stored_counts),),
                             ranges=_checkpoint_ranges,
                             keys=("q_num", "q_den")),
    "tracking-checkpoint-ratio": Form(_tracking_rows,
                                      checks=(("count", _stored_counts),),
                                      ranges=_tracking_ranges),
    "lookahead-margin": Form(_lookahead_rows, ranges=_lookahead_ranges,
                             arrays={"s_table": None, "in_a": "window"},
                             keys=("q_num", "q_den", "n0", *_VERDICT)),
    "witness-margin": Form(_witness_rows,
                           arrays={"s_table": None, "h_of_n": "exponent"},
                           keys=_VERDICT),
    "lookahead-margin-relative": Form(_relative_rows,
                                      arrays={"s_table": None,
                                              "in_a": "window"},
                                      keys=_VERDICT),
    "target-approach": Form(_approach_rows, bound_label="approach",
                            checks=(("approach", _stored_counts),
                                    ("between", _betweenness)),
                            ranges=_approach_ranges),
    "blockwise-levels": Form(_blockwise_rows, bound_label="sandwich",
                             checks=(("block_density", _block_density),),
                             ranges=_block_ranges, keys=("levels",)),
    "ratio-interval-report": Form(checks=(("interval", _interval_records),),
                                  ranges=_interval_ranges),
    "restraint-report": Form(_restraint_rows,
                             checks=(("verdict", _restraint_verdicts),),
                             ranges=_restraint_ranges),
    "log-sparse": Form(_sparse_rows),
    "membership-only": Form(),
}

# format 1 stored no in_a, and _evaluate compares no format 1 margin verdict
V1_FORMS = dict(FORMS, **{
    "lookahead-margin": FORMS["lookahead-margin"]._replace(
        arrays={"s_table": None}),
    "lookahead-margin-relative": Form(checks=(("holds", _recorded_verdict),),
                                      arrays={"s_table": None},
                                      keys=_VERDICT),
})


def _form(name, version=None) -> Form | None:
    """The named form as read in artifacts of ``version`` (None: one built
    in memory, of the current format), or None if there is no such form."""
    forms = V1_FORMS if version == 1 else FORMS
    return forms.get(name) if isinstance(name, str) else None


def _table_size(form: Form, guarantee: dict, n_max: int):
    """The length of the form's tables, or None where their first n is not
    a position in the window (the form's range check reports it)."""
    first = guarantee.get("n0") if "n0" in form.keys else 1
    if type(first) is not int or not 0 <= first <= n_max + 1:
        return None
    return n_max + 1 - first


def _window(form: Form, art: SubsetArtifact):
    """The int64 column of the n the form's tables run over, from the
    guarantee's n0 (in forms with that key) or 1 to n_max, or None where
    that first n is not a position in the window."""
    size = _table_size(form, art.guarantee, art.n_max)
    return None if size is None else np.arange(
        art.n_max + 1 - size, art.n_max + 1, dtype=np.int64)


def _range_failures(form: Form, art: SubsetArtifact, window) -> list:
    """(label, message) for every stored number outside its range: a
    position or index outside the window, or a negative exponent; if there
    is none, the failures of the form's tables over the ``window`` column
    (``_table_failures``).  Raises TypeError if a ranged number is not an
    integer."""
    out = []
    for name, value, lo, hi in form.ranges(art) if form.ranges else ():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} {value!r} is not an integer")
        if hi is None and value < lo:
            out.append(("exponent", f"{name} {value} is negative"))
        elif hi is not None and not lo <= value <= hi:
            out.append(("window", f"{name} {value} outside [{lo}, {hi}]"))
    return out or _table_failures(form, art, window)


def _table_failures(form: Form, art: SubsetArtifact, n) -> list:
    """(label, message) for the first entry of each table outside its
    range, labelled by the range, where entry i belongs to n[i] of the
    window column ``n``; raises ValueError if a table is not an int64 array
    of the window's length."""
    size, out = None if n is None else n.size, []
    for name, kind in form.arrays.items():
        table = art.guarantee[name]
        if not (isinstance(table, np.ndarray) and table.dtype == np.int64
                and table.shape == (size,)):
            raise ValueError(f"{name} must hold {size} int64 values")
        if kind == "window":
            out += [(kind, f"{name}[{n[i]}] {table[i]} outside [0, {n[i]}]")
                    for i in np.flatnonzero((table < 0) | (table > n))[:1]]
        elif kind == "exponent":
            out += [(kind, f"{name}[{n[i]}] {table[i]} is negative")
                    for i in np.flatnonzero(table < 0)[:1]]
    return out


def _check_keys(form: Form, guarantee: dict) -> None:
    """Raises KeyError for a key the form declares that the guarantee
    lacks, and ValueError for one the guarantee holds that it does not."""
    declared = {"form", *form.keys, *form.arrays}
    missing = declared - guarantee.keys()
    if missing:
        raise KeyError(min(missing))
    unknown = guarantee.keys() - declared
    if unknown:
        raise ValueError(f"unknown guarantee key {min(map(repr, unknown))}")


# a form raises one of these on reading a record that lacks a field, or
# holds one of the wrong type or shape
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError,
              ArithmeticError)


def _evaluate(art: SubsetArtifact):
    """(failures, cols): the (label, message) failures of
    ``labelled_failures``, and the columns of the form's rows; no columns
    if it has none, or if a record is malformed or out of range."""
    name = art.guarantee.get("form", "")
    form = _form(name, art.format_version)
    if form is None:
        return [("form", f"unknown guarantee form {name!r}")], []
    counts = art.counts()
    try:
        window = _window(form, art)  # shared by the range check and rows
        out_of_range = _range_failures(form, art, window)
        if out_of_range:
            return out_of_range, []
        out = [(label, msg) for label, check in form.checks
               for msg in check(art, counts)]
        rows = form.rows(art, counts, window) if form.rows else None
        if rows is not None:
            holds = np.ones(rows.n.size, dtype=bool)
            if rows.lower is not None:
                holds &= rows.count * rows.lower[1] >= rows.lower[0]
            if rows.upper is not None:
                holds &= (np.less if rows.strict else np.less_equal)(
                    rows.count * rows.upper[1], rows.upper[0])
            out += rows.failures
            if "holds" in form.keys and art.format_version != 1:
                out += [("verdict", msg) for msg in _stored_verdict(
                    art, rows.n, holds if rows.margin is None else rows.margin)]
        _check_keys(form, art.guarantee)
    except _MALFORMED as exc:
        return [("form", f"malformed {name} record: {exc!r}")], []
    if rows is None:
        return out, []
    cols = [rows.n, rows.count, *(rows.lower or (None, None)),
            *(rows.upper or (None, None)), holds.view(np.uint8)]
    failed = csv_bytes([None if col is None else col[~holds] for col in cols])
    out += [(form.bound_label, f"certified row fails: {row}")
            for row in failed.decode().split("\n")[:-1]]
    return out, cols


def labelled_failures(art: SubsetArtifact) -> list:
    """(label, message) for every failed record check and every violated
    row of the artifact's guarantee form; only the out-of-range records
    and tables, if there are any; one ``form`` failure, if a record the
    form reads is malformed or the guarantee's keys are not the form's."""
    return _evaluate(art)[0]


def passed_groups(art: SubsetArtifact, labels) -> dict:
    """{label: True if no check or bound row with that label failed}."""
    failed = {label for label, _ in labelled_failures(art)}
    return {label: label not in failed for label in labels}


def _report(labelled) -> dict:
    failures = [msg for _, msg in labelled]
    return {"ok": not failures, "failures": failures}


def verify_artifact(art: SubsetArtifact) -> dict:
    """Recompute every certified inequality from the artifact's own bitset
    and stored numbers.  Returns {'ok': bool, 'failures': [...]} with one
    entry per failed record check or violated bound row."""
    return _report(labelled_failures(art))


def write_certified_csv(art: SubsetArtifact, path) -> dict:
    """One line per row of the form's ``Rows``: the count at n with its
    certified rational lower and/or upper bound (strict only in the
    restraint form).  Forms with no rows (interval reports, bare
    membership, and format 1 relative margins, which store no in_a), and
    artifacts whose records are malformed or out of range, give only the
    header.  Returns ``verify_artifact(art)``, from the same evaluation."""
    failures, cols = _evaluate(art)
    write_columns(path, CSV_HEADER, cols)
    return _report(failures)
