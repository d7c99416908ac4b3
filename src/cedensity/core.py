"""Set oracles, exact density profiles, and the dyadic valuation classes.

All density values are exact rationals (``fractions.Fraction``); floats
appear only as convenience columns in CSV output.  Profiles are reported
over an explicit finite window [1, n_max] and never claim limit values.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import InvalidResidue, InvalidWindow


class SetOracle:
    """A pure membership predicate over the naturals.

    ``fn`` decides membership of a single natural.  ``batch`` optionally
    produces the whole membership array over [0, n) in one vectorized call;
    when absent, the scalar predicate is mapped.
    """

    def __init__(self, fn, *, label="", batch=None):
        self._fn = fn
        self._batch = batch
        self.label = label

    def contains(self, n: int) -> bool:
        return bool(self._fn(n))

    __contains__ = contains

    def membership_array(self, n: int) -> np.ndarray:
        """Membership of [0, n) as a boolean array."""
        if self._batch is not None:
            out = np.asarray(self._batch(n), dtype=bool)
            if out.shape != (n,):
                raise ValueError("batch membership returned wrong shape")
            return out
        return np.fromiter((self.contains(i) for i in range(n)), dtype=bool, count=n)

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty(label="empty"):
        return SetOracle(lambda n: False, label=label,
                         batch=lambda n: np.zeros(n, dtype=bool))

    @staticmethod
    def naturals(label="omega"):
        return SetOracle(lambda n: True, label=label,
                         batch=lambda n: np.ones(n, dtype=bool))

    @staticmethod
    def explicit(elements, label="explicit"):
        elems = frozenset(int(x) for x in elements)
        if min(elems, default=0) < 0:
            raise InvalidWindow(
                f"explicit set holds a negative element {min(elems)}")
        arr = np.array(sorted(elems), dtype=np.int64) if elems else np.empty(0, np.int64)

        def batch(n):
            out = np.zeros(n, dtype=bool)
            out[arr[arr < n]] = True
            return out

        return SetOracle(lambda n: n in elems, label=label, batch=batch)

    @staticmethod
    def from_bits(bits, label="bitset"):
        bits = np.asarray(bits, dtype=bool)

        def batch(n):
            if n > bits.size:
                raise InvalidWindow(f"bitset covers [0, {bits.size}), asked for {n}")
            return bits[:n]

        def fn(n):
            _check_index(n, bits.size)
            return bool(bits[n])

        return SetOracle(fn, label=label, batch=batch)

    @staticmethod
    def residue_union(m: int, residues, label=None):
        if m < 1:
            raise InvalidResidue(f"modulus must be >= 1, got {m}")
        rs = sorted(set(int(r) for r in residues))
        for r in rs:
            if not 0 <= r < m:
                raise InvalidResidue(f"residue {r} outside [0, {m})")
        rset = frozenset(rs)

        def batch(n):
            # residues past the window never occur in it, so the mask
            # stops at min(m, n) whatever the modulus
            mask = np.zeros(min(m, n), dtype=bool)
            mask[rs[:bisect_left(rs, n)]] = True
            idx = np.arange(n, dtype=np.int64)
            return mask[idx % m if m < n else idx]

        return SetOracle(lambda n: (n % m) in rset,
                         label=label or f"residues{rs}mod{m}", batch=batch)

    @staticmethod
    def complement(inner, label=None):
        return SetOracle(lambda n: not inner.contains(n),
                         label=label or f"co({inner.label})",
                         batch=lambda n: ~inner.membership_array(n))

    @staticmethod
    def union(a, b, label=None):
        return SetOracle(lambda n: a.contains(n) or b.contains(n),
                         label=label or f"({a.label})|({b.label})",
                         batch=lambda n: (a.membership_array(n)
                                          | b.membership_array(n)))


def _check_index(n: int, size: int) -> None:
    """Raise InvalidWindow unless 0 <= n < size (numpy would wrap a
    negative index to the end of the array)."""
    if not 0 <= n < size:
        raise InvalidWindow(f"{n} outside the window [0, {size})")


# -- dyadic valuation classes ------------------------------------------

def trailing_zeros(m: int) -> int:
    """Number of trailing zero bits of m > 0 (the dyadic valuation)."""
    if m <= 0:
        raise ValueError("trailing_zeros needs m > 0")
    return (m & -m).bit_length() - 1


def dyadic_class(k: int, label=None) -> SetOracle:
    """The set of m > 0 whose dyadic valuation is exactly k.

    Equivalently m % 2^(k+1) == 2^k, a single residue class of exact
    asymptotic density 2^-(k+1).
    """
    if k < 0:
        raise ValueError("class index must be >= 0")
    return SetOracle.residue_union(2 ** (k + 1), [2 ** k],
                                   label=label or f"dyadic[{k}]")


def dyadic_union(spec, *, include_zero=False, label="dyadic-union") -> SetOracle:
    """Union of dyadic classes selected by ``spec``.

    ``spec`` is either a finite iterable of class indices or a predicate on
    indices (so infinite index sets are expressible as rules).  Membership
    of m > 0 tests the class of its trailing-zero count; 0 belongs to no
    class and is included only when ``include_zero`` is set.
    """
    if callable(spec):
        pred = spec
        fin = None
    else:
        fin = frozenset(int(k) for k in spec)
        pred = fin.__contains__

    def fn(n):
        if n == 0:
            return include_zero
        return bool(pred(trailing_zeros(n)))

    def batch(n):
        if n == 0:
            return np.zeros(0, dtype=bool)
        idx = np.arange(n, dtype=np.int64)
        out = np.zeros(n, dtype=bool)
        if n > 1:
            body = idx[1:]
            tz = np.log2(body & -body).astype(np.int64)  # exact: powers of two
            kmax = int(tz.max())
            table = np.fromiter((bool(pred(k)) for k in range(kmax + 1)),
                                dtype=bool, count=kmax + 1)
            out[1:] = table[tz]
        out[0] = include_zero
        return out

    if fin is not None:
        label = f"{label}{sorted(fin)}"
    return SetOracle(fn, label=label, batch=batch)


def dyadic_union_from_binary(bits, *, label="dyadic-binary") -> SetOracle:
    """Union of dyadic classes from a binary expansion .b0 b1 b2 ...

    ``bits`` is a sequence or predicate giving digit i of a real in (0,1);
    the resulting set collects class i exactly when b_i = 1, so its density
    equals the expanded real.
    """
    if callable(bits):
        return dyadic_union(lambda k: bits(k) == 1, label=label)
    seq = [int(b) for b in bits]
    return dyadic_union(lambda k: k < len(seq) and seq[k] == 1, label=label)


def binary_expansion_of(r: Fraction, digits: int):
    """First ``digits`` binary digits of r in (0,1), favouring the infinite
    expansion for dyadic rationals (trailing ones)."""
    if not 0 < r < 1:
        raise ValueError("expansion defined for r in (0,1)")
    out = []
    x = r
    for _ in range(digits):
        x *= 2
        if x > 1 or (x == 1 and len(out) + 1 == digits):
            out.append(1)
            x -= 1
        elif x == 1:
            # dyadic tail: emit 0 here and ones forever after
            out.append(0)
            out.extend([1] * (digits - len(out)))
            return out
        else:
            out.append(0)
    return out


# -- profiles ----------------------------------------------------------

@dataclass
class DensityProfile:
    """Cumulative counts of a set over [0, n_max).

    counts[n] = |S ∩ [0, n)| for 0 <= n <= n_max (counts[0] = 0), so the
    prefix density at n >= 1 is the exact rational counts[n] / n.
    """

    counts: np.ndarray
    label: str = ""

    @property
    def n_max(self) -> int:
        return self.counts.size - 1

    def count(self, n: int) -> int:
        self._check(n)
        return int(self.counts[n])

    def rho(self, n: int) -> Fraction:
        self._check(n)
        return Fraction(int(self.counts[n]), n)

    def _check(self, n):
        if not 1 <= n <= self.n_max:
            raise InvalidWindow(f"n={n} outside [1, {self.n_max}]")

    def window_bounds(self, lo: int, hi: int) -> tuple[Fraction, Fraction]:
        """Exact (min, max) of the prefix density over n in [lo, hi].

        These are window estimators only; no asymptotic quantity is claimed.
        """
        if not 1 <= lo <= hi <= self.n_max:
            raise InvalidWindow(f"window [{lo}, {hi}] invalid for n_max={self.n_max}")
        # c_j/n_j < c_i/n_i iff c_j·n_i < c_i·n_j; each product is <= hi²
        c = exact_ints(self.counts[lo:hi + 1], hi * hi)
        n = exact_ints(np.arange(lo, hi + 1), hi * hi)
        ratios = c / n
        out = []
        for sign, i in ((1, ratios.argmin()), (-1, ratios.argmax())):
            # the float extreme is a first guess; take any row that beats
            # it exactly until none does
            while (beats := np.flatnonzero(
                    sign * (c * n[i] - c[i] * n) < 0)).size:
                i = beats[0]
            out.append(Fraction(int(c[i]), int(n[i])))
        return out[0], out[1]

    def write_csv(self, path):
        write_columns(path, "n,count,rho_num,rho_den,rho_float\n",
                      [np.arange(1, self.counts.size), self.counts[1:],
                       *rho_columns(self.counts)])


def prefix_count(oracle: SetOracle, n: int) -> int:
    """|S ∩ [0, n)| by direct evaluation."""
    if n < 1:
        raise InvalidWindow(f"n must be >= 1, got {n}")
    return int(np.count_nonzero(oracle.membership_array(n)))


def rho(oracle: SetOracle, n: int) -> Fraction:
    """Exact prefix density |S ∩ [0, n)| / n in lowest terms."""
    return Fraction(prefix_count(oracle, n), n)


def density_profile(oracle: SetOracle, n_max: int, label=None) -> DensityProfile:
    """Single-pass cumulative profile of the oracle over [0, n_max)."""
    if n_max < 1:
        raise InvalidWindow(f"n_max must be >= 1, got {n_max}")
    counts = prefix_counts(oracle.membership_array(n_max))
    return DensityProfile(counts, label=label if label is not None else oracle.label)


def prefix_counts(bits) -> np.ndarray:
    """counts[n] = |{i < n : bits[i]}| for 0 <= n <= len(bits), in int64."""
    bits = np.asarray(bits, dtype=bool)
    counts = np.zeros(bits.size + 1, dtype=np.int64)
    np.cumsum(bits, out=counts[1:])
    return counts


def exact_ints(values, bound: int) -> np.ndarray:
    """values as int64 if ``bound`` caps every magnitude the caller computes
    from them, else as Python ints (dtype=object), so arithmetic stays exact."""
    return np.asarray(values, dtype=np.int64 if bound < 2**63 else object)


def profile_from_bits(bits, label="") -> DensityProfile:
    return DensityProfile(prefix_counts(bits), label=label)


# -- output files ------------------------------------------------------

_CHUNK_ROWS = 1 << 12  # rows formatted at a time; bounds write_columns' memory


def rho_columns(counts):
    """Reduced numerator, reduced denominator and float of counts[n] / n
    for 1 <= n < counts.size, as numpy columns.

    gcd(0, n) = n writes a zero count as 0/1, and int64 division is
    correctly rounded below 2^53, so each float is float(Fraction(c, n)).
    """
    c = counts[1:]
    n = np.arange(1, counts.size, dtype=np.int64)
    g = np.gcd(c, n)
    return c // g, n // g, c / n


_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)


def _digit_field(col) -> np.ndarray:
    """The decimal digits of an integer column, right-aligned in a uint8
    matrix with one row per value; a leading '-' for negatives, 0 bytes as
    padding.  Magnitudes are taken in uint64, where -(-2^63) is 2^63."""
    col = col.astype(np.int64, copy=False)
    neg = col < 0
    mag = col.view(np.uint64).copy()
    np.negative(mag, out=mag, where=neg)
    digits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(digits.max()) + bool(neg.any())
    out = np.empty((col.size, width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        rest = mag // 10
        out[:, j] = mag - rest * 10 + ord("0")
        mag = rest
    lead = width - digits  # padding bytes before the first digit
    out[np.arange(width) < lead[:, None]] = 0
    rows = np.flatnonzero(neg)
    out[rows, lead[rows] - 1] = ord("-")
    return out


def _text_field(texts) -> np.ndarray:
    """ASCII strings left-aligned in a uint8 matrix, 0 bytes as padding."""
    packed = np.array(texts, dtype=bytes)
    return packed.view(np.uint8).reshape(len(texts), packed.itemsize)


def _field(col) -> np.ndarray:
    if col.dtype.kind in "iu" and np.can_cast(col.dtype, np.int64):
        return _digit_field(col)
    if col.dtype == np.float64:
        # one repr per distinct bit pattern (-0.0 and 0.0 stay apart)
        bits, where = np.unique(col.view(np.int64), return_inverse=True)
        return _text_field(list(map(repr, bits.view(np.float64).tolist())))[
            where]
    return _text_field(list(map(str, col.tolist())))


def row_bytes(fragments, cols) -> bytes:
    """Per row i, the bytes fragments[0], cols[0][i], fragments[1], ...,
    cols[-1][i], fragments[-1]: an integer column (int64 or narrower) in
    decimal digits, a float64 column as the repr of each value, any other
    column (Python ints past int64) as the str of each value, and a None
    column as nothing.

    Each column becomes a 0-padded byte matrix with one row per output
    row; no field or fragment holds a 0 byte, so the nonzero bytes of the
    matrices laid side by side with the fragments are the rows, in order.
    """
    rows = next((len(col) for col in cols if col is not None), 0)
    if not rows:
        return b""
    parts = []
    for frag, col in zip(fragments, [*cols, None]):
        if frag:
            parts.append(np.broadcast_to(np.frombuffer(frag, np.uint8),
                                         (rows, len(frag))))
        if col is not None:
            parts.append(_field(col))
    table = np.concatenate(parts, axis=1)
    return table[table != 0].tobytes()


def csv_bytes(cols) -> bytes:
    """The LF-terminated CSV rows of the equal-length numpy columns, each
    field as ``row_bytes`` renders it (a None column is an empty field)."""
    return row_bytes([b"", *[b","] * (len(cols) - 1), b"\n"], cols)


def write_columns(path, header: str, cols) -> None:
    """``header`` as given, then the CSV rows of ``cols`` (see
    ``csv_bytes``), rendered and written in fixed chunks of rows."""
    rows = next((len(col) for col in cols if col is not None), 0)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, rows, _CHUNK_ROWS):
            fh.write(csv_bytes([None if col is None
                                else col[i:i + _CHUNK_ROWS] for col in cols]))


def compact_json(payload) -> bytes:
    """payload as JSON, keys sorted, no whitespace, by the C encoder."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def write_json(path, payload) -> None:
    """payload as JSON, keys sorted, one-space indents, LF-terminated."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def jsonl_bytes(records) -> bytes:
    """One LF-terminated line per record, each the bytes of
    ``json.dumps(record, sort_keys=True)``."""
    encode = _JSONL_ENCODER.encode
    return "".join([encode(rec) + "\n" for rec in records]).encode()


def write_jsonl(path, records) -> None:
    """``jsonl_bytes(records)`` as a file."""
    with open(path, "wb") as fh:
        fh.write(jsonl_bytes(records))


def residue_union_density(m: int, residues) -> Fraction:
    """Exact asymptotic density |residues| / m of a union of residue classes.

    The union's prefix density equals this value exactly at every multiple
    of m (see ``verify_periodic_density``).
    """
    if m < 1:
        raise InvalidResidue(f"modulus must be >= 1, got {m}")
    rs = set(int(r) for r in residues)
    for r in rs:
        if not 0 <= r < m:
            raise InvalidResidue(f"residue {r} outside [0, {m})")
    return Fraction(len(rs), m)


def verify_periodic_density(m: int, residues, k_multiples: int) -> bool:
    """Check rho at n = m, 2m, ..., k·m equals |residues|/m exactly."""
    oracle = SetOracle.residue_union(m, residues)
    want = residue_union_density(m, residues)
    prof = density_profile(oracle, m * k_multiples)
    return all(prof.rho(m * k) == want for k in range(1, k_multiples + 1))


def ceil_sqrt(n: int) -> int:
    """Smallest integer c with c*c >= n (integer-only square-root ceiling)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = isqrt(n)
    return c if c * c == n else c + 1


def ceil_sqrt_array(n: np.ndarray) -> np.ndarray:
    """``ceil_sqrt`` of every entry of a non-negative int64 array."""
    roots = np.arange(ceil_sqrt(int(n.max())) + 1 if n.size else 1,
                      dtype=np.int64)
    return np.searchsorted(roots * roots, n)  # least c with c·c >= n


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- stage enumerations --------------------------------------------------

NEVER = np.iinfo(np.int64).max
"""Sentinel entry stage for elements never enumerated within the horizon."""


class StageGuess:
    """A guess ``fn(..., s)`` known stage by stage.  ``next_change(s)`` is
    the least stage after s at which it can differ from its guess at s
    (NEVER once settled): a vocabulary kind declares it in closed form, and
    a guess from a bare callable answers s + 1 and is polled."""

    def __init__(self, fn, label="", next_change=None):
        self._fn = fn
        self.label = label
        self.polled = next_change is None
        self.next_change = next_change or (lambda s: s + 1)


class StageIndex(NamedTuple):
    """A stream's enumerated elements in stage order, one entry each.

    ``order`` lists them by entry stage, then by value, and ``stages``
    holds their entry stages, so the elements entering at stage s are one
    slice of ``order`` found by ``searchsorted``.  ``top[i]`` is
    max(order[:i + 1]): max A_s is top[i − 1] for the i entries with
    stage <= s.  ``monotone`` says the entry stages are nondecreasing in
    the element; then ``order`` is ascending and ``top`` is ``order``.
    """

    order: np.ndarray
    stages: np.ndarray
    top: np.ndarray
    monotone: bool


class CEStream:
    """A monotone stage-indexed enumeration s -> A_s of a set.

    Concretely a map from each element of [0, n_max) to the stage at which
    it enters the set (``NEVER`` if it does not).  A_s = {m : entry[m] <= s},
    where an s past the last stage below ``NEVER`` counts as that stage, so
    A_s never holds a ``NEVER`` entry.  Stage indices run over [0, stage_max].
    """

    def __init__(self, entry_stage: np.ndarray, *, stage_max: int, label=""):
        entry = np.asarray(entry_stage, dtype=np.int64)
        if entry.ndim != 1 or entry.size < 1:
            raise InvalidWindow("entry-stage table must be a nonempty 1-d array")
        if entry.min() < 0:
            raise ValueError("entry stages must be >= 0")
        live = entry[entry != NEVER]
        if live.size and int(live.max()) > stage_max:
            raise ValueError("entry stage exceeds stage_max")
        self.entry = entry
        self.stage_max = int(stage_max)
        self.label = label

    @property
    def n_max(self) -> int:
        return self.entry.size

    def member_at(self, m: int, s: int) -> bool:
        """Whether m is in A_s; m must lie in [0, n_max)."""
        _check_index(m, self.entry.size)
        return bool(self.entry[m] <= min(s, NEVER - 1))

    def snapshot(self, s: int) -> np.ndarray:
        """Membership array of A_s over [0, n_max)."""
        return self.entry <= min(s, NEVER - 1)

    def final_members(self) -> np.ndarray:
        return self.snapshot(self.stage_max)

    def count_at(self, n: int, s: int) -> int:
        """|A_s ∩ [0, n)|; n must be >= 0, and an n past n_max counts the
        whole window."""
        if n < 0:
            raise InvalidWindow(f"prefix length {n} is negative")
        return int(np.count_nonzero(self.entry[:n] <= min(s, NEVER - 1)))

    @cached_property
    def stage_index(self) -> StageIndex:
        """The stage index, built on first use: the live elements as they
        stand when their entry stages rise with them, else one stable sort
        of those stages."""
        live = np.flatnonzero(self.entry != NEVER)
        stages = self.entry[live]
        if not np.any(stages[1:] < stages[:-1]):
            return StageIndex(live, stages, live, True)
        by_stage = np.argsort(stages, kind="stable")
        order = live[by_stage]
        return StageIndex(order, stages[by_stage],
                          np.maximum.accumulate(order), False)

    def entering_at(self, s: int) -> np.ndarray:
        """The elements entering at exactly stage s, ascending: A_s − A_{s−1}."""
        order, stages, _, _ = self.stage_index
        return order[np.searchsorted(stages, s):
                     np.searchsorted(stages, s, "right")]

    def max_member_at(self, s: int) -> int:
        """max A_s, or 0 when A_s is empty."""
        _, stages, top, _ = self.stage_index
        i = int(np.searchsorted(stages, s, "right"))
        return int(top[i - 1]) if i else 0

    def first_stage_above(self, m: int) -> int:
        """The least stage s with max A_s > m, or NEVER if there is none."""
        _, stages, top, _ = self.stage_index
        i = int(np.searchsorted(top, m, "right"))
        return int(stages[i]) if i < top.size else NEVER

    @staticmethod
    def from_schedule(pairs, *, n_max: int, stage_max: int, label=""):
        """Build from (element, stage) pairs; elements outside [0, n_max)
        or stages beyond stage_max are dropped (outside the horizon)."""
        entry = np.full(n_max, NEVER, dtype=np.int64)
        for m, s in pairs:
            m, s = int(m), int(s)
            if not (0 <= m < n_max) or s > stage_max:
                continue
            if s < 0:
                raise ValueError(f"negative stage for element {m}")
            if entry[m] != NEVER and entry[m] != s:
                raise ValueError(f"element {m} enumerated at two stages")
            entry[m] = s
        return CEStream(entry, stage_max=stage_max, label=label)

    @staticmethod
    def from_oracle(oracle: SetOracle, *, n_max: int, stage_max: int,
                    delay_fn=None, label=None):
        """Enumerate the oracle's members; member m enters at stage
        delay_fn(m), or at m when delay_fn is None (the canonical 'appears
        at its own value' schedule).  Members whose stage exceeds stage_max
        are dropped (outside the horizon).

        ``delay_fn`` is called once, on the int64 array of all members in
        ascending order, and must act elementwise: it returns their integer
        stages as an array of the same shape, or one scalar for every
        member (``lambda m: 0``).
        """
        members = np.flatnonzero(oracle.membership_array(n_max))
        stages = members if delay_fn is None else np.broadcast_to(
            delay_fn(members), members.shape)
        keep = stages <= stage_max
        entry = np.full(n_max, NEVER, dtype=np.int64)
        entry[members[keep]] = stages[keep]
        return CEStream(entry, stage_max=stage_max,
                        label=label if label is not None else oracle.label)


def stage_profile(stream: CEStream, s: int) -> DensityProfile:
    """Density profile of the stage-s snapshot A_s."""
    return profile_from_bits(stream.snapshot(s), label=f"{stream.label}@{s}")
