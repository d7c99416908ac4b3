"""Set oracles, exact density profiles, and the dyadic valuation classes.

All density values are exact rationals (``fractions.Fraction``), and CSV
output writes each as its reduced numerator and denominator.  Profiles are
reported over an explicit finite window [1, n_max] and never claim limit
values.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidResidue, InvalidWindow


class SetOracle:
    """A pure membership predicate over the naturals.

    ``fn`` decides membership of a single natural, and ``batch`` produces
    the whole membership array over [0, n) in one vectorized call.
    """

    def __init__(self, fn, *, label="", batch):
        self._fn = fn
        self._batch = batch
        self.label = label

    def contains(self, n: int) -> bool:
        return bool(self._fn(n))

    __contains__ = contains

    def membership_array(self, n: int) -> np.ndarray:
        """Membership of [0, n) as a boolean array."""
        out = np.asarray(self._batch(n), dtype=bool)
        if out.shape != (n,):
            raise ValueError("batch membership returned wrong shape")
        return out

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
            if not 0 <= n < bits.size:  # numpy would wrap a negative n
                raise InvalidWindow(f"{n} outside the window [0, {bits.size})")
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
    fin = None if callable(spec) else frozenset(int(k) for k in spec)
    pred = spec if fin is None else fin.__contains__

    def fn(n):
        return include_zero if n == 0 else bool(pred(trailing_zeros(n)))

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
        ratios, out = c / n, []
        for beats, tied in ((np.less, ratios == ratios.min()),
                            (np.greater, ratios == ratios.max())):
            # correctly rounded division is monotone, so the exact extreme
            # is a row tied with the float one: from the first tied row,
            # take any tied row that beats it exactly until none does
            c_t, n_t, i = (c, n, 0) if tied.all() else (c[tied], n[tied], 0)
            while (better := np.flatnonzero(
                    beats(c_t * n_t[i], c_t[i] * n_t))).size:
                i = better[0]
            out.append(Fraction(int(c_t[i]), int(n_t[i])))
        return out[0], out[1]

    def write_csv(self, path):
        write_columns(path, "n,count,rho_num,rho_den\n",
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
_HOLE = -(1 << 62)  # an int written where bytes are spliced into JSON text


def rho_columns(counts):
    """Reduced numerator and denominator of counts[n] / n,
    1 <= n < counts.size, as int64 columns; gcd(0, n) = n writes a zero
    count as 0/1."""
    c = counts[1:]
    n = np.arange(1, counts.size, dtype=np.int64)
    g = np.gcd(c, n)
    return c // g, n // g


def _digit_table() -> np.ndarray:
    """Entry v < 10^4 is f"{v:04}", and entry 10^4 + v is str(v)
    right-aligned in 0 bytes (0 becomes four 0 bytes), each as the 4 bytes
    of one uint32.  Built from broadcast copies alone: a numpy loop that no
    other code runs would add its pages to every process's resident size."""
    table = np.empty((2, 10, 10, 10, 10, 4), np.uint8)  # half, digits, place
    digits = np.frombuffer(b"0123456789", np.uint8)
    for j in range(4):
        table[..., j] = digits.reshape((10,) + (1,) * (3 - j))
    for j in range(4):  # the leading zeros of the second half
        table[(1,) + (0,) * (j + 1) + (..., j)] = 0
    return table.view(np.uint32).reshape(-1)


_DIGITS4 = _digit_table()


class _Field(NamedTuple):
    """A column as ``row_bytes`` lays it into a chunk's zeroed table:
    ``width`` columns, and ``fill(out)``, which writes each row's bytes into
    the last ``width`` columns of ``out``, the table's (rows, span) slice
    that ends where the field does.  A fill may write 0 bytes into the
    span - width columns before its own (a digit group's leading zeros);
    ``row_bytes`` fills the table from right to left, so those columns
    are filled afterwards.  A field's own bytes are never 0; 0 bytes are
    padding."""

    width: int
    span: int
    fill: Callable


def _put_digits(out, mag) -> None:
    """The decimal digits of the uint64 column ``mag`` right-aligned in
    ``out``, a (rows, 4·groups) uint8 slice: cut into groups of four
    digits, each written as one uint32 of ``_DIGITS4``, whose unpadded half
    gives the group that holds a value's leading digit (so every byte left
    of it is 0); 0 is written as "0"."""
    quads = out.view(np.uint32)  # unaligned where the slice is: numpy copes
    zero = mag == 0
    for j in range(quads.shape[1] - 1, -1, -1):
        rest = mag // 10**4
        low = mag - rest * 10**4
        np.add(low, 10**4, out=low, where=rest == 0)
        quads[:, j] = _DIGITS4[low.view(np.int64)]  # an int64 index: no cast
        mag = rest
    out[zero, -1] = ord("0")


def _digit_field(col) -> _Field:
    """The decimal digits of an integer column, as wide as its widest
    value, written by ``_put_digits`` (whose groups may reach 3 columns
    left of them); a column with a negative value gets a first column
    holding '-' on the negative rows, written after the digits.
    Magnitudes are taken in uint64, where -(-2^63) is 2^63."""
    col = col.astype(np.int64, copy=False)
    neg = col < 0
    mag = col.view(np.uint64)
    sign = int(neg.any())
    if sign:
        mag = np.negative(mag, out=mag.copy(), where=neg)
    digits = len(str(int(mag.max())))
    width = sign + digits
    grouped = 4 * -(-digits // 4)  # the columns _put_digits writes
    span = max(width, grouped)

    def fill(out):
        _put_digits(out[:, span - grouped:], mag)
        if sign:
            out[neg, span - width] = ord("-")

    return _Field(width, span, fill)


def _str_field(col) -> _Field:
    """The str of each value, left-aligned in a uint8 matrix, 0 bytes as
    padding."""
    texts = np.array(list(map(str, col.tolist())), dtype=bytes)
    matrix = texts.view(np.uint8).reshape(len(texts), texts.itemsize)

    def fill(out):
        out[...] = matrix

    return _Field(matrix.shape[1], matrix.shape[1], fill)


def _field(col) -> _Field:
    if col.dtype.kind in "iu" and np.can_cast(col.dtype, np.int64):
        return _digit_field(col)
    return _str_field(col)


def row_bytes(fragments, cols) -> np.ndarray:
    """Per row i, the bytes fragments[0], cols[0][i], fragments[1], ...,
    cols[-1][i], fragments[-1], as one uint8 array: an integer column
    (int64 or narrower) in decimal digits, any other column (Python ints
    past int64) as the str of each value, and a None column as nothing.

    The rows are rendered into one zeroed uint8 table with a row per
    output row, filled from its last column to its first: each column's
    ``_Field`` writes its bytes into its own columns (see ``_Field``), and
    each fragment is broadcast into its columns.  The table starts with as
    many 0 columns as a field's span reaches left of the row.  No field or
    fragment holds a 0 byte, so the nonzero bytes of the table are the
    rows, in order."""
    rows = next((len(col) for col in cols if col is not None), 0)
    if not rows:
        return np.empty(0, np.uint8)
    slots = list(zip(fragments, [None if col is None else _field(col)
                                 for col in cols] + [None]))
    at = lead = 0
    for frag, field in slots:
        at += len(frag)
        if field is not None:
            lead = max(lead, field.span - field.width - at)
            at += field.width
    table = np.zeros((rows, lead + at), np.uint8)
    at += lead
    for frag, field in reversed(slots):
        if field is not None:
            field.fill(table[:, at - field.span:at])
            at -= field.width
        if frag:
            table[:, at - len(frag):at] = np.frombuffer(frag, np.uint8)
            at -= len(frag)
    return table[table != 0]


def csv_bytes(cols) -> bytes:
    """The LF-terminated CSV rows of the equal-length numpy columns, each
    field as ``row_bytes`` renders it (a None column is an empty field)."""
    return _csv_rows(cols).tobytes()


def _csv_rows(cols) -> np.ndarray:
    return row_bytes([b"", *[b","] * (len(cols) - 1), b"\n"], cols)


def write_columns(path, header: str, cols) -> None:
    """``header`` as given, then the CSV rows of ``cols`` (see
    ``csv_bytes``), rendered and written in fixed chunks of rows, each
    chunk's bytes written from its numpy array."""
    rows = next((len(col) for col in cols if col is not None), 0)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, rows, _CHUNK_ROWS):
            fh.write(_csv_rows([None if col is None
                                else col[i:i + _CHUNK_ROWS] for col in cols]))


def _compact(payload, default) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=default).encode()


def compact_json(payload) -> bytes:
    """payload as JSON, keys sorted, no whitespace, by the C encoder; a 1-d
    int64 array leaf is written as the list of its ints.

    The encoder writes each array as the int ``_HOLE``, in the order the
    arrays appear in the text; the text is split at those marks and each
    array's digits, rendered by ``row_bytes``, laid in its gap.  Where the
    payload itself holds the mark's digits, the split finds more gaps than
    arrays, and the arrays are written as lists instead."""
    arrays = []

    def mark(value):
        if not (isinstance(value, np.ndarray) and value.ndim == 1
                and value.dtype == np.int64):
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        arrays.append(value)
        return _HOLE

    text = _compact(payload, mark)
    if not arrays:
        return text
    gaps = text.split(b"%d" % _HOLE)
    if len(gaps) != len(arrays) + 1:
        return _compact(payload, np.ndarray.tolist)
    out = [gaps[0]]
    for values, gap in zip(arrays, gaps[1:]):
        digits = b"".join(row_bytes([b"", b","], [values[i:i + _CHUNK_ROWS]])
                          for i in range(0, values.size, _CHUNK_ROWS))
        out += [b"[", digits[:-1], b"]", gap]
    return b"".join(out)


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
    of m.
    """
    if m < 1:
        raise InvalidResidue(f"modulus must be >= 1, got {m}")
    rs = set(int(r) for r in residues)
    for r in rs:
        if not 0 <= r < m:
            raise InvalidResidue(f"residue {r} outside [0, {m})")
    return Fraction(len(rs), m)


def ceil_sqrt(n: int) -> int:
    """Smallest integer c with c*c >= n (integer-only square-root ceiling)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = isqrt(n)
    return c if c * c == n else c + 1


def ceil_sqrt_array(n: np.ndarray) -> np.ndarray:
    """``ceil_sqrt`` of every entry of an int64 array in [0, 2^62]: the
    float root is monotone in n and exact at each square k² (its error is
    under half a unit in k's last place), so its ceiling is the answer or
    one below it, and no square taken passes 2^62."""
    root = np.sqrt(n)
    c = np.ceil(root, out=root).astype(np.int64)
    c += np.multiply(c, c, out=root.view(np.int64)) < n  # root's buffer
    return c


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

    def snapshot(self, s: int) -> np.ndarray:
        """Membership array of A_s over [0, n_max)."""
        return self.entry <= min(s, NEVER - 1)

    def final_members(self) -> np.ndarray:
        return self.snapshot(self.stage_max)

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
