"""Computable-subset extraction from stage enumerations.

Each routine consumes a CEStream and returns a SubsetArtifact: an explicit
bitset over the window, the checkpoint/stage data the search committed to,
and the exact integer-form inequalities that data certifies.  Budget
exhaustion yields a *partial* artifact with a diagnostic — a finite window
failing to produce a witness says nothing about the underlying set, so it
is never treated as a hard error at this layer.

There is one checkpoint pair search, ``_first_pair_search``: the fixed-q
checkpoint extraction runs it once per checkpoint, and the tracking
extraction once per run of equal targets in t, since its target sequences
are finite lists whose last value holds from there on.  The pair search
and the look-ahead stage table read one order statistic, through
``_kth_scan``: the k-th smallest entry stage among the enumerated
elements of a prefix.  When the live entry stages are nondecreasing in
the element (``CEStream.stage_index.monotone``), that is simply the k-th
live entry, computed with whole-array numpy operations.
That holds for every CLI schedule except ``scripted``.  Other streams use
a sorted window grown one element at a time; both paths give the same
numbers.  The look-ahead bits and the margin check are vectorized for
every stream.

One skeleton per family takes each producer's own search, needs and
records: ``_checkpoint_loop``, ``_lookahead_artifact``, ``_guarded_search``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np
from sortedcontainers import SortedList

from .core import (CEStream, NEVER, ceil_div, ceil_sqrt_array, exact_ints,
                   prefix_counts)
from .errors import BudgetExceeded, PreconditionViolated


@dataclass
class SubsetArtifact:
    """An extracted computable subset plus its certification data.

    ``guarantee`` describes the inequality family the artifact certifies
    (with every number needed to re-check it); ``checkpoints`` carry the
    committed search results; ``diagnostics`` record budget exhaustion.
    Per-n tables in ``guarantee`` (such as ``s_table``) are int64 arrays.
    ``format_version`` is that of the file the artifact was loaded from,
    None for one built in memory, which is of the current format.
    """

    kind: str
    bits: np.ndarray
    checkpoints: list = field(default_factory=list)
    guarantee: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    format_version: int | None = None

    @property
    def n_max(self) -> int:
        return self.bits.size

    def counts(self) -> np.ndarray:
        return prefix_counts(self.bits)

    def is_subset_of(self, stream: CEStream) -> bool:
        """Scan check: every selected element was eventually enumerated."""
        final = stream.final_members()[: self.n_max]
        return bool(np.all(final | ~self.bits))


_FIRST_CHUNK = 64


def _first_pair_search(stream: CEStream, s_lo: int, need, t_lo: int = 0,
                       t_hi: int = NEVER - 1):
    """First (s, t) in dovetail order (s + t ascending, ties by smaller s)
    with s > s_lo, t_lo <= t <= t_hi (by default every t up to stage_max),
    and at least need(s) elements of [s_lo, s) enumerated by stage t;
    ``need`` maps an int64 array of s to the int64 array of counts.

    For each s the least workable t is an order statistic of the entry
    stages of [s_lo, s) (``_kth_scan``), raised to t_lo.  Candidates are
    scanned in chunks that double in length, and no chunk starts where
    s + t_lo reaches the best cost so far; within a chunk the first least
    cost wins.
    """
    scan = _kth_scan(stream, s_lo)
    best = None  # (cost, s, t)
    start, size = s_lo + 1, _FIRST_CHUNK
    while start <= stream.n_max and (best is None or start + t_lo < best[0]):
        stop = min(start + size, stream.n_max + 1,
                   NEVER if best is None else best[0] - t_lo)
        s = np.arange(start, stop, dtype=np.int64)
        t, _ = scan(s, need(s))
        t = np.maximum(t, t_lo)
        t[t > t_hi] = NEVER
        cost = s + np.minimum(t, NEVER - s)  # s + t, capped at NEVER
        i = int(np.argmin(cost))
        if t[i] != NEVER and (best is None or cost[i] < best[0]):
            best = (int(cost[i]), int(s[i]), int(t[i]))
        start, size = stop, 2 * size
    return None if best is None else best[1:]


def _kth_scan(stream: CEStream, s_lo: int, counted: bool = False):
    """The order statistic read by the pair search and the stage table.

    ``scan(s, k)`` takes int64 arrays of window ends s (ascending, and
    past the ends of any earlier call) and of ranks k.  For each it gives
    t, the k-th smallest entry stage among the enumerated elements of
    [s_lo, s) (0 where k <= 0, NEVER where there are fewer than k), and,
    if ``counted``, how many of those entries are at or below t (else
    None).  When the entry stages rise with the element, t is the k-th
    live entry of [s_lo, s), read with numpy; otherwise one sorted window
    of entry stages grows to each s in turn.
    """
    order, stages, _, monotone = stream.stage_index
    if monotone:
        first = int(np.searchsorted(order, s_lo))
        order, stages = order[first:], stages[first:]  # live entries >= s_lo

        def scan(s, k):
            live = np.searchsorted(order, s)
            t = np.where(k > live, NEVER, 0)
            pick = (k > 0) & (k <= live)
            t[pick] = stages[k[pick] - 1]
            if not counted:
                return t, None
            # entries at or below t are a prefix of the live ones
            return t, np.minimum(np.searchsorted(stages, t, "right"), live)

        return scan

    entry, window, end = stream.entry, SortedList(), s_lo

    def scan(s, k):
        nonlocal end
        t, have = np.zeros_like(s), np.zeros_like(s)
        for i, (sv, kv) in enumerate(zip(s.tolist(), k.tolist())):
            grown, end = entry[end:sv], sv
            window.update(grown[grown != NEVER].tolist())
            t[i] = ti = (NEVER if kv > len(window) else
                         window[kv - 1] if kv > 0 else 0)
            if counted:
                have[i] = window.bisect_right(ti)
        return t, have if counted else None

    return scan


def _ceil_q(q: Fraction, n: np.ndarray, n_max: int) -> np.ndarray:
    """ceil(q·n) for 0 <= n <= n_max, clipped to [0, n_max + 1], as int64;
    exact where q·n passes int64 before the division."""
    wide = exact_ints(n, max(abs(q.numerator), q.denominator) * n_max)
    return np.clip(-(-q.numerator * wide // q.denominator), 0,
                   n_max + 1).astype(np.int64)


def _checkpoint_loop(stream: CEStream, search, record):
    """The checkpoint sequence shared by the checkpoint extractions.

    From (s_0, t_0) = (0, 0), ``search(s_n, n)`` gives the next pair
    (s, t), or None when the window/stage budget runs out; the block
    [s_n, s) of B copies A_t, and ``record(s, t, count, n)`` gives the
    producer's own fields for the checkpoint, count being count_B(s).
    Stops once s reaches n_max.  Returns (bits, checkpoints, diagnostics).
    """
    bits = np.zeros(stream.n_max, dtype=bool)
    checkpoints = [{"s": 0, "t": 0, "count": 0}]
    s_n = running = 0
    while s_n < stream.n_max:
        n = len(checkpoints) - 1
        found = search(s_n, n)
        if found is None:
            return bits, checkpoints, [{
                "error": "BudgetExceeded",
                "detail": "no next checkpoint pair within the window/stage budget",
                "after_checkpoint": n,
            }]
        s, t = found
        block = stream.entry[s_n:s] <= t
        bits[s_n:s] = block
        running += int(np.count_nonzero(block))
        checkpoints.append({"s": s, "t": t, "count": running,
                            **record(s, t, running, n)})
        s_n = s
    return bits, checkpoints, []


def checkpoint_subset(stream: CEStream, q) -> SubsetArtifact:
    """Extract a computable B ⊆ A with certified prefix density >= q.

    Checkpoints (s_0, t_0) = (0, 0) and each (s_{n+1}, t_{n+1}) the first
    pair with s > s_n and at least ceil(q·s) elements of [s_n, s) in A_t
    (i.e. the block density condition in exact integers); the block
    [s_n, s_{n+1}) of B copies A_{t_{n+1}}.  Certifies
    count_B(s_{n+1}) · den(q) >= num(q) · s_{n+1} at every checkpoint.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0,1), got {q}")
    bits, checkpoints, diagnostics = _checkpoint_loop(
        stream,
        lambda s_n, n: _first_pair_search(
            stream, s_n, lambda s: _ceil_q(q, s, stream.n_max)),
        lambda s, t, count, n: {})
    # count · den >= num · s at every checkpoint with s >= 1
    guarantee = {"form": "checkpoint-ratio",
                 "q_num": q.numerator, "q_den": q.denominator}
    return SubsetArtifact("checkpoint_subset", bits, checkpoints, guarantee,
                          diagnostics, meta={"stream": stream.label})


def tracking_checkpoint_subset(stream: CEStream, q_seq) -> SubsetArtifact:
    """Checkpoint extraction whose target ratio is read off a rational
    sequence indexed by stage (the caller asserts the sequence tracks the
    upper density of A; that limit claim is recorded, never checked).

    ``q_seq`` is a finite list q_0, …, q_L whose last value holds from
    stage L on (``_targets``).  The pair search for checkpoint n+1 demands
    s > s_n, t > n, and at least ceil((q_t − 2^{−n})·s) elements of
    [s_n, s) in A_t.  The slack term is what the search can actually
    promise, so the certified inequality is
    count_B(s_{n+1}) >= ceil((q_{t_{n+1}} − 2^{−n})·s_{n+1}); whether the
    unslacked bound count >= ceil(q_{t_{n+1}}·s_{n+1}) also held is
    recorded per checkpoint as an observation.
    """
    q = _targets(q_seq)

    def record(s, t, count, n):
        target = q[min(t, len(q) - 1)]
        return {"target_num": target.numerator,
                "target_den": target.denominator, "slack_pow": n,
                "observed_unslacked": (count * target.denominator
                                       >= target.numerator * s)}

    bits, checkpoints, diagnostics = _checkpoint_loop(
        stream, lambda s_n, n: _tracking_pair_search(stream, s_n, n, q),
        record)
    return SubsetArtifact("tracking_checkpoint_subset", bits, checkpoints,
                          {"form": "tracking-checkpoint-ratio"}, diagnostics,
                          meta={"stream": stream.label})


def _tracking_pair_search(stream: CEStream, s_lo: int, n: int, q: list):
    """The first (s, t) in dovetail order with s > s_lo, n < t <= stage_max
    and at least ceil((q_t − 2^{−n})·s) elements of [s_lo, s) in A_t.

    The need is fixed on each run of t with one target: every single t
    below the list's last index, then all t from there on.  Each run is one
    ``_first_pair_search``; the least (cost, s) over the runs wins.  Runs
    come in ascending t, and one starting past the best cost so far can
    only lose (at equal cost a smaller s may still win).
    """
    last, tail = len(q) - 1, max(n + 1, len(q) - 1)
    runs = [(t, t) for t in range(n + 1, min(tail, stream.stage_max + 1))]
    if tail <= stream.stage_max:
        runs.append((tail, stream.stage_max))
    pairs = []  # (cost, s, t) of each run searched
    for t_lo, t_hi in runs:
        if pairs and s_lo + 1 + t_lo > min(pairs)[0]:
            break
        thr = q[min(t_lo, last)] - Fraction(1, 2 ** n)
        pair = _first_pair_search(
            stream, s_lo, lambda s: _ceil_q(thr, s, stream.n_max), t_lo, t_hi)
        if pair is not None:
            pairs.append((sum(pair), *pair))
    return min(pairs)[1:] if pairs else None


def _targets(q_seq) -> list:
    """A target sequence as the list of its values, as Fractions; reader i
    takes value min(i, len − 1), so the last value holds from there on."""
    q = [Fraction(v) for v in q_seq]
    if not q:
        raise ValueError("a target sequence needs at least one value")
    return q


# -- look-ahead family ---------------------------------------------------

def _stage_table_kth(stream: CEStream, needs: np.ndarray, n_lo: int):
    """s(n) for n in [n_lo, n_max]: the needs[n − n_lo]-th smallest entry
    stage among [0, n), 0 where the need is <= 0, and NEVER where [0, n)
    holds fewer enumerated elements than needed; returned with
    in_a(n) = |A_{s(n)} ∩ [0, n)|, the final count of [0, n) at the NEVER
    rows."""
    ns = np.arange(n_lo, stream.n_max + 1, dtype=np.int64)
    return _kth_scan(stream, 0, counted=True)(ns, needs)


def _lookahead_bits(stream: CEStream, s_table: np.ndarray, n_lo: int):
    """B = {k : k ∈ A_{t(k)}} with t(k) = max s(n) over n0 <= n <= min(k², n_max),
    and t(k) = 0 while k² < n0.

    Truncating the range at the window end only lowers t(k) for k past the
    window's square root, and every window-level inequality below depends
    only on s(n) for in-window n, which those k still dominate.
    """
    n_max = stream.n_max
    k = np.minimum(np.arange(n_max, dtype=np.int64), isqrt(n_max) + 1)
    folded = np.maximum(np.minimum(k * k, n_max) - n_lo + 1, 0)
    running = np.concatenate(([0], np.maximum.accumulate(s_table)))
    t_of_k = running[folded]
    return stream.entry <= t_of_k, t_of_k


def _margin_guarantee_holds(bits, base: np.ndarray, n_lo: int):
    """The first n in [n_lo, n_max] with counts_B[n] < base[n − n_lo] −
    ceil_sqrt(n), or None if there is none (expected)."""
    ns = np.arange(n_lo, bits.size + 1, dtype=np.int64)
    bad = np.flatnonzero(prefix_counts(bits)[n_lo:]
                         < base - ceil_sqrt_array(ns))
    return int(ns[bad[0]]) if bad.size else None


def _lookahead_artifact(kind: str, stream: CEStream, s_table: np.ndarray,
                        base: np.ndarray, n_lo: int, guarantee: dict,
                        **meta):
    """The look-ahead tail shared by the look-ahead extractions: B from the
    stage table s(n), n in [n_lo, n_max], then the margin check
    counts_B[n] >= base[n − n_lo] − ceil_sqrt(n), whose verdict joins
    ``guarantee`` with the table.  Returns the artifact and t(k)."""
    bits, t_of_k = _lookahead_bits(stream, s_table, n_lo)
    viol = _margin_guarantee_holds(bits, base, n_lo)
    guarantee.update(s_table=s_table, holds=viol is None,
                     first_violation=viol)
    return SubsetArtifact(kind, bits, guarantee=guarantee,
                          meta={"stream": stream.label, **meta}), t_of_k


def lookahead_subset(stream: CEStream, q, n0: int = 1) -> SubsetArtifact:
    """Extract B ⊆ A certified within a 1/√n margin of the target q.

    Requires (and verifies on the window) that the fully enumerated set
    satisfies count(n) >= ceil(q·n) for all n >= n0.  s(n) is the least
    stage at which [0, n) already holds ceil(q·n) elements; the per-element
    commitment stage t(k) looks ahead over all n up to k², which is what
    makes the margin √n instead of a constant.  Certifies, in integers,
    counts_B[n] >= ceil(q·n) − ceil_sqrt(n) (via the stronger
    counts_B[n] >= |A_{s(n)} ∩ [0,n)| − ceil_sqrt(n)) for all n in
    [n0, n_max]; stores in_a[n] = |A_{s(n)} ∩ [0,n)|, so that the check
    in_a[n] >= ceil(q·n) is re-done from the artifact.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0,1), got {q}")
    if not 1 <= n0 <= stream.n_max + 1:
        raise ValueError(f"n0 must be in [1, {stream.n_max + 1}], got {n0}")
    ns = np.arange(n0, stream.n_max + 1, dtype=np.int64)
    s_table, in_a = _stage_table_kth(stream, _ceil_q(q, ns, stream.n_max),
                                     n0)
    bad = np.flatnonzero(s_table == NEVER)
    if bad.size:
        n_bad = int(ns[bad[0]])
        raise PreconditionViolated(
            f"density target {q} fails at n={n_bad}: "
            f"count={int(in_a[bad[0]])}", at=n_bad)
    art, t_of_k = _lookahead_artifact(
        "lookahead_subset", stream, s_table, in_a, n0,
        {"form": "lookahead-margin", "q_num": q.numerator,
         "q_den": q.denominator, "n0": n0, "in_a": in_a})
    art.checkpoints = [{"t_of_k_tail": int(t_of_k[-1])}]
    return art


# -- witnessed density-1 extraction ---------------------------------------

def witnessed_subset(stream: CEStream, w) -> SubsetArtifact:
    """Extraction driven by a density-1 witness function w.

    w promises count(n) >= ceil(n·(1 − 2^{−k})) for every n >= w(k); the
    convention w(0) = 0 is imposed.  The promise is verified on the window
    (violation raises PreconditionViolated).  With h(n) the strongest level
    active at n, s(n) is the least stage at which [0, n) holds the promised
    count for level h(n); t(k) looks ahead to k² as in lookahead_subset.
    Certifies counts_B[n] >= ceil(n·(2^{h(n)}−1)/2^{h(n)}) − ceil_sqrt(n).
    """
    n_max = stream.n_max
    w_vals = [0]
    z = 1
    while True:
        wz = int(w(z))
        if wz < w_vals[-1]:
            raise PreconditionViolated(f"witness not nondecreasing at k={z}")
        if wz > n_max or z > n_max:
            break
        w_vals.append(wz)
        z += 1
    # h(n) = min(n, #{z >= 1 : w(z) <= n}), as w is nondecreasing
    ns = np.arange(n_max + 1, dtype=np.int64)
    h_of_n = np.minimum(np.searchsorted(np.array(w_vals[1:], dtype=np.int64),
                                        ns, side="right"), ns)
    # ceil(n·(2^h − 1)/2^h) = n − ⌊n/2^h⌋, and ⌊n/2^h⌋ = 0 for h >= 62
    needs = (ns - (ns >> np.minimum(h_of_n, 62)))[1:]
    s_table, _ = _stage_table_kth(stream, needs, 1)
    bad = np.flatnonzero(s_table == NEVER)
    if bad.size:
        n = int(bad[0]) + 1
        raise PreconditionViolated(
            f"witness promise fails at n={n} (level {int(h_of_n[n])})",
            at=n)
    return _lookahead_artifact(
        "witnessed_subset", stream, s_table, needs, 1,
        {"form": "witness-margin", "h_of_n": h_of_n[1:]})[0]


class LimitApprox:
    """A stage-indexed approximation g(k, s) asserted (by the caller) to be
    eventually constant in s for each k.  Answers are memoized so repeated
    queries are pure by construction."""

    def __init__(self, fn, label=""):
        self._fn = fn
        self._memo = {}
        self.label = label

    def eval(self, k: int, s: int):
        key = (k, s)
        if key not in self._memo:
            self._memo[key] = self._fn(k, s)
        return self._memo[key]


def _guarded_search(stream: CEStream, g: LimitApprox, level_need):
    """s(n) for n in [1, n_max]: the least s >= n at which [0, n) holds
    level_need(n, h) elements of A_s, where the binding level h is the
    largest k <= n with g(k, s) <= n (the guards collapse to it, since the
    requirement grows with the level); no level binding, any s works.

    Returns s_table and in_a = |A_{s(n)} ∩ [0, n)|, both indexed by n − 1.
    Raises BudgetExceeded(at=n) when no s <= stage_max works.
    """
    entry = stream.entry
    s_table = np.zeros(stream.n_max, dtype=np.int64)
    in_a = np.zeros(stream.n_max, dtype=np.int64)
    window = SortedList()
    for n in range(1, stream.n_max + 1):
        e = int(entry[n - 1])
        if e != NEVER:
            window.add(e)
        s = n
        while True:
            if s > stream.stage_max:
                raise BudgetExceeded(
                    f"guarded stage search exhausted at n={n}", at=n)
            have = window.bisect_right(s)
            h = 0
            for k in range(n, 0, -1):
                if int(g.eval(k, s)) <= n:
                    h = k
                    break
            if h == 0 or have >= level_need(n, h):
                break
            s += 1
        s_table[n - 1], in_a[n - 1] = s, have
    return s_table, in_a


def limit_witness_subset(stream: CEStream, g: LimitApprox) -> SubsetArtifact:
    """Extraction when the density-1 witness is only known in the limit.

    g(k, s) approximates a witness function; the stage search for s(n) is
    guarded: a level k <= n binds at stage s only if g(k, s) <= n, and then
    [0, n) must already hold ceil(n·(1 − 2^{−k})) = n − ⌊n/2^k⌋ elements
    at stage s.  Because nothing here is verified against the true limit,
    the guarantee is relative: counts_B[n] >= in_a[n] − ceil_sqrt(n),
    with in_a[n] = |A_{s(n)} ∩ [0,n)| stored for every n.
    """
    s_table, in_a = _guarded_search(stream, g, lambda n, h: n - (n >> h))
    return _lookahead_artifact(
        "limit_witness_subset", stream, s_table, in_a, 1,
        {"form": "lookahead-margin-relative", "in_a": in_a}, g=g.label)[0]


def tracked_witness_subset(stream: CEStream, q_seq,
                           g: LimitApprox) -> SubsetArtifact:
    """Extraction toward a per-n rational target sequence q_n with a
    limit-approximated witness: level k binds at (n, s) when g(k, s) <= n,
    demanding count(n at s) >= ceil((q_n − 2^{−k})·n).  ``q_seq`` is a
    finite list whose last value holds from its index on (``_targets``).
    Guarantee is the same relative margin as limit_witness_subset.
    """
    q = _targets(q_seq)

    def level_need(n, h):
        thr = q[min(n, len(q) - 1)] - Fraction(1, 1 << h)
        return ceil_div(thr.numerator * n, thr.denominator) if thr > 0 else 0

    s_table, in_a = _guarded_search(stream, g, level_need)
    return _lookahead_artifact(
        "tracked_witness_subset", stream, s_table, in_a, 1,
        {"form": "lookahead-margin-relative", "in_a": in_a}, g=g.label)[0]
