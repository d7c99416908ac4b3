"""Constructions of sets with prescribed finite-window density behaviour.

Inputs are rational sequences or stage-indexed approximations; outputs are
explicit sets (SubsetArtifact) or stage enumerations (CEStream) together
with exact-rational certificates for the inequalities each construction
actually establishes on the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .approximators import SubsetArtifact, _targets
from .artifacts import passed_groups
from .core import CEStream, NEVER, StageGuess, ceil_div, prefix_counts
from .errors import CapExceeded, ContractViolated, RatioUnrealizable
from .prioritysim import ConstructionTrace


# -- oscillation-target builder -------------------------------------------

def _clamp_unit(q: Fraction, n: int) -> Fraction:
    """Push q into (0,1): targets at or beyond the endpoints are replaced
    by 1/(n+2) resp. 1 − 1/(n+2) (recorded on the checkpoint)."""
    if q <= 0:
        return Fraction(1, n + 2)
    if q >= 1:
        return 1 - Fraction(1, n + 2)
    return q


def infsup_build(q_seq, n_checkpoints: int, n_max: int) -> SubsetArtifact:
    """Build a set whose prefix density visits each target q_n in turn.

    Checkpoints s_0 = 1 (with 0 in the set) and then, per target: if the
    current density exceeds the target, extend with an excluded block until
    it drops to the target; otherwise extend with a fully included block
    until it rises to the target.  Certifies |rho_{s_n} − q_n| <= 1/(n+1)
    at every checkpoint (cross-multiplied integers), and each block being
    all-in or all-out makes every intermediate density lie between the
    checkpoint densities.  The window min/max of the checkpoint densities
    therefore track liminf/limsup of the targets — on the window only.
    ``q_seq`` is a finite list whose last value holds from its index on.
    """
    qs = _targets(q_seq)
    if n_max < 2:
        raise ValueError("n_max too small")
    included = [(0, 1)]  # list of included [lo, hi) blocks
    q0 = _clamp_unit(qs[0], 0)
    checkpoints = [{"n": 0, "s": 1, "count": 1,
                    "q_num": q0.numerator, "q_den": q0.denominator}]
    diagnostics = []
    s = 1
    count = 1
    for n in range(1, n_checkpoints + 1):
        q = _clamp_unit(qs[min(n, len(qs) - 1)], n)
        num, den = q.numerator, q.denominator
        if count * den > num * s:
            # excluded block: density falls as 1/t; least t with c/t <= q
            t = max(s + 1, ceil_div(count * den, num))
        else:
            # included block: least t with (count + t − s)/t >= q
            t = max(s + 1, ceil_div((s - count) * den, den - num))
            included.append((s, t))
            count += t - s
        if t > n_max:
            diagnostics.append({
                "error": "Truncated",
                "detail": f"checkpoint {n} needs s={t} beyond n_max={n_max}",
                "completed": n - 1,
            })
            break
        s = t
        checkpoints.append({"n": n, "s": s, "count": count,
                            "q_num": num, "q_den": den})
    bits = np.zeros(s, dtype=bool)
    for lo, hi in included:
        bits[lo:hi] = True
    guarantee = {"form": "target-approach"}  # |count·den − num·s|·(n+1) <= s·den
    return SubsetArtifact("infsup_build", bits, checkpoints, guarantee,
                          diagnostics)


def interleave_targets(low_seq, high_seq, pivot, n_pairs: int):
    """Merge a lower-target and an upper-target sequence into one target
    list, pinning both against a pivot rational (lower targets are capped
    at the pivot, upper targets floored at it) so the built set's density
    oscillates across the pivot.  Each input is a finite list whose last
    value holds from its index on."""
    lo, hi = _targets(low_seq), _targets(high_seq)
    p = Fraction(pivot)
    out = []
    for n in range(n_pairs):
        out.append(min(lo[min(n, len(lo) - 1)], p))
        out.append(max(hi[min(n, len(hi) - 1)], p))
    return out


def verify_infsup(artifact: SubsetArtifact) -> dict:
    """Re-check the target-approach bound and blockwise betweenness from
    the artifact's own bits; returns {'approach': ok, 'between': ok}."""
    return passed_groups(artifact, ("approach", "between"))


# -- exact-ratio finite extension ------------------------------------------

@dataclass
class RatioExtension:
    elements: frozenset
    b: int          # the extension is [a, b)
    c: int          # evaluation length with exact ratio
    ratio: Fraction


def extend_to_ratio(F, a: int, d: int, r) -> RatioExtension:
    """Extend the finite set F with a run [a, b) so that at some length
    c > d the prefix density is exactly r.

    Picks the smallest b with b > a, b > max(F), |F∪[a,b)| divisible by
    num(r), c = |F∪[a,b)|·den/num an integer > max(d, b−1).  G agrees with
    F below a and G ∩ [a, ∞) is the initial segment [a, b); all three
    follow from the arithmetic, and c exists because c − b grows by
    den − num > 0 along the candidate progression.
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"ratio must be in (0,1), got {r}")
    F = frozenset(int(x) for x in F)
    num, den = r.numerator, r.denominator
    b_start = a + 1
    if F:
        b_start = max(b_start, max(F) + 1)
    below_a = sum(1 for x in F if x < a)
    m0 = below_a - a  # |F ∪ [a,b)| = m0 + b for b >= b_start
    # candidate b's form an arithmetic progression mod num
    rem = (-m0) % num
    b = b_start + ((rem - b_start) % num)
    # need c = (m0+b)//num·den > d  and  c >= b
    lb1 = num * (d // den + 1) - m0              # from c > d
    if den > num:
        lb2 = ceil_div(-m0 * den, den - num)     # from c >= b
    else:
        lb2 = 0
    need = max(lb1, lb2)
    if b < need:
        b += ((need - b + num - 1) // num) * num
    size = m0 + b
    c = (size // num) * den
    if not (c > d and c >= b and size % num == 0):
        raise RatioUnrealizable(f"no valid extension for r={r}", requirement=r)
    elements = F | frozenset(range(a, b))
    return RatioExtension(elements, b, c, r)


# -- density transfer through a settling approximation ---------------------

class Delta2Approx(StageGuess):
    """A stage-indexed approximation B_s to a set over a declared window.

    at(s) returns the membership array of B_s over [0, window).  fn must be
    pure, and pointwise settling is a caller contract.
    """

    def __init__(self, fn, window: int, label="", next_change=None):
        super().__init__(fn, label, next_change)
        self.window = window

    def at(self, s: int) -> np.ndarray:
        arr = np.asarray(self._fn(s), dtype=bool)
        if arr.shape != (self.window,):
            raise ContractViolated(
                f"approximation window {arr.shape} != {(self.window,)}")
        return arr

    @staticmethod
    def constant(bits, label="const"):
        bits = np.asarray(bits, dtype=bool)
        return Delta2Approx(lambda s: bits, bits.size, label=label,
                            next_change=lambda s: NEVER)


def density_transfer_build(B: Delta2Approx, n_checkpoints: int,
                           stage_budget: int, n_max: int):
    """Build a stage enumeration A and a checkpoint map t so that, for
    every index n whose row settled, the prefix density of A at length
    t(n) equals the (clamped) prefix density of B at length n, exactly.

    Stage s+1 finds the least n with the identity currently broken and
    repairs it with extend_to_ratio (target = rho_n(B_s) clamped into
    (0,1): 0 becomes 1/(n+1), 1 becomes n/(n+1)); rows above n are
    re-based past the new evaluation length.  Because repairs only append
    beyond t(n−1), lower settled rows are never disturbed.  Once every
    row is read and none is broken, B is read next at its next change.
    Returns (stream, t, trace, report); the trace records each repair and
    each quiet stage, and its outcomes hold the report's two row maps.
    """
    if n_checkpoints >= B.window:
        raise ValueError("n_checkpoints must be below the approximation window")
    rows = np.arange(1, n_checkpoints + 1)
    t = np.concatenate(([0], rows + 1))  # t(0) = 0, t(n) = n + 1
    entry = np.full(n_max, NEVER, dtype=np.int64)
    live = np.zeros(0, dtype=np.int64)   # A's elements, ascending
    have = np.zeros(n_checkpoints, dtype=np.int64)  # |A ∩ [0, t(n))|
    # identities are cross-multiplied in int64: each product is below
    # (n_max + n)·(n + 1), and n_max and n < B.window both size arrays
    trace = ConstructionTrace("density_transfer")
    quiet, quiet_from = (lambda s: {"fired": None, "stage": s}), 1
    truncated = None
    s = 1
    while s <= stage_budget:
        k = min(s, n_checkpoints)
        num, den = _transfer_targets(np.cumsum(B.at(s - 1)[:k]), rows[:k])
        broken = have[:k] * den != num * t[1:k + 1]
        if not broken.any():
            # once every row is read, none breaks before B_{s−1} changes
            s = B.next_change(s - 1) + 1 if k == n_checkpoints else s + 1
            continue
        trace.run(quiet, np.arange(quiet_from, s))
        quiet_from = s + 1
        n = int(broken.argmax()) + 1
        target = Fraction(int(num[n - 1]), int(den[n - 1]))
        a, old_c = int(t[n - 1]), int(t[n])
        d = max(old_c, int(live[-1])) if live.size else old_c
        ext = extend_to_ratio(live.tolist(), a, d, target)
        if ext.c > n_max:
            truncated = {"error": "Truncated", "stage": s,
                         "detail": f"evaluation length {ext.c} beyond n_max"}
            break
        # the extension is A ∪ [a, b), and every element of A past a is below b
        new = entry[a:ext.b] == NEVER
        entry[a:ext.b][new] = s
        live = np.flatnonzero(entry != NEVER)
        t[n:] = ext.c + np.arange(n_checkpoints - n + 1)
        have = np.searchsorted(live, t[1:])
        trace.record(s, fired=n, a=a, b=ext.b, c=ext.c, prev_t=old_c,
                     target=[target.numerator, target.denominator],
                     new_elements=int(np.count_nonzero(new)))
        s += 1
    else:
        trace.run(quiet, np.arange(quiet_from, stage_budget + 1))
    stream = CEStream(entry, stage_max=stage_budget, label="transfer")
    report = _transfer_report(stream, B.at(max(stage_budget - 1, 0)), t)
    trace.outcomes = dict(report)
    if truncated:
        report["diagnostics"] = [truncated]
    return stream, dict(enumerate(t.tolist())), trace, report


def _transfer_targets(counts: np.ndarray, ns: np.ndarray):
    """The targets counts/ns as unreduced (num, den) int64 arrays, clamped
    into (0, 1): 0 becomes 1/(n+1) and n/n becomes n/(n+1)."""
    return np.maximum(counts, 1), ns + ((counts == 0) | (counts == ns))


def _transfer_report(stream: CEStream, final_b: np.ndarray, t: np.ndarray):
    """Per row n >= 1 with t(n) in the window: whether the identity holds
    on A's final members, and whether A ∩ [t(n−1), t(n)) is an initial
    segment of that interval.  Rows past the window map to None in the
    first map and are left out of the second."""
    members = stream.final_members()
    rows = np.arange(1, t.size)
    num, den = _transfer_targets(np.cumsum(final_b[:rows.size]), rows)
    lo, hi = t[:-1], t[1:]
    inside = (hi <= stream.n_max).tolist()
    have = prefix_counts(members)[np.minimum(hi, stream.n_max)]
    exact = (have * den == num * hi).tolist()
    # an initial segment has no element just past a gap strictly inside it
    rises = np.flatnonzero(members[1:] & ~members[:-1]) + 1
    initial = (np.searchsorted(rises, lo, "right")
               == np.searchsorted(rises, hi)).tolist()
    rows = rows.tolist()
    return {"settled_identity": {n: e if i else None
                                 for n, e, i in zip(rows, exact, inside)},
            "initial_segment": {n: g for n, g, i in zip(rows, initial, inside)
                                if i}}


# -- factorial-block enumeration with prescribed block densities -----------

FACTORIAL_BLOCK_CAP = 9


class StableMonotoneG(StageGuess):
    """A stage approximation g(n, s), nondecreasing and eventually constant
    in s for each n (the monotone half is checked on the fly)."""

    def __init__(self, fn, label="", next_change=None):
        super().__init__(fn, label, next_change)
        self._last = {}

    def eval(self, n: int, s: int) -> Fraction:
        v = Fraction(self._fn(n, s))
        prev = self._last.get(n)
        if prev is not None and prev[0] <= s and v < prev[1]:
            raise ContractViolated(
                f"g({n},{s}) = {v} dropped below g({n},{prev[0]}) = {prev[1]}")
        if prev is None or s >= prev[0]:
            self._last[n] = (s, v)
        return v


def _round_to_grid(v: Fraction, n: int) -> int:
    """Nearest multiple of 1/n as a numerator L in [0, n]; ties round down."""
    L = ceil_div(v.numerator * n * 2 - v.denominator, 2 * v.denominator)
    return min(max(L, 0), n)


def _empty_blocks(n_blocks: int):
    """The entry array over the factorial blocks 1..n_blocks, with nothing
    entered, and every block's level at 0.  Raises CapExceeded past
    FACTORIAL_BLOCK_CAP."""
    if n_blocks > FACTORIAL_BLOCK_CAP:
        raise CapExceeded(
            f"n_blocks={n_blocks} exceeds cap {FACTORIAL_BLOCK_CAP}")
    return (np.full(factorial(n_blocks + 1), NEVER, dtype=np.int64),
            {n: 0 for n in range(1, n_blocks + 1)})


def _raise_level(entry: np.ndarray, levels: dict, n: int, L: int, s: int):
    """Raise block n to level L at stage s if that is higher: elements
    levels[n] .. L − 1 of each of its runs of length n enter at stage s."""
    if L > levels[n]:
        entry[factorial(n):factorial(n + 1)].reshape(-1, n)[:, levels[n]:L] = s
        levels[n] = L


def blockwise_limit_build(g: StableMonotoneG, n_blocks: int, stage_max: int):
    """Enumerate a set over factorial blocks [n!, (n+1)!) so that the final
    density of each block equals g's settled value rounded to the 1/n grid.

    Block n is split into n! runs of length n; a run holds exactly L
    elements (its least ones) when the rounded level is L/n, so the block
    density equals L/n exactly, which in turn pins rho at (n+1)! within
    [−L/n, 1 − L/n]·1/(n+1) of L/n.  g is read at stage 0 and then at
    each of its change stages up to stage_max.  Returns (stream, levels)
    where levels[n] is the final grid numerator L.
    """
    entry, levels = _empty_blocks(n_blocks)
    s = 0
    while s <= stage_max:
        for n in levels:
            _raise_level(entry, levels, n, _round_to_grid(g.eval(n, s), n), s)
        s = g.next_change(s)
    return CEStream(entry, stage_max=stage_max, label="blockwise"), levels


def levels_guarantee(levels: dict) -> dict:
    """The blockwise-levels guarantee record of final grid numerators."""
    return {"form": "blockwise-levels",
            "levels": sorted([n, L] for n, L in levels.items())}


def verify_blockwise(stream: CEStream, levels: dict) -> dict:
    """Exact checks: block density == L/n, and the rho((n+1)!) sandwich
    −L/n·1/(n+1) <= rho − L/n <= (1 − L/n)·1/(n+1)."""
    art = SubsetArtifact("blockwise_levels", stream.final_members(),
                         guarantee=levels_guarantee(levels))
    return passed_groups(art, ("block_density", "sandwich"))


def limsup_density_build(q_seq, n_blocks: int, stage_max: int):
    """Blockwise build whose level for block n ratchets up to a stage value
    q_s whenever q_s clears the current level by at least 1/(n+1) (and
    s >= n); the raised level fills at stage s + 1.  The settled level h(n)
    then satisfies b(n) − 1/(n+1) <= h(n) <= b(n) for b(n) = max of q_s
    over the explored stages s >= n — a finite-stage surrogate for the
    running supremum.  ``q_seq`` is a finite list whose last value holds
    from its index on.  Returns (stream, levels, g_final) with g_final[n]
    the pre-rounding settled value.
    """
    entry, levels = _empty_blocks(n_blocks)
    q = _targets(q_seq)
    g_final = {n: Fraction(0) for n in levels}
    # from s = max(n_blocks, len − 1) on, q_s is the last value and s >= n
    # for every block, so no level moves after that stage
    for s in range(min(stage_max, max(n_blocks, len(q) - 1) + 1)):
        q_s = q[min(s, len(q) - 1)]
        for n in levels:
            if s >= n and q_s >= g_final[n] + Fraction(1, n + 1):
                g_final[n] = q_s
                _raise_level(entry, levels, n, _round_to_grid(q_s, n), s + 1)
    stream = CEStream(entry, stage_max=stage_max, label="blockwise")
    return stream, levels, g_final


# -- sparse hitting set -----------------------------------------------------

def sparse_hitting_build(roster, n_max: int, stage_max: int):
    """Enumerate at most one element per roster stream: the first element
    of stream e seen to exceed 2^e (by stage, then by value).  The result
    meets every stream that offers such an element and stays logarithmically
    sparse: |S ∩ [0, n)| <= floor(log2 n) + 1 for every n >= 1.
    """
    entry = np.full(n_max, NEVER, dtype=np.int64)
    report = []
    for e, stream in enumerate(roster):
        # first by stage, then by value: argmin returns the first least stage
        lo = 2 ** e + 1
        above = stream.entry[lo:]
        i = int(np.argmin(above)) if above.size else None
        if i is None or above[i] == NEVER:
            report.append({"e": e, "hit": None})
            continue
        x, s = lo + i, int(above[i])
        if x < n_max and s <= stage_max:
            if entry[x] == NEVER:
                entry[x] = s
            report.append({"e": e, "hit": x, "stage": s})
        else:
            report.append({"e": e, "hit": None,
                           "detail": "witness beyond window/stage budget"})
    stream = CEStream(entry, stage_max=stage_max, label="sparse-hitting")
    return stream, report
