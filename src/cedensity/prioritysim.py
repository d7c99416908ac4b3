"""Deterministic stage engine for injury-free requirement constructions.

Each construction runs against a finite roster of user-supplied machines
(stage-budgeted partial deciders and/or stage enumerations), works inside
per-requirement regions (the dyadic classes), and emits a full trace: every
enumeration, restraint, permission, and the final per-requirement outcome
classification — always qualified "on the window", never as a limit claim.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .core import CEStream, NEVER, StageGuess, prefix_counts, trailing_zeros
from .errors import ContractViolated, RatioUnrealizable, WindowExhausted
from .trace import ConstructionTrace, progressions


# -- roster machinery ------------------------------------------------------

class PartialDecider:
    """A stage-budgeted partial 0/1 function: eval(n, s) is 0, 1, or None
    (undefined at stage s).  Once defined the value may never change, and
    definedness may never be revoked; both are checked across the queries
    actually made.

    The vocabulary kinds below are declared by an array form alone:
    ``value`` maps an int64 array of n to their int8 values, and the
    decider is defined at (n, s) exactly when s >= delay + factor·n
    (nowhere when delay is None).  Such a decider keeps its contract by
    construction, so every question, ``eval`` too, is answered from the
    form with numpy.  A decider built from a bare callable has no such
    form: it is asked through ``eval``, with its contract checks, and
    polled at every stage."""

    def __init__(self, fn=None, label="", *, value=None, delay=0, factor=0):
        self._fn = fn
        self.label = label
        self._seen = {}  # n -> (first defined stage, value)
        self._value, self._delay, self._factor = value, delay, factor

    def eval(self, n: int, s: int):
        if self._value is not None:
            v = int(self.at([n], s)[0])
            return None if v < 0 else v
        v = self._fn(n, s)
        if v not in (0, 1, None):
            raise ContractViolated(f"decider returned {v!r}")
        prev = self._seen.get(n)
        if prev is not None and s >= prev[0] and v != prev[1]:
            raise ContractViolated(
                f"decider changed value at n={n}: {prev[1]} -> {v}")
        if v is not None and (prev is None or s < prev[0]):
            self._seen[n] = (s, v)
        return v

    def defined_from(self, top: int, s: int) -> int:
        """The least stage after s from which the decider is defined at
        every n <= top (NEVER if there is none); s + 1 for a decider with
        no array form, which is polled."""
        if self._value is None:
            return s + 1
        if self._delay is None:
            return NEVER
        return max(self._delay + self._factor * top, s + 1)

    def defined_on(self, xs, s: int) -> bool:
        if self._value is None:
            return all(self.eval(int(x), s) is not None for x in xs)
        return len(xs) == 0 or (self._delay is not None and s >= self._delay
                                + self._factor * int(max(xs)))

    def at(self, xs, s: int) -> np.ndarray:
        """eval(x, s) for each int x of xs, in order, as an int8 array with
        −1 where undefined."""
        xs = np.asarray(xs, dtype=np.int64)
        if self._value is None:
            vals = [self.eval(x, s) for x in xs.tolist()]
            return np.array([-1 if v is None else v for v in vals],
                            dtype=np.int8).reshape(xs.shape)
        out = self._value(xs).astype(np.int8)
        if self._delay is None or s < self._delay:
            out[:] = -1
        elif self._factor:
            out[xs > (s - self._delay) // self._factor] = -1
        return out

    # fixed vocabulary of rule kinds (no arbitrary code from configs)
    @staticmethod
    def constant(value: int, delay: int = 0, label=None):
        return PartialDecider(label=label or f"const{value}@+{delay}",
                              value=lambda n: np.full(n.shape, value),
                              delay=delay)

    @staticmethod
    def parity(delay: int = 0, label=None):
        return PartialDecider(label=label or "parity",
                              value=lambda n: n % 2 == 0, delay=delay)

    @staticmethod
    def residue(m: int, residues, delay: int = 0, label=None):
        rs = frozenset(residues)

        def value(n):
            # a modulus past every n leaves each n its own residue
            mask = np.zeros(int(min(m, n.max(initial=0) + 1)), dtype=bool)
            mask[[r for r in rs if 0 <= r < mask.size]] = True
            return mask[n % m if mask.size == m else n]

        return PartialDecider(label=label or f"residue{sorted(rs)}mod{m}",
                              value=value, delay=delay)

    @staticmethod
    def never(label="never"):
        return PartialDecider(label=label, value=lambda n: np.zeros(n.shape),
                              delay=None)

    @staticmethod
    def linear_delay(value: int, factor: int, label="value-delay"):
        """The value at every n, defined once s >= factor·n."""
        return PartialDecider(label=label,
                              value=lambda n: np.full(n.shape, value),
                              factor=factor)


class JumpApprox(StageGuess):
    """Stage guesses at membership of indices in a jump-style set: guess(i,s)
    in {0,1}; use(i, s) must be a natural whenever guess(i, s) = 1.

    The vocabulary kinds below declare ``next_change`` and keep one use
    wherever the guess is 1.  A jump built from bare callables declares
    nothing and is polled at every stage."""

    def __init__(self, guess_fn, use_fn, label="", next_change=None):
        super().__init__(guess_fn, label, next_change)
        self.use = use_fn

    def guess(self, i: int, s: int) -> int:
        return int(self._fn(i, s))

    def on_from(self, i: int, t: int) -> int:
        """The least stage >= t at which guess(i, ·) can be 1 (NEVER if
        none): t for a polled jump or a guess of 1, else the next change."""
        if self.polled or self.guess(i, t) == 1:
            return t
        return self.next_change(t)

    @staticmethod
    def never(label="never"):
        return JumpApprox(lambda i, s: 0, lambda i, s: None, label,
                          next_change=lambda s: NEVER)

    @staticmethod
    def step(on_at: int, use: int, label="step"):
        """Guess 1 with the given use from stage on_at on."""
        return JumpApprox(lambda i, s: 1 if s >= on_at else 0,
                          lambda i, s: use if s >= on_at else None, label,
                          next_change=lambda s: on_at if s < on_at else NEVER)

    @staticmethod
    def blink(period: int, use: int, label="blink"):
        """Guess 1 in every other block of ``period`` stages, the first
        block 0; the use is fixed."""
        return JumpApprox(
            lambda i, s: (s // period) % 2, lambda i, s: use, label,
            next_change=lambda s: (s // period + 1) * period)


def region_elements(k: int, lo: int, count: int) -> list[int]:
    """The ``count`` consecutive elements of dyadic class k starting at the
    class's lo-th element: 2^k · (2j + 1) for j = lo .. lo+count−1."""
    return [(1 << k) * (2 * j + 1) for j in range(lo, lo + count)]


def region_of(x: int) -> int:
    return trailing_zeros(x)


# -- blockwise union --------------------------------------------------------

def interval_for_index(n: int) -> tuple[int, int]:
    """The factorial interval assigned to roster index n: [(n+1)!, (n+2)!).
    Index 0 owns [1, 2), so every positive natural is owned by exactly one
    index."""
    f = factorial(n + 1)
    return f, f * (n + 2)


def blockwise_union_build(streams, n_max: int, stage_max: int) -> CEStream:
    """A = union over roster indices n of (stream_n ∩ its factorial
    interval); elements keep their enumeration stages."""
    entry = np.full(n_max, NEVER, dtype=np.int64)
    for n, st in enumerate(streams):
        lo, hi = interval_for_index(n)
        if lo >= n_max:
            break
        hi = min(hi, n_max, st.n_max)
        seg = st.entry[lo:hi]
        ok = seg != NEVER
        entry[lo:hi][ok] = np.minimum(entry[lo:hi][ok], seg[ok])
    live = entry != NEVER
    entry[live & (entry > stage_max)] = NEVER
    return CEStream(entry, stage_max=stage_max, label="blockwise-union")


# -- prefix-gated diagonal --------------------------------------------------

def prefix_gated_build(streams, n_max: int, stage_max: int):
    """Per index e, an element x of dyadic class e enters A exactly when
    every class-e element y <= x is in stream e (evaluated at the final
    stage; x's entry stage is the stage at which the last such y arrived).

    The report classifies each e on the window: 'covered' (the class is
    contained in stream e, so the whole class entered A) or a concrete
    witness x in the class missing from stream e (past which A gets no
    class-e element).
    """
    entry = np.full(n_max, NEVER, dtype=np.int64)
    report = {}
    for e, st in enumerate(streams):
        top = min(n_max, st.n_max)
        # the class elements below the window; none once 2^e reaches it
        xs = (np.arange(1 << e, top, 2 << e) if (1 << e) < top
              else np.zeros(0, dtype=np.int64))
        stages = st.entry[xs]
        missing = np.flatnonzero((stages == NEVER) | (stages > stage_max))
        cut = int(missing[0]) if missing.size else xs.size
        # each entry waits for the last class element at or below it
        entry[xs[:cut]] = np.maximum.accumulate(stages[:cut])
        report[e] = ({"case": "covered"} if cut == xs.size
                     else {"case": "witness", "witness": int(xs[cut])})
    return CEStream(entry, stage_max=stage_max, label="prefix-gated"), report


# -- the stage driver --------------------------------------------------------

class _StageDriver:
    """The stage loop of the trace-writing constructions.

    ``run`` calls the builder's ``step(s, y)`` at stage 0 and then at each
    stage that the previous call returned, the next event: the least later
    stage at which the builder may act.  y is the least element entering
    the permitting stream at s (None if none does or there is none).  The
    step's record of an event stage, ``rec``, goes to the trace when it
    holds something.  Each stretch of quiet stages between two events goes
    to the trace as run lines, never stage by stage: the own-stage run and
    what the builder's ``quiet(lo, hi)`` writes for the stages lo..hi-1.
    The driver holds each output stream's entry stages, every appointed
    interval and each dyadic class's next interval.  Given an ``own`` tag,
    every 1 <= s < n_max enters output 0 at stage s, unless it lies in an
    appointed interval: restrained, it enters only when released.  Each
    interval lies above the stage that appoints it, so the own-stage run
    of lo..hi-1 skips the appointed intervals' elements in [lo, hi).
    """

    def __init__(self, construction: str, n_max: int, stage_max: int,
                 outputs: int = 1):
        self.trace = ConstructionTrace(construction)
        self.n_max, self.stage_max = n_max, stage_max
        self.entry = np.full((outputs, n_max), NEVER, dtype=np.int64)
        self.restrained = np.zeros(n_max, dtype=bool)
        self.appointed = []  # (min, max, step) of the intervals past the runs
        self.j_next = {}  # class k -> index past its last interval
        self.no_room = {}  # class k -> (j_next, thresholds) that found none
        self.rec = {}

    def note(self, key: str, value):
        self.rec.setdefault(key, []).append(value)

    def enter(self, xs, s: int, tag=None, out: int = 0):
        """Enter the ascending ints xs, none of them in output ``out`` yet,
        at stage s; given a tag, the record's "enumerated" list gets an
        entry {"xs": [first, last, step], **tag} per progression of xs."""
        xs = np.asarray(xs, dtype=np.int64)
        self.entry[out, xs] = s
        if tag is not None:
            self.rec.setdefault("enumerated", []).extend(
                {"xs": p, **tag} for p in progressions(xs))

    def appoint(self, k: int, min_elem_above: int, max_above: int):
        """The next interval of class k (``_large_interval``), restrained,
        or None if it would leave the window.  None is monotone in both
        thresholds, so it is remembered per class and j_next and answered
        again without a search for thresholds at least as large."""
        j = self.j_next.get(k, 0)
        miss = self.no_room.get(k)
        if (miss is not None and miss[0] == j and min_elem_above >= miss[1]
                and max_above >= miss[2]):
            return None
        found = _large_interval(k, j, min_elem_above, max_above, self.n_max)
        if found is None:
            self.no_room[k] = (j, min_elem_above, max_above)
            return None
        elems, self.j_next[k] = found
        self.restrained[elems] = True
        self.appointed.append((elems[0], elems[-1], 2 << k))
        return elems

    def own_run(self, lo: int, hi: int, own: dict):
        """The own-stage run of the stages lo..hi-1 (none if all are
        skipped), the appointed intervals cut to [lo, hi) its skip list."""
        self.appointed = [iv for iv in self.appointed if iv[1] >= lo]
        skip, count = [], hi - lo
        for first, last, step in self.appointed:
            first += max(0, -((first - lo) // step)) * step  # first >= lo
            last = min(last, hi - 1)
            if first <= last:
                last -= (last - first) % step
                skip.append([first, last, step])
                count -= (last - first) // step + 1
        if count > 0:
            self.trace.quiet(lo, hi, "own-stage", tag=own, skip=sorted(skip))

    def next_entrant(self, s: int, most: int) -> int:
        """The least stage t > s whose least permitting entrant is <= most,
        NEVER if none is (as for most = -1): the stage of the first entrant
        past s, in stage order, that is <= most.  The answer holds for
        every s before it, so it is kept per ``most``."""
        t = self._next.get(most)
        if t is None or t <= s:
            order, stages, _, _ = self.permitter.stage_index
            i, width, t = int(np.searchsorted(stages, s, "right")), 64, NEVER
            while i < order.size:  # windows grow, so a far hit costs a few
                hit = np.flatnonzero(order[i:i + width] <= most)
                if hit.size:
                    t = int(stages[i + hit[0]])
                    break
                i, width = i + width, 4 * width
            self._next[most] = t
        return t

    def run(self, step, own=None, permitter: CEStream | None = None,
            quiet=None):
        self.permitter, self._next = permitter, {}
        restrained, s = self.restrained, 0
        while s <= self.stage_max:
            if own is not None and 1 <= s < self.n_max and not restrained[s]:
                self.rec["enumerated"] = [{"x": s, **own}]
            y = None
            if permitter is not None:
                entered = permitter.entering_at(s)
                y = int(entered[0]) if entered.size else None
            nxt = min(step(s, y), self.stage_max + 1)
            if self.rec:
                self.trace.record(s, **self.rec)
                self.rec = {}
            if nxt > s + 1 and own is not None:
                self.own_run(s + 1, min(nxt, self.n_max), own)
            if nxt > s + 1 and quiet is not None:
                quiet(s + 1, nxt)
            s = nxt
        if own is not None:  # each unrestrained x the stages reach, at x
            xs = np.flatnonzero(~restrained[1:self.stage_max + 1]) + 1
            self.entry[0, xs] = xs

    def streams(self, *labels) -> list:
        return [CEStream(row, stage_max=self.stage_max, label=label)
                for row, label in zip(self.entry, labels)]


# -- exact-ratio interval strategy ------------------------------------------

def _ratio_interval(a: int, e: int) -> tuple[int, int]:
    """Smallest (b, c) with c a multiple of 2^(e+1), b/c = 1 − 2^-(e+1)
    exactly, and (b−a+1)/(c−a+1) >= 1 − 2^-e; closed interval [a, c]."""
    # with c = k·2^(e+1), b = k·(2^(e+1) − 1), the inner-density constraint
    # reduces to k·2^e >= a − 1
    k = max(1, -((1 - a) // (1 << e)))
    b = k * ((1 << (e + 1)) - 1)
    c = k * (1 << (e + 1))
    return b, c


def ratio_interval_build(deciders, n_max: int, stage_max: int):
    """Interval strategy making each decider's 1-set misalign with A's
    density at an exact ratio.

    Requirements take turns (round-robin by stage) appointing the next
    interval [a, c] at the global frontier, with an inner segment [a, b]
    enumerated immediately and the gap (b, c] withheld until the decider is
    defined on the whole interval.  If the decider answers 1 somewhere in
    the gap, the requirement finalizes: the least such x is withheld from A
    forever (recorded witness) and the rest of the interval enters A.
    Otherwise the whole interval enters A.  For every interval on which the
    decider's 1-set avoids the gap, the exact identity
    rho_b(S) − rho_c(S) = rho_b(S)·2^-(e+1) holds (prefix counts taken
    inclusively: rho_m(S) here means |S ∩ [0, m]| / m, the convention the
    ratio b/c is built for).  Each interval's outcome records the counts
    r_b = |S ∩ [0, b]| and r_c = |S ∩ [0, c]| its flags are computed from.
    """
    E = len(deciders)
    drive = _StageDriver("ratio_interval", n_max, stage_max)
    intervals = []  # dicts: e, a, b, c, state, witness, stage fields
    last = [None] * E  # each requirement's latest interval
    frontier = 0  # None once no interval fits below n_max

    def step(s, _y):
        nonlocal frontier
        e = s % E
        drive.rec["acted"] = e
        iv = last[e]
        if iv is not None and iv["state"] == "waiting":
            if deciders[e].defined_on(range(iv["a"], iv["c"] + 1), s):
                gap = np.arange(iv["b"] + 1, iv["c"] + 1)
                ones = gap[deciders[e].at(gap, s) == 1]
                iv["state"] = "finalized" if ones.size else "completed"
                iv["witness"] = int(ones[0]) if ones.size else None
                drive.enter(gap[gap != ones[0]] if ones.size else gap, s,
                            {"e": e})
                iv["resolved_stage"] = s
                drive.rec["resolved"] = {key: iv[key] for key in
                                         ("e", "a", "c", "state", "witness")}
        elif frontier is not None and (iv is None
                                       or iv["state"] != "finalized"):
            a = frontier
            b, c = _ratio_interval(a, e)
            if c >= n_max:
                if iv is None:
                    raise RatioUnrealizable(
                        f"no interval with the exact ratio fits below "
                        f"n_max={n_max} for requirement {e}", requirement=e)
                frontier = None
                drive.rec["exhausted"] = True
            else:
                last[e] = iv = {"e": e, "a": a, "b": b, "c": c,
                                "state": "waiting", "witness": None,
                                "appointed_stage": s}
                intervals.append(iv)
                frontier = c + 1
                drive.enter(np.arange(a, b + 1), s, {"e": e})
                drive.rec["appointed"] = {"e": e, "a": a, "b": b, "c": c}
        # requirement e acts at the stages t ≡ e (mod E): a waiting one
        # once its decider can be defined on the interval, any other
        # unfinalized one while the frontier lasts
        nxt = NEVER
        for e, iv in enumerate(last):
            if iv is not None and iv["state"] == "waiting":
                t = deciders[e].defined_from(iv["c"], s)
            elif frontier is not None and (iv is None
                                           or iv["state"] != "finalized"):
                t = s + 1
            else:
                continue
            nxt = min(nxt, t + (e - t) % E)
        return nxt

    if deciders:  # no requirement acts at any stage otherwise
        drive.run(step, quiet=lambda lo, hi: drive.trace.quiet(
            lo, hi, "acted", period=E))
    (stream,) = drive.streams("ratio-interval")
    drive.trace.outcomes = _ratio_outcomes(deciders, intervals, stream,
                                           stage_max)
    return stream, intervals, drive.trace


def _ratio_outcomes(deciders, intervals, stream, stage_max):
    counts = prefix_counts(stream.final_members())
    ones = [prefix_counts(d.at(np.arange(stream.n_max), stage_max) == 1)
            for d in deciders]  # |S ∩ [0, m)| at m, per decider's 1-set S
    per_e = [[] for _ in deciders]
    for iv in intervals:
        e, a, b, c = iv["e"], iv["a"], iv["b"], iv["c"]
        r_b, r_c = int(ones[e][b + 1]), int(ones[e][c + 1])
        identity = None
        if r_c == r_b and b >= 1:  # the 1-set avoids the gap
            identity = (Fraction(r_b, b) - Fraction(r_c, c)
                        == Fraction(r_b, b) * Fraction(1, 1 << (e + 1)))
        per_e[e].append({
            "a": a, "b": b, "c": c, "state": iv["state"],
            "witness": iv["witness"], "r_b": r_b, "r_c": r_c,
            "gap_avoided": r_c == r_b, "identity_exact": identity,
            "block_count": int(counts[c + 1] - counts[a]),
            "block_size": c - a + 1,
        })
    return {e: {"intervals": ivs,
                "finalized": any(iv["state"] == "finalized" for iv in ivs)}
            for e, ivs in enumerate(per_e)}


# -- restrained large-interval strategy --------------------------------------

def _large_interval(k: int, j0: int, min_elem_above: int, max_above: int,
                    n_max: int):
    """A segment of dyadic class k that is density-significant in its own
    prefix: starting index is pushed past j0 and past ``min_elem_above``
    (so the segment is untouched by prior enumeration), and the count t
    starts at j0 + 2 — enough for both (t−1)/max > 2^-(k+2) and for the
    segment to hold at least half the class elements below its max — then
    grows until the max exceeds ``max_above``.  Returns the element list
    and the class index just past it, or None if the segment would leave
    the window."""
    # 2^k·(2j + 1) > m exactly when j >= ceil(⌊m/2^k⌋ / 2)
    if (1 << k) * (2 * j0 + 1) <= min_elem_above:
        j0 = ((min_elem_above >> k) + 1) >> 1
    t = j0 + 2
    top = (1 << k) * (2 * (j0 + t - 1) + 1)
    if top <= max_above:
        t = (((max_above >> k) + 1) >> 1) - j0 + 1
        top = (1 << k) * (2 * (j0 + t - 1) + 1)
    if top >= n_max:
        return None
    return region_elements(k, j0, t), j0 + t


def restraint_witness_build(streams, n_max: int, stage_max: int):
    """Restrain a density-significant interval per requirement until its
    stream outgrows it.

    Requirement k restrains an interval I ⊆ (dyadic class k) whose
    in-prefix density at m = max I exceeds 2^-(k+2), with m above the
    stream's current maximum.  Everything unrestrained enters A at its own
    stage; when stream k enumerates something above m, I is dumped into A
    and a fresh interval appointed above the new maximum.  If stream k is
    quiet on the window, the final interval pins rho_m(A) <= 1 − rho_m(I)
    < 1 − 2^-(k+2) exactly.
    """
    E = len(streams)
    drive = _StageDriver("restraint_witness", n_max, stage_max)
    current = {}  # k -> its restrained interval, ascending
    dormant = set()

    def step(s, _y):
        for k in range(min(E, s + 1)):
            if k in dormant:
                continue
            wmax = streams[k].max_member_at(s)
            iv = current.get(k)
            if iv is not None and wmax > iv[-1]:
                # stream outgrew the interval: dump and re-appoint
                drive.enter(iv, s, {"via": "dump", "k": k})
                drive.note("dumped", {"k": k, "max": iv[-1]})
                current[k] = iv = None
            if iv is None:
                iv = drive.appoint(k, s, max(wmax, s))
                if iv is None:
                    if k not in current:
                        raise WindowExhausted(
                            f"no interval for requirement {k} fits below "
                            f"n_max={n_max}", requirement=k)
                    dormant.add(k)
                    drive.note("dormant", k)
                    continue
                current[k] = iv
                drive.note("appointed", {"k": k, "min": iv[0], "max": iv[-1],
                                         "size": len(iv)})
        # the next requirement starts at its own index; a live one acts
        # when its stream's maximum first passes its interval's
        nxt = s + 1 if s + 1 < E else NEVER
        for k, iv in current.items():
            if k not in dormant:
                nxt = min(nxt, streams[k].first_stage_above(iv[-1]))
        return nxt

    # positive side: every positive number joins at its own stage unless
    # it lies in an interval some requirement appointed
    drive.run(step, own={"via": "own-stage"})
    (stream,) = drive.streams("restraint-witness")
    counts = prefix_counts(stream.final_members())
    out = drive.trace.outcomes
    for k in range(E):
        iv = current.get(k)
        if iv is None:
            out[k] = {"final_interval": None}
            continue
        m = iv[-1]
        rho_a = Fraction(int(counts[m]), m)
        bound = 1 - Fraction(1, 1 << (k + 2))
        out[k] = {"final_interval": [iv[0], m],
                  "rho_m_num": rho_a.numerator,
                  "rho_m_den": rho_a.denominator,
                  "strictly_below_bound": bool(rho_a < bound)}
    return stream, drive.trace


# -- permitted large-interval strategy ---------------------------------------

def pair_code(e: int, i: int) -> int:
    return (e + i) * (e + i + 1) // 2 + i


def permitted_interval_build(C: CEStream, jump: JumpApprox, streams,
                             n_max: int, stage_max: int, pairs=None):
    """Permitting construction: each (e, i) strategy works in the dyadic
    class of its pair code, appoints a half-dense interval above the
    claimed use once the jump guess for i goes positive, flags g(e,i,s) = 1
    while stream e covers the interval, and on a permitting change in C
    below the use dumps the interval (the permission y <= x is recorded
    with every dumped element).  Everything unrestrained enters at its own
    stage (permission x = s).  Outcomes classify each pair on the window:
    'no-interval', 'permanent-uncovered', 'permanent-covered', or
    'cancelled' (appointed intervals all dumped).

    Returns the stream, each pair's g as its change points and the trace.
    g is 0 or 1; a pair's change points are the ascending stages at which
    its g changes value, so g(e, i, s) is 0 before the first and is the
    parity of the number of them at most s.  Quiet stages record nothing.
    """
    if pairs is None:
        pairs = [(e, i) for e in range(len(streams))
                 for i in range(len(streams))]
    drive = _StageDriver("permitted_interval", n_max, stage_max)
    state = {p: {"iv": None, "g": 0, "cancels": 0, "appointed": 0,
                 "use": None, "stuck": False} for p in pairs}
    g_changes = {p: [] for p in pairs}
    codes = {p: pair_code(*p) for p in pairs}

    def step(s, y):
        for p in pairs:
            e, i = p
            k = codes[p]
            st = state[p]
            if k > s:
                continue
            g, iv = st["g"], st["iv"]
            if iv is not None:
                if y is not None and y <= st["use"]:
                    drive.enter(iv, s, {"permission": {"kind": "change",
                                                        "y": y},
                                        "pair": list(p)})
                    st["iv"] = None
                    st["g"] = 0
                    st["cancels"] += 1
                    drive.note("cancelled", {"pair": list(p), "y": y})
                    iv = None
                elif st["g"] == 0 and s >= st["cover"]:
                    st["g"] = 1
                    drive.note("covered", list(p))
            if iv is None and jump.guess(i, s) == 1:
                u = jump.use(i, s)
                if u is None:
                    raise ContractViolated(
                        f"use undefined while guess positive for i={i}, s={s}")
                elems = drive.appoint(k, max(int(u), s), max(int(u), s))
                # a declared jump keeps its use, so the thresholds only grow
                # and a class with no room now has none later
                st["stuck"] = elems is None and not jump.polled
                if elems is not None:
                    # stream e covers the interval from the last entry stage
                    # of its elements inside the stream's window: never if
                    # one is NEVER, at once if none is inside
                    inside = [x for x in elems if x < streams[e].n_max]
                    st["cover"] = int(streams[e].entry[inside].max(
                        initial=0))
                    st["iv"] = elems
                    st["use"] = int(u)
                    st["appointed"] += 1
                    drive.note("appointed", {"pair": list(p), "min": elems[0],
                                             "max": elems[-1], "use": int(u)})
            if st["g"] != g:
                g_changes[p].append(s)
        # a pair acts on a C-entrant at most its use, at its cover stage,
        # or, with no interval, once the jump guess can be positive
        nxt, uses = NEVER, [-1]
        for p in pairs:
            st = state[p]
            if st["iv"] is not None:
                uses.append(st["use"])
                if st["g"] == 0:
                    nxt = min(nxt, max(st["cover"], s + 1))
            elif not st["stuck"]:
                nxt = min(nxt, jump.on_from(p[1], max(codes[p], s + 1)))
        return min(nxt, drive.next_entrant(s, max(uses)))

    drive.run(step, own={"permission": {"kind": "own-stage"}}, permitter=C)
    (stream,) = drive.streams("permitted-interval")
    out = drive.trace.outcomes
    for p in pairs:
        st = state[p]
        if st["appointed"] == 0:
            case = "no-interval"
        elif st["iv"] is not None:
            case = "permanent-covered" if st["g"] == 1 else "permanent-uncovered"
        else:
            case = "cancelled"
        out[str(p)] = {"case": case, "cancels": st["cancels"],
                       "appointed": st["appointed"]}
    return stream, g_changes, drive.trace


# -- realized-interval splitting ----------------------------------------------

def split_interval_build(B: CEStream, deciders, n_max: int, stage_max: int):
    """Permitting construction producing a disjoint pair (A0, A1).

    Per index e (in the dyadic class e): appoint a half-dense interval;
    once the decider is defined on all of it ('realized'), appoint the
    next.  When a number <= min of some realized pending interval enters B,
    split that interval against the decider's 1-set — the 1-elements into
    A0, the rest into A1 — and flush all older pending intervals wholly
    into A1.  Every split interval is then exactly contained in the
    symmetric difference of the decider's 1-set and A1.
    """
    E = len(deciders)
    drive = _StageDriver("split_interval", n_max, stage_max, outputs=2)
    pending = [[] for _ in range(E)]  # dicts: elems, min, realized
    split_records = []

    def step(s, y):
        for e in range(min(E, s + 1)):
            d = deciders[e]
            for iv in pending[e]:
                if not iv["realized"] and d.defined_on(iv["elems"], s):
                    iv["realized"] = True
                    drive.note("realized", {"e": e, "min": iv["min"]})
            trig = None
            if y is not None:
                for j, iv in enumerate(pending[e]):
                    if iv["realized"] and y <= iv["min"]:
                        trig = j  # oldest realized permitted interval
                        break
            if trig is not None:
                iv = pending[e][trig]
                elems = np.array(iv["elems"])
                vals = d.at(elems, s)
                ones = elems[vals == 1].tolist()
                zeros = elems[vals != 1].tolist()
                flushed = pending[e][:trig]
                drive.enter(ones, s, out=0)
                drive.enter(zeros + [x for old in flushed
                                     for x in old["elems"]], s, out=1)
                head = {"e": e, "min": iv["min"], "y": y}
                split_records.append(dict(head, elems=list(iv["elems"]),
                                          to_a0=ones, stage=s))
                drive.note("split", dict(head, a0=len(ones), a1=len(zeros),
                                         flushed=len(flushed)))
                pending[e] = pending[e][trig + 1:]
            # keep at most one unrealized interval outstanding
            if not pending[e] or pending[e][-1]["realized"]:
                elems = drive.appoint(e, 0, s)
                if elems is not None:
                    pending[e].append({"elems": elems, "min": elems[0],
                                       "realized": False})
                    drive.note("appointed", {"e": e, "min": elems[0],
                                             "max": elems[-1]})
        # the next requirement starts at its own index; a live one acts
        # once its decider can be defined on its unrealized interval, or
        # on a B-entrant at most the min of a realized one.  One with no
        # unrealized interval found no room, and the thresholds (0, s) of
        # a retry only grow.
        nxt, mins = (s + 1 if s + 1 < E else NEVER), [-1]
        for e in range(min(E, s + 1)):
            for iv in pending[e]:
                if iv["realized"]:
                    mins.append(iv["min"])
                else:
                    nxt = min(nxt, deciders[e].defined_from(
                        iv["elems"][-1], s))
        return min(nxt, drive.next_entrant(s, max(mins)))

    drive.run(step, permitter=B)
    A0, A1 = drive.streams("split-A0", "split-A1")
    drive.trace.outcomes = {"splits": split_records}
    return A0, A1, drive.trace


# -- trace audits -------------------------------------------------------------

def audit_permissions(trace: ConstructionTrace) -> bool:
    """Every enumeration carries a permission: either the element's own
    stage, or a recorded y <= x entering the permitting stream then."""
    for stage, en in trace.enumerations():
        perm = en.get("permission") or {}
        if not (perm.get("kind") == "own-stage" and en["x"] == stage
                or perm.get("kind") == "change" and perm["y"] <= en["x"]):
            return False
    return True


def audit_regions(trace: ConstructionTrace, region_for) -> bool:
    """Every enumeration attributed to a requirement lies in that
    requirement's own dyadic class (region_for maps the trace's requirement
    tag to a class index)."""
    for _stage, en in trace.enumerations():
        tag = en.get("pair", en.get("e", en.get("k")))
        if tag is None:
            continue
        if region_of(en["x"]) != region_for(tag):
            return False
    return True
