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

from .core import (CEStream, NEVER, prefix_counts, trailing_zeros,
                   write_jsonl)
from .errors import ContractViolated, RatioUnrealizable, WindowExhausted


# -- roster machinery ------------------------------------------------------

class PartialDecider:
    """A stage-budgeted partial 0/1 function: eval(n, s) is 0, 1, or None
    (undefined at stage s).  Once defined the value may never change, and
    definedness may never be revoked; both are checked across the queries
    actually made."""

    def __init__(self, fn, label=""):
        self._fn = fn
        self.label = label
        self._seen = {}  # n -> (first defined stage, value)

    def eval(self, n: int, s: int):
        v = self._fn(n, s)
        if v not in (0, 1, None):
            raise ContractViolated(f"decider returned {v!r}")
        prev = self._seen.get(n)
        if prev is not None:
            ds, dv = prev
            if s >= ds and v != dv:
                raise ContractViolated(
                    f"decider changed value at n={n}: {dv} -> {v}")
        if v is not None and (prev is None or s < prev[0]):
            self._seen[n] = (s, v)
        return v

    def defined_on(self, xs, s: int) -> bool:
        return all(self.eval(int(x), s) is not None for x in xs)

    # fixed vocabulary of rule kinds (no arbitrary code from configs)
    @staticmethod
    def constant(value: int, delay: int = 0, label=None):
        return PartialDecider(lambda n, s: value if s >= delay else None,
                              label=label or f"const{value}@+{delay}")

    @staticmethod
    def parity(delay: int = 0, label=None):
        return PartialDecider(
            lambda n, s: (1 if n % 2 == 0 else 0) if s >= delay else None,
            label=label or "parity")

    @staticmethod
    def residue(m: int, residues, delay: int = 0, label=None):
        rs = frozenset(residues)
        return PartialDecider(
            lambda n, s: (1 if n % m in rs else 0) if s >= delay else None,
            label=label or f"residue{sorted(rs)}mod{m}")

    @staticmethod
    def never(label="never"):
        return PartialDecider(lambda n, s: None, label=label)

    @staticmethod
    def delayed_rule(value_fn, delay_fn, label="delayed-rule"):
        """Defined at (n, s) once s >= delay_fn(n); value value_fn(n)."""
        return PartialDecider(
            lambda n, s: value_fn(n) if s >= delay_fn(n) else None,
            label=label)


class JumpApprox:
    """Stage guesses at membership of indices in a jump-style set: guess(i,s)
    in {0,1}; use(i, s) must be a natural whenever guess(i, s) = 1."""

    def __init__(self, guess_fn, use_fn, label=""):
        self._guess = guess_fn
        self._use = use_fn
        self.label = label

    def guess(self, i: int, s: int) -> int:
        return int(self._guess(i, s))

    def use(self, i: int, s: int):
        return self._use(i, s)


class ConstructionTrace:
    """Per-stage records plus final outcome classifications."""

    def __init__(self, construction: str):
        self.construction = construction
        self.stages = []
        self.outcomes = {}

    def record(self, stage: int, **fields):
        self.stages.append({"stage": stage, **fields})

    def enumerations(self):
        for rec in self.stages:
            for en in rec.get("enumerated", []):
                yield rec["stage"], en

    def write_jsonl(self, path):
        write_jsonl(path, [*self.stages, {"outcomes": self.outcomes,
                                          "construction": self.construction}])


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
        elems = [x for x in region_elements(e, 0, n_max)
                 if x < min(n_max, st.n_max)]
        gate = 0  # max entry stage among the prefix of the class
        witness = None
        for x in elems:
            es = int(st.entry[x])
            if es == NEVER or es > stage_max:
                witness = x
                break
            gate = max(gate, es)
            entry[x] = gate
        report[e] = ({"case": "covered"} if witness is None
                     else {"case": "witness", "witness": witness})
    return CEStream(entry, stage_max=stage_max, label="prefix-gated"), report


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
    ratio b/c is built for).
    """
    E = len(deciders)
    trace = ConstructionTrace("ratio_interval")
    intervals = []  # dicts: e, a, b, c, state, witness, stage fields
    waiting = {e: None for e in range(E)}
    retired = set()
    frontier = 0
    entry = {}
    exhausted = False
    for s in range(stage_max + 1):
        if E == 0:
            break
        e = s % E
        rec = {"acted": e}
        iv = waiting[e]
        if iv is not None:
            gap = range(iv["b"] + 1, iv["c"] + 1)
            if deciders[e].defined_on(range(iv["a"], iv["c"] + 1), s):
                ones = [x for x in gap if deciders[e].eval(x, s) == 1]
                if ones:
                    iv["state"] = "finalized"
                    iv["witness"] = ones[0]
                    new = [x for x in gap if x != ones[0]]
                    retired.add(e)
                else:
                    iv["state"] = "completed"
                    new = list(gap)
                for x in new:
                    entry.setdefault(x, s)
                iv["resolved_stage"] = s
                waiting[e] = None
                rec["resolved"] = {"e": e, "a": iv["a"], "c": iv["c"],
                                   "state": iv["state"],
                                   "witness": iv.get("witness")}
                rec["enumerated"] = [{"x": x, "e": e} for x in new]
        elif e not in retired and not exhausted:
            a = frontier
            b, c = _ratio_interval(a, e)
            if c >= n_max:
                if not any(v["e"] == e for v in intervals):
                    raise RatioUnrealizable(
                        f"no interval with the exact ratio fits below "
                        f"n_max={n_max} for requirement {e}", requirement=e)
                exhausted = True
                rec["exhausted"] = True
            else:
                iv = {"e": e, "a": a, "b": b, "c": c, "state": "waiting",
                      "witness": None, "appointed_stage": s}
                intervals.append(iv)
                waiting[e] = iv
                frontier = c + 1
                inner = list(range(a, b + 1))
                for x in inner:
                    entry.setdefault(x, s)
                rec["appointed"] = {"e": e, "a": a, "b": b, "c": c}
                rec["enumerated"] = [{"x": x, "e": e} for x in inner]
        trace.record(s, **rec)
    stream = CEStream.from_schedule(entry.items(), n_max=n_max,
                                    stage_max=stage_max, label="ratio-interval")
    trace.outcomes = _ratio_outcomes(deciders, intervals, stream, stage_max)
    return stream, intervals, trace


def _ratio_outcomes(deciders, intervals, stream, stage_max):
    members = stream.final_members()
    out = {}
    for e, d in enumerate(deciders):
        ones = np.array([x for x in range(stream.n_max)
                         if d.eval(x, stage_max) == 1], dtype=np.int64)
        per_interval = []
        for iv in intervals:
            if iv["e"] != e:
                continue
            a, b, c = iv["a"], iv["b"], iv["c"]
            gap_hit = bool(((ones > b) & (ones <= c)).any())
            r_b = int((ones <= b).sum())
            r_c = int((ones <= c).sum())
            identity = None
            if not gap_hit and b >= 1:
                lhs = Fraction(r_b, b) - Fraction(r_c, c)
                rhs = Fraction(r_b, b) * Fraction(1, 1 << (e + 1))
                identity = bool(lhs == rhs)
            blk = int(members[a:c + 1].sum())
            per_interval.append({
                "a": a, "b": b, "c": c, "state": iv["state"],
                "witness": iv["witness"], "gap_avoided": not gap_hit,
                "identity_exact": identity,
                "block_count": blk, "block_size": c - a + 1,
            })
        out[e] = {"intervals": per_interval,
                  "finalized": any(iv["state"] == "finalized"
                                   for iv in per_interval)}
    return out


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
    trace = ConstructionTrace("restraint_witness")
    entry = {}
    current = {}   # k -> {"elems": set, "max": m, "all": list}
    j_next = {k: 0 for k in range(E)}
    dormant = set()
    ever_appointed = set()
    restrained = set()

    for s in range(stage_max + 1):
        rec = {}
        enums = []
        # positive side: every positive number joins at its own stage
        # unless some requirement currently restrains it
        if 1 <= s < n_max and s not in restrained and s not in entry:
            entry[s] = s
            enums.append({"x": s, "via": "own-stage"})
        for k in range(min(E, s + 1)):
            if k in dormant:
                continue
            wmax = streams[k].max_member_at(s)
            iv = current.get(k)
            if iv is not None and wmax > iv["max"]:
                # stream outgrew the interval: dump and re-appoint
                for x in sorted(iv["elems"]):
                    if x not in entry:
                        entry[x] = s
                        enums.append({"x": x, "via": "dump", "k": k})
                restrained.difference_update(iv["elems"])
                rec.setdefault("dumped", []).append(
                    {"k": k, "max": iv["max"]})
                current[k] = None
                iv = None
            if iv is None:
                found = _large_interval(k, j_next[k], s, max(wmax, s), n_max)
                if found is None:
                    if k not in ever_appointed:
                        raise WindowExhausted(
                            f"no interval for requirement {k} fits below "
                            f"n_max={n_max}", requirement=k)
                    dormant.add(k)
                    rec.setdefault("dormant", []).append(k)
                    continue
                ever_appointed.add(k)
                elems, j_next[k] = found
                current[k] = {"elems": set(elems), "max": elems[-1],
                              "all": elems}
                restrained.update(elems)
                rec.setdefault("appointed", []).append(
                    {"k": k, "min": elems[0],
                     "max": elems[-1], "size": len(elems)})
        if enums:
            rec["enumerated"] = enums
        if rec:
            trace.record(s, **rec)
    stream = CEStream.from_schedule(entry.items(), n_max=n_max,
                                    stage_max=stage_max,
                                    label="restraint-witness")
    counts = prefix_counts(stream.final_members())
    outcomes = {}
    for k in range(E):
        iv = current.get(k)
        if iv is None:
            outcomes[k] = {"final_interval": None}
            continue
        m = iv["max"]
        rho_a = Fraction(int(counts[m]), m)
        bound = 1 - Fraction(1, 1 << (k + 2))
        outcomes[k] = {"final_interval": [min(iv["all"]), m],
                       "rho_m_num": rho_a.numerator,
                       "rho_m_den": rho_a.denominator,
                       "strictly_below_bound": bool(rho_a < bound)}
    trace.outcomes = outcomes
    return stream, trace


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
    """
    if pairs is None:
        pairs = [(e, i) for e in range(len(streams))
                 for i in range(len(streams))]
    trace = ConstructionTrace("permitted_interval")
    entry = {}
    restrained = set()
    state = {p: {"iv": None, "g": 0, "cancels": 0, "appointed": 0,
                 "use": None} for p in pairs}
    g_rows = {p: [] for p in pairs}
    j_next = {p: 0 for p in pairs}
    codes = {p: pair_code(*p) for p in pairs}

    for s in range(stage_max + 1):
        rec = {}
        enums = []
        if 1 <= s < n_max and s not in restrained and s not in entry:
            entry[s] = s
            enums.append({"x": s, "permission": {"kind": "own-stage"}})
        entered = C.entering_at(s)
        y = int(entered[0]) if entered.size else None  # least C-entrant
        for p in pairs:
            e, i = p
            k = codes[p]
            if k > s:
                g_rows[p].append(state[p]["g"])
                continue
            st = state[p]
            iv = st["iv"]
            if iv is not None:
                if y is not None and y <= st["use"]:
                    for x in sorted(iv):
                        if x not in entry:
                            entry[x] = s
                            enums.append({"x": x, "permission":
                                          {"kind": "change", "y": y},
                                          "pair": list(p)})
                    restrained.difference_update(iv)
                    st["iv"] = None
                    st["g"] = 0
                    st["cancels"] += 1
                    rec.setdefault("cancelled", []).append(
                        {"pair": list(p), "y": y})
                    iv = None
                elif st["g"] == 0 and s >= st["cover"]:
                    st["g"] = 1
                    rec.setdefault("covered", []).append(list(p))
            if iv is None and jump.guess(i, s) == 1:
                u = jump.use(i, s)
                if u is None:
                    raise ContractViolated(
                        f"use undefined while guess positive for i={i}, s={s}")
                found = _large_interval(k, j_next[p], max(int(u), s),
                                        max(int(u), s), n_max)
                if found is not None:
                    elems, j_next[p] = found
                    # stream e covers the interval from the last entry stage
                    # of its elements inside the stream's window: never if
                    # one is NEVER, at once if none is inside
                    inside = [x for x in elems if x < streams[e].n_max]
                    st["cover"] = int(streams[e].entry[inside].max(
                        initial=0))
                    st["iv"] = set(elems)
                    st["use"] = int(u)
                    st["appointed"] += 1
                    restrained.update(elems)
                    rec.setdefault("appointed", []).append(
                        {"pair": list(p), "min": elems[0],
                         "max": elems[-1], "use": int(u)})
            g_rows[p].append(state[p]["g"])
        if enums:
            rec["enumerated"] = enums
        if rec:
            trace.record(s, **rec)
    stream = CEStream.from_schedule(entry.items(), n_max=n_max,
                                    stage_max=stage_max,
                                    label="permitted-interval")
    outcomes = {}
    for p in pairs:
        st = state[p]
        if st["appointed"] == 0:
            case = "no-interval"
        elif st["iv"] is not None:
            case = "permanent-covered" if st["g"] == 1 else "permanent-uncovered"
        else:
            case = "cancelled"
        outcomes[str(p)] = {"case": case, "cancels": st["cancels"],
                            "appointed": st["appointed"]}
    trace.outcomes = outcomes
    return stream, g_rows, trace


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
    trace = ConstructionTrace("split_interval")
    entry0, entry1 = {}, {}
    pending = {e: [] for e in range(E)}  # dicts: elems, min, realized
    j_next = {e: 0 for e in range(E)}
    split_records = []
    for s in range(stage_max + 1):
        rec = {}
        entered = B.entering_at(s)
        y = int(entered[0]) if entered.size else None  # least B-entrant
        for e in range(min(E, s + 1)):
            for iv in pending[e]:
                if not iv["realized"] and deciders[e].defined_on(iv["elems"], s):
                    iv["realized"] = True
                    rec.setdefault("realized", []).append(
                        {"e": e, "min": iv["min"]})
            if y is not None:
                trig = None
                for idx, iv in enumerate(pending[e]):
                    if iv["realized"] and y <= iv["min"]:
                        trig = idx  # oldest realized permitted interval
                        break
                if trig is not None:
                    iv = pending[e][trig]
                    ones = [x for x in iv["elems"]
                            if deciders[e].eval(x, s) == 1]
                    zeros = [x for x in iv["elems"]
                             if deciders[e].eval(x, s) != 1]
                    for x in ones:
                        entry0.setdefault(x, s)
                    for x in zeros:
                        entry1.setdefault(x, s)
                    flushed = pending[e][:trig]
                    for old in flushed:
                        for x in old["elems"]:
                            entry1.setdefault(x, s)
                    split_records.append(
                        {"e": e, "min": iv["min"], "y": y,
                         "elems": list(iv["elems"]),
                         "to_a0": ones, "stage": s})
                    rec.setdefault("split", []).append(
                        {"e": e, "min": iv["min"], "y": y,
                         "a0": len(ones), "a1": len(zeros),
                         "flushed": len(flushed)})
                    pending[e] = pending[e][trig + 1:]
            # keep at most one unrealized interval outstanding
            if not pending[e] or pending[e][-1]["realized"]:
                found = _large_interval(e, j_next[e], 0, s, n_max)
                if found is not None:
                    elems, j_next[e] = found
                    pending[e].append({"elems": elems, "min": elems[0],
                                       "realized": False})
                    rec.setdefault("appointed", []).append(
                        {"e": e, "min": elems[0], "max": elems[-1]})
        if rec:
            trace.record(s, **rec)
    A0 = CEStream.from_schedule(entry0.items(), n_max=n_max,
                                stage_max=stage_max, label="split-A0")
    A1 = CEStream.from_schedule(entry1.items(), n_max=n_max,
                                stage_max=stage_max, label="split-A1")
    trace.outcomes = {"splits": split_records}
    return A0, A1, trace


# -- trace audits -------------------------------------------------------------

def audit_permissions(trace: ConstructionTrace) -> bool:
    """Every enumeration carries a permission: either the element's own
    stage, or a recorded y <= x entering the permitting stream then."""
    for stage, en in trace.enumerations():
        perm = en.get("permission")
        if perm is None:
            return False
        if perm["kind"] == "own-stage":
            if en["x"] != stage:
                return False
        elif perm["kind"] == "change":
            if not perm["y"] <= en["x"]:
                return False
        else:
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
