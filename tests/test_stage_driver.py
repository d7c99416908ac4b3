"""The interval constructions and the prefix-gated diagonal against the
code that the stage driver replaced; the old builders are kept here as
references, each with its own stage loop."""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import builders, cli
from cedensity import prioritysim as ps
from cedensity.core import (NEVER, CEStream, SetOracle, prefix_counts,
                            write_jsonl)
from cedensity.errors import (ContractViolated, RatioUnrealizable,
                              WindowExhausted)
from cedensity.prioritysim import (ConstructionTrace, JumpApprox,
                                   PartialDecider, _large_interval,
                                   _ratio_interval, audit_permissions,
                                   audit_regions, pair_code,
                                   region_elements)

# -- the builders as they were ------------------------------------------------


def old_prefix_gated_build(streams, n_max: int, stage_max: int):
    """prefix_gated_build walking every class element in Python."""
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


def old_ratio_interval_build(deciders, n_max: int, stage_max: int):
    """ratio_interval_build with its own stage loop and entry dict."""
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
    trace.outcomes = old_ratio_outcomes(deciders, intervals, stream,
                                        stage_max)
    return stream, intervals, trace


def old_ratio_outcomes(deciders, intervals, stream, stage_max):
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
                "witness": iv["witness"], "r_b": r_b, "r_c": r_c,
                "gap_avoided": not gap_hit, "identity_exact": identity,
                "block_count": blk, "block_size": c - a + 1,
            })
        out[e] = {"intervals": per_interval,
                  "finalized": any(iv["state"] == "finalized"
                                   for iv in per_interval)}
    return out


def old_restraint_witness_build(streams, n_max: int, stage_max: int):
    """restraint_witness_build with its own stage loop and entry dict."""
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


def old_permitted_interval_build(C: CEStream, jump: JumpApprox, streams,
                                 n_max: int, stage_max: int, pairs=None):
    """permitted_interval_build with its own stage loop and entry dict."""
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


def old_split_interval_build(B: CEStream, deciders, n_max: int,
                             stage_max: int):
    """split_interval_build with its own stage loop and entry dicts."""
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


# -- the driver-based builders against them ----------------------------------

@st.composite
def drawn_streams(draw):
    """Streams with never-enumerated elements and any entry order."""
    stage_max = draw(st.integers(0, 40))
    entry = draw(st.lists(st.one_of(st.just(NEVER),
                                    st.integers(0, stage_max)),
                          min_size=1, max_size=60))
    return CEStream(np.array(entry, dtype=np.int64), stage_max=stage_max)


@st.composite
def periodic_streams(draw):
    """A residue class entering at f·m + offset, as the CLI schedules do,
    over windows long enough for intervals to be dumped and split; with a
    large offset every entry comes late, past the window."""
    n, modulus = draw(st.integers(1, 300)), draw(st.integers(1, 6))
    r, f = draw(st.integers(0, modulus - 1)), draw(st.integers(0, 4))
    off = draw(st.integers(0, 40) | st.integers(300, 1200))
    stage_max = draw(st.integers(0, 1200))
    m = np.arange(n)
    entry = np.where((m % modulus == r) & (f * m + off <= stage_max),
                     f * m + off, NEVER)
    return CEStream(entry, stage_max=stage_max)


def streams():
    return drawn_streams() | periodic_streams()


def stage_maxes(n_max):
    """Construction stage bounds up to 4·n_max."""
    return st.integers(0, 40) | st.integers(0, 4 * n_max)


DECLARED = st.one_of(
    st.tuples(st.just("constant"), st.integers(0, 1), st.integers(0, 12)),
    st.tuples(st.just("parity"), st.integers(0, 12)),
    st.tuples(st.just("residue"), st.integers(1, 4), st.integers(0, 3),
              st.integers(0, 12)),
    st.tuples(st.just("never")),
    st.tuples(st.just("value-delay"), st.integers(0, 1), st.integers(0, 3)))

DECIDERS = st.one_of(
    DECLARED,
    st.tuples(st.just("callable"), DECLARED),
    st.tuples(st.just("late"), st.integers(0, 1), st.integers(0, 3)),
    st.tuples(st.just("flap"), st.integers(0, 40)))


def decider(spec):
    """A fresh decider, so that both builders see the same contract state.
    The vocabulary kinds declare their array form; 'callable' asks one of
    them only through a bare callable, so it is polled, as are 'late' and
    'flap' ('flap' is defined only at one stage and so breaks its
    contract)."""
    kind, *args = spec
    if kind == "constant":
        return PartialDecider.constant(*args)
    if kind == "parity":
        return PartialDecider.parity(*args)
    if kind == "residue":
        m, r, delay = args
        return PartialDecider.residue(m, [r % m], delay)
    if kind == "never":
        return PartialDecider.never()
    if kind == "value-delay":
        return PartialDecider.linear_delay(*args)
    if kind == "callable":
        return PartialDecider(decider(args[0]).eval)
    if kind == "late":
        v, f = args
        return PartialDecider.delayed_rule(lambda n: v, lambda n: f * n)
    (t,) = args
    return PartialDecider(lambda n, s: 1 if s == t else None)


JUMPS = st.tuples(st.one_of(
    st.tuples(st.just("never"), st.just(0), st.just(0)),
    st.tuples(st.just("step"), st.integers(0, 30), st.integers(0, 80)),
    st.tuples(st.just("blink"), st.integers(1, 10), st.integers(0, 80)),
    st.tuples(st.just("no-use"), st.integers(0, 30), st.just(0))),
    st.booleans())


def jump(spec):
    """A jump approximation, of a declared kind or, when not declared, of
    bare callables (polled); 'no-use' goes positive without a use."""
    (kind, a, use), declared = spec
    if declared and kind in ("step", "blink"):
        return getattr(JumpApprox, kind)(a, use)
    if declared and kind == "never":
        return JumpApprox.never()
    if kind == "never":
        return JumpApprox(lambda i, s: 0, lambda i, s: None)
    if kind == "step":
        return JumpApprox(lambda i, s: int(s >= a),
                          lambda i, s: use if s >= a else None)
    if kind == "blink":
        return JumpApprox(lambda i, s: (s // a) % 2, lambda i, s: use)
    return JumpApprox(lambda i, s: int(s >= a), lambda i, s: None)


def snapshot(result, path):
    """Everything a builder returned, with each trace as its JSONL bytes
    besides its records, or the error it raised with its requirement."""
    if isinstance(result, BaseException):
        return (type(result), str(result),
                getattr(result, "requirement", None))
    if isinstance(result, CEStream):
        return result.entry.tolist(), result.stage_max, result.label
    if isinstance(result, ConstructionTrace):
        result.write_jsonl(path)
        return (result.construction, result.stages, result.outcomes,
                path.read_bytes())
    if isinstance(result, tuple):
        return tuple(snapshot(r, path) for r in result)
    return result


def outcome(build, args):
    try:
        return build(*args())
    except (ContractViolated, RatioUnrealizable, WindowExhausted) as exc:
        return exc


def assert_same(tmp, old, new, args):
    """Both builders, each on fresh arguments, agree on every output."""
    want = snapshot(outcome(old, args), tmp / "old.jsonl")
    assert snapshot(outcome(new, args), tmp / "new.jsonl") == want


@settings(max_examples=80, deadline=None)
@given(st.data(), st.lists(DECIDERS, max_size=4), st.integers(1, 160))
def test_ratio_interval_matches_old_code(tmp_path_factory, data, specs,
                                         n_max):
    stage_max = data.draw(stage_maxes(n_max))
    assert_same(tmp_path_factory.getbasetemp(), old_ratio_interval_build,
                ps.ratio_interval_build,
                lambda: ([decider(s) for s in specs], n_max, stage_max))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.lists(streams(), max_size=4), st.integers(1, 300))
def test_restraint_witness_matches_old_code(tmp_path_factory, data, roster,
                                            n_max):
    stage_max = data.draw(stage_maxes(n_max))
    assert_same(tmp_path_factory.getbasetemp(), old_restraint_witness_build,
                ps.restraint_witness_build,
                lambda: (roster, n_max, stage_max))


@settings(max_examples=100, deadline=None)
@given(st.data(), streams(), JUMPS, st.lists(streams(), min_size=1,
                                              max_size=3),
       st.integers(1, 300))
def test_permitted_interval_matches_old_code(tmp_path_factory, data, C,
                                             jump_spec, roster, n_max):
    stage_max = data.draw(stage_maxes(n_max))
    pairs = data.draw(st.none() | st.lists(
        st.tuples(st.integers(0, len(roster) - 1), st.integers(0, 3)),
        unique=True, max_size=5))
    assert_same(tmp_path_factory.getbasetemp(), old_permitted_interval_build,
                ps.permitted_interval_build,
                lambda: (C, jump(jump_spec), roster, n_max, stage_max,
                         pairs))


@settings(max_examples=100, deadline=None)
@given(st.data(), streams(), st.lists(DECIDERS, max_size=3),
       st.integers(1, 300))
def test_split_interval_matches_old_code(tmp_path_factory, data, B, specs,
                                         n_max):
    stage_max = data.draw(stage_maxes(n_max))
    assert_same(tmp_path_factory.getbasetemp(), old_split_interval_build,
                ps.split_interval_build,
                lambda: (B, [decider(s) for s in specs], n_max, stage_max))


@settings(max_examples=60, deadline=None)
@given(st.lists(streams(), max_size=8), st.integers(1, 100),
       st.integers(0, 60))
def test_prefix_gated_matches_old_code(tmp_path_factory, roster, n_max,
                                       stage_max):
    assert_same(tmp_path_factory.getbasetemp(), old_prefix_gated_build,
                ps.prefix_gated_build, lambda: (roster, n_max, stage_max))


def test_prefix_gated_past_int64_classes(tmp_path):
    # classes 63 and up start past int64, so no window holds an element
    roster = [CEStream.from_oracle(SetOracle.naturals(), n_max=300,
                                   stage_max=300)] * 70
    assert_same(tmp_path, old_prefix_gated_build, ps.prefix_gated_build,
                lambda: (roster, 300, 300))


# -- trace runs ---------------------------------------------------------------

def _acted(acted, stage):
    return {"acted": acted, "stage": stage}


def _own(x):
    return {"stage": x, "enumerated": [{"x": x,
                                        "permission": {"kind": "own-stage"}}]}


def _dump(x, stage, k):
    return {"stage": stage, "enumerated": [{"x": x, "via": "dump", "k": k}]}


TEMPLATES = {_acted: 2, _own: 1, _dump: 3}  # template -> number of holes

HOLES = st.integers(0, 3) | st.integers(0, 2**63 - 2)

EVENT = st.fixed_dictionaries({
    "stage": st.integers(0, 50),
    "enumerated": st.lists(st.fixed_dictionaries(
        {"x": st.integers(1, 50),
         "permission": st.fixed_dictionaries(
             {"kind": st.just("change"), "y": st.integers(0, 50)})}),
        max_size=3),
    "dormant": st.lists(st.integers(0, 5), max_size=2)})


@st.composite
def trace_parts(draw, holes=HOLES):
    """Stage records and runs (one row or more) in any order."""
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            parts.append(draw(EVENT))
            continue
        template = draw(st.sampled_from(sorted(TEMPLATES, key=str)))
        rows = draw(st.integers(1, 12))
        parts.append((template, tuple(
            np.array(draw(st.lists(holes, min_size=rows, max_size=rows)),
                     dtype=np.int64) for _ in range(TEMPLATES[template]))))
    return parts


def traced(parts, expand=False):
    """A trace of the parts, with each run as a run or as its records."""
    trace = ConstructionTrace("demo")
    for part in parts:
        if isinstance(part, dict):
            trace.record(**part)
        elif expand:
            for row in zip(*(h.tolist() for h in part[1])):
                trace.record(**part[0](*row))
        else:
            trace.run(part[0], *part[1])
    trace.outcomes = {"0": {"case": "demo"}}
    return trace


@settings(max_examples=40, deadline=None)
@given(trace_parts())
def test_trace_runs_render_as_their_records(tmp_path_factory, parts):
    tmp = tmp_path_factory.getbasetemp()
    trace = traced(parts)
    trace.write_jsonl(tmp / "runs.jsonl")
    write_jsonl(tmp / "records.jsonl", [*trace.stages, {
        "outcomes": trace.outcomes, "construction": "demo"}])
    assert (tmp / "runs.jsonl").read_bytes() == (
        tmp / "records.jsonl").read_bytes()
    assert trace.stages == traced(parts, expand=True).stages


@settings(max_examples=40, deadline=None)
@given(trace_parts(st.integers(1, 40)))
def test_audits_read_runs_as_records(parts):
    runs, records = traced(parts), traced(parts, expand=True)
    assert list(runs.enumerations()) == list(records.enumerations())
    assert audit_permissions(runs) == audit_permissions(records)
    region = lambda k: k % 3  # noqa: E731
    assert audit_regions(runs, region) == audit_regions(records, region)


# -- array forms of the vocabulary -------------------------------------------

def scalar_rule(spec):
    """The declared decider of spec as a scalar rule n, s -> 0, 1 or None,
    written apart from its array form so that each checks the other."""
    kind, *args = spec
    if kind == "constant":
        v, delay = args
        return lambda n, s: v if s >= delay else None
    if kind == "parity":
        (delay,) = args
        return lambda n, s: (1 if n % 2 == 0 else 0) if s >= delay else None
    if kind == "residue":
        m, r, delay = args
        rs = {r % m}
        return lambda n, s: (1 if n % m in rs else 0) if s >= delay else None
    if kind == "residue-wide":  # residues r and 5 of a modulus past every n
        return lambda n, s: 1 if n % 2**70 in (args[0], 5) else 0
    if kind == "never":
        return lambda n, s: None
    v, factor = args  # value-delay
    return lambda n, s: v if s >= factor * n else None


@settings(max_examples=100, deadline=None)
@given(DECLARED | st.tuples(st.just("residue-wide"), st.integers(0, 2**70)),
       st.integers(0, 60), st.integers(0, 20) | st.integers(0, 2**64))
def test_declared_deciders_answer_as_eval(spec, n_max, s):
    if spec[0] == "residue-wide":
        d = PartialDecider.residue(2**70, [spec[1], 5])
    else:
        d = decider(spec)
    rule = scalar_rule(spec)
    want = [rule(n, s) for n in range(n_max)]
    assert [d.eval(n, s) for n in range(n_max)] == want
    values = [-1 if v is None else v for v in want]
    assert d.at(np.arange(n_max), s).tolist() == values
    assert d.at(np.arange(n_max)[::-1], s).tolist() == values[::-1]
    assert d.defined_on(range(n_max), s) == (None not in want)
    top = n_max
    t = d.defined_from(top, s)
    if spec[0] == "never":
        assert t == NEVER
    else:  # the least stage after s defined at every n <= top
        assert t > s and all(rule(n, t) is not None for n in range(top + 1))
        assert t == s + 1 or any(rule(n, t - 1) is None
                                 for n in range(top + 1))
    assert PartialDecider(rule).defined_from(top, s) == s + 1


def cli_kind(kind, at, period):
    """The guess the CLI declares for a vocabulary kind, and its whole
    guess at a stage: every jump index, every window bit or every level."""
    spec = cli._Field({"kind": kind, "on_at": at, "period": period, "use": 7,
                       "set": "lo", "before": "lo", "after": "hi", "at": at})
    if kind in ("step", "blink", "never"):
        j = cli._jump(spec)
        return j, lambda s: [j.guess(i, s) for i in range(4)]
    if kind in ("constant", "flip"):
        sets = {"lo": SetOracle.residue_union(3, [0, 1]),
                "hi": SetOracle.residue_union(5, [2])}
        B = cli._approx(spec, sets, 30)
        return B, lambda s: B.at(s).tolist()
    cfg = {"universe": {"n_max": 1, "stage_max": 10**9},
           "construction": {"op": "blockwise-levels", "n_blocks": 3,
                            "levels": {"1": "1/2", "3": "2/3"}}}
    with mock.patch.object(builders, "blockwise_limit_build",
                           wraps=builders.blockwise_limit_build) as build:
        cli._dispatch_construct(cli._Field(cfg), {}, {}, {})
    g = build.call_args.args[0]
    return g, lambda s: [g.eval(n, s) for n in range(1, 5)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["step", "blink", "never", "constant", "flip",
                        "levels"]), st.integers(0, 30),
       st.integers(1, 12), st.integers(0, 80))
def test_declared_jumps_name_their_next_positive_stage(kind, on_at, period,
                                                       t):
    """A declared jump's on_from(i, t) is its first positive stage from t,
    and every kind the CLI declares keeps its guess at t at each stage
    strictly between t and its next change (scanned 100 stages on)."""
    j, guess = cli_kind(kind, on_at, period)
    nxt = j.next_change(t)
    assert nxt > t
    assert all(guess(s) == guess(t) for s in range(t + 1, min(nxt, t + 100)))
    if kind not in ("step", "blink", "never"):
        return
    on = [s for s in range(t, t + 2 * period + on_at + 1)
          if j.guess(0, s) == 1]
    assert j.on_from(0, t) == (on[0] if on else NEVER)
    assert all(j.use(0, s) == 7 for s in on)
    assert JumpApprox(j.guess, j.use).on_from(0, t) == t


# -- appointments that find no room -------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 40), st.integers(0, 400),
       st.integers(0, 400), st.integers(0, 400), st.integers(0, 400),
       st.integers(1, 500))
def test_large_interval_none_is_monotone(k, j0, a, b, da, db, n_max):
    if _large_interval(k, j0, a, b, n_max) is None:
        assert _large_interval(k, j0, a + da, b + db, n_max) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 300),
                          st.integers(0, 300)), max_size=30),
       st.integers(1, 300))
def test_appoint_answers_as_large_interval(calls, n_max):
    drive = ps._StageDriver("demo", n_max, 10)
    j_next = {}
    for k, a, b in calls:
        found = _large_interval(k, j_next.get(k, 0), a, b, n_max)
        got = drive.appoint(k, a, b)
        assert got == (found and found[0])
        if found is not None:
            j_next[k] = found[1]
