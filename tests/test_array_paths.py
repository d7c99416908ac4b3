"""The array paths of stream building, interval cover stages and artifact
loading, each against the loop it replaced; the loops are kept here as
references (the JSONL encoder is checked in ``test_json_writers.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import artifacts, cli
from cedensity.core import NEVER, CEStream, SetOracle
from cedensity.errors import ArtifactError, ContractViolated
from cedensity.prioritysim import (ConstructionTrace, JumpApprox,
                                   _large_interval, pair_code,
                                   permitted_interval_build, region_elements)

from conftest import expand_g_changes

# -- stream build ---------------------------------------------------------------


def from_oracle_loop(oracle, *, n_max, stage_max, delay_fn=None):
    """CEStream.from_oracle as one scalar delay_fn call per member."""
    member = oracle.membership_array(n_max)
    entry = np.full(n_max, NEVER, dtype=np.int64)
    for m in np.nonzero(member)[0]:
        s = int(m) if delay_fn is None else int(delay_fn(int(m)))
        if s <= stage_max:
            entry[m] = s
    return CEStream(entry, stage_max=stage_max)


def scalar_stage_fn(schedule):
    """The CLI schedules as the scalar maps of m they used to be."""
    kind = schedule.get("kind", "own-stage")
    if kind == "immediate":
        return lambda m: 0
    if kind == "own-stage":
        return lambda m: m
    if kind == "successor":
        return lambda m: m + 1
    if kind == "delayed":
        f = schedule.get("factor", 1)
        off = schedule.get("offset", 0)
        return lambda m: f * m + off
    p = schedule["period"]
    return lambda m: ((m // p) + 1) * p


# small values, and values past int64 that only the stage_max cut may see
big_or_small = st.one_of(st.integers(0, 40), st.integers(0, 2**70))

schedules = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(
        ["immediate", "own-stage", "successor"])}),
    st.just({}),
    st.fixed_dictionaries({"kind": st.just("delayed")},
                          optional={"factor": big_or_small,
                                    "offset": big_or_small}),
    st.fixed_dictionaries({"kind": st.just("burst"),
                           "period": st.one_of(st.integers(1, 40),
                                               st.integers(1, 2**70))}))

member_bits = st.integers(1, 300).flatmap(lambda n: st.one_of(
    st.just([False] * n), st.just([True] * n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


@settings(max_examples=400, deadline=None)
@given(member_bits, schedules,
       st.one_of(st.integers(1, 700), st.just(NEVER - 1),
                 st.integers(NEVER, 2**70)))
def test_cli_schedules_match_member_loop(bits, schedule, stage_max):
    oracle = SetOracle.from_bits(bits)
    n_max = len(bits)
    try:
        want = from_oracle_loop(oracle, n_max=n_max, stage_max=stage_max,
                                delay_fn=scalar_stage_fn(schedule)).entry
    except OverflowError:  # a kept stage past int64; the cut drops it now
        assert stage_max > NEVER - 1
        return
    got = CEStream.from_oracle(
        oracle, n_max=n_max, stage_max=stage_max,
        delay_fn=cli._stage_fn(schedule, "s", stage_max)).entry
    assert got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(member_bits, st.integers(1, 700), st.integers(0, 3),
       st.integers(-5, 20))
def test_library_delay_fn_matches_member_loop(bits, stage_max, factor, off):
    oracle = SetOracle.from_bits(bits)
    for delay in (None, lambda m: factor * m + off, lambda m: off):
        try:
            want = from_oracle_loop(oracle, n_max=len(bits),
                                    stage_max=stage_max, delay_fn=delay)
        except ValueError as exc:  # a negative stage
            with pytest.raises(ValueError, match=str(exc)):
                CEStream.from_oracle(oracle, n_max=len(bits),
                                     stage_max=stage_max, delay_fn=delay)
            continue
        got = CEStream.from_oracle(oracle, n_max=len(bits),
                                   stage_max=stage_max, delay_fn=delay)
        assert got.entry.tolist() == want.entry.tolist()


# -- permitted-interval cover stages ---------------------------------------------


def permitted_interval_rescan(C, jump, streams, n_max, stage_max, pairs):
    """permitted_interval_build with the coverage of every appointed,
    uncovered interval rescanned element by element at every stage."""
    trace = ConstructionTrace("permitted_interval")
    entry = {}
    restrained = set()
    state = {p: {"iv": None, "g": 0, "cancels": 0, "appointed": 0,
                 "use": None} for p in pairs}
    g_rows = {p: [] for p in pairs}
    j_next = {p: 0 for p in pairs}
    for s in range(stage_max + 1):
        rec = {}
        enums = []
        if 1 <= s < n_max and s not in restrained and s not in entry:
            entry[s] = s
            enums.append({"x": s, "permission": {"kind": "own-stage"}})
        entered = C.entering_at(s)
        y = int(entered[0]) if entered.size else None
        for p in pairs:
            e, i = p
            if pair_code(e, i) > s:
                g_rows[p].append(state[p]["g"])
                continue
            st_ = state[p]
            k = pair_code(e, i)
            iv = st_["iv"]
            if iv is not None:
                if y is not None and y <= st_["use"]:
                    for x in sorted(iv):
                        if x not in entry:
                            entry[x] = s
                            enums.append({"x": x, "permission":
                                          {"kind": "change", "y": y},
                                          "pair": list(p)})
                    restrained.difference_update(iv)
                    st_["iv"] = None
                    st_["g"] = 0
                    st_["cancels"] += 1
                    rec.setdefault("cancelled", []).append(
                        {"pair": list(p), "y": y})
                    iv = None
                elif st_["g"] == 0:
                    if all(streams[e].entry[x] <= s for x in iv
                           if x < streams[e].n_max):
                        st_["g"] = 1
                        rec.setdefault("covered", []).append(list(p))
            if iv is None and jump.guess(i, s) == 1:
                u = jump.use(i, s)
                if u is None:
                    raise ContractViolated("use undefined")
                elems, _ = _large_interval(
                    k, j_next[p], max(int(u), s), max(int(u), s),
                    n_max) or (None, None)
                if elems is not None:
                    st_["iv"] = set(elems)
                    st_["use"] = int(u)
                    st_["appointed"] += 1
                    j_next[p] = (elems[-1] // (1 << k) - 1) // 2 + 1
                    restrained.update(elems)
                    rec.setdefault("appointed", []).append(
                        {"pair": list(p), "min": elems[0],
                         "max": elems[-1], "use": int(u)})
            g_rows[p].append(state[p]["g"])
        if enums:
            rec["enumerated"] = enums
        if rec:
            trace.record(s, **rec)
    cases = {}
    for p in pairs:
        st_ = state[p]
        if st_["appointed"] == 0:
            case = "no-interval"
        elif st_["iv"] is not None:
            case = ("permanent-covered" if st_["g"] == 1
                    else "permanent-uncovered")
        else:
            case = "cancelled"
        cases[str(p)] = {"case": case, "cancels": st_["cancels"],
                         "appointed": st_["appointed"]}
    return entry, g_rows, trace.stages, cases


@st.composite
def monotone_streams(draw, stage_max):
    """Stage enumerations of varied length, with never-enumerated elements
    and stages clustered low so that some intervals are covered early."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    size = draw(st.integers(1, 320))
    entry = rng.integers(0, draw(st.integers(0, stage_max)) + 1, size)
    entry[rng.random(size) < draw(st.sampled_from([0, 0.05, 0.5]))] = NEVER
    return CEStream(entry, stage_max=stage_max)


jumps = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 40), st.integers(0, 60)),
    st.tuples(st.just("blink"), st.integers(1, 30), st.integers(0, 60)))


def make_jump(kind, a, use):
    if kind == "step":
        return JumpApprox(lambda i, s: 1 if s >= a else 0,
                          lambda i, s: use if s >= a else None)
    return JumpApprox(lambda i, s: (s // a) % 2, lambda i, s: use)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(40, 300), st.integers(40, 300), jumps,
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)),
                min_size=1, max_size=4, unique=True))
def test_permitted_interval_matches_rescan(data, n_max, stage_max, jump,
                                           pairs):
    C = data.draw(monotone_streams(stage_max))
    W = [data.draw(monotone_streams(stage_max)) for _ in range(2)]
    stream, g_changes, trace = permitted_interval_build(
        C, make_jump(*jump), W, n_max, stage_max, pairs=pairs)
    entry, want_rows, stages, cases = permitted_interval_rescan(
        C, make_jump(*jump), W, n_max, stage_max, pairs)
    assert stream.entry.tolist() == CEStream.from_schedule(
        entry.items(), n_max=n_max, stage_max=stage_max).entry.tolist()
    assert expand_g_changes(g_changes, stage_max) == want_rows
    assert trace.stages == stages
    assert trace.outcomes == cases


# -- run-length decoding -----------------------------------------------------------


def rle_to_bits_loop(runs, n):
    """rle_to_bits as one slice assignment per run."""
    out = np.zeros(n, dtype=bool)
    pos = 0
    val = False
    for r in runs:
        if r < 0 or pos + r > n:
            raise ArtifactError("run-length data inconsistent with n_max")
        if val:
            out[pos:pos + r] = True
        pos += r
        val = not val
    if pos != n:
        raise ArtifactError("run-length data inconsistent with n_max")
    return out


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 12), st.integers(-3, 3),
                          st.integers(-2**70, 2**70)), max_size=12),
       st.integers(0, 60))
def test_rle_to_bits_matches_run_loop(runs, n):
    try:
        want = rle_to_bits_loop(runs, n)
    except ArtifactError:
        with pytest.raises(ArtifactError,
                           match="run-length data inconsistent with n_max"):
            artifacts.rle_to_bits(runs, n)
        return
    assert artifacts.rle_to_bits(runs, n).tolist() == want.tolist()


def rle_to_bits_python(runs, n):
    """rle_to_bits with its checks in Python: the type of every run, then
    the min and sum of the list."""
    if not (isinstance(runs, list) and set(map(type, runs)) <= {int}
            and min(runs, default=0) >= 0 and sum(runs) == n):
        raise ArtifactError("run-length data inconsistent with n_max")
    values = np.arange(len(runs)) % 2 == 1
    return np.repeat(values, np.array(runs, dtype=np.int64))


_RUN = st.one_of(st.integers(0, 12), st.integers(-2**63 - 2, -1),
                 st.integers(2**62, 2**64), st.booleans(), st.floats(),
                 st.text(max_size=3), st.none(),
                 st.lists(st.integers(0, 3), max_size=2))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_RUN, max_size=10),
                 st.lists(st.integers(0, 12), max_size=10),
                 st.lists(st.integers(2**60, 2**63 - 1), max_size=20)),
       st.integers(0, 60), st.sampled_from(["drawn", "sum", "wrapped"]))
def test_rle_to_bits_matches_its_python_checks(runs, n, target):
    # n is at most 60 unless it differs from the sum, so no call allocates
    # more than 60 bits
    if target != "drawn" and runs and set(map(type, runs)) <= {int}:
        total = sum(runs)
        wrapped = (total + 2**63) % 2**64 - 2**63  # an int64 sum's reading
        if target == "sum" and total <= 60:
            n = total
        elif target == "wrapped" and wrapped != total:
            n = wrapped
    inputs = [runs]  # and as the int64 array a fast load reads
    if set(map(type, runs)) <= {int} and all(-2**63 <= r < 2**63
                                             for r in runs):
        inputs.append(np.array(runs, dtype=np.int64))
    try:
        want = rle_to_bits_python(runs, n).tolist()
    except ArtifactError:
        for each in inputs:
            with pytest.raises(
                    ArtifactError,
                    match="run-length data inconsistent with n_max"):
                artifacts.rle_to_bits(each, n)
    else:
        for each in inputs:
            assert artifacts.rle_to_bits(each, n).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=6),
       st.one_of(st.floats(), st.text(), st.booleans(), st.none(),
                 st.lists(st.integers(0, 3), max_size=2)),
       st.integers(0, 6), st.integers(0, 40))
def test_rle_to_bits_rejects_non_integer_runs(runs, bad, at, n):
    runs.insert(min(at, len(runs)), bad)
    with pytest.raises(ArtifactError,
                       match="run-length data inconsistent with n_max"):
        artifacts.rle_to_bits(runs, n)


# -- large-interval placement -------------------------------------------------


def large_interval_loop(k, j0, min_elem_above, max_above, n_max):
    """_large_interval as the two index searches it was, one step at a
    time, with the next index read back off the segment's max."""
    while (1 << k) * (2 * j0 + 1) <= min_elem_above:
        j0 += 1
    t = j0 + 2
    while True:
        top = (1 << k) * (2 * (j0 + t - 1) + 1)
        if top > max_above:
            break
        t += 1
    if top >= n_max:
        return None
    elems = region_elements(k, j0, t)
    return elems, (elems[-1] // (1 << k) - 1) // 2 + 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 60), st.integers(0, 3000),
       st.integers(0, 3000), st.integers(1, 4000))
def test_large_interval_matches_the_index_loops(k, j0, lo, hi, n_max):
    assert _large_interval(k, j0, lo, hi, n_max) == \
        large_interval_loop(k, j0, lo, hi, n_max)
