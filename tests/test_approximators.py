import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sortedcontainers import SortedList

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders
from cedensity.core import NEVER, CEStream, SetOracle, ceil_div, ceil_sqrt
from cedensity.errors import BudgetExceeded, PreconditionViolated


def evens_stream(n_max=2000):
    return CEStream.from_oracle(SetOracle.residue_union(2, [0]),
                                n_max=n_max, stage_max=4 * n_max)


def test_checkpoint_subset_evens_quarter():
    art = ap.checkpoint_subset(evens_stream(), "1/4")
    cps = art.checkpoints
    assert cps[0] == {"s": 0, "t": 0, "count": 0}
    assert [c["s"] for c in cps[:3]] == [0, 1, 3]
    # selected prefix below s = 3 is {0, 2}
    assert list(np.nonzero(art.bits[:3])[0]) == [0, 2]
    counts = art.counts()
    for c in cps[1:]:
        s = c["s"]
        assert int(counts[s]) == c["count"]
        assert int(counts[s]) * 4 >= s  # rho_s(B) >= 1/4 exactly
    assert art.is_subset_of(evens_stream())


def test_checkpoint_subset_empty_stream_reports_budget():
    empty = CEStream.from_oracle(SetOracle.empty(), n_max=100, stage_max=200)
    art = ap.checkpoint_subset(empty, "1/2")
    assert art.diagnostics
    assert len(art.checkpoints) == 1  # only the trivial origin checkpoint


def test_checkpoint_dovetail_prefers_earliest_pair():
    # all elements available at stage 0: the first pair past s_n must be
    # the one minimizing s + t in dovetail order
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=500,
                                stage_max=500, delay_fn=lambda m: 0)
    art = ap.checkpoint_subset(full, "1/2")
    for prev, cur in zip(art.checkpoints, art.checkpoints[1:]):
        assert cur["s"] > prev["s"]
        assert cur["t"] <= cur["s"]  # nothing enters later than needed here


def test_tracking_checkpoint_subset_slacked_bound():
    art = ap.tracking_checkpoint_subset(evens_stream(), ["1/4", "1/3"])
    counts = art.counts()
    for n, cp in enumerate(art.checkpoints):
        s = cp["s"]
        if s == 0:
            continue
        assert int(counts[s]) == cp["count"]
        thr = (Fraction(cp["target_num"], cp["target_den"])
               - Fraction(1, 2 ** cp["slack_pow"]))
        if thr > 0:
            assert int(counts[s]) * thr.denominator >= thr.numerator * s
        assert isinstance(cp["observed_unslacked"], bool)


def test_lookahead_subset_margin_holds_everywhere():
    stream = evens_stream()
    art = ap.lookahead_subset(stream, "1/4", n0=1)
    g = art.guarantee
    assert g["holds"] and g["first_violation"] is None
    counts = art.counts()
    s_table = g["s_table"]
    for n in range(g["n0"], art.n_max + 1):
        a_count = int(np.count_nonzero(stream.entry[:n] <= s_table[n - 1]))
        assert int(counts[n]) >= a_count - ceil_sqrt(n)


def test_lookahead_precondition_violation():
    with pytest.raises(PreconditionViolated) as exc:
        ap.lookahead_subset(evens_stream(), "3/4", n0=1)
    assert exc.value.at == 2


@pytest.mark.parametrize("q", [Fraction(2**48 + 1, 2**50),
                               Fraction(2**61 + 1, 2**63)])
def test_lookahead_precondition_exact_past_int64(q, tmp_path):
    # den·n passes 2^63 inside the window; the evens still clear q·n
    art = ap.lookahead_subset(evens_stream(20000), q)
    assert ar.verify_artifact(art)["ok"]
    ar.write_certified_csv(art, tmp_path / "c.csv")
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    assert len(rows) == 20000 and all(r.endswith(",1") for r in rows)


def test_witnessed_subset_rejects_false_promise():
    # w == 0 claims density >= 1 - 2^-k for every k from the start;
    # the evens fail that at n = 2
    with pytest.raises(PreconditionViolated) as exc:
        ap.witnessed_subset(evens_stream(), lambda k: 0)
    assert exc.value.at == 2


def test_witnessed_subset_full_stream():
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=1000,
                                stage_max=1000)
    art = ap.witnessed_subset(full, lambda k: 2 ** (k + 1))
    counts = art.counts()
    h = art.guarantee["h_of_n"]
    for n in range(1, art.n_max + 1):
        p = 1 << h[n - 1]
        assert int(counts[n]) >= ceil_div(n * (p - 1), p) - ceil_sqrt(n)


def test_limit_witness_instant_full_stream():
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=200,
                                stage_max=200, delay_fn=lambda m: 0)
    g = ap.LimitApprox(lambda k, s: 0)
    art = ap.limit_witness_subset(full, g)
    # guards are satisfied immediately: everything below n is selected
    assert int(art.bits.sum()) == art.n_max
    assert art.guarantee["form"] == "lookahead-margin-relative"


def test_tracked_witness_subset_runs():
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=500,
                                stage_max=500)
    art = ap.tracked_witness_subset(full, ["1/2"],
                                    ap.LimitApprox(lambda k, s: k))
    assert art.guarantee["holds"]


def test_targets_extend_last_value():
    assert ap._targets(["1/4", Fraction(1, 2)]) == \
        [Fraction(1, 4), Fraction(1, 2)]
    # a reader past the end of a list takes its last value
    assert builders.interleave_targets(["1/4", "1/3"], ["3/4"], "1/2", 3) \
        == [Fraction(1, 4), Fraction(3, 4), Fraction(1, 3), Fraction(3, 4),
            Fraction(1, 3), Fraction(3, 4)]
    with pytest.raises(ValueError, match="at least one value"):
        ap._targets([])


@pytest.mark.parametrize("producer", [
    lambda q: ap.tracking_checkpoint_subset(evens_stream(100), q),
    lambda q: ap.tracked_witness_subset(evens_stream(100), q,
                                        ap.LimitApprox(lambda k, s: k)),
    lambda q: builders.infsup_build(q, 2, 100),
    lambda q: builders.interleave_targets(q, ["3/4"], "1/2", 2),
    lambda q: builders.limsup_density_build(q, 2, 10)])
def test_callable_targets_raise_type_error(producer):
    with pytest.raises(TypeError):
        producer(lambda i: Fraction(1, 2))


def test_lookahead_n0_past_the_window_verifies():
    stream = evens_stream(50)
    art = ap.lookahead_subset(stream, "1/4", n0=51)
    assert art.guarantee["s_table"].size == 0 and art.guarantee["holds"]
    # t(k) = 0 throughout: B is what enters at stage 0
    assert np.array_equal(art.bits, stream.entry <= 0)
    assert ar.verify_artifact(art)["ok"]
    with pytest.raises(ValueError):
        ap.lookahead_subset(stream, "1/4", n0=52)


# -- differential tests against the per-n SortedList loops ----------------
#
# The reference functions below are the scalar loops the vectorized code
# replaced: one sorted window of entry stages, grown one element per n.

def ref_stage_table(stream, need_fn, n_lo):
    """(s_table, in_a), with s = NEVER (and in_a the whole count) at each
    n with too few enumerated elements."""
    entry = stream.entry
    window = SortedList(int(e) for e in entry[:n_lo] if e != NEVER)
    s_table, in_a = [], []
    for n in range(n_lo, stream.n_max + 1):
        if n > n_lo:
            e = int(entry[n - 1])
            if e != NEVER:
                window.add(e)
        k = need_fn(n)
        if k <= 0:
            s = 0
        elif len(window) < k:
            s = NEVER
        else:
            s = window[k - 1]
        s_table.append(s)
        in_a.append(window.bisect_right(s))
    return s_table, in_a


def ref_lookahead_bits(stream, s_table, n_lo):
    n_max = stream.n_max
    bits = np.zeros(n_max, dtype=bool)
    t_of_k = []
    t = 0
    reach = n_lo - 1
    for k in range(n_max):
        while reach < min(k * k, n_max):
            reach += 1
            t = max(t, int(s_table[reach - n_lo]))
        t_of_k.append(t)
        e = stream.entry[k]
        bits[k] = e != NEVER and e <= t
    return bits, t_of_k


def ref_first_violation(bits, stream, s_table, n_lo):
    counts_b = ap.prefix_counts(bits)
    window = SortedList(int(e) for e in stream.entry[:n_lo] if e != NEVER)
    for n in range(n_lo, stream.n_max + 1):
        if n > n_lo:
            e = int(stream.entry[n - 1])
            if e != NEVER:
                window.add(e)
        if counts_b[n] < window.bisect_right(int(s_table[n - n_lo])) \
                - ceil_sqrt(n):
            return n
    return None


def ref_pair_search(stream, s_lo, threshold_k):
    entry = stream.entry
    window = SortedList()
    best = None
    s = s_lo
    while True:
        s += 1
        if s > stream.n_max or (best is not None and s >= best[0]):
            break
        e = int(entry[s - 1])
        if e != NEVER:
            window.add(e)
        k = threshold_k(s)
        if k <= 0:
            t = 0
        elif len(window) >= k:
            t = window[k - 1]
        else:
            continue
        if t <= stream.stage_max and (best is None or s + t < best[0]):
            best = (s + t, s, t, max(k, 0))
    return None if best is None else best[1:]


def ref_checkpoints(stream, q):
    checkpoints = [{"s": 0, "t": 0, "count": 0}]
    s_n = running = 0
    while s_n < stream.n_max:
        found = ref_pair_search(
            stream, s_n, lambda s: ceil_div(q.numerator * s, q.denominator))
        if found is None:
            break
        s_next, t_next, _ = found
        running += int(np.count_nonzero(stream.entry[s_n:s_next] <= t_next))
        checkpoints.append({"s": s_next, "t": t_next, "count": running})
        s_n = s_next
    return checkpoints


@st.composite
def monotone_streams(draw):
    """Entry stages nondecreasing in the element, with ties, NEVER gaps
    and an optional stage offset."""
    n = draw(st.integers(1, 300))
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    entry = np.cumsum(steps) + draw(st.integers(0, 20))
    entry[~np.array(live)] = NEVER
    top = int(entry[entry != NEVER].max()) if any(live) else 0
    return CEStream(entry, stage_max=top + draw(st.integers(1, 10)))


@st.composite
def scripted_streams(draw):
    """Scripted streams whose entry stages fall somewhere, if only by one."""
    n = draw(st.integers(2, 200))
    hi = draw(st.integers(1, 3 * n))
    stages = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 2))
    stages[i], stages[i + 1] = 1, 0
    live[i] = live[i + 1] = True
    return CEStream.from_schedule(
        [(m, s) for m, (s, on) in enumerate(zip(stages, live)) if on],
        n_max=n, stage_max=3 * n)


streams = st.one_of(monotone_streams(), scripted_streams())
QS = [Fraction(1, 100), Fraction(1, 3), Fraction(3, 4),
      Fraction(2**41 + 1, 2**42)]


def _check_monotone_flag(stream):
    increasing = bool(np.all(np.diff(stream.stage_index.order) > 0))
    assert stream.stage_index.monotone == increasing


@settings(max_examples=150, deadline=None)
@given(streams, st.data())
def test_stage_table_matches_sorted_window(stream, data):
    _check_monotone_flag(stream)
    n_lo = data.draw(st.integers(1, stream.n_max + 1))
    q = data.draw(st.sampled_from(QS))
    # a need above the live count below n (slack < 0) must read NEVER
    slack = data.draw(st.integers(-1, 2))
    below = np.cumsum(stream.entry != NEVER)[n_lo - 1:].tolist()
    needs = [ceil_div(q.numerator * c, q.denominator) - slack
             for c in below]
    ref = ref_stage_table(stream, lambda n: needs[n - n_lo], n_lo)
    s_table, in_a = ap._stage_table_kth(
        stream, np.array(needs, dtype=np.int64), n_lo)
    assert (s_table.tolist(), in_a.tolist()) == ref
    if NEVER in ref[0]:
        return
    bits, t_of_k = ap._lookahead_bits(stream, s_table, n_lo)
    ref_bits, ref_t = ref_lookahead_bits(stream, s_table, n_lo)
    assert t_of_k.tolist() == ref_t
    assert np.array_equal(bits, ref_bits)
    # thinned and empty subsets make violations likely; the check must agree
    noise = np.array(data.draw(st.lists(st.booleans(), min_size=bits.size,
                                        max_size=bits.size)))
    for b in (bits, bits & noise, np.zeros_like(bits)):
        assert ap._margin_guarantee_holds(b, in_a, n_lo) == \
            ref_first_violation(b, stream, s_table, n_lo)


@settings(max_examples=100, deadline=None)
@given(streams, st.sampled_from(QS), st.integers(1, 40))
def test_lookahead_subset_matches_reference(stream, q, n0):
    n0 = min(n0, stream.n_max + 1)
    ref = ref_stage_table(
        stream, lambda n: ceil_div(q.numerator * n, q.denominator), n0)
    if NEVER in ref[0]:
        i = ref[0].index(NEVER)
        with pytest.raises(PreconditionViolated) as exc:
            ap.lookahead_subset(stream, q, n0)
        assert exc.value.at == n0 + i
        assert str(exc.value).endswith(f"count={ref[1][i]}")
        return
    art = ap.lookahead_subset(stream, q, n0)
    s_table = ref[0]
    bits, t_of_k = ref_lookahead_bits(stream, s_table, n0)
    g = art.guarantee
    assert g["s_table"].tolist() == s_table
    assert np.array_equal(art.bits, bits)
    assert art.checkpoints == [{"t_of_k_tail": t_of_k[-1]}]
    assert g["first_violation"] == ref_first_violation(bits, stream,
                                                       s_table, n0)


@settings(max_examples=150, deadline=None)
@given(streams, st.sampled_from(QS))
def test_checkpoint_sequence_matches_reference(stream, q):
    art = ap.checkpoint_subset(stream, q)
    assert art.checkpoints == ref_checkpoints(stream, q)


def test_scripted_stream_takes_the_sorted_path():
    stream = CEStream.from_schedule([(0, 5), (1, 0), (3, 2)], n_max=6,
                                    stage_max=9)
    assert not stream.stage_index.monotone
    assert CEStream.from_schedule([(0, 0), (2, 0), (3, 4)], n_max=6,
                                  stage_max=9).stage_index.monotone


# -- each producer against the code its family skeleton replaced ----------
#
# The producers below are the extraction routines as they were written out
# before the checkpoint loop, the look-ahead tail and the guarded stage
# search each came to exist once.  They call the same helpers, so every
# artifact must be identical, down to the JSON bytes.

def old_checkpoint_subset(stream, q):
    q = Fraction(q)
    entry = stream.entry
    bits = np.zeros(stream.n_max, dtype=bool)
    checkpoints = [{"s": 0, "t": 0, "count": 0}]
    diagnostics = []
    s_n = 0
    running = 0
    while True:
        found = ap._first_pair_search(
            stream, s_n, lambda s: ap._ceil_q(q, s, stream.n_max))
        if found is None:
            diagnostics.append({
                "error": "BudgetExceeded",
                "detail": "no next checkpoint pair within the window/stage budget",
                "after_checkpoint": len(checkpoints) - 1,
            })
            break
        s_next, t_next = found
        block = entry[s_n:s_next] <= t_next
        bits[s_n:s_next] = block
        running += int(np.count_nonzero(block))
        checkpoints.append({"s": s_next, "t": t_next, "count": running})
        s_n = s_next
        if s_n >= stream.n_max:
            break
    guarantee = {"form": "checkpoint-ratio", "q_num": q.numerator,
                 "q_den": q.denominator}
    return ap.SubsetArtifact("checkpoint_subset", bits, checkpoints,
                             guarantee, diagnostics,
                             meta={"stream": stream.label})


def old_tracking_pair_search(stream, s_lo, n, qs):
    """Dovetail search where the required count depends on t via q_t."""
    entry = stream.entry
    window = SortedList()
    best = None  # (cost, s, t)
    slack = Fraction(1, 2 ** n)
    s = s_lo
    while True:
        s += 1
        if s > stream.n_max:
            break
        if best is not None and s + n + 1 >= best[0]:
            break
        e = int(entry[s - 1])
        if e != NEVER:
            window.add(e)
        t_hi = stream.stage_max if best is None else min(stream.stage_max,
                                                         best[0] - s - 1)
        t = old_least_workable_t(window, qs, slack, s, n, t_hi)
        if t is not None:
            cost = s + t
            if best is None or cost < best[0]:
                best = (cost, s, t)
    if best is None:
        return None
    return best[1], best[2]


def old_least_workable_t(window, qs, slack, s, n, t_hi):
    """Smallest t in (n, t_hi] with |window ∩ [0, t]| >= ceil((q_t − slack)·s),
    or None.  Larger t only raises the dovetail cost at fixed s, so the
    first hit is the only one worth keeping."""
    settle = getattr(qs, "settle_at", None)
    vary_hi = t_hi if settle is None else min(settle - 1, t_hi)
    for t in range(n + 1, vary_hi + 1):
        thr = Fraction(qs(t)) - slack
        if window.bisect_right(t) >= ceil_div(thr.numerator * s,
                                              thr.denominator):
            return t
    if settle is None:
        return None
    # q_t is constant from settle on: the count requirement is fixed, and
    # |window ∩ [0, t]| first reaches k at the k-th smallest entry stage
    lo_t = max(n + 1, settle)
    if lo_t > t_hi:
        return None
    thr = Fraction(qs(lo_t)) - slack
    k = ceil_div(thr.numerator * s, thr.denominator)
    if k <= 0:
        return lo_t
    if k > len(window):
        return None
    t = max(lo_t, int(window[k - 1]))
    return t if t <= t_hi else None


def old_seq_to_fn(q_seq):
    if callable(q_seq):
        return q_seq
    seq = [Fraction(v) for v in q_seq]

    def fn(i):
        return seq[i] if i < len(seq) else seq[-1]

    fn.settle_at = len(seq) - 1  # constant from this index on
    return fn


def old_tracking_checkpoint_subset(stream, q_seq):
    qs = old_seq_to_fn(q_seq)
    entry = stream.entry
    bits = np.zeros(stream.n_max, dtype=bool)
    checkpoints = [{"s": 0, "t": 0, "count": 0}]
    diagnostics = []
    s_n = 0
    running = 0
    n = 0
    while True:
        found = old_tracking_pair_search(stream, s_n, n, qs)
        if found is None:
            diagnostics.append({
                "error": "BudgetExceeded",
                "detail": "no next checkpoint pair within the window/stage budget",
                "after_checkpoint": n,
            })
            break
        s_next, t_next = found
        block = entry[s_n:s_next] <= t_next
        bits[s_n:s_next] = block
        running += int(np.count_nonzero(block))
        target = Fraction(qs(t_next))
        strict_ok = (running * target.denominator
                     >= target.numerator * s_next)
        checkpoints.append({
            "s": s_next, "t": t_next, "count": running,
            "target_num": target.numerator, "target_den": target.denominator,
            "slack_pow": n, "observed_unslacked": bool(strict_ok),
        })
        s_n = s_next
        n += 1
        if s_n >= stream.n_max:
            break
    guarantee = {"form": "tracking-checkpoint-ratio"}
    return ap.SubsetArtifact("tracking_checkpoint_subset", bits, checkpoints,
                             guarantee, diagnostics,
                             meta={"stream": stream.label})


def old_lookahead_subset(stream, q, n0=1):
    q = Fraction(q)
    ns = np.arange(n0, stream.n_max + 1, dtype=np.int64)
    needs = ap._ceil_q(q, ns, stream.n_max)
    final_counts = ap.prefix_counts(stream.final_members())[n0:]
    bad = np.flatnonzero(final_counts < needs)
    if bad.size:
        n_bad = int(ns[bad[0]])
        raise PreconditionViolated(
            f"density target {q} fails at n={n_bad}: "
            f"count={int(final_counts[bad[0]])}", at=n_bad)
    s_table, in_a = ap._stage_table_kth(stream, needs, n0)
    bits, t_of_k = ap._lookahead_bits(stream, s_table, n0)
    viol = ap._margin_guarantee_holds(bits, in_a, n0)
    guarantee = {
        "form": "lookahead-margin",
        "q_num": q.numerator, "q_den": q.denominator, "n0": n0,
        "s_table": s_table.tolist(), "in_a": in_a,
        "holds": viol is None, "first_violation": viol,
    }
    return ap.SubsetArtifact("lookahead_subset", bits,
                             checkpoints=[{"t_of_k_tail": int(t_of_k[-1])}],
                             guarantee=guarantee,
                             meta={"stream": stream.label})


def old_witnessed_subset(stream, w):
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
    ns = np.arange(n_max + 1, dtype=np.int64)
    h_of_n = np.minimum(np.searchsorted(np.array(w_vals[1:], dtype=np.int64),
                                        ns, side="right"), ns)
    needs = (ns - (ns >> np.minimum(h_of_n, 62)))[1:]
    final_counts = ap.prefix_counts(stream.final_members())
    bad = np.flatnonzero(final_counts[1:] < needs)
    if bad.size:
        n = int(bad[0]) + 1
        raise PreconditionViolated(
            f"witness promise fails at n={n} (level {int(h_of_n[n])})",
            at=n)
    s_table, _ = ap._stage_table_kth(stream, needs, 1)
    bits, _ = ap._lookahead_bits(stream, s_table, 1)
    viol = ap._margin_guarantee_holds(bits, needs, 1)
    guarantee = {
        "form": "witness-margin",
        "h_of_n": h_of_n[1:].tolist(),
        "s_table": s_table.tolist(),
        "holds": viol is None, "first_violation": viol,
    }
    return ap.SubsetArtifact("witnessed_subset", bits, guarantee=guarantee,
                             meta={"stream": stream.label})


def _need_for_level(n, h):
    # ceil(n · (2^h − 1) / 2^h)
    p = 1 << h
    return ceil_div(n * (p - 1), p)


def old_guarded_stage_table(stream, n_max, threshold_need):
    entry = stream.entry
    s_table = np.zeros(n_max + 1, dtype=np.int64)
    in_a = np.zeros(n_max + 1, dtype=np.int64)
    sorted_prefix = SortedList()
    for n in range(1, n_max + 1):
        e = int(entry[n - 1])
        if e != NEVER:
            sorted_prefix.add(e)
        s = n
        while True:
            if s > stream.stage_max:
                raise BudgetExceeded(
                    f"guarded stage search exhausted at n={n}", at=n)
            have = sorted_prefix.bisect_right(s)
            if have >= threshold_need(n, s):
                break
            s += 1
        s_table[n], in_a[n] = s, have
    return s_table, in_a


def old_limit_witness_subset(stream, g):
    n_max = stream.n_max

    def need(n, s):
        h = 0
        for k in range(n, 0, -1):
            if int(g.eval(k, s)) <= n:
                h = k
                break
        return _need_for_level(n, h)

    s_table, in_a = (v[1:] for v in old_guarded_stage_table(stream, n_max,
                                                            need))
    bits, _ = ap._lookahead_bits(stream, s_table, 1)
    viol = ap._margin_guarantee_holds(bits, in_a, 1)
    guarantee = {
        "form": "lookahead-margin-relative",
        "s_table": s_table.tolist(), "in_a": in_a,
        "holds": viol is None, "first_violation": viol,
    }
    return ap.SubsetArtifact("limit_witness_subset", bits,
                             guarantee=guarantee,
                             meta={"stream": stream.label, "g": g.label})


def old_tracked_witness_subset(stream, q_seq, g):
    qs = old_seq_to_fn(q_seq)
    n_max = stream.n_max

    def need(n, s):
        k_bind = None
        for k in range(n, 0, -1):
            if int(g.eval(k, s)) <= n:
                k_bind = k
                break
        if k_bind is None:
            return 0
        thr = Fraction(qs(n)) - Fraction(1, 1 << k_bind)
        if thr <= 0:
            return 0
        return ceil_div(thr.numerator * n, thr.denominator)

    s_table, in_a = (v[1:] for v in old_guarded_stage_table(stream, n_max,
                                                            need))
    bits, _ = ap._lookahead_bits(stream, s_table, 1)
    viol = ap._margin_guarantee_holds(bits, in_a, 1)
    guarantee = {
        "form": "lookahead-margin-relative",
        "s_table": s_table.tolist(), "in_a": in_a,
        "holds": viol is None, "first_violation": viol,
    }
    return ap.SubsetArtifact("tracked_witness_subset", bits,
                             guarantee=guarantee,
                             meta={"stream": stream.label, "g": g.label})


def outcome(call):
    """The artifact's JSON bytes, or the error's type, message and point."""
    try:
        art = call()
    except (PreconditionViolated, BudgetExceeded) as exc:
        return type(exc), str(exc), exc.at
    return json.dumps(ar.artifact_payload(art), sort_keys=True)


def logged(fn):
    """fn, and the log its calls append their arguments to."""
    log = []

    def call(*args):
        log.append(args)
        return fn(*args)

    return call, log


@st.composite
def short_streams(draw):
    """Streams of at most 30 elements, monotone or not, whose stage_max may
    drop late entries, so that the stage budget can run out."""
    n = draw(st.integers(1, 30))
    stages = draw(st.lists(st.integers(0, 2 * n), min_size=n, max_size=n))
    if draw(st.booleans()):
        stages.sort()
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return CEStream.from_schedule(
        [(m, s) for m, (s, on) in enumerate(zip(stages, live)) if on],
        n_max=n, stage_max=draw(st.integers(1, 2 * n + 5)))


# g(k, s): instant, level-wise, exponential and late-settling guesses
G_KINDS = {
    "zero": lambda c: lambda k, s: 0,
    "level": lambda c: lambda k, s: k + c,
    "exponential": lambda c: lambda k, s: 2 ** (k + c),
    "late": lambda c: lambda k, s: 10**6 if s < c * k else k,
}


def targets(kind, stream):
    """A target sequence for the old code, as a list or as a callable, and
    the list the new code reads: the callable's values over every index
    a producer can read, [0, max(n_max, stage_max)]."""
    if kind == "list":
        q = [Fraction(1, 4), Fraction(2, 3), Fraction(1, 2)]
        return q, q
    fn = lambda i: Fraction(1, 2) + Fraction(1, i + 4)
    return fn, [fn(i) for i in range(max(stream.n_max, stream.stage_max) + 1)]


# target values below 0, in (0, 1), at its ends and past 1, repeated freely
target_lists = st.lists(st.sampled_from(
    [Fraction(-1, 3), Fraction(0), Fraction(1, 4), Fraction(1, 3),
     Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1),
     Fraction(3, 2), Fraction(2**41 + 1, 2**42)]), min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
@given(streams, st.sampled_from(QS), st.integers(1, 40), st.integers(0, 4))
def test_unguarded_producers_match_their_old_code(stream, q, n0, shift):
    n0 = min(n0, stream.n_max + 1)
    w = (lambda k: 2 ** (k + shift)) if shift else (lambda k: k * k)
    for new, old in (
            (lambda: ap.checkpoint_subset(stream, q),
             lambda: old_checkpoint_subset(stream, q)),
            (lambda: ap.tracking_checkpoint_subset(stream, [q, "1/4"]),
             lambda: old_tracking_checkpoint_subset(stream, [q, "1/4"])),
            (lambda: ap.lookahead_subset(stream, q, n0),
             lambda: old_lookahead_subset(stream, q, n0)),
            (lambda: ap.witnessed_subset(stream, w),
             lambda: old_witnessed_subset(stream, w))):
        assert outcome(new) == outcome(old)


@settings(max_examples=100, deadline=None)
@given(short_streams(), st.sampled_from(QS), st.sampled_from(["list", "fn"]))
def test_checkpoint_producers_match_on_short_budgets(stream, q, kind):
    assert outcome(lambda: ap.checkpoint_subset(stream, q)) == \
        outcome(lambda: old_checkpoint_subset(stream, q))
    old_q, new_q = targets(kind, stream)
    assert outcome(lambda: ap.tracking_checkpoint_subset(stream, new_q)) == \
        outcome(lambda: old_tracking_checkpoint_subset(stream, old_q))


@settings(max_examples=200, deadline=None)
@given(st.one_of(short_streams(), streams), target_lists)
def test_tracking_matches_its_old_code_on_target_lists(stream, q):
    assert outcome(lambda: ap.tracking_checkpoint_subset(stream, q)) == \
        outcome(lambda: old_tracking_checkpoint_subset(stream, q))


@settings(max_examples=200, deadline=None)
@given(st.one_of(short_streams(), streams), target_lists, st.integers(0, 70),
       st.data())
def test_tracking_pair_search_matches_its_old_code(stream, q, n, data):
    # past n = 62 the slack 2^-n puts the needs past int64 before the
    # division, so they are computed as Python ints
    s_lo = data.draw(st.integers(0, stream.n_max - 1))
    assert ap._tracking_pair_search(stream, s_lo, n, ap._targets(q)) == \
        old_tracking_pair_search(stream, s_lo, n, old_seq_to_fn(q))


@settings(max_examples=120, deadline=None)
@given(short_streams(), st.sampled_from(sorted(G_KINDS)), st.integers(0, 3),
       st.sampled_from(["list", "fn"]))
def test_guarded_producers_match_their_old_code(stream, g_kind, c, kind):
    runs = []
    for producer in (ap.limit_witness_subset, old_limit_witness_subset):
        g_fn, g_log = logged(G_KINDS[g_kind](c))
        g = ap.LimitApprox(g_fn, "g")
        runs.append((outcome(lambda: producer(stream, g)), g_log))
    assert runs[0] == runs[1]
    runs = []
    for producer, q_seq in zip(
            (old_tracked_witness_subset, ap.tracked_witness_subset),
            targets(kind, stream)):
        g_fn, g_log = logged(G_KINDS[g_kind](c))
        g = ap.LimitApprox(g_fn, "g")
        runs.append((outcome(lambda: producer(stream, q_seq, g)), g_log))
    assert runs[0] == runs[1]


def test_exhausted_budgets_match_their_old_code():
    # element 3 never enters: no checkpoint pair at q = 3/4 passes s = 3,
    # and with every guard binding at once s(4) needs all of [0, 4)
    stream = CEStream.from_schedule([(m, m) for m in (0, 1, 2, 4, 5)],
                                    n_max=6, stage_max=12)
    new = ap.checkpoint_subset(stream, "3/4")
    assert new.diagnostics[0]["after_checkpoint"] == len(new.checkpoints) - 1
    assert outcome(lambda: new) == \
        outcome(lambda: old_checkpoint_subset(stream, "3/4"))
    assert outcome(lambda: ap.tracking_checkpoint_subset(stream, ["3/4"])) \
        == outcome(lambda: old_tracking_checkpoint_subset(stream, ["3/4"]))
    for producer in (ap.limit_witness_subset, old_limit_witness_subset):
        assert outcome(lambda: producer(
            stream, ap.LimitApprox(lambda k, s: 0))) == (
                BudgetExceeded, "guarded stage search exhausted at n=4", 4)
