import json
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import builders, cli
from cedensity.builders import (Delta2Approx, StableMonotoneG,
                                blockwise_limit_build, density_transfer_build,
                                extend_to_ratio, infsup_build,
                                interleave_targets, limsup_density_build,
                                sparse_hitting_build, verify_blockwise,
                                verify_infsup)
from cedensity.core import (NEVER, CEStream, SetOracle, jsonl_bytes,
                            prefix_counts)
from cedensity.errors import CapExceeded, ContractViolated
from cedensity.prioritysim import ConstructionTrace


# -- target-visiting construction -------------------------------------------

INFSUP_SEQS = {
    "constant": ["1/2"] * 8,
    "alternating": ["1/3", "2/3"] * 4,
    "convergent": [Fraction(1, 2) + Fraction(1, n + 2) for n in range(8)],
    "clamped-endpoint": ["0", "1", "0", "1"],
    "interleaved": interleave_targets(["1/4", "1/5"], ["5/6", "4/5"],
                                      "1/2", 3),
}


@pytest.mark.parametrize("name", sorted(INFSUP_SEQS))
def test_infsup_approach_and_betweenness(name):
    art = infsup_build(INFSUP_SEQS[name], len(INFSUP_SEQS[name]), 10**6)
    assert not art.diagnostics
    rep = verify_infsup(art)
    assert rep == {"approach": True, "between": True}


def test_infsup_endpoint_targets_are_clamped():
    art = infsup_build(["0", "1"], 2, 10**6)
    for cp in art.checkpoints[1:]:
        assert 0 < Fraction(cp["q_num"], cp["q_den"]) < 1


def test_infsup_truncation_diagnostic():
    art = infsup_build(["1/2", "1/1000000"], 2, 50)
    assert art.diagnostics and art.diagnostics[0]["error"] == "Truncated"


def test_interleave_pins_to_pivot():
    out = interleave_targets(["1/4", "3/4"], ["1/4", "3/4"], "1/2", 2)
    assert out == [Fraction(1, 4), Fraction(1, 2),
                   Fraction(1, 2), Fraction(3, 4)]


# -- exact-ratio extension ---------------------------------------------------

def check_extension(F, a, d, r, ext):
    r = Fraction(r)
    G = ext.elements
    # exact ratio at the evaluation length
    cnt = sum(1 for x in G if x < ext.c)
    assert Fraction(cnt, ext.c) == r
    assert ext.c > d and ext.c >= ext.b
    # prefix preservation below a
    assert {x for x in G if x < a} == {x for x in F if x < a}
    # the extension is an initial segment [a, b)
    added = {x for x in G if x >= a} - set(F)
    assert added == set(range(a, ext.b)) - set(F)
    assert all(x < ext.b for x in G)


def test_extension_examples():
    ext = extend_to_ratio(set(), 0, 0, Fraction(1, 2))
    check_extension(set(), 0, 0, Fraction(1, 2), ext)
    ext = extend_to_ratio({0, 1}, 2, 5, Fraction(1, 3))
    check_extension({0, 1}, 2, 5, Fraction(1, 3), ext)


def brute_force_b(F, a, d, r):
    """Least b >= max(a+1, max(F)+1) for which some evaluation length c
    gives exactly ratio r with c > d, by direct scan."""
    r = Fraction(r)
    num, den = r.numerator, r.denominator
    b_start = max(a + 1, max(F) + 1 if F else 0)
    m0 = sum(1 for x in F if x < a) - a
    for b in range(b_start, b_start + 100 * num * den + den * (abs(d) + abs(m0) + 2)):
        size = m0 + b
        if size <= 0 or size % num:
            continue
        c = size // num * den
        if c > d and c >= b:
            return b
    raise AssertionError("brute force found no extension")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_randomized_with_bruteforce(data):
    a = data.draw(st.integers(0, 30))
    F = set(data.draw(st.lists(st.integers(0, a - 1), max_size=a))) if a else set()
    d = data.draw(st.integers(a, a + 60))
    den = data.draw(st.integers(2, 50))
    num = data.draw(st.integers(1, den - 1))
    r = Fraction(num, den)
    ext = extend_to_ratio(F, a, d, r)
    check_extension(F, a, d, r, ext)
    assert ext.b == brute_force_b(F, a, d, r)


# -- density transfer ---------------------------------------------------------

# density_transfer_build and its two helpers as they were on per-element
# dicts and sets, verbatim
def old_density_transfer_build(B: Delta2Approx, n_checkpoints: int,
                               stage_budget: int, n_max: int):
    """Build a stage enumeration A and a checkpoint map t so that, for
    every index n whose row settled, the prefix density of A at length
    t(n) equals the (clamped) prefix density of B at length n, exactly.

    Stage s+1 finds the least n with the identity currently broken and
    repairs it with extend_to_ratio (target = rho_n(B_s) clamped into
    (0,1): 0 becomes 1/(n+1), 1 becomes n/(n+1)); rows above n are
    re-based past the new evaluation length.  Because repairs only append
    beyond t(n−1), lower settled rows are never disturbed.
    """
    if n_checkpoints >= B.window:
        raise ValueError("n_checkpoints must be below the approximation window")
    t = {0: 0}
    for n in range(1, n_checkpoints + 1):
        t[n] = n + 1
    entry = {}          # element -> stage
    members = set()
    trace = []
    truncated = None
    for s in range(1, stage_budget + 1):
        bs = B.at(s - 1)
        bcounts = prefix_counts(bs)
        fired = None
        for n in range(1, min(s, n_checkpoints) + 1):
            target = old_transfer_target(int(bcounts[n]), n)
            tn = t[n]
            have = sum(1 for x in members if x < tn)
            if have * target.denominator != target.numerator * tn:
                fired = (n, target)
                break
        if fired is None:
            trace.append({"stage": s, "fired": None})
            continue
        n, target = fired
        a = t[n - 1]
        d = max(members | {t[n]}) if members else t[n]
        ext = extend_to_ratio(members, a, d, target)
        if ext.c > n_max:
            truncated = {"error": "Truncated", "stage": s,
                         "detail": f"evaluation length {ext.c} beyond n_max"}
            break
        new = sorted(ext.elements - members)
        for x in new:
            entry[x] = s
        members = set(ext.elements)
        old_c = t[n]
        t[n] = ext.c
        for m in range(n + 1, n_checkpoints + 1):
            t[m] = ext.c + (m - n)
        trace.append({"stage": s, "fired": n, "a": a, "b": ext.b,
                      "c": ext.c, "prev_t": old_c,
                      "target": [target.numerator, target.denominator],
                      "new_elements": len(new)})
    stream = CEStream.from_schedule(entry.items(), n_max=n_max,
                                    stage_max=stage_budget, label="transfer")
    report = old_transfer_report(stream, B, t, n_checkpoints, stage_budget)
    if truncated:
        report["diagnostics"] = [truncated]
    return stream, dict(t), trace, report


def old_transfer_target(count_n: int, n: int) -> Fraction:
    q = Fraction(count_n, n)
    if q == 0:
        return Fraction(1, n + 1)
    if q == 1:
        return Fraction(n, n + 1)
    return q


def old_transfer_report(stream, B, t, n_checkpoints, stage_budget):
    final_b = B.at(stage_budget - 1) if stage_budget >= 1 else B.at(0)
    bcounts = prefix_counts(final_b)
    members = stream.final_members()
    acounts = prefix_counts(members)
    settled = {}
    segments = {}
    for n in range(1, n_checkpoints + 1):
        tn = t[n]
        target = old_transfer_target(int(bcounts[n]), n)
        if tn > stream.n_max:
            settled[n] = None  # out of window, unverifiable
            continue
        settled[n] = bool(int(acounts[tn]) * target.denominator
                          == target.numerator * tn)
        lo = t[n - 1]
        hi = tn
        if hi <= stream.n_max:
            seg = members[lo:hi]
            k = int(np.count_nonzero(seg))
            segments[n] = bool(np.all(seg[:k]) and not seg[k:].any())
    return {"settled_identity": settled, "initial_segment": segments}


def transfer_fixture(fn, window=40):
    return Delta2Approx(fn, window)


def test_transfer_settles_on_constant_approximations():
    evens = SetOracle.residue_union(2, [0]).membership_array(40)
    for B in (Delta2Approx.constant(evens),
              Delta2Approx.constant(np.zeros(40, dtype=bool)),
              Delta2Approx.constant(np.ones(40, dtype=bool))):
        stream, t, trace, report = density_transfer_build(B, 5, 80, 5000)
        assert all(report["settled_identity"][n] for n in range(1, 6))
        assert all(report["initial_segment"].values())


def test_transfer_with_midrun_flip():
    before = SetOracle.residue_union(2, [0]).membership_array(40)
    after = SetOracle.residue_union(2, [1]).membership_array(40)
    B = transfer_fixture(lambda s: after if s >= 20 else before)
    stream, t, trace, report = density_transfer_build(B, 5, 120, 20000)
    assert all(report["settled_identity"][n] for n in range(1, 6))
    assert all(report["initial_segment"].values())
    # the flip must actually have fired a repair after stage 20
    assert any(r["fired"] is not None for r in trace.stages
               if r["stage"] > 20)


def test_transfer_holds_one_stage_of_the_approximation():
    # 1000 stages of a 10^4-wide approximation: 10 MB if every stage's
    # array were kept, one array's worth if only the latest is
    bits = np.arange(10_000) % 2 == 0
    B = Delta2Approx(lambda s: bits.copy(), bits.size)
    tracemalloc.start()
    try:
        density_transfer_build(B, 10, 1000, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * bits.size


def test_declared_flip_is_read_at_its_change_stages():
    # a flip at stage 5 over 10^5 stages; a polled B is read at each one
    before, after = (SetOracle.residue_union(m, r).membership_array(100)
                     for m, r in ((3, [0, 1]), (5, [2])))
    reads = []

    def fn(s):
        reads.append(s)
        return after if s >= 5 else before

    B = Delta2Approx(fn, 100, next_change=lambda s: 5 if s < 5 else NEVER)
    stream, t, trace, report = density_transfer_build(B, 20, 10**5, 10**5)
    assert len(reads) < 100
    assert all(report["settled_identity"].values())
    assert len(trace.stages) == 10**5


def test_transfer_rejects_checkpoints_beyond_window():
    B = Delta2Approx.constant(np.zeros(10, dtype=bool))
    with pytest.raises(ValueError):
        density_transfer_build(B, 10, 50, 1000)


@st.composite
def transfer_cases(draw):
    """(approximation maker, n_checkpoints, stage budget, n_max); the
    approximation is constant, flips once, varies per stage, or answers
    with a short array from some stage on, all polled, or is one of the
    CLI's declared kinds, constant or flip, read at its change stages.
    A flip falls before, inside or past the budget, or past NEVER."""
    window = draw(st.integers(2, 60))
    bits = st.lists(st.booleans(), min_size=window, max_size=window).map(
        lambda b: np.array(b, dtype=bool))
    kind = draw(st.sampled_from(["constant", "flip", "per-stage", "short",
                                 "declared-constant", "declared-flip"]))
    arrays = draw(st.lists(bits, min_size=1 if "constant" in kind else 2,
                           max_size=2 if kind != "per-stage" else 6))
    at = draw(st.integers(0, 40) | st.integers(121, 400) | st.just(2**64))
    fns = {
        "constant": lambda s: arrays[0],
        "flip": lambda s: arrays[s >= at],
        "per-stage": lambda s: arrays[s % len(arrays)],
        "short": lambda s: arrays[0] if s < at else arrays[1][1:],
    }
    sets = {"lo": SetOracle.from_bits(arrays[0]),
            "hi": SetOracle.from_bits(arrays[-1])}
    spec = cli._Field({"kind": kind.removeprefix("declared-"), "set": "lo",
                       "before": "lo", "after": "hi", "at": at})
    make = ((lambda: cli._approx(spec, sets, window))
            if kind.startswith("declared") else
            (lambda: Delta2Approx(fns[kind], window)))
    return (make, draw(st.integers(0, window - 1)),
            draw(st.integers(0, 120)), draw(st.integers(1, 600)))


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(transfer_cases())
def test_transfer_matches_its_old_code(case):
    make, n_checkpoints, stage_budget, n_max = case
    new = _outcome(density_transfer_build, make(), n_checkpoints,
                   stage_budget, n_max)
    old = _outcome(old_density_transfer_build, make(), n_checkpoints,
                   stage_budget, n_max)
    if isinstance(old[0], type):
        assert new == old
        return
    stream, t, trace, report = new
    old_stream, old_t, old_rows, old_report = old
    assert stream.entry.tolist() == old_stream.entry.tolist()
    assert (stream.stage_max, stream.label) == (old_stream.stage_max,
                                                old_stream.label)
    assert t == old_t
    assert trace.stages == old_rows
    assert report == old_report
    assert trace.outcomes == {k: old_report[k] for k in
                              ("settled_identity", "initial_segment")}


@pytest.mark.parametrize("n_max", [2000, 60])  # 60 truncates
def test_cli_transfer_trace_is_the_old_rows_then_outcomes(tmp_path, n_max):
    window = 30
    cfg = {"universe": {"n_max": n_max, "stage_max": 200},
           "sets": [{"label": "lo", "kind": "residue-union", "modulus": 3,
                     "residues": [0, 1]},
                    {"label": "hi", "kind": "residue-union", "modulus": 5,
                     "residues": [2]}],
           "construction": {"op": "density-transfer", "n_checkpoints": 12,
                            "approx": {"kind": "flip", "before": "lo",
                                       "after": "hi", "at": 5,
                                       "window": window}}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(["construct", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
    before, after = (SetOracle.residue_union(m, r).membership_array(window)
                     for m, r in ((3, [0, 1]), (5, [2])))
    _, _, rows, report = old_density_transfer_build(
        Delta2Approx(lambda s: after if s >= 5 else before, window), 12,
        200, n_max)
    assert ("diagnostics" in report) == (n_max == 60)
    # the file read back, each quiet run expanded, is the old rows
    assert jsonl_bytes(ConstructionTrace.read(out / "trace.jsonl").stages
                       ) == jsonl_bytes(rows)
    lines = (out / "trace.jsonl").read_bytes().splitlines()
    assert json.loads(lines[-1]) == {
        "construction": "density_transfer",
        "outcomes": {name: {str(n): v for n, v in report[name].items()}
                     for name in ("settled_identity", "initial_segment")}}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=40),
       st.lists(st.integers(1, 8), max_size=10), st.data())
def test_transfer_report_matches_its_old_code(members, steps, data):
    # any members and any rising t, so that segments fail as well as hold
    stream = CEStream(np.where(members, 0, NEVER), stage_max=0)
    t = np.cumsum([0] + steps)
    bits = np.array(data.draw(st.lists(st.booleans(), min_size=t.size,
                                       max_size=t.size)), dtype=bool)
    report = builders._transfer_report(stream, bits, t)
    old = old_transfer_report(stream, Delta2Approx.constant(bits),
                              dict(enumerate(t.tolist())), len(steps), 0)
    assert report == old


# -- factorial-block builder ---------------------------------------------------

def test_blockwise_constant_half():
    g = StableMonotoneG(lambda n, s: Fraction(1, 2))
    stream, levels = blockwise_limit_build(g, 3, 50)
    assert levels == {1: 0, 2: 1, 3: 1}  # nearest multiple of 1/n, ties down
    rep = verify_blockwise(stream, levels)
    assert rep["block_density"] is True
    assert rep["sandwich"] is True


def test_blockwise_reads_a_declared_constant_g_at_stage_0_only():
    reads = []

    def g(n, s):
        reads.append(s)
        return Fraction(1, 2)

    stream, levels = blockwise_limit_build(
        StableMonotoneG(g, next_change=lambda s: NEVER), 3, 10**9)
    assert levels == {1: 0, 2: 1, 3: 1} and reads == [0, 0, 0]
    assert stream.stage_max == 10**9


def test_blockwise_block_cap():
    g = StableMonotoneG(lambda n, s: Fraction(1, 2))
    with pytest.raises(CapExceeded):
        blockwise_limit_build(g, builders.FACTORIAL_BLOCK_CAP + 1, 10)


def test_limsup_block_cap_checked_before_any_stage():
    def q_seq(s):
        raise AssertionError("q_seq called before the block cap check")

    with pytest.raises(CapExceeded,
                       match=f"exceeds cap {builders.FACTORIAL_BLOCK_CAP}"):
        limsup_density_build(q_seq, 10**5, 5)


def test_blockwise_monotone_contract_enforced():
    vals = {1: Fraction(1, 2), 2: Fraction(1, 4)}

    def g(n, s):  # drops between stages for block 2
        return Fraction(1, 2) if s < 2 else vals.get(n, Fraction(0))

    with pytest.raises(ContractViolated):
        blockwise_limit_build(StableMonotoneG(g), 2, 10)


def test_limsup_blockwise_levels_bounded():
    stream, levels, g_final = limsup_density_build(
        ["1/2", "3/4", "1/2", "7/8"], 4, 100)
    rep = verify_blockwise(stream, levels)
    assert rep["block_density"] is True
    assert rep["sandwich"] is True
    for n, L in levels.items():
        assert 0 <= L <= n


def old_blockwise_limit_build(g, n_blocks, stage_max):
    if n_blocks > builders.FACTORIAL_BLOCK_CAP:
        raise CapExceeded(
            f"n_blocks={n_blocks} exceeds cap {builders.FACTORIAL_BLOCK_CAP}")
    n_max = factorial(n_blocks + 1)
    entry = np.full(n_max, NEVER, dtype=np.int64)
    levels = {n: 0 for n in range(1, n_blocks + 1)}
    for s in range(stage_max + 1):
        for n in range(1, n_blocks + 1):
            L = builders._round_to_grid(g.eval(n, s), n)
            if L > levels[n]:
                lo, hi = factorial(n), factorial(n + 1)
                for run in range(lo, hi, n):
                    entry[run + levels[n]: run + L] = s
                levels[n] = L
    stream = CEStream(entry, stage_max=stage_max, label="blockwise")
    return stream, levels


def old_limsup_density_build(q_seq, n_blocks, stage_max):
    """The ratchet as per-stage tables of g, polled at every stage."""
    g_vals = {n: [Fraction(0)] for n in range(1, n_blocks + 1)}
    for s in range(stage_max):
        q = Fraction(q_seq[min(s, len(q_seq) - 1)])
        for n in range(1, n_blocks + 1):
            cur = g_vals[n][-1]
            if s >= n and q >= cur + Fraction(1, n + 1):
                g_vals[n].append(q)
            else:
                g_vals[n].append(cur)
    g = StableMonotoneG(lambda n, s: g_vals[n][min(s, stage_max)],
                        label="ratchet")
    stream, levels = old_blockwise_limit_build(g, n_blocks, stage_max)
    g_final = {n: g_vals[n][-1] for n in g_vals}
    return stream, levels, g_final


_fractions = st.fractions(-1, 2, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(_fractions, min_size=1, max_size=6), st.integers(0, 4),
       st.integers(1, 30))
def test_limsup_matches_its_per_stage_tables(q_seq, n_blocks, stage_max):
    stream, levels, g_final = limsup_density_build(q_seq, n_blocks, stage_max)
    old_stream, old_levels, old_g = old_limsup_density_build(
        q_seq, n_blocks, stage_max)
    assert stream.entry.tolist() == old_stream.entry.tolist()
    assert stream.stage_max == old_stream.stage_max
    assert (levels, g_final) == (old_levels, old_g)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_fractions, min_size=1, max_size=4), max_size=4),
       st.integers(1, 12))
def test_blockwise_slices_match_the_run_loop(rows, stage_max):
    # g(n, s) rises through row n − 1, sorted, and stays at its last value
    rows = [sorted(r) for r in rows]

    def g(n, s):
        return rows[n - 1][min(s, len(rows[n - 1]) - 1)]

    new, levels = blockwise_limit_build(StableMonotoneG(g), len(rows),
                                        stage_max)
    old, old_levels = old_blockwise_limit_build(StableMonotoneG(g), len(rows),
                                                stage_max)
    assert new.entry.tolist() == old.entry.tolist() and levels == old_levels


def test_sparse_hitting():
    streams = [CEStream.from_oracle(SetOracle.naturals(), n_max=2000,
                                    stage_max=2000) for _ in range(4)]
    stream, report = sparse_hitting_build(streams, 2000, 2000)
    hits = [r["hit"] for r in report]
    assert hits == [2, 3, 5, 9]  # first element above 2^e per stream
    counts = np.cumsum(stream.final_members())
    for n in range(1, 2000):
        assert counts[n - 1] <= n.bit_length()
