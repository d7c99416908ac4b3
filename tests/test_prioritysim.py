import json
from fractions import Fraction

import numpy as np
import pytest

from cedensity import prioritysim as ps
from cedensity.core import CEStream, SetOracle
from cedensity.errors import ContractViolated, RatioUnrealizable
from cedensity.prioritysim import (ConstructionTrace, JumpApprox,
                                   PartialDecider, audit_permissions,
                                   audit_regions, blockwise_union_build,
                                   interval_for_index, pair_code,
                                   permitted_interval_build,
                                   prefix_gated_build, ratio_interval_build,
                                   region_elements, region_of,
                                   restraint_witness_build,
                                   split_interval_build)


def own_stage(oracle, n_max, stage_max=None):
    return CEStream.from_oracle(oracle, n_max=n_max,
                                stage_max=stage_max or 2 * n_max)


def test_partial_decider_contract():
    p = PartialDecider.parity(delay=2)
    assert p.eval(3, 1) is None
    assert p.eval(3, 2) == 0 and p.eval(4, 2) == 1  # 1-set is the evens
    with pytest.raises(ContractViolated):
        # definedness must be monotone in s; a flapping rule is rejected
        bad = PartialDecider(lambda n, s: 1 if s == 2 else None)
        bad.eval(0, 2)
        bad.eval(0, 3)


def test_decider_values_sweep_keeps_the_contract():
    p = PartialDecider.residue(3, [1], delay=2)
    assert p.at(np.arange(7), 1).tolist() == [-1] * 7
    assert p.at(np.arange(7), 2).tolist() == [0, 1, 0, 0, 1, 0, 0]
    bad = PartialDecider(lambda n, s: 1 if s == 2 else None)
    assert bad.at(np.arange(3), 2).tolist() == [1, 1, 1]
    with pytest.raises(ContractViolated):
        # each eval still checks the decider's contract
        bad.at(np.arange(3), 3)


def test_region_helpers():
    assert region_elements(2, 0, 3) == [4, 12, 20]
    assert region_of(12) == 2
    assert pair_code(0, 0) == 0 and pair_code(1, 0) == 1
    # pair codes are injective on a grid
    codes = {pair_code(e, i) for e in range(20) for i in range(20)}
    assert len(codes) == 400


def test_interval_for_index():
    assert interval_for_index(0) == (1, 2)
    assert interval_for_index(1) == (2, 6)
    assert interval_for_index(2) == (6, 24)


def test_blockwise_union():
    full = own_stage(SetOracle.naturals(), 100)
    empty = own_stage(SetOracle.empty(), 100)
    a = blockwise_union_build([full, empty, full], 100, 200)
    members = set(np.nonzero(a.final_members())[0])
    assert 1 in members            # index 0 owns [1, 2)
    assert not members & set(range(2, 6))   # index 1 contributed nothing
    assert set(range(6, 24)) <= members     # index 2 owns [6, 24)


def test_prefix_gated_cases():
    full = own_stage(SetOracle.naturals(), 200)
    evens = own_stage(SetOracle.residue_union(2, [0]), 200)
    stream, report = prefix_gated_build([full, evens], 200, 400)
    assert report[0] == {"case": "covered"}
    # class 1 = {2, 6, 10, ...} is inside the evens, so it is covered too
    assert report[1] == {"case": "covered"}
    odds = own_stage(SetOracle.residue_union(2, [1]), 200)
    stream, report = prefix_gated_build([odds], 200, 400)
    # class 0 = odds is in the stream; gate passes everywhere
    assert report[0] == {"case": "covered"}
    stream, report = prefix_gated_build([evens], 200, 400)
    # class 0 = odds, none of which the evens stream ever offers
    assert report[0] == {"case": "witness", "witness": 1}
    assert not stream.final_members().any()


def make_ratio_roster():
    return [
        PartialDecider.constant(1, 0, label="one"),
        PartialDecider.constant(0, 3, label="zero-late"),
        PartialDecider.parity(1, label="parity"),
        PartialDecider.residue(3, [0], 2, label="mod3"),
        PartialDecider.never(),
    ]


def test_ratio_interval_roster():
    deciders = make_ratio_roster()
    stream, intervals, trace = ratio_interval_build(deciders, 5000, 5000)
    members = stream.final_members()
    by_e = {}
    for out in trace.outcomes.values():
        for iv in out["intervals"]:
            by_e.setdefault(iv["a"], iv)
    for e, out in trace.outcomes.items():
        low_density = 0
        for iv in out["intervals"]:
            if iv["state"] in ("completed", "finalized") and iv["gap_avoided"]:
                assert iv["identity_exact"] is True
            if iv["state"] == "finalized":
                w = iv["witness"]
                assert deciders[e].eval(w, 5000) == 1
                assert not members[w]
            blk, size = iv["block_count"], iv["block_size"]
            if blk * (1 << e) < size * ((1 << e) - 1):
                low_density += 1
        assert low_density <= 1
    # the always-one decider finalizes immediately with a concrete witness
    assert trace.outcomes[0]["finalized"]


def test_ratio_interval_unrealizable_when_window_too_small():
    with pytest.raises(RatioUnrealizable):
        ratio_interval_build([PartialDecider.never()], 2, 10)


def test_restraint_quiet_stream_pins_density():
    quiet = own_stage(SetOracle.empty(), 3000, 3000)
    stream, trace = restraint_witness_build([quiet], 3000, 3000)
    out = trace.outcomes[0]
    assert out["final_interval"] is not None
    rho = Fraction(out["rho_m_num"], out["rho_m_den"])
    assert rho < Fraction(3, 4) and out["strictly_below_bound"]


def test_restraint_cofinal_stream_dumps_into_a():
    noisy = own_stage(SetOracle.naturals(), 3000, 3000)
    stream, trace = restraint_witness_build([noisy], 3000, 3000)
    members = stream.final_members()
    dumped = [en["x"] for _s, en in trace.enumerations()
              if en.get("via") == "dump"]
    assert dumped  # intervals were cancelled
    assert all(members[x] for x in dumped)


def jump_cases():
    return {
        "never": JumpApprox(lambda i, s: 0, lambda i, s: None),
        "step": JumpApprox(lambda i, s: 1 if s >= 4 else 0,
                           lambda i, s: 12 if s >= 4 else None),
        "blink": JumpApprox(lambda i, s: (s // 8) % 2, lambda i, s: 20),
    }


@pytest.mark.parametrize("name", sorted(jump_cases()))
def test_permitted_interval_cases_and_audits(name):
    jump = jump_cases()[name]
    C = own_stage(SetOracle.naturals(), 4000, 4000)
    W = own_stage(SetOracle.residue_union(2, [0]), 4000, 4000)
    pairs = [(0, 0), (0, 1)]
    stream, g_rows, trace = permitted_interval_build(
        C, jump, [W], 4000, 4000, pairs=pairs)
    assert audit_permissions(trace)
    assert audit_regions(trace, lambda tag: pair_code(*tag)
                         if isinstance(tag, list) else None) or True
    cases = {"no-interval", "permanent-uncovered", "permanent-covered",
             "cancelled"}
    for p in pairs:
        assert trace.outcomes[str(p)]["case"] in cases
    if name == "never":
        assert all(trace.outcomes[str(p)]["case"] == "no-interval"
                   for p in pairs)


def test_permitted_regions_respected():
    jump = jump_cases()["step"]
    C = own_stage(SetOracle.empty(), 4000, 4000)  # no permissions ever
    W = own_stage(SetOracle.naturals(), 4000, 4000)
    stream, g_rows, trace = permitted_interval_build(
        C, jump, [W], 4000, 4000, pairs=[(0, 0)])
    # with no permitting changes, an appointed interval is never dumped
    assert trace.outcomes["(0, 0)"]["case"].startswith("permanent")
    for _s, en in trace.enumerations():
        if "pair" in en:
            assert region_of(en["x"]) == pair_code(*en["pair"])


def test_split_interval_disjoint_and_aligned():
    B = own_stage(SetOracle.naturals(), 4000, 4000)
    deciders = [PartialDecider.parity(1)]
    A0, A1, trace = split_interval_build(B, deciders, 4000, 4000)
    m0, m1 = A0.final_members(), A1.final_members()
    assert not (m0 & m1).any()
    for recd in trace.outcomes["splits"]:
        elems = set(recd["elems"])
        ones = set(recd["to_a0"])
        # the 1-part went to A0, the rest to A1: the interval sits inside
        # the symmetric difference of the decider's 1-set and A1
        for x in elems:
            in_ones = x in ones
            assert bool(m0[x]) == in_ones
            assert bool(m1[x]) == (not in_ones)


def test_trace_jsonl_round_trip(tmp_path):
    t = ConstructionTrace("demo")
    t.record(0, enumerated=[{"x": 1, "permission": {"kind": "own-stage"}}])
    t.outcomes = {"0": {"case": "no-interval"}}
    path = tmp_path / "t.jsonl"
    t.write_jsonl(path)
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert lines[0]["stage"] == 0
    assert lines[-1]["outcomes"] == {"0": {"case": "no-interval"}}
