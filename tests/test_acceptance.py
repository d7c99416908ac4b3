"""Acceptance suite: one test per criterion, each ending in a single
PASS/FAIL line.  All certified comparisons are exact (cross-multiplied
integers or Fraction); runtime limits are asserted where specified."""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from sortedcontainers import SortedList

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders, cli
from cedensity import genericity as gen
from cedensity.builders import (Delta2Approx, StableMonotoneG,
                                blockwise_limit_build, density_transfer_build,
                                extend_to_ratio, infsup_build,
                                interleave_targets, verify_blockwise,
                                verify_infsup)
from cedensity.core import (CEStream, SetOracle, ceil_div, ceil_sqrt,
                            dyadic_class, profile_from_bits)
from cedensity.errors import PreconditionViolated
from cedensity.prioritysim import (audit_permissions, pair_code, region_of,
                                   permitted_interval_build,
                                   ratio_interval_build,
                                   restraint_witness_build)

from conftest import make_decider_roster, make_jump_fixtures


def report(num, name, ok=True):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok


def test_criterion_01_dyadic_class_exactness():
    t0 = time.perf_counter()
    n_top = 1 << 20
    idx = np.arange(n_top + 1, dtype=np.int64)
    for k in range(11):
        period = 1 << (k + 1)
        bits = idx[:-1] % period == (1 << k)
        counts = np.zeros(n_top + 1, dtype=np.int64)
        np.cumsum(bits, out=counts[1:])
        multiples = np.arange(period, n_top + 1, period, dtype=np.int64)
        # rho at every multiple of the period is exactly 2^-(k+1)
        assert np.all(counts[multiples] * period == multiples)
        # cross-check the oracle-backed class on a sample
        oracle = dyadic_class(k)
        sample = oracle.membership_array(4 * period)
        assert np.array_equal(sample, bits[:4 * period])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, "dyadic-class density exact at all multiples, k <= 10")


# (stream, q) pairs measured to admit at least 20 checkpoints within
# n_max = 10^5; growth per checkpoint is too steep everywhere else
ADMITS_20 = {("1/4", "full-own"), ("1/4", "full-immediate"),
             ("1/4", "full-bursty"), ("1/4", "full-delayed"),
             ("1/4", "mod3-own"), ("1/4", "threequarters-own")}


def test_criterion_02_checkpoint_suite(big_suite):
    for q in ("1/4", "1/2", "3/4"):
        num, den = Fraction(q).numerator, Fraction(q).denominator
        for name, stream in big_suite.items():
            t0 = time.perf_counter()
            art = ap.checkpoint_subset(stream, q)
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"{q} {name}: {elapsed:.2f}s"
            counts = art.counts()
            for cp in art.checkpoints:
                s = cp["s"]
                assert int(counts[s]) == cp["count"]
                if s > 0:
                    assert int(counts[s]) * den >= num * s
            assert art.is_subset_of(stream)
            if (q, name) in ADMITS_20:
                assert len(art.checkpoints) >= 20, (q, name)
    report(2, "checkpoint extraction: exact ratios, subset scan, "
              ">=20 checkpoints where admitted, <10s per run")


def test_criterion_03_lookahead_margin(big_suite):
    checked = 0
    for q in ("1/4", "1/2", "3/4"):
        for name, stream in big_suite.items():
            try:
                art = ap.lookahead_subset(stream, q, n0=4)
            except PreconditionViolated:
                continue
            counts = art.counts()
            s_table = art.guarantee["s_table"]
            n0 = art.guarantee["n0"]
            entries = SortedList()
            for n in range(1, stream.n_max + 1):
                entries.add(int(stream.entry[n - 1]))
                if n < n0:
                    continue
                a_count = entries.bisect_right(int(s_table[n - n0]))
                assert int(counts[n]) >= a_count - ceil_sqrt(n), (q, name, n)
            checked += 1
    assert checked >= 20
    report(3, f"look-ahead integer margin holds on all n, zero tolerance "
              f"({checked} valid runs)")


def test_criterion_04_target_visiting_builder():
    seqs = {
        "constant": ["1/2"] * 8,
        "alternating": ["1/3", "2/3"] * 4,
        "convergent": [Fraction(1, 2) + Fraction(1, n + 2)
                       for n in range(8)],
        "clamped-endpoint": ["0", "1", "0", "1"],
        "interleaved": interleave_targets(["1/4", "1/5"], ["5/6", "4/5"],
                                          "1/2", 3),
    }
    for name, seq in seqs.items():
        art = infsup_build(seq, len(seq), 10**7)
        assert not art.diagnostics, name
        counts = art.counts()
        for cp in art.checkpoints:
            n, s = cp["n"], cp["s"]
            num, den = cp["q_num"], cp["q_den"]
            assert abs(int(counts[s]) * den - num * s) * (n + 1) <= s * den
        assert verify_infsup(art) == {"approach": True, "between": True}
    report(4, "target-visiting builder: |rho - q_n| <= 1/(n+1) and "
              "blockwise betweenness on 5 sequences")


def _check_extension(F, a, d, r, ext):
    G = ext.elements
    cnt = sum(1 for x in G if x < ext.c)
    assert Fraction(cnt, ext.c) == r
    assert ext.c > d and ext.c >= ext.b
    assert {x for x in G if x < a} == {x for x in F if x < a}
    assert {x for x in G if x >= a} - set(F) == set(range(a, ext.b)) - set(F)


def _brute_force_b(F, a, d, r):
    num, den = r.numerator, r.denominator
    b_start = max(a + 1, max(F) + 1 if F else 0)
    m0 = sum(1 for x in F if x < a) - a
    for b in range(b_start, b_start + den * (abs(d) + abs(m0) + num + 2)):
        size = m0 + b
        if size <= 0 or size % num:
            continue
        c = size // num * den
        if c > d and c >= b:
            return b
    raise AssertionError("no extension found by brute force")


def test_criterion_05_ratio_extension_randomized():
    rng = random.Random(20260823)
    for trial in range(1000):
        a = rng.randrange(0, 40)
        F = {x for x in range(a) if rng.random() < 0.4}
        d = rng.randrange(a, a + 80)
        den = rng.randrange(2, 51)
        r = Fraction(rng.randrange(1, den), den)
        ext = extend_to_ratio(F, a, d, r)
        _check_extension(F, a, d, r, ext)
        if trial < 50:
            assert ext.b == _brute_force_b(F, a, d, r)
    report(5, "exact-ratio extension: 1000 randomized instances exact, "
              "50 brute-force confirmed")


def test_criterion_06_blockwise_builder():
    t0 = time.perf_counter()
    fixtures = {
        "zero": lambda n, s: Fraction(0),
        "one": lambda n, s: Fraction(1),
        "half": lambda n, s: Fraction(1, 2),
        "harmonic": lambda n, s: Fraction(1, n + 1),
        "ramp": lambda n, s: min(Fraction(min(s, 8), 8), Fraction(3, 4)),
    }
    for name, g in fixtures.items():
        stream, levels = blockwise_limit_build(StableMonotoneG(g), 8, 40)
        rep = verify_blockwise(stream, levels)
        assert rep == {"block_density": True, "sandwich": True}, name
        assert set(levels) == set(range(1, 9))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s"
    report(6, "blockwise builder: exact block densities and endpoint "
              "sandwich for 8 blocks x 5 fixtures")


def test_criterion_07_density_transfer():
    W = 48
    evens = SetOracle.residue_union(2, [0]).membership_array(W)
    odds = SetOracle.residue_union(2, [1]).membership_array(W)
    mod3 = SetOracle.residue_union(3, [0]).membership_array(W)
    fixtures = {
        "evens": Delta2Approx.constant(evens),
        "empty": Delta2Approx.constant(np.zeros(W, dtype=bool)),
        "full": Delta2Approx.constant(np.ones(W, dtype=bool)),
        "mod3": Delta2Approx.constant(mod3),
        "flip": Delta2Approx(lambda s: odds if s >= 25 else evens, W),
    }
    for name, B in fixtures.items():
        stream, t, trace, rep = density_transfer_build(B, 6, 160, 10**5)
        for n in range(1, 7):
            assert rep["settled_identity"][n] is True, (name, n)
        assert all(rep["initial_segment"].values()), name
    report(7, "stagewise density transfer: settled identity exact for "
              "n <= 6 on 5 fixtures incl. mid-run flip")


def test_criterion_08_ratio_interval_roster():
    deciders = make_decider_roster()
    stream, intervals, trace = ratio_interval_build(deciders, 6000, 6000)
    members = stream.final_members()
    for e, out in trace.outcomes.items():
        below_floor = 0
        for iv in out["intervals"]:
            if iv["gap_avoided"] and iv["b"] >= 1:
                assert iv["identity_exact"] is True, (e, iv)
            if (iv["block_count"] * (1 << e)
                    < iv["block_size"] * ((1 << e) - 1)):
                below_floor += 1
            if iv["state"] == "finalized":
                w = iv["witness"]
                assert deciders[e].eval(w, 6000) == 1
                assert not members[w]
        assert below_floor <= 1, e
    assert trace.outcomes[0]["finalized"]  # the always-1 decider is met
    report(8, "exact-ratio interval strategy: identity, density floor, "
              "and concrete witnesses against a 5-decider roster")


def test_criterion_09_restraint_witness():
    n_max = 6000
    quiet = CEStream.from_oracle(SetOracle.empty(), n_max=n_max,
                                 stage_max=n_max)
    stream, trace = restraint_witness_build([quiet], n_max, n_max)
    out = trace.outcomes[0]
    assert out["final_interval"] is not None
    rho_m = Fraction(out["rho_m_num"], out["rho_m_den"])
    assert rho_m < 1 - Fraction(1, 4)  # strict, exact rationals
    assert out["strictly_below_bound"]

    noisy = CEStream.from_oracle(SetOracle.naturals(), n_max=n_max,
                                 stage_max=n_max)
    stream, trace = restraint_witness_build([noisy], n_max, n_max)
    members = stream.final_members()
    dumped = [en["x"] for _s, en in trace.enumerations()
              if en.get("via") == "dump"]
    assert dumped
    assert all(members[x] for x in dumped)
    report(9, "restrained interval: quiet stream pins rho_m(A) < 3/4, "
              "cancelled intervals land wholly in A")


def test_criterion_10_permitted_intervals():
    n_max = 6000
    C = CEStream.from_oracle(SetOracle.naturals(), n_max=n_max,
                             stage_max=n_max)
    W = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=n_max,
                             stage_max=n_max)
    cases = {"no-interval", "permanent-uncovered", "permanent-covered",
             "cancelled"}
    pairs = [(0, 0), (0, 1)]
    for name, jump in make_jump_fixtures().items():
        stream, g_changes, trace = permitted_interval_build(
            C, jump, [W], n_max, n_max, pairs=pairs)
        assert audit_permissions(trace), name
        for _s, en in trace.enumerations():
            if "pair" in en:  # region discipline for strategy enumerations
                assert region_of(en["x"]) == pair_code(*en["pair"])
        for p in pairs:
            assert trace.outcomes[str(p)]["case"] in cases, (name, p)
    report(10, "permitting: audited permissions, region discipline, "
               "four-way outcome classification on 3 jump fixtures")


def test_criterion_11_genericity():
    for n in range(1 << 20):
        if gen.set_to_index(gen.index_to_set(n)) != n:
            report(11, "canonical codec / densities / strong arrays", False)
    for mask in range(1 << 13):
        D = frozenset(i for i in range(13) if mask >> i & 1)
        dens, mod, residues = gen.avoid_density(D)
        assert dens == Fraction(1, 1 << len(D))
        assert len(residues) * dens.denominator == mod * dens.numerator
        if D:
            # profile check at multiples of the modulus over two periods
            m = max(D)
            bitmask = sum(1 << x for x in D)
            bits = (np.arange(2 * mod, dtype=np.int64) & bitmask) == 0
            counts = np.cumsum(bits)
            assert counts[mod - 1] * dens.denominator == mod * dens.numerator
            assert counts[2 * mod - 1] == 2 * counts[mod - 1]
    X = SetOracle.explicit([0, 3, 5])
    fixtures = [
        [1, 8, 33, 96],                       # {0},{3},{0,5},{5,6}
        [9, 10, 2**5 | 2**6],                 # {0,3}, skip {1,3}, {5,6}
        [2**3, 2**5 + 2**6, 2**10 + 2**3],
    ]
    for idx in fixtures:
        T = CEStream.from_schedule([(n, i) for i, n in enumerate(idx)],
                                   n_max=1 << 22, stage_max=len(idx))
        out = gen.strong_array_extract(T, X, 2)
        seen = set()
        for piece in out:
            assert piece & {0, 3, 5}
            assert not piece & seen
            seen |= piece
    report(11, "canonical codec round-trip (n < 2^20), avoidance densities "
               "for all D in [0,12], disjoint strong arrays on 3 fixtures")


def test_criterion_12_metrics_randomized():
    rng = np.random.default_rng(20260823)
    n = 10**4
    for _ in range(1000):
        a = rng.random(n) < rng.random()
        b = rng.random(n) < rng.random()
        c = rng.random(n) < rng.random()
        cab = np.cumsum(a ^ b)
        cbc = np.cumsum(b ^ c)
        cac = np.cumsum(a ^ c)
        assert np.all(cac <= cab + cbc)  # pointwise triangle inequality
        sub = b & a                      # forced subset pair
        assert np.all(np.cumsum(a ^ sub) == np.cumsum(a) - np.cumsum(sub))
    report(12, "symmetric-difference metrics: triangle inequality and "
               "difference identity on 1000 randomized instances")


def _run_twice(tmp_path, tag, argv_maker):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"{tag}{i}"
        assert cli.main(argv_maker(str(out))) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1], tag
    return tmp_path / f"{tag}1"


def test_criterion_13_cli_reproducibility(tmp_path):
    cfgs = {
        "density": {"universe": {"n_max": 1024, "stage_max": 2048},
                    "sets": [{"label": "r1", "kind": "dyadic-class",
                              "k": 1}]},
        "checkpoint": {"universe": {"n_max": 5000, "stage_max": 10000},
                       "sets": [{"label": "ev", "kind": "residue-union",
                                 "modulus": 2, "residues": [0]}],
                       "streams": [{"label": "evs", "set": "ev",
                                    "schedule": {"kind": "own-stage"}}],
                       "construction": {"op": "checkpoint-subset",
                                        "stream": "evs", "q": "1/4"}},
        "ratio": {"universe": {"n_max": 3000, "stage_max": 3000},
                  "deciders": [{"label": "one", "kind": "constant",
                                "value": 1}],
                  "construction": {"op": "ratio-interval",
                                   "deciders": ["one"]}},
        "metrics": {"universe": {"n_max": 2000, "stage_max": 2000},
                    "sets": [{"label": "all", "kind": "naturals"},
                             {"label": "ev", "kind": "residue-union",
                              "modulus": 2, "residues": [0]}],
                    "metrics": {"a": "all", "b": "ev"}},
    }
    artifact_paths = []
    for tag, cfg in cfgs.items():
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        cmd = ("construct" if "construction" in cfg
               else "metrics" if "metrics" in cfg else "density")
        out = _run_twice(tmp_path, tag,
                         lambda o, c=str(cfg_path), m=cmd:
                         [m, "--config", c, "--out", o])
        if cmd == "construct":
            artifact_paths.append(out / "artifact.json")
    for art in artifact_paths:
        assert cli.main(["check", "--artifact", str(art)]) == 0
    # ten single-bit mutations inside numeric tokens must all fail
    rng = random.Random(13)
    raw = bytearray(artifact_paths[0].read_bytes())
    digit_positions = [i for i, byte in enumerate(raw)
                       if chr(byte).isdigit()]
    for trial in range(10):
        mutated = bytearray(raw)
        mutated[rng.choice(digit_positions)] ^= 1
        mut_path = tmp_path / f"mut{trial}.json"
        mut_path.write_bytes(bytes(mutated))
        assert cli.main(["check", "--artifact", str(mut_path)]) == 4, trial
    report(13, "CLI: byte-identical reruns, artifacts verified, 10/10 "
               "single-bit mutations rejected")
