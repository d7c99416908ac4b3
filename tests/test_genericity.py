from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import genericity as gen
from cedensity.core import CEStream, SetOracle, residue_union_density
from cedensity.errors import BudgetExceeded, CapExceeded, ContractViolated
from cedensity.prioritysim import PartialDecider


def test_codec_examples():
    assert gen.index_to_set(0) == frozenset()
    assert gen.index_to_set(5) == frozenset({0, 2})
    assert gen.set_to_index({0, 2}) == 5
    assert gen.set_to_index(frozenset()) == 0


@given(st.integers(0, 2**40))
def test_codec_round_trip(n):
    assert gen.set_to_index(gen.index_to_set(n)) == n


@given(st.frozensets(st.integers(0, 62), max_size=20))
def test_codec_round_trip_sets(D):
    assert gen.index_to_set(gen.set_to_index(D)) == D


def test_codec_width_cap():
    with pytest.raises(CapExceeded):
        gen.set_to_index({gen.INDEX_WIDTH_CAP})
    assert gen.set_to_index({gen.INDEX_WIDTH_CAP},
                            allow_large=True) == 1 << gen.INDEX_WIDTH_CAP


def test_avoid_density_small_cases():
    dens, mod, residues = gen.avoid_density(set())
    assert (dens, mod, residues) == (Fraction(1), 1, [0])
    dens, mod, residues = gen.avoid_density({0})
    assert dens == Fraction(1, 2) and mod == 2 and residues == [0]
    dens, mod, residues = gen.avoid_density({1, 3})
    assert dens == Fraction(1, 4) and mod == 16
    assert residue_union_density(mod, residues) == dens


def test_avoid_density_matches_decoded_sets():
    # direct check against the codec on a small window
    D = {0, 2}
    dens, mod, residues = gen.avoid_density(D)
    hits = [n for n in range(4 * mod) if not (gen.index_to_set(n) & D)]
    assert len(hits) == 4 * mod * dens
    assert all(n % mod in residues for n in hits)


def test_hitset_oracle():
    X = SetOracle.explicit([1])
    C, psi = gen.hitset_oracle(X)
    # n meets X iff bit 1 of n is set
    want = [n for n in range(32) if n & 2]
    got = [n for n in range(32) if C.contains(n)]
    assert got == want
    assert np.array_equal(C.membership_array(64),
                          np.array([bool(n & 2) for n in range(64)]))
    assert psi.eval(2, 0) == 1
    assert psi.eval(1, 10**6) is None  # one-sided: silent off C


def test_evaluate_partial_and_report():
    evens = SetOracle.residue_union(2, [0])
    good = PartialDecider.parity(delay=1)
    rep = gen.evaluate_partial(good, evens, 500, 100)
    assert rep.agrees_on_domain
    assert rep.domain_window_min() == 1
    report = gen.density_verdict(
        gen.evaluate_partial(good, evens, 500, 10**4), Fraction(1))
    assert report["verdict"] and report["errors"] == []

    # a decider defined only on multiples of 4 has window density well below 1
    sparse = PartialDecider(
        lambda n, s: (1 if n % 2 == 0 else 0) if n % 4 == 0 else None)
    report = gen.density_verdict(
        gen.evaluate_partial(sparse, evens, 500, 10**4), Fraction(7, 8))
    assert report["agrees"] and not report["verdict"]


def strong_array_fixture(indices, n_max=2**16):
    pairs = [(n, i) for i, n in enumerate(indices)]
    return CEStream.from_schedule(pairs, n_max=n_max, stage_max=len(indices))


def test_strong_array_extract():
    X = SetOracle.explicit([0, 3, 5])
    # indices decode to {0}, {3}, {0,5}, {5,6}
    T = strong_array_fixture([1, 8, 33, 96])
    out = gen.strong_array_extract(T, X, 3)
    assert len(out) == 3
    seen = set()
    for piece in out:
        assert piece & {0, 3, 5}
        assert not (piece & seen)
        seen |= piece


def test_strong_array_contract_and_budget():
    X = SetOracle.explicit([0])
    bad = strong_array_fixture([2])  # decodes to {1}, misses X
    with pytest.raises(ContractViolated):
        gen.strong_array_extract(bad, X, 1)
    short = strong_array_fixture([1])
    with pytest.raises(BudgetExceeded) as exc:
        gen.strong_array_extract(short, X, 2)
    assert exc.value.partial == [frozenset({0})]
