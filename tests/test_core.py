from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import core
from cedensity.core import (CEStream, DensityProfile, NEVER, SetOracle,
                            ceil_div, ceil_sqrt, density_profile,
                            dyadic_class, dyadic_union,
                            dyadic_union_from_binary, prefix_count,
                            profile_from_bits, residue_union_density, rho,
                            trailing_zeros)
from cedensity.errors import InvalidResidue, InvalidWindow


def test_prefix_count_and_rho():
    evens = SetOracle.residue_union(2, [0])
    assert prefix_count(evens, 10) == 5
    assert rho(evens, 10) == Fraction(1, 2)
    assert rho(evens, 7) == Fraction(4, 7)
    assert rho(SetOracle.empty(), 100) == 0
    assert rho(SetOracle.naturals(), 100) == 1


def test_explicit_and_complement():
    s = SetOracle.explicit([1, 4, 9])
    assert [s.contains(i) for i in range(5)] == [False, True, False, False,
                                                 True]
    assert prefix_count(s, 10) == 3


def test_explicit_rejects_negative_elements():
    # -1 used to wrap around to the last index of membership_array
    with pytest.raises(InvalidWindow):
        SetOracle.explicit([-1, 2])
    s = SetOracle.explicit([0, 2])
    assert s.membership_array(5).tolist() == [s.contains(i) for i in range(5)]


def test_trailing_zeros():
    assert trailing_zeros(1) == 0
    assert trailing_zeros(8) == 3
    assert trailing_zeros(12) == 2
    with pytest.raises(ValueError):
        trailing_zeros(0)


def test_dyadic_class_membership():
    r0 = dyadic_class(0)  # odd numbers
    assert [r0.contains(i) for i in range(1, 6)] == [True, False, True,
                                                     False, True]
    r2 = dyadic_class(2)
    # members are m with m % 8 == 4
    assert r2.contains(4) and r2.contains(12) and not r2.contains(8)
    assert not r2.contains(0)


def test_dyadic_classes_partition_positives():
    n = 4096
    cover = np.zeros(n, dtype=int)
    for k in range(13):
        cover += dyadic_class(k).membership_array(n).astype(int)
    assert cover[0] == 0
    assert np.all(cover[1:] == 1)


def test_dyadic_class_density_at_multiples():
    for k in range(6):
        oracle = dyadic_class(k)
        period = 1 << (k + 1)
        prof = density_profile(oracle, period * 32)
        for j in (1, 7, 32):
            assert prof.rho(period * j) == Fraction(1, period)


def test_dyadic_union_density():
    # classes 0 and 1 together have density 1/2 + 1/4
    u = dyadic_union([0, 1])
    assert rho(u, 1024) == Fraction(3, 4)
    assert not u.contains(0)
    z = dyadic_union([0], include_zero=True)
    assert z.contains(0)


def test_dyadic_union_from_binary_matches_indices():
    bits = [1, 0, 1]  # classes 0 and 2
    a = dyadic_union_from_binary(bits)
    b = dyadic_union([0, 2])
    n = 512
    assert np.array_equal(a.membership_array(n), b.membership_array(n))


def test_profile_counts_and_window_bounds():
    prof = density_profile(SetOracle.residue_union(2, [0]), 10)
    assert prof.count(10) == 5
    lo, hi = prof.window_bounds(2, 10)
    assert lo == Fraction(1, 2)
    assert hi == Fraction(2, 3)  # at n = 3: {0, 2}
    with pytest.raises(InvalidWindow):
        prof.window_bounds(0, 5)
    with pytest.raises(InvalidWindow):
        prof.rho(11)


@settings(max_examples=60)
@given(st.lists(st.booleans(), min_size=1, max_size=200),
       st.data())
def test_window_bounds_match_bruteforce(bits, data):
    prof = profile_from_bits(np.array(bits, dtype=bool))
    lo = data.draw(st.integers(1, len(bits)))
    hi = data.draw(st.integers(lo, len(bits)))
    want_min = min(Fraction(prof.count(n), n) for n in range(lo, hi + 1))
    want_max = max(Fraction(prof.count(n), n) for n in range(lo, hi + 1))
    assert prof.window_bounds(lo, hi) == (want_min, want_max)


def reference_window_bounds(prof, lo, hi):
    """The loop window_bounds ran before it compared only the rows tied
    with the float extreme: from the float argmin (argmax), any row of the
    window that beats it exactly, until none does."""
    c = core.exact_ints(prof.counts[lo:hi + 1], hi * hi)
    n = core.exact_ints(np.arange(lo, hi + 1), hi * hi)
    ratios = c / n
    out = []
    for sign, i in ((1, ratios.argmin()), (-1, ratios.argmax())):
        while (beats := np.flatnonzero(
                sign * (c * n[i] - c[i] * n) < 0)).size:
            i = beats[0]
        out.append(Fraction(int(c[i]), int(n[i])))
    return out[0], out[1]


def _bit_patterns():
    """Bitsets with many exact and float ties: constant, empty and
    periodic sets, and arbitrary ones."""
    periodic = st.tuples(st.lists(st.booleans(), min_size=1, max_size=7),
                         st.integers(1, 300)).map(
        lambda pr: (pr[0] * (pr[1] // len(pr[0]) + 1))[:pr[1]])
    return st.one_of(st.integers(1, 300).map(lambda k: [True] * k),
                     st.integers(1, 300).map(lambda k: [False] * k),
                     periodic, st.lists(st.booleans(), min_size=1,
                                        max_size=300))


@settings(max_examples=150)
@given(_bit_patterns(), st.data())
def test_window_bounds_match_the_full_scan(bits, data):
    prof = profile_from_bits(np.array(bits, dtype=bool))
    lo = data.draw(st.integers(1, len(bits)), label="lo")
    hi = data.draw(st.one_of(st.just(lo), st.integers(lo, len(bits))),
                   label="hi")
    assert prof.window_bounds(lo, hi) == reference_window_bounds(prof, lo, hi)


@pytest.mark.parametrize("lo, hi", [(1, 10**6), (999_000, 10**6),
                                    (77, 77)])
def test_window_bounds_of_constant_and_tied_sets(lo, hi):
    n = np.arange(10**6)
    for bits in (n >= 0, n < 0, n % 6 < 2, n % 10**5 == 0):
        prof = profile_from_bits(bits)
        assert prof.window_bounds(lo, hi) == reference_window_bounds(
            prof, lo, hi)


@settings(max_examples=40)
@given(st.integers(1, 24), st.data())
def test_residue_union_density_is_exact_at_multiples(m, data):
    residues = data.draw(st.lists(st.integers(0, m - 1), max_size=m,
                                  unique=True))
    want = residue_union_density(m, residues)
    assert want == Fraction(len(residues), m)
    prof = density_profile(SetOracle.residue_union(m, residues), 5 * m)
    assert all(prof.rho(k * m) == want for k in range(1, 6))


def test_residue_union_rejects_bad_residue():
    with pytest.raises(InvalidResidue):
        residue_union_density(4, [4])
    with pytest.raises(InvalidResidue):
        residue_union_density(0, [])


def test_ceil_helpers():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(16) == 4
    assert ceil_sqrt(17) == 5
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4


@given(st.integers(0, 10**9))
def test_ceil_sqrt_property(n):
    c = ceil_sqrt(n)
    assert c * c >= n and (c == 0 or (c - 1) * (c - 1) < n)


def test_cestream_snapshots_monotone():
    s = CEStream.from_schedule([(0, 3), (5, 1), (7, 9)], n_max=10,
                               stage_max=20)
    assert not s.snapshot(2)[0] and s.snapshot(3)[0]
    prev = 0
    for t in range(21):
        c = int(s.snapshot(t).sum())
        assert c >= prev
        prev = c
    assert int(s.snapshot(20).sum()) == 3
    assert list(np.nonzero(s.final_members())[0]) == [0, 5, 7]


def test_cestream_from_schedule_rejects_duplicates():
    with pytest.raises(ValueError):
        CEStream.from_schedule([(3, 1), (3, 2)], n_max=10, stage_max=10)


def test_cestream_from_oracle_default_delay():
    s = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=8,
                             stage_max=8)
    assert s.entry[4] == 4 and s.entry[1] == NEVER


def test_stage_profile():
    s = CEStream.from_oracle(SetOracle.naturals(), n_max=10, stage_max=10)
    prof = core.stage_profile(s, 4)
    assert prof.count(10) == 5  # {0..4} entered by stage 4


@pytest.mark.parametrize("m", [-1, -3, 3, 5])
def test_index_outside_the_window_is_invalid(m):
    # a negative index must not wrap to the end of the array
    with pytest.raises(InvalidWindow):
        SetOracle.from_bits([0, 0, 1]).contains(m)
    assert SetOracle.from_bits([0, 0, 1]).contains(2)


@pytest.mark.parametrize("s", [NEVER, 10**30])
def test_never_entries_stay_out_of_every_snapshot(s):
    evens = SetOracle.residue_union(2, [0])
    stream = CEStream.from_oracle(evens, n_max=10, stage_max=s)
    assert stream.final_members().tolist() == [m % 2 == 0 for m in range(10)]
    assert stream.snapshot(s).tolist() == stream.snapshot(20).tolist()
    assert stream.snapshot(s)[2] and not stream.snapshot(s)[1]
    assert int(stream.snapshot(s).sum()) == 5
