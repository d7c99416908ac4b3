from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity.core import SetOracle
from cedensity.metrics import symdiff_profile


def test_symdiff_profile_basic():
    full = SetOracle.naturals()
    evens = SetOracle.residue_union(2, [0])
    prof = symdiff_profile(full, evens, 10)
    assert prof.b_subset_of_a
    assert prof.sym.rho(10) == Fraction(1, 2)  # the odds


def test_dD_window_example():
    full = SetOracle.naturals()
    evens = SetOracle.residue_union(2, [0])
    lo, hi = symdiff_profile(full, evens, 10).sym.window_bounds(2, 10)
    # symmetric difference is the odds: min 1/3 at n = 3, max 1/2
    assert (lo, hi) == (Fraction(1, 3), Fraction(1, 2))


def test_subset_flag_is_verified_not_assumed():
    a = SetOracle.explicit([0, 1])
    b = SetOracle.explicit([2])
    prof = symdiff_profile(a, b, 4)
    assert not prof.b_subset_of_a


bitlists = st.lists(st.booleans(), min_size=1, max_size=150)


@settings(max_examples=80)
@given(bitlists, st.data())
def test_triangle_inequality_pointwise(abits, data):
    n = len(abits)
    bbits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cbits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    A = SetOracle.from_bits(abits)
    B = SetOracle.from_bits(bbits)
    C = SetOracle.from_bits(cbits)
    ac = symdiff_profile(A, C, n).sym
    ab = symdiff_profile(A, B, n).sym
    bc = symdiff_profile(B, C, n).sym
    for k in range(1, n + 1):
        assert ac.count(k) <= ab.count(k) + bc.count(k)


@settings(max_examples=80)
@given(bitlists, st.data())
def test_diff_identity_for_subsets(abits, data):
    n = len(abits)
    # force B below A bitwise so B is a subset
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bbits = [x and m for x, m in zip(abits, mask)]
    prof = symdiff_profile(SetOracle.from_bits(abits),
                           SetOracle.from_bits(bbits), n)
    assert prof.b_subset_of_a
    for k in range(1, n + 1):
        assert prof.sym.rho(k) == prof.a.rho(k) - prof.b.rho(k)


@settings(max_examples=40)
@given(bitlists, st.data())
def test_symdiff_symmetric(abits, data):
    n = len(abits)
    bbits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p1 = symdiff_profile(SetOracle.from_bits(abits),
                         SetOracle.from_bits(bbits), n)
    p2 = symdiff_profile(SetOracle.from_bits(bbits),
                         SetOracle.from_bits(abits), n)
    assert np.array_equal(p1.sym.counts, p2.sym.counts)


def test_csv_format(tmp_path):
    prof = symdiff_profile(SetOracle.naturals(),
                           SetOracle.residue_union(2, [0]), 3)
    path = tmp_path / "m.csv"
    prof.write_csv(path)
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == ("n,rhoA_num,rhoA_den,rhoA_float,rhoB_num,rhoB_den,"
                        "rhoB_float,rhoSym_num,rhoSym_den,rhoSym_float")
    assert lines[1] == "1,1,1,1.0,1,1,1.0,0,1,0.0"
