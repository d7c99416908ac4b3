"""The ``Ratio`` column (``core.rho_columns``' third column) against
``repr(p / q)``: every p/q with q <= 300, Hypothesis draws inside the numpy
kernel's fast domain (0 < p < q < 2^31, p/q >= 10^-4) and far outside it,
and the edge cases.  ``tests/sweep_ratio_repr.py`` runs a wider sweep."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import core
from cedensity.core import Ratio, csv_bytes


def rendered(ps, qs) -> bytes:
    return csv_bytes([Ratio(np.array(ps, dtype=np.int64),
                            np.array(qs, dtype=np.int64))])


def reference(ps, qs) -> bytes:
    return "".join(repr(p / q) + "\n" for p, q in zip(ps, qs)).encode()


def every_ratio(q_max):
    qs = [q for q in range(1, q_max + 1) for _ in range(q + 1)]
    ps = [p for q in range(1, q_max + 1) for p in range(q + 1)]
    return ps, qs


def test_every_ratio_up_to_300():
    ps, qs = every_ratio(300)
    assert rendered(ps, qs) == reference(ps, qs)


def test_most_rows_skip_the_repr_fallback(monkeypatch):
    # a kernel that sent every row to repr would pass every other test here
    slow = []
    quotients = core._quotients
    monkeypatch.setattr(core, "_quotients",
                        lambda p, q: slow.append(p.size) or quotients(p, q))
    ps, qs = every_ratio(300)
    rendered(ps, qs)
    assert sum(slow) < 0.15 * len(ps)


EDGES = [(0, 1), (1, 1), (1, 2), (1, 8), (3, 5), (1, 3), (2, 3), (1, 7),
         (1, 10**4), (1, 10**4 + 1), (1, 99999), (214748, 2147483647),
         (2147483646, 2147483647), (1, 2147483647), (10**9, 10**9 + 7),
         (5, 2**40), (-1, 3), (2**62, 3), (-2**63, 2**63 - 1),
         (2**53 + 1, 2**62 + 1), (7, 7)]


def test_edge_cases():
    ps, qs = zip(*EDGES)
    assert rendered(ps, qs) == reference(ps, qs)
    # 1/99999 falls back to the scientific form; 1/3 and 1/7 need 16 and 17
    # digits
    assert rendered([1, 1, 1], [99999, 3, 7]) == (
        b"1.000010000100001e-05\n0.3333333333333333\n0.14285714285714285\n")


@st.composite
def pairs(draw, q_max, negative=False):
    q = draw(st.integers(1, q_max))
    return draw(st.integers(-q if negative else 0, q)), q


@settings(max_examples=60, deadline=None)
@given(st.lists(pairs(2**31 - 1), min_size=1, max_size=60))
def test_fast_domain_matches_repr(rows):
    ps, qs = zip(*rows)
    assert rendered(ps, qs) == reference(ps, qs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(pairs(2**62, negative=True), pairs(2**31 - 1)),
                min_size=1, max_size=60))
def test_wide_ratios_match_repr(rows):
    ps, qs = zip(*rows)
    assert rendered(ps, qs) == reference(ps, qs)
