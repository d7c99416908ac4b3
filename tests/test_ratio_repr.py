"""The ``Ratio`` column (``core.rho_columns``' third column) against
``repr(p / q)``: every p/q with q <= 300, Hypothesis draws inside the numpy
kernel's decimal class (0 < p < q < 2^31, p/q >= 10^-4) and far outside it,
chunks that mix every row class ``core._ratio_field`` routes, and the edge
cases.  ``tests/sweep_ratio_repr.py`` runs a wider sweep."""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import core
from cedensity.core import Ratio, csv_bytes, write_columns


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
    # each of these rows is a unit, terminating or kernel row: no chunk
    # calls the float64 path at all
    assert slow == []


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


# -- the row classes of core._ratio_field --------------------------------------

BIG = 2**63 - 1


def significant_digits(text: str) -> int:
    return len(text.split(".")[1].lstrip("0"))


def _short_reprs():
    """Decimal-class p/q that do not terminate (reduced q has a prime
    factor besides 2 and 5) but whose repr has 15 significant digits or
    fewer, from a seeded sample: the kernel's shorter-digit search.  About
    one p/q in 20 with q near 2^31 has one."""
    rng = np.random.default_rng(27)
    qs = rng.integers(10**4, 2**31, 40000)
    ps = rng.integers(qs // 10**4 + 1, qs)
    out = []
    for p, q in zip(ps.tolist(), qs.tolist()):
        den = Fraction(p, q).denominator
        while den % 2 == 0:
            den //= 2
        while den % 5 == 0:
            den //= 5
        if den > 1 and significant_digits(repr(p / q)) <= 15:
            out.append((p, q))
    return out


SHORT = _short_reprs()


def test_the_short_pool_reaches_below_15_digits():
    digits = {significant_digits(repr(p / q)) for p, q in SHORT}
    assert len(SHORT) > 1000 and min(digits) <= 13


def _terminating(a):
    """p/q for q = 2^a·5^b <= BIG, 0 <= p <= q."""
    b = 0
    while 2**a * 5**(b + 1) <= BIG:
        b += 1
    return st.integers(0, b).flatmap(
        lambda b: st.integers(0, 2**a * 5**b).map(lambda p: (p, 2**a * 5**b)))


UNITS = st.one_of(st.integers(1, BIG).map(lambda q: (0, q)),
                  st.integers(1, BIG).map(lambda q: (q, q)))
TERMINATING = st.integers(0, 62).flatmap(_terminating)
KERNEL = st.integers(2, 2**31 - 1).flatmap(
    lambda q: st.integers(max(1, -(-q // 10**4)), q - 1).map(lambda p: (p, q)))
OUTSIDE = st.one_of(
    # above 1
    st.integers(1, 2**40).flatmap(
        lambda q: st.integers(q + 1, BIG).map(lambda p: (p, q))),
    # negative
    st.tuples(st.integers(-BIG - 1, -1), st.integers(1, BIG)),
    # a denominator of 2^31 or more
    st.integers(2**31, BIG).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: (p, q))),
    # below 10^-4
    st.integers(10**4 + 1, 2**31 - 1).flatmap(
        lambda q: st.integers(1, (q - 1) // 10**4).map(lambda p: (p, q))))
CLASSES = st.one_of(UNITS, TERMINATING, st.sampled_from(SHORT), KERNEL,
                    OUTSIDE)


@settings(max_examples=80, deadline=None)
@given(st.lists(CLASSES, min_size=1, max_size=80))
def test_mixed_row_classes_match_repr(rows):
    ps, qs = zip(*rows)
    assert rendered(ps, qs) == reference(ps, qs)


@settings(max_examples=30, deadline=None)
@given(st.lists(UNITS, min_size=1, max_size=80))
def test_unit_chunks_match_repr(rows):
    ps, qs = zip(*rows)
    # a chunk of 0/q and q/q rows runs neither the kernel nor the float path
    with mock.patch.object(core, "_decimal", side_effect=AssertionError), \
            mock.patch.object(core, "_quotients", side_effect=AssertionError):
        assert rendered(ps, qs) == reference(ps, qs)


@settings(max_examples=15, deadline=None)
@given(st.lists(CLASSES, min_size=6, max_size=6),
       st.sampled_from([(1, 3), (0, 1), (1, 1), (2, 2**40)]))
def test_rows_at_chunk_edges_match_repr(tmp_path_factory, edges, filler):
    """A column of a little over two chunks of ``filler`` rows, with the
    drawn rows at the first and last row of each chunk."""
    chunk = core._CHUNK_ROWS
    size = 2 * chunk + 1
    ps, qs = np.full(size, filler[0]), np.full(size, filler[1])
    for at, (p, q) in zip([0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk,
                           size - 1], edges):
        ps[at], qs[at] = p, q
    path = tmp_path_factory.mktemp("edges") / "ratio.csv"
    write_columns(path, "rho\n", [Ratio(ps, qs)])
    assert path.read_bytes() == b"rho\n" + reference(ps.tolist(),
                                                      qs.tolist())
