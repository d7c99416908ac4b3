"""The packed form of per-n integer tables: ``ints_to_packed`` and
``packed_to_ints`` against plain lists, and each way a packed value is
rejected."""

import base64

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cedensity import artifacts as ar
from cedensity.errors import ArtifactError

INT64 = st.integers(-2**63, 2**63 - 1)


def plain(values):
    return [int(v) for v in ar.packed_to_ints(ar.ints_to_packed(values))]


@given(st.lists(INT64, max_size=60))
def test_round_trip_of_any_int64_list(values):
    assert plain(values) == values


@given(st.lists(st.integers(-300, 300), max_size=60))
def test_round_trip_of_small_steps_both_ways(values):
    assert plain(values) == values


@given(st.sampled_from([1, 2, 4, 8]).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(-2**(8 * w - 1), 2**(8 * w - 1) - 1),
                         min_size=1, max_size=40))))
def test_round_trip_at_each_width(case):
    # the deltas of a cumulative sum are the drawn values, so the width is
    # the narrowest that holds them
    w, deltas = case
    values = np.cumsum(np.array(deltas, dtype=np.int64)).tolist()
    packed = ar.ints_to_packed(values)
    narrowest = next(v for v in (1, 2, 4, 8)
                     if all(-2**(8 * v - 1) <= d < 2**(8 * v - 1)
                            for d in deltas))
    assert packed.startswith(f"i{narrowest}:") and narrowest <= w
    assert plain(values) == values


@pytest.mark.parametrize("values, packed", [
    ([], "i1:"),
    ([0, 1, 2], "i1:AAEB"),
    ([5, 3], "i1:Bf4="),
    ([0, 200], "i2:AADIAA=="),
    ([-2**63, 2**63 - 1], "i8:AAAAAAAAAID//////////w=="),
])
def test_fixed_packings(values, packed):
    assert ar.ints_to_packed(values) == packed
    assert ar.packed_to_ints(packed, len(values)).tolist() == values


def test_unpacked_table_is_a_fresh_int64_array():
    table = ar.packed_to_ints("i1:AQEB", 3)
    assert table.dtype == np.int64 and table.tolist() == [1, 2, 3]
    table[0] = 7  # writable, not a view of the decoded bytes


@pytest.mark.parametrize("value, message", [
    ([1, 2, 3], "is not a packed integer string"),
    (None, "is not a packed integer string"),
    (12, "is not a packed integer string"),
    ("i3:AAAA", "unknown packed integer width 'i3'"),
    ("u1:AAAA", "unknown packed integer width 'u1'"),
    ("AAAA", "unknown packed integer width 'AAAA'"),
    ("i1:AA*A", "packed integers are not base64"),
    ("i1:AAA", "packed integers are not base64"),
    ("i1:ÄAAA", "packed integers are not base64"),
    ("i2:AAAA", "3 packed bytes are not whole 2-byte ints"),
    ("i8:" + base64.b64encode(bytes(12)).decode(),
     "12 packed bytes are not whole 8-byte ints"),
    ("i1:AAAA", "3 packed integers, expected 4"),
])
def test_rejections(value, message):
    with pytest.raises(ArtifactError, match=message):
        ar.packed_to_ints(value, 4)
