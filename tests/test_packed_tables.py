"""The packed form of per-n integer tables: ``ints_to_packed`` and
``packed_to_ints`` against plain lists, the ``"i<w>:"`` tables of earlier
files, each way a packed value is rejected, and the README's decoder."""

import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity.core import CEStream, SetOracle
from cedensity.errors import ArtifactError

INT64 = st.integers(-2**63, 2**63 - 1)
BITS = (1, 2, 4, 8, 16, 32, 64)
README = Path(__file__).resolve().parent.parent / "README.md"


def plain(values):
    packed = ar.ints_to_packed(values)
    return [int(v) for v in ar.packed_to_ints(packed, len(values))]


def wrap(v):
    return (v + 2**63) % 2**64 - 2**63


@given(st.lists(INT64, max_size=60))
def test_round_trip_of_any_int64_list(values):
    assert plain(values) == values


@given(st.lists(st.integers(-300, 300), max_size=60))
def test_round_trip_of_small_steps_both_ways(values):
    assert plain(values) == values


@given(st.sampled_from(BITS).flatmap(lambda b: st.tuples(
    st.just(b), INT64, INT64,
    st.lists(st.integers(0, 2**b - 1), max_size=40))))
def test_round_trip_at_each_width(case):
    # steps are lo plus b-bit fields, wrapping past int64; the head holds
    # the least step, and the width is the narrowest that holds the steps
    # less it, which is at most b unless a step wraps
    b, first, lo, fields = case
    values = [first]
    for f in fields:
        values.append(wrap(values[-1] + lo + f))
    packed = ar.ints_to_packed(values)
    steps = [wrap(lo + f) for f in fields]
    least = min(steps, default=0)
    narrowest = next(v for v in BITS if max(steps, default=0) - least < 2**v)
    assert packed.split(":")[:2] == [f"u{narrowest}", f"{first},{least}"]
    if all(-2**63 <= lo + f < 2**63 for f in fields):
        assert narrowest <= b
    assert len(base64.b64decode(packed.split(":")[2])) == -(
        -len(fields) * narrowest // 8)
    assert plain(values) == values


@given(st.sampled_from(BITS), st.lists(st.integers(0, 255), max_size=40))
def test_packed_fields_are_little_endian_from_the_low_bits(b, fields):
    fields = [f % 2**b for f in fields]
    values = np.cumsum([0, 0, *fields]).tolist()  # least step 0
    raw = base64.b64decode(ar.ints_to_packed(values).split(":")[2])
    as_int = int.from_bytes(raw, "little")
    width = next(v for v in BITS if max([0, *fields]) < 2**v)
    assert [as_int >> i * width & 2**width - 1
            for i in range(len(fields) + 1)] == [0, *fields]


@pytest.mark.parametrize("values, packed", [
    ([], "u1::"),
    ([7], "u1:7,0:"),
    ([0, 1, 2], "u1:0,1:AA=="),
    ([5, 3], "u1:5,-2:AA=="),
    ([54, 55, 55, 57, 58], "u2:54,0:YQ=="),
    ([0, 200, 200], "u8:0,0:yAA="),
    ([0, 1, 301], "u16:0,1:AAArAQ=="),
    ([-2**63, 2**63 - 1], "u1:-9223372036854775808,-1:AA=="),
    ([0, 2**63 - 1, -1],
     "u64:0,-9223372036854775808://////////8AAAAAAAAAAA=="),
])
def test_fixed_u_packings(values, packed):
    assert ar.ints_to_packed(values) == packed
    assert ar.packed_to_ints(packed, len(values)).tolist() == values


@pytest.mark.parametrize("values, packed", [
    ([], "i1:"),
    ([0, 1, 2], "i1:AAEB"),
    ([5, 3], "i1:Bf4="),
    ([0, 200], "i2:AADIAA=="),
    ([-2**63, 2**63 - 1], "i8:AAAAAAAAAID//////////w=="),
])
def test_fixed_packings(values, packed):
    # the "i<w>:" tables format 2 and the first format 3 files hold
    assert ar.packed_to_ints(packed, len(values)).tolist() == values
    assert ar.packed_to_ints(packed).tolist() == values
    assert plain(values) == values


def test_unpacked_table_is_a_fresh_int64_array():
    for packed in ("i1:AQEB", "u1:1,1:AA=="):
        table = ar.packed_to_ints(packed, 3)
        assert table.dtype == np.int64 and table.tolist() == [1, 2, 3]
        table[0] = 7  # writable, not a view of the decoded bytes


def test_without_a_size_every_field_the_bytes_hold_is_read():
    # below a byte the padding reads as fields: the size tells them apart
    assert ar.packed_to_ints("u1:0,1:AA==").tolist() == list(range(9))
    assert ar.packed_to_ints("u16:5,0:AAA=").tolist() == [5, 5]


@pytest.mark.parametrize("value, message", [
    ([1, 2, 3], "is not a packed integer string"),
    (None, "is not a packed integer string"),
    (12, "is not a packed integer string"),
    ("i3:AAAA", "unknown packed integer width 'i3'"),
    ("u3:AAAA", "unknown packed integer width 'u3'"),
    ("AAAA", "unknown packed integer width 'AAAA'"),
    ("i1:AA*A", "packed integers are not base64"),
    ("i1:AAA", "packed integers are not base64"),
    ("i1:ÄAAA", "packed integers are not base64"),
    ("i2:AAAA", "3 packed bytes are not whole 2-byte ints"),
    ("i8:" + base64.b64encode(bytes(12)).decode(),
     "12 packed bytes are not whole 8-byte ints"),
    ("i1:AAAA", "3 packed integers, expected 4"),
    ("u1:AAAA", "malformed packed table head 'u1:AAAA'"),
    ("u1:0,1", "malformed packed table head 'u1:0,1'"),
    ("u1:0:AA==", "malformed packed table head '0'"),
    ("u1:0,1,2:AA==", "malformed packed table head '0,1,2'"),
    ("u1:01,1:AA==", "malformed packed table head '01,1'"),
    ("u1:+1,1:AA==", "malformed packed table head '\\+1,1'"),
    ("u1:0, 1:AA==", "malformed packed table head '0, 1'"),
    ("u1:0,9223372036854775808:AA==",
     "malformed packed table head '0,9223372036854775808'"),
    ("u1::AA==", "malformed packed table head ''"),
    ("u1:0,1:A*==", "packed integers are not base64"),
    ("u16:0,1:AAAA", "3 packed bytes are not whole 2-byte ints"),
    ("u1::", "0 packed integers, expected 4"),
    ("u1:0,1:", "1 packed integers, expected 4"),
    ("u1:0,1:AAA=", "17 packed integers, expected 4"),
    ("u8:0,1:AAAAAA==", "5 packed integers, expected 4"),
    ("u1:0,1:CA==", "nonzero padding bits after the last field"),
    ("u2:0,1:QA==", "nonzero padding bits after the last field"),
    ("u4:0,1:ABA=", "nonzero padding bits after the last field"),
])
def test_rejections(value, message):
    with pytest.raises(ArtifactError, match=message):
        ar.packed_to_ints(value, 4)


def test_a_head_past_int64_digits_is_malformed():
    # no int() of an unbounded digit string, which Python may refuse
    with pytest.raises(ArtifactError, match="malformed packed table head"):
        ar.packed_to_ints("u1:" + "9" * 5000 + ",0:AA==", 4)


def test_an_empty_table_holds_no_head():
    assert ar.packed_to_ints("u1::", 0).tolist() == []
    with pytest.raises(ArtifactError, match="1 packed integers, expected 0"):
        ar.packed_to_ints("u1:0,0:", 0)


def _readme_decoder() -> str:
    """The README's standard-library decoder: the first python block after
    the sentence that introduces it."""
    text = README.read_text()
    start = text.index("The standard library")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


@pytest.mark.parametrize("delay, widths", [
    (None, {"in_a": "u1", "s_table": "u2"}),
    (lambda m: 2 * m + 3, {"in_a": "u1", "s_table": "u4"}),
])
def test_readme_decoder_reads_a_fresh_lookahead_artifact(delay, widths,
                                                         tmp_path):
    stream = CEStream.from_oracle(SetOracle.residue_union(6, [0, 1, 3]),
                                  n_max=3000, stage_max=6100,
                                  delay_fn=delay)
    art = ap.lookahead_subset(stream, "1/3")
    ar.save_artifact(art, tmp_path / "a.json")
    payload = json.loads((tmp_path / "a.json").read_text())["guarantee"]
    loaded = ar.load_artifact(tmp_path / "a.json").guarantee
    decoder = _readme_decoder()
    for name, tag in widths.items():
        assert payload[name].startswith(tag + ":")
        scope = {"text": payload[name], "size": loaded[name].size}
        exec(decoder, scope)
        assert scope["table"] == loaded[name].tolist() == art.guarantee[
            name].tolist()
