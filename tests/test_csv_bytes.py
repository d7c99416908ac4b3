"""The byte renderer of CSV rows (``core.csv_bytes`` / ``write_columns``)
against the per-value ``str`` join it replaced, and ``verify_artifact``'s
failure strings against the same join."""

import json
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders
from cedensity.core import CEStream, SetOracle, csv_bytes, write_columns


# -- the formatter the renderer replaced --------------------------------------

def reference_lines(cols) -> list:
    """One comma-joined line per row; a None column is an empty field and
    str() of a float is its repr."""
    fields = [repeat("") if col is None else map(str, col.tolist())
              for col in cols]
    return list(map(",".join, zip(*fields)))


def reference_bytes(cols) -> bytes:
    return "".join(line + "\n" for line in reference_lines(cols)).encode()


# -- columns: a small pool of values, spread over the rows by a seeded draw, so
# that every value recurs across the 4096-row chunk boundaries --------------

INT64_EDGES = [0, 1, -1, 9, 10, -10, 99, -100, 2**63 - 1, -(2**63 - 1),
               -2**63, 10**18, -10**18]
FLOAT_EDGES = [0.0, -0.0, 1.0, float("inf"), float("-inf"), float("nan"),
               5e-324, 2.2250738585072014e-308 / 3, 1e-05, 1e16, 0.1,
               1 / 3, 123456789.0, -2.5e-10]

POOLS = {
    "int64": st.lists(st.one_of(st.sampled_from(INT64_EDGES),
                                st.integers(-2**63, 2**63 - 1)),
                      min_size=1, max_size=12),
    "object": st.lists(st.one_of(st.integers(-2**200, 2**200),
                                 st.sampled_from([2**63, -2**63 - 1, 0])),
                       min_size=1, max_size=12),
    "uint8": st.just([0, 1]),
    "float": st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()),
                      min_size=1, max_size=12),
    "none": st.just(None),
}
DTYPES = {"int64": np.int64, "object": object, "uint8": np.uint8,
          "float": np.float64}


@st.composite
def tables(draw, rows=st.sampled_from([0, 1, 2, 4095, 4096, 4097, 9000])):
    n = draw(rows)
    kinds = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1,
                          max_size=6))
    if all(kind == "none" for kind in kinds):
        kinds.append("int64")  # the row count comes from some column
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        pool = draw(POOLS[kind])
        if pool is None:
            cols.append(None)
            continue
        pool = np.array(pool, dtype=DTYPES[kind])
        cols.append(pool[rng.integers(0, pool.size, n)])
    return cols


@settings(max_examples=60, deadline=None)
@given(tables())
def test_write_columns_matches_the_str_join(tmp_path_factory, cols):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_columns(path, "h\n", cols)
    assert path.read_bytes() == b"h\n" + reference_bytes(cols)


@settings(max_examples=150, deadline=None)
@given(tables(rows=st.integers(0, 40)))
def test_csv_bytes_matches_the_str_join(cols):
    assert csv_bytes(cols) == reference_bytes(cols)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
def test_chunk_edges(tmp_path, rows):
    ints = np.resize(np.array(INT64_EDGES, dtype=np.int64), rows)
    floats = np.resize(np.array(FLOAT_EDGES), rows)
    big = np.resize(np.array([2**64, -2**70, 7], dtype=object), rows)
    cols = [ints, None, floats, big, (ints % 2).astype(np.uint8), None]
    write_columns(tmp_path / "t.csv", "", cols)
    assert (tmp_path / "t.csv").read_bytes() == reference_bytes(cols)


# -- verify_artifact's failure strings -----------------------------------------

def _evens(n_max):
    return CEStream.from_oracle(SetOracle.residue_union(2, [0]),
                                n_max=n_max, stage_max=2 * n_max)


def _sparse(n_max):
    roster = [CEStream.from_oracle(SetOracle.naturals(), n_max=n_max,
                                   stage_max=n_max)] * 6
    entry, report = builders.sparse_hitting_build(roster, n_max, n_max)
    return ap.SubsetArtifact("sparse", entry.final_members(),
                             checkpoints=report,
                             guarantee={"form": "log-sparse"})


PRODUCERS = {
    # a q whose denominator puts the bound columns past int64 (object)
    "checkpoint-object": (lambda: ap.checkpoint_subset(
        _evens(600), f"{2**61 + 1}/{2**63}"), "clear"),
    "checkpoint": (lambda: ap.checkpoint_subset(_evens(600), "1/4"),
                   "clear"),
    "lookahead": (lambda: ap.lookahead_subset(_evens(600), "1/3"), "clear"),
    "approach": (lambda: builders.infsup_build(["1/3", "2/3"] * 3, 6, 10**4),
                 "clear"),
    "log-sparse": (lambda: _sparse(300), "set"),
}


def _reference_failures(art) -> list:
    form = ar.FORMS[art.guarantee["form"]]
    counts = art.counts()
    out = [msg for _, check in form.checks for msg in check(art, counts)]
    g = art.guarantee
    if g["form"] == "lookahead-margin":  # its producer's check, on the bits
        first = ap._margin_guarantee_holds(art.bits, g["in_a"], g["n0"])
        out.append(f"stored verdict holds=True, first_violation=None "
                   f"disagrees with the margin check, which first fails "
                   f"at n={first}")
    cols, holds = ar._bound_rows(form, art, counts)
    out += [f"certified row fails: {row}" for row in reference_lines(
        [None if col is None else col[~holds] for col in cols])]
    return out


def _flipped(art, how, tmp_path):
    """The artifact with a stretch of bits cleared or set, saved with a
    fresh digest and loaded back."""
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    payload = json.loads(path.read_text())
    bits = ar.rle_to_bits(payload["bits_rle"], payload["n_max"])
    lo = bits.size // 3
    bits[lo:] = how == "set"
    payload["bits_rle"] = ar.bits_to_rle(bits)
    payload.pop("integrity_sha256")
    payload["integrity_sha256"] = ar.hashlib.sha256(
        ar._canonical(payload)).hexdigest()
    path.write_text(json.dumps(payload))
    return ar.load_artifact(path)


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_failure_strings_match_the_str_join(tmp_path, producer):
    make, how = PRODUCERS[producer]
    art = _flipped(make(), how, tmp_path)
    want = _reference_failures(art)
    assert any(msg.startswith("certified row fails: ") for msg in want)
    assert ar.verify_artifact(art)["failures"] == want


def test_object_bound_columns_are_exercised():
    make, _ = PRODUCERS["checkpoint-object"]
    art = make()
    cols, _ = ar._bound_rows(ar.FORMS[art.guarantee["form"]], art,
                             art.counts())
    assert cols[2].dtype == object and cols[3].dtype == object
