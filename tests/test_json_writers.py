"""The JSON writers against the standard library's own layouts.

``write_json`` and ``write_jsonl`` call the standard encoder, and
``save_artifact`` encodes its payload once in two halves around the digest
key.  The references: ``json.dump(indent=1)`` for files,
``json.dumps(sort_keys=True)`` for JSONL lines, and the sorted compact
``json.dumps`` of the payload with its digest for artifacts.
``compact_json`` writes int64 array leaves as lists; its reference is
``json.dumps`` of the payload with each array as its ``tolist()``.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity.core import _HOLE, compact_json, write_json, write_jsonl


def ref_write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def ref_write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def ref_save_artifact(art, path):
    payload = ar.artifact_payload(art)
    payload["integrity_sha256"] = hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


# strings full of the bytes JSON escapes or structures with
tricky_text = st.text(
    st.sampled_from('"\\,:[]{} \n\tabé☃\U0001f600\x00\x1f')
    | st.characters(), max_size=12)
scalars = (st.none() | st.booleans()
           | st.integers(min_value=-2**100, max_value=2**100)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan])
           | tricky_text)
json_trees = st.recursive(
    scalars | st.just([]) | st.just({}),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(min_value=-2**70, max_value=2**70)
               | st.booleans(), max_size=6)
    | st.dictionaries(tricky_text, inner, max_size=5),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_write_json_matches_json_dump(tmp_path_factory, tree):
    d = tmp_path_factory.mktemp("json")
    write_json(d / "got.json", tree)
    ref_write_json(d / "want.json", tree)
    assert (d / "got.json").read_bytes() == (d / "want.json").read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(tricky_text, json_trees, max_size=3)
                | json_trees, max_size=4))
def test_write_jsonl_matches_json_dumps(tmp_path_factory, records):
    d = tmp_path_factory.mktemp("jsonl")
    write_jsonl(d / "got.jsonl", records)
    ref_write_jsonl(d / "want.jsonl", records)
    assert (d / "got.jsonl").read_bytes() == (d / "want.jsonl").read_bytes()


def listed(tree):
    """tree with each array leaf as its list of ints."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {k: listed(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [listed(v) for v in tree]
    return tree


# int64 arrays, empty ones and the extremes among them, in trees that may
# also hold the mark the writer splits at, as an int or inside a string
int64s = (st.integers(-2**63, 2**63 - 1)
          | st.sampled_from([0, -1, -2**63, 2**63 - 1, _HOLE]))
int64_arrays = st.lists(int64s, max_size=8).map(
    lambda values: np.array(values, dtype=np.int64))
marks = st.sampled_from([_HOLE, _HOLE - 1, 10 * _HOLE, f"a{_HOLE}"])
array_trees = st.recursive(
    json_trees | int64_arrays | marks,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(tricky_text, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(array_trees)
def test_compact_json_writes_arrays_as_their_lists(tree):
    want = json.dumps(listed(tree), sort_keys=True, separators=(",", ":"))
    assert compact_json(tree) == want.encode()


def test_compact_json_takes_the_list_path_past_the_mark():
    runs = np.arange(5, dtype=np.int64)
    for payload in ({"a": runs, "b": _HOLE}, {"a": runs, "b": [str(_HOLE)]},
                    {"a": [runs, runs], "b": 10 * _HOLE}):
        want = json.dumps(listed(payload), sort_keys=True,
                          separators=(",", ":"))
        assert compact_json(payload) == want.encode()
    for leaf in (np.int64(1), runs.reshape(1, 5), runs.astype(np.int32)):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            compact_json({"a": leaf})


# artifacts whose nested dicts hold the top-level keys, the digest key
# and strings that look like it
artifact_keys = st.sampled_from(["kind", "meta", "n_max", "integrity_sha256",
                                 "bits_rle", "guarantee", "zz", ""])
nested = st.dictionaries(artifact_keys | tricky_text,
                         json_trees | st.just("integrity_sha256"),
                         max_size=5)


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=1, max_size=80),
       kind=st.sampled_from(["integrity_sha256", "checkpoint_subset", ""])
       | tricky_text,
       checkpoints=st.lists(nested, max_size=4),
       guarantee=nested, diagnostics=st.lists(json_trees, max_size=3),
       meta=nested)
def test_save_artifact_matches_old_writer(tmp_path_factory, bits, kind,
                                          checkpoints, guarantee,
                                          diagnostics, meta):
    art = ap.SubsetArtifact(kind, np.array(bits, dtype=bool),
                            checkpoints=checkpoints, guarantee=guarantee,
                            diagnostics=diagnostics, meta=meta)
    d = tmp_path_factory.mktemp("art")
    ar.save_artifact(art, d / "got.json")
    ref_save_artifact(art, d / "want.json")
    assert (d / "got.json").read_bytes() == (d / "want.json").read_bytes()


def test_saved_digest_is_the_canonical_one(tmp_path):
    art = ap.SubsetArtifact("k", np.array([1, 0, 1], dtype=bool),
                            guarantee={"integrity_sha256": "x", "kind": 1},
                            meta={"integrity_sha256": {"kind": []}})
    ar.save_artifact(art, tmp_path / "a.json")
    payload = json.loads((tmp_path / "a.json").read_text())
    digest = payload.pop("integrity_sha256")
    assert digest == hashlib.sha256(ar._canonical(payload)).hexdigest()
    assert ar.load_artifact(tmp_path / "a.json").meta == art.meta
