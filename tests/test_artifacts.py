import contextlib
import hashlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders, cli, prioritysim
from cedensity.core import CEStream, SetOracle
from cedensity.errors import ArtifactError

FIXTURES = Path(__file__).parent / "fixtures" / "v1"


def sample_artifact(n_max=500):
    stream = CEStream.from_oracle(SetOracle.residue_union(2, [0]),
                                  n_max=n_max, stage_max=2 * n_max)
    return ap.checkpoint_subset(stream, "1/4")


@given(st.lists(st.booleans(), max_size=300))
def test_rle_round_trip(bits):
    b = np.array(bits, dtype=bool)
    runs = ar.bits_to_rle(b)
    assert np.array_equal(ar.rle_to_bits(runs, b.size), b)
    # alternating runs: all positive except a possible leading zero-length
    assert all(r > 0 for r in runs[1:])


def test_rle_rejects_inconsistent_lengths():
    with pytest.raises(ArtifactError):
        ar.rle_to_bits([3, 2], 4)
    with pytest.raises(ArtifactError):
        ar.rle_to_bits([1], 4)


def test_save_load_round_trip(tmp_path):
    art = sample_artifact()
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    back = ar.load_artifact(path)
    assert back.kind == art.kind
    assert np.array_equal(back.bits, art.bits)
    assert back.checkpoints == art.checkpoints
    assert back.guarantee == art.guarantee
    assert ar.verify_artifact(back)["ok"]


def test_load_rejects_tampered_bytes(tmp_path):
    art = sample_artifact()
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    raw = path.read_text()
    i = raw.index('"n_max":') + len('"n_max":')
    flip = "9" if raw[i] != "9" else "8"
    (tmp_path / "b.json").write_text(raw[:i] + flip + raw[i + 1:])
    with pytest.raises(ArtifactError):
        ar.load_artifact(tmp_path / "b.json")


def test_load_rejects_missing_digest(tmp_path):
    art = sample_artifact()
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    payload = json.loads(path.read_text())
    payload.pop("integrity_sha256")
    path.write_text(json.dumps(payload))
    with pytest.raises(ArtifactError):
        ar.load_artifact(path)


def redigest(payload):
    payload.pop("integrity_sha256", None)
    payload["integrity_sha256"] = hashlib.sha256(
        ar._canonical(payload)).hexdigest()
    return payload


def test_verify_catches_semantic_corruption(tmp_path):
    art = sample_artifact()
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    payload = json.loads(path.read_text())
    payload["checkpoints"][1]["count"] += 1
    path.write_text(json.dumps(redigest(payload)))
    back = ar.load_artifact(path)  # digest is consistent again
    rep = ar.verify_artifact(back)
    assert not rep["ok"] and rep["failures"]


def test_verify_catches_bit_flip_in_certified_block(tmp_path):
    art = sample_artifact()
    # clear a selected bit inside a certified prefix
    idx = int(np.nonzero(art.bits)[0][0])
    art.bits[idx] = False
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    rep = ar.verify_artifact(ar.load_artifact(path))
    assert not rep["ok"]


def test_verify_infsup_artifact(tmp_path):
    art = builders.infsup_build(["1/3", "2/3"] * 3, 6, 10**6)
    path = tmp_path / "i.json"
    ar.save_artifact(art, path)
    assert ar.verify_artifact(ar.load_artifact(path))["ok"]


def test_unknown_guarantee_form_fails_closed():
    art = sample_artifact()
    art.guarantee = {"form": "no-such-form"}
    rep = ar.verify_artifact(art)
    assert not rep["ok"]


def test_format_version_checked(tmp_path):
    art = sample_artifact()
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(redigest(payload)))
    with pytest.raises(ArtifactError):
        ar.load_artifact(path)


def test_certified_csv_export(tmp_path):
    art = sample_artifact()
    path = tmp_path / "c.csv"
    ar.write_certified_csv(art, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,count,lower_num,lower_den,upper_num,upper_den,holds"
    assert len(lines) == len(art.checkpoints)  # one per non-trivial checkpoint
    assert all(line.endswith(",1") for line in lines[1:])

    look = ap.lookahead_subset(
        CEStream.from_oracle(SetOracle.naturals(), n_max=50, stage_max=100),
        "1/2")
    ar.write_certified_csv(look, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 51  # header + one row per window n
    assert all(line.endswith(",1") for line in lines[1:])


def _redigest(payload):
    payload.pop("integrity_sha256")
    payload["integrity_sha256"] = hashlib.sha256(
        ar._canonical(payload)).hexdigest()
    return payload


def test_check_reports_out_of_window_checkpoint(tmp_path, capsys):
    path = tmp_path / "a.json"
    ar.save_artifact(sample_artifact(n_max=100), path)
    payload = json.loads(path.read_text())
    payload["checkpoints"][-1]["s"] = 500
    path.write_text(json.dumps(_redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint s 500 outside [0, 100]" in err
    assert "Traceback" not in err


def _approach_checkpoints(last_n):
    """Five target-approach checkpoints, the last one numbered last_n."""
    cps = [{"n": n, "s": n + 1, "count": 0, "q_num": 1, "q_den": 2}
           for n in range(5)]
    cps[-1]["n"] = last_n
    return cps


def _interval(**kw):
    return dict({"a": 2, "b": 3, "c": 3, "e": 1, "state": "waiting",
                 "witness": None, "block_count": 0, "r_b": 0, "r_c": 0},
                **kw)


@pytest.mark.parametrize("form, bits, records, guarantee, message", [
    ("target-approach", 64, [{"n": 0, "s": -1, "count": 0, "q_num": 1,
                              "q_den": 2}], {},
     "checkpoint s -1 outside [0, 64]"),
    ("lookahead-margin", 16, [], {"q_num": 1, "q_den": 2, "n0": -3},
     "n0 -3 outside [0, 17]"),
    ("blockwise-levels", 10, [], {"levels": [[1, 1], [5, 2]]},
     "block 5 outside [1, 2]"),
    ("ratio-interval-report", 10, [_interval(c=10)], {},
     "interval c 10 outside [0, 9]"),
    ("ratio-interval-report", 10, [_interval(state="finalized", witness=12)],
     {}, "witness 12 outside [0, 9]"),
    ("restraint-report", 4, [{"k": 0, "final_interval": [2, 40]}], {},
     "final interval end 40 outside [0, 4]"),
    ("target-approach", 64, _approach_checkpoints(-1), {},
     "checkpoint n -1 outside [0, 4]"),
    ("target-approach", 64, _approach_checkpoints(-2), {},
     "checkpoint n -2 outside [0, 4]"),
])
def test_out_of_window_records_fail_verification(tmp_path, form, bits,
                                                 records, guarantee, message):
    art = ap.SubsetArtifact("tampered", np.zeros(bits, dtype=bool), records,
                            dict(guarantee, form=form))
    assert ar.verify_artifact(art) == {"ok": False, "failures": [message]}
    ar.write_certified_csv(art, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == ar.CSV_HEADER


@pytest.mark.parametrize("form, bits, records, field, value, message", [
    ("restraint-report", 4, [{"k": 0, "final_interval": [2, 4]}],
     "k", -5, "k -5 is negative"),
    ("ratio-interval-report", 10, [_interval()], "e", -3,
     "interval e -3 is negative"),
    ("tracking-checkpoint-ratio", 4,
     [{"s": 0, "t": 0, "count": 0},
      {"s": 2, "t": 2, "count": 0, "target_num": 1, "target_den": 4,
       "slack_pow": 1, "observed_unslacked": False}],
     "slack_pow", -1, "slack_pow -1 is negative"),
])
def test_check_reports_negative_exponent(tmp_path, capsys, form, bits,
                                         records, field, value, message):
    path = tmp_path / "a.json"
    ar.save_artifact(ap.SubsetArtifact(
        "tampered", np.zeros(bits, dtype=bool), records, {"form": form}),
        path)
    payload = json.loads(path.read_text())
    payload["checkpoints"][-1][field] = value
    path.write_text(json.dumps(_redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    art = ar.load_artifact(path)
    assert ar.verify_artifact(art) == {"ok": False, "failures": [message]}
    ar.write_certified_csv(art, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == ar.CSV_HEADER


@pytest.mark.parametrize("runs", [["a", 3], [1.5, 2], [[1]], [10**30],
                                  [True], [-1, 101], "ab", None])
def test_check_rejects_bad_run_lengths(tmp_path, capsys, runs):
    path = tmp_path / "a.json"
    ar.save_artifact(sample_artifact(n_max=100), path)
    payload = json.loads(path.read_text())
    payload["bits_rle"] = runs
    path.write_text(json.dumps(_redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    err = capsys.readouterr().err
    assert "run-length data inconsistent with n_max" in err
    assert "Traceback" not in err


def test_check_rejects_a_window_past_memory(tmp_path, capsys):
    # the runs agree with n_max and the digest covers them, but no machine
    # holds 10^18 bits; numpy refuses the allocation at once
    with open(FIXTURES / "membership-only.json") as fh:
        payload = json.load(fh)
    payload.update(n_max=999999999999999999, bits_rle=[999999999999999999])
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("FAIL: a window of 999999999999999999 bits cannot "
                          "be held in memory")
    assert "Traceback" not in err


def _sample_payload(**changes):
    payload = ar.artifact_payload(sample_artifact(n_max=100))
    for key, value in changes.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    return payload


def _form_payload(form, bits, **guarantee):
    """A payload of ``form`` over ``bits`` zero bits; each per-n table of
    the form that ``guarantee`` leaves out holds zeros from n0 (or 1)."""
    arrays = ar.FORMS[form].arrays if isinstance(form, str) else ()
    n0 = guarantee.get("n0")
    size = bits + 1 - (n0 if type(n0) is int else 1)
    tables = {name: np.zeros(size, dtype=np.int64) for name in arrays}
    return ar.artifact_payload(ap.SubsetArtifact(
        "tampered", np.zeros(bits, dtype=bool), [],
        dict(tables, **guarantee, form=form)))


def _tracking_payload(**target):
    """A tracking artifact whose one target, 3/2 (beyond 1, as a config may
    ask), is changed by ``target``."""
    cps = [{"s": 0, "t": 0, "count": 0},
           dict({"s": 2, "t": 2, "count": 0, "target_num": 3,
                 "target_den": 2, "slack_pow": 1,
                 "observed_unslacked": False}, **target)]
    return ar.artifact_payload(ap.SubsetArtifact(
        "tampered", np.zeros(4, dtype=bool), cps,
        {"form": "tracking-checkpoint-ratio"}))


def _approach_payload(**q):
    cps = [dict({"n": 0, "s": 1, "count": 1, "q_num": 1, "q_den": 2}, **q)]
    return ar.artifact_payload(ap.SubsetArtifact(
        "tampered", np.ones(1, dtype=bool), cps, {"form": "target-approach"}))


def _without_count():
    payload = _sample_payload()
    del payload["checkpoints"][-1]["count"]
    return payload


def test_tracking_target_past_one_verifies():
    # a config may track targets outside (0, 1); only their form is checked
    payload = _tracking_payload(count=2)
    art = ap.SubsetArtifact("t", np.ones(4, dtype=bool),
                            payload["checkpoints"], payload["guarantee"])
    assert ar.verify_artifact(art) == {"ok": True, "failures": []}


@pytest.mark.parametrize("payload, message", [
    (_sample_payload(kind=None), "artifact field 'kind' must be a string"),
    (_sample_payload(bits_rle=None),
     "run-length data inconsistent with n_max"),
    (_sample_payload(checkpoints=None),
     "artifact field 'checkpoints' must be an array"),
    (_sample_payload(guarantee=None),
     "artifact field 'guarantee' must be an object"),
    (_sample_payload(n_max=None), "artifact field 'n_max' must be an integer"),
    (_sample_payload(guarantee=[]),
     "artifact field 'guarantee' must be an object"),
    ([1], "artifact is not a JSON object"),
    (_without_count(), "malformed checkpoint-ratio record: KeyError('count')"),
    (_form_payload("lookahead-margin", 16, q_num=1, q_den=2),
     "malformed lookahead-margin record: KeyError('n0')"),
    (_form_payload("blockwise-levels", 10, levels=[[1]]),
     "malformed blockwise-levels record: ValueError("),
    (_form_payload("lookahead-margin", 16, q_num=1, q_den=2, n0=1.5),
     "malformed lookahead-margin record: "
     "TypeError('n0 1.5 is not an integer')"),
    (_form_payload(["lookahead-margin"], 3),
     "unknown guarantee form ['lookahead-margin']"),
    (_form_payload("witness-margin", 3, h_of_n=[5]),
     "guarantee table 'h_of_n': 1 packed integers, expected 3"),
    (_form_payload("lookahead-margin", 16, q_num=1, q_den=0, n0=1),
     "malformed lookahead-margin record: "
     "ValueError('q 1/0 is not a ratio in (0, 1)')"),
    (_form_payload("lookahead-margin", 16, q_num=True, q_den=2, n0=1),
     "malformed lookahead-margin record: "
     "ValueError('q True/2 is not a ratio in (0, 1)')"),
    (_sample_payload(guarantee={"form": "checkpoint-ratio", "q_num": -3,
                                "q_den": -1}),
     "malformed checkpoint-ratio record: "
     "ValueError('q -3/-1 is not a ratio in (0, 1)')"),
    (_sample_payload(guarantee={"form": "checkpoint-ratio", "q_num": 1,
                                "q_den": 1}),
     "malformed checkpoint-ratio record: "
     "ValueError('q 1/1 is not a ratio in (0, 1)')"),
    (_tracking_payload(target_den=0),
     "malformed tracking-checkpoint-ratio record: "
     "ValueError('target 3/0 is not a ratio with a denominator >= 1')"),
    (_tracking_payload(target_num=2.5),
     "malformed tracking-checkpoint-ratio record: "
     "ValueError('target 2.5/2 is not a ratio with a denominator >= 1')"),
    (_approach_payload(q_num=0),
     "malformed target-approach record: "
     "ValueError('q 0/2 is not a ratio in (0, 1)')"),
    (_approach_payload(q_den=False),
     "malformed target-approach record: "
     "ValueError('q 1/False is not a ratio in (0, 1)')"),
])
def test_check_rejects_malformed_artifact(tmp_path, capsys, payload, message):
    path = tmp_path / "a.json"
    if isinstance(payload, dict):
        payload = redigest(payload)
    path.write_text(json.dumps(payload))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    if "form" in message:  # the record fails its form, not the load
        art = ar.load_artifact(path)
        (failure,) = ar.verify_artifact(art)["failures"]
        assert failure.startswith(message)
        assert ar.labelled_failures(art)[0][0] == "form"
        ar.write_certified_csv(art, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_text() == ar.CSV_HEADER


# -- format 2: per-n tables and interval counts ------------------------------

def _relative(n_max=40):
    stream = CEStream.from_oracle(SetOracle.naturals(), n_max=n_max,
                                  stage_max=4 * n_max,
                                  delay_fn=lambda m: 2 * m + 1)
    return ap.limit_witness_subset(stream, ap.LimitApprox(lambda k, s: 2 ** k))


def test_relative_margin_is_checked_from_in_a_not_its_flag(tmp_path):
    art = _relative()
    art.guarantee["holds"] = False  # compared with the rows, not trusted
    assert ar.labelled_failures(art) == [(
        "verdict", "stored verdict holds=False, first_violation=None "
                   "disagrees with the margin check, which holds")]
    ar.write_certified_csv(art, tmp_path / "c.csv")
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    assert len(rows) == 40 and all(row.endswith(",1") for row in rows)
    art.guarantee["holds"] = True
    empty = ap.SubsetArtifact(art.kind, np.zeros(40, dtype=bool),
                              guarantee=art.guarantee)
    verdict, *failures = ar.verify_artifact(empty)["failures"]
    assert verdict.endswith("which first fails at n=4")
    assert failures[0].startswith("certified row fails: 4,0,")
    assert all(f.startswith("certified row fails: ") for f in failures)


def test_in_a_outside_its_window_fails_before_any_bound(tmp_path):
    art = _relative()
    art.guarantee["in_a"] = art.guarantee["in_a"].copy()
    art.guarantee["in_a"][4] = 6  # n = 5
    assert ar.verify_artifact(art) == {
        "ok": False, "failures": ["in_a[5] 6 outside [0, 5]"]}
    ar.write_certified_csv(art, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == ar.CSV_HEADER


def test_in_a_range_names_the_first_bad_n_at_each_end_of_the_window():
    # the look-ahead window is [n0, n_max] = [4, 64]: in_a[i] belongs to n0 + i
    stream = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=64,
                                  stage_max=256, delay_fn=lambda m: 2 * m)
    art = ap.lookahead_subset(stream, "1/3", n0=4)
    good = art.guarantee["in_a"]
    for changes, failure in (({0: -1}, "in_a[4] -1 outside [0, 4]"),
                             ({0: 5}, "in_a[4] 5 outside [0, 4]"),
                             ({-1: 65}, "in_a[64] 65 outside [0, 64]"),
                             ({-1: -(1 << 62)},
                              f"in_a[64] {-(1 << 62)} outside [0, 64]"),
                             ({0: 5, -1: 65}, "in_a[4] 5 outside [0, 4]")):
        art.guarantee["in_a"] = good.copy()
        for i, value in changes.items():
            art.guarantee["in_a"][i] = value
        assert ar.labelled_failures(art) == [("window", failure)]
    relative = _relative()
    relative.guarantee["in_a"] = relative.guarantee["in_a"].copy()
    relative.guarantee["in_a"][[0, -1]] = 2, 41  # n = 1 and n = 40
    assert ar.verify_artifact(relative)["failures"] == [
        "in_a[1] 2 outside [0, 1]"]


def test_lookahead_in_a_must_meet_q():
    stream = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=64,
                                  stage_max=256, delay_fn=lambda m: 2 * m)
    art = ap.lookahead_subset(stream, "1/3", n0=4)
    assert ar.verify_artifact(art)["ok"]
    art.guarantee["in_a"] = art.guarantee["in_a"].copy()
    art.guarantee["in_a"][0] = 1  # n = 4, ceil(4/3) = 2
    assert ar.labelled_failures(art) == [
        ("in_a", "in_a[4] = 1 is below ceil(q·n) = 2")]


def test_tables_must_match_the_window():
    art = _relative()
    art.guarantee["s_table"] = art.guarantee["s_table"][1:]
    (failure,) = ar.verify_artifact(art)["failures"]
    assert failure == ("malformed lookahead-margin-relative record: "
                       "ValueError('s_table must hold 40 int64 values')")


@pytest.mark.parametrize("h", [-3, -(1 << 40)])
def test_witness_exponents_must_not_be_negative(tmp_path, capsys, h):
    # numpy's n >> h is 0 for a negative h: a different, unstated bound
    naturals = CEStream.from_oracle(SetOracle.naturals(), n_max=40,
                                    stage_max=80)
    art = ap.witnessed_subset(naturals, lambda k: 2 ** k)
    assert ar.verify_artifact(art)["ok"]
    art.guarantee["h_of_n"] = art.guarantee["h_of_n"].copy()
    art.guarantee["h_of_n"][4] = h  # n = 5
    message = f"h_of_n[5] {h} is negative"
    assert ar.labelled_failures(art) == [("exponent", message)]
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    assert cli.main(["check", "--artifact", str(path)]) == 4
    assert capsys.readouterr().err == f"FAIL: {message}\n"
    ar.write_certified_csv(ar.load_artifact(path), tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == ar.CSV_HEADER


def _counted(**kw):
    # [0, 2] for e = 0: b/c = 1/2, and S = {0, 1, 2} avoids no gap element
    return dict({"a": 0, "b": 1, "c": 2, "e": 0, "state": "completed",
                 "witness": None, "block_count": 3, "block_size": 3,
                 "r_b": 1, "r_c": 1, "gap_avoided": True,
                 "identity_exact": True}, **kw)


@pytest.mark.parametrize("record, failures", [
    (_counted(), []),
    (_counted(r_c=2), ["disagrees"]),
    (_counted(b=0, r_b=1, r_c=1), ["disagrees"]),
    (_counted(identity_exact=False), ["disagrees"]),
    (_counted(gap_avoided=False, identity_exact=None), ["disagrees"]),
    (_counted(r_b=0, r_c=0, identity_exact=True), []),
    (_counted(e=1), ["disagrees", "identity fails"]),
    (_counted(e=1, identity_exact=False), ["identity fails"]),
])
def test_interval_flags_are_recomputed_from_r_b_r_c(record, failures):
    art = ap.SubsetArtifact("t", np.ones(4, dtype=bool), [record],
                            {"form": "ratio-interval-report"})
    got = ar.verify_artifact(art)["failures"]
    assert len(got) == len(failures)
    assert all(want in f for want, f in zip(failures, got))


def test_v1_interval_records_keep_their_flag_check():
    record = _counted(e=1)
    del record["r_b"], record["r_c"]
    art = ap.SubsetArtifact("t", np.ones(4, dtype=bool), [record],
                            {"form": "ratio-interval-report"},
                            format_version=1)
    assert ar.verify_artifact(art)["ok"]
    art.checkpoints[0]["identity_exact"] = False
    assert ar.verify_artifact(art)["failures"] == [
        "interval [0,2]: exact ratio identity recorded violated"]


def test_meta_map_keys_are_saved_as_strings(tmp_path, capsys):
    # json sorts int keys as numbers on write, but as strings after a reload
    streams = [CEStream.from_oracle(SetOracle.residue_union(12, [i]),
                                    n_max=240, stage_max=480)
               for i in range(12)]
    st, report = prioritysim.prefix_gated_build(streams, 240, 480)
    assert sorted(report) == list(range(12))
    art = ap.SubsetArtifact("prefix_gated", st.final_members(),
                            guarantee={"form": "membership-only"},
                            meta={"report": report, "t": {3: {10: 1, 2: 0}}})
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    back = ar.load_artifact(path)
    assert back.meta == {"report": {str(k): v for k, v in report.items()},
                         "t": {"3": {"10": 1, "2": 0}}}
    assert ar.verify_artifact(back) == {"ok": True, "failures": []}
    assert cli.main(["check", "--artifact", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS: prefix_gated")


def _restraint_payload(version):
    if version == 1:
        with open(FIXTURES / "restraint-report.json") as fh:
            return json.load(fh)
    none, evens = (CEStream.from_oracle(oracle, n_max=200, stage_max=200)
                   for oracle in (SetOracle.empty(),
                                  SetOracle.residue_union(2, [0])))
    st, trace = prioritysim.restraint_witness_build([none, evens], 200, 200)
    return ar.artifact_payload(ap.SubsetArtifact(
        "restraint_witness", st.final_members(),
        [dict(v, k=k) for k, v in sorted(trace.outcomes.items())],
        {"form": "restraint-report"}))


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("field, message", [
    ("rho_m_num", "restraint k=0: stored rho_m 5/3 != bitset rho_m 1/3"),
    ("rho_m_den", "restraint k=0: stored rho_m 1/5 != bitset rho_m 1/3"),
    ("strictly_below_bound", "restraint k=0: stored strictly_below_bound "
                             "disagrees with the bitset"),
])
def test_restraint_stored_verdicts_are_recomputed(tmp_path, capsys, version,
                                                  field, message):
    payload = _restraint_payload(version)
    record = payload["checkpoints"][0]
    assert record["final_interval"] == [1, 3]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 0
    record[field] = False if field == "strictly_below_bound" else 5
    path.write_text(json.dumps(redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    assert message in capsys.readouterr().err
    assert ar.labelled_failures(ar.load_artifact(path)) == [
        ("verdict", message)]


# -- the look-ahead family's stored verdicts ----------------------------------

def _margin_artifact(form):
    """A valid artifact of the form and the producer's margin base and
    first n: its check is count >= base[n − first] − ceil_sqrt(n)."""
    if form == "lookahead-margin":
        # entries in bursts of 8 put in_a above ceil(q·n), so the
        # producer's check is stronger than the bound rows
        bursts = CEStream.from_oracle(SetOracle.naturals(), n_max=40,
                                      stage_max=80,
                                      delay_fn=lambda m: (m // 8 + 1) * 8)
        art = ap.lookahead_subset(bursts, "1/2", n0=3)
        return art, art.guarantee["in_a"], 3
    if form == "witness-margin":
        naturals = CEStream.from_oracle(SetOracle.naturals(), n_max=40,
                                        stage_max=80)
        art = ap.witnessed_subset(naturals, lambda k: 2 ** k)
        n = np.arange(1, 41)
        return art, n - (n >> art.guarantee["h_of_n"]), 1
    art = _relative()
    return art, art.guarantee["in_a"], 1


MARGIN_FORMS = ["lookahead-margin", "witness-margin",
                "lookahead-margin-relative"]


@pytest.mark.parametrize("form", MARGIN_FORMS)
@pytest.mark.parametrize("holds, first", [(False, None), (True, 7),
                                          (False, 7)])
def test_stored_margin_verdicts_are_recomputed(tmp_path, capsys, form, holds,
                                               first):
    art, _, _ = _margin_artifact(form)
    assert (art.guarantee["holds"], art.guarantee["first_violation"]) == (
        True, None)
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    assert cli.main(["check", "--artifact", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["guarantee"].update(holds=holds, first_violation=first)
    path.write_text(json.dumps(redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    message = (f"stored verdict holds={holds}, first_violation={first} "
               "disagrees with the margin check, which holds")
    assert capsys.readouterr().err == f"FAIL: {message}\n"
    assert ar.labelled_failures(ar.load_artifact(path)) == [
        ("verdict", message)]


@pytest.mark.parametrize("form", MARGIN_FORMS)
def test_a_failing_margin_must_store_its_first_failure(form):
    art, base, first_n = _margin_artifact(form)
    art.bits[8:] = False
    first = ap._margin_guarantee_holds(art.bits, base, first_n)
    assert first is not None
    art.guarantee.update(holds=False, first_violation=first)
    assert {label for label, _ in ar.labelled_failures(art)} == {"bound"}
    art.guarantee["first_violation"] = first + 1
    assert ar.labelled_failures(art)[0] == (
        "verdict", f"stored verdict holds=False, first_violation={first + 1} "
                   f"disagrees with the margin check, which first fails at "
                   f"n={first}")


def test_one_evaluation_takes_one_square_root_pass(monkeypatch):
    stream = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=200,
                                  stage_max=400)
    art = ap.lookahead_subset(stream, "1/3")
    sizes = []
    ceil_sqrt_array = ar.ceil_sqrt_array
    monkeypatch.setattr(ar, "ceil_sqrt_array",
                        lambda n: sizes.append(n.size) or ceil_sqrt_array(n))
    assert ar.verify_artifact(art)["ok"]
    assert sizes == [200]


# -- the guarantee's keys: the form's, and no others --------------------------

def _v1_guarantee(form):
    return json.loads((FIXTURES / f"{form}.json").read_text())


def _v2_lookahead():
    stream = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=60,
                                  stage_max=120)
    return ar.artifact_payload(ap.lookahead_subset(stream, "1/3", n0=4))


def _keyed(payload, drop=(), **extra):
    payload["guarantee"].update(extra)
    for key in drop:
        del payload["guarantee"][key]
    return payload


@pytest.mark.parametrize("payload, form, error", [
    (_keyed(_v2_lookahead(), extra=1), "lookahead-margin",
     "ValueError(\"unknown guarantee key 'extra'\")"),
    (_keyed(_v2_lookahead(), drop=["first_violation"]), "lookahead-margin",
     "KeyError('first_violation')"),
    (_keyed(_v1_guarantee("lookahead-margin"), drop=["first_violation"]),
     "lookahead-margin", "KeyError('first_violation')"),
    (_keyed(_v1_guarantee("lookahead-margin"), in_a=[0] * 39),
     "lookahead-margin", "ValueError(\"unknown guarantee key 'in_a'\")"),
    (_keyed(_v1_guarantee("witness-margin"), drop=["holds"]),
     "witness-margin", "KeyError('holds')"),
    (_keyed(_sample_payload(), n0=1), "checkpoint-ratio",
     "ValueError(\"unknown guarantee key 'n0'\")"),
    (_keyed(_v1_guarantee("membership-only"), q_num=1), "membership-only",
     "ValueError(\"unknown guarantee key 'q_num'\")"),
], ids=["extra", "no-first_violation", "v1-no-first_violation", "v1-in_a",
        "v1-no-holds", "checkpoint-n0", "membership-q_num"])
def test_guarantee_keys_are_the_forms(tmp_path, capsys, payload, form,
                                      error):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(redigest(payload)))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    message = f"malformed {form} record: {error}"
    assert capsys.readouterr().err == f"FAIL: {message}\n"
    art = ar.load_artifact(path)
    assert ar.labelled_failures(art) == [("form", message)]
    ar.write_certified_csv(art, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == ar.CSV_HEADER


# -- loading: the digest of the file's own bytes ------------------------------

def _saved_artifacts():
    stream = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=200,
                                  stage_max=400)
    return [sample_artifact(), ap.lookahead_subset(stream, "1/3"),
            _relative(), builders.infsup_build(["1/3", "2/3"] * 3, 6, 10**4),
            ap.SubsetArtifact("empty", np.zeros(0, dtype=bool),
                              guarantee={"form": "membership-only"},
                              meta={"t": {3: {10: 1}}, "label": "é"})]


def test_saved_files_load_without_a_re_encode(tmp_path, monkeypatch):
    paths = []
    for i, art in enumerate(_saved_artifacts()):
        paths.append(tmp_path / f"{i}.json")
        ar.save_artifact(art, paths[-1])
    calls = []
    canonical = ar._canonical
    monkeypatch.setattr(ar, "_canonical",
                        lambda payload: calls.append(1) or canonical(payload))
    for path in paths:
        assert ar.verify_artifact(ar.load_artifact(path))["ok"]
    assert calls == []
    # format 1's indented files and json.dumps layouts: the re-encode
    v1 = sorted(p for p in FIXTURES.glob("*.json") if p.name != "configs.json")
    for path in v1:
        assert ar.verify_artifact(ar.load_artifact(path))["ok"]
    assert len(calls) == len(v1)
    for path in paths:
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(payload))
        ar.load_artifact(path)
        path.write_text(json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")))  # no final LF
        ar.load_artifact(path)
    assert len(calls) == len(v1) + len(paths)


def test_every_single_bit_flip_is_caught(tmp_path):
    path = tmp_path / "a.json"
    ar.save_artifact(sample_artifact(n_max=24), path)
    raw = path.read_bytes()
    assert ar.verify_artifact(ar.load_artifact(path))["ok"]
    flipped = tmp_path / "b.json"
    for i in range(len(raw)):
        for bit in range(8):
            flipped.write_bytes(raw[:i] + bytes([raw[i] ^ 1 << bit])
                                + raw[i + 1:])
            try:
                art = ar.load_artifact(flipped)
            except ArtifactError:
                continue
            assert not ar.verify_artifact(art)["ok"], (i, bit)


def test_a_digest_of_the_files_own_bytes_loads_in_any_layout(tmp_path):
    # the digest is unkeyed: it detects corruption, not who wrote the file
    payload = ar.artifact_payload(sample_artifact())
    spaced = json.dumps(payload, sort_keys=True, separators=(", ", ": "))
    head, tail = spaced[:-1].encode(), b'"z": 0}'
    digest = hashlib.sha256(head + b"," + tail).hexdigest()
    path = tmp_path / "a.json"
    path.write_bytes(b'%s,"integrity_sha256":"%s",%s\n'
                     % (head, digest.encode(), tail))
    assert ar.verify_artifact(ar.load_artifact(path))["ok"]
    path.write_bytes(path.read_bytes().replace(b'"z": 0', b'"z": 1'))
    with pytest.raises(ArtifactError, match="integrity digest mismatch"):
        ar.load_artifact(path)


# -- loading: the runs of a saved file, read in numpy ---------------------------

def json_path_load(path):
    """load_artifact as it read every file before its runs were read in
    numpy: the whole file through JSON.  The reference for the fast read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw.decode())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"unreadable artifact: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError("artifact is not a JSON object")
    digest = payload.pop("integrity_sha256", None)
    if digest is None:
        raise ArtifactError("artifact missing integrity digest")
    if not (ar._digest_covers(raw, digest) or hashlib.sha256(
            ar._canonical(payload)).hexdigest() == digest):
        raise ArtifactError("integrity digest mismatch")
    version = payload.get("format_version")
    if type(version) is not int or version not in (1, ar.FORMAT_VERSION):
        raise ArtifactError(f"unsupported format version {version}")
    for key, (t, name) in ar._FIELD_TYPES.items():
        if type(payload.get(key)) is not t:
            raise ArtifactError(f"artifact field {key!r} must be {name}")
    n_max, guarantee = payload["n_max"], payload["guarantee"]
    bits = ar.rle_to_bits(payload.get("bits_rle"), n_max)
    form = ar._form(guarantee.get("form"), version) or ar.Form()
    size = ar._table_size(form, guarantee, n_max)
    for name in form.arrays:
        try:
            guarantee[name] = (ar._v1_ints if version == 1
                               else ar.packed_to_ints)(
                guarantee.get(name), size)
        except ArtifactError as exc:
            raise ArtifactError(f"guarantee table {name!r}: {exc}") from exc
    return ap.SubsetArtifact(payload["kind"], bits,
                             checkpoints=payload["checkpoints"],
                             guarantee=guarantee,
                             diagnostics=payload["diagnostics"],
                             meta=payload["meta"], format_version=version)


def test_saved_files_read_their_runs_in_numpy(tmp_path):
    for i, art in enumerate(_saved_artifacts()):
        path = tmp_path / f"{i}.json"
        ar.save_artifact(art, path)
        raw = path.read_bytes()
        fast, slow = ar._saved_payload(raw), ar._json_payload(raw)
        if art.n_max == 0:  # "bits_rle":[] is left to the JSON path
            assert fast is None
            continue
        assert fast.pop("bits_rle").tolist() == slow.pop("bits_rle")
        assert fast == slow


# run texts JSON reads otherwise than as a plain int, or not at all
_ODD_RUNS = st.sampled_from([
    "007", "00", "-3", "+3", "-0", " 3", "3 ", "3\n", "true", "null", "1.0",
    "1e2", '"3"', "[3]", "9" * 18, "9" * 19, "1" + "0" * 18, str(2**63 - 1),
    str(2**63), str(-2**63), ""])
_RUN_TEXTS = st.lists(st.integers(0, 40).map(str) | _ODD_RUNS, max_size=6)


def _runs_file(runs: str, n_max: int, edit: str) -> bytes:
    """A membership-only artifact laid out as save_artifact lays it out,
    with ``runs`` as the text between the brackets of its bits_rle, edited
    by ``edit``, and the digest of its own bytes unless edit says not."""
    head = b'{"bits_rle":[%s%s],"checkpoints":[],"diagnostics":[],' % (
        runs.encode(), b"," if edit == "trailing-comma" else b"")
    head += b'"format_version":2,"guarantee":{"form":"membership-only"}'
    head += b',"kind":"k"'
    if edit == "no-bracket":
        head = head.replace(b"]", b"", 1)
    tail = b'"meta":{},"n_max":%d}' % n_max
    if edit == "duplicate":  # JSON keeps the last of a duplicate key
        tail = tail[:-1] + b',"bits_rle":[%d]}' % min(n_max, 200)
    digest = hashlib.sha256(head + b"," + tail).hexdigest()
    if edit == "stale":
        digest = hashlib.sha256(head + b"," + tail + b" ").hexdigest()
    elif edit == "re-encoded":  # a digest of the payload, not of these bytes
        try:
            digest = hashlib.sha256(ar._canonical(
                json.loads(head + b"," + tail))).hexdigest()
        except ValueError:
            pass
        head = head.replace(b'"kind":"k"', b'"kind": "k"')
    return b'%s,"integrity_sha256":"%s",%s\n' % (head, digest.encode(), tail)


def _outcome(load, path):
    """What load makes of the file, and what `cedensity check` prints and
    returns when it loads with load."""
    try:
        art = load(path)
        got = (art.bits.tolist(), art.kind, art.n_max, art.checkpoints,
               art.guarantee, art.diagnostics, art.meta, art.format_version)
    except ArtifactError as exc:
        got = str(exc)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(ar, "load_artifact", load), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", "--artifact", str(path)])
    return got, code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_RUN_TEXTS, st.integers(-1, 2), st.sampled_from(
    ["none", "trailing-comma", "no-bracket", "duplicate", "stale",
     "re-encoded"]))
def test_fast_read_matches_the_json_path(tmp_path_factory, texts, offset,
                                         edit):
    try:
        runs = json.loads(f"[{','.join(texts)}]")
        total = sum(r for r in runs if type(r) is int)
    except ValueError:
        total = 0
    # a window past 200 bits stays inconsistent, so no load fills it
    n_max = total + offset if total <= 200 else total + 1
    path = tmp_path_factory.mktemp("runs") / "a.json"
    path.write_bytes(_runs_file(",".join(texts), max(n_max, 0), edit))
    assert _outcome(ar.load_artifact, path) == _outcome(json_path_load, path)
