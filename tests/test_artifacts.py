import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders, cli
from cedensity.core import CEStream, SetOracle
from cedensity.errors import ArtifactError


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
    i = raw.index('"n_max": ') + len('"n_max": ')
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


def _interval(**kw):
    return dict({"a": 2, "b": 3, "c": 3, "e": 1, "state": "waiting",
                 "witness": None, "block_count": 0}, **kw)


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


def _sample_payload(**changes):
    payload = ar.artifact_payload(sample_artifact(n_max=100))
    for key, value in changes.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    return payload


def _form_payload(form, bits, **guarantee):
    return ar.artifact_payload(ap.SubsetArtifact(
        "tampered", np.zeros(bits, dtype=bool), [],
        dict(guarantee, form=form)))


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
     "malformed witness-margin record: "
     "ValueError('h_of_n must hold n_max integers')"),
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
