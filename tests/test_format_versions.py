"""Format 1 artifacts still check, and the benchmark's own reader accepts
format 2.

``fixtures/v1`` holds one format 1 artifact per guarantee form (see its
README).  ``cedensity check`` must pass each, and fail a copy with one
stored bit flipped and the digest re-taken.  ``bench/checker.py``, loaded
by path, must read one freshly written artifact per form and agree with
its certified CSV.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import cli
from cedensity.core import CEStream, SetOracle

ROOT = Path(__file__).resolve().parent.parent
V1 = ROOT / "tests" / "fixtures" / "v1"
CONFIGS = json.loads((V1 / "configs.json").read_text())


def _bit(i):
    def flip(payload):
        bits = ar.rle_to_bits(payload["bits_rle"], payload["n_max"])
        bits[i] ^= True
        payload["bits_rle"] = ar.bits_to_rle(bits).tolist()
    return flip


def _final_interval_end(payload):
    # the restrained interval keeps rho at least two elements under the
    # bound, so no single bitset flip breaks it: 3 → 19 does
    payload["checkpoints"][0]["final_interval"][1] ^= 1 << 4


def _verdict(payload):
    # format 1 stored no in_a: the verdict flag is all it re-checks
    payload["guarantee"]["holds"] ^= True


# one stored bit per fixture whose flip breaks what the artifact claims;
# membership-only claims nothing its bits could break
FLIPS = {
    "blockwise-levels": _bit(1),
    "checkpoint-ratio": _bit(0),
    "log-sparse": _bit(0),
    "lookahead-margin": _bit(20),
    "lookahead-margin-relative": _verdict,
    "ratio-interval-report": _bit(0),
    "restraint-report": _final_interval_end,
    "target-approach": _bit(0),
    "tracking-checkpoint-ratio": _bit(0),
    "witness-margin": _bit(2),
}


def test_one_fixture_per_form():
    assert sorted(p.stem for p in V1.glob("*.json")
                  if p.name != "configs.json") == sorted(ar.FORMS)
    assert sorted(FLIPS) == sorted(set(ar.FORMS) - {"membership-only"})


@pytest.mark.parametrize("form", sorted(ar.FORMS))
def test_v1_fixture_checks(form, capsys):
    path = V1 / f"{form}.json"
    assert json.loads(path.read_text())["format_version"] == 1
    assert cli.main(["check", "--artifact", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS: ")
    art = ar.load_artifact(path)
    assert art.format_version == 1 and art.guarantee["form"] == form
    for name in ar.V1_FORMS[form].arrays:
        assert art.guarantee[name].dtype == np.int64


@pytest.mark.parametrize("form", sorted(FLIPS))
def test_v1_fixture_with_a_flipped_bit_fails(form, tmp_path, capsys):
    payload = json.loads((V1 / f"{form}.json").read_text())
    del payload["integrity_sha256"]
    FLIPS[form](payload)
    payload["integrity_sha256"] = hashlib.sha256(
        ar._canonical(payload)).hexdigest()
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["check", "--artifact", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("FAIL: ") and "digest" not in err


def _relative_artifact():
    stream = CEStream.from_oracle(SetOracle.naturals(), n_max=120,
                                  stage_max=480, delay_fn=lambda m: 2 * m + 1)
    return ap.limit_witness_subset(stream, ap.LimitApprox(lambda k, s: 2 ** k))


def _bench_checker():
    spec = importlib.util.spec_from_file_location(
        "bench_checker", ROOT / "bench" / "checker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("form", sorted(ar.FORMS))
def test_benchmark_checker_reads_format_2(form, tmp_path, monkeypatch):
    cfg = CONFIGS.get(form)
    if cfg is None:  # no construct op: the library's artifact, handed over
        art = _relative_artifact()
        monkeypatch.setattr(cli, "_dispatch_construct",
                            lambda *args: (art, None))
        cfg = {"universe": {"n_max": 120, "stage_max": 480},
               "construction": {"op": "library"}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["construct", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 0
    checker = _bench_checker()
    payload, counts = checker.read_artifact(str(out / "artifact.json"))
    assert payload["format_version"] == ar.FORMAT_VERSION == 2
    assert payload["guarantee"]["form"] == form
    assert checker.check_certified_csv(
        str(out / "certified.csv"), counts,
        form in checker.STRICT_UPPER_FORMS) == []
    assert checker.check_construct(str(out)) == []
