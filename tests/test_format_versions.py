"""Format 1 and 2 artifacts, and format 3 artifacts with byte-wide
tables, still check, and the benchmark's own reader accepts format 2 and
the current format.

``fixtures/v1`` and ``fixtures/v2`` hold one format 1 and one format 2
artifact per guarantee form (see their READMEs); ``fixtures/v2`` also
holds a ``permitted-interval`` artifact with its per-stage ``g_rows``.
``fixtures/v3`` holds one format 3 artifact per form with per-n tables,
written while format 3 packed them as ``"i<w>:"`` strings.
``cedensity check`` must pass each, and fail a copy with one stored bit
flipped and the digest re-taken.  ``bench/checker.py``, loaded by path,
must read each format 2 fixture, and one freshly written artifact per
form and of ``permitted-interval``, and agree with its certified CSV.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import cli
from cedensity.core import CEStream, SetOracle

from conftest import expand_g_changes, load_bench_checker

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
V1, V2, V3 = FIXTURES / "v1", FIXTURES / "v2", FIXTURES / "v3"
TABLE_FORMS = sorted(name for name, form in ar.FORMS.items() if form.arrays)
CONFIGS = json.loads((V1 / "configs.json").read_text())
CONFIGS.update(json.loads((V2 / "configs.json").read_text()))


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
    # format 1 stored no in_a: the verdict flag is all it re-checks; format
    # 2 compares the flag with the verdict its in_a gives
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


def _stems(directory):
    return sorted(p.stem for p in directory.glob("*.json")
                  if p.name != "configs.json")


def test_one_fixture_per_form():
    assert _stems(V1) == sorted(ar.FORMS)
    assert _stems(V2) == sorted([*ar.FORMS, "permitted-interval"])
    assert _stems(V3) == TABLE_FORMS
    assert sorted(FLIPS) == sorted(set(ar.FORMS) - {"membership-only"})


def _fixtures(names, v2_extra=()):
    """(version, name) of the v1 fixture of each name, with the name alone
    as its id, then of the v2 fixture of each name and each v2_extra, then
    of the v3 fixture of each name with tables."""
    return ([pytest.param(1, name, id=name) for name in sorted(names)]
            + [pytest.param(2, name, id=f"v2-{name}")
               for name in sorted([*names, *v2_extra])]
            + [pytest.param(3, name, id=f"v3-{name}")
               for name in sorted(names) if name in TABLE_FORMS])


@pytest.mark.parametrize("version, name",
                         _fixtures(ar.FORMS, ["permitted-interval"]))
def test_v1_fixture_checks(version, name, capsys):
    path = FIXTURES / f"v{version}" / f"{name}.json"
    assert json.loads(path.read_text())["format_version"] == version
    assert cli.main(["check", "--artifact", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS: ")
    art = ar.load_artifact(path)
    form = art.guarantee["form"]
    assert art.format_version == version
    assert form == (name if name in ar.FORMS else "membership-only")
    for table in ar._form(form, version).arrays:
        assert art.guarantee[table].dtype == np.int64


@pytest.mark.parametrize("name", TABLE_FORMS)
def test_v3_fixture_tables_are_byte_wide(name):
    # the layout these fixtures keep; a file saved now packs them as u<b>
    guarantee = json.loads((V3 / f"{name}.json").read_text())["guarantee"]
    art = ar.load_artifact(V3 / f"{name}.json")
    for table in ar.FORMS[name].arrays:
        assert guarantee[table][:2] in ("i1", "i2", "i4", "i8")
        assert ar.ints_to_packed(art.guarantee[table])[0] == "u"


@pytest.mark.parametrize("version, form", _fixtures(FLIPS))
def test_v1_fixture_with_a_flipped_bit_fails(version, form, tmp_path,
                                             capsys):
    payload = json.loads((FIXTURES / f"v{version}" / f"{form}.json")
                         .read_text())
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


@pytest.mark.parametrize("name", sorted([*ar.FORMS, "permitted-interval"]))
def test_benchmark_checker_reads_format_2(name):
    path = V2 / f"{name}.json"
    payload, counts = load_bench_checker().read_artifact(str(path))
    assert payload["format_version"] == 2
    assert np.array_equal(np.diff(counts), ar.load_artifact(path).bits)


@pytest.mark.parametrize("form", sorted([*ar.FORMS, "permitted-interval"]))
def test_benchmark_checker_reads_the_current_format(form, tmp_path,
                                                    monkeypatch):
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
    checker = load_bench_checker()
    payload, counts = checker.read_artifact(str(out / "artifact.json"))
    assert payload["format_version"] == ar.FORMAT_VERSION == 3
    if form == "permitted-interval":  # g as change points, as format 2's rows
        meta = payload["meta"]
        v2 = ar.load_artifact(V2 / "permitted-interval.json")
        assert expand_g_changes(meta["g_changes"], meta["stage_max"]) == (
            v2.meta["g_rows"])
        assert np.array_equal(np.diff(counts), v2.bits)
        form = "membership-only"
    assert payload["guarantee"]["form"] == form
    assert checker.check_certified_csv(
        str(out / "certified.csv"), counts,
        form in checker.STRICT_UPPER_FORMS) == []
    assert checker.check_construct(str(out)) == []
