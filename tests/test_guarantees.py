"""Guarantee forms end to end: pinned outputs of one small artifact per form,
and the agreement of ``certified.csv`` with ``verify_artifact``."""

import csv
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders, cli, prioritysim
from cedensity.core import CEStream, SetOracle, ceil_sqrt, ceil_sqrt_array

EVENS = {"sets": [{"label": "ev", "kind": "residue-union", "modulus": 2,
                   "residues": [0]}],
         "streams": [{"label": "evs", "set": "ev",
                      "schedule": {"kind": "burst", "period": 16}}]}
NATURALS = {"sets": [{"label": "all", "kind": "naturals"}],
            "streams": [{"label": "alls", "set": "all",
                         "schedule": {"kind": "delayed", "factor": 2,
                                      "offset": 3}}]}


def _cfg(n_max, stage_max, decl, construction):
    return dict(decl, universe={"n_max": n_max, "stage_max": stage_max},
                construction=construction)


def _relative_artifact():
    stream = CEStream.from_oracle(SetOracle.naturals(), n_max=300,
                                  stage_max=1200, delay_fn=lambda m: 2 * m + 1)
    return ap.limit_witness_subset(stream, ap.LimitApprox(lambda k, s: 2 ** k))


# one construct config per guarantee form; lookahead-margin-relative has no
# CLI op, so its artifact is built by the library and handed to construct
FIXTURES = {
    "checkpoint-ratio": _cfg(300, 1200, EVENS, {
        "op": "checkpoint-subset", "stream": "evs", "q": "1/4"}),
    "tracking-checkpoint-ratio": _cfg(300, 1200, EVENS, {
        "op": "tracking-checkpoint-subset", "stream": "evs",
        "targets": ["1/4", "1/3"]}),
    "lookahead-margin": _cfg(300, 1200, EVENS, {
        "op": "lookahead-subset", "stream": "evs", "q": "1/3"}),
    # a constant witness 0 puts h(n) = n, far past 64 bits
    "witness-margin": _cfg(300, 1200, NATURALS, {
        "op": "witnessed-subset", "stream": "alls",
        "witness": {"kind": "constant", "value": 0}}),
    "lookahead-margin-relative": None,
    "target-approach": _cfg(3000, 3000, {}, {
        "op": "target-oscillation", "n_checkpoints": 6,
        "targets": ["1/3", "2/3", "1/5"]}),
    "blockwise-levels": _cfg(10, 16, {}, {
        "op": "blockwise-levels", "n_blocks": 4,
        "levels": {"1": "1/2", "2": "1/3", "3": "2/3", "4": "1/4"}}),
    "ratio-interval-report": _cfg(2000, 2000, {
        "deciders": [{"label": "one", "kind": "constant", "value": 1,
                      "delay": 2}]}, {
        "op": "ratio-interval", "deciders": ["one"]}),
    "restraint-report": _cfg(2000, 2000, {
        "sets": EVENS["sets"] + [{"label": "void", "kind": "empty"}],
        "streams": [{"label": "evs", "set": "ev",
                     "schedule": {"kind": "own-stage"}},
                    {"label": "none", "set": "void",
                     "schedule": {"kind": "own-stage"}}]}, {
        "op": "restraint-witness", "streams": ["none", "evs"]}),
    "log-sparse": _cfg(2000, 64, {
        "sets": [{"label": "all", "kind": "naturals"}],
        "streams": [{"label": "now", "set": "all",
                     "schedule": {"kind": "immediate"}}]}, {
        "op": "sparse-hitting", "streams": ["now"] * 8}),
    "membership-only": _cfg(400, 400, EVENS, {
        "op": "blockwise-union", "streams": ["evs", "evs", "evs"]}),
}

# sha256 of each output file, recorded before the guarantee forms were
# gathered into one table; any change to these bytes is a format change.
# Re-recorded for artifact format 2: every artifact.json, the relative
# margin's certified.csv (rows from its stored in_a) and the ratio-interval
# trace.jsonl (each interval's r_b, r_c).  Both trace.jsonl re-recorded for
# trace format 2 (a marker line, and a line per quiet run) and for trace
# format 3 (a released interval an entry per progression); their records,
# each run and progression expanded, are the bytes these digests pinned
# before
GOLDEN = {
    "blockwise-levels": {
        "artifact.json":
            "25306f0af7a281ffa2be1f2d4c5b4f8d6f4a9bad3a538ea43eeb94f09c6df477",
        "certified.csv":
            "890f15d1ef956b01ba9122161968fd3f417471a58da97fa5e01987658a34e441",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "checkpoint-ratio": {
        "artifact.json":
            "07a28b3c1e5a3aa8216fbe8f14614f14ded69a0955c823824d2045997320a528",
        "certified.csv":
            "3cceba3b3bc08ee056111faa0e0f2cee22f621436395be76d56c7102a98eb343",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "log-sparse": {
        "artifact.json":
            "b4bcdf5ae19b40b135cb537be53179ab07aa8778eedf69526153f792052e3512",
        "certified.csv":
            "87cc8ad0251c508e0d4ce169d86f7db15d13ae4445dc637754a088022eb289b2",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "lookahead-margin": {
        "artifact.json":
            "5065b8da9108520f86c717b7012adcd8a158c54af09752f494d32e949a84863a",
        "certified.csv":
            "8346639897e32c9a3b0435db7318bf1372dfc888692e3a06433009f60568e8ca",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "lookahead-margin-relative": {
        "artifact.json":
            "abb946f815b792cf8c806e721df326e0b7e1f127e8bea049c3019a5571ced313",
        "certified.csv":
            "5c9499325d05b4c11c58ceb15dda4763f75b5ea063b0a292c9f140f7a09bb77c",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "membership-only": {
        "artifact.json":
            "f86585327e7885e7edd142e80fd4d9121d4731933a2c1dd9d8d5d2c7520cce02",
        "certified.csv":
            "3b03dba15efdbd85bc87d0bc3d13d90b7f9abd99af2ec175e8e541f7eca3d2e2",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "ratio-interval-report": {
        "artifact.json":
            "d0ab26e3a1f11210a74f7657605fdc95c66c4775370c93f263df85ddef8cd3f1",
        "certified.csv":
            "3b03dba15efdbd85bc87d0bc3d13d90b7f9abd99af2ec175e8e541f7eca3d2e2",
        "trace.jsonl":
            "fc537986413d47c32d04abcd7423d995c542781da1932d71c1b421f6093338f1",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "restraint-report": {
        "artifact.json":
            "52891503f1412ef1a714a9e27369c1f7ac67d69debdf7e21df677c366f32a08a",
        "certified.csv":
            "6d13ea93da00c95615b9e8ded7f6d55a83fd1750eefb30dcad84535e303bf109",
        "trace.jsonl":
            "f312b3f9d48b5829e757e96bed6b572bcc96379b8efb2b5c2a1f41a2c8a973fe",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "target-approach": {
        "artifact.json":
            "d9f4bf113206fd692be5e75c00294f4463f0ecd1b079116fd73ce8c0f7d0e160",
        "certified.csv":
            "c9515285db11ed8080ed6755a84774dd5b2cfd5e2b12e884a2e4c3c0002d8dc6",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "tracking-checkpoint-ratio": {
        "artifact.json":
            "be0950cc4fd73cfd1e6c181372643d46f1f633be8e14fba4be85c5e2c1794a23",
        "certified.csv":
            "9955ccced87508b494a6f6e2806e545a82a665fca0add1dd0661c2bf30c20220",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "witness-margin": {
        "artifact.json":
            "ed6e0e125484d39a5bf1d61d46b643f3c2aa9c511ccdf9b316882766ced6377d",
        "certified.csv":
            "f3df42ef9dea447427f3e2624b905e69f4b7ba9193e09af5aff61862df1834dc",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
}


def construct(form, tmp_path, monkeypatch):
    cfg = FIXTURES[form]
    if cfg is None:
        art = _relative_artifact()
        monkeypatch.setattr(cli, "_dispatch_construct",
                            lambda *args: (art, None))
        cfg = _cfg(300, 1200, {}, {"op": "library"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["construct", "--config", str(path), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("form", sorted(FIXTURES))
def test_golden_outputs(form, tmp_path, monkeypatch):
    code, out = construct(form, tmp_path, monkeypatch)
    assert code == 0
    assert json.loads((out / "artifact.json").read_text())[
        "guarantee"]["form"] == form
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == GOLDEN[form]


def test_construct_evaluates_the_artifact_once(tmp_path, monkeypatch):
    # certified.csv and verify.json come from one evaluation
    calls = []
    evaluate = ar._evaluate
    monkeypatch.setattr(ar, "_evaluate",
                        lambda art: calls.append(art) or evaluate(art))
    code, out = construct("lookahead-margin", tmp_path, monkeypatch)
    assert code == 0 and len(calls) == 1
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == GOLDEN["lookahead-margin"]


# -- certified.csv against verify_artifact -----------------------------------

def _per_n_artifacts():
    """One small, tight artifact per form with per-n count bounds."""
    evens = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=64,
                                 stage_max=256, delay_fn=lambda m: 2 * m)
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=64,
                                stage_max=256, delay_fn=lambda m: m + 5)
    now = CEStream.from_oracle(SetOracle.naturals(), n_max=64, stage_max=8,
                               delay_fn=lambda m: 0)
    stream, levels = builders.blockwise_limit_build(
        builders.StableMonotoneG(lambda n, s: Fraction(1, 2)), 3, 10)
    sparse, _ = builders.sparse_hitting_build([now] * 6, 64, 8)
    none = CEStream.from_oracle(SetOracle.empty(), n_max=200, stage_max=200)
    evens_own = CEStream.from_oracle(SetOracle.residue_union(2, [0]),
                                     n_max=200, stage_max=200)
    restrained, trace = prioritysim.restraint_witness_build(
        [none, evens_own], 200, 200)
    return {
        "checkpoint-ratio": ap.checkpoint_subset(evens, "1/3"),
        "tracking-checkpoint-ratio": ap.tracking_checkpoint_subset(
            evens, ["1/4", "1/3"]),
        "lookahead-margin": ap.lookahead_subset(evens, "1/3"),
        "witness-margin": ap.witnessed_subset(full, lambda k: 2 ** (k + 1)),
        "lookahead-margin-relative": ap.limit_witness_subset(
            full, ap.LimitApprox(lambda k, s: 2 ** (k + 1))),
        "target-approach": builders.infsup_build(["1/3", "2/3"] * 2, 4, 64),
        "blockwise-levels": ap.SubsetArtifact(
            "blockwise_levels", stream.final_members(),
            guarantee=builders.levels_guarantee(levels)),
        "restraint-report": ap.SubsetArtifact(
            "restraint_witness", restrained.final_members(),
            checkpoints=[dict(v, k=k) for k, v in
                         sorted(trace.outcomes.items())],
            guarantee={"form": "restraint-report"}),
        "log-sparse": ap.SubsetArtifact("sparse_hitting",
                                        sparse.final_members(),
                                        guarantee={"form": "log-sparse"}),
    }


PER_N = _per_n_artifacts()


def _row_holds(row, counts, strict):
    """A certified.csv row re-checked from its own integers."""
    n, c = int(row[0]), int(row[1])
    assert c == int(counts[n])
    ok = True
    if row[2]:
        ok &= c * int(row[3]) >= int(row[2])
    if row[4]:
        lhs = c * int(row[5])
        ok &= lhs < int(row[4]) if strict else lhs <= int(row[4])
    assert row[6] == str(int(ok))
    return ok


@settings(max_examples=150, deadline=None)
@given(form=st.sampled_from(sorted(PER_N)),
       flips=st.lists(st.integers(0, 10**6), max_size=6))
def test_failed_csv_row_fails_verification(form, flips, tmp_path_factory):
    base = PER_N[form]
    bits = base.bits.copy()
    for i in flips:
        bits[i % bits.size] ^= True
    art = ap.SubsetArtifact(base.kind, bits, base.checkpoints,
                            base.guarantee)
    path = tmp_path_factory.mktemp("csv") / "certified.csv"
    ar.write_certified_csv(art, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    counts = art.counts()
    strict = form == "restraint-report"
    rows_hold = all([_row_holds(r, counts, strict) for r in rows])
    records_ok = not any(check(art, counts)
                         for _, check in ar.FORMS[form].checks)
    assert ar.verify_artifact(art)["ok"] == (rows_hold and records_ok)


def test_betweenness_failure_is_grouped():
    # rho falls to 1/3 at k=3, below both checkpoint densities 1 and 1/2
    bits = np.array([1, 0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=bool)
    cps = [{"n": 0, "s": 1, "count": 1, "q_num": 1, "q_den": 2},
           {"n": 1, "s": 10, "count": 5, "q_num": 1, "q_den": 2}]
    art = ap.SubsetArtifact("infsup_build", bits, cps,
                            {"form": "target-approach"})
    assert builders.verify_infsup(art) == {"approach": True, "between": False}
    assert ar.verify_artifact(art)["failures"] == [
        "betweenness fails at k=3"]


def test_restraint_upper_bound_is_strict(tmp_path):
    # rho_4 = 3/4 meets 1 − 2^-2 exactly, so the strict bound fails
    art = ap.SubsetArtifact(
        "restraint_witness", np.array([1, 1, 1, 0], dtype=bool),
        [{"k": 0, "final_interval": [2, 4]}], {"form": "restraint-report"})
    assert not ar.verify_artifact(art)["ok"]
    ar.write_certified_csv(art, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text().splitlines()[1] == "4,3,,,3,1,0"


def _near_squares(root):
    return st.builds(lambda r, d: min(max(r * r + d, 0), 2**62), root,
                     st.integers(-1, 1))


@given(st.lists(st.one_of(st.integers(0, 2**62),
                          _near_squares(st.integers(0, 2**31)),
                          _near_squares(st.integers(2**31 - 2**10, 2**31)),
                          st.integers(2**62 - 2**20, 2**62)), max_size=50))
def test_vectorized_ceil_sqrt_matches_scalar(ns):
    assert ceil_sqrt_array(np.array(ns, dtype=np.int64)).tolist() == [
        ceil_sqrt(n) for n in ns]
