"""The per-stream stage index and the stage-loop constructions that read it:
pinned outputs of each stage-loop builder, and the index against the
per-stage scans it replaced."""

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import builders, cli, genericity, prioritysim
from cedensity.core import NEVER, CEStream, SetOracle
from cedensity.prioritysim import JumpApprox, PartialDecider

from conftest import expand_g_changes

SETS = [{"label": "ev", "kind": "residue-union", "modulus": 2,
         "residues": [0]},
        {"label": "rm", "kind": "residue-union", "modulus": 4,
         "residues": [1]},
        {"label": "none", "kind": "empty"},
        {"label": "all", "kind": "naturals"}]
STREAMS = [{"label": "s_ev", "set": "ev", "schedule": {"kind": "own-stage"}},
           {"label": "s_rm", "set": "rm",
            "schedule": {"kind": "delayed", "factor": 1, "offset": 11}},
           {"label": "s_none", "set": "none",
            "schedule": {"kind": "own-stage"}},
           {"label": "s_all", "set": "all",
            "schedule": {"kind": "burst", "period": 150}}]
DECIDERS = [{"label": "one", "kind": "constant", "value": 1, "delay": 3},
            {"label": "par", "kind": "parity", "delay": 2},
            {"label": "r3", "kind": "residue", "modulus": 3,
             "residues": [2], "delay": 5},
            {"label": "zero", "kind": "constant", "value": 0, "delay": 7}]


def _cfg(construction, n=2000):
    return {"universe": {"n_max": n, "stage_max": n}, "sets": SETS,
            "streams": STREAMS, "deciders": DECIDERS,
            "construction": construction}


STAGE_LOOPS = {
    "restraint-witness": _cfg({"op": "restraint-witness",
                               "streams": ["s_none", "s_ev", "s_rm"]}),
    "permitted-interval": _cfg({
        "op": "permitted-interval", "permitter": "s_rm",
        "jump": {"kind": "step", "on_at": 3, "use": 9},
        "streams": ["s_ev", "s_none"]}),
    "split-interval": _cfg({"op": "split-interval", "permitter": "s_rm",
                            "deciders": ["one", "par", "r3"]}),
    "ratio-interval": _cfg({"op": "ratio-interval",
                            "deciders": ["one", "par", "r3", "zero"]}),
    "prefix-gated": _cfg({"op": "prefix-gated",
                          "streams": ["s_all", "s_ev", "s_rm", "s_none"]}),
    "sparse-hitting": _cfg({"op": "sparse-hitting",
                            "streams": ["s_ev", "s_none", "s_rm", "s_all",
                                        "s_none", "s_all"]}),
}

# sha256 of each output file, recorded before the stage loops read the
# stage index; any change to these bytes is an output change.  Re-recorded
# for artifact format 2: every artifact.json, and the ratio-interval
# trace.jsonl (each interval's r_b, r_c).  Every trace.jsonl re-recorded
# for trace format 2 (a marker line, and a line per quiet run) and for
# trace format 3 (a released interval an entry per progression); its
# records, each run and progression expanded, are the bytes these digests
# pinned before.  Every artifact.json re-recorded for artifact format 3 (its
# format_version digit, and permitted-interval's g as change points)
GOLDEN = {
    "permitted-interval": {
        "artifact.json":
            "9046587630a2add9384e66511ca4fa385369bdd2f5855f37ae33547b3afd026b",
        "certified.csv":
            "3b03dba15efdbd85bc87d0bc3d13d90b7f9abd99af2ec175e8e541f7eca3d2e2",
        "trace.jsonl":
            "56138f8e916d0abc1d602291421aa12bb67a2a92113006b93db1963b08dce4e9",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    # recorded before the four prioritysim builders ran on one stage driver
    "prefix-gated": {
        "artifact.json":
            "9d59e9a442d14e7963dd3df8d6398555b8608ba7c98df7766e8e6e129b12e800",
        "certified.csv":
            "3b03dba15efdbd85bc87d0bc3d13d90b7f9abd99af2ec175e8e541f7eca3d2e2",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "ratio-interval": {
        "artifact.json":
            "6503601dcd526a98d736189c19c84213d6067e46b65ae5db412c63246a64dad1",
        "certified.csv":
            "3b03dba15efdbd85bc87d0bc3d13d90b7f9abd99af2ec175e8e541f7eca3d2e2",
        "trace.jsonl":
            "01fff7e117d8e01a1f4117a54e338786db546c03cf17747be310e41a9eb4443c",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "restraint-witness": {
        "artifact.json":
            "0b9d1f1aa33d4123f388036648f63152f5d1bdf0e434b68b2f06032e4efc068d",
        "certified.csv":
            "6d13ea93da00c95615b9e8ded7f6d55a83fd1750eefb30dcad84535e303bf109",
        "trace.jsonl":
            "f43732ee42e627ec6efe3922e064bce844125ada8d2ec20cb7e1d6e38d81893e",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "sparse-hitting": {
        "artifact.json":
            "6c3d38497a320beab809f1be21f07e28f0dcf37b5b82a557b312913812c6940e",
        "certified.csv":
            "fafe1c72bccc1da635d73a19bbc3a598e06a58c70bd5fe84b1854617b26ef4b2",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
    "split-interval": {
        "artifact.json":
            "e1840b7ca19bb9c9a3f994a8ce3b21da51d7572f14fda1d3ff93f0377c685672",
        "certified.csv":
            "3b03dba15efdbd85bc87d0bc3d13d90b7f9abd99af2ec175e8e541f7eca3d2e2",
        "trace.jsonl":
            "c91e0f6439566853e587ecc48f5e09298bd6a88735399c4eddba5028c48c5cd6",
        "verify.json":
            "8d8d84c4fd77f28c24147ff4e5ed939d1954b33b616740447fb7c47470f1fd21",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def construct_digests(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["construct", "--config", str(path), "--out", str(out)])
    return code, {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def test_stage_loop_golden_outputs(tmp_path_factory):
    for op, cfg in STAGE_LOOPS.items():
        code, digests = construct_digests(cfg, tmp_path_factory.mktemp(op))
        assert code == 0, op
        assert digests == GOLDEN[op], op


def _digest(stream, *payload):
    """sha256 of a stream's final members and a JSON payload."""
    return _sha(np.packbits(stream.final_members()).tobytes()
                + json.dumps(payload, sort_keys=True).encode())


# each roster stream stops at stage 400, well before the construction's 1500
SHORT_ROSTER_GOLDEN = {
    "permitted-interval":
        "d0d3dab5f03c81bbf835eac90106323b56bb3a8cdef4455dae916592e3c65710",
    "restraint-witness":
        "cd0c841f40e38ef3de443462a8025bcc4d80b720f88620d4c1df610ea3705b63",
    "sparse-hitting":
        "5cbc999473fc954cccd471a9ab75ea1c3e05acb49e2b87d2d19d275ff04ea40b",
    "split-interval":
        "f51e49fa1a6155e4e31991950657592342b8a20738519f71fa1192d819adfca4",
}


def test_roster_stage_max_below_construction_stage_max():
    n = 1500
    rm = CEStream.from_oracle(SetOracle.residue_union(4, [1]), n_max=n,
                              stage_max=400, delay_fn=lambda m: m + 7)
    ev = CEStream.from_oracle(SetOracle.residue_union(2, [0]), n_max=n,
                              stage_max=400, delay_fn=lambda m: 2 * m)
    quiet = CEStream.from_oracle(SetOracle.empty(), n_max=n, stage_max=400)
    jump = JumpApprox(lambda i, s: 1 if s >= 3 else 0,
                      lambda i, s: 600 if s >= 3 else None)
    got = {}
    st, trace = prioritysim.restraint_witness_build([quiet, ev, rm], n, n)
    got["restraint-witness"] = _digest(st, trace.stages, trace.outcomes)
    st, g_changes, trace = prioritysim.permitted_interval_build(
        rm, jump, [ev, quiet], n, n)
    got["permitted-interval"] = _digest(
        st, trace.stages, trace.outcomes,
        {str(p): rows for p, rows in expand_g_changes(g_changes, n).items()})
    deciders = [PartialDecider.constant(1, 3), PartialDecider.parity(2)]
    a0, a1, trace = prioritysim.split_interval_build(rm, deciders, n, n)
    got["split-interval"] = _digest(
        a0, trace.stages, trace.outcomes,
        np.flatnonzero(a1.final_members()).tolist())
    st, report = builders.sparse_hitting_build([ev, quiet, rm], n, n)
    got["sparse-hitting"] = _digest(st, report)
    assert got == SHORT_ROSTER_GOLDEN


def strong_array_fixture(indices, stages, n_max=2**16):
    return CEStream.from_schedule(zip(indices, stages), n_max=n_max,
                                  stage_max=max(stages) + 3)


def test_strong_array_extract_golden():
    X = SetOracle.explicit([0, 3, 5])
    T = strong_array_fixture([1, 8, 33, 96], range(4))
    assert genericity.strong_array_extract(T, X, 3) == GOLDEN_STRONG_ARRAY[0]
    # several indices per stage, entered out of value order
    X = SetOracle.explicit(range(0, 40, 3))
    indices = [96, 8, 1, 513, 4104, 33, 2**15 + 2**13, 72, 2**12 + 2**9]
    stages = [2, 0, 2, 5, 0, 0, 5, 2, 9]
    T = strong_array_fixture(indices, stages)
    assert genericity.strong_array_extract(T, X, 3) == GOLDEN_STRONG_ARRAY[1]


GOLDEN_STRONG_ARRAY = [
    [frozenset({0}), frozenset({3}), frozenset({5, 6})],
    [frozenset({3}), frozenset({5, 6}), frozenset({13, 15})],
]


# -- the stage index against the per-stage scans it replaced -----------------

@st.composite
def streams(draw, max_size=60, far=True):
    """Streams with never-enumerated elements, repeated and empty stages;
    with ``far``, also stages from 2^40 up to NEVER − 1."""
    near = st.integers(0, 30)
    stage = st.one_of(near, st.integers(2**40, NEVER - 1)) if far else near
    entry = draw(st.lists(st.one_of(st.just(NEVER), stage),
                          min_size=1, max_size=max_size))
    last = max((e for e in entry if e != NEVER), default=1)
    stage_max = draw(st.integers(max(last, 1), NEVER - 1 if far else 30))
    return CEStream(np.array(entry, dtype=np.int64), stage_max=stage_max)


def probes(stream):
    """Each distinct entry stage and its two neighbours, and a few far
    stages, all below NEVER."""
    live = stream.entry[stream.entry != NEVER].tolist()
    near = {v + d for v in live for d in (-1, 0, 1)}
    return sorted(v for v in near | {-1, 0, 1, 2**40, stream.stage_max,
                                     NEVER - 1} if v < NEVER)


def stream_max_scan(stream, s):
    """max A_s by a full scan, as the restraint construction once did."""
    live = np.nonzero(stream.entry <= s)[0]
    return int(live.max()) if live.size else 0


@settings(max_examples=300, deadline=None)
@given(streams())
def test_entering_at_matches_scan(stream):
    for s in probes(stream):
        assert stream.entering_at(s).tolist() == np.nonzero(
            stream.entry == s)[0].tolist()
    live = np.flatnonzero(stream.entry != NEVER).tolist()
    index = stream.stage_index
    assert index.order.tolist() == sorted(
        live, key=lambda m: (int(stream.entry[m]), m))
    assert index.stages.tolist() == stream.entry[index.order].tolist()
    assert index.top.tolist() == np.maximum.accumulate(
        index.order).tolist()
    assert index.monotone == (sorted(live, key=stream.entry.__getitem__)
                              == live)


@settings(max_examples=300, deadline=None)
@given(streams(), st.integers(0, 10**6))
def test_max_member_at_matches_scan(stream, far):
    for s in [*probes(stream), far]:
        assert stream.max_member_at(s) == stream_max_scan(stream, s)


@settings(max_examples=300, deadline=None)
@given(streams())
def test_first_stage_above_matches_scan(stream):
    for m in [*range(-1, stream.n_max + 1), 2**40]:
        # max A_s passes m once any element above m has entered
        above = stream.entry[m + 1:]
        assert stream.first_stage_above(m) == above.min(initial=NEVER)


@settings(max_examples=150, deadline=None)
@given(streams(), st.lists(st.integers(-1, 61), min_size=1, max_size=4))
def test_next_entrant_matches_scan(stream, mosts):
    """The driver's step sees the least entrant at each stage it visits,
    and next_entrant answers, through its cache, the least later stage
    whose least entrant is at most ``most``."""
    stops = probes(stream)
    drive = prioritysim._StageDriver("probe", stream.n_max, stream.stage_max)
    seen = []

    def step(s, y):
        here = np.flatnonzero(stream.entry == s)
        assert y == (int(here[0]) if here.size else None)
        for most in mosts:
            upto = stream.entry[:most + 1]
            later = upto[(upto > s) & (upto != NEVER)]
            assert drive.next_entrant(s, most) == later.min(initial=NEVER)
        seen.append(s)
        return next((v for v in stops if v > s), NEVER)

    drive.run(step, permitter=stream)
    assert seen == [0, *(v for v in stops if 0 < v <= stream.stage_max)]


def sparse_hitting_scan(roster, n_max, stage_max):
    """sparse_hitting_build as a scan of every stream at every stage."""
    entry = np.full(n_max, NEVER, dtype=np.int64)
    report = []
    chosen = set()
    for e, stream in enumerate(roster):
        found = None
        for s in range(stream.stage_max + 1):
            cand = np.nonzero((stream.entry == s)
                              & (np.arange(stream.n_max) > 2 ** e))[0]
            if cand.size:
                found = (int(cand[0]), s)
                break
        if found is None:
            report.append({"e": e, "hit": None})
            continue
        x, s = found
        if x < n_max and s <= stage_max:
            if x not in chosen:
                entry[x] = min(int(entry[x]), s) if entry[x] != NEVER else s
                chosen.add(x)
            report.append({"e": e, "hit": x, "stage": s})
        else:
            report.append({"e": e, "hit": None,
                           "detail": "witness beyond window/stage budget"})
    return entry, report


@settings(max_examples=200, deadline=None)
@given(st.lists(streams(far=False), min_size=1, max_size=8),
       st.integers(1, 60),
       st.integers(1, 30))
def test_sparse_hitting_matches_stage_scan(roster, n_max, stage_max):
    stream, report = builders.sparse_hitting_build(roster, n_max, stage_max)
    entry, want = sparse_hitting_scan(roster, n_max, stage_max)
    assert report == want
    assert stream.entry.tolist() == entry.tolist()
