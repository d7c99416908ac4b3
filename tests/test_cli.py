import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import cli
from cedensity.core import NEVER, CEStream
from cedensity.errors import BudgetExceeded
from cedensity.trace import ConstructionTrace


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def density_cfg():
    return {"universe": {"n_max": 1024, "stage_max": 2048},
            "sets": [{"label": "r1", "kind": "dyadic-class", "k": 1},
                     {"label": "none", "kind": "empty"},
                     {"label": "ru", "kind": "residue-union",
                      "modulus": 4, "residues": [0, 1]}]}


def construct_cfg(op_spec):
    return {"universe": {"n_max": 3000, "stage_max": 6000},
            "sets": [{"label": "ev", "kind": "residue-union",
                      "modulus": 2, "residues": [0]}],
            "streams": [{"label": "evs", "set": "ev",
                         "schedule": {"kind": "own-stage"}}],
            "construction": op_spec}


def test_density_csv_values(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", density_cfg())
    out = tmp_path / "out"
    assert cli.main(["density", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "density_r1.csv").read_text().splitlines()
    assert rows[0] == "n,count,rho_num,rho_den,rho_float"
    assert rows[1024] == "1024,256,1,4,0.25"
    none_rows = (out / "density_none.csv").read_text().splitlines()
    assert all(r.split(",")[1] == "0" for r in none_rows[1:])
    ru_rows = (out / "density_ru.csv").read_text().splitlines()
    assert ru_rows[1000].split(",")[:2] == ["1000", "500"]


def test_reproducible_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    construct_cfg({"op": "checkpoint-subset",
                                   "stream": "evs", "q": "1/4"}))
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert cli.main(["construct", "--config", cfg,
                         "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


def test_check_passes_then_fails_on_mutation(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    construct_cfg({"op": "checkpoint-subset",
                                   "stream": "evs", "q": "1/4"}))
    out = tmp_path / "o"
    assert cli.main(["construct", "--config", cfg, "--out", str(out)]) == 0
    art = out / "artifact.json"
    assert cli.main(["check", "--artifact", str(art)]) == 0
    raw = bytearray(art.read_bytes())
    rng = random.Random(7)
    digits = [i for i, b in enumerate(raw) if chr(b).isdigit()]
    i = rng.choice(digits)
    raw[i] ^= 1  # flip one bit inside a numeric token
    mut = tmp_path / "mut.json"
    mut.write_bytes(bytes(raw))
    assert cli.main(["check", "--artifact", str(mut)]) == 4


def test_config_error_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, "bad.json",
                    {"universe": {"n_max": 0, "stage_max": 1}})
    assert cli.main(["density", "--config", bad, "--out",
                     str(tmp_path / "x")]) == 2
    unparseable = tmp_path / "nope.json"
    unparseable.write_text("{")
    assert cli.main(["density", "--config", str(unparseable), "--out",
                     str(tmp_path / "y")]) == 2
    cfg = construct_cfg({"op": "no-such-op"})
    assert cli.main(["construct", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "z")]) == 2


def test_budget_error_exit_code(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "c.json",
                    construct_cfg({"op": "checkpoint-subset",
                                   "stream": "evs", "q": "1/4"}))

    def boom(cfg_, sets, streams, deciders):
        raise BudgetExceeded("out of stages", at=7)

    monkeypatch.setattr(cli, "_dispatch_construct", boom)
    assert cli.main(["construct", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3


def test_missing_artifact_exit_code(tmp_path):
    assert cli.main(["check", "--artifact",
                     str(tmp_path / "absent.json")]) == 4


def test_non_utf8_files_are_read_errors(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"a":"\xff"}')
    reason = ("'utf-8' codec can't decode byte 0xff in position 6: "
              "invalid start byte")
    assert cli.main(["check", "--artifact", str(path)]) == 4
    assert capsys.readouterr().err == f"FAIL: unreadable artifact: {reason}\n"
    assert cli.main(["construct", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot read config {path}: {reason}\n")


def test_one_parser_serves_every_call(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    construct_cfg({"op": "checkpoint-subset",
                                   "stream": "evs", "q": "1/4"}))
    out = tmp_path / "o"
    assert cli.main(["construct", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["check", "--artifact", str(out / "artifact.json")]) == 0
    assert capsys.readouterr().out.startswith("PASS: checkpoint_subset")
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["check"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "cedensity check: error: the following arguments are required: "
        "--artifact\n")


def test_metrics_summary(tmp_path):
    cfg = {"universe": {"n_max": 1000, "stage_max": 1000},
           "sets": [{"label": "all", "kind": "naturals"},
                    {"label": "ev", "kind": "residue-union",
                     "modulus": 2, "residues": [0]}],
           "metrics": {"a": "all", "b": "ev", "lo": 2, "hi": 10}}
    out = tmp_path / "m"
    assert cli.main(["metrics", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "metrics_summary.json").read_text())
    assert summary["sym_min"] == [1, 3]
    assert summary["sym_max"] == [1, 2]
    assert summary["b_subset_of_a"]


def test_generic_summary(tmp_path):
    cfg = {"universe": {"n_max": 500, "stage_max": 500},
           "sets": [{"label": "ev", "kind": "residue-union",
                     "modulus": 2, "residues": [0]}],
           "deciders": [{"label": "p", "kind": "parity"}],
           "generic": {"decider": "p", "set": "ev", "r": "1"}}
    out = tmp_path / "g"
    assert cli.main(["generic", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "generic_summary.json").read_text())
    assert summary["verdict"] and summary["alpha_estimate"] == [1, 1]


def test_construct_trace_emitted_for_ratio_interval(tmp_path):
    cfg = {"universe": {"n_max": 3000, "stage_max": 3000},
           "deciders": [{"label": "one", "kind": "constant", "value": 1}],
           "construction": {"op": "ratio-interval", "deciders": ["one"]}}
    out = tmp_path / "r"
    assert cli.main(["construct", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
    lines = [json.loads(x) for x in
             (out / "trace.jsonl").read_text().splitlines()]
    assert any(r.get("resolved", {}).get("state") == "finalized"
               and r["resolved"]["witness"] is not None
               for r in lines if isinstance(r.get("resolved"), dict))
    report = json.loads((out / "verify.json").read_text())
    assert report["ok"]


@pytest.mark.parametrize("op", [
    {"op": "blockwise-levels", "n_blocks": 0, "levels": {}},
    {"op": "limsup-blockwise", "n_blocks": 0, "targets": ["1/2"]},
])
def test_zero_blocks_verify_ok(tmp_path, op):
    cfg = {"universe": {"n_max": 10, "stage_max": 10}, "construction": op}
    out = tmp_path / "o"
    assert cli.main(["construct", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
    assert (out / "certified.csv").read_text() == (
        "n,count,lower_num,lower_den,upper_num,upper_den,holds\n")
    assert json.loads((out / "verify.json").read_text())["ok"] is True


def test_missing_field_is_a_config_error(tmp_path, capsys):
    cfg = construct_cfg({"op": "checkpoint-subset", "stream": "evs"})
    assert cli.main(["construct", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "construction: 'q' not found" in err


@pytest.mark.parametrize("n0", [80, 0, "x"])
def test_out_of_range_n0_is_a_config_error(tmp_path, capsys, n0):
    cfg = construct_cfg({"op": "lookahead-subset", "stream": "evs",
                         "q": "1/4", "n0": n0})
    cfg["universe"]["n_max"] = 50
    assert cli.main(["construct", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"construction.n0: must be an integer in [1, 51], got {n0!r}" in err


def _permitted(jump):
    return {"op": "permitted-interval", "permitter": "evs", "jump": jump,
            "streams": ["evs"]}


@pytest.mark.parametrize("section, entry, construction, message", [
    ("sets", {"label": "ru", "kind": "residue-union", "residues": [0]},
     None, "sets[1]: 'modulus' not found"),
    ("sets", {"label": "ru", "kind": "residue-union", "modulus": 4},
     None, "sets[1]: 'residues' not found"),
    ("sets", {"label": "x", "kind": "explicit"},
     None, "sets[1]: 'elements' not found"),
    ("sets", {"label": "d", "kind": "dyadic-class"},
     None, "sets[1]: 'k' not found"),
    ("sets", {"label": "u", "kind": "dyadic-union"},
     None, "sets[1]: 'indices' not found"),
    ("deciders", {"label": "c", "kind": "constant"},
     None, "deciders[0]: 'value' not found"),
    ("deciders", {"label": "r", "kind": "residue", "residues": [0]},
     None, "deciders[0]: 'modulus' not found"),
    ("deciders", {"label": "r", "kind": "residue", "modulus": 3},
     None, "deciders[0]: 'residues' not found"),
    ("deciders", {"label": "v", "kind": "value-delay"},
     None, "deciders[0]: 'value' not found"),
    ("streams", {"label": "b", "set": "ev", "schedule": {"kind": "burst"}},
     None, "streams[1].schedule: 'period' not found"),
    ("streams", {"label": "p", "schedule": {"kind": "scripted"}},
     None, "streams[1].schedule: 'pairs' not found"),
    (None, None, _permitted({"kind": "step", "use": 5}),
     "construction.jump: 'on_at' not found"),
    (None, None, _permitted({"kind": "step", "on_at": 5}),
     "construction.jump: 'use' not found"),
    (None, None, _permitted({"kind": "blink", "use": 5}),
     "construction.jump: 'period' not found"),
])
def test_missing_nested_field_is_a_config_error(tmp_path, capsys, section,
                                                entry, construction, message):
    cfg = construct_cfg(construction or {"op": "checkpoint-subset",
                                         "stream": "evs", "q": "1/4"})
    if section is not None:
        cfg[section] = cfg.get(section, []) + [entry]
    assert cli.main(["construct", "--config",
                     write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def _window_cfg(command, section=None, **fields):
    cfg = {"universe": {"n_max": 100, "stage_max": 100},
           "sets": [{"label": "ev", "kind": "residue-union",
                     "modulus": 2, "residues": [0]}],
           "deciders": [{"label": "p", "kind": "parity"}],
           "metrics": {"a": "ev", "b": "ev"},
           "generic": {"decider": "p", "set": "ev"}}
    cfg[section or command].update(fields)
    return command, cfg


@pytest.mark.parametrize("command, cfg, message", [
    (*_window_cfg("metrics", lo="x"), "metrics.lo: must be an integer >= 1"),
    (*_window_cfg("metrics", lo=0), "metrics.lo: must be an integer >= 1"),
    (*_window_cfg("metrics", lo=True), "metrics.lo: must be an integer"),
    (*_window_cfg("metrics", hi=0), "metrics.hi: must be an integer >= 1"),
    (*_window_cfg("metrics", lo=10, hi=5),
     "metrics.hi: must be an integer >= 10, got 5"),
    (*_window_cfg("generic", r=[1]), "bad rational [1]"),
    (*_window_cfg("generic", lo=200),
     "generic.lo: must be an integer in [1, 100], got 200"),
    (*_window_cfg("generic", lo=0), "generic.lo: must be an integer in"),
    (*_window_cfg("density", "universe", n_max=True),
     "universe.n_max: must be an integer >= 1, got True"),
    (*_window_cfg("density", "universe", stage_max=True),
     "universe.stage_max: must be an integer >= 1, got True"),
])
def test_bad_window_field_is_a_config_error(tmp_path, capsys, command, cfg,
                                            message):
    assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def _run(tmp_path, command, cfg):
    return cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "o")])


def _with_schedule(schedule):
    cfg = construct_cfg({"op": "checkpoint-subset", "stream": "evs",
                         "q": "1/4"})
    cfg["streams"].append({"label": "x", "set": "ev", "schedule": schedule})
    return cfg


@pytest.mark.parametrize("schedule, message", [
    ({"kind": "delayed", "offset": -5},
     "streams[1].schedule.offset: must be an integer >= 0, got -5"),
    ({"kind": "delayed", "factor": -1},
     "streams[1].schedule.factor: must be an integer >= 0, got -1"),
    ({"kind": "delayed", "factor": "2"},
     "streams[1].schedule.factor: must be an integer >= 0, got '2'"),
    ({"kind": "delayed", "factor": 1.5},
     "streams[1].schedule.factor: must be an integer >= 0, got 1.5"),
    ({"kind": "delayed", "offset": True},
     "streams[1].schedule.offset: must be an integer >= 0, got True"),
    ({"kind": "burst", "period": 0},
     "streams[1].schedule.period: must be an integer >= 1, got 0"),
    ({"kind": "burst", "period": -3},
     "streams[1].schedule.period: must be an integer >= 1, got -3"),
    ({"kind": "burst", "period": 1.5},
     "streams[1].schedule.period: must be an integer >= 1, got 1.5"),
    ({"kind": "scripted", "pairs": [["a", 1]]},
     "streams[1].schedule.pairs[0]: must be an integer >= 0, got 'a'"),
    ({"kind": "scripted", "pairs": [[3, -1]]},
     "streams[1].schedule.pairs[0]: must be an integer >= 0, got -1"),
    ({"kind": "scripted", "pairs": [[1]]},
     "streams[1].schedule.pairs[0]: must be an [element, stage] pair"),
    ({"kind": "scripted", "pairs": 5},
     "streams[1].schedule.pairs: must be a list"),
    ({"kind": "scripted", "pairs": [[1, 2], [1, 3]]},
     "streams[1].schedule.pairs: element 1 enumerated at two stages"),
    ("burst", "streams[1].schedule: must be a JSON object"),
])
def test_bad_schedule_field_is_a_config_error(tmp_path, capsys, schedule,
                                              message):
    assert _run(tmp_path, "construct", _with_schedule(schedule)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_a_stream_is_built_only_when_the_op_names_it(tmp_path, monkeypatch):
    cfg = construct_cfg({"op": "blockwise-union", "streams": ["evs", "evs"]})
    cfg["streams"] += [
        {"label": "burst", "set": "ev",
         "schedule": {"kind": "burst", "period": 3}},
        {"label": "late", "set": "ev", "schedule": {"kind": "delayed"}},
        {"label": "script", "schedule": {"kind": "scripted",
                                         "pairs": [[1, 2]]}}]
    built, from_oracle = [], CEStream.from_oracle

    def counted(*args, **kwargs):
        built.append(kwargs["label"])
        return from_oracle(*args, **kwargs)

    monkeypatch.setattr(CEStream, "from_oracle", staticmethod(counted))
    assert _run(tmp_path, "construct", cfg) == 0
    assert built == ["evs"]  # once, though the op names it twice


@pytest.mark.parametrize("stream, message", [
    ({"label": "x", "set": "ev", "schedule": {"kind": "zz"}},
     "streams[1].schedule.kind: unknown schedule kind 'zz'"),
    ({"label": "x", "set": "nope"}, "streams[1].set: 'nope' not found"),
])
def test_an_unused_stream_is_still_checked(tmp_path, capsys, stream,
                                           message):
    cfg = construct_cfg({"op": "checkpoint-subset", "stream": "evs",
                         "q": "1/4"})
    cfg["streams"].append(stream)
    assert _run(tmp_path, "construct", cfg) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("schedule", [
    {"kind": "delayed", "factor": 10**30},
    {"kind": "delayed", "offset": 10**30},
    {"kind": "burst", "period": 10**30},
])
def test_schedule_past_int64_keeps_the_stage_max_cut(tmp_path, schedule):
    assert _run(tmp_path, "construct", _with_schedule(schedule)) == 0


@pytest.mark.parametrize("cfg, message", [
    ([], "config: must be a JSON object"),
    ({"universe": 5}, "universe: must be a JSON object"),
    (dict(_window_cfg("metrics")[1], metrics=[1]),
     "metrics: must be a JSON object"),
    (dict(_window_cfg("metrics", hi=400)[1]),
     "metrics.hi: must be an integer in [1, 100], got 400"),
])
def test_bad_config_shape_is_a_config_error(tmp_path, capsys, cfg, message):
    assert _run(tmp_path, "metrics", cfg) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("n_max, stage_max, message", [
    (20, NEVER, "universe.stage_max: must be an integer in "
                f"[1, {NEVER - 1}], got {NEVER}"),
    (NEVER, 40, f"universe.n_max: must be an integer in [1, {NEVER - 1}]"),
    (10**30, 40, "universe.n_max: must be an integer in"),
])
def test_universe_past_int64_is_a_config_error(tmp_path, capsys, n_max,
                                               stage_max, message):
    cfg = construct_cfg({"op": "blockwise-union", "streams": ["evs"]})
    cfg["universe"] = {"n_max": n_max, "stage_max": stage_max}
    assert _run(tmp_path, "construct", cfg) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_blockwise_union_at_the_last_stage_keeps_its_members(tmp_path):
    runs = []
    for stage_max in (40, NEVER - 1):
        cfg = construct_cfg({"op": "blockwise-union",
                             "streams": ["evs"] * 3})
        cfg["universe"] = {"n_max": 20, "stage_max": stage_max}
        assert _run(tmp_path, "construct", cfg) == 0
        art = json.loads((tmp_path / "o" / "artifact.json").read_text())
        runs.append(art["bits_rle"])
    # the evens of [2, 20): index 0 owns [1, 2), which holds no even
    assert runs[0] == runs[1] == [2] + [1, 1] * 9


@pytest.mark.parametrize("command", ["density", "construct"])
def test_window_too_large_to_allocate_is_a_budget_error(tmp_path, capsys,
                                                        command):
    cfg = construct_cfg({"op": "checkpoint-subset", "stream": "evs",
                         "q": "1/4"})
    cfg["universe"]["n_max"] = 2**62
    assert _run(tmp_path, command, cfg) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "budget error: universe.n_max: a window of" in err


def test_memory_error_is_a_budget_error(tmp_path, capsys, monkeypatch):
    def boom(oracle, n_max):
        raise MemoryError("Unable to allocate 1 EiB")

    monkeypatch.setattr(cli, "density_profile", boom)
    assert _run(tmp_path, "density", density_cfg()) == 3
    assert "budget error: Unable to allocate 1 EiB" in capsys.readouterr().err


def test_memory_error_without_text_is_a_budget_error(tmp_path, capsys,
                                                     monkeypatch):
    # a Python list that cannot grow raises a MemoryError with no text
    def boom(oracle, n_max):
        raise MemoryError()

    monkeypatch.setattr(cli, "density_profile", boom)
    assert _run(tmp_path, "density", density_cfg()) == 3
    assert capsys.readouterr().err == "budget error: out of memory\n"


def _permitted_cfg(**construction):
    cfg = construct_cfg(dict(_permitted({"kind": "step", "on_at": 3,
                                         "use": 5}), **construction))
    cfg["universe"] = {"n_max": 200, "stage_max": 400}
    return cfg


@pytest.mark.parametrize("construction, message", [
    ({"pairs": [[1, 0]]},
     "construction.pairs[0]: must be an integer in [0, 0], got 1"),
    ({"pairs": [[-1, 0]]},
     "construction.pairs[0]: must be an integer in [0, 0], got -1"),
    ({"pairs": [["a", 0]]},
     "construction.pairs[0]: must be an integer in [0, 0], got 'a'"),
    ({"pairs": [[0]]}, "construction.pairs[0]: must be an [e, i] pair"),
    ({"pairs": 5}, "construction.pairs: must be a list"),
    ({"pairs": [[0, 0], [0, -1]]},
     "construction.pairs[1]: must be an integer >= 0, got -1"),
    ({"pairs": [[0, 0], [0, 0]]},
     "construction.pairs: a pair is listed twice"),
    ({"jump": {"kind": "step", "on_at": 3, "use": "x"}},
     "construction.jump.use: must be an integer >= 0, got 'x'"),
    ({"jump": {"kind": "step", "on_at": 3, "use": -4}},
     "construction.jump.use: must be an integer >= 0, got -4"),
    ({"jump": {"kind": "step", "on_at": "a", "use": 5}},
     "construction.jump.on_at: must be an integer >= 0, got 'a'"),
    ({"jump": {"kind": "blink", "period": 0, "use": 5}},
     "construction.jump.period: must be an integer >= 1, got 0"),
    ({"jump": 7}, "construction.jump: must be a JSON object"),
])
def test_bad_permitted_interval_field_is_a_config_error(
        tmp_path, capsys, construction, message):
    assert _run(tmp_path, "construct", _permitted_cfg(**construction)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_use_past_the_window_appoints_no_interval(tmp_path):
    cfg = _permitted_cfg(jump={"kind": "step", "on_at": 3, "use": 2**70},
                         pairs=[[0, 0]])
    assert _run(tmp_path, "construct", cfg) == 0
    lines = (tmp_path / "o" / "trace.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["outcomes"] == {
        "(0, 0)": {"appointed": 0, "cancels": 0, "case": "no-interval"}}


@pytest.mark.parametrize("construction", [
    {"op": "restraint-witness", "streams": ["evs", "none"]},
    {"op": "split-interval", "permitter": "evs",
     "deciders": ["one", "par", "slow"]},
    {"op": "restraint-witness", "streams": ["late", "none"]},
    {"op": "split-interval", "permitter": "late", "deciders": ["one", "par"]},
    # a pair stores one g value per stage, so with none the late permitter
    # is the only input that could cost time or memory per stage
    {"op": "permitted-interval", "permitter": "late",
     "jump": {"kind": "step", "on_at": 3, "use": 9}, "streams": ["late"],
     "pairs": []},
    # the stages past the last resolution are one "acted" run line
    {"op": "ratio-interval", "deciders": ["one", "par"]}])
def test_huge_stage_max_finishes_when_only_events_are_recorded(
        tmp_path, construction):
    # the stages past the window's last event cost nothing: a quiet run
    # is one trace line, and restraint-witness and split-interval record
    # only their events past the window; the evens
    # enter "late" at stages 10^7·m, up to 9.8·10^8, which a stage index
    # with one entry per stage could not hold in memory
    cfg = {"universe": {"n_max": 100, "stage_max": 10**9},
           "sets": [{"label": "ev", "kind": "residue-union", "modulus": 2,
                     "residues": [0]}, {"label": "no", "kind": "empty"}],
           "streams": [{"label": "evs", "set": "ev"},
                       {"label": "none", "set": "no"},
                       {"label": "late", "set": "ev",
                        "schedule": {"kind": "delayed", "factor": 10**7}}],
           "deciders": [{"label": "one", "kind": "constant", "value": 1,
                         "delay": 3},
                        {"label": "par", "kind": "parity", "delay": 2},
                        {"label": "slow", "kind": "value-delay", "value": 1,
                         "delay_factor": 10**6}],
           "construction": construction}
    start = time.perf_counter()
    assert _run(tmp_path, "construct", cfg) == 0
    assert time.perf_counter() - start < 2
    lines = (tmp_path / "o" / "trace.jsonl").read_text().splitlines()
    assert len(lines) < 200 and "outcomes" in json.loads(lines[-1])


def _fixture_cfg(form):
    path = os.path.join(os.path.dirname(__file__), "fixtures", "v1",
                        "configs.json")
    with open(path) as fh:
        return json.load(fh)[form]


@pytest.mark.parametrize("stage_max", [10**6, 10**9])
def test_ratio_interval_trace_grows_with_events_not_stages(tmp_path,
                                                           stage_max):
    # the fixture's two intervals resolve within the first stages; a line
    # per stage would be about 30 bytes a stage
    cfg = _fixture_cfg("ratio-interval-report")
    cfg["universe"]["stage_max"] = stage_max
    start = time.perf_counter()
    assert _run(tmp_path, "construct", cfg) == 0
    assert time.perf_counter() - start < 2
    assert (tmp_path / "o" / "trace.jsonl").stat().st_size < 10_000


def test_enumerations_pass_over_runs_that_carry_none(tmp_path):
    # 10^9 stages of "acted" runs, read for their enumerations: only the
    # event lines' entries, each progression written out
    cfg = _fixture_cfg("ratio-interval-report")
    cfg["universe"]["stage_max"] = 10**9
    assert _run(tmp_path, "construct", cfg) == 0
    path = tmp_path / "o" / "trace.jsonl"
    want = []
    for line in map(json.loads, path.read_text().splitlines()[1:-1]):
        for en in line.get("enumerated", []) if "run" not in line else []:
            tag = {k: v for k, v in en.items() if k != "xs"}
            first, last, step = en.get("xs", [en.get("x")] * 2 + [1])
            want += [(line["stage"], dict(tag, x=x))
                     for x in range(first, last + 1, step)]
    trace = ConstructionTrace.read(path)
    start = time.perf_counter()
    got = list(trace.enumerations())
    assert time.perf_counter() - start < 1
    assert got == want and want


def test_restraint_trace_grows_with_events_not_elements(tmp_path):
    # each dumped interval is one progression; an entry per element was
    # 4.96 MB of trace here
    cfg = _fixture_cfg("restraint-report")
    cfg["universe"] = {"n_max": 10**6, "stage_max": 10**6}
    assert _run(tmp_path, "construct", cfg) == 0
    assert (tmp_path / "o" / "trace.jsonl").stat().st_size < 64 * 1024


def test_a_trace_of_another_format_is_refused(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"trace_format": 2}\n{"acted": 0, "stage": 0}\n'
                    '{"construction": "demo", "outcomes": {}}\n')
    with pytest.raises(ValueError) as exc:
        ConstructionTrace.read(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("construction", [
    {"op": "blockwise-levels", "n_blocks": 6,
     "levels": {"2": "1/2", "5": "3/5", "6": "1"}},
    {"op": "limsup-blockwise", "n_blocks": 6,
     "targets": ["1/4", "1/2", "1/3", "5/6", "2/3"]}])
def test_huge_stage_max_finishes_for_the_blockwise_builds(tmp_path,
                                                           construction):
    # every level settles within the first stages, so the stages past
    # them cost nothing; these ops write no trace.jsonl
    cfg = {"universe": {"n_max": 100, "stage_max": 10**9},
           "construction": construction}
    start = time.perf_counter()
    assert _run(tmp_path, "construct", cfg) == 0
    assert time.perf_counter() - start < 2
    art = json.loads((tmp_path / "o" / "artifact.json").read_text())
    assert art["n_max"] == 5040 and art["guarantee"]["levels"][-1][0] == 6


# -- fuzz: mutated configs end in a documented exit code ----------------------

_junk = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                  st.lists(st.integers(-2, 4), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                  max_size=2))
# window sizes stay small: a valid n_max or stage_max sets the work done
_sizes = st.one_of(st.integers(-3, 300), _junk)
_fields = st.one_of(st.integers(-3, 40), st.integers(-2**70, 2**70), _junk)
_kinds = st.one_of(st.sampled_from(["immediate", "own-stage", "successor",
                                    "delayed", "burst", "scripted"]), _junk)
_pairs = st.one_of(st.lists(st.lists(_fields, max_size=3), max_size=4),
                   _fields)
_mutations = st.one_of(
    st.tuples(st.just("universe"), st.sampled_from(["n_max", "stage_max"]),
              _sizes),
    # no stage loop runs on this base, so a stage_max at int64 is cheap
    st.tuples(st.just("universe"), st.just("stage_max"),
              st.sampled_from([NEVER - 1, NEVER, 10**30])),
    st.tuples(st.just("universe"), st.just("n_max"),
              st.sampled_from([NEVER, 10**30])),
    st.tuples(st.just("universe"), st.none(), _fields),
    st.tuples(st.just("schedule"), st.just("kind"), _kinds),
    st.tuples(st.just("schedule"), st.sampled_from(["factor", "offset",
                                                    "period"]), _fields),
    st.tuples(st.just("schedule"), st.just("pairs"), _pairs),
    st.tuples(st.just("schedule"), st.none(), _fields),
    st.tuples(st.just("metrics"), st.sampled_from(["a", "b", "lo", "hi"]),
              st.one_of(st.sampled_from(["all", "ev"]), _fields)),
    st.tuples(st.just("metrics"), st.none(), _fields))


def _fuzz_base():
    return {"universe": {"n_max": 120, "stage_max": 240},
            "sets": [{"label": "ev", "kind": "residue-union",
                      "modulus": 2, "residues": [0]},
                     {"label": "all", "kind": "naturals"}],
            "streams": [
                {"label": "d", "set": "all",
                 "schedule": {"kind": "delayed", "factor": 2, "offset": 3}},
                {"label": "b", "set": "ev",
                 "schedule": {"kind": "burst", "period": 7}},
                {"label": "p",
                 "schedule": {"kind": "scripted", "pairs": [[1, 2], [4, 5]]}}],
            "metrics": {"a": "all", "b": "ev", "lo": 1, "hi": 100},
            "construction": {"op": "checkpoint-subset", "stream": "d",
                             "q": "1/4"}}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["construct", "metrics", "density"]),
       st.integers(0, 2),
       st.lists(_mutations, min_size=1, max_size=3))
def test_mutated_config_exits_with_a_documented_code(command, which,
                                                     mutations):
    cfg = _fuzz_base()
    for section, key, value in mutations:
        if section == "schedule":
            owner, name = cfg["streams"][which], "schedule"
        else:
            owner, name = cfg, section
        if key is None or not isinstance(owner.get(name), dict):
            owner[name] = value
        else:
            owner[name][key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        path = os.path.join(d, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([command, "--config", path,
                         "--out", os.path.join(d, "o")])
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


def _permitted_fuzz_base():
    return {"universe": {"n_max": 120, "stage_max": 240},
            "sets": [{"label": "ev", "kind": "residue-union",
                      "modulus": 2, "residues": [0]},
                     {"label": "all", "kind": "naturals"}],
            "streams": [
                {"label": "c", "set": "ev",
                 "schedule": {"kind": "delayed", "factor": 3, "offset": 5}},
                {"label": "a", "set": "all",
                 "schedule": {"kind": "own-stage"}}],
            "construction": {"op": "permitted-interval", "permitter": "c",
                             "streams": ["a", "c"],
                             "jump": {"kind": "step", "on_at": 4, "use": 9},
                             "pairs": [[0, 0], [1, 0], [0, 1]]}}


_jump_fields = st.one_of(st.sampled_from(["never", "step", "blink"]),
                         _fields)
_permitted_mutations = st.one_of(
    st.tuples(st.sampled_from(["kind", "on_at", "use", "period"]),
              _jump_fields),
    st.tuples(st.just(None), _fields),
    st.tuples(st.just("pairs"), _pairs))


@settings(max_examples=150, deadline=None)
@given(st.lists(_permitted_mutations, min_size=1, max_size=3))
def test_mutated_permitted_interval_exits_with_a_documented_code(mutations):
    cfg = _permitted_fuzz_base()
    spec = cfg["construction"]
    for key, value in mutations:
        if key == "pairs":
            spec["pairs"] = value
        elif key is None or not isinstance(spec["jump"], dict):
            spec["jump"] = value
        else:
            spec["jump"][key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        path = os.path.join(d, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main(["construct", "--config", path,
                         "--out", os.path.join(d, "o")])
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


def _main_exit(command, cfg):
    """cli.main's exit code on ``cfg``, and whether it printed a traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        path = os.path.join(d, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([command, "--config", path,
                         "--out", os.path.join(d, "o")])
    return code, "Traceback" in err.getvalue()


def _entries_fuzz_base():
    return {"universe": {"n_max": 120, "stage_max": 240},
            "sets": [{"label": "ev", "kind": "residue-union",
                      "modulus": 2, "residues": [0]},
                     {"label": "x", "kind": "explicit",
                      "elements": [0, 5, 99]},
                     {"label": "d", "kind": "dyadic-class", "k": 1},
                     {"label": "u", "kind": "dyadic-union",
                      "indices": [0, 2], "include_zero": True}],
            "streams": [{"label": "evs", "set": "ev"},
                        {"label": "xs", "set": "x"}],
            "deciders": [{"label": "one", "kind": "constant", "value": 1,
                          "delay": 2},
                         {"label": "r", "kind": "residue", "modulus": 3,
                          "residues": [1], "delay": 1},
                         {"label": "v", "kind": "value-delay", "value": 0,
                          "delay_factor": 1},
                         {"label": "p", "kind": "parity"}],
            "construction": {"op": "ratio-interval",
                             "deciders": ["one", "r", "v", "p"]},
            "generic": {"decider": "r", "set": "ev", "r": "1/2"}}


_set_keys = st.sampled_from(["label", "kind", "modulus", "residues",
                             "elements", "k", "indices", "include_zero"])
_decider_keys = st.sampled_from(["label", "kind", "value", "delay",
                                 "modulus", "residues", "delay_factor"])
_labels = st.sampled_from(["ev", "x", "d", "u", "one", "r", "v", "p",
                           "a/b", ""])
_entry_values = st.one_of(_fields, _labels,
                          st.sampled_from(["empty", "naturals", "explicit",
                                           "residue-union", "dyadic-class",
                                           "dyadic-union", "constant",
                                           "parity", "residue", "never",
                                           "value-delay"]))
_entry_mutations = st.one_of(
    st.tuples(st.just("sets"), st.integers(0, 3), _set_keys, _entry_values),
    st.tuples(st.just("deciders"), st.integers(0, 3), _decider_keys,
              _entry_values),
    st.tuples(st.sampled_from(["sets", "deciders"]), st.integers(0, 3),
              st.none(), _fields),
    st.tuples(st.sampled_from(["sets", "deciders", "streams"]), st.none(),
              st.none(), _fields))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["construct", "density", "generic"]),
       st.lists(_entry_mutations, min_size=1, max_size=3))
def test_mutated_entries_exit_with_a_documented_code(command, mutations):
    cfg = _entries_fuzz_base()
    for section, index, key, value in mutations:
        entries = cfg[section]
        if (index is None or not isinstance(entries, list)
                or index >= len(entries)):
            cfg[section] = value
        elif key is None or not isinstance(entries[index], dict):
            entries[index] = value
        else:
            entries[index][key] = value
    code, traceback = _main_exit(command, cfg)
    assert code in {0, 1, 2, 3, 4}
    assert not traceback


_CONSTRUCTIONS = {
    "streams": {"op": "blockwise-union", "streams": ["evs", "alls"]},
    "deciders": {"op": "ratio-interval", "deciders": ["one"]},
    "targets": {"op": "tracking-checkpoint-subset", "stream": "evs",
                "targets": ["1/4", "1/3"]},
    "witness": {"op": "witnessed-subset", "stream": "alls",
                "witness": {"kind": "exponential", "base": 2, "shift": 1}},
    "levels": {"op": "blockwise-levels", "n_blocks": 3,
               "levels": {"1": "1/2", "2": "1/3", "3": "2/3"}},
    "n_checkpoints": {"op": "target-oscillation", "n_checkpoints": 6,
                      "targets": ["1/3", "2/3"]},
}
_construction_values = st.one_of(
    _fields, st.lists(st.one_of(_labels, _fields), max_size=3),
    st.sampled_from([[], {}, ["evs", "nope"], {"kind": "constant",
                                               "value": 5},
                     {"kind": "exponential", "base": 0, "shift": 2**70},
                     {"1": "x"}, {"a": "1/2"}, {"2": 5}, {"3": "-1/2"}]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_CONSTRUCTIONS)), _construction_values,
       st.booleans())
def test_mutated_construction_exits_with_a_documented_code(field, value,
                                                           transfer):
    cfg = {"universe": {"n_max": 120, "stage_max": 240},
           "sets": [{"label": "ev", "kind": "residue-union",
                     "modulus": 2, "residues": [0]},
                    {"label": "all", "kind": "naturals"}],
           "streams": [{"label": "evs", "set": "ev"},
                       {"label": "alls", "set": "all"}],
           "deciders": [{"label": "one", "kind": "constant", "value": 1}],
           "construction": dict(_CONSTRUCTIONS[field], **{field: value})}
    if field == "n_checkpoints" and transfer:
        cfg["construction"] = {"op": "density-transfer", field: value,
                               "approx": {"kind": "constant", "set": "ev",
                                          "window": 40}}
    code, traceback = _main_exit("construct", cfg)
    assert code in {0, 1, 2, 3, 4}
    assert not traceback


@pytest.mark.parametrize("cfg, message", [
    ({"streams": 5}, "streams: must be a list, got 5"),
    ({"deciders": 5}, "deciders: must be a list, got 5"),
    ({"construction": {"op": "tracking-checkpoint-subset", "stream": "evs",
                       "targets": []}},
     "construction.targets: must be a nonempty list, got []"),
    ({"deciders": [{"label": "r", "kind": "residue", "modulus": 0,
                    "residues": [0]}]},
     "deciders[0].modulus: must be an integer >= 1, got 0"),
    ({"construction": {"op": "witnessed-subset", "stream": "evs",
                       "witness": 5}},
     "construction.witness: must be a JSON object"),
    ({"construction": {"op": "blockwise-levels", "n_blocks": 2,
                       "levels": 5}},
     "construction.levels: must be a JSON object"),
    ({"construction": {"op": "target-oscillation", "targets": ["1/3"],
                       "n_checkpoints": "x"}},
     "construction.n_checkpoints: must be an integer >= 0, got 'x'"),
    ({"construction": {"op": "target-oscillation", "targets": ["1/3"],
                       "n_checkpoints": -3}},
     "construction.n_checkpoints: must be an integer >= 0, got -3"),
    ({"sets": [{"label": "ev", "kind": "residue-union", "modulus": "a",
                "residues": [0]}]},
     "sets[0].modulus: must be an integer in [1, "),
    ({"sets": [{"label": "ev", "kind": "dyadic-class", "k": -1}]},
     "sets[0].k: must be an integer in [0, 62], got -1"),
    ({"construction": {"op": "checkpoint-subset", "stream": "evs",
                       "q": "0"}},
     "construction.q: must be a rational in (0, 1), got '0'"),
    ({"sets": [{"label": "a/b", "kind": "naturals"}]},
     "sets[0].label: must not hold '/' or NUL"),
])
def test_bad_entry_or_construction_field_is_a_config_error(
        tmp_path, capsys, cfg, message):
    base = construct_cfg({"op": "checkpoint-subset", "stream": "evs",
                          "q": "1/4"})
    assert _run(tmp_path, "construct", dict(base, **cfg)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_dyadic_class_past_any_window_is_empty(tmp_path):
    cfg = {"universe": {"n_max": 100, "stage_max": 100},
           "sets": [{"label": "far", "kind": "dyadic-class", "k": 62},
                    {"label": "big", "kind": "residue-union",
                     "modulus": NEVER, "residues": [3, NEVER - 1]}]}
    assert _run(tmp_path, "density", cfg) == 0
    far = (tmp_path / "o" / "density_far.csv").read_text().splitlines()
    big = (tmp_path / "o" / "density_big.csv").read_text().splitlines()
    assert far[-1] == "100,0,0,1,0.0"
    assert big[-1] == "100,1,1,100,0.01"


def test_density_transfer_past_nine_checkpoints_reloads(tmp_path):
    cfg = {"universe": {"n_max": 120, "stage_max": 240},
           "sets": [{"label": "ev", "kind": "residue-union", "modulus": 2,
                     "residues": [0]}],
           "construction": {"op": "density-transfer", "n_checkpoints": 12,
                            "approx": {"kind": "constant", "set": "ev",
                                       "window": 40}}}
    assert _run(tmp_path, "construct", cfg) == 0
    assert cli.main(["check", "--artifact",
                     str(tmp_path / "o" / "artifact.json")]) == 0


def _python_m(tmp_path, *args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "cedensity", *args],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)


def test_python_m_runs_the_cli(tmp_path):
    shown = _python_m(tmp_path, "--help")
    assert shown.returncode == 0
    assert "usage: cedensity" in shown.stdout
    bad = _python_m(tmp_path, "density", "--config",
                    write_cfg(tmp_path, "c.json", {"universe": 5}),
                    "--out", str(tmp_path / "o"))
    assert bad.returncode == 2
    assert "config error: universe: must be a JSON object" in bad.stderr
    assert "Traceback" not in bad.stderr


# -- the exact message of each config error -----------------------------------

_EV = {"label": "ev", "kind": "residue-union", "modulus": 2, "residues": [0]}


def _pin_cfg(sections):
    cfg = {"universe": {"n_max": 100, "stage_max": 200},
           "sets": [_EV],
           "streams": [{"label": "evs", "set": "ev"}],
           "deciders": [{"label": "p", "kind": "parity"}],
           "construction": {"op": "checkpoint-subset", "stream": "evs",
                            "q": "1/4"},
           "metrics": {"a": "ev", "b": "ev"},
           "generic": {"decider": "p", "set": "ev"}}
    cfg.update(sections)
    return cfg


def _op(op, **fields):
    return {"construction": dict(fields, op=op)}


def _set(**entry):
    return {"sets": [_EV, entry]}


_STEP = {"kind": "step", "on_at": 3, "use": 5}
_TRANSFER = {"kind": "constant", "set": "ev"}


@pytest.mark.parametrize("command, sections, message", [
    # label references
    ("construct", _op("checkpoint-subset", stream="nope", q="1/4"),
     "construction.stream: 'nope' not found"),
    ("construct", _op("permitted-interval", permitter="nope", jump=_STEP,
                      streams=["evs"]),
     "construction.permitter: 'nope' not found"),
    ("construct", _op("blockwise-union", streams=["evs", "nope"]),
     "construction.streams: 'nope' not found"),
    ("construct", _op("ratio-interval", deciders=["p", "nope"]),
     "construction.deciders: 'nope' not found"),
    ("construct", _op("density-transfer", n_checkpoints=2,
                      approx={"kind": "constant", "set": "nope"}),
     "construction.approx.set: 'nope' not found"),
    ("construct", _op("density-transfer", n_checkpoints=2,
                      approx={"kind": "flip", "before": "ev", "after": "no",
                              "at": 3}),
     "construction.approx.after: 'no' not found"),
    ("construct", {"streams": [{"label": "evs", "set": "nope"}]},
     "streams[0].set: 'nope' not found"),
    ("metrics", {"metrics": {"a": "nope", "b": "ev"}},
     "metrics.a: 'nope' not found"),
    ("generic", {"generic": {"decider": "nope", "set": "ev"}},
     "generic.decider: 'nope' not found"),
    ("generic", {"generic": {"decider": "p", "set": "nope"}},
     "generic.set: 'nope' not found"),
    # missing fields and sections
    ("density", _set(kind="naturals"), "sets[1]: 'label' not found"),
    ("density", _set(label=5, kind="naturals"),
     "sets[1].label: must be a string, got 5"),
    ("construct", {"streams": [{"set": "ev"}]},
     "streams[0]: 'label' not found"),
    ("construct", {"streams": [{"label": "evs"}]},
     "streams[0]: 'set' not found"),
    ("construct", _op("density-transfer", n_checkpoints=2,
                      approx={"kind": "flip", "before": "ev", "after": "ev"}),
     "construction.approx: 'at' not found"),
    ("construct", _op("density-transfer", n_checkpoints=2),
     "construction: 'approx' not found"),
    ("metrics", {"metrics": {"a": "ev"}}, "metrics: 'b' not found"),
    ("density", {"universe": {"stage_max": 5}},
     "universe.n_max: must be an integer >= 1, got None"),
    ("density", {"universe": {"n_max": 5}},
     "universe.stage_max: must be an integer >= 1, got None"),
    ("construct", {"construction": {}},
     "config has no 'construction' section"),
    ("metrics", {"metrics": None}, "config has no 'metrics' section"),
    ("generic", {"generic": 0}, "config has no 'generic' section"),
    ("density", {"sets": {}}, "sets: must be a list, got {}"),
    ("density", {"sets": [5]}, "sets[0]: must be a JSON object"),
    ("construct", {"streams": ["x"]}, "streams[0]: must be a JSON object"),
    ("construct", {"deciders": [[]]}, "deciders[0]: must be a JSON object"),
    ("construct", _op("density-transfer", n_checkpoints=2, approx=[1]),
     "construction.approx: must be a JSON object"),
    # bad list entries
    ("density", _set(label="x", kind="explicit", elements=[0, -1]),
     f"sets[1].elements[1]: must be an integer in [0, {NEVER}], got -1"),
    ("density", _set(label="x", kind="explicit", elements=5),
     "sets[1].elements: must be a list, got 5"),
    ("density", _set(label="u", kind="dyadic-union", indices=[1, "a"]),
     "sets[1].indices[1]: must be an integer >= 0, got 'a'"),
    ("density", _set(label="u", kind="dyadic-union", indices=[1],
                     include_zero=1),
     "sets[1].include_zero: must be true or false, got 1"),
    ("density", _set(label="r", kind="residue-union", modulus=4,
                     residues=[1, 4]),
     "sets[1].residues[1]: must be an integer in [0, 3], got 4"),
    ("construct", {"deciders": [{"label": "r", "kind": "residue",
                                 "modulus": 3, "residues": [True]}]},
     "deciders[0].residues[0]: must be an integer in [0, 2], got True"),
    ("construct", _op("tracking-checkpoint-subset", stream="evs",
                      targets=["1/2", "x"]),
     "construction.targets[1]: bad rational 'x'"),
    ("construct", _op("target-oscillation", n_checkpoints=2, targets=5),
     "construction.targets: must be a nonempty list, got 5"),
    ("construct", _op("blockwise-union", streams="evs"),
     "construction.streams: must be a list, got 'evs'"),
    # bad values
    ("construct", _op("blockwise-levels", n_blocks=2, levels={"a": "1/2"}),
     "construction.levels: every key must be a block number"),
    ("construct", _op("blockwise-levels", n_blocks=2, levels={"1": "1/0"}),
     "construction.levels.1: bad rational '1/0'"),
    ("construct", _op("blockwise-levels", n_blocks=10, levels={}),
     "construction.n_blocks: must be an integer in [0, 9], got 10"),
    ("construct", _op("witnessed-subset", stream="evs",
                      witness={"kind": "exponential", "base": -1}),
     "construction.witness.base: must be an integer >= 0, got -1"),
    ("construct", _op("witnessed-subset", stream="evs",
                      witness={"kind": "constant", "value": "1"}),
     "construction.witness.value: must be an integer >= 0, got '1'"),
    ("construct", _op("density-transfer", n_checkpoints=2,
                      approx=dict(_TRANSFER, window=0)),
     f"construction.approx.window: must be an integer in [1, {NEVER // 16}],"
     " got 0"),
    ("construct", _op("density-transfer", n_checkpoints=40,
                      approx=dict(_TRANSFER, window=40)),
     "construction.n_checkpoints: must be an integer in [0, 39], got 40"),
    ("construct", {"deciders": [{"label": "c", "kind": "constant",
                                 "value": 2}]},
     "deciders[0].value: must be an integer in [0, 1], got 2"),
    ("construct", {"deciders": [{"label": "p", "kind": "parity",
                                 "delay": -1}]},
     "deciders[0].delay: must be an integer >= 0, got -1"),
    ("construct", {"deciders": [{"label": "v", "kind": "value-delay",
                                 "value": 1, "delay_factor": "2"}]},
     "deciders[0].delay_factor: must be an integer >= 0, got '2'"),
    ("construct", _op("checkpoint-subset", stream="evs", q=[]),
     "construction.q: bad rational []"),
    ("construct", _op("target-oscillation", n_checkpoints=2, targets=["1/2"])
     | {"universe": {"n_max": 1, "stage_max": 5}},
     "universe.n_max: must be an integer >= 2, got 1"),
    ("generic", {"generic": {"decider": "p", "set": "ev", "r": "x"}},
     "generic.r: bad rational 'x'"),
    ("metrics", {"metrics": {"a": "ev", "b": "ev", "hi": "9"}},
     "metrics.hi: must be an integer >= 1, got '9'"),
    # unknown kinds, and the required jump and witness
    ("density", _set(label="z", kind="zz"),
     "sets[1].kind: unknown set kind 'zz'"),
    ("density", _set(label="z"), "sets[1].kind: unknown set kind None"),
    ("construct", {"streams": [{"label": "evs", "set": "ev",
                                "schedule": {"kind": "zz"}}]},
     "streams[0].schedule.kind: unknown schedule kind 'zz'"),
    ("construct", {"deciders": [{"label": "d", "kind": "zz"}]},
     "deciders[0].kind: unknown decider kind 'zz'"),
    ("construct", _op("permitted-interval", permitter="evs", streams=["evs"],
                      jump={"kind": "zz"}),
     "construction.jump.kind: unknown jump kind 'zz'"),
    ("construct", _op("permitted-interval", permitter="evs", streams=["evs"]),
     "construction: 'jump' not found"),
    ("construct", _op("density-transfer", n_checkpoints=2,
                      approx={"kind": "zz"}),
     "construction.approx.kind: unknown approximation kind 'zz'"),
    ("construct", _op("witnessed-subset", stream="evs", witness={}),
     "construction.witness.kind: unknown witness kind None"),
    ("construct", _op("witnessed-subset", stream="evs"),
     "construction: 'witness' not found"),
    ("construct", _op("zz"), "construction.op: unknown construction op 'zz'"),
    # new rows go at the end, so the parameter ids above stay stable
    # labels defined twice
    ("density", _set(label="ev", kind="empty"),
     "sets[1].label: 'ev' is already defined"),
    ("construct", {"streams": [{"label": "evs", "set": "ev"},
                               {"label": "evs", "set": "ev"}]},
     "streams[1].label: 'evs' is already defined"),
    ("construct", {"deciders": [{"label": "p", "kind": "parity"},
                                {"label": "p", "kind": "never"}]},
     "deciders[1].label: 'p' is already defined"),
    # infinite rationals (JSON's Infinity, or 1e400 read as a float)
    ("construct", _op("tracking-checkpoint-subset", stream="evs",
                      targets=[float("inf")]),
     "construction.targets[0]: bad rational inf"),
    ("construct", _op("checkpoint-subset", stream="evs", q=float("-inf")),
     "construction.q: bad rational -inf"),
    ("construct", _op("blockwise-levels", n_blocks=2,
                      levels={"1": float("inf")}),
     "construction.levels.1: bad rational inf"),
    ("generic", {"generic": {"decider": "p", "set": "ev",
                             "r": float("inf")}},
     "generic.r: bad rational inf"),
    # a window start past the universe
    ("metrics", {"metrics": {"a": "ev", "b": "ev", "lo": 101}},
     "metrics.lo: must be an integer in [1, 100], got 101"),
])
def test_config_error_message_is_pinned(tmp_path, capsys, command, sections,
                                        message):
    assert _run(tmp_path, command, _pin_cfg(sections)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
