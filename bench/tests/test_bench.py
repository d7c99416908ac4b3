"""Tests of the benchmark's own parts: the output checker, span
arithmetic, the seeded generator and the metric list.

    python3 -m pytest bench/tests -q
"""

import json
import os

import pytest

import checker
import run
import worker
import workloads
from cedensity import cli
from tracer import Tracer, self_times


def _construct(tmp_path, op):
    cfg = {"universe": {"n_max": 3000, "stage_max": 12000},
           "sets": [{"label": "a", "kind": "residue-union", "modulus": 6,
                     "residues": [0, 2, 3]}],
           "streams": [{"label": "own", "set": "a",
                        "schedule": {"kind": "own-stage"}}],
           "construction": op}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["construct", "--config", str(path),
                     "--out", str(out)]) == 0
    return out


@pytest.fixture
def lookahead_out(tmp_path):
    return _construct(tmp_path, {"op": "lookahead-subset", "stream": "own",
                                 "q": "1/3", "n0": 10})


def test_checker_accepts_construct_outputs(lookahead_out):
    assert checker.check_construct(str(lookahead_out)) == []


def test_checker_rejects_one_digit_mutated_artifact(lookahead_out):
    art = lookahead_out / "artifact.json"
    raw = art.read_text()
    i = raw.index('"bits_rle"')
    i += next(k for k, ch in enumerate(raw[i:]) if ch.isdigit())
    mutated = raw[:i] + str(int(raw[i]) % 9 + 1) + raw[i + 1:]
    assert mutated != raw
    art.write_text(mutated)
    problems = checker.check_construct(str(lookahead_out))
    assert any("digest" in p for p in problems)


def test_checker_rejects_flipped_holds(lookahead_out):
    csv_path = lookahead_out / "certified.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[5].endswith(",1")
    lines[5] = lines[5][:-1] + "0"
    csv_path.write_text("\n".join(lines) + "\n")
    problems = checker.check_construct(str(lookahead_out))
    assert any("holds=0" in p for p in problems)


def test_checker_rejects_count_that_breaks_the_bound(lookahead_out):
    # holds stays 1 but the stated bound no longer holds for the count
    csv_path = lookahead_out / "certified.csv"
    lines = csv_path.read_text().splitlines()
    n, c, lo_num, lo_den, *rest = lines[50].split(",")
    lines[50] = ",".join([n, c, str(int(c) * int(lo_den) + 1), lo_den,
                          *rest])
    csv_path.write_text("\n".join(lines) + "\n")
    problems = checker.check_construct(str(lookahead_out))
    assert any("recomputed 0" in p for p in problems)


def test_checker_density_summary_cross_multiplied(tmp_path):
    cfg = {"universe": {"n_max": 600, "stage_max": 600},
           "sets": [{"label": "d", "kind": "dyadic-union",
                     "indices": [0, 2]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["density", "--config", str(path),
                     "--out", str(out)]) == 0
    assert checker.check_density(str(out), cfg) == []
    summary_path = out / "density_summary.json"
    summary = json.loads(summary_path.read_text())
    summary["d"]["max"] = [summary["d"]["max"][0],
                           summary["d"]["max"][1] + 1]
    summary_path.write_text(json.dumps(summary))
    assert checker.check_density(str(out), cfg)


def test_self_times_on_nested_spans():
    spans = [("cli", None, 0.0, 10.0),
             ("a", 0, 1.0, 4.0),
             ("b", 1, 2.0, 3.0),
             ("c", 0, 5.0, 9.0),
             ("d", 3, 6.0, 7.0),
             ("e", 3, 6.5, 8.0),   # overlaps d: the union counts once
             ("b", 0, 9.0, 9.5)]
    st = self_times(spans)
    assert st["cli"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert st["a"] == pytest.approx(2.0)
    assert st["b"] == pytest.approx(1.5)
    assert st["c"] == pytest.approx(4.0 - 2.0)
    assert st["d"] == pytest.approx(1.0)
    assert st["e"] == pytest.approx(1.5)


class _Layer:
    @staticmethod
    def inner(x):
        return x + 1

    def outer(self, x):
        return _Layer.inner(x) * 2


def test_tracer_wraps_nests_and_restores():
    tracer = Tracer()
    original = _Layer.__dict__["inner"]
    assert tracer.wrap(_Layer, "inner", "layer.inner")
    assert tracer.wrap(_Layer, "outer", "layer.outer")
    assert not tracer.wrap(_Layer, "missing", "layer.missing")
    root = tracer.open("cli")
    assert _Layer().outer(1) == 4
    tracer.close(root)
    tracer.restore()
    assert _Layer.__dict__["inner"] is original
    names = [(name, parent) for name, parent, *_ in tracer.spans]
    assert names == [("cli", None), ("layer.outer", 0), ("layer.inner", 1)]
    st = self_times(tracer.spans)
    total = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(st.values()) == pytest.approx(total)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.make_workload(name, 7) == workloads.make_workload(name, 7)
    assert workloads.make_workload(name, 7) != workloads.make_workload(name, 8)


def test_lookahead_n0_is_least_valid_start():
    counts = workloads.prefix_counts(
        workloads.residue_members(6, [1, 2, 5], 500))
    n0 = workloads.lookahead_n0(counts, 1, 3)
    ns = range(n0, 501)
    assert all(counts[n] * 3 >= n for n in ns)
    assert n0 == 1 or counts[n0 - 1] * 3 < n0 - 1


def test_metric_lists_match_benchmark_json():
    root = os.path.dirname(run.BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_traced_pass_yields_every_per_layer_metric():
    produced = set(worker.layer_metrics([], {}, [])) | {
        "trace.pass_wall_s", "trace_overhead_s",
        "approximators.helpers_absent"} | {
        f"growth.{layer}" for layer in worker.LAYERS}
    assert produced == set(run.PER_LAYER)


def test_scale_factors_bracket_each_interval():
    import hostspeed
    ref = hostspeed.REF_LOOP_S
    assert hostspeed.scale_factors([ref, ref, ref / 2]) == pytest.approx(
        [1.0, 4 / 3])


def test_typical_pass_ignores_one_slow_job():
    passes = [{"t": [1.0, 2.0]}, {"t": [1.2, 9.0]}, {"t": [0.8, 2.2]}]
    assert run.typical_pass(passes, "t") == pytest.approx(1.0 + 2.2)
