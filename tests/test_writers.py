"""Exact-rational CSV and JSON outputs: pinned bytes of the density, metrics
and generic subcommands, the columnar writers against the row-by-row
``csv``/``Fraction`` loops they replaced, and exact window extremes."""

import csv
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import cli
from cedensity.core import profile_from_bits
from cedensity.metrics import SymDiffProfile

SETS = [{"label": "none", "kind": "empty"},
        {"label": "all", "kind": "naturals"},
        {"label": "r1", "kind": "dyadic-class", "k": 1},
        {"label": "ru", "kind": "residue-union", "modulus": 7,
         "residues": [0, 3]},
        {"label": "du", "kind": "dyadic-union", "indices": [0, 2],
         "include_zero": True},
        {"label": "ex", "kind": "explicit", "elements": [0, 5, 999]}]

CONFIGS = {
    "density": {"universe": {"n_max": 1000, "stage_max": 1000},
                "sets": SETS},
    "metrics": {"universe": {"n_max": 1000, "stage_max": 1000},
                "sets": SETS,
                "metrics": {"a": "ru", "b": "du", "lo": 3, "hi": 900}},
    # defined only up to the stage budget, and wrong on the odd numbers
    "generic": {"universe": {"n_max": 600, "stage_max": 400},
                "sets": [{"label": "ev", "kind": "residue-union",
                          "modulus": 2, "residues": [0]}],
                "deciders": [{"label": "late", "kind": "value-delay",
                              "value": 1, "delay_factor": 1}],
                "generic": {"decider": "late", "set": "ev", "r": "1/2",
                            "lo": 5}},
}

# sha256 of each output file, recorded before the writers became columnar;
# any change to these bytes is a format change
GOLDEN = {
    "density": {
        "density_all.csv":
            "d45010ee6fc1aaab618edcb62575d103097741c337c68270e602b74d5e45e66a",
        "density_du.csv":
            "5dcdf4803cf8a13accc1986974d82acc4f7787d90b864b8f35103e52b3a00a93",
        "density_ex.csv":
            "09c7b572f505694b2885dfbba499f7b4ee1720c6f505e58088a5c17474ba808c",
        "density_none.csv":
            "bab4140147930f8254fe3e4767aae5419bae09e816bf80e78655eab21fb6e183",
        "density_r1.csv":
            "0c13b12866b09e86918313afa4e4fd0f8b8454832fa55cb50c141cc17d79fd56",
        "density_ru.csv":
            "daa104af70ecf6eafc52b059cba2ff3a601c3f21ab543f5745c874fd91d88c33",
        "density_summary.json":
            "af91813f64631935b75d6a0dbcb7f970ad0d883ae9e74c0960ad349eb36a5075",
    },
    "metrics": {
        "metrics_profile.csv":
            "9ef5192a0280b0f47f30acefd7ab5a73d3df2b1e705741427cfe9e4d0c1d0441",
        "metrics_summary.json":
            "ed1b2902ef8a5be71f4a6cc572a4f949b07341f69a570eab34f40136f41c143e",
    },
    "generic": {
        "generic_domain.csv":
            "a40c15804dd4f40600135926fcdc32e26ad99cc1981dd614f2002d7c59fb0f6d",
        "generic_summary.json":
            "8fd34ad2ac62b784695d4e03400e747876da7c76a6d59038a13ffe4c323ae7df",
    },
}


def run(command, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS[command]))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_golden_outputs(command, tmp_path):
    assert run(command, tmp_path) == GOLDEN[command]


# -- the row-by-row writers the columnar ones replaced -----------------------

def reference_profile_csv(prof, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "count", "rho_num", "rho_den", "rho_float"])
        for n in range(1, prof.n_max + 1):
            r = Fraction(int(prof.counts[n]), n)
            w.writerow([n, int(prof.counts[n]), r.numerator, r.denominator,
                        repr(float(r))])


def reference_symdiff_csv(sd, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "rhoA_num", "rhoA_den", "rhoA_float",
                    "rhoB_num", "rhoB_den", "rhoB_float",
                    "rhoSym_num", "rhoSym_den", "rhoSym_float"])
        for n in range(1, sd.n_max + 1):
            row = [n]
            for prof in (sd.a, sd.b, sd.sym):
                r = prof.rho(n)
                row += [r.numerator, r.denominator, repr(float(r))]
            w.writerow(row)


bitsets = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=300),
    st.integers(1, 300).map(lambda n: [False] * n),
    st.integers(1, 300).map(lambda n: [True] * n))


@settings(max_examples=80, deadline=None)
@given(bitsets, st.data())
def test_writers_match_row_loops(tmp_path_factory, abits, data):
    n = len(abits)
    bbits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = profile_from_bits(np.array(abits, dtype=bool))
    b = profile_from_bits(np.array(bbits, dtype=bool))
    sym = profile_from_bits(np.array(abits, dtype=bool)
                            ^ np.array(bbits, dtype=bool))
    sd = SymDiffProfile(a, b, sym, b_subset_of_a=False)
    d = tmp_path_factory.mktemp("w")
    for obj, reference in ((a, reference_profile_csv),
                           (sd, reference_symdiff_csv)):
        obj.write_csv(d / "new.csv")
        reference(obj, d / "old.csv")
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2, 40_000])
@pytest.mark.parametrize("fill", [False, True])
def test_constant_bitsets_match_row_loops(tmp_path, n, fill):
    # 40 000 rows span several write chunks
    prof = profile_from_bits(np.full(n, fill))
    prof.write_csv(tmp_path / "new.csv")
    reference_profile_csv(prof, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (
        tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("density", [0.003, 0.6])
def test_random_bitsets_match_row_loops_across_chunks(tmp_path, density):
    # 9000 rows span three write chunks; most rho_float fields come from the
    # numpy kernel, and the rest (0, 1, below 1e-4, at most 15 digits) from
    # repr
    rng = np.random.default_rng(int(density * 1000))
    bits = [rng.random(9000) < density for _ in range(2)]
    a, b, sym = (profile_from_bits(v) for v in (*bits, bits[0] ^ bits[1]))
    for obj, reference in ((a, reference_profile_csv),
                           (SymDiffProfile(a, b, sym, b_subset_of_a=False),
                            reference_symdiff_csv)):
        obj.write_csv(tmp_path / "new.csv")
        reference(obj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (
            tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_window_bounds_near_tie_at_large_n(rounding):
    # counts[n] = floor(n·a/b) (or ceil) with b prime just above the window:
    # the two greatest (least) distinct densities lie less than 1e-9 apart
    a, b = 38197, 100003
    n = np.arange(100_001, dtype=np.int64)
    counts = (n * a) // b if rounding == "floor" else -((-n * a) // b)
    prof = profile_from_bits(np.diff(counts) > 0)
    assert np.array_equal(prof.counts, counts)
    lo, hi = 90_000, 100_000
    rhos = sorted({Fraction(int(counts[k]), k) for k in range(lo, hi + 1)})
    close = rhos[-2:] if rounding == "floor" else rhos[:2]
    assert 0 < close[1] - close[0] < Fraction(1, 10**9)
    assert prof.window_bounds(lo, hi) == (rhos[0], rhos[-1])
