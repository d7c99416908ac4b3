"""The byte renderer of CSV rows (``core.csv_bytes`` / ``write_columns``)
against the per-value ``str`` join it replaced, and ``verify_artifact``'s
failure strings against the same join."""

import json
from fractions import Fraction
from itertools import accumulate, repeat
from math import ceil, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity import builders, prioritysim
from cedensity.core import (NEVER, CEStream, SetOracle, ceil_sqrt, csv_bytes,
                            write_columns)


# -- the formatter the renderer replaced --------------------------------------

def reference_lines(cols) -> list:
    """One comma-joined line per row; a None column is an empty field and
    str() of a float is its repr."""
    fields = [repeat("") if col is None else map(str, col.tolist())
              for col in cols]
    return list(map(",".join, zip(*fields)))


def reference_bytes(cols) -> bytes:
    return "".join(line + "\n" for line in reference_lines(cols)).encode()


# -- columns: a small pool of values, spread over the rows by a seeded draw, so
# that every value recurs across the 4096-row chunk boundaries --------------

INT64_EDGES = [0, 1, -1, 2**63 - 1, -(2**63 - 1), -2**63,
               *(sign * (10**k - d) for k in range(1, 19) for d in (0, 1)
                 for sign in (1, -1))]
FLOAT_EDGES = [0.0, -0.0, 1.0, float("inf"), float("-inf"), float("nan"),
               5e-324, 2.2250738585072014e-308 / 3, 1e-05, 1e16, 0.1,
               1 / 3, 123456789.0, -2.5e-10]

POOLS = {
    "int64": st.lists(st.one_of(st.sampled_from(INT64_EDGES),
                                st.integers(-2**63, 2**63 - 1)),
                      min_size=1, max_size=12),
    "object": st.lists(st.one_of(st.integers(-2**200, 2**200),
                                 st.sampled_from([2**63, -2**63 - 1, 0])),
                       min_size=1, max_size=12),
    "uint8": st.just([0, 1]),
    "float": st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()),
                      min_size=1, max_size=12),
    "none": st.just(None),
}
DTYPES = {"int64": np.int64, "object": object, "uint8": np.uint8,
          "float": np.float64}


@st.composite
def tables(draw, rows=st.sampled_from([0, 1, 2, 4095, 4096, 4097, 9000])):
    n = draw(rows)
    kinds = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1,
                          max_size=6))
    if all(kind == "none" for kind in kinds):
        kinds.append("int64")  # the row count comes from some column
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        pool = draw(POOLS[kind])
        if pool is None:
            cols.append(None)
            continue
        pool = np.array(pool, dtype=DTYPES[kind])
        cols.append(pool[rng.integers(0, pool.size, n)])
    return cols


@settings(max_examples=60, deadline=None)
@given(tables())
def test_write_columns_matches_the_str_join(tmp_path_factory, cols):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_columns(path, "h\n", cols)
    assert path.read_bytes() == b"h\n" + reference_bytes(cols)


@settings(max_examples=150, deadline=None)
@given(tables(rows=st.integers(0, 40)))
def test_csv_bytes_matches_the_str_join(cols):
    assert csv_bytes(cols) == reference_bytes(cols)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
def test_chunk_edges(tmp_path, rows):
    ints = np.resize(np.array(INT64_EDGES, dtype=np.int64), rows)
    floats = np.resize(np.array(FLOAT_EDGES), rows)
    big = np.resize(np.array([2**64, -2**70, 7], dtype=object), rows)
    cols = [ints, None, floats, big, (ints % 2).astype(np.uint8), None]
    write_columns(tmp_path / "t.csv", "", cols)
    assert (tmp_path / "t.csv").read_bytes() == reference_bytes(cols)


# -- verify_artifact's failure strings -----------------------------------------

def _evens(n_max):
    return CEStream.from_oracle(SetOracle.residue_union(2, [0]),
                                n_max=n_max, stage_max=2 * n_max)


def _sparse(n_max):
    roster = [CEStream.from_oracle(SetOracle.naturals(), n_max=n_max,
                                   stage_max=n_max)] * 6
    entry, report = builders.sparse_hitting_build(roster, n_max, n_max)
    return ap.SubsetArtifact("sparse", entry.final_members(),
                             checkpoints=report,
                             guarantee={"form": "log-sparse"})


def _naturals(n_max, delay_fn=None):
    return CEStream.from_oracle(SetOracle.naturals(), n_max=n_max,
                                stage_max=4 * n_max, delay_fn=delay_fn)


def _blockwise():
    g = builders.StableMonotoneG(lambda n, s: Fraction(1, 2),
                                 next_change=lambda s: NEVER)
    stream, levels = builders.blockwise_limit_build(g, 5, 720)
    return ap.SubsetArtifact("blockwise_levels", stream.final_members(),
                             guarantee=builders.levels_guarantee(levels))


def _restraint():
    # five quiet streams: final intervals end at m = 3, 6, 12, 24 and 48
    quiet = [CEStream.from_oracle(SetOracle.empty(), n_max=50,
                                  stage_max=50)] * 5
    stream, trace = prioritysim.restraint_witness_build(quiet, 50, 50)
    return ap.SubsetArtifact(
        "restraint_witness", stream.final_members(),
        [dict(v, k=k) for k, v in sorted(trace.outcomes.items())],
        {"form": "restraint-report"})


PRODUCERS = {
    # a q whose denominator puts the bound columns past int64 (object)
    "checkpoint-object": (lambda: ap.checkpoint_subset(
        _evens(600), f"{2**61 + 1}/{2**63}"), "clear"),
    "checkpoint": (lambda: ap.checkpoint_subset(_evens(600), "1/4"),
                   "clear"),
    "tracking": (lambda: ap.tracking_checkpoint_subset(
        _evens(600), ["1/4", "1/3"]), "clear"),
    "lookahead": (lambda: ap.lookahead_subset(_evens(600), "1/3"), "clear"),
    "witness": (lambda: ap.witnessed_subset(_naturals(600),
                                            lambda k: 2 ** k), "clear"),
    "relative": (lambda: ap.limit_witness_subset(
        _naturals(60, lambda m: 2 * m + 1),
        ap.LimitApprox(lambda k, s: 2 ** k)), "clear"),
    "approach": (lambda: builders.infsup_build(["1/3", "2/3"] * 3, 6, 10**4),
                 "clear"),
    "blockwise": (_blockwise, "clear"),
    "restraint": (_restraint, "fill"),
    "log-sparse": (lambda: _sparse(300), "set"),
}


# -- the reference: every check and bound row in Python ints and Fractions ----

def _reference_checks(art, c) -> list:
    """The record checks' failure strings, in the form's check order."""
    g, cps = art.guarantee, art.checkpoints
    out = []
    if g["form"] in ("checkpoint-ratio", "tracking-checkpoint-ratio",
                     "target-approach"):
        out += [f"checkpoint s={cp['s']}: stored count {cp['count']} != "
                f"bitset count {c[cp['s']]}"
                for cp in cps if c[cp["s"]] != cp["count"]]
    if g["form"] == "target-approach":
        for a, b in zip(cps, cps[1:]):
            sa, sb = a["s"], b["s"]
            bad = [k for k in range(sa + 1, sb)
                   if (c[k] * sa - c[sa] * k) * (c[k] * sb - c[sb] * k) > 0]
            out += [f"betweenness fails at k={k}" for k in bad[:1]]
    if g["form"] == "blockwise-levels":
        out += [f"block {k}: density != {L}/{k}" for k, L in g["levels"]
                if Fraction(c[factorial(k + 1)] - c[factorial(k)],
                            factorial(k + 1) - factorial(k)) != Fraction(L, k)]
    finals = [r for r in cps if r.get("final_interval") is not None]
    for r in finals if g["form"] == "restraint-report" else ():
        k, (_, m) = r["k"], r["final_interval"]
        rho, bound = Fraction(c[m], m), 1 - Fraction(1, 1 << (k + 2))
        if Fraction(r["rho_m_num"], r["rho_m_den"]) != rho:
            out.append(f"restraint k={k}: stored rho_m {r['rho_m_num']}/"
                       f"{r['rho_m_den']} != bitset rho_m {c[m]}/{m}")
        if r["strictly_below_bound"] is not (rho < bound):
            out.append(f"restraint k={k}: stored strictly_below_bound "
                       "disagrees with the bitset")
    return out


def _reference_rows(art) -> list:
    """(n, lower, upper, strict) per certified row; a bound is a Fraction,
    or None where the form has none."""
    g, cps, n_max = art.guarantee, art.checkpoints, art.n_max
    form = g["form"]
    if form == "checkpoint-ratio":
        q = Fraction(g["q_num"], g["q_den"])
        return [(cp["s"], q * cp["s"], None, False) for cp in cps
                if cp["s"] > 0]
    if form == "tracking-checkpoint-ratio":
        return [(cp["s"], max(Fraction(cp["target_num"], cp["target_den"])
                              - Fraction(1, 1 << cp["slack_pow"]), 0)
                 * cp["s"], None, False) for cp in cps if cp["s"] != 0]
    if form == "lookahead-margin":
        q = Fraction(g["q_num"], g["q_den"])
        return [(n, Fraction(ceil(q * n) - ceil_sqrt(n)), None, False)
                for n in range(g["n0"], n_max + 1)]
    if form == "witness-margin":
        return [(n, Fraction(n - (n >> int(h)) - ceil_sqrt(n)), None, False)
                for n, h in enumerate(g["h_of_n"], 1)]
    if form == "lookahead-margin-relative":
        return [(n, Fraction(int(v) - ceil_sqrt(n)), None, False)
                for n, v in enumerate(g["in_a"], 1)]
    if form == "target-approach":
        return [(cp["s"], *(Fraction(cp["q_num"], cp["q_den"]) * cp["s"]
                            + sign * Fraction(cp["s"], cp["n"] + 1)
                            for sign in (-1, 1)), False) for cp in cps]
    if form == "blockwise-levels":
        return [(factorial(k + 1), L * factorial(k), (L + 1) * factorial(k),
                 False) for k, L in g["levels"]]
    if form == "restraint-report":
        return [(r["final_interval"][1], None,
                 (1 - Fraction(1, 1 << (r["k"] + 2))) * r["final_interval"][1],
                 True) for r in cps if r["final_interval"] is not None]
    assert form == "log-sparse"
    return [(n, None, n.bit_length(), False) for n in range(1, n_max + 1)]


def _fields(bound) -> list:
    if bound is None:
        return ["", ""]
    bound = Fraction(bound)
    return [str(bound.numerator), str(bound.denominator)]


def _reference_failures(art) -> list:
    """verify_artifact's failure strings, from the bits and records alone:
    the record checks, the stored look-ahead verdict, then one string per
    failed certified row."""
    c = [0, *accumulate(map(int, art.bits))]
    g = art.guarantee
    out = _reference_checks(art, c)
    failed = [(n, lo, hi) for n, lo, hi, strict in _reference_rows(art)
              if (lo is not None and c[n] < lo) or (hi is not None and (
                  c[n] >= hi if strict else c[n] > hi))]
    if "holds" in g:  # the producer's own check, whose verdict is stored
        if g["form"] == "lookahead-margin":
            first = next((n for n, v in enumerate(g["in_a"].tolist(), g["n0"])
                          if c[n] < v - ceil_sqrt(n)), None)
        else:  # the producer checked the bound rows
            first = failed[0][0] if failed else None
        if (g["holds"], g["first_violation"]) != (first is None, first):
            found = "holds" if first is None else f"first fails at n={first}"
            out.append(f"stored verdict holds={g['holds']}, first_violation="
                       f"{g['first_violation']} disagrees with the margin "
                       f"check, which {found}")
    return out + ["certified row fails: " + ",".join(
        [str(n), str(c[n]), *_fields(lo), *_fields(hi), "0"])
        for n, lo, hi in failed]


def _flipped(art, how, tmp_path):
    """The artifact with its last two thirds of bits cleared or set, or
    with every bit set ("fill"), saved with a fresh digest and loaded
    back."""
    path = tmp_path / "a.json"
    ar.save_artifact(art, path)
    payload = json.loads(path.read_text())
    bits = ar.rle_to_bits(payload["bits_rle"], payload["n_max"])
    bits[0 if how == "fill" else bits.size // 3:] = how != "clear"
    payload["bits_rle"] = ar.bits_to_rle(bits).tolist()
    payload.pop("integrity_sha256")
    payload["integrity_sha256"] = ar.hashlib.sha256(
        ar._canonical(payload)).hexdigest()
    path.write_text(json.dumps(payload))
    return ar.load_artifact(path)


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_failure_strings_match_the_str_join(tmp_path, producer):
    make, how = PRODUCERS[producer]
    art = _flipped(make(), how, tmp_path)
    want = _reference_failures(art)
    assert any(msg.startswith("certified row fails: ") for msg in want)
    assert ar.verify_artifact(art)["failures"] == want


def test_object_bound_columns_are_exercised():
    make, _ = PRODUCERS["checkpoint-object"]
    art = make()
    _, cols = ar._evaluate(art)
    assert cols[2].dtype == object and cols[3].dtype == object
