from fractions import Fraction

import numpy as np
import pytest

from cedensity import approximators as ap
from cedensity import artifacts as ar
from cedensity.core import CEStream, SetOracle, ceil_div, ceil_sqrt
from cedensity.errors import PreconditionViolated


def evens_stream(n_max=2000):
    return CEStream.from_oracle(SetOracle.residue_union(2, [0]),
                                n_max=n_max, stage_max=4 * n_max)


def test_checkpoint_subset_evens_quarter():
    art = ap.checkpoint_subset(evens_stream(), "1/4")
    cps = art.checkpoints
    assert cps[0] == {"s": 0, "t": 0, "count": 0}
    assert [c["s"] for c in cps[:3]] == [0, 1, 3]
    # selected prefix below s = 3 is {0, 2}
    assert list(np.nonzero(art.bits[:3])[0]) == [0, 2]
    counts = art.counts()
    for c in cps[1:]:
        s = c["s"]
        assert int(counts[s]) == c["count"]
        assert int(counts[s]) * 4 >= s  # rho_s(B) >= 1/4 exactly
    assert art.is_subset_of(evens_stream())


def test_checkpoint_subset_empty_stream_reports_budget():
    empty = CEStream.from_oracle(SetOracle.empty(), n_max=100, stage_max=200)
    art = ap.checkpoint_subset(empty, "1/2")
    assert art.diagnostics
    assert len(art.checkpoints) == 1  # only the trivial origin checkpoint


def test_checkpoint_dovetail_prefers_earliest_pair():
    # all elements available at stage 0: the first pair past s_n must be
    # the one minimizing s + t in dovetail order
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=500,
                                stage_max=500, delay_fn=lambda m: 0)
    art = ap.checkpoint_subset(full, "1/2")
    for prev, cur in zip(art.checkpoints, art.checkpoints[1:]):
        assert cur["s"] > prev["s"]
        assert cur["t"] <= cur["s"]  # nothing enters later than needed here


def test_tracking_checkpoint_subset_slacked_bound():
    art = ap.tracking_checkpoint_subset(evens_stream(), ["1/4", "1/3"])
    counts = art.counts()
    for n, cp in enumerate(art.checkpoints):
        s = cp["s"]
        if s == 0:
            continue
        assert int(counts[s]) == cp["count"]
        thr = (Fraction(cp["target_num"], cp["target_den"])
               - Fraction(1, 2 ** cp["slack_pow"]))
        if thr > 0:
            assert int(counts[s]) * thr.denominator >= thr.numerator * s
        assert isinstance(cp["observed_unslacked"], bool)


def test_lookahead_subset_margin_holds_everywhere():
    stream = evens_stream()
    art = ap.lookahead_subset(stream, "1/4", n0=1)
    g = art.guarantee
    assert g["holds"] and g["first_violation"] is None
    counts = art.counts()
    s_table = g["s_table"]
    for n in range(g["n0"], art.n_max + 1):
        a_count = stream.count_at(n, int(s_table[n - 1]))
        assert int(counts[n]) >= a_count - ceil_sqrt(n)


def test_lookahead_precondition_violation():
    with pytest.raises(PreconditionViolated) as exc:
        ap.lookahead_subset(evens_stream(), "3/4", n0=1)
    assert exc.value.at == 2


@pytest.mark.parametrize("q", [Fraction(2**48 + 1, 2**50),
                               Fraction(2**61 + 1, 2**63)])
def test_lookahead_precondition_exact_past_int64(q, tmp_path):
    # den·n passes 2^63 inside the window; the evens still clear q·n
    art = ap.lookahead_subset(evens_stream(20000), q)
    assert ar.verify_artifact(art)["ok"]
    ar.write_certified_csv(art, tmp_path / "c.csv")
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    assert len(rows) == 20000 and all(r.endswith(",1") for r in rows)


def test_witnessed_subset_rejects_false_promise():
    # w == 0 claims density >= 1 - 2^-k for every k from the start;
    # the evens fail that at n = 2
    with pytest.raises(PreconditionViolated) as exc:
        ap.witnessed_subset(evens_stream(), lambda k: 0)
    assert exc.value.at == 2


def test_witnessed_subset_full_stream():
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=1000,
                                stage_max=1000)
    art = ap.witnessed_subset(full, lambda k: 2 ** (k + 1))
    counts = art.counts()
    h = art.guarantee["h_of_n"]
    for n in range(1, art.n_max + 1):
        p = 1 << h[n - 1]
        assert int(counts[n]) >= ceil_div(n * (p - 1), p) - ceil_sqrt(n)


def test_limit_witness_instant_full_stream():
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=200,
                                stage_max=200, delay_fn=lambda m: 0)
    g = ap.LimitApprox(lambda k, s: 0)
    art = ap.limit_witness_subset(full, g)
    # guards are satisfied immediately: everything below n is selected
    assert int(art.bits.sum()) == art.n_max
    assert art.guarantee["form"] == "lookahead-margin-relative"


def test_tracked_witness_subset_runs():
    full = CEStream.from_oracle(SetOracle.naturals(), n_max=500,
                                stage_max=500)
    art = ap.tracked_witness_subset(full, ["1/2"],
                                    ap.LimitApprox(lambda k, s: k))
    assert art.guarantee["holds"]


def test_seq_to_fn_extends_last_value():
    fn = ap._seq_to_fn([Fraction(1, 4), Fraction(1, 2)])
    assert fn(0) == Fraction(1, 4)
    assert fn(5) == Fraction(1, 2)
