"""Compare the ``Ratio`` column with ``repr(p / q)`` on every p/q with
q <= 2000, on 10^6 seeded random draws with 0 <= p <= q < 2^31, on every
q = 2^a·5^b < 2^31 (p = 0, p = q and 1000 seeded p in [0, q] each), and on
the prefix densities counts[n]/n, n <= 10^5, of the set families the
``profile`` benchmark workload writes: unions of residues mod 13, dyadic
classes and unions, their differences from the naturals, and the naturals.

Not part of Tier-1 (about 8 s on one core, most of it in the reference
``repr`` loop).  Run from the root of a checkout:

    PYTHONPATH=src python tests/sweep_ratio_repr.py

Exits 1 and prints the first mismatches if any row differs.
"""

import sys
from itertools import combinations

import numpy as np

from cedensity.core import (Ratio, SetOracle, csv_bytes, density_profile,
                            dyadic_class, dyadic_union, rho_columns)
from cedensity.metrics import symdiff_profile

CHUNK = 1 << 16
N_MAX = 10**5


def mismatches(ps, qs) -> list:
    bad = []
    for i in range(0, ps.size, CHUNK):
        p, q = ps[i:i + CHUNK], qs[i:i + CHUNK]
        got = csv_bytes([Ratio(p, q)]).decode().splitlines()
        want = [repr(a / b) for a, b in zip(p.tolist(), q.tolist())]
        if got != want:
            bad += [(a, b, g, w) for a, b, g, w
                    in zip(p.tolist(), q.tolist(), got, want) if g != w]
    return bad


def terminating(rng):
    """Every q = 2^a·5^b < 2^31, with p = 0, p = q and 1000 seeded p."""
    qs = sorted(2**a * 5**b for a in range(31) for b in range(14)
                if 2**a * 5**b < 2**31)
    ps = [np.concatenate([[0, q], rng.integers(0, q + 1, 1000)])
          for q in qs]
    return (np.concatenate(ps),
            np.concatenate([np.full(p.size, q) for p, q in zip(ps, qs)]))


def profile_families():
    """The distinct counts[n]/n, 1 <= n <= 10^5, reduced as
    ``rho_columns`` writes them, of sets from the families of the profile
    workload's sets: residue unions mod 13 (one residue, six in two
    layouts, twelve), the dyadic classes 0-5, every union of three of the
    classes 1-5 and its difference from the naturals, and the naturals."""
    dyadic = [dyadic_union(ks) for ks in combinations(range(1, 6), 3)]
    residues = [[0], range(6), [0, 2, 3, 5, 8, 11], range(12)]
    profiles = ([density_profile(SetOracle.residue_union(13, rs), N_MAX)
                 for rs in residues]
                + [density_profile(dyadic_class(k), N_MAX) for k in range(6)]
                + [density_profile(oracle, N_MAX) for oracle in dyadic]
                + [symdiff_profile(SetOracle.naturals(), oracle, N_MAX).sym
                   for oracle in dyadic]
                + [density_profile(SetOracle.naturals(), N_MAX)])
    ratios = [rho_columns(prof.counts)[2] for prof in profiles]
    rows = np.sort(np.concatenate([r.num << 20 | r.den for r in ratios]))
    rows = rows[np.insert(rows[1:] != rows[:-1], 0, True)]
    return rows >> 20, rows & (1 << 20) - 1  # num, den <= 10^5 < 2^20


def main() -> int:
    q_max = 2000
    qs = np.concatenate([np.full(q + 1, q) for q in range(1, q_max + 1)])
    ps = np.concatenate([np.arange(q + 1) for q in range(1, q_max + 1)])
    rng = np.random.default_rng(20131)
    rq = rng.integers(1, 2**31, 10**6)
    rp = rng.integers(0, rq + 1)
    failed = False
    for label, p, q in ((f"every p/q with q <= {q_max}", ps, qs),
                        ("10^6 random p <= q < 2^31", rp, rq),
                        ("every q = 2^a·5^b < 2^31",
                         *terminating(np.random.default_rng(27))),
                        ("profile set families, n <= 10^5",
                         *profile_families())):
        bad = mismatches(p, q)
        print(f"{label}: {p.size} rows, {len(bad)} mismatches")
        for a, b, got, want in bad[:10]:
            print(f"  {a}/{b}: got {got!r}, repr gives {want!r}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
