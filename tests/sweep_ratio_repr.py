"""Compare the ``Ratio`` column with ``repr(p / q)`` on every p/q with
q <= 2000 and on 10^6 seeded random draws with 0 <= p <= q < 2^31.

Not part of Tier-1 (about 7 s on one core, most of it in the reference
``repr`` loop).  Run from the root of a checkout:

    PYTHONPATH=src python tests/sweep_ratio_repr.py

Exits 1 and prints the first mismatches if any row differs.
"""

import sys

import numpy as np

from cedensity.core import Ratio, csv_bytes

CHUNK = 1 << 16


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


def main() -> int:
    q_max = 2000
    qs = np.concatenate([np.full(q + 1, q) for q in range(1, q_max + 1)])
    ps = np.concatenate([np.arange(q + 1) for q in range(1, q_max + 1)])
    rng = np.random.default_rng(20131)
    rq = rng.integers(1, 2**31, 10**6)
    rp = rng.integers(0, rq + 1)
    failed = False
    for label, p, q in ((f"every p/q with q <= {q_max}", ps, qs),
                        ("10^6 random p <= q < 2^31", rp, rq)):
        bad = mismatches(p, q)
        print(f"{label}: {p.size} rows, {len(bad)} mismatches")
        for a, b, got, want in bad[:10]:
            print(f"  {a}/{b}: got {got!r}, repr gives {want!r}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
