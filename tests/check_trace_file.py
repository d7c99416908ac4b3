"""Check a written trace.jsonl against its reader and its artifact.

Not part of Tier-1.  Run from the root of a checkout on the output
directory of a ``cedensity construct`` run that wrote a trace:

    PYTHONPATH=src python tests/check_trace_file.py OUT

Exits 1 and names the first check that fails.  The checks:

- the first line is the marker ``{"trace_format": 3}`` and the last holds
  exactly ``construction`` and ``outcomes``;
- every progression ``[first, last, step]`` (an ``"xs"`` entry or a
  ``"skip"`` item) has step >= 1 and last on it, at or past first;
- the reader's records are one per event line and one per stage of each
  run line but its skipped ones, in stage order;
- its enumerations are one per ``"x"`` entry of an event line, one per
  element of each ``"xs"`` progression, and those of the run lines'
  records (one per own-stage record);
- the enumerated elements are the members of the artifact's set, each
  once, for the constructions that enumerate every element they enter.
"""

import json
import os
import sys

import numpy as np

from cedensity.artifacts import load_artifact
from cedensity.trace import ConstructionTrace

# the constructions whose every entered element is enumerated once
ENUMERATE_ALL = {"ratio_interval", "restraint_witness", "permitted_interval"}


def size(p) -> int:
    return (p[1] - p[0]) // p[2] + 1


def failure(out: str):
    path = os.path.join(out, "trace.jsonl")
    with open(path, "rb") as fh:
        lines = [json.loads(line) for line in fh]
    marker, *parts, last = lines
    if marker != {"trace_format": 3}:
        return f"marker {marker}"
    if sorted(last) != ["construction", "outcomes"]:
        return f"last line keys {sorted(last)}"
    triples = [p for line in parts for p in line.get("skip", [])]
    triples += [en["xs"] for line in parts
                for en in line.get("enumerated", []) if "xs" in en]
    bad = [p for p in triples
           if not (p[2] >= 1 and p[0] <= p[1] and (p[1] - p[0]) % p[2] == 0)]
    if bad:
        return f"progression {bad[0]}"
    counts, entries = [], []
    for line in parts:
        if "run" not in line:
            counts.append(1)
            entries.append(sum(size(en["xs"]) if "xs" in en else 1
                               for en in line.get("enumerated", [])))
            continue
        n = line["hi"] - line["lo"] - sum(map(size, line.get("skip", [])))
        counts.append(n)
        entries.append(n if line["run"] == "own-stage" else n * len(
            line.get("record", {}).get("enumerated", [])))
    trace = ConstructionTrace.read(path)
    stages = [rec["stage"] for rec in trace.stages]
    if len(stages) != sum(counts) or stages != sorted(set(stages)):
        return "records against the lines"
    xs = [en["x"] for _, en in trace.enumerations()]
    if len(xs) != sum(entries):
        return f"{len(xs)} enumerations, {sum(entries)} from the lines"
    if trace.construction in ENUMERATE_ALL:
        art = load_artifact(os.path.join(out, "artifact.json"))
        if sorted(xs) != np.flatnonzero(art.bits).tolist():
            return "enumerated elements against the artifact's members"
    return None


if __name__ == "__main__":
    why = failure(sys.argv[1])
    if why is not None:
        print(f"{sys.argv[1]}: {why}")
    sys.exit(why is not None)
