"""The construction trace and its file, trace format 3.

A trace file is JSON lines, each written by ``core.jsonl_bytes`` (sorted
keys): the marker ``{"trace_format": 3}``; one line per event stage or
quiet run, in stage order; and ``{"construction": ..., "outcomes": ...}``.
Each run of elements is a progression ``[first, last, step]``.  An event
line is the stage's record ``{"stage": s, ...}``; in its "enumerated"
list, ``{"xs": progression, **tag}`` stands for an entry {"x": x, **tag}
per element x.  A run line ``{"run": rule, "lo": lo, "hi": hi, ...}``
stands for one record per stage s = lo..hi-1, by a rule of a closed
vocabulary (``_RULES``): ``"acted"`` gives ``{"acted": s mod period,
"stage": s}``, ``"constant"`` ``{"stage": s, **record}``, and
``"own-stage"`` ``{"stage": s, "enumerated": [{"x": s, **tag}]}`` but at
the elements of the progressions of its ``"skip"`` list.  One reader
expands both (``ConstructionTrace.read``, ``stages``), so a trace grows
with its events, not with its stages or released elements.
"""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np

from .core import jsonl_bytes


def progressions(xs: np.ndarray) -> list:
    """[first, last, step] of each maximal progression of the ascending
    int64 array xs, taken greedily from the left; a lone x is [x, x, 1]."""
    steps, out, i = np.diff(xs), [], 0
    # the indices j at which steps[j] differs from steps[j - 1], and the end
    turns = (np.flatnonzero(steps[1:] != steps[:-1]) + 1).tolist()
    turns.append(steps.size)
    while i < xs.size:  # xs[i..j] is one progression
        j = turns[bisect_right(turns, i)] if i + 1 < xs.size else i
        out.append([int(xs[i]), int(xs[j]), int(steps[i]) if j > i else 1])
        i = j + 1
    return out


def _elements(first: int, last: int, step: int) -> np.ndarray:
    return first + step * np.arange((last - first) // step + 1,
                                    dtype=np.int64)


def _entries(en: dict) -> list:
    """The entries {"x": x, **tag} a read "enumerated" entry stands for."""
    xs = [en.pop("x")] if "x" in en else _elements(*en.pop("xs")).tolist()
    return [{"x": x, **en} for x in xs]


def _own_stage(run: dict):
    """The records of an own-stage run line, its skipped elements left out."""
    free = np.ones(run["hi"] - run["lo"], dtype=bool)
    for p in run["skip"]:
        free[_elements(*p) - run["lo"]] = False
    return ({"stage": x, "enumerated": [{"x": x, **run["tag"]}]}
            for x in (np.flatnonzero(free) + run["lo"]).tolist())


# the quiet-run vocabulary: each rule's records of the stages lo..hi-1
_RULES = {
    "own-stage": _own_stage,
    "acted": lambda run: ({"acted": s % run["period"], "stage": s}
                          for s in range(run["lo"], run["hi"])),
    "constant": lambda run: ({**run["record"], "stage": s}
                             for s in range(run["lo"], run["hi"])),
}

_MARKER = {"trace_format": 3}


class ConstructionTrace:
    """Stage records, held as event records and run lines (see above),
    plus final outcome classifications.  Fields are JSON values with
    string keys.  ``stages`` and ``enumerations`` read back the lines
    ``write_jsonl`` writes, expanded, as ``read`` reads a written file."""

    def __init__(self, construction: str):
        self.construction = construction
        self.outcomes = {}
        self._parts = []  # event records and run lines, in stage order

    def record(self, stage: int, **fields):
        """Append the record {"stage": stage, **fields}; each field is a
        JSON value whose dicts have string keys."""
        self._parts.append({"stage": stage, **fields})

    def quiet(self, lo: int, hi: int, rule: str, **params):
        """Append the run line of ``rule`` over the stages lo..hi-1, or
        extend the last line to hi if it is the same run up to lo."""
        if lo >= hi:
            return
        run = {"run": rule, "lo": lo, "hi": hi, **params}
        last = self._parts[-1] if self._parts else {}
        if last.get("hi") == lo and {**last, "hi": hi, "lo": lo} == run:
            last["hi"] = hi
        else:
            self._parts.append(run)

    def _records(self, enumerating=False):
        """The records of the written lines; with ``enumerating``, only of
        those that may hold enumerations: not an acted run, nor a constant
        one whose record holds none."""
        for line in (json.loads(jsonl_bytes([p])) for p in self._parts):
            rule = line.get("run")
            if rule is None:
                if "enumerated" in line:
                    line["enumerated"] = [e for en in line["enumerated"]
                                          for e in _entries(en)]
                yield line
            elif not enumerating or rule == "own-stage" or (
                    "enumerated" in line.get("record", {})):
                yield from _RULES[rule](line)

    @property
    def stages(self) -> list:
        return list(self._records())

    def enumerations(self):
        for rec in self._records(enumerating=True):
            for en in rec.get("enumerated", []):
                yield rec["stage"], en

    def write_jsonl(self, path):
        with open(path, "wb") as fh:
            fh.write(jsonl_bytes([_MARKER, *self._parts,
                                  {"outcomes": self.outcomes,
                                   "construction": self.construction}]))

    @classmethod
    def read(cls, path) -> ConstructionTrace:
        """The trace a ``write_jsonl`` file holds, outcomes keyed by str."""
        with open(path, "rb") as fh:
            marker, *parts, last = map(json.loads, fh)
        if marker != _MARKER:
            raise ValueError(f"{path}: no trace format 3 marker")
        trace = cls(last["construction"])
        trace.outcomes, trace._parts = last["outcomes"], parts
        return trace
