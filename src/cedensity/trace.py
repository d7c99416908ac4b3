"""The construction trace and its file, trace format 2.

A trace file is JSON lines, each written by ``core.jsonl_bytes`` (sorted
keys): the marker ``{"trace_format": 2}``; one line per event stage or
quiet run, in stage order; and ``{"construction": ..., "outcomes": ...}``.
An event line is the stage's record ``{"stage": s, ...}``.  A run line
``{"run": rule, "lo": lo, "hi": hi, ...}`` stands for one record per stage
s = lo..hi-1, by a rule of a closed vocabulary (``_RULES``):

- ``"acted"``: ``{"acted": s mod period, "stage": s}``;
- ``"constant"``: ``{"stage": s, **record}``;
- ``"own-stage"``: ``{"stage": s, "enumerated": [{"x": s, **tag}]}``, but
  at the elements of its ``"skip"`` list, each ``[k, first, last]`` the
  elements first, first + 2^(k+1), ..., last of dyadic class k.

One reader expands the runs (``ConstructionTrace.read``, ``stages``), so a
trace grows with its events and not with its stages.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .core import _CHUNK_ROWS, _HOLE, jsonl_bytes, row_bytes


class _Block(NamedTuple):
    """Entries {"x": x, **tag} for each x of the int64 array xs, in order."""

    tag: dict
    xs: np.ndarray


def _record_jsonl(rec: dict) -> bytes:
    """``jsonl_bytes`` of a trace record, each block of its "enumerated"
    list written as its entries: the digits of each x laid by ``row_bytes``
    into the text of one entry, and the entries' texts spliced into the
    line where the list was held out."""
    entries = rec.get("enumerated", ())
    if not any(isinstance(en, _Block) for en in entries):
        return jsonl_bytes([rec])
    texts = []  # each entry's text and a comma
    for en in entries:
        if not isinstance(en, _Block):
            texts.append(jsonl_bytes([en])[:-1] + b", ")
            continue
        head, tail = jsonl_bytes([{"x": _HOLE, **en.tag}])[:-1].split(
            b"%d" % _HOLE)
        texts += [row_bytes([head, tail + b", "], [en.xs[i:i + _CHUNK_ROWS]])
                  for i in range(0, en.xs.size, _CHUNK_ROWS)]
    head, tail = jsonl_bytes([{**rec, "enumerated": _HOLE}]).split(
        b"%d" % _HOLE)
    return b"".join([head, b"[", b"".join(texts)[:-2], b"]", tail])


def _own_stage(run: dict):
    """The records of an own-stage run line, its skipped elements left out."""
    free = np.ones(run["hi"] - run["lo"], dtype=bool)
    for k, first, last in run["skip"]:
        free[first - run["lo"]:last - run["lo"] + 1:2 << k] = False
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

_MARKER = {"trace_format": 2}


class ConstructionTrace:
    """Stage records, held as event records and run lines (see above),
    plus final outcome classifications.  Fields are JSON values with
    string keys, and an event's "enumerated" list may hold blocks
    (``_Block``).  ``stages`` and ``enumerations`` read back the lines
    ``write_jsonl`` writes, each run expanded into its records, as
    ``read`` reads a written file."""

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

    def _records(self):
        for line in map(_record_jsonl, self._parts):
            rec = json.loads(line)
            yield from (_RULES[rec["run"]](rec) if "run" in rec else (rec,))

    @property
    def stages(self) -> list:
        return list(self._records())

    def enumerations(self):
        for rec in self._records():
            for en in rec.get("enumerated", []):
                yield rec["stage"], en

    def write_jsonl(self, path):
        with open(path, "wb") as fh:
            fh.write(jsonl_bytes([_MARKER]))
            fh.writelines(map(_record_jsonl, self._parts))
            fh.write(jsonl_bytes([{"outcomes": self.outcomes,
                                   "construction": self.construction}]))

    @classmethod
    def read(cls, path) -> ConstructionTrace:
        """The trace a ``write_jsonl`` file holds, outcomes keyed by str."""
        with open(path, "rb") as fh:
            marker, *parts, last = map(json.loads, fh)
        if marker != _MARKER:
            raise ValueError(f"{path}: no trace format 2 marker")
        trace = cls(last["construction"])
        trace.outcomes, trace._parts = last["outcomes"], parts
        return trace
