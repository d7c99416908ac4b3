"""Seeded job lists for the four benchmark workloads.

A workload is a list of ``cedensity`` CLI jobs.  The seed varies schedule
parameters, residues, deciders and ``q`` inside each workload's fixed
family, so that every seed asks for about the same amount of work while no
two seeds feed the program identical inputs.  The program only ever sees
the JSON configs built here: every look-ahead and witness precondition is
checked in integers before a job is emitted, so each job is expected to
exit 0.

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``extract``   construct lookahead-subset / checkpoint-subset, then check
              each artifact (approximators, artifact writes).
``simulate``  construct the stage-loop builders of prioritysim and
              builders at n_max = stage_max.
``profile``   density, metrics and generic: profiles, window bounds,
              genericity and the per-row CSV writers.
``reverify``  check only, over one artifact per verifiable guarantee
              form that set-up builds.  Not listed in BENCHMARK.json: its
              set-up is too long to repeat in every run; run it by hand
              with ``--workload reverify``.
"""

from __future__ import annotations

import random

import numpy as np

WORKLOADS = ("extract", "simulate", "profile", "reverify")

# Window sizes at full scale.  The traced run repeats each workload at
# n_max / GROWTH_DIVISOR to estimate per-layer growth exponents.
EXTRACT_N = 100_000
SIMULATE_N = 30_000
PROFILE_N = 100_000
REVERIFY_N = 100_000
GROWTH_DIVISOR = 4


def job(name, command, config=None, artifact_of=None):
    """One CLI call.  ``config`` is written to a file at set-up; a ``check``
    job names the construct job whose ``artifact.json`` it re-verifies."""
    return {"name": name, "command": command, "config": config,
            "artifact_of": artifact_of}


def make_workload(name: str, seed: int, scale: int = 1) -> dict:
    """Job lists for one workload.

    Returns ``{"prebuild": [...], "jobs": [...]}``: ``prebuild`` jobs run
    once at set-up, ``jobs`` is one timed pass.  ``scale`` divides every
    window size (the growth-exponent pass uses scale GROWTH_DIVISOR).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    return dict(_BUILDERS[name](rng, scale), scale=scale)


# -- integer precondition checks --------------------------------------------

def residue_members(modulus: int, residues, n_max: int) -> np.ndarray:
    mask = np.zeros(modulus, dtype=bool)
    mask[list(residues)] = True
    return mask[np.arange(n_max, dtype=np.int64) % modulus]


def prefix_counts(members: np.ndarray) -> np.ndarray:
    counts = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(members, out=counts[1:])
    return counts


def lookahead_n0(counts: np.ndarray, q_num: int, q_den: int) -> int:
    """Least n0 >= 1 with counts[n] * q_den >= q_num * n for every n in
    [n0, n_max]: the look-ahead precondition, checked in integers."""
    n_max = counts.size - 1
    ns = np.arange(n_max + 1, dtype=np.int64)
    bad = np.nonzero(counts[1:] * q_den < q_num * ns[1:])[0] + 1
    if bad.size and int(bad[-1]) == n_max:
        raise ValueError(f"q={q_num}/{q_den} fails at the window end")
    return int(bad[-1]) + 1 if bad.size else 1


def witness_holds(counts: np.ndarray, base: int, shift: int) -> bool:
    """The witnessed-subset promise for w(k) = base**(k + shift), w(0) = 0:
    counts[n] >= ceil(n (2^h - 1) / 2^h) for every n, where h(n) is the
    largest level k <= n with w(k) <= n."""
    n_max = counts.size - 1
    w = [0]
    while base ** (len(w) + shift) <= n_max and len(w) <= n_max:
        w.append(base ** (len(w) + shift))
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    h = np.searchsorted(np.array(w, dtype=np.int64), ns, side="right") - 1
    h = np.minimum(h, ns)
    if int(h.max()) > 62:
        return False
    p = np.left_shift(1, h)
    need = -(-(ns * (p - 1)) // p)
    return bool(np.all(counts[1:] >= need))


def stage_bound(schedule: dict, n_max: int) -> int:
    """Largest entry stage the schedule gives an element of [0, n_max)."""
    m = n_max - 1
    kind = schedule["kind"]
    if kind == "immediate":
        return 0
    if kind == "own-stage":
        return m
    if kind == "delayed":
        return schedule["factor"] * m + schedule["offset"]
    if kind == "burst":
        p = schedule["period"]
        return (m // p + 1) * p
    raise ValueError(kind)


def _universe(n_max, stage_max, streams=()):
    for s in streams:
        if "schedule" in s and stage_bound(s["schedule"], n_max) > stage_max:
            raise ValueError(f"stream {s['label']} outruns stage_max")
    return {"n_max": n_max, "stage_max": stage_max}


# -- extract ------------------------------------------------------------------

def _half_residues(rng):
    """Residues mod 6 of one density-1/2 pattern, rotated by the seed: every
    seed gets the same gaps, so the work and the output size barely depend
    on it."""
    shift = rng.randrange(6)
    return sorted((shift + d) % 6 for d in (0, 1, 3))


def _extract(rng, scale):
    n = EXTRACT_N // scale
    residues = _half_residues(rng)
    counts = prefix_counts(residue_members(6, residues, n))
    streams = [
        {"label": "own", "set": "a", "schedule": {"kind": "own-stage"}},
        {"label": "burst", "set": "a",
         "schedule": {"kind": "burst", "period": rng.randrange(200, 601)}},
        {"label": "late", "set": "a",
         "schedule": {"kind": "delayed", "factor": 2,
                      "offset": rng.randrange(0, 64)}},
    ]
    base = {"universe": _universe(n, 4 * n, streams),
            "sets": [{"label": "a", "kind": "residue-union",
                      "modulus": 6, "residues": residues}],
            "streams": streams}
    jobs = []
    for stream, op, q in (
            ("own", "lookahead-subset", rng.choice([(1, 3), (3, 8)])),
            ("late", "lookahead-subset", rng.choice([(1, 3), (3, 8)])),
            ("burst", "checkpoint-subset", rng.choice([(1, 3), (3, 10)])),
            ("own", "checkpoint-subset", rng.choice([(1, 3), (3, 10)]))):
        spec = {"op": op, "stream": stream, "q": f"{q[0]}/{q[1]}"}
        if op == "lookahead-subset":
            spec["n0"] = lookahead_n0(counts, *q)
        name = f"{op.split('-')[0]}-{stream}"
        jobs.append(job(name, "construct", dict(base, construction=spec)))
    jobs += [job(f"check-{j['name']}", "check", artifact_of=j["name"])
             for j in jobs]
    return {"prebuild": [], "jobs": jobs}


# -- simulate -----------------------------------------------------------------

def _simulate(rng, scale):
    n = SIMULATE_N // scale
    sets = [
        {"label": "ev", "kind": "residue-union", "modulus": 2,
         "residues": [rng.randrange(2)]},
        {"label": "rm", "kind": "residue-union", "modulus": 4,
         "residues": [rng.randrange(4)]},
        {"label": "none", "kind": "empty"},
        {"label": "all", "kind": "naturals"},
    ]
    streams = [
        {"label": "s_ev", "set": "ev", "schedule": {"kind": "own-stage"}},
        # the delay of s_rm sets when restraint-witness's requirements go
        # dormant, and so its number of full-stream scans, which swings by
        # a fifth over offsets 0-99; these two offsets give equal counts
        {"label": "s_rm", "set": "rm",
         "schedule": {"kind": "delayed", "factor": 1,
                      "offset": rng.choice([11, 33])}},
        {"label": "s_none", "set": "none", "schedule": {"kind": "own-stage"}},
        {"label": "s_all", "set": "all",
         "schedule": {"kind": "burst", "period": rng.randrange(100, 400)}},
    ]
    # stage_max = n_max: schedules may push late elements past the horizon,
    # which the stream builder drops by design
    uni = {"n_max": n, "stage_max": n}
    r3_residue = rng.randrange(3)
    deciders = [
        {"label": "one", "kind": "constant", "value": 1,
         "delay": rng.randrange(1, 8)},
        {"label": "par", "kind": "parity", "delay": rng.randrange(1, 8)},
        {"label": "r3", "kind": "residue", "modulus": 3,
         "residues": [r3_residue], "delay": rng.randrange(1, 8)},
        {"label": "zero", "kind": "constant", "value": 0,
         "delay": rng.randrange(1, 8)},
    ]
    base = {"universe": uni, "sets": sets, "streams": streams,
            "deciders": deciders}
    on_at = rng.randrange(2, 9)
    specs = {
        "ratio-interval": {"op": "ratio-interval",
                           "deciders": ["one", "par", "r3", "zero"]},
        "restraint-witness": {"op": "restraint-witness",
                              "streams": ["s_none", "s_ev", "s_rm"]},
        "permitted-interval": {
            "op": "permitted-interval", "permitter": "s_rm",
            # a use stage far past on_at adds a fifth to the job's calls
            "jump": {"kind": "step", "on_at": on_at,
                     "use": on_at + rng.randrange(4, 8)},
            "streams": ["s_ev", "s_none"]},
        "split-interval": {"op": "split-interval", "permitter": "s_rm",
                           "deciders": ["one", "par", "r3"]},
        # s_none never hits, so the builder scans every stage for it
        "sparse-hitting": {"op": "sparse-hitting",
                           "streams": ["s_ev", "s_none", "s_rm", "s_all"]},
    }
    jobs = [job(op, "construct", dict(base, construction=spec))
            for op, spec in specs.items()]
    return {"prebuild": [], "jobs": jobs}


# -- profile ------------------------------------------------------------------

def _profile(rng, scale):
    n = PROFILE_N // scale
    # a prime modulus and high dyadic indices keep the CSV sizes, and so
    # the output bytes, nearly the same for every seed
    dyadic = sorted(rng.sample(range(1, 6), 3))
    sets = [
        {"label": "res", "kind": "residue-union", "modulus": 13,
         "residues": sorted(rng.sample(range(13), 6))},
        {"label": "dyk", "kind": "dyadic-class", "k": rng.randrange(3, 6)},
        {"label": "dyu", "kind": "dyadic-union", "indices": dyadic},
    ]
    uni = {"n_max": n, "stage_max": n}
    density = {"universe": uni, "sets": sets}
    metrics = {"universe": uni,
               "sets": [{"label": "all", "kind": "naturals"},
                        {"label": "dyu", "kind": "dyadic-union",
                         "indices": dyadic}],
               "metrics": {"a": "all", "b": "dyu"}}
    # the decider answers 1 on evens, so it decides this set wherever it is
    # defined; only its delay varies
    generic = {"universe": uni,
               "sets": [{"label": "par", "kind": "residue-union",
                         "modulus": 2, "residues": [0]}],
               "deciders": [{"label": "p", "kind": "parity",
                             "delay": rng.randrange(1, 100)}],
               "generic": {"decider": "p", "set": "par", "r": "1/2"}}
    jobs = [job("density", "density", density),
            job("metrics", "metrics", metrics),
            job("generic", "generic", generic)]
    return {"prebuild": [], "jobs": jobs}


# -- reverify -----------------------------------------------------------------

def _reverify(rng, scale):
    """One artifact per guarantee form that ``check`` re-derives from the
    artifact alone; the per-n forms run at the full window."""
    n = REVERIFY_N // scale
    small = n // 10
    res = _half_residues(rng)
    counts = prefix_counts(residue_members(6, res, n))
    own = {"label": "own", "set": "a", "schedule": {"kind": "own-stage"}}
    half = {"sets": [{"label": "a", "kind": "residue-union", "modulus": 6,
                      "residues": res}], "streams": [own]}
    q = rng.choice([(1, 3), (3, 8)])
    # witness-margin: a density 1 - 1/16 set, with the least exponential
    # witness shift whose promise holds on the window
    miss = rng.randrange(16)
    dense = prefix_counts(residue_members(
        16, [r for r in range(16) if r != miss], n))
    shift = next(s for s in range(1, 40) if witness_holds(dense, 2, s))
    dense_cfg = {"sets": [{"label": "a", "kind": "residue-union",
                           "modulus": 16,
                           "residues": [r for r in range(16) if r != miss]}],
                 "streams": [own]}
    levels = {str(k): f"{rng.randrange(1, k + 1)}/{k + 1}"
              for k in range(1, 7)}
    decider = {"label": "one", "kind": "constant", "value": 1,
               "delay": rng.randrange(1, 8)}
    forms = {
        "checkpoint-ratio": (n, 4 * n, half, {
            "op": "checkpoint-subset", "stream": "own",
            "q": rng.choice(["1/3", "3/10"])}),
        "lookahead-margin": (n, 4 * n, half, {
            "op": "lookahead-subset", "stream": "own",
            "q": f"{q[0]}/{q[1]}", "n0": lookahead_n0(counts, *q)}),
        "witness-margin": (n, 4 * n, dense_cfg, {
            "op": "witnessed-subset", "stream": "own",
            "witness": {"kind": "exponential", "base": 2, "shift": shift}}),
        "log-sparse": (n, 64, {
            "sets": [{"label": "all", "kind": "naturals"}],
            "streams": [{"label": "all", "set": "all",
                         "schedule": {"kind": "immediate"}}]},
            {"op": "sparse-hitting", "streams": ["all"] * 12}),
        "tracking-checkpoint-ratio": (small, 4 * small, half, {
            "op": "tracking-checkpoint-subset", "stream": "own",
            "targets": ["1/4", rng.choice(["1/3", "3/10"])]}),
        "target-approach": (n, n, {}, {
            "op": "target-oscillation", "n_checkpoints": 40,
            # target pairs whose checkpoints reach about 0.8 n_max
            "targets": list(rng.choice([("1/5", "4/5"), ("1/4", "3/4"),
                                        ("1/4", "4/5")])) * 20}),
        "blockwise-levels": (n, 16, {}, {
            "op": "blockwise-levels", "n_blocks": 6, "levels": levels}),
        "ratio-interval-report": (small, small, {"deciders": [decider]}, {
            "op": "ratio-interval", "deciders": ["one"]}),
        "restraint-report": (small, small, {
            "sets": half["sets"] + [{"label": "void", "kind": "empty"}],
            "streams": [own, {"label": "none", "set": "void",
                              "schedule": {"kind": "own-stage"}}]}, {
            "op": "restraint-witness", "streams": ["none", "own"]}),
    }
    prebuild = []
    for form, (n_max, stage_max, decl, spec) in forms.items():
        cfg = dict(decl, construction=spec,
                   universe=_universe(n_max, stage_max,
                                      decl.get("streams", ())))
        prebuild.append(job(form, "construct", cfg))
    jobs = [job(f"check-{p['name']}", "check", artifact_of=p["name"])
            for p in prebuild]
    return {"prebuild": prebuild, "jobs": jobs}


_BUILDERS = {"extract": _extract, "simulate": _simulate,
             "profile": _profile, "reverify": _reverify}
