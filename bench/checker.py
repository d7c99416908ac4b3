"""Output checks for benchmark jobs, independent of the program's code.

Each check returns a list of problems (empty when the outputs are right).
Nothing here pins a golden digest: artifacts are judged by their own
integrity digest and by re-deriving every certified count from the stored
bitset, so an intentional format change is not a failure.  Byte identity
between the passes of one run is checked in ``run.py`` from the digests the
worker takes after each pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

# certified.csv upper bounds are strict only for this guarantee form
STRICT_UPPER_FORMS = {"restraint-report"}


def check_job(job: dict, outdir: str, exit_code: int, stdout: str) -> list:
    """Problems with one job's exit code, stdout and output directory."""
    if exit_code != 0:
        return [f"{job['name']}: exit code {exit_code}, expected 0"]
    cmd = job["command"]
    try:
        if cmd == "check":
            problems = check_check(stdout)
        elif cmd == "construct":
            problems = check_construct(outdir)
        elif cmd == "density":
            problems = check_density(outdir, job["config"])
        elif cmd == "metrics":
            problems = check_metrics(outdir, job["config"])
        elif cmd == "generic":
            problems = check_generic(outdir, job["config"])
        else:
            problems = [f"no check for command {cmd!r}"]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return [f"{job['name']}: {p}" for p in problems]


# -- check --------------------------------------------------------------------

def check_check(stdout: str) -> list:
    return [] if stdout.startswith("PASS: ") else [
        f"check did not print PASS: {stdout[:80]!r}"]


# -- construct ----------------------------------------------------------------

def read_artifact(path: str):
    """Payload and prefix counts of an artifact whose integrity digest
    matches its content; raises ValueError otherwise."""
    with open(path) as fh:
        payload = json.load(fh)
    digest = payload.pop("integrity_sha256", None)
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode()
    if digest != hashlib.sha256(canonical).hexdigest():
        raise ValueError("artifact integrity digest does not match")
    n = payload["n_max"]
    runs = payload["bits_rle"]
    if any(r < 0 for r in runs) or sum(runs) != n:
        raise ValueError("run lengths do not cover the window")
    # runs alternate 0/1, starting with a (possibly empty) run of zeros
    bits = np.zeros(n, dtype=bool)
    pos = 0
    for i, r in enumerate(runs):
        if i % 2:
            bits[pos:pos + r] = True
        pos += r
    counts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bits, out=counts[1:])
    return payload, counts


def check_certified_csv(path: str, counts: np.ndarray, strict: bool) -> list:
    """Every row's count matches the bitset and ``holds`` is 1, recomputed
    in integers from the row's bounds."""
    problems = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["n", "count", "lower_num", "lower_den", "upper_num",
                   "upper_den", "holds"]:
        return [f"certified.csv header {rows[0]}"]
    for row in rows[1:]:
        n, c = int(row[0]), int(row[1])
        holds = True
        if c != int(counts[n]):
            problems.append(f"certified.csv n={n}: count {c} != bitset "
                            f"count {int(counts[n])}")
        if row[2]:
            holds &= c * int(row[3]) >= int(row[2])
        if row[4]:
            lhs, rhs = c * int(row[5]), int(row[4])
            holds &= lhs < rhs if strict else lhs <= rhs
        if row[6] != "1" or not holds:
            problems.append(f"certified.csv n={n}: holds={row[6]}, "
                            f"recomputed {int(holds)}")
        if len(problems) > 4:
            break
    return problems


def check_construct(outdir: str) -> list:
    with open(os.path.join(outdir, "verify.json")) as fh:
        report = json.load(fh)
    problems = [] if report.get("ok") is True else [
        f"verify.json not ok: {report.get('failures')}"]
    try:
        payload, counts = read_artifact(os.path.join(outdir, "artifact.json"))
    except ValueError as exc:
        return problems + [str(exc)]
    strict = payload["guarantee"].get("form") in STRICT_UPPER_FORMS
    return problems + check_certified_csv(
        os.path.join(outdir, "certified.csv"), counts, strict)


# -- profiles -----------------------------------------------------------------

def _read_columns(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    body = rows[1:]
    cols = {}
    for i, name in enumerate(header):
        if not name.endswith("_float"):
            cols[name] = np.array([int(r[i]) for r in body], dtype=np.int64)
    return cols


def _rho_counts(ns, num, den, label) -> tuple:
    """Counts behind reduced fractions num/den = count/n, or a problem."""
    if np.any(den <= 0) or np.any(num * ns % den):
        return None, f"{label}: rho is not count/n for an integer count"
    if np.any(np.gcd(num, den) != 1):
        return None, f"{label}: rho not in lowest terms"
    return num * ns // den, None


def extreme_problems(ns, counts, claim, minimum: bool, label: str) -> list:
    """claim = [num, den] must be the exact min (or max) of counts/ns:
    compared with every row by integer cross-multiplication."""
    a, b = int(claim[0]), int(claim[1])
    lhs = a * ns
    rhs = b * counts
    bound_ok = np.all(lhs <= rhs) if minimum else np.all(lhs >= rhs)
    if not bound_ok or not np.any(lhs == rhs):
        return [f"{label}: {'min' if minimum else 'max'} {a}/{b} is not the "
                "window extreme"]
    return []


def check_density(outdir: str, config: dict) -> list:
    n_max = config["universe"]["n_max"]
    with open(os.path.join(outdir, "density_summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    labels = sorted(s["label"] for s in config["sets"])
    if sorted(summary) != labels:
        return [f"summary labels {sorted(summary)} != {labels}"]
    for label in labels:
        cols = _read_columns(os.path.join(outdir, f"density_{label}.csv"))
        ns = cols["n"]
        if not np.array_equal(ns, np.arange(1, n_max + 1)):
            problems.append(f"density_{label}.csv rows are not n = 1..n_max")
            continue
        counts, bad = _rho_counts(ns, cols["rho_num"], cols["rho_den"], label)
        if bad or not np.array_equal(counts, cols["count"]):
            problems.append(bad or f"{label}: rho disagrees with count")
            continue
        steps = np.diff(np.concatenate(([0], counts)))
        if np.any((steps < 0) | (steps > 1)):
            problems.append(f"{label}: counts grow by more than 1")
        s = summary[label]
        problems += extreme_problems(ns, counts, s["min"], True, label)
        problems += extreme_problems(ns, counts, s["max"], False, label)
    return problems


def check_metrics(outdir: str, config: dict) -> list:
    with open(os.path.join(outdir, "metrics_summary.json")) as fh:
        summary = json.load(fh)
    cols = _read_columns(os.path.join(outdir, "metrics_profile.csv"))
    ns = cols["n"]
    counts = {}
    for key in ("rhoA", "rhoB", "rhoSym"):
        c, bad = _rho_counts(ns, cols[f"{key}_num"], cols[f"{key}_den"], key)
        if bad:
            return [bad]
        counts[key] = c
    problems = []
    subset = bool(np.all(counts["rhoB"] <= counts["rhoA"])
                  and np.array_equal(counts["rhoSym"],
                                     counts["rhoA"] - counts["rhoB"]))
    if summary["b_subset_of_a"] and not subset:
        problems.append("b_subset_of_a claimed but rhoSym != rhoA - rhoB")
    lo, hi = summary["window"]
    sel = (ns >= lo) & (ns <= hi)
    problems += extreme_problems(ns[sel], counts["rhoSym"][sel],
                                 summary["sym_min"], True, "sym")
    problems += extreme_problems(ns[sel], counts["rhoSym"][sel],
                                 summary["sym_max"], False, "sym")
    return problems


def check_generic(outdir: str, config: dict) -> list:
    with open(os.path.join(outdir, "generic_summary.json")) as fh:
        summary = json.load(fh)
    cols = _read_columns(os.path.join(outdir, "generic_domain.csv"))
    ns = cols["n"]
    counts, bad = _rho_counts(ns, cols["rho_num"], cols["rho_den"], "domain")
    if bad:
        return [bad]
    lo, hi = summary["window"]
    sel = (ns >= lo) & (ns <= hi)
    claim = [summary["domain_min_num"], summary["domain_min_den"]]
    problems = extreme_problems(ns[sel], counts[sel], claim, True, "domain")
    if summary["alpha_estimate"] != claim:
        problems.append("alpha_estimate differs from the domain minimum")
    if summary["agrees"] != (not summary["errors"]):
        problems.append("agrees flag contradicts the error list")
    r_num, _, r_den = str(config["generic"].get("r", "0")).partition("/")
    clears = claim[0] * int(r_den or 1) >= int(r_num) * claim[1]
    if summary["verdict"] != (summary["agrees"] and clears):
        problems.append("verdict contradicts agreement and domain minimum")
    return problems
