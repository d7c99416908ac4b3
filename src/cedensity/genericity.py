"""Evaluation of partial/total decision procedures against a set, and the
canonical finite-set codec with its density constructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (DensityProfile, SetOracle, profile_from_bits,
                   residue_union_density)
from .errors import BudgetExceeded, CapExceeded, ContractViolated
from .prioritysim import PartialDecider

INDEX_WIDTH_CAP = 63


@dataclass
class GenericityReport:
    """Outcome of running a partial decider against a set on a window."""

    domain: DensityProfile          # profile of {n : decider defined}
    errors: list                    # n where a defined answer disagreed
    n_max: int
    stage_budget: int

    @property
    def agrees_on_domain(self) -> bool:
        return not self.errors

    def domain_window_min(self, lo: int = 1) -> Fraction:
        return self.domain.window_bounds(lo, self.n_max)[0]


def evaluate_partial(decider: PartialDecider, A: SetOracle, n_max: int,
                     stage_budget: int) -> GenericityReport:
    """Resolve the decider at the stage budget on every n < n_max; answers
    still undefined then are conservatively treated as outside the domain
    (never guessed).  Defined answers are compared against A exactly."""
    truth = A.membership_array(n_max)
    values = decider.at(np.arange(n_max), stage_budget)
    dom = values >= 0
    errors = np.flatnonzero(dom & ((values == 1) != truth)).tolist()
    return GenericityReport(profile_from_bits(dom, label="domain"),
                            errors, n_max, stage_budget)


def coarse_agreement_profile(f, A: SetOracle, n_max: int) -> DensityProfile:
    """Profile of {n : f(n) = A(n)} for a total rule f."""
    truth = A.membership_array(n_max)
    agree = np.fromiter((bool(f(n)) == bool(truth[n]) for n in range(n_max)),
                        dtype=bool, count=n_max)
    return profile_from_bits(agree, label="agreement")


def at_density_report(decider: PartialDecider, A: SetOracle, r, n_max: int,
                      lo: int = 1, stage_budget: int = 10**4) -> dict:
    """Window verdict for 'decides A at density r': no wrong answers and
    the window minimum of the domain density clears r.  The reported
    alpha-estimate is that minimum — an estimator over [lo, n_max], not a
    limit value."""
    return density_verdict(evaluate_partial(decider, A, n_max, stage_budget),
                           r, lo)


def density_verdict(rep: GenericityReport, r, lo: int = 1) -> dict:
    """``at_density_report`` of an already evaluated report."""
    est = rep.domain_window_min(lo)
    return {
        "agrees": rep.agrees_on_domain,
        "errors": rep.errors[:32],
        "domain_min_num": est.numerator,
        "domain_min_den": est.denominator,
        "verdict": rep.agrees_on_domain and est >= Fraction(r),
        "alpha_estimate": est,
        "window": [lo, rep.n_max],
    }


# -- canonical finite sets ---------------------------------------------------

def index_to_set(n: int) -> frozenset:
    """The finite set whose characteristic bits spell n (0 maps to the
    empty set)."""
    if n < 0:
        raise ValueError("index must be a natural")
    out = []
    i = 0
    while n:
        if n & 1:
            out.append(i)
        n >>= 1
        i += 1
    return frozenset(out)


def set_to_index(D, *, allow_large: bool = False) -> int:
    """Inverse of index_to_set; elements at or above the 63-bit width cap
    need allow_large (the index stops fitting a machine word)."""
    n = 0
    for x in D:
        x = int(x)
        if x < 0:
            raise ValueError("set elements must be naturals")
        if x >= INDEX_WIDTH_CAP and not allow_large:
            raise CapExceeded(
                f"element {x} >= width cap {INDEX_WIDTH_CAP}")
        n |= 1 << x
    return n


def hitset_oracle(X: SetOracle):
    """(C, psi) where C = {n : index_to_set(n) meets X} and psi is the
    one-sided decider defined (with value 1) exactly on C.

    Membership of n needs X only on n's bit positions, all below
    INDEX_WIDTH_CAP for n < 2^INDEX_WIDTH_CAP.
    """
    xbits = X.membership_array(INDEX_WIDTH_CAP)

    def member(n: int) -> bool:
        i = 0
        while n:
            if (n & 1) and xbits[i]:
                return True
            n >>= 1
            i += 1
        return False

    def batch(n):
        out = np.zeros(n, dtype=bool)
        for i in np.nonzero(xbits)[0]:
            idx = np.arange(n, dtype=np.int64)
            out |= (idx >> int(i)) & 1 == 1
        return out

    C = SetOracle(member, label=f"hits({X.label})", batch=batch)
    psi = PartialDecider(lambda n, s: 1 if member(n) else None,
                         label=f"psi({X.label})")
    return C, psi


def avoid_density(D) -> tuple[Fraction, int, list]:
    """Exact density of T = {n : index_to_set(n) ∩ D = ∅}, with the residue
    classes modulo 2^(max(D)+1) realizing T.

    Clearing |D| prescribed bits leaves 2^(m+1−|D|) residues mod 2^(m+1),
    so the density is 2^(−|D|); the returned list makes that checkable
    against the periodic profile.
    """
    D = sorted(set(int(x) for x in D))
    if not D:
        return Fraction(1), 1, [0]
    m = D[-1]
    if m >= INDEX_WIDTH_CAP:
        raise CapExceeded(f"max element {m} >= width cap {INDEX_WIDTH_CAP}")
    modulus = 1 << (m + 1)
    mask = 0
    for x in D:
        mask |= 1 << x
    residues = np.nonzero(
        np.arange(modulus, dtype=np.int64) & mask == 0)[0].tolist()
    dens = Fraction(1, 1 << len(D))
    assert residue_union_density(modulus, residues) == dens
    return dens, modulus, residues


def strong_array_extract(T, X: SetOracle, count: int) -> list:
    """Pull ``count`` pairwise disjoint finite sets out of the index stream
    T, each meeting X.

    T enumerates indices n (consumed in stage order, then by value) whose
    decoded sets are promised to meet X — checked per extracted element,
    with ContractViolated on a miss.  Each pick must avoid everything
    picked so far, which decoded-set disjointness then inherits.  Running
    out of stream raises BudgetExceeded carrying the partial list in
    ``.partial``.
    """
    xbits = X.membership_array(INDEX_WIDTH_CAP)
    order = T.stage_index.order.tolist()
    out = []
    m = 0
    pos = 0
    for j in range(count):
        pick = None
        while pos < len(order):
            n = order[pos]
            pos += 1
            dset = index_to_set(n)
            if all(x >= m for x in dset):
                if not any(x < INDEX_WIDTH_CAP and xbits[x] for x in dset):
                    raise ContractViolated(
                        f"stream offered index {n} whose set misses X")
                pick = dset
                break
        if pick is None:
            err = BudgetExceeded(
                f"stream exhausted before piece {j}", at=j)
            err.partial = out
            raise err
        out.append(pick)
        m = max(m, max(pick) + 1 if pick else m)
    return out
