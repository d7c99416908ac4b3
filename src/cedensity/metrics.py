"""Symmetric-difference density profiles on finite windows.

The window minimum/maximum of rho_n(A ^ B) estimate the lower/upper
density of the symmetric difference.  They are estimators only: the
minimum over a finite window bounds no asymptotic quantity.  In particular,
window minima over a shared window always satisfy the triangle
inequality even though the liminf-based distance famously does not in
the limit; nothing here contradicts that, because no limit is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DensityProfile, SetOracle, profile_from_bits,
                   rho_columns, write_columns)
from .errors import InvalidWindow


@dataclass
class SymDiffProfile:
    """Profiles of A, B, and A ^ B over a shared window [1, n_max]."""

    a: DensityProfile
    b: DensityProfile
    sym: DensityProfile
    b_subset_of_a: bool  # verified by scan on [0, n_max), never trusted

    @property
    def n_max(self) -> int:
        return self.sym.n_max

    def write_csv(self, path):
        write_columns(path, "n,rhoA_num,rhoA_den,rhoA_float,"
                      "rhoB_num,rhoB_den,rhoB_float,"
                      "rhoSym_num,rhoSym_den,rhoSym_float\n",
                      [np.arange(1, self.n_max + 1),
                       *(col for prof in (self.a, self.b, self.sym)
                         for col in rho_columns(prof.counts))])


def symdiff_profile(A: SetOracle, B: SetOracle, n_max: int) -> SymDiffProfile:
    if n_max < 1:
        raise InvalidWindow(f"n_max must be >= 1, got {n_max}")
    ma = A.membership_array(n_max)
    mb = B.membership_array(n_max)
    sym = ma ^ mb
    subset = bool(np.all(ma | ~mb))  # every member of B is a member of A
    return SymDiffProfile(
        a=profile_from_bits(ma, label=A.label),
        b=profile_from_bits(mb, label=B.label),
        sym=profile_from_bits(sym, label=f"({A.label})^({B.label})"),
        b_subset_of_a=subset,
    )
