"""Quantum-dot spin in a double-sided optical microcavity.

All rates are quoted in units of the cavity decay rate kappa, as the
paper quotes them (g/kappa, kappa_s/kappa, gamma/kappa).  At resonance the
coupled cavity transmits with a signed coefficient

    t = -2*gamma / (gamma*(2 + kappa_s) + 4*g^2),   r = 1 + t

and the uncoupled (cold) cavity coefficients t0, r0 are the same
expressions at g = 0; t lies in [-1, 0], so the circuits read the
magnitudes |t| and |r| = 1 - |t|.  The photon-spin interaction keeps the
spin branch fixed and flips polarization exactly when it flips
propagation direction; hot transitions scatter with (r1, t1), cold ones
with (-t0, -r0).

In a block of grid points a swept rate holds an array (one entry per
row or column of the block); the coefficients and the interaction map are
then batched too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import check_domain


@dataclass(frozen=True)
class CavityParams:
    """Cavity rates in units of the cavity decay rate kappa."""

    g: float
    kappa_s: float
    gamma: float

    DOMAIN = {
        **{name: (lambda v: np.isfinite(v) & (v >= 0), f"{name} must be nonnegative and finite")
           for name in ("g", "kappa_s")},
        "gamma": (lambda v: np.isfinite(v) & (v > 0), "gamma must be positive and finite"),
    }
    __post_init__ = check_domain


@dataclass(frozen=True)
class CavityCoeffs:
    """Magnitudes of the coupled (t1, r1) and uncoupled (t0, r0) response."""

    t1: float
    r1: float
    t0: float
    r0: float

    @classmethod
    def ideal(cls) -> "CavityCoeffs":
        # perfect spin-dependent routing: hot photons reflect, cold transmit
        return cls(t1=0.0, r1=1.0, t0=1.0, r0=0.0)


def cavity_coeffs(params: CavityParams) -> CavityCoeffs:
    """Evaluate the resonant response for the given rates.

    ``CavityParams.DOMAIN`` keeps gamma positive, so the cold denominator
    gamma*(2 + kappa_s) is too.
    """
    p = params
    denom0 = p.gamma * (2 + p.kappa_s)
    t = -2 * p.gamma / (denom0 + 4 * p.g * p.g)
    t0 = -2 * p.gamma / denom0
    return CavityCoeffs(t1=abs(t), r1=abs(1 + t), t0=abs(t0), r0=abs(1 + t0))


def is_strong_coupling(params: CavityParams) -> bool:
    """Strict threshold g > (kappa_s + kappa)/4, with kappa = 1."""
    return params.g > (params.kappa_s + 1) / 4


# the entry of (t1, -t0, r1, -r0, 0) at each (spin, out, in) of interaction_map's
# blocks: each input (spin, polarization-direction) stays with t1 when hot, -t0
# when cold, and goes where polarization and direction flip with r1 when hot,
# -r0 when cold.  Built with Python ints: integer ufuncs here would page in
# ~0.25 MB of numpy at import.
def _entry_table() -> np.ndarray:
    entry = [[[4] * 4 for _ in range(4)] for _ in range(2)]
    for spin in (0, 1):
        for pd in range(4):
            hot = (pd >> 1) ^ (pd & 1) ^ spin
            entry[spin][pd][pd], entry[spin][pd ^ 0b11][pd] = (0, 2) if hot else (1, 3)
    return np.array(entry)


_ENTRY = _entry_table()


def interaction_map(c: CavityCoeffs) -> np.ndarray:
    """One pass through the cavity: its two spin blocks, (spin, 4, 4, points...).

    The spin branch is never flipped, so the map on (polarization,
    direction, spin) is block-diagonal in the spin; block ``s`` maps
    (polarization, direction) with polarization the more significant bit.
    Polarization flips exactly when the propagation direction flips.  A
    transition is hot (coupled) when an odd number of (polarization L,
    direction up, spin down) hold: it stays with t1 and flips with r1; a
    cold one stays with -t0 and flips with -r0.  The point axes of batched
    coefficients come last, as the circuit's stages lay them out: the five
    entries are written into one array and each block entry is gathered from it.
    """
    values = np.empty((5,) + np.broadcast(c.t1, c.t0, c.r1, c.r0).shape)
    values[0], values[1], values[2], values[3], values[4] = c.t1, -c.t0, c.r1, -c.r0, 0.0
    return values[_ENTRY]
