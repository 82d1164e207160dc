"""Quantum-dot spin in a double-sided optical microcavity.

At resonance the coupled cavity transmits with a signed coefficient

    t = -2*gamma*kappa / (gamma*(2*kappa + kappa_s) + 4*g^2),   r = 1 + t

and the uncoupled (cold) cavity coefficients t0, r0 are the same
expressions at g = 0.  All rates are quoted in units of the cavity decay
rate kappa.  The photon-spin interaction keeps the spin branch fixed and
flips polarization exactly when it flips propagation direction; hot
transitions scatter with (r1, t1), cold ones with (-t0, -r0).

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
    """Cavity rates; ``kappa`` is the normalization unit (default 1)."""

    g: float
    kappa_s: float
    gamma: float
    kappa: float = 1.0

    DOMAIN = {
        "kappa": (lambda v: np.isfinite(v) & (v > 0), "kappa must be positive and finite"),
        **{name: (lambda v: np.isfinite(v) & (v >= 0), f"{name} must be nonnegative and finite")
           for name in ("g", "kappa_s", "gamma")},
    }
    __post_init__ = check_domain


@dataclass(frozen=True)
class CavityCoeffs:
    """Magnitudes of the coupled (t1, r1) and uncoupled (t0, r0) response.

    The signed values satisfying r = 1 + t are kept alongside so tests can
    assert the identity without re-deriving signs from magnitudes.
    """

    t1: float
    r1: float
    t0: float
    r0: float
    t_signed: float
    r_signed: float
    t0_signed: float
    r0_signed: float

    @classmethod
    def ideal(cls) -> "CavityCoeffs":
        # perfect spin-dependent routing: hot photons reflect, cold transmit
        return cls(t1=0.0, r1=1.0, t0=1.0, r0=0.0,
                   t_signed=0.0, r_signed=1.0, t0_signed=-1.0, r0_signed=0.0)


def cavity_coeffs(params: CavityParams) -> CavityCoeffs:
    """Evaluate the resonant response for the given rates."""
    p = params
    denom0 = p.gamma * (2 * p.kappa + p.kappa_s)
    if np.any(denom0 <= 0):
        raise ValueError(
            "degenerate cavity parameters: gamma*(2*kappa+kappa_s) must be positive"
        )
    t = -2 * p.gamma * p.kappa / (denom0 + 4 * p.g * p.g)
    r = 1 + t
    t0 = -2 * p.gamma * p.kappa / denom0
    r0 = 1 + t0
    return CavityCoeffs(
        t1=abs(t), r1=abs(r), t0=abs(t0), r0=abs(r0),
        t_signed=t, r_signed=r, t0_signed=t0, r0_signed=r0,
    )


def is_strong_coupling(params: CavityParams) -> bool:
    """Strict threshold g > (kappa_s + kappa)/4."""
    return params.g > (params.kappa_s + params.kappa) / 4


# the 8 inputs (spin, polarization-direction) of interaction_map's blocks; for
# each, where it goes when polarization and direction flip, and which of
# (t1, -t0, r1, -r0) it stays and flips with (hot ones: t1 and r1).  Built with
# Python ints: integer ufuncs here would page in ~0.25 MB of numpy at import.
_INPUTS = [(spin, pd) for spin in (0, 1) for pd in range(4)]
_HOT = [(pd >> 1) ^ (pd & 1) ^ spin for spin, pd in _INPUTS]
_SPIN, _PD = (np.array(v) for v in zip(*_INPUTS))
_FLIPPED = np.array([pd ^ 0b11 for _, pd in _INPUTS])
_STAYS, _FLIPS = np.array([(0, 2) if hot else (1, 3) for hot in _HOT]).T


def interaction_map(c: CavityCoeffs) -> np.ndarray:
    """One pass through the cavity: its two spin blocks, (spin, 4, 4, points...).

    The spin branch is never flipped, so the map on (polarization,
    direction, spin) is block-diagonal in the spin; block ``s`` maps
    (polarization, direction) with polarization the more significant bit.
    Polarization flips exactly when the propagation direction flips.  A
    transition is hot (coupled) when an odd number of (polarization L,
    direction up, spin down) hold: it stays with t1 and flips with r1; a
    cold one stays with -t0 and flips with -r0.  The point axes of batched
    coefficients come last, as the circuit's stages lay them out.
    """
    t1, t0, r1, r0 = np.broadcast_arrays(c.t1, c.t0, c.r1, c.r0)
    values = np.stack([t1, -t0, r1, -r0])
    m = np.zeros((2, 4, 4) + t1.shape)
    m[_SPIN, _PD, _PD] = values[_STAYS]
    m[_SPIN, _FLIPPED, _PD] = values[_FLIPS]
    return m
