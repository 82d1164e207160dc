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


def interaction_map(c: CavityCoeffs) -> np.ndarray:
    """8x8 map over (polarization, direction, spin) of one pass through the cavity.

    The spin branch is never flipped, and polarization flips exactly when
    the propagation direction flips.  A transition is hot (coupled) when
    an odd number of (polarization L, direction up, spin down) hold: it
    stays with t1 and flips with r1; a cold one stays with -t0 and flips
    with -r0.
    """
    m = np.zeros(np.broadcast_shapes(np.shape(c.t1), np.shape(c.t0)) + (8, 8))
    for i in range(8):
        pol, direction, spin = i >> 2, (i >> 1) & 1, i & 1
        hot = pol ^ direction ^ spin
        m[..., i, i] = c.t1 if hot else -c.t0
        m[..., i ^ 0b110, i] = c.r1 if hot else -c.r0  # pol and direction flipped
    return m
