"""Imperfect linear-optical components and the single-photon switch.

Wave plates and circular polarizing beam splitters (CPBS) are modeled as
amplitude matrices on a polarization factor; the multiplicative error
convention is used throughout: a CPBS with errors (tau_r, tau_l) transmits
R with amplitude sqrt(1-tau_r) while leaking L with sqrt(tau_l), and
mirror-wise for the reflected port.  Quarter-wave plates, 50:50 beam
splitters and delay lines are ideal.  The Lambda-atom switch and the
universal cloner enter only through their success amplitudes: the switch
as the factor sqrt(T or R) each routed leg contributes
(:func:`switch_amplitude`), the cloner as sqrt(fidelity).

In a block of grid points the swept fields hold an array (one entry per
row or column of the block, built with ``state.replace_unchecked``); each
map function then returns a batched matrix with the entries first and the
field's point axes last, ``(i, j, *shape)``, the layout the circuit's
stages run in; a map of scalar fields is a plain ``(i, j)`` matrix.  Each
field's domain is declared once, in its class's ``DOMAIN``, as a test that
holds per value of a scalar or array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import check_domain

SQRT_HALF = math.sqrt(0.5)

# optimal universal-cloner fidelity bound
F_UC = 5.0 / 6.0


def _unit(v):
    return (0 <= v) & (v <= 1)


@dataclass(frozen=True)
class HwpError:
    """Half-wave plate imperfection, dimensionless, |xi| <= 1."""

    xi: float = 0.0

    DOMAIN = {"xi": (lambda v: abs(v) <= 1, "hwp error xi must be in [-1, 1]")}
    __post_init__ = check_domain


@dataclass(frozen=True)
class CpbsError:
    tau_r: float = 0.0
    tau_l: float = 0.0

    DOMAIN = {name: (_unit, f"cpbs error {name} must be in [0, 1]") for name in ("tau_r", "tau_l")}
    __post_init__ = check_domain


@dataclass(frozen=True)
class SwitchCoeffs:
    """Transmittance/reflectance probabilities of the legs of one switch
    that a photon takes: I1->O2 (t12), I1->O1 (r11) and I2->O2 (r22)."""

    t12: float = 1.0
    r11: float = 1.0
    r22: float = 1.0

    DOMAIN = {name: (_unit, f"switch coefficient {name} must be in [0, 1]")
              for name in ("t12", "r11", "r22")}
    __post_init__ = check_domain


@dataclass(frozen=True)
class ClonerConfig:
    fidelity: float = 1.0

    DOMAIN = {"fidelity": (lambda v: (0.5 <= v) & (v <= 1), "cloner fidelity must be in [0.5, 1]")}
    __post_init__ = check_domain


def hwp_map(err: HwpError) -> np.ndarray:
    """R -> c R + s L, L -> c R - s L with c = sqrt((1-xi)/2), s = sqrt((1+xi)/2).

    Each image ket has unit norm for any xi, but the two images overlap by
    -xi, so the map is unitary only at xi = 0.
    """
    c = np.sqrt((1 - err.xi) / 2)
    s = np.sqrt((1 + err.xi) / 2)
    return np.array([[c, c], [s, -s]])


def cpbs_loop_maps(err: CpbsError) -> tuple[np.ndarray, np.ndarray]:
    """(split, merge) maps of a CPBS closing a counter-propagating loop.

    The split sends transmitted R into the loop travelling down and
    reflected L travelling up, each leaking its error amplitude onto the
    other rail; it maps (polarization) to (polarization, direction).  The
    merge recombines both rails on the same CPBS, so it is the transpose
    of the split.
    """
    sr, sl = np.sqrt(err.tau_r), np.sqrt(err.tau_l)
    cr, cl = np.sqrt(1 - err.tau_r), np.sqrt(1 - err.tau_l)
    split = np.zeros((4, 2) + np.broadcast(sr, sl).shape)
    split[0, 0], split[1, 0], split[2, 1], split[3, 1] = cr, sr, sl, cl
    return split, np.swapaxes(split, 0, 1)


def spin_hadamard() -> np.ndarray:
    """pi/2 rotation of the electron spin (applied by microwave pulse)."""
    return np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])


_PATH_COEFF = {"I1->O2": "t12", "I1->O1": "r11", "I2->O2": "r22"}


def switch_amplitude(coeffs: SwitchCoeffs, path: str):
    """Amplitude factor sqrt(coefficient) for one routing leg."""
    try:
        name = _PATH_COEFF[path]
    except KeyError:
        raise ValueError(
            f"unknown switch path {path!r}; expected one of {sorted(_PATH_COEFF)}"
        ) from None
    return np.sqrt(getattr(coeffs, name))
