"""The closed-form cross-check of the circuits, for the tests that pin it.

:func:`rr_up_closed_form` evaluates the |R1 R2 up> output coefficient of
the optimized circuit (prefactor removed) as one expression in the input,
the cavity coefficients and the device errors, sharing no stage with the
package's engine; :func:`output_amplitudes` sets it next to the
compositional coefficients of a single run.  Criteria 3, 4, 6 and 7 read
these, as the dense-matrix pipeline of ``oracle.py`` is read elsewhere.
"""

import math
from dataclasses import dataclass

from qdcnot.cavity import CavityCoeffs, CavityParams
from qdcnot.circuits import (
    CircuitOutput,
    CnotInputs,
    DeviceErrorConfig,
    _coeffs,
    cnot_prefactor,
    optimized_cnot,
    sign_fix_amplitude,
)


@dataclass(frozen=True)
class CnotAmplitudes:
    """Output coefficients of the optimized circuit, prefactor removed.

    ``up`` and ``down`` order the photon terms as (RR, RL, LL, LR); the
    sign-fix amplitude multiplies only the LL and LR entries of ``up``.
    ``rr_up_closed`` is the independent closed-form value of ``up[0]``;
    ``rr_up_reference`` is the widely-quoted reference variant of the same
    coefficient, kept verbatim for comparison (it carries three apparent
    transcription slips; it matches ``up[0]`` only when CPBS1 is error-free).
    """

    up: tuple[complex, complex, complex, complex]
    down: tuple[complex, complex, complex, complex]
    sign_fix: float
    prefactor: float
    rr_up_closed: complex
    rr_up_reference: complex


# RR, RL, LL, LR among the photon pairs of CircuitOutput.columns
_TERM_ORDER = (0, 1, 3, 2)


def _branch_terms(out: CircuitOutput):
    """((RR, RL, LL, LR) on spin-up, same on spin-down) of a single run, no weight."""
    if out.points or out.inputs:
        raise ValueError(f"branch amplitudes of one run, got points {out.points} "
                         f"and inputs {out.inputs}")
    return tuple(tuple(complex(out.columns[s, 0, k, 0]) for k in _TERM_ORDER) for s in (0, 1))


def extract_branch_amplitudes(out: CircuitOutput):
    """((RR, RL, LL, LR) on spin-up, same on spin-down) of a single run, weight folded in."""
    return tuple(tuple(out.weight * amp for amp in branch) for branch in _branch_terms(out))


def rr_up_closed_form(
    inputs: CnotInputs,
    coeffs: CavityCoeffs,
    err: DeviceErrorConfig,
    reference: bool = False,
) -> complex:
    """Closed form of the |R1 R2 up> output coefficient (prefactor removed).

    The control photon's four CPBS1 path amplitudes combine with the sum
    and difference of the hot/cold cavity responses accumulated over the
    two spin-rotation frames; the target photon contributes its own
    loop-output amplitudes per frame.  With ``reference=True`` three
    coefficients are evaluated in their uncorrected variant: the second
    leakage term of ``path_rr_sum`` enters as tau_l instead of
    sqrt(tau_l), and the leakage difference terms flip (r1 - r0) to
    (r1 + r0).  The corrected variant matches the compositional engine to
    machine precision; both are returned in physical normalization (the
    error-free value is alpha*delta/sqrt(2)).
    """
    a, b = inputs.alpha, inputs.beta
    d, g = inputs.delta, inputs.gamma_amp
    xi1, xi2 = err.xi1.xi, err.xi2.xi
    tr, tl = err.cpbs1.tau_r, err.cpbs1.tau_l
    t1, r1, t0, r0 = coeffs.t1, coeffs.r1, coeffs.t0, coeffs.r0

    # control photon after HWP1, split by CPBS1 into the four loop paths
    a_tr = (a + b) * math.sqrt((1 - tr) * (1 - xi1) / 2)  # R transmitted
    a_rr = (a + b) * math.sqrt(tr * (1 - xi1) / 2)        # R leaked to reflect port
    a_rl = (a - b) * math.sqrt((1 - tl) * (1 + xi1) / 2)  # L reflected
    a_tl = (a - b) * math.sqrt(tl * (1 + xi1) / 2)        # L leaked to transmit port

    cr, cl = math.sqrt(1 - tr), math.sqrt(1 - tl)
    sr, sl = math.sqrt(tr), math.sqrt(tl)
    hot, cold = (t0 + t1, r0 + r1), (t0 - t1, r0 - r1)

    # per-path return amplitudes onto R, summed (spin frames combined) ...
    path_tr_sum = cr * hot[0] + cl * hot[1]
    path_rr_sum = sr * hot[0] + (tl if reference else sl) * hot[1]
    path_rl_sum = cr * hot[1] + cl * hot[0]
    path_tl_sum = sr * hot[1] + sl * hot[0]
    # ... and differenced
    path_tr_diff = cr * cold[0] + cl * cold[1]
    path_rl_diff = cr * cold[1] + cl * cold[0]
    if reference:
        path_rr_diff = sr * (t1 - t0) + tl * (r1 + r0)
        path_tl_diff = sr * (r1 + r0) + sl * (t1 - t0)
    else:
        path_rr_diff = sr * (t1 - t0) + sl * (r1 - r0)
        path_tl_diff = sr * (r1 - r0) + sl * (t1 - t0)

    # target photon's loop output onto R, one value per spin frame
    tgt_sum = d * (t1 * tr - t0 * (1 - tr)) + g * (
        r1 * math.sqrt(tr * tl) - r0 * math.sqrt((1 - tr) * (1 - tl))
    )
    tgt_diff = d * (t1 * (1 - tr) - t0 * tr) + g * (
        r1 * math.sqrt((1 - tr) * (1 - tl)) - r0 * math.sqrt(tr * tl)
    )

    bracket = (
        a_rr * path_rr_sum + a_tl * path_tl_sum - a_tr * path_tr_sum - a_rl * path_rl_sum
    ) * tgt_sum + (
        a_rr * path_rr_diff + a_tl * path_tl_diff - a_tr * path_tr_diff - a_rl * path_rl_diff
    ) * tgt_diff
    return math.sqrt(1 - xi2) / 4 * bracket


def output_amplitudes(
    inputs: CnotInputs,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig,
) -> CnotAmplitudes:
    """Compositional output coefficients plus the closed-form cross-check."""
    coeffs = _coeffs(cavity)
    up, down = _branch_terms(optimized_cnot(inputs, coeffs, err))
    return CnotAmplitudes(
        up=up,
        down=down,
        sign_fix=sign_fix_amplitude(err),
        prefactor=cnot_prefactor(err),
        rr_up_closed=rr_up_closed_form(inputs, coeffs, err),
        rr_up_reference=rr_up_closed_form(inputs, coeffs, err, reference=True),
    )
