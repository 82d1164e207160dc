"""Baseline and cloner-assisted CNOT circuits, plus the closed-form cross-check.

Wiring of the spin-cavity core (shared by both circuits): the control
photon passes HWP1, is split by CPBS1 into two counter-propagating rails
through the cavity (transmitted R enters travelling down, reflected L
travelling up, with the leakage amplitudes swapped), scatters off the
spin, recombines on the same CPBS1, and exits through HWP2.  The target
photon is injected into the same CPBS1/cavity loop by the switches, with a
spin rotation before and after its pass.  This wiring is pinned down by two
gates it must pass: the error-free limit must produce the exact two-branch
CNOT output (correct gate on the spin-down branch, a spurious minus sign on
the control-L terms of the spin-up branch), and with errors the |R1 R2 up>
output coefficient must reduce to the closed form evaluated by
:func:`rr_up_closed_form`.

The optimized circuit clones the control photon up front, reads the spin
out onto the clone after the core, and uses the clone to drive a
conditional sign flip on the control photon's L component: the spin-up
branch L terms are multiplied by :func:`sign_fix_amplitude` and the global
weight picks up the switch/cloner prefactor.  The readout-and-flip chain is
applied at the amplitude level, exactly where its factors appear in the
circuit's output expression (the sign fix lands only on the two spin-up
control-L coefficients).

Every circuit function also runs a batch: inputs whose amplitudes are
arrays (a stacked ensemble) and configurations whose fields are arrays
ending in a length-1 input axis (a block of grid points: the axis1 values
on an (m, 1, 1) array, the axis2 values on a (1, n, 1) one) broadcast
against each other, and the output state carries one run per batch
element.  The circuit is linear in its input, so the stages
(:func:`_basis_outputs`, their one definition) run only on the
photon-basis inputs, all with the batch's one spin; no stage flips the
spin, so each photon's stages are 2x2 maps per spin branch and point
(:func:`loop_pass`).  The stage maps come points-last from ``devices``
and ``cavity``, (entries..., points...), and run in that layout.  Each
input's output is then the combination of the four basis outputs its own
coefficients give, computed with the points on the last axis, (spin,
input, photon pair, point); the output checks run on it, the optimized
circuit's sign fix scales it per point, and the returned
:class:`CircuitOutput` keeps it as ``columns``, with its amplitudes a view
of it and each spin branch's squared norm alongside.  A field that only
scales the global weight (:data:`WEIGHT_ONLY`) adds no point to the
stages; the config's shape and the stages' point shape are read in one
walk over its fields (:func:`config_shapes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cavity import CavityCoeffs, CavityParams, cavity_coeffs, interaction_map
from .devices import (
    SQRT_HALF,
    ClonerConfig,
    CpbsError,
    HwpError,
    SwitchCoeffs,
    cpbs_loop_maps,
    hwp_map,
    spin_hadamard,
    switch_amplitude,
)
from .state import JointState, make_state, read_only, tensor, with_weight
from .state import apply_mode_map  # noqa: F401  (traced under this module by bench/spans.py)

P1, P2 = "p1", "p2"
SPIN = "spin"

# electron spin prepared as (|up> - |down>)/sqrt(2)
DEFAULT_SPIN_INIT = (SQRT_HALF, -SQRT_HALF)


@dataclass(frozen=True)
class CnotInputs:
    """Product input: control (alpha, beta), target (delta, gamma_amp), spin."""

    alpha: complex
    beta: complex
    delta: complex
    gamma_amp: complex
    spin_init: tuple[complex, complex] = DEFAULT_SPIN_INIT

    def __post_init__(self):
        for name, (x, y) in (
            ("control", (self.alpha, self.beta)),
            ("target", (self.delta, self.gamma_amp)),
            ("spin_init", self.spin_init),
        ):
            n = abs(x) ** 2 + abs(y) ** 2
            if abs(n - 1) > 1e-9:
                raise ValueError(f"{name} amplitudes not normalized: |.|^2 = {n}")

    @cached_property
    def shared_spin_init(self) -> tuple[complex, complex]:
        """The one ``spin_init`` of a single or a stacked input, found once per object."""
        up, down = (np.asarray(v) for v in self.spin_init)
        if np.any(up != up.flat[0]) or np.any(down != down.flat[0]):
            raise ValueError("stacked inputs must share one spin_init: the circuit runs "
                             "the photon basis with a single spin")
        return (up.flat[0].item(), down.flat[0].item())

    @cached_property
    def state(self) -> tuple[JointState, np.ndarray]:
        """The input in the photon basis, (basis state, coefficients), built once per object.

        The basis state holds |RR>, |RL>, |LR>, |LL> over (p1, p2) on one
        batch axis, each tensored with the shared spin; the coefficients
        (alpha delta, alpha gamma, beta delta, beta gamma) of each input sit
        on a last axis of length 4.  Both are read-only.
        """
        a, b, d, g = (np.asarray(x) for x in (self.alpha, self.beta, self.delta, self.gamma_amp))
        coefficients = np.stack([a * d, a * g, b * d, b * g], axis=-1)
        coefficients.flags.writeable = False
        return _photon_basis(self.shared_spin_init), coefficients

    @classmethod
    def basis(cls, control: str, target: str, spin_init=DEFAULT_SPIN_INIT) -> "CnotInputs":
        amp = {"R": (1.0, 0.0), "L": (0.0, 1.0)}
        a, b = amp[control]
        d, g = amp[target]
        return cls(a, b, d, g, spin_init)


@lru_cache(maxsize=8)
def _photon_basis(spin_init: tuple[complex, complex]) -> JointState:
    """|RR>, |RL>, |LR>, |LL> on one batch axis, each tensored with the spin."""
    p1 = make_state(P1, [("R", [1.0, 1.0, 0.0, 0.0]), ("L", [0.0, 0.0, 1.0, 1.0])])
    p2 = make_state(P2, [("R", [1.0, 0.0, 1.0, 0.0]), ("L", [0.0, 1.0, 0.0, 1.0])])
    spin = make_state(SPIN, [("up", spin_init[0]), ("down", spin_init[1])])
    return read_only(tensor(tensor(p1, p2), spin))


@dataclass(frozen=True)
class DeviceErrorConfig:
    """All component imperfections of the full circuit."""

    xi1: HwpError = HwpError(0.0)
    xi2: HwpError = HwpError(0.0)
    cpbs1: CpbsError = CpbsError()
    cpbs2: CpbsError = CpbsError()
    cpbs3: CpbsError = CpbsError()
    cpbs4: CpbsError = CpbsError()
    sw1: SwitchCoeffs = SwitchCoeffs()
    sw2: SwitchCoeffs = SwitchCoeffs()
    cloner: ClonerConfig = ClonerConfig(1.0)

    @classmethod
    def uniform(
        cls,
        err: float,
        sw1: SwitchCoeffs = SwitchCoeffs(),
        sw2: SwitchCoeffs = SwitchCoeffs(),
        cloner: ClonerConfig = ClonerConfig(1.0),
    ) -> "DeviceErrorConfig":
        """Every wave-plate and CPBS error set to the same value."""
        c = CpbsError(err, err)
        return cls(HwpError(err), HwpError(err), c, c, c, c, sw1, sw2, cloner)


def _coeffs(cavity: CavityParams | CavityCoeffs) -> CavityCoeffs:
    return cavity if isinstance(cavity, CavityCoeffs) else cavity_coeffs(cavity)


def config_shapes(cavity: CavityParams | CavityCoeffs, err: DeviceErrorConfig,
                  reads: tuple[str, ...]) -> tuple[tuple, tuple]:
    """Broadcast shapes of every config field and of the fields of the parts
    named in ``reads`` ("cavity" or a :class:`DeviceErrorConfig` field), from
    one walk over the fields: () for one config, (m, n, 1) for a grid block."""
    shapes = {(name, getattr(v, "shape", ()))
              for name, part in (("cavity", cavity), *vars(err).items())
              for v in vars(part).values()}
    return (np.broadcast_shapes(*{shape for _, shape in shapes}),
            np.broadcast_shapes(*{shape for name, shape in shapes if name in reads}))


def _flat(m: np.ndarray, batch: tuple, k: int = 2) -> np.ndarray:
    """A map with ``k`` entry axes, then the point axes of its fields, as
    (entries..., points): one point, or all of ``batch``."""
    if m.ndim == k:
        return m.reshape(m.shape + (1,))
    if m.shape[k:] != batch:  # its fields leave out an axis of the block
        m = np.broadcast_to(m, m.shape[:k] + batch)
    return m.reshape(m.shape[:k] + (-1,))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a · b`` per point of (..., i, j, points) and (..., j, k, points) arrays, each entry
    summed in index order without fused multiply-adds (symmetric inputs stay symmetric)."""
    return (a[..., :, :, None, :] * b[..., None, :, :, :]).sum(-3)


def loop_pass(cpbs1: CpbsError, coeffs: CavityCoeffs, batch: tuple) -> np.ndarray:
    """One pass through the CPBS1 loop per spin branch, a (spin, 2, 2, points) map.

    No stage flips the spin, so ``(merge ⊗ I) · interaction · (split ⊗ I)`` on
    (photon, spin) is block-diagonal: block ``s`` is ``merge · interaction[s] · split``.
    """
    split, merge = (_flat(m, batch) for m in cpbs_loop_maps(cpbs1))
    return _dot(merge, _dot(_flat(interaction_map(coeffs), batch, 3), split))


def _basis_outputs(coeffs: CavityCoeffs, err: DeviceErrorConfig, spin: np.ndarray,
                   batch: tuple) -> np.ndarray:
    """The stages on the photon basis with the ``spin`` ket, on the points of ``batch``.

    Returns (spin, basis input, photon pair, point): the basis inputs and the
    photon pairs both run |RR>, |RL>, |LR>, |LL>.
    """
    loop = loop_pass(err.cpbs1, coeffs, batch)  # both photons pass it
    hwp1, hwp2 = (_flat(hwp_map(xi), batch) for xi in (err.xi1, err.xi2))
    hadamard = spin_hadamard()
    # axes (spin, p1, p1 input, point): the control photon's HWP1, loop pass
    # and HWP2 in each spin branch, then the spin rotation mixes the branches
    x = _dot(hwp2, _dot(loop, hwp1 * spin[:, None, None, None]))
    x = _dot(hadamard[:, :, None], x.reshape(2, 4, -1)).reshape(2, 2, 2, -1)
    # axes (spin, p1 input, p2 input, p1, p2, point): the target photon's loop
    # pass in each spin branch, an outer product, then the second spin rotation
    x = np.multiply(x.transpose(0, 2, 1, 3)[:, :, None, :, None],
                    loop.transpose(0, 2, 1, 3)[:, None, :, None], order="C")
    out = np.empty_like(x)
    for u in (0, 1):
        np.multiply(hadamard[u, 0], x[0], out=out[u])
        out[u] += hadamard[u, 1] * x[1]
    return out.reshape(2, 4, 4, -1)


def branch_weights(y: np.ndarray) -> np.ndarray:
    """Each spin branch's squared norm in a (spin, input, photon pair, point)
    array, re^2 + im^2 summed over the photon pairs: (spin, input, point)."""
    out = np.empty(y.shape[:2] + y.shape[3:])
    for s in (0, 1):  # one branch at a time bounds the temporaries
        squares = np.square(y[s].real)
        squares += np.square(y[s].imag)
        np.add.reduce(squares, axis=1, out=out[s])
    return out


class OutputNormError(AssertionError):
    """A single run's output norm exceeds 1: the config is outside the model's domain."""


# output checks by fault code: what a single run that fails one raises, and
# the exception name a grid row that fails it carries in its status
FAULTS = {
    1: (ValueError, "ValueError", "non-finite output amplitude"),
    2: (OutputNormError, "AssertionError", "output norm exceeds 1"),
}
NORM_TOL = 1e-9


def fault_error(code: int, detail: str) -> Exception:
    kind, _, what = FAULTS[code]
    return kind(f"{what}: {detail}")


def sign_fix_amplitude(err: DeviceErrorConfig) -> float:
    """Amplitude of the conditional sign flip on the spin-up control-L terms.

    The readout photon survives CPBS4 with sqrt(1-tau_r4) and the flipped
    control component passes the two conditional-phase CPBSs with
    sqrt(1-tau_l2) and sqrt(1-tau_l3); the flip itself contributes the -1.
    """
    return -np.sqrt(
        (1 - err.cpbs2.tau_l) * (1 - err.cpbs3.tau_l) * (1 - err.cpbs4.tau_r)
    )


@dataclass(frozen=True)
class CircuitOutput(JointState):
    """A circuit's output: a state over (p1, p2, spin), batched over the
    config's points and the inputs, whose amplitudes are a view of ``columns``.

    ``columns`` is the array the circuit computed the outputs in, (spin,
    input, photon pair, point) with the point axes flattened and the global
    weight not applied, and ``spin_weights`` is :func:`branch_weights` of it.
    ``fault`` has every point axis of the config, then the inputs.
    """

    columns: np.ndarray | None = None
    spin_weights: np.ndarray | None = None


# the config parts the stages read, then those the sign fix reads as well
_CORE_READS = ("cavity", "xi1", "xi2", "cpbs1")
_SIGN_FIX_READS = _CORE_READS + ("cpbs2", "cpbs3", "cpbs4")


def _run(inputs: CnotInputs, cavity: CavityParams | CavityCoeffs, err: DeviceErrorConfig,
         sign_fix: bool) -> CircuitOutput:
    """Each input's output, checked, then with the sign fix if ``sign_fix``.

    The stages run on the photon basis of ``inputs`` (see
    :attr:`CnotInputs.state`) at the points of the fields they read (and,
    with ``sign_fix``, of those the sign fix reads); each input's output is
    its coefficients' combination of the four basis outputs, one ``(inputs,
    4) @ (4, 4·points)`` matmul per spin, laid out (spin, input, photon
    pair, point).  The output checks flag each input and point whose output
    is non-finite (code 1) or has norm > 1 (code 2); a single run raises.
    The sign fix then scales the spin-up, control-L amplitudes per point.
    """
    shape, points = config_shapes(cavity, err, _SIGN_FIX_READS if sign_fix else _CORE_READS)
    if shape[-1:] not in ((), (1,)):
        raise ValueError(f"a batched config must end in the length-1 input axis, "
                         f"got shape {shape}")
    coeffs = _coeffs(cavity)
    basis, coefficients = inputs.state  # every basis input holds the spin ket amps[0, 0, 0]
    x = _basis_outputs(coeffs, err, basis.amps[0, 0, 0], points).reshape(2, 4, -1)
    y = np.matmul(coefficients.reshape(-1, 4), x).reshape(2, -1, 4, x.shape[-1] // 4)
    del x  # the checks below need only y
    weights = branch_weights(y)
    norm = weights.sum(axis=0)  # non-finite if an amplitude is
    fault = np.where(np.isfinite(norm), np.where(norm > 1 + NORM_TOL, 2, 0), 1)
    # the inputs take the place of a block's length-1 input axis
    inputs = coefficients.shape[:-1] or points[-1:]
    if not inputs and fault[0, 0]:
        raise fault_error(int(fault[0, 0]), f"norm {norm[0, 0]}")
    if sign_fix:  # spin up, control L
        y[0, :, 2:] *= np.broadcast_to(sign_fix_amplitude(err), points).reshape(-1)
        weights = branch_weights(y)
    points = points[:-1]
    k, i = len(points), len(inputs)
    amps = y.reshape((2,) + inputs + (2, 2) + points).transpose(
        *range(i + 3, i + 3 + k), *range(1, i + 1), i + 1, i + 2, 0)
    fault = fault.reshape(inputs + points).transpose(*range(i, i + k), *range(i))
    return CircuitOutput((P1, P2, SPIN), amps, fault=np.broadcast_to(fault, shape[:-1] + inputs),
                         columns=y, spin_weights=weights)


def baseline_cnot(
    inputs: CnotInputs,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig = DeviceErrorConfig(),
) -> CircuitOutput:
    """Spin-cavity CNOT without the sign fix; uses xi1, xi2 and CPBS1 only.

    The stages run on the photon basis of ``inputs`` (see
    :attr:`CnotInputs.state`), and the output checks on each input's
    output.  A config's fields are scalars, or hold a block's grid points
    on arrays whose last axis is the length-1 input axis.
    """
    return _run(inputs, cavity, err, sign_fix=False)


# the DeviceErrorConfig fields that only scale the optimized circuit's
# global weight (see cnot_prefactor): they move no amplitude of any stage
WEIGHT_ONLY = frozenset({"sw1", "sw2", "cloner"})


def cnot_prefactor(err: DeviceErrorConfig) -> float:
    """Global success amplitude of the optimized circuit.

    The control photon is transmitted through both switches, the target is
    reflected by both, and the cloner succeeds with sqrt(F): the product is
    independent of the input state.
    """
    return (
        switch_amplitude(err.sw1, "I1->O2")
        * switch_amplitude(err.sw1, "I2->O2")
        * switch_amplitude(err.sw2, "I1->O2")
        * switch_amplitude(err.sw2, "I1->O1")
        * np.sqrt(err.cloner.fidelity)
    )


def optimized_cnot(
    inputs: CnotInputs,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig = DeviceErrorConfig(),
) -> CircuitOutput:
    """Cloner-assisted CNOT: baseline core, switch routing, conditional sign fix.

    The output checks run on the core output; the sign fix then scales the
    spin-up, control-L amplitudes at each point, and the prefactor is the
    state's weight.
    """
    return with_weight(_run(inputs, cavity, err, sign_fix=True), cnot_prefactor(err))


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


_TERM_ORDER = (("R", "R"), ("R", "L"), ("L", "L"), ("L", "R"))


def extract_branch_amplitudes(state: JointState):
    """((RR, RL, LL, LR) on spin-up, same on spin-down), weight folded in."""
    up = tuple(state.weight * state.amplitude((c, t, "up")) for c, t in _TERM_ORDER)
    down = tuple(state.weight * state.amplitude((c, t, "down")) for c, t in _TERM_ORDER)
    return up, down


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
    # run with ideal switches/cloner so the coefficients carry no prefactor
    core_err = DeviceErrorConfig(
        xi1=err.xi1, xi2=err.xi2, cpbs1=err.cpbs1, cpbs2=err.cpbs2,
        cpbs3=err.cpbs3, cpbs4=err.cpbs4,
    )
    out = optimized_cnot(inputs, coeffs, core_err)
    up, down = extract_branch_amplitudes(out)
    return CnotAmplitudes(
        up=up,
        down=down,
        sign_fix=sign_fix_amplitude(err),
        prefactor=cnot_prefactor(err),
        rr_up_closed=rr_up_closed_form(inputs, coeffs, err),
        rr_up_reference=rr_up_closed_form(inputs, coeffs, err, reference=True),
    )
