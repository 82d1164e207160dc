"""Baseline and cloner-assisted CNOT circuits.

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
output coefficient must reduce to the closed form that
``tests/closed_form.py`` evaluates.

The optimized circuit clones the control photon up front, reads the spin
out onto the clone after the core, and uses the clone to drive a
conditional sign flip on the control photon's L component: the spin-up
branch L terms are multiplied by :func:`sign_fix_amplitude` and the global
weight picks up the switch/cloner prefactor.  The readout-and-flip chain is
applied at the amplitude level, exactly where its factors appear in the
circuit's output expression (the sign fix lands only on the two spin-up
control-L coefficients).

Every circuit function also runs a batch: inputs whose amplitudes are
arrays (a stacked ensemble) against a configuration whose fields are
arrays over its points (a block of grid points: the axis1 values on an
(m, 1) array, the axis2 values on a (1, n) one), and the output carries
one run per point and input.  The circuit is linear in its input, so the
stages (:func:`_basis_outputs`, their one definition) run only on the
photon-basis inputs |RR>, |RL>, |LR>, |LL>, all with the one initial
spin (:data:`DEFAULT_SPIN_INIT`); no stage flips the spin, so each
photon's stages are 2x2 maps per spin branch and point
(:func:`loop_pass`).  The stage maps come points-last from ``devices``
and ``cavity``, (entries..., points...), and run in that layout.  Every
map of the model is real, and so is the initial spin, so the stages run
in float64.  Each input's output is then the combination of the four
basis outputs its own coefficients give, in real numbers: a complex input
runs as its real and imaginary parts (:attr:`CnotInputs.real_coefficients`),
so no complex arithmetic runs anywhere.  The output is laid out (spin,
amplitude, input, point); the output checks run on it, the optimized
circuit's sign fix scales it per point, and the returned
:class:`CircuitOutput` is that array (``amplitudes``), with each spin
branch's squared norm and the global weight alongside: no labeled state
is built, and no other view of the array is kept (a test that reads it by
photon pair or by label has its own helpers).  Every sum runs in one
fixed order and calls no BLAS, so a point's output has the same bits in a
block of any size, alone included.  A field that only scales the global
weight (:data:`WEIGHT_ONLY`) adds no point to the stages; the config's
shape and the stages' point shape are read in one walk over its fields
(:func:`config_shapes`).  One block may hold points of both circuits:
``optimized_cnot`` takes the sign fix as a per-point mask, and where it is
off the sign-fix factor and the weight are exactly 1.0, so those points
keep the bits :func:`baseline_cnot` gives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
# not used here: the benchmark's span table traces these names under this module
from .state import apply_mode_map, make_state, tensor, with_weight  # noqa: F401

# electron spin prepared as (|up> - |down>)/sqrt(2)
DEFAULT_SPIN_INIT = (SQRT_HALF, -SQRT_HALF)


@dataclass(frozen=True)
class CnotInputs:
    """Product input: control (alpha, beta), target (delta, gamma_amp).

    Every input starts the spin in ``spin_init``, the paper's one state
    (a class constant, not a field).
    """

    alpha: complex
    beta: complex
    delta: complex
    gamma_amp: complex
    spin_init = DEFAULT_SPIN_INIT

    def __post_init__(self):
        for name, (x, y) in (
            ("control", (self.alpha, self.beta)),
            ("target", (self.delta, self.gamma_amp)),
        ):
            n = abs(x) ** 2 + abs(y) ** 2
            if not abs(n - 1) <= 1e-9:  # a nan fails it too
                raise ValueError(f"{name} amplitudes not normalized: |.|^2 = {n}")

    @cached_property
    def coefficients(self) -> np.ndarray:
        """(alpha delta, alpha gamma, beta delta, beta gamma), the input over
        |RR>, |RL>, |LR>, |LL>, on a last axis of length 4; read-only, built
        once per object."""
        a, b, d, g = (np.asarray(x) for x in (self.alpha, self.beta, self.delta, self.gamma_amp))
        coefficients = np.stack([a * d, a * g, b * d, b * g], axis=-1)
        coefficients.flags.writeable = False
        return coefficients

    @cached_property
    def real_coefficients(self) -> np.ndarray:
        """:attr:`coefficients` in real numbers, (..., part, 4): their real
        parts, then their imaginary parts if they are complex; read-only,
        built once per object."""
        c = self.coefficients
        parts = np.stack([c.real, c.imag], axis=-2) if np.iscomplexobj(c) else c[..., None, :]
        parts.flags.writeable = False
        return parts

    @classmethod
    def basis(cls, control: str, target: str) -> "CnotInputs":
        amp = {"R": (1.0, 0.0), "L": (0.0, 1.0)}
        return cls(*amp[control], *amp[target])


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
                  reads: tuple[str, ...], mask: tuple = ()) -> tuple[tuple, tuple]:
    """Broadcast shapes of every config field and of the fields of the parts
    named in ``reads`` ("cavity" or a :class:`DeviceErrorConfig` field), from
    one walk over the fields: () for one config, (m, n) for a grid block.
    Both also broadcast with ``mask``, the shape of a per-point mask."""
    shapes: set[tuple] = {mask}  # of every field that is an array
    read: set[tuple] = {mask}  # of the array fields of the parts in reads
    for name, part in (("cavity", cavity), *vars(err).items()):
        for v in vars(part).values():
            if shape := getattr(v, "shape", ()):
                shapes.add(shape)
                if name in reads:
                    read.add(shape)
    return np.broadcast_shapes(*shapes), np.broadcast_shapes(*read)


def _flat(m: np.ndarray, batch: tuple, k: int = 2) -> np.ndarray:
    """A map with ``k`` entry axes, then the point axes of its fields, as
    (entries..., points): one point, or all of ``batch``."""
    if m.ndim == k:
        return m.reshape(m.shape + (1,))
    if m.shape[k:] != batch:  # its fields leave out an axis of the block
        m = np.broadcast_to(m, m.shape[:k] + batch)
    return m.reshape(m.shape[:k] + (-1,))


# the most points at which _dot forms its j products whole: faster on small
# blocks, and above it adding them one at a time takes as long
DOT_WHOLE_POINTS = 512


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a · b`` per point of (..., i, j, points) and (..., j, k, points) arrays, each entry
    summed in index order without fused multiply-adds (symmetric inputs stay symmetric).

    Up to :data:`DOT_WHOLE_POINTS` points the j products are formed at once
    and summed (numpy adds fewer than 8 terms in order); above, they are
    added one at a time into the output, so no temporary is larger than it.
    Both give the same bits."""
    if max(a.shape[-1], b.shape[-1]) <= DOT_WHOLE_POINTS:
        return (a[..., :, :, None, :] * b[..., None, :, :, :]).sum(-3)
    out = a[..., :, 0, None, :] * b[..., None, 0, :, :]
    term = np.empty_like(out)
    for j in range(1, a.shape[-2]):
        out += np.multiply(a[..., :, j, None, :], b[..., None, j, :, :], out=term)
    return out


def loop_pass(cpbs1: CpbsError, coeffs: CavityCoeffs, batch: tuple) -> np.ndarray:
    """One pass through the CPBS1 loop per spin branch, a (spin, 2, 2, points) map.

    No stage flips the spin, so ``(merge ⊗ I) · interaction · (split ⊗ I)`` on
    (photon, spin) is block-diagonal: block ``s`` is ``merge · interaction[s] · split``.
    """
    split, merge = (_flat(m, batch) for m in cpbs_loop_maps(cpbs1))
    return _dot(merge, _dot(_flat(interaction_map(coeffs), batch, 3), split))


# the spin every run starts in: real, as every stage map is, so the stages run in float64
_SPIN_INIT = np.array(DEFAULT_SPIN_INIT)


def _basis_outputs(coeffs: CavityCoeffs, err: DeviceErrorConfig, batch: tuple) -> np.ndarray:
    """The stages on the photon basis with the initial spin, on the points of ``batch``.

    Returns (spin, basis input, photon pair, point): the basis inputs and the
    photon pairs both run |RR>, |RL>, |LR>, |LL>.
    """
    loop = loop_pass(err.cpbs1, coeffs, batch)  # both photons pass it
    hwp1, hwp2 = (_flat(hwp_map(xi), batch) for xi in (err.xi1, err.xi2))
    hadamard = spin_hadamard()
    # axes (spin, p1, p1 input, point): the control photon's HWP1, loop pass
    # and HWP2 in each spin branch, then the spin rotation mixes the branches
    x = _dot(hwp2, _dot(loop, hwp1 * _SPIN_INIT[:, None, None, None]))
    x = _dot(hadamard[:, :, None], x.reshape(2, 4, -1)).reshape(2, 2, 2, -1)
    # axes (spin, p1 input, p2 input, p1, p2, point): the target photon's loop
    # pass in each spin branch, an outer product, then the second spin rotation
    x = np.multiply(x.transpose(0, 2, 1, 3)[:, :, None, :, None],
                    loop.transpose(0, 2, 1, 3)[:, None, :, None], order="C")
    del loop
    # the rotation in place: a sum of two terms has the same bits in either order
    up, down = x
    down_terms = hadamard[1, 0] * up
    up *= hadamard[0, 0]
    up += hadamard[0, 1] * down
    down *= hadamard[1, 1]
    down += down_terms
    return x.reshape(2, 4, 4, -1)


def branch_weights(y: np.ndarray) -> np.ndarray:
    """Each spin branch's squared norm in a (spin, part, photon pair, input,
    point) array: per photon pair re^2 (+ im^2 if there is an imaginary
    part), summed over the pairs: (spin, input, point)."""
    out = np.empty(y.shape[:1] + y.shape[3:])
    for s in range(len(y)):  # one branch at a time bounds the temporaries
        squares = np.square(y[s, 0])
        for part in y[s, 1:]:
            squares += np.square(part)
        np.add.reduce(squares, axis=0, out=out[s])
    return out


class OutputNormError(AssertionError):
    """A single run's output norm exceeds 1: the config is outside the model's domain."""


class NonFiniteOutputError(ValueError):
    """A single run's output has a non-finite amplitude."""


# output checks by fault code: what a single run that fails one raises, and
# what it says; a grid row that fails one reads error:<that error's builtin base>
FAULTS = {
    1: (NonFiniteOutputError, "non-finite output amplitude"),
    2: (OutputNormError, "output norm exceeds 1"),
}
NORM_TOL = 1e-9


def fault_error(code: int, detail: str) -> Exception:
    kind, what = FAULTS[code]
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
class CircuitOutput:
    """A circuit's output, in the layout the circuit computed it in.

    ``amplitudes`` is (spin, amplitude, input, point) in real numbers: the
    real parts of the four photon-pair amplitudes (|RR>, |RL>, |LR>, |LL>),
    then their imaginary parts if the inputs are complex (see
    :attr:`CnotInputs.real_coefficients`).  The inputs and the points are
    flattened, and the global ``weight`` (per point of the config) is not
    applied.  ``spin_weights`` is (spin, input, point), each branch's squared
    norm (:func:`branch_weights`).  ``points`` and ``inputs`` are the shapes
    flattened there: the stages' point axes, and the input axes (none for a
    single input).  ``fault`` has every point axis of the config, then the
    inputs.
    """

    amplitudes: np.ndarray
    spin_weights: np.ndarray
    fault: np.ndarray
    weight: float | np.ndarray
    points: tuple[int, ...]
    inputs: tuple[int, ...]


# the config parts the stages read, then those the sign fix reads as well
_CORE_READS = ("cavity", "xi1", "xi2", "cpbs1")
_SIGN_FIX_READS = _CORE_READS + ("cpbs2", "cpbs3", "cpbs4")


def _run(inputs: CnotInputs, cavity: CavityParams | CavityCoeffs, err: DeviceErrorConfig,
         sign_fix: bool | np.ndarray) -> CircuitOutput:
    """Each input's output, checked, then with the sign fix and the
    optimized circuit's prefactor as its weight where ``sign_fix`` holds.

    ``sign_fix`` is a per-point mask that broadcasts against the fields (one
    flag, or ``(k,)`` for a block of k anchors), so a block may hold both
    circuits: where it is off, the sign-fix factor and the weight are
    exactly 1.0, and those points keep :func:`baseline_cnot`'s bits.  The
    stages run on the photon basis |RR>, |RL>, |LR>, |LL> with the spin
    :data:`DEFAULT_SPIN_INIT` at the points of the mask and of the fields
    they read (with a sign fix, those the sign fix reads too); each input's
    output is its :attr:`CnotInputs.real_coefficients`' combination of the
    four basis outputs, summed in basis order by one ``np.einsum``, laid out
    (spin, part, photon pair, input, point).  The output checks flag each
    input and point whose output is non-finite (code 1) or has norm > 1
    (code 2); a single input on a single config raises.  The sign fix then
    scales the spin-up, control-L amplitudes per point.
    """
    sign_fix = np.asarray(sign_fix)
    fixed = sign_fix.any()
    shape, points = config_shapes(cavity, err, _SIGN_FIX_READS if fixed else _CORE_READS,
                                  sign_fix.shape)
    coeffs = _coeffs(cavity)
    rows = inputs.real_coefficients  # (inputs..., part, 4)
    inputs = rows.shape[:-2]
    x = _basis_outputs(coeffs, err, points)
    # each input's parts: the sum of the basis outputs they weight, in basis order
    y = np.einsum("ikb,sbqp->skqip", rows.reshape((-1,) + rows.shape[-2:]), x)
    del x  # the checks below need only y
    weights = branch_weights(y)
    norm = weights.sum(axis=0)  # non-finite if an amplitude is
    fault = np.where(np.isfinite(norm), np.where(norm > 1 + NORM_TOL, 2, 0), 1)
    if not (inputs or shape) and fault[0, 0]:
        raise fault_error(int(fault[0, 0]), f"norm {norm[0, 0]}")
    weight = 1.0
    if fixed:  # spin up, control L
        fix = np.where(sign_fix, sign_fix_amplitude(err), 1.0)
        weight = np.where(sign_fix, cnot_prefactor(err), 1.0)
        y[0, :, 2:] *= np.broadcast_to(fix, points).reshape(-1)
        weights[0] = branch_weights(y[:1])[0]  # only the spin-up branch moved
    k, i = len(points), len(inputs)
    fault = fault.reshape(inputs + points).transpose(*range(i, i + k), *range(i))
    return CircuitOutput(y.reshape(2, -1, *y.shape[3:]), weights,
                         np.broadcast_to(fault, shape + inputs), weight, points, inputs)


def baseline_cnot(
    inputs: CnotInputs,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig = DeviceErrorConfig(),
) -> CircuitOutput:
    """Spin-cavity CNOT without the sign fix; uses xi1, xi2 and CPBS1 only.

    The stages run on the photon basis, and the output checks on each
    input's output.  A config's fields are scalars, or arrays over a
    block's points.
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
    sign_fix: bool | np.ndarray = True,
) -> CircuitOutput:
    """Cloner-assisted CNOT: baseline core, switch routing, conditional sign fix.

    The output checks run on the core output; the sign fix then scales the
    spin-up, control-L amplitudes at each point, and the prefactor is the
    output's weight.  ``sign_fix`` is a mask over the points (one flag
    covers them all), so one block may run both circuits: the points where
    it is off get :func:`baseline_cnot`'s output.
    """
    return _run(inputs, cavity, err, sign_fix)
