"""Gate-fidelity evaluation against the ideal CNOT, averaged over ensembles.

Fidelity of one run is the squared overlap of the unnormalized circuit
output (global weight included) with the ideal target ``CNOT(photons)``
tensored with a target spin ket, so lost success amplitude depresses the
number.  Three target spins are supported: the bare up or down branch ket,
or (mode ``both``) the spin the error-free optimized circuit itself ends
in, computed by running it rather than assumed.

Two per-branch conventions are reported side by side: ``f_up``/``f_down``
divide the branch overlap by the ideal herald probability 1/2 of that
branch (the branch-conditioned gate quality, with the 1/2 quoted separately
as success probability), while ``f_up_folded``/``f_down_folded`` keep the
branch weight inside the number.  The combined ``f_both`` always folds all
weight in.

An ensemble runs as one batch, against target states built once per
ensemble.  The circuit runs the four photon-basis inputs and expands
their outputs to every input of the ensemble (see
``circuits.baseline_cnot``), so the inputs of an ensemble share one
``spin_init``.  Given a block of grid points (configuration fields holding
an ``(m, 1, 1)`` array of axis1 values or a ``(1, n, 1)`` array of axis2
values wherever the grid moves them), :func:`average_fidelity` runs the
whole block against the whole ensemble at once and reports one value and
one status per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .cavity import CavityCoeffs, CavityParams
from .circuits import (
    FAULTS,
    CnotInputs,
    DeviceErrorConfig,
    baseline_cnot,
    config_shape,
    fault_error,
    optimized_cnot,
)
from .devices import SQRT_HALF
from .state import (
    JointState,
    inner_product,
    make_state,
    project_spin,
    read_only,
    stack,
    tensor,
)


@dataclass(frozen=True)
class InputEnsemble:
    """Named set of product inputs the fidelity is averaged over."""

    kind: str
    states: tuple[CnotInputs, ...]

    @cached_property
    def inputs(self) -> CnotInputs:
        """The states stacked into one batched input, in order."""
        return stack(self.states)

    @cached_property
    def targets(self) -> dict[str, JointState]:
        """Target state of each fidelity mode over :attr:`inputs`."""
        return {mode: read_only(target_state(self.inputs, mode))
                for mode in ("branch_up", "branch_down", "both")}

    @classmethod
    @cache
    def basis4(cls) -> "InputEnsemble":
        """|RR>, |RL>, |LR>, |LL>; built once per process."""
        return cls("basis4", tuple(
            CnotInputs.basis(c, t) for c in "RL" for t in "RL"
        ))

    @classmethod
    @cache
    def superposition4(cls) -> "InputEnsemble":
        """The four products of |R> +- |L> states; built once per process."""
        h = SQRT_HALF
        states = tuple(
            CnotInputs(h, s1 * h, h, s2 * h) for s1 in (1, -1) for s2 in (1, -1)
        )
        return cls("superposition4", states)

    @classmethod
    @cache
    def haar_product(cls) -> "InputEnsemble":
        """The 36 products of the six cardinal qubit states; built once per process.

        R, L, (R +- L)/sqrt2 and (R +- iL)/sqrt2 form a qubit 2-design, and
        every reported value is at most quadratic in each photon's state, so
        the mean over these 36 inputs is the exact uniform product average.
        """
        h = SQRT_HALF
        cardinal = ((1.0, 0.0), (0.0, 1.0), (h, h), (h, -h), (h, 1j * h), (h, -1j * h))
        return cls("haar_product", tuple(
            CnotInputs(a, b, d, g) for a, b in cardinal for d, g in cardinal
        ))


def ideal_cnot_photons(inputs: CnotInputs) -> JointState:
    """CNOT truth table: control L flips the target polarization."""
    a, b = inputs.alpha, inputs.beta
    d, g = inputs.delta, inputs.gamma_amp
    return make_state(
        ("p1", "p2"),
        [(("R", "R"), a * d), (("R", "L"), a * g), (("L", "R"), b * g), (("L", "L"), b * d)],
    )


@lru_cache(maxsize=8)
def _ideal_output_spin(spin_init: tuple[complex, complex]) -> tuple[complex, complex]:
    """Spin ket the error-free optimized circuit ends in, computed by running it."""
    out = optimized_cnot(
        CnotInputs.basis("R", "R", spin_init), CavityCoeffs.ideal(), DeviceErrorConfig()
    )
    up = out.amplitude(("R", "R", "up"))
    down = out.amplitude(("R", "R", "down"))
    norm = math.sqrt(abs(up) ** 2 + abs(down) ** 2)
    if abs(norm - 1) > 1e-9:
        raise AssertionError("ideal pipeline did not produce a product output")
    return (up / norm, down / norm)


def target_state(inputs: CnotInputs, mode: str) -> JointState:
    photons = ideal_cnot_photons(inputs)
    if mode == "branch_up":
        spin = make_state("spin", [("up", 1.0)])
    elif mode == "branch_down":
        spin = make_state("spin", [("down", 1.0)])
    elif mode == "both":
        up, down = _ideal_output_spin(inputs.shared_spin_init)
        spin = make_state("spin", [("up", up), ("down", down)])
    else:
        raise ValueError(f"unknown fidelity mode {mode!r}")
    return tensor(photons, spin)


@dataclass(frozen=True)
class FidelityReport:
    """Ensemble-averaged fidelities for one circuit configuration.

    ``f_up``/``f_down`` are conditioned on the ideal 1/2 herald weight of
    their branch; the folded variants and ``f_both`` include all weight.
    For a block of grid points every value is an array over them, and
    ``status`` says per point, in row-major order, "ok" or which output
    check failed.
    """

    f_up: float
    f_down: float
    f_both: float
    success_up: float
    success_down: float
    ensemble: str
    circuit: str
    status: str | tuple[str, ...] = "ok"

    @property
    def f_up_folded(self) -> float:
        return self.f_up / 2

    @property
    def f_down_folded(self) -> float:
        return self.f_down / 2


def run_circuit(
    circuit: str,
    inputs: CnotInputs,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig,
) -> JointState:
    if circuit == "baseline":
        return baseline_cnot(inputs, cavity, err)
    if circuit == "optimized":
        return optimized_cnot(inputs, cavity, err)
    raise ValueError(f"unknown circuit {circuit!r}")


def average_fidelity(
    circuit: str,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig,
    ensemble: InputEnsemble,
) -> FidelityReport:
    """Arithmetic mean of the per-input fidelities, in a fixed order.

    ``cavity`` and ``err`` are one configuration, or a block of grid
    points: the fields the grid moves hold arrays over its points that end
    in the length-1 input axis, ``(m, 1, 1)`` for axis1 and ``(1, n, 1)``
    for axis2 (each entry inside its domain), every other field a scalar.
    One configuration whose output fails a check raises; a block reports
    the failure in that point's status and leaves its values nan.
    """
    if not ensemble.states:
        raise ValueError("empty input ensemble")
    out = run_circuit(circuit, ensemble.inputs, cavity, err)
    targets = ensemble.targets
    n = len(ensemble.states)

    def mean(values):  # a running sum in ensemble order, then one division
        return np.cumsum(values, axis=-1)[..., -1] / n

    def overlap(mode):  # |<target|out>|^2, weight folded in, per input
        return np.abs(inner_product(targets[mode], out)) ** 2

    values = [
        mean(2 * overlap("branch_up")),
        mean(2 * overlap("branch_down")),
        mean(overlap("both")),
        mean(project_spin(out, "up")[1]),
        mean(project_spin(out, "down")[1]),
    ]
    # per point, the first input (in ensemble order) that failed a check; a
    # field the circuit ignores (switches on the baseline) or that only moves
    # the weight (switches on the optimized circuit) leaves the amplitudes
    # without a point axis, so the points come from the config's shape
    fault = np.broadcast_to(out.fault, np.broadcast_shapes(config_shape(cavity, err),
                                                           out.batch_shape))
    first = np.take_along_axis(fault, np.argmax(fault != 0, axis=-1)[..., None], -1)[..., 0]
    if first.ndim == 0:
        if first:
            raise fault_error(int(first), f"{circuit} circuit, input {int(np.argmax(fault))}")
        values = [float(v) for v in values]
        status = "ok"
    else:
        values = [np.where(first == 0, v, math.nan) for v in values]
        status = tuple(f"error:{FAULTS[f][1]}" if f else "ok" for f in first.ravel().tolist())
    return FidelityReport(*values, ensemble=ensemble.kind, circuit=circuit, status=status)
