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

An ensemble runs as one batch.  The circuit runs the four photon-basis
inputs and combines their outputs into every input's output, laid out
(spin, input, photon pair, point) with the points last (see
``circuits.baseline_cnot``), so the inputs of an ensemble share one
``spin_init``.  :func:`average_fidelity` reads that array directly
(``CircuitOutput.columns``): each overlap is the input's conjugated
truth-table output (:attr:`InputEnsemble.targets`, built once per
ensemble) against its output, each branch weight is the one the circuit
computed (``CircuitOutput.spin_weights``), and the five means over the
inputs, taken in one reduction, then take each point's squared weight.
Given a block of grid points (configuration fields holding an ``(m, 1,
1)`` array of axis1 values or a ``(1, n, 1)`` array of axis2 values
wherever the grid moves them), it runs the whole block against the whole
ensemble at once and reports one value and one status per point.
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
    fault_error,
    optimized_cnot,
)
from .devices import SQRT_HALF
from .state import JointState, make_state, stack


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
    def targets(self) -> np.ndarray:
        """Each input's ideal CNOT output over |RR>, |RL>, |LR>, |LL>, conjugated: (inputs, 4).

        Built once per ensemble from :func:`ideal_cnot_photons`, read-only.
        """
        targets = np.conj(ideal_cnot_photons(self.inputs).amps).reshape(-1, 4)
        targets.flags.writeable = False
        return targets

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


def average_fidelity(
    circuit: str,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig,
    ensemble: InputEnsemble,
) -> FidelityReport:
    """Arithmetic mean of the per-input fidelities, in ensemble order.

    ``cavity`` and ``err`` are one configuration, or a block of grid
    points: the fields the grid moves hold arrays over its points that end
    in the length-1 input axis, ``(m, 1, 1)`` for axis1 and ``(1, n, 1)``
    for axis2 (each entry inside its domain), every other field a scalar.
    One configuration whose output fails a check raises; a block reports
    the failure in that point's status and leaves its values nan.
    """
    if not ensemble.states:
        raise ValueError("empty input ensemble")
    if circuit not in ("baseline", "optimized"):
        raise ValueError(f"unknown circuit {circuit!r}")
    run = baseline_cnot if circuit == "baseline" else optimized_cnot
    out = run(ensemble.inputs, cavity, err)
    y = out.columns  # (spin, input, photon pair, point), weight not applied
    n = y.shape[1]
    w2 = np.square(out.weight)  # the optimized circuit's prefactor, per point
    w2 = w2[..., 0] if np.ndim(w2) else w2

    # <CNOT c_i|out_i> per spin branch, input and point: a (1, 4) @ (4, points) each
    overlap = np.matmul(ensemble.targets[:, None, :], y)[:, :, 0]
    up, down = _ideal_output_spin(ensemble.inputs.shared_spin_init)
    per_input = np.concatenate([
        2 * np.abs(overlap) ** 2,
        (np.abs(np.conj(up) * overlap[0] + np.conj(down) * overlap[1]) ** 2)[None],
        out.spin_weights,
    ])  # f_up, f_down, f_both, success_up, success_down: (5, input, point)
    # the fault has every point axis of the config; a field the circuit
    # ignores (switches on the baseline) or that only moves the weight
    # (switches on the optimized circuit) gives the amplitudes no point axis
    fault = out.fault
    points = fault.shape[:-1]
    amp_points = out.batch_shape[:-1]
    # the means over the inputs in ensemble order, times each point's weight;
    # the amplitudes' point axes line up with the config's last ones
    means = w2 * (np.add.reduce(per_input, axis=1) / n).reshape(
        (5,) + (1,) * (len(points) - len(amp_points)) + amp_points)
    if not fault.any():
        values = means.tolist() if not points else np.broadcast_to(means, (5,) + points)
        status = "ok" if not points else ("ok",) * math.prod(points)
    else:
        # per point, the first input (in ensemble order) that failed a check
        first = np.take_along_axis(fault, np.argmax(fault != 0, axis=-1)[..., None], -1)[..., 0]
        if not points:
            raise fault_error(int(first), f"{circuit} circuit, input {int(np.argmax(fault))}")
        values = np.where(first == 0, means, math.nan)
        status = tuple(f"error:{FAULTS[f][1]}" if f else "ok" for f in first.ravel().tolist())
    return FidelityReport(*values, ensemble=ensemble.kind, circuit=circuit, status=status)
