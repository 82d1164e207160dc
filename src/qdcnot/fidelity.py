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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cavity import CavityCoeffs, CavityParams
from .circuits import (
    CnotInputs,
    DeviceErrorConfig,
    baseline_cnot,
    optimized_cnot,
)
from .devices import SQRT_HALF
from .state import JointState, inner_product, make_state, project_spin, tensor


@dataclass(frozen=True)
class InputEnsemble:
    """Named set of product inputs the fidelity is averaged over."""

    kind: str
    states: tuple[CnotInputs, ...]

    @classmethod
    def basis4(cls) -> "InputEnsemble":
        return cls("basis4", tuple(
            CnotInputs.basis(c, t) for c in "RL" for t in "RL"
        ))

    @classmethod
    def superposition4(cls) -> "InputEnsemble":
        h = SQRT_HALF
        states = tuple(
            CnotInputs(h, s1 * h, h, s2 * h) for s1 in (1, -1) for s2 in (1, -1)
        )
        return cls("superposition4", states)

    @classmethod
    def haar_product(cls, n: int, seed: int = 0) -> "InputEnsemble":
        """n product inputs, each qubit drawn from the uniform pure-state measure."""
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(n):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            a, b = v[0], v[1]
            d, g = v[2], v[3]
            na = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            nt = math.sqrt(abs(d) ** 2 + abs(g) ** 2)
            states.append(CnotInputs(a / na, b / na, d / nt, g / nt))
        return cls(f"haar_product({n}, seed={seed})", tuple(states))


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
        up, down = _ideal_output_spin(inputs.spin_init)
        spin = make_state("spin", [("up", up), ("down", down)])
    else:
        raise ValueError(f"unknown fidelity mode {mode!r}")
    return tensor(photons, spin)


def fidelity_single(out: JointState, inputs: CnotInputs, mode: str) -> float:
    """|<target|out>|^2 with the unnormalized output; weight is folded in."""
    if "spin" not in out.factors:
        raise ValueError("output state has no spin factor")
    return abs(inner_product(target_state(inputs, mode), out)) ** 2


def success_probability(out: JointState, branch: str = "both") -> float:
    """Squared norm of one spin branch (or of the whole state)."""
    if branch == "both":
        return out.norm_sq()
    if branch in ("up", "down"):
        return project_spin(out, branch)[1]
    raise ValueError(f"unknown branch {branch!r}")


@dataclass(frozen=True)
class FidelityReport:
    """Ensemble-averaged fidelities for one circuit configuration.

    ``f_up``/``f_down`` are conditioned on the ideal 1/2 herald weight of
    their branch; the folded variants and ``f_both`` include all weight.
    """

    f_up: float
    f_down: float
    f_both: float
    success_up: float
    success_down: float
    ensemble: str
    circuit: str
    cavity: CavityParams | CavityCoeffs
    errors: DeviceErrorConfig

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
    """Arithmetic mean of the per-input fidelities, in a fixed order."""
    if not ensemble.states:
        raise ValueError("empty input ensemble")
    sums = [0.0, 0.0, 0.0, 0.0, 0.0]
    for inputs in ensemble.states:
        out = run_circuit(circuit, inputs, cavity, err)
        f_up = fidelity_single(out, inputs, "branch_up")
        f_down = fidelity_single(out, inputs, "branch_down")
        f_both = fidelity_single(out, inputs, "both")
        sums[0] += 2 * f_up
        sums[1] += 2 * f_down
        sums[2] += f_both
        sums[3] += success_probability(out, "up")
        sums[4] += success_probability(out, "down")
    n = len(ensemble.states)
    return FidelityReport(
        f_up=sums[0] / n,
        f_down=sums[1] / n,
        f_both=sums[2] / n,
        success_up=sums[3] / n,
        success_down=sums[4] / n,
        ensemble=ensemble.kind,
        circuit=circuit,
        cavity=cavity,
        errors=err,
    )
