"""Gate-fidelity evaluation against the ideal CNOT, averaged over ensembles.

Fidelity of one run is the squared overlap of the unnormalized circuit
output (global weight included) with the ideal target, ``CNOT(photons)``
times a target spin ket, so lost success amplitude depresses the number.
Three target spins are supported: the bare up or down branch ket, or
(mode ``both``) the spin the error-free optimized circuit itself ends in,
computed by running it rather than assumed.

Two per-branch conventions are reported side by side: ``f_up``/``f_down``
divide the branch overlap by the ideal herald probability 1/2 of that
branch (the branch-conditioned gate quality, with the 1/2 quoted separately
as success probability), while ``f_up_folded``/``f_down_folded`` keep the
branch weight inside the number.  The combined ``f_both`` always folds all
weight in.

An ensemble runs as one batch.  The circuit runs the four photon-basis
inputs and combines their outputs into every input's output, in real
numbers (a complex input as its real and imaginary parts), laid out
(spin, amplitude, input, point) with the points last (see
``circuits.baseline_cnot``); every input starts the spin in the one
state ``CnotInputs.spin_init``.  :func:`average_fidelity` reads that
array, the one output the circuit returns (``CircuitOutput.amplitudes``):
each overlap is the input's conjugated truth-table output
(:attr:`InputEnsemble.targets`, a permutation of the input's own
coefficients as a real map, built once per ensemble) against its output,
one ``np.einsum`` that sums the amplitudes in order and calls no BLAS;
each branch weight is the one the circuit computed
(``CircuitOutput.spin_weights``), and the five means over the inputs,
taken in one reduction that adds the inputs in order, then take each
point's squared weight.  So a real ensemble's values stay real
throughout, and a point's values have the same bits in a block of any
size.
Given a block of grid points (configuration fields holding an ``(m, 1)``
array of axis1 values or a ``(1, n)`` array of axis2 values wherever the
grid moves them), it runs the whole block against the whole ensemble at
once and reports one value and one status per point.  A block may mix
both circuits (the circuit's name per point, as the anchor checks stack
them), and the ensemble may be a union of ensembles
(:meth:`InputEnsemble.union`): one circuit run covers all its inputs, and
each part is reduced over its own slice of them, so each part's report is
the one it gives alone.
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
from .state import stack


@dataclass(frozen=True)
class InputEnsemble:
    """Named set of product inputs the fidelity is averaged over.

    A union (see :meth:`union`) also keeps its ``parts``: one circuit run
    covers all their inputs, and each part is reported on its own.
    """

    kind: str
    states: tuple[CnotInputs, ...]
    parts: tuple[InputEnsemble, ...] = ()

    def __hash__(self):  # equal ensembles share a kind, which hashes far faster than every state
        return hash(self.kind)

    @classmethod
    @lru_cache(maxsize=8)
    def union(cls, *ensembles: InputEnsemble) -> InputEnsemble:
        """The ensembles as the parts of one: its kind is their kinds joined
        with ``+``, its states are theirs in order; built once per process.
        Each part must hold inputs and have a kind of its own.
        """
        if not ensembles or not all(e.states for e in ensembles):
            raise ValueError(f"a union needs parts that hold inputs, got "
                             f"{[(e.kind, len(e.states)) for e in ensembles]}")
        kinds = [e.kind for e in ensembles]
        if repeated := sorted({kind for kind in kinds if kinds.count(kind) > 1}):
            raise ValueError(f"a union needs parts of distinct kinds, got {repeated} repeated")
        states: list[CnotInputs] = []
        for e in ensembles:
            states += e.states
        return cls("+".join(kinds), tuple(states), ensembles)

    @cached_property
    def inputs(self) -> CnotInputs:
        """The states stacked into one batched input, in order."""
        return stack(self.states)

    @cached_property
    def targets(self) -> np.ndarray:
        """Each input's ideal CNOT output over |RR>, |RL>, |LR>, |LL>,
        conjugated, as the real map it applies to the input's output
        amplitudes (``CircuitOutput.amplitudes``): (part, amplitude, input).

        CNOT swaps the control-L terms of the input's own coefficients.  For
        real inputs the map is that row ``t``, and the overlap is real; for
        complex ones, ``t = a + ib``, the overlap's real part is ``(a, -b)``
        and its imaginary part ``(b, a)`` on the (real, imaginary) amplitudes.
        Built once per ensemble, read-only.
        """
        t = np.conj(self.inputs.coefficients[:, [0, 1, 3, 2]]).T
        if np.iscomplexobj(t):
            t = np.array([np.concatenate([t.real, -t.imag]), np.concatenate([t.imag, t.real])])
        else:
            t = t[None]
        t = np.ascontiguousarray(t)
        t.flags.writeable = False
        return t

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


@cache
def _ideal_output_spin() -> tuple[float, float]:
    """Spin ket the error-free optimized circuit ends in, computed by running it."""
    out = optimized_cnot(CnotInputs.basis("R", "R"), CavityCoeffs.ideal(), DeviceErrorConfig())
    up, down = (float(out.columns[s, 0, 0, 0]) for s in (0, 1))  # |RR> per spin branch
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
    check failed.  ``ensemble`` is the kind of the ensemble averaged over.
    """

    f_up: float
    f_down: float
    f_both: float
    success_up: float
    success_down: float
    ensemble: str
    status: str | tuple[str, ...] = "ok"

    @property
    def f_up_folded(self) -> float:
        return self.f_up / 2

    @property
    def f_down_folded(self) -> float:
        return self.f_down / 2


def average_fidelity(
    circuit: str | np.ndarray,
    cavity: CavityParams | CavityCoeffs,
    err: DeviceErrorConfig,
    ensemble: InputEnsemble,
) -> FidelityReport | tuple[FidelityReport, ...]:
    """Arithmetic mean of the per-input fidelities, in ensemble order.

    ``cavity`` and ``err`` are one configuration, or a block of grid
    points: the fields the grid moves hold arrays over its points, ``(m, 1)``
    for axis1 and ``(1, n)`` for axis2 (each entry inside its domain), every
    other field a scalar.
    ``circuit`` is "baseline" or "optimized", or, for a block that holds
    both, an array of those names that broadcasts against its fields (one
    per point): the block runs through ``optimized_cnot`` with the sign fix
    masked to its optimized points.  One configuration whose output fails a
    check raises; a block reports the failure in that point's status and
    leaves its values nan.

    A union ensemble (see :meth:`InputEnsemble.union`) runs all its inputs
    in one circuit run and gives one report per part, in order: each part
    is reduced over its own inputs, so its values and statuses are the ones
    it gives alone at the same points.
    """
    if not ensemble.states:
        raise ValueError("empty input ensemble")
    if isinstance(circuit, str):
        if circuit not in ("baseline", "optimized"):
            raise ValueError(f"unknown circuit {circuit!r}")
        run = baseline_cnot if circuit == "baseline" else optimized_cnot
        out = run(ensemble.inputs, cavity, err)
    else:
        circuit = np.asarray(circuit)
        optimized = circuit == "optimized"
        if not np.all(optimized | (circuit == "baseline")):
            raise ValueError(f"unknown circuit in {sorted(set(circuit.ravel().tolist()))}")
        out = optimized_cnot(ensemble.inputs, cavity, err, sign_fix=optimized)
    w2 = np.square(out.weight)  # the optimized circuit's prefactor, per point
    # the fault has every point axis of the config; a field the circuit
    # ignores (switches on the baseline) or that only moves the weight
    # (switches on the optimized circuit) gives the amplitudes no point axis
    fault, weights, amplitude_points = out.fault, out.spin_weights, out.points

    # <CNOT c_i|out_i> per spin branch, part (real, then imaginary if any),
    # input and point, summed over the output amplitudes in order
    overlap = np.einsum("rmi,smip->srip", ensemble.targets, out.amplitudes)
    del out  # the amplitudes are read: free them before the values per input
    up, down = _ideal_output_spin()
    # f_up, f_down, f_both, success_up, success_down: (input, 5, point), so
    # that a mean over the inputs adds them in order at any number of points
    per_input = np.empty(weights.shape[1:2] + (5,) + weights.shape[2:])
    values = per_input.transpose(1, 0, 2)
    both = up * overlap[0]
    both += down * overlap[1]
    np.add.reduce(np.square(both, out=both), axis=0, out=values[2])
    np.add.reduce(np.square(overlap, out=overlap), axis=1, out=values[:2])
    values[:2] *= 2
    values[3:] = weights
    points = fault.shape[:-1]
    # the amplitudes' point axes line up with the config's last ones
    shape = (5,) + (1,) * (len(points) - len(amplitude_points)) + amplitude_points
    reports, start = [], 0
    for part in ensemble.parts or (ensemble,):
        stop = start + len(part.states)
        # the means over the part's inputs in ensemble order, times each point's weight
        mean = np.add.reduce(per_input[start:stop], axis=0) / (stop - start)
        means = w2 * mean.reshape(shape)
        reports.append(_report(means, fault[..., start:stop], circuit, part.kind))
        start = stop
    return tuple(reports) if ensemble.parts else reports[0]


def _report(means: np.ndarray, fault: np.ndarray, circuit: str | np.ndarray,
            kind: str) -> FidelityReport:
    """One ensemble's report from its means and its faults (points..., its inputs)."""
    points = fault.shape[:-1]
    if not fault.any():
        values = means.tolist() if not points else np.broadcast_to(means, (5,) + points)
        status = "ok" if not points else ("ok",) * math.prod(points)
    else:
        # per point, the first input (in ensemble order) that failed a check
        where = np.argmax(fault != 0, axis=-1)
        first = np.take_along_axis(fault, where[..., None], -1)[..., 0]
        if not points:
            raise fault_error(int(first), f"{circuit} circuit, input {int(where)}")
        values = np.where(first == 0, means, math.nan)
        status = tuple(f"error:{FAULTS[f][1]}" if f else "ok" for f in first.ravel().tolist())
    return FidelityReport(*values, ensemble=kind, status=status)
