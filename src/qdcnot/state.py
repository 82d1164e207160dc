"""Sparse complex-amplitude states over named tensor factors.

A :class:`JointState` holds unnormalized amplitudes indexed by tuples of
per-factor values (e.g. photon polarizations, a propagation direction, a
spin branch), plus a scalar ``weight`` that accumulates success-amplitude
prefactors picked up along a circuit (switch transmittances, cloner
fidelity).  The factor set is not fixed: circuit stages may introduce a
factor (a photon entering the cavity acquires a direction) or remove one
(the two counter-propagating rails recombine into a single output port),
so states are compared structurally by their sorted factor names.

All operations are pure functions; nothing here renormalizes.  Device maps
are applied as given, including non-unitary ones, and lost amplitude stays
lost so downstream fidelity calculations see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

PRUNE_TOL = 1e-15

Label = tuple[str, ...]
ModeSelector = Union[str, Sequence[str]]
# One tensor-factor map: in-label -> [(out-label, amplitude), ...]
ModeMap = Mapping[object, Sequence[tuple[object, complex]]]


@dataclass(frozen=True)
class JointState:
    """Unnormalized amplitudes over a labeled tensor basis.

    ``factors`` is always sorted; ``entries`` maps value tuples (aligned
    with ``factors``) to complex amplitudes.  Treat instances as immutable:
    every operation returns a new state.
    """

    factors: tuple[str, ...]
    entries: dict[Label, complex] = field(default_factory=dict)
    weight: float = 1.0

    def amplitude(self, label: Sequence[str]) -> complex:
        return self.entries.get(tuple(label), 0j)

    def norm_sq(self) -> float:
        """Squared norm including the global weight."""
        return self.weight * self.weight * sum(
            (a * a.conjugate()).real for a in self.entries.values()
        )

    def __len__(self) -> int:
        return len(self.entries)


def _as_names(mode: ModeSelector) -> tuple[str, ...]:
    if isinstance(mode, str):
        return (mode,)
    return tuple(mode)


def _as_values(value, arity: int) -> tuple[str, ...]:
    vals = (value,) if isinstance(value, str) else tuple(value)
    if len(vals) != arity:
        raise ValueError(f"label {value!r} has arity {len(vals)}, expected {arity}")
    return vals


def _checked(entries: dict[Label, complex]) -> dict[Label, complex]:
    for label, amp in entries.items():
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"non-finite amplitude at {label!r}: {amp!r}")
    return entries


def _canonical(factors: Sequence[str], entries: dict[Label, complex], weight: float) -> JointState:
    _checked(entries)  # before pruning: abs() comparisons silently drop NaN
    order = tuple(sorted(factors))
    if order != tuple(factors):
        perm = [list(factors).index(f) for f in order]
        entries = {tuple(lbl[i] for i in perm): amp for lbl, amp in entries.items()}
    pruned = {lbl: amp for lbl, amp in sorted(entries.items()) if abs(amp) > PRUNE_TOL}
    return JointState(order, pruned, weight)


def make_state(
    factors: ModeSelector,
    assignments: Iterable[tuple[object, complex]],
    weight: float = 1.0,
) -> JointState:
    """Build a state from explicit (label, amplitude) assignments.

    Labels must be distinct; a repeated label is rejected rather than
    summed, since duplicates in an explicit preparation are a caller bug.
    """
    names = _as_names(factors)
    entries: dict[Label, complex] = {}
    for value, amp in assignments:
        label = _as_values(value, len(names))
        if label in entries:
            raise ValueError(f"duplicate basis label {label!r}")
        entries[label] = complex(amp)
    return _canonical(names, entries, weight)


def tensor(a: JointState, b: JointState) -> JointState:
    """Tensor product; factor names must be disjoint.  Weights multiply."""
    overlap = set(a.factors) & set(b.factors)
    if overlap:
        raise ValueError(f"tensor factors overlap: {sorted(overlap)}")
    entries: dict[Label, complex] = {}
    for la, va in a.entries.items():
        for lb, vb in b.entries.items():
            entries[la + lb] = va * vb
    return _canonical(a.factors + b.factors, entries, a.weight * b.weight)


def apply_mode_map(
    state: JointState,
    mode: ModeSelector,
    rules: ModeMap,
    out_mode: ModeSelector | None = None,
) -> JointState:
    """Apply a linear map to one (possibly composite) tensor factor.

    ``rules`` must cover every in-label present in the state on ``mode``.
    Amplitudes landing on the same out-label add coherently.  ``out_mode``
    lets a map change the factor set, e.g. splitting a polarization factor
    into (polarization, direction) or merging it back.  Non-unitary rules
    are applied as given; callers own any norm bounds.
    """
    in_names = _as_names(mode)
    out_names = in_names if out_mode is None else _as_names(out_mode)
    for name in in_names:
        if name not in state.factors:
            raise ValueError(f"state has no factor {name!r}")
    keep = [f for f in state.factors if f not in in_names]
    clash = set(keep) & set(out_names)
    if clash:
        raise ValueError(f"output factors already present: {sorted(clash)}")

    norm_rules: dict[Label, list[tuple[Label, complex]]] = {}
    for key, images in rules.items():
        norm_rules[_as_values(key, len(in_names))] = [
            (_as_values(out, len(out_names)), complex(amp)) for out, amp in images
        ]

    in_idx = [state.factors.index(n) for n in in_names]
    keep_idx = [state.factors.index(n) for n in keep]
    new_factors = tuple(keep) + out_names
    acc: dict[Label, complex] = {}
    for label in sorted(state.entries):
        amp = state.entries[label]
        key = tuple(label[i] for i in in_idx)
        images = norm_rules.get(key)
        if images is None:
            raise ValueError(f"mode map on {in_names} does not cover in-label {key!r}")
        kept = tuple(label[i] for i in keep_idx)
        for out_vals, coeff in images:
            out_label = kept + out_vals
            acc[out_label] = acc.get(out_label, 0j) + amp * coeff
    return _canonical(new_factors, acc, state.weight)


def project_spin(
    state: JointState, branch: str, factor: str = "spin"
) -> tuple[JointState, float]:
    """Project onto one spin branch without renormalizing.

    Returns the branch state (spin factor removed, amplitudes untouched)
    and its squared-norm weight including the global weight, so the two
    branch weights sum to the total squared norm.
    """
    if factor not in state.factors:
        raise ValueError(f"state has no factor {factor!r}")
    idx = state.factors.index(factor)
    rest = tuple(f for f in state.factors if f != factor)
    entries = {
        lbl[:idx] + lbl[idx + 1 :]: amp
        for lbl, amp in state.entries.items()
        if lbl[idx] == branch
    }
    branch_state = _canonical(rest, entries, state.weight)
    return branch_state, branch_state.norm_sq()


def inner_product(a: JointState, b: JointState) -> complex:
    """<a|b>, conjugate-linear in ``a``, including both global weights."""
    if a.factors != b.factors:
        raise ValueError(f"factor structures differ: {a.factors} vs {b.factors}")
    small, big = (a.entries, b.entries) if len(a) <= len(b) else (b.entries, a.entries)
    total = 0j
    for lbl in small:
        if lbl in big:
            total += a.entries[lbl].conjugate() * b.entries[lbl]
    return total * a.weight * b.weight


def with_weight(state: JointState, weight: float) -> JointState:
    return JointState(state.factors, dict(state.entries), weight)
