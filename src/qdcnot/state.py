"""Dense batched complex-amplitude states over named qubit factors.

A :class:`JointState` holds one complex array: leading batch axes (for a
block of grid points, its rows, its columns and then the inputs of the
ensemble, an axis no amplitude moves along kept at length 1; none for a
single run), then one size-2 axis per named tensor factor, with the
factor names kept sorted.  A scalar or batched ``weight``
accumulates the success-amplitude prefactors picked up along a circuit
(switch transmittances, cloner fidelity).

The circuits build no such state: they run the photon basis on plain
arrays (see ``circuits.CircuitOutput``).  The labeled kit serves the tests
and the benchmark's span table; the package itself reads only the config
helpers :func:`check_domain`, :func:`replace_unchecked` and :func:`stack`.

Every factor is a qubit whose basis values follow from its name:
``spin`` is (up, down), any other is a polarization (R, L).  Stage maps
are square (batched) matrices on one or more factors, indexed by the
binary number their labels spell in the order the factors are named, the
first factor most significant.

All operations are pure functions; nothing here renormalizes.  Maps are
applied as given, including non-unitary ones, and lost amplitude stays
lost so downstream fidelity calculations see it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

PRUNE_TOL = 1e-15

Label = tuple[str, ...]
ModeSelector = Union[str, Sequence[str]]

_POLARIZATION = ("R", "L")
_SPIN = ("up", "down")


def _basis(factor: str) -> tuple[str, str]:
    """Value names of a factor, by basis index: spin or polarization."""
    return _SPIN if factor == "spin" else _POLARIZATION


@dataclass(frozen=True)
class JointState:
    """Unnormalized amplitudes over a batch of labeled tensor bases.

    ``amps`` has shape ``batch + (2,) * len(factors)``; ``factors`` is
    always sorted.  ``fault`` is 0, or per batch element the code of the
    output check that element failed (see ``circuits.FAULTS``).  Treat
    instances as immutable: every operation returns a new state.
    """

    factors: tuple[str, ...]
    amps: np.ndarray
    weight: float | np.ndarray = 1.0
    fault: int | np.ndarray = 0

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.amps.shape[: self.amps.ndim - len(self.factors)]

    def _index(self, label: Sequence[str]) -> tuple:
        label = _as_values(label, len(self.factors))
        return (Ellipsis,) + tuple(
            _value_index(f, v) for f, v in zip(self.factors, label)
        )

    def amplitude(self, label: Sequence[str]):
        """Amplitude at ``label`` (per batch element); |amp| <= PRUNE_TOL reads as 0."""
        amp = self.amps[self._index(label)]
        amp = np.where(np.abs(amp) > PRUNE_TOL, amp, 0j)
        return complex(amp) if amp.ndim == 0 else amp

    @property
    def entries(self) -> dict[Label, complex]:
        """Label -> amplitude of a single run, without |amp| <= PRUNE_TOL."""
        if self.batch_shape:
            raise ValueError(f"entries of a batched state (batch {self.batch_shape})")
        names = [_basis(f) for f in self.factors]
        return {
            tuple(n[i] for n, i in zip(names, idx)): complex(amp)
            for idx, amp in np.ndenumerate(self.amps)
            if abs(amp) > PRUNE_TOL
        }

    def norm_sq(self):
        """Squared norm including the global weight, per batch element."""
        axes = tuple(range(-len(self.factors), 0))
        amps = self.amps
        return self.weight * self.weight * np.sum(amps.real**2 + amps.imag**2, axis=axes)

    def __len__(self) -> int:
        """Number of amplitudes above PRUNE_TOL, over the whole batch."""
        return int(np.count_nonzero(np.abs(self.amps) > PRUNE_TOL))


def _as_names(mode: ModeSelector) -> tuple[str, ...]:
    if isinstance(mode, str):
        return (mode,)
    return tuple(mode)


def _as_values(value, arity: int) -> tuple[str, ...]:
    vals = (value,) if isinstance(value, str) else tuple(value)
    if len(vals) != arity:
        raise ValueError(f"label {value!r} has arity {len(vals)}, expected {arity}")
    return vals


def _value_index(factor: str, value: str) -> int:
    names = _basis(factor)
    if value not in names:
        raise ValueError(f"factor {factor!r} has no value {value!r}; expected one of {names}")
    return names.index(value)


def _sorted(factors: Sequence[str], amps: np.ndarray, **fields) -> JointState:
    """State with its factor axes permuted into sorted name order."""
    order = sorted(range(len(factors)), key=factors.__getitem__)
    nb = amps.ndim - len(factors)
    if order != list(range(len(factors))):
        amps = amps.transpose(tuple(range(nb)) + tuple(nb + i for i in order))
    return JointState(tuple(factors[i] for i in order), amps, **fields)


def replace_unchecked(item, **changes):
    """Copy of a frozen dataclass with ``changes`` applied, without its checks.

    A batched copy holds arrays whose entries the caller checked already
    (a grid checks its axis values as arrays).  Only the dataclass fields
    are copied, never a cached property of ``item``.
    """
    out = object.__new__(type(item))
    vars(out).update({name: changes.get(name, getattr(item, name))
                      for name in _field_names(type(item))})
    return out


def check_domain(item) -> None:
    """Raise a ValueError naming the first field of ``item`` outside its domain.

    A component class declares ``DOMAIN``: field -> (a test that holds for
    each value inside the field's domain, scalar or array; the rule the
    error states).  A grid reads the same tests as per-point masks.
    """
    for name, (test, rule) in type(item).DOMAIN.items():
        value = getattr(item, name)
        if not np.all(test(value)):
            raise ValueError(f"{rule}, got {value}")


@lru_cache(maxsize=None)
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def stack(items: Sequence, *, shared: bool = False):
    """One value whose leaves hold arrays over ``items``, one entry per item.

    Dataclasses are stacked field by field and tuples entry by entry, so a
    list of inputs becomes one batched input.  Each item was validated when
    it was built, so the stacked copy is not validated again.  With
    ``shared`` (items of scalar leaves), a part equal in every item stays
    the first item's own.
    """
    first = items[0]
    if shared and all(item == first for item in items):
        return first
    if dataclasses.is_dataclass(first):
        return replace_unchecked(first, **{
            f.name: stack([getattr(item, f.name) for item in items], shared=shared)
            for f in dataclasses.fields(first)
        })
    if isinstance(first, tuple):
        return tuple(stack(list(column), shared=shared) for column in zip(*items))
    return np.array(items)


def make_state(
    factors: ModeSelector,
    assignments: Iterable[tuple[object, complex]],
    weight: float = 1.0,
) -> JointState:
    """Build a state from explicit (label, amplitude) assignments.

    An amplitude may be an array, which makes the state batched.  Labels
    must be distinct; a repeated label is rejected rather than summed,
    since duplicates in an explicit preparation are a caller bug.
    """
    names = _as_names(factors)
    indexed: dict[tuple[int, ...], np.ndarray] = {}
    for value, amp in assignments:
        label = _as_values(value, len(names))
        idx = tuple(_value_index(f, v) for f, v in zip(names, label))
        if idx in indexed:
            raise ValueError(f"duplicate basis label {label!r}")
        amp = np.asarray(amp, dtype=complex)
        if not np.all(np.isfinite(amp)):
            raise ValueError(f"non-finite amplitude at {label!r}: {amp!r}")
        indexed[idx] = amp
    batch = np.broadcast_shapes(*(a.shape for a in indexed.values()))
    amps = np.zeros(batch + (2,) * len(names), dtype=complex)
    for idx, amp in indexed.items():
        amps[(Ellipsis,) + idx] = amp
    return _sorted(names, amps, weight=weight)


def tensor(a: JointState, b: JointState) -> JointState:
    """Tensor product; factor names must be disjoint.  Weights multiply."""
    overlap = set(a.factors) & set(b.factors)
    if overlap:
        raise ValueError(f"tensor factors overlap: {sorted(overlap)}")
    ka, kb = len(a.factors), len(b.factors)
    left = a.amps.reshape(a.amps.shape + (1,) * kb)
    right = b.amps.reshape(b.batch_shape + (1,) * ka + (2,) * kb)
    return _sorted(
        a.factors + b.factors, left * right,
        weight=a.weight * b.weight, fault=np.maximum(a.fault, b.fault),
    )


def apply_mode_map(state: JointState, mode: ModeSelector, rules: np.ndarray) -> JointState:
    """Apply a linear map to one (possibly composite) tensor factor.

    ``rules`` is a square (batch..., 2**len(mode), 2**len(mode)) matrix
    whose batch axes broadcast against the state's (a batched ``devices``
    map has its point axes last: move them first).  Non-unitary maps are
    applied as given; callers own any norm bounds.
    """
    names = _as_names(mode)
    for name in names:
        if name not in state.factors:
            raise ValueError(f"state has no factor {name!r}")
    keep = [f for f in state.factors if f not in names]
    rules = np.asarray(rules)
    n = 2 ** len(names)
    if rules.shape[-2:] != (n, n):
        raise ValueError(f"map on {names} must be {n}x{n}, got {rules.shape[-2:]}")

    nb = len(state.batch_shape)
    axes = [nb + state.factors.index(f) for f in keep + list(names)]
    amps = state.amps.transpose(*range(nb), *axes)
    amps = amps.reshape(amps.shape[: nb + len(keep)] + (n,))
    rules = rules.reshape(rules.shape[:-2] + (1,) * len(keep) + (n, n))
    out = np.matmul(rules, amps[..., None])[..., 0]
    out = out.reshape(out.shape[:-1] + (2,) * len(names))
    return _sorted(tuple(keep) + names, out, weight=state.weight, fault=state.fault)


def project_spin(state: JointState, branch: str):
    """Project onto one spin branch without renormalizing.

    Returns the branch state (spin factor removed, amplitudes untouched)
    and its squared-norm weight including the global weight, so the two
    branch weights sum to the total squared norm.
    """
    if "spin" not in state.factors:
        raise ValueError("state has no factor 'spin'")
    axis = len(state.batch_shape) + state.factors.index("spin")
    amps = np.take(state.amps, _value_index("spin", branch), axis=axis)
    rest = tuple(f for f in state.factors if f != "spin")
    branch_state = JointState(rest, amps, state.weight, state.fault)
    return branch_state, branch_state.norm_sq()


def inner_product(a: JointState, b: JointState):
    """<a|b> per batch element, conjugate-linear in ``a``, including both weights."""
    if a.factors != b.factors:
        raise ValueError(f"factor structures differ: {a.factors} vs {b.factors}")
    axes = tuple(range(-len(a.factors), 0))
    total = np.sum(a.amps.conj() * b.amps, axis=axes)
    return total * a.weight * b.weight


def with_weight(state: JointState, weight) -> JointState:
    return dataclasses.replace(state, weight=weight)
