"""Configuration loading, parameter-grid sweeps, reproduction targets.

Configs are flat ``key = value`` text files (whole-line ``#`` comments); the
keys, their kinds and defaults live in :data:`CONFIG_SCHEMA`, and the range
of a key that sets a component field lives in that component's ``DOMAIN``
(see :data:`COMPONENTS`).  The paper's anchors are written once, as
components; ``_config_values`` reads an anchor back as config values, so
an empty config is the strong-coupling ideal anchor and each grid target
of ``reproduce`` runs one anchor's config.
Sweeps evaluate a two-axis grid in axis1-outer order, one row per point,
and return it as a :class:`~qdcnot.table.GridTable`: its columns, read as
the list of rows.  The grid runs in bounded blocks of valid rows by valid
columns, each one batch against the whole input ensemble with the axis1
values on one array axis and the axis2 values on another; a point that
fails keeps its row and status.  ``run_sweep`` picks the sweep by the
config's axes.  ``write_csv`` (from :mod:`qdcnot.table`)
writes a table, and CSV output is byte-deterministic: same config, same
bytes.

``reproduce`` runs canonical configurations and compares a set of named
reference fidelity anchors for this architecture against the computed
values at their quoted tolerances.  Anchors are checked as blocks too, in
at most two engine calls: every anchor, of either circuit, on the check
ensemble as one block, then those outside tolerance on the union of the
other candidate ensembles.  One anchor (baseline, strong coupling,
all errors at 1e-2) is known not to be reachable by any supported input
ensemble; it is reported with its best-achieving ensemble and residual
instead of a pass, together with the qualitative checks that must hold
regardless (strong coupling far above weak; best case near the cloner
bound; collapse under realistic switches).
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cache, lru_cache
from types import MappingProxyType

import numpy as np

from .cavity import CavityParams, is_strong_coupling
from .circuits import FAULTS, WEIGHT_ONLY, DeviceErrorConfig, fault_error
from .devices import F_UC, ClonerConfig, CpbsError, HwpError, SwitchCoeffs
from .fidelity import InputEnsemble, average_fidelity
from .state import replace_unchecked, stack
from .table import GridTable, _overwrite, write_csv


class ConfigError(ValueError):
    """Invalid configuration key or value."""


# sweep axis -> the config keys one axis value sets
AXIS_KEYS = {
    "kappa_s_over_kappa": ("kappa_s_over_kappa",),
    "g_over_kappa": ("g_over_kappa",),
    "err": ("xi1", "xi2", "tau_r1", "tau_l1", "tau_l2", "tau_l3", "tau_r4"),
    "p_sw": ("sw1_t12", "sw1_r22", "sw2_t12", "sw2_r11"),
}
AXIS_NAMES = tuple(AXIS_KEYS)

# ensemble name -> the fixed ensemble it names, in the order candidates are tried
ENSEMBLES = {
    "basis4": InputEnsemble.basis4,
    "superposition4": InputEnsemble.superposition4,
    "haar_product": InputEnsemble.haar_product,
}
ENSEMBLE_NAMES = ("calibration", *ENSEMBLES)

# component -> (its class, {field: the config key that sets it}) for the
# fields a circuit reads; a field with no key keeps its class default.  The
# photons pass one port of CPBS2-4 (the flipped control-L component CPBS2 and
# CPBS3, the readout R photon CPBS4) and two legs of each switch (the control
# I1->O2 on both, the target I2->O2 on sw1 and I1->O1 on sw2).  "cavity" is
# the CavityParams, every other name a DeviceErrorConfig field
COMPONENTS = {
    "cavity": (CavityParams, {"g": "g_over_kappa", "kappa_s": "kappa_s_over_kappa",
                              "gamma": "gamma_over_kappa"}),
    "xi1": (HwpError, {"xi": "xi1"}),
    "xi2": (HwpError, {"xi": "xi2"}),
    "cpbs1": (CpbsError, {"tau_r": "tau_r1", "tau_l": "tau_l1"}),
    "cpbs2": (CpbsError, {"tau_l": "tau_l2"}),
    "cpbs3": (CpbsError, {"tau_l": "tau_l3"}),
    "cpbs4": (CpbsError, {"tau_r": "tau_r4"}),
    "sw1": (SwitchCoeffs, {"t12": "sw1_t12", "r22": "sw1_r22"}),
    "sw2": (SwitchCoeffs, {"t12": "sw2_t12", "r11": "sw2_r11"}),
    "cloner": (ClonerConfig, {"fidelity": "cloner_fidelity"}),
}


# a reference value the paper quotes at one point of one figure (arXiv
# 1811.06044), with the circuit and components that point stands for
@dataclass(frozen=True)
class Anchor:
    name: str
    expected: float          # fidelity, not percent
    tolerance: float         # absolute, same units
    circuit: str
    cavity: CavityParams
    errors: DeviceErrorConfig
    documented_residual: bool = False  # expected to miss; report, don't fail

    def __hash__(self):  # equal anchors share a name, which hashes far faster than every field
        return hash(self.name)

    @property
    def metric(self) -> str:
        """What the anchor reads: the better branch of the baseline ("best_branch"),
        the optimized circuit's whole output ("both")."""
        return "best_branch" if self.circuit == "baseline" else "both"


_STRONG = CavityParams(g=2.5, kappa_s=0.05, gamma=0.1)
_WEAK = CavityParams(g=0.45, kappa_s=1.0, gamma=0.1)
_SW1_MEASURED = SwitchCoeffs(t12=0.899, r22=0.65)
_SW2_MEASURED = SwitchCoeffs(t12=0.956, r11=0.648)

ANCHOR_STRONG_IDEAL = Anchor(
    "baseline_strong_ideal", 0.9374, 0.010, "baseline", _STRONG, DeviceErrorConfig())
ANCHOR_WEAK_IDEAL = Anchor(
    "baseline_weak_ideal", 0.3234, 0.010, "baseline", _WEAK, DeviceErrorConfig())
# With every error pinned at 1e-2 this model family lands ~2 points above
# the quoted value under every supported ensemble; reported as a residual.
ANCHOR_STRONG_ERR = Anchor(
    "baseline_strong_err1e-2", 0.8789, 0.015, "baseline", _STRONG,
    DeviceErrorConfig.uniform(1e-2), documented_residual=True)
ANCHOR_WEAK_ERR = Anchor(
    "baseline_weak_err1e-2", 0.3002, 0.015, "baseline", _WEAK, DeviceErrorConfig.uniform(1e-2))
ANCHOR_MEASURED_SWITCHES = Anchor(
    "optimized_measured_switches", 0.2627, 0.015, "optimized", _STRONG,
    DeviceErrorConfig.uniform(
        1e-2, sw1=_SW1_MEASURED, sw2=_SW2_MEASURED, cloner=ClonerConfig(0.82)))
ANCHOR_BEST_CASE = Anchor(
    "optimized_best_case", 0.78, 0.010, "optimized", _STRONG,
    DeviceErrorConfig.uniform(1e-4, cloner=ClonerConfig(F_UC)))

ANCHORS: tuple[Anchor, ...] = (
    ANCHOR_STRONG_IDEAL,
    ANCHOR_WEAK_IDEAL,
    ANCHOR_STRONG_ERR,
    ANCHOR_WEAK_ERR,
    ANCHOR_MEASURED_SWITCHES,
    ANCHOR_BEST_CASE,
)
# the anchors the qualitative claims read, in the order they read them
_CLAIM_ANCHORS = (ANCHOR_STRONG_IDEAL, ANCHOR_WEAK_IDEAL, ANCHOR_BEST_CASE,
                  ANCHOR_MEASURED_SWITCHES)


def _config_values(anchor: Anchor) -> dict:
    """The config values that give ``anchor``'s circuit and components: the
    inverse of :data:`COMPONENTS`, in its order."""
    parts = {"cavity": anchor.cavity, **vars(anchor.errors)}
    return {"circuit": anchor.circuit, **{key: getattr(parts[name], field)
                                          for name, (_, keys) in COMPONENTS.items()
                                          for field, key in keys.items()}}


# key -> (kind, default), then a choice key's allowed values; the range of a
# key that sets a component field is that class's DOMAIN (see _KEY_DOMAINS).
# An empty config is the strong-coupling ideal anchor
CONFIG_SCHEMA = {
    **{key: ("choice", value, ("baseline", "optimized")) if key == "circuit"
       else ("float", value) for key, value in _config_values(ANCHOR_STRONG_IDEAL).items()},
    "ensemble": ("choice", "calibration", ENSEMBLE_NAMES),
    "axis1": ("choice", "kappa_s_over_kappa", AXIS_NAMES),
    "axis1_lo": ("float", 0.0),
    "axis1_hi": ("float", 2.0),
    "axis1_points": ("int", 41),
    "axis1_scale": ("choice", "linear", ("linear", "log")),
    "axis2": ("choice", "g_over_kappa", AXIS_NAMES),
    "axis2_lo": ("float", 0.0),
    "axis2_hi": ("float", 3.0),
    "axis2_points": ("int", 61),
    "axis2_scale": ("choice", "linear", ("linear", "log")),
    "out": ("str", ""),
}
# config key -> (test, rule): the DOMAIN entry of the component field it sets
_KEY_DOMAINS = {key: cls.DOMAIN[field] for cls, keys in COMPONENTS.values()
                for field, key in keys.items()}
# DeviceErrorConfig's fields, read once: fields() builds a tuple from a
# generator on every call.  Tuples here are built from lists, and calls
# unpack lists: a tuple of a list is sized up front, while tuple() of a
# generator (and f(*generator)) shrinks an oversized one, and each call would
# park one more in CPython's tuple free lists until they fill (~0.5 MB of
# peak RSS)
_ERROR_PARTS = [f.name for f in fields(DeviceErrorConfig)]


@dataclass(frozen=True)
class SimConfig:
    values: dict

    def _component(self, name: str):
        """One validated component (see :data:`COMPONENTS`)."""
        cls, keys = COMPONENTS[name]
        return cls(**{field: self.values[key] for field, key in keys.items()})

    def cavity(self) -> CavityParams:
        return self._component("cavity")

    def device_errors(self) -> DeviceErrorConfig:
        return DeviceErrorConfig(**{name: self._component(name) for name in _ERROR_PARTS})

    def input_ensemble(self) -> InputEnsemble:
        return resolve_ensemble(self.values["ensemble"])


# config kind -> (the Python types a value of that kind may have, their name);
# a bool is an int to Python, but no key takes one
_KIND_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "choice": (str, "a string"),
    "str": (str, "a string"),
}


def _check_value(key: str, value):
    """Validate one typed value by its key's kind, choices or domain; returns it unchanged."""
    kind = CONFIG_SCHEMA[key][0]
    types, expected = _KIND_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key {key!r}: expected {expected}, got {value!r}")
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: must be finite, got {value!r}")
    if kind == "choice":
        if value not in (allowed := CONFIG_SCHEMA[key][2]):
            raise ConfigError(
                f"config key {key!r}: must be one of {'|'.join(allowed)}, got {value!r}")
    elif key in _KEY_DOMAINS:
        test, rule = _KEY_DOMAINS[key]
        if not test(value):
            raise ConfigError(f"config key {key!r}: {rule}, got {value!r}")
    return value


def _parse_value(key: str, raw: str):
    kind = CONFIG_SCHEMA[key][0]
    try:
        value = {"float": float, "int": int}.get(kind, str)(raw)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: expected {_KIND_TYPES[kind][1]}, got {raw!r}") from None
    return _check_value(key, value)


def _config(values: dict) -> SimConfig:
    """``values`` as a config, once each axis has lo < hi, >= 2 points, and lo > 0 if log."""
    for axis in ("axis1", "axis2"):
        lo, hi, n = values[axis + "_lo"], values[axis + "_hi"], values[axis + "_points"]
        if not lo < hi:
            raise ConfigError(f"{axis}: lo must be < hi, got [{lo}, {hi}]")
        if n < 2:
            raise ConfigError(f"config key '{axis}_points': must be >= 2, got {n}")
        if values[axis + "_scale"] == "log" and lo <= 0:
            raise ConfigError(f"{axis}: log scale requires lo > 0, got {lo}")
    return SimConfig(values)


def parse_config_text(text: str) -> SimConfig:
    values = {k: entry[1] for k, entry in CONFIG_SCHEMA.items()}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in seen:
            raise ConfigError(
                f"repeated config key {key!r} (line {lineno}; first set on line {seen[key]})"
            )
        seen[key] = lineno
        if "#" in raw:
            raise ConfigError(f"config key {key!r} (line {lineno}): a value may not hold '#'; "
                              f"comments go on their own line, got {raw!r}")
        values[key] = _parse_value(key, raw)
    return _config(values)


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        return parse_config_text(fh.read())


@cache
def calibrate_ensemble() -> InputEnsemble:
    """Pick the ensemble that reproduces the two zero-error anchors best.

    Candidates are the four-basis-state set, the four balanced
    superpositions, and the exact uniform product average; the winner is
    the one minimizing the worst residual against the strong/weak coupling
    reference values, the first such candidate on a tie.  One engine call
    on the candidates' union; chosen once per process.
    """
    anchors = (ANCHOR_STRONG_IDEAL, ANCHOR_WEAK_IDEAL)
    candidates = [make() for make in ENSEMBLES.values()]
    values = _anchor_values(anchors, InputEnsemble.union(*candidates))
    return min(candidates, key=lambda ens: max([
        abs(values[anchor, ens.kind] - anchor.expected) for anchor in anchors]))


def resolve_ensemble(name: str) -> InputEnsemble:
    if name == "calibration":
        return calibrate_ensemble()
    if name in ENSEMBLES:
        return ENSEMBLES[name]()
    raise ConfigError(f"unknown ensemble {name!r}")


# ---------------------------------------------------------------------------
# grid sweeps


# A grid block is sized by the bytes one input's output takes per amplitude
# point: 2 spins x 4 photon pairs x 8 bytes, twice that for a complex ensemble,
# which runs as real and imaginary parts.  A block spans at most BLOCK_BYTES of
# them (704 amplitude points on a real ensemble, 352 on a complex one) and at
# most a third of those values of each axis: an axis that sets only WEIGHT_ONLY
# components adds no amplitude point, but every point of a block holds its own
# values and status.  The number of inputs is left out: haar_product's 36 run
# fastest per point in blocks of about 180-370 points.  By tracemalloc, the
# first fig3a block peaks at 486 kB on basis4 (11 x 61 points; 12 x 61 would
# take 507 kB) and at 2.35 MB on haar_product (5 x 61).
BLOCK_BYTES = 44 * 1024


@cache
def _axis_fields(axis: str) -> Mapping[str, tuple[str, ...]]:
    """Component name -> the names of the fields one value of ``axis`` sets.

    Built once per axis, and read-only: every caller gets the same mapping.
    """
    keys = AXIS_KEYS[axis]
    moved = {name: tuple([field for field, key in component_keys.items() if key in keys])
             for name, (_, component_keys) in COMPONENTS.items()}
    return MappingProxyType({name: names for name, names in moved.items() if names})


def _in_domain(axis: str, values: np.ndarray) -> np.ndarray:
    """Per value of ``axis``: does each component field it sets accept it (see ``DOMAIN``)."""
    return np.logical_and.reduce([_KEY_DOMAINS[key][0](values) for key in AXIS_KEYS[axis]])


def _block_steps(axes: tuple[str, str], lengths: tuple[int, int],
                 ensemble: InputEnsemble) -> tuple[int, int]:
    """(rows, columns) of one block on ``ensemble`` (see :data:`BLOCK_BYTES`);
    if both axes move amplitudes, as many rows as fit."""
    points = BLOCK_BYTES // (2 * 4 * 8 * ensemble.inputs.real_coefficients.shape[-2])
    moves = [not _axis_fields(axis).keys() <= WEIGHT_ONLY for axis in axes]
    share = points // 3
    columns = min(lengths[1], share)
    return min(lengths[0], share, points // columns if all(moves) else share), columns


def _axis_values(v: dict, axis: str) -> list[float]:
    """The grid values of ``axis`` ("axis1" or "axis2") in a config's values ``v``."""
    lo, hi, n = v[axis + "_lo"], v[axis + "_hi"], v[axis + "_points"]
    if v[axis + "_scale"] == "log":
        return [float(x) for x in np.logspace(math.log10(lo), math.log10(hi), n)]
    return [float(x) for x in np.linspace(lo, hi, n)]


def _run_grid(cfg: SimConfig) -> GridTable:
    """The grid's table on the config's ensemble, evaluated in blocks of
    points: header axis1, axis2, f_up, f_down, f_both, status; each axis's
    values once, one value and status per point in axis1-outer order.

    A point outside a component's domain keeps its own error row.  Validity
    is per axis value, so the valid points are the valid rows by the valid
    columns; each block of them runs as one config whose fields moved by
    axis1 hold one (m, 1) array of its rows' values and those moved by
    axis2 one (1, n) array of its columns' values (``np.ix_``); every other
    field stays a scalar.
    """
    v = cfg.values
    axes = (v["axis1"], v["axis2"])
    grid_values = (_axis_values(v, "axis1"), _axis_values(v, "axis2"))
    values = [np.array(x) for x in grid_values]
    valid = [np.flatnonzero(_in_domain(axis, x)) for axis, x in zip(axes, values)]
    moved: dict[str, dict[str, int]] = {}  # component -> field -> index of the axis setting it
    for a, axis in enumerate(axes):
        for name, names in _axis_fields(axis).items():
            moved.setdefault(name, {}).update(dict.fromkeys(names, a))
    parts = {"cavity": cfg.cavity(), **vars(cfg.device_errors())}
    ensemble = cfg.input_ensemble()
    f = np.full((3, len(values[0]), len(values[1])), math.nan)
    status = np.array(["error:ValueError"] * f[0].size, dtype=object).reshape(f.shape[1:])
    if all(len(ix) for ix in valid):  # else no point is valid and nothing runs
        steps = _block_steps(axes, (len(valid[0]), len(valid[1])), ensemble)
        # the blocks' list is unpacked, not a generator (see _ERROR_PARTS)
        for block in itertools.product(*[[ix[k:k + step] for k in range(0, len(ix), step)]
                                         for ix, step in zip(valid, steps)]):
            axis_values = np.ix_(values[0][block[0]], values[1][block[1]])
            run = {**parts, **{name: replace_unchecked(parts[name], **{
                field: axis_values[a] for field, a in slots.items()})
                for name, slots in moved.items()}}
            cavity = run.pop("cavity")
            report = average_fidelity(v["circuit"], cavity, DeviceErrorConfig(**run), ensemble)
            rows, columns = np.ix_(*block)
            f[:, rows, columns] = report.f_up, report.f_down, report.f_both
            status[rows, columns] = np.reshape(np.array(report.status, dtype=object),
                                               (len(block[0]), -1))
            del report  # read: not held through the next block's engine peak
    return GridTable((*axes, "f_up", "f_down", "f_both", "status"), grid_values,
                     tuple(f.reshape(3, -1).tolist()), status.ravel().tolist())


def sweep_coupling(cfg: SimConfig) -> GridTable:
    """Fidelity surface over the two normalized cavity-coupling axes.

    The baseline circuit's table holds f_up and f_down, the optimized one's f_both.
    """
    axes = {cfg.values["axis1"], cfg.values["axis2"]}
    if axes != {"kappa_s_over_kappa", "g_over_kappa"}:
        raise ConfigError(
            f"coupling sweep needs axes kappa_s_over_kappa and g_over_kappa, got {sorted(axes)}"
        )
    table = _run_grid(cfg)
    if cfg.values["circuit"] == "baseline":
        return table.without("f_both")
    return table.without("f_up", "f_down")


def sweep_err_psw(cfg: SimConfig) -> GridTable:
    """Optimized-circuit fidelity over (uniform error, switch probability): f_both.

    The error axis sets every wave-plate and CPBS error the circuits read to
    the axis value; the switch axis sets the four routed-leg coefficients;
    the cloner is pinned to the universal optimum and the cavity must be
    strongly coupled.
    """
    if cfg.values["circuit"] != "optimized":
        raise ConfigError("err/p_sw sweep requires circuit = optimized")
    axes = {cfg.values["axis1"], cfg.values["axis2"]}
    if axes != {"err", "p_sw"}:
        raise ConfigError(f"err/p_sw sweep needs axes err and p_sw, got {sorted(axes)}")
    if not is_strong_coupling(cfg.cavity()):
        raise ConfigError("err/p_sw sweep requires a strong-coupling cavity")
    if (cloner := cfg.values["cloner_fidelity"]) not in (CONFIG_SCHEMA["cloner_fidelity"][1], F_UC):
        raise ConfigError(f"err/p_sw sweep pins cloner_fidelity to 5/6, got {cloner!r}")
    pinned = SimConfig({**cfg.values, "cloner_fidelity": F_UC})
    return _run_grid(pinned).without("f_up", "f_down")


def run_sweep(cfg: SimConfig) -> GridTable:
    """The config's grid: :func:`sweep_coupling` on the kappa_s_over_kappa and
    g_over_kappa axes, :func:`sweep_err_psw` on the err and p_sw axes; any
    other pair is rejected."""
    axes = {cfg.values["axis1"], cfg.values["axis2"]}
    if axes == {"kappa_s_over_kappa", "g_over_kappa"}:
        return sweep_coupling(cfg)
    if axes == {"err", "p_sw"}:
        return sweep_err_psw(cfg)
    raise ConfigError(f"sweep axes must be kappa_s_over_kappa and g_over_kappa, or err and "
                      f"p_sw, got {sorted(axes)}")


# ---------------------------------------------------------------------------
# reproduction targets


# an anchor block's point status, or the error one config raises, -> the
# code of the output check it failed
_FAULT_CODES = {f"error:{name}": code for code, (_, name, _) in FAULTS.items()}
_FAULT_KINDS = {kind: code for code, (kind, _, _) in FAULTS.items()}


@lru_cache(maxsize=32)
def _anchor_block(group: tuple[Anchor, ...]
                  ) -> tuple[str | np.ndarray, CavityParams, DeviceErrorConfig]:
    """The anchors' circuit, cavity and errors as one block, built once per process.

    A field that differs between them, the circuit's name included, holds a
    (k,) array over the anchors; one they share stays a scalar.  So the
    anchors of one circuit run that circuit alone, and a lone anchor is its
    own config.
    """
    return stack([(a.circuit, a.cavity, a.errors) for a in group], shared=True)


def _anchor_values(anchors: Sequence[Anchor], ensemble: InputEnsemble
                   ) -> dict[tuple[Anchor, str], float]:
    """Each anchor's metric on each part of ``ensemble`` (the ensemble itself
    if it is not a union), keyed by (anchor, part kind): one engine call for
    all of them, whatever their circuits.  Two anchors that share a name but
    not their fields are two keys.

    The first point of the block that fails an output check, part by part
    and then anchor by anchor in block order, raises the error one config
    failing it raises, naming the anchor.  A lone anchor (or anchors that
    share every field) is one config, which raises in the engine: the same
    error, naming the (first) anchor.
    """
    group = tuple(anchors)
    try:
        reports = average_fidelity(*_anchor_block(group), ensemble)
    except tuple(_FAULT_KINDS) as fault:
        raise fault_error(_FAULT_KINDS[type(fault)], f"anchor {group[0].name}") from fault
    values: dict[tuple[Anchor, str], float] = {}
    for report in reports if ensemble.parts else (reports,):
        if isinstance(report.status, str):  # one config: the anchors share every field
            rows = [(report.f_up, report.f_down, report.f_both, report.status)] * len(group)
        else:
            rows = zip(report.f_up.tolist(), report.f_down.tolist(), report.f_both.tolist(),
                       report.status)
        for anchor, (up, down, both, status) in zip(group, rows):
            if status != "ok":
                raise fault_error(_FAULT_CODES[status], f"anchor {anchor.name}")
            values[anchor, report.ensemble] = both if anchor.metric == "both" else max(up, down)
    return values


@dataclass(frozen=True)
class AnchorResult:
    anchor: Anchor
    value: float
    ensemble: str
    status: str              # "PASS", "DOCUMENTED", "FAIL"
    best_ensemble: str = ""
    best_value: float = float("nan")


def check_anchors(
    ensemble: InputEnsemble, anchors: tuple[Anchor, ...] | None = None
) -> list[AnchorResult]:
    """Each anchor's status on ``ensemble``: PASS within tolerance, else FAIL,
    or DOCUMENTED for a documented residual no candidate ensemble meets.

    At most two engine calls, each one block of the anchors' circuits (see
    :func:`_anchor_values`): every anchor on ``ensemble``, joined by the
    anchors the qualitative claims read when a documented residual is
    requested; then only the anchors outside tolerance, on the union of the
    candidate ensembles other than ``ensemble``.  Each (anchor, ensemble)
    pair is evaluated once per call, and the first point of a call that
    fails an output check raises, naming its anchor.  ``ensemble`` is one
    ensemble, not a union.
    """
    if ensemble.parts:
        raise ValueError(f"anchors are checked on one ensemble, not the union {ensemble.kind!r}")
    if anchors is None:
        anchors = ANCHORS
    if not anchors:
        return []
    block = anchors
    if any(a.documented_residual for a in anchors):
        block = (*anchors, *[a for a in _CLAIM_ANCHORS if a not in anchors])
    values = _anchor_values(block, ensemble)
    checked = [values[a, ensemble.kind] for a in anchors]
    outside = [abs(v - a.expected) > a.tolerance for a, v in zip(anchors, checked)]
    if any(outside):
        others = InputEnsemble.union(*[make() for kind, make in ENSEMBLES.items()
                                       if kind != ensemble.kind])
        values.update(_anchor_values([a for a, miss in zip(anchors, outside) if miss], others))

    results = []
    for anchor, value, miss in zip(anchors, checked, outside):
        if not miss:
            results.append(AnchorResult(anchor, value, ensemble.kind, "PASS"))
            continue
        # outside tolerance: look for any ensemble choice that meets it
        best_name, best_value = ensemble.kind, value
        met = False
        for kind in ENSEMBLES:
            alt_value = values[anchor, kind]
            if abs(alt_value - anchor.expected) < abs(best_value - anchor.expected):
                best_name, best_value = kind, alt_value
            if abs(alt_value - anchor.expected) <= anchor.tolerance:
                met = True
        documented = not met and anchor.documented_residual and _qualitative_claims_hold(
            values, ensemble.kind)
        results.append(AnchorResult(anchor, value, ensemble.kind,
                                    "DOCUMENTED" if documented else "FAIL", best_name, best_value))
    return results


def _qualitative_claims_hold(values: dict[tuple[Anchor, str], float], kind: str) -> bool:
    """Strong >> weak; best case near the cloner bound; realistic collapse."""
    strong, weak, best, realistic = [values[a, kind] for a in _CLAIM_ANCHORS]
    return strong > weak + 0.30 and abs(best - F_UC) < 0.07 and realistic < best / 2


def anchor_summary(results: list[AnchorResult]) -> str:
    lines = []
    for r in results:
        line = (
            f"{r.anchor.name}: expected {r.anchor.expected:.4f} "
            f"+/- {r.anchor.tolerance:.4f}, got {r.value:.6f} "
            f"({r.ensemble}) -> {r.status}"
        )
        if r.status != "PASS":
            line += (
                f" [residual {r.value - r.anchor.expected:+.6f};"
                f" best ensemble {r.best_ensemble} -> {r.best_value:.6f}]"
            )
        lines.append(line)
    return "\n".join(lines) + "\n"


def _config_with(**overrides) -> SimConfig:
    """Schema defaults with ``overrides``, validated as a parsed config is."""
    values = {k: entry[1] for k, entry in CONFIG_SCHEMA.items()}
    for key, value in overrides.items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _check_value(key, value)
    return _config(values)


# reproduce grid target -> (the anchor whose config it runs, the axes it
# sets on top of that config; the anchors its check reads; the value columns
# its CSV drops).  "table_anchors" is the one target with no grid
_GRID_TARGETS = {
    "fig3a": (ANCHOR_STRONG_IDEAL, {}, (ANCHOR_STRONG_IDEAL, ANCHOR_WEAK_IDEAL), ("f_down",)),
    "fig3b": (ANCHOR_STRONG_IDEAL, {}, (ANCHOR_STRONG_IDEAL, ANCHOR_WEAK_IDEAL), ("f_up",)),
    "fig4a": (ANCHOR_MEASURED_SWITCHES, {}, (ANCHOR_MEASURED_SWITCHES,), ()),
    "fig4b": (ANCHOR_BEST_CASE, dict(
        axis1="err", axis1_lo=1e-4, axis1_hi=1e-1, axis1_points=31, axis1_scale="log",
        axis2="p_sw", axis2_lo=0.6, axis2_hi=1.0, axis2_points=41, axis2_scale="linear",
    ), (ANCHOR_BEST_CASE,), ()),
}
_TARGETS = (*_GRID_TARGETS, "table_anchors")


@cache
def _target_config(target: str) -> SimConfig:
    """A grid target's config: its anchor's values, then its axes; built once per process."""
    anchor, axes, _, _ = _GRID_TARGETS[target]
    return _config_with(**_config_values(anchor), **axes)


def reproduce(target: str, out_dir: str) -> dict:
    """Run one named reproduction target; returns {csv, summary, results, ok}."""
    if target not in _TARGETS:
        raise ConfigError(f"unknown reproduce target {target!r}; valid: {', '.join(_TARGETS)}")
    os.makedirs(out_dir, exist_ok=True)
    ensemble = calibrate_ensemble()
    csv_path = os.path.join(out_dir, f"{target}.csv")

    if target == "table_anchors":
        results = check_anchors(ensemble)
        write_csv([["name", "circuit", "metric", "expected", "tolerance", "value",
                    "ensemble", "status"],
                   *[[r.anchor.name, r.anchor.circuit, r.anchor.metric, r.anchor.expected,
                      r.anchor.tolerance, r.value, r.ensemble, r.status] for r in results]],
                  csv_path)
    else:  # the grid's CSV first, then its anchors
        table = run_sweep(_target_config(target))
        _, _, anchors, drops = _GRID_TARGETS[target]
        write_csv(table.without(*drops) if drops else table, csv_path)
        results = check_anchors(ensemble, anchors)

    summary = anchor_summary(results)
    summary_path = os.path.join(out_dir, f"{target}_summary.txt")
    with _overwrite(summary_path) as fh:
        fh.write(summary)
    ok = all(r.status in ("PASS", "DOCUMENTED") for r in results)
    return {"csv": csv_path, "summary": summary, "summary_path": summary_path,
            "results": results, "ok": ok}
