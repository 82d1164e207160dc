import errno
import math
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qdcnot.sweep as sweep_mod
import qdcnot.table as table_mod
from qdcnot.cavity import CavityParams
from qdcnot.circuits import (
    DeviceErrorConfig,
    NonFiniteOutputError,
    OutputNormError,
    config_shapes,
    fault_error,
)
from qdcnot.devices import HwpError
from qdcnot.fidelity import InputEnsemble, average_fidelity
from qdcnot.sweep import (
    ANCHORS,
    ConfigError,
    SimConfig,
    calibrate_ensemble,
    check_anchors,
    parse_config_text,
    reproduce,
    resolve_ensemble,
    sweep_coupling,
    sweep_err_psw,
    write_csv,
    _config_with,
)
from qdcnot.table import CSV_CHUNK_ROWS, GridTable


def small_cfg(**overrides):
    base = dict(
        circuit="baseline", ensemble="basis4",
        axis1="kappa_s_over_kappa", axis1_lo=0.05, axis1_hi=1.0, axis1_points=2,
        axis2="g_over_kappa", axis2_lo=0.45, axis2_hi=2.5, axis2_points=2,
    )
    base.update(overrides)
    return _config_with(**base)


def target_values(target):
    """A copy of a reproduce grid target's config values: its anchor's, then its axes."""
    return dict(sweep_mod._target_config(target).values)


# --- config parsing

def test_minimal_config_gets_defaults():
    cfg = parse_config_text("circuit = baseline\n")
    assert cfg.values["circuit"] == "baseline"
    assert cfg.values["gamma_over_kappa"] == 0.1
    assert cfg.values["ensemble"] == "calibration"


def test_retired_workers_key_rejected():
    # grid rows run as batches in one process; an old config naming the
    # parallel worker count is rejected like any unknown key
    with pytest.raises(ConfigError, match="unknown config key 'workers' \\(line 2\\)"):
        parse_config_text("circuit = baseline\nworkers = 2\n")


def test_retired_haar_keys_rejected():
    # haar_product is the exact uniform product average, with no sample
    # size or seed; an old config naming either is rejected like any unknown key
    for line in ("haar_n = 1000", "seed = 0"):
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"unknown config key '{key}' \\(line 2\\)"):
            parse_config_text(f"ensemble = haar_product\n{line}\n")


# the keys of the CPBS ports and switch legs no photon takes
RETIRED_COMPONENT_KEYS = ("tau_r2", "tau_r3", "tau_l4", "sw1_t21", "sw1_r11", "sw2_t21",
                          "sw2_r22")


def test_every_component_key_moves_an_output():
    # the keys that moved no output are gone: an old config naming one is
    # rejected like any unknown key
    for key in RETIRED_COMPONENT_KEYS:
        with pytest.raises(ConfigError, match=f"unknown config key '{key}' \\(line 2\\)"):
            parse_config_text(f"circuit = optimized\n{key} = 0.5\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'$"):
            _config_with(**{key: 0.5})
    # every error small and nonzero (a default 0 error at 0.01, a default 1
    # coefficient at 0.99), then each key alone one step inside its domain
    defaults = {key: sweep_mod.CONFIG_SCHEMA[key][1] for key in sweep_mod._KEY_DOMAINS}
    base = {key: 0.01 if v == 0.0 else 0.99 if v == 1.0 else v for key, v in defaults.items()}

    def outputs(values):
        cfg = _config_with(ensemble="basis4", **values)
        reports = [average_fidelity(circuit, cfg.cavity(), cfg.device_errors(),
                                    cfg.input_ensemble()) for circuit in ("baseline", "optimized")]
        return [getattr(report, name) for report in reports
                for name in ("f_up", "f_down", "f_both", "success_up", "success_down")]

    before = outputs(base)
    for key, (test, _) in sweep_mod._KEY_DOMAINS.items():
        value = base[key] + 0.01 if test(base[key] + 0.01) else base[key] - 0.01
        assert outputs({**base, key: value}) != before, key


def test_config_with_checks_each_value_kind():
    # parse_config_text converts text by kind before it checks; a value
    # passed in directly must already be of its key's kind, and no key takes a bool
    for overrides, message in (
        (dict(axis1_points=2.5, ensemble="basis4"), "'axis1_points': expected an integer, got 2.5"),
        (dict(axis1_points=True), "'axis1_points': expected an integer, got True"),
        (dict(xi1="0.1"), "'xi1': expected a number, got '0.1'"),
        (dict(xi1=False), "'xi1': expected a number, got False"),
        (dict(out=3), "'out': expected a string, got 3"),
        (dict(circuit=True), "'circuit': expected a string, got True"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"config key {message}")):
            _config_with(**overrides)
    # a float key takes an int as it is
    assert _config_with(xi1=0, axis1_points=3).values["xi1"] == 0


def test_readme_config_block_names_exactly_the_schema_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration files", 1)[1].split("```", 2)[1]
    named = {key.strip() for line in block.splitlines() if "=" in line
             for key in line.partition("=")[0].split(",")}
    assert named == set(sweep_mod.CONFIG_SCHEMA)
    # the schema takes its component defaults from an anchor, so each number
    # the block prints as a default is checked against it
    printed = {}
    for line in block.splitlines():
        keys, _, rest = line.partition("=")
        try:
            number = float(rest.split()[0])
        except (IndexError, ValueError):  # no value, or a choice
            continue
        printed.update({key.strip(): number for key in keys.split(",")})
    assert printed == {key: entry[1] for key, entry in sweep_mod.CONFIG_SCHEMA.items()
                       if entry[0] in ("float", "int")}


def test_readme_targets_table_lists_exactly_the_reproduce_targets():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Reproduction targets", 1)[1].split("\n\n")[1]
    rows = table.splitlines()[2:]  # the header and its rule dropped
    assert [row.split("|")[1].strip().strip("`") for row in rows] == list(sweep_mod._TARGETS)


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text("frobnicate = 3\n")


def test_out_of_range_value_names_key_and_constraint():
    with pytest.raises(ConfigError, match=r"xi1.*\[-1, 1\]"):
        parse_config_text("xi1 = 1.5\n")
    with pytest.raises(ConfigError, match="cloner_fidelity"):
        parse_config_text("cloner_fidelity = 0.2\n")
    with pytest.raises(ConfigError, match="gamma_over_kappa"):
        parse_config_text("gamma_over_kappa = 0\n")


def test_config_accepts_exactly_each_component_domain():
    # the float keys that set a component field are exactly COMPONENTS' keys,
    # so no key's range can come from anywhere but its class's DOMAIN
    component_keys = {key for _, keys in sweep_mod.COMPONENTS.values() for key in keys.values()}
    float_keys = {key for key, entry in sweep_mod.CONFIG_SCHEMA.items()
                  if entry[0] == "float" and not key.startswith("axis")}
    assert float_keys == component_keys == set(sweep_mod._KEY_DOMAINS)
    values = [-1.0, -1e-300, 0.0, 0.5, 1.0, 1 + 2**-52, math.nan, math.inf]
    for cls, keys in sweep_mod.COMPONENTS.values():
        for field, key in keys.items():
            test, _ = cls.DOMAIN[field]
            for value in values:
                if test(value):
                    assert _config_with(**{key: value}).values[key] == value, (key, value)
                else:
                    with pytest.raises(ConfigError, match=f"config key '{key}'"):
                        _config_with(**{key: value})


def test_malformed_line_reports_lineno():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("circuit = baseline\nnot a config line\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# comment\n\ncircuit = optimized\n")
    assert cfg.values["circuit"] == "optimized"


@pytest.mark.parametrize("line", ["out = grid.csv  # where it goes",
                                  "g_over_kappa = 2.5  # strong",
                                  "circuit = optimized # the cloner circuit"])
def test_comment_after_a_value_rejected(line):
    # a trailing comment would become part of a string value (the CSV path)
    key = line.partition(" ")[0]
    with pytest.raises(ConfigError, match=f"config key '{key}' \\(line 2\\): .*"
                                          "comments go on their own line"):
        parse_config_text(f"# a whole-line comment\n{line}\n")


CHOICE_KEYS = ("circuit", "ensemble", "axis1", "axis1_scale", "axis2", "axis2_scale")


@pytest.mark.parametrize("key", CHOICE_KEYS)
def test_choice_outside_its_choices_rejected(key):
    assert {k for k, entry in sweep_mod.CONFIG_SCHEMA.items() if entry[0] == "choice"} == \
        set(CHOICE_KEYS)
    allowed = "|".join(sweep_mod.CONFIG_SCHEMA[key][2])
    with pytest.raises(ConfigError, match=re.escape(
            f"config key {key!r}: must be one of {allowed}, got 'cubic'")):
        parse_config_text(f"{key} = cubic\n")
    with pytest.raises(ConfigError, match=re.escape(f"config key {key!r}: must be one of")):
        _config_with(**{key: "cubic"})


def test_text_of_the_wrong_kind_rejected_naming_key():
    for line, message in (("xi1 = abc", "'xi1': expected a number, got 'abc'"),
                          ("g_over_kappa = 2.5x", "'g_over_kappa': expected a number, got '2.5x'"),
                          ("axis1_points = 3.5", "'axis1_points': expected an integer, got '3.5'"),
                          ("axis2_points = many", "'axis2_points': expected an integer, got 'many'")):
        with pytest.raises(ConfigError, match=re.escape(f"config key {message}")):
            parse_config_text(line + "\n")


def test_non_finite_float_rejected_naming_key():
    for key, raw in (("g_over_kappa", "inf"), ("gamma_over_kappa", "inf"),
                     ("kappa_s_over_kappa", "nan"), ("axis1_hi", "-inf")):
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            parse_config_text(f"{key} = {raw}\n")


def test_repeated_key_rejected_with_lineno():
    with pytest.raises(ConfigError, match=r"repeated config key 'g_over_kappa' \(line 3"):
        parse_config_text("g_over_kappa = 1.0\ncircuit = baseline\ng_over_kappa = 2.5\n")


def test_grid_validation():
    with pytest.raises(ConfigError, match="lo must be"):
        small_cfg(axis1_lo=2.0, axis1_hi=1.0)
    with pytest.raises(ConfigError, match="log scale"):
        small_cfg(axis1_scale="log", axis1_lo=0.0)
    with pytest.raises(ConfigError, match="points"):
        parse_config_text("axis1_points = 1\n")


def test_ensemble_resolution():
    assert resolve_ensemble("basis4").kind == "basis4"
    assert resolve_ensemble("superposition4").kind == "superposition4"
    assert resolve_ensemble("haar_product").kind == "haar_product"
    with pytest.raises(ConfigError):
        resolve_ensemble("nope")


def test_calibration_picks_basis4():
    assert calibrate_ensemble().kind == "basis4"


# --- sweeps

def test_coupling_sweep_shape_and_order():
    table = list(sweep_coupling(small_cfg()))
    assert table[0] == ["kappa_s_over_kappa", "g_over_kappa", "f_up", "f_down", "status"]
    assert len(table) == 5  # header + 2x2 grid
    # axis1-outer ordering
    assert [r[0] for r in table[1:]] == [0.05, 0.05, 1.0, 1.0]
    assert [r[1] for r in table[1:]] == [0.45, 2.5, 0.45, 2.5]
    assert all(r[4] == "ok" for r in table[1:])


def test_coupling_sweep_optimized_emits_combined_column():
    table = list(sweep_coupling(small_cfg(circuit="optimized")))
    assert table[0] == ["kappa_s_over_kappa", "g_over_kappa", "f_both", "status"]


def test_coupling_sweep_hits_anchor_points():
    table = list(sweep_coupling(small_cfg()))
    rows = {(r[0], r[1]): r for r in table[1:]}
    strong = rows[(0.05, 2.5)]
    weak = rows[(1.0, 0.45)]
    assert max(strong[2], strong[3]) == pytest.approx(0.9374, abs=0.010)
    assert max(weak[2], weak[3]) == pytest.approx(0.3234, abs=0.010)


def test_coupling_sweep_requires_cavity_axes():
    with pytest.raises(ConfigError, match="axes"):
        sweep_coupling(small_cfg(axis1="err", axis1_lo=1e-4, axis1_hi=1e-1))


def test_fidelities_stay_in_unit_interval_on_grid():
    cfg = small_cfg(axis1_points=4, axis2_points=4, axis1_lo=0.0, axis1_hi=2.0,
                    axis2_lo=0.0, axis2_hi=3.0, xi1=0.01, xi2=0.01,
                    tau_r1=0.01, tau_l1=0.01)
    for row in list(sweep_coupling(cfg))[1:]:
        assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0


def test_err_psw_sweep_schema_and_endpoints():
    cfg = small_cfg(
        circuit="optimized",
        axis1="err", axis1_lo=1e-4, axis1_hi=1e-1, axis1_points=4, axis1_scale="log",
        axis2="p_sw", axis2_lo=0.6, axis2_hi=1.0, axis2_points=3,
        kappa_s_over_kappa=0.05, g_over_kappa=2.5,
    )
    table = list(sweep_err_psw(cfg))
    assert table[0] == ["err", "p_sw", "f_both", "status"]
    errs = sorted({r[0] for r in table[1:]})
    assert errs[0] == pytest.approx(1e-4) and errs[-1] == pytest.approx(1e-1)
    # log spacing: constant ratio between the four decade points
    ratios = [errs[i + 1] / errs[i] for i in range(3)]
    assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)


def test_err_psw_switch_probability_zero_kills_fidelity():
    cfg = small_cfg(
        circuit="optimized",
        axis1="err", axis1_lo=1e-4, axis1_hi=1e-2, axis1_points=2, axis1_scale="log",
        axis2="p_sw", axis2_lo=0.0, axis2_hi=1.0, axis2_points=2,
        kappa_s_over_kappa=0.05, g_over_kappa=2.5,
    )
    table = list(sweep_err_psw(cfg))
    zero_rows = [r for r in table[1:] if r[1] == 0.0]
    assert zero_rows and all(r[2] == 0.0 for r in zero_rows)


def test_err_psw_requires_optimized_strong_coupling():
    with pytest.raises(ConfigError, match="optimized"):
        sweep_err_psw(small_cfg(axis1="err", axis2="p_sw"))
    with pytest.raises(ConfigError, match=re.escape(
            "err/p_sw sweep needs axes err and p_sw, got ['err', 'g_over_kappa']")):
        sweep_err_psw(small_cfg(circuit="optimized", axis1="err", axis1_lo=1e-4,
                                axis1_hi=1e-1))
    with pytest.raises(ConfigError, match="strong"):
        sweep_err_psw(small_cfg(
            circuit="optimized", axis1="err", axis1_lo=1e-4, axis1_hi=1e-1,
            axis2="p_sw", axis2_lo=0.6, axis2_hi=1.0,
            kappa_s_over_kappa=1.0, g_over_kappa=0.45,
        ))


def test_failed_grid_point_emits_sentinel_row():
    # xi1 = 0.1 lifts the output norm of some superposition inputs above 1;
    # exactly these points of the batched rows fail the norm check
    table = list(sweep_coupling(small_cfg(
        ensemble="superposition4", xi1=0.1, axis1_lo=0.0, axis1_hi=2.0, axis1_points=5,
        axis2_lo=0.0, axis2_hi=3.0, axis2_points=6,
    )))
    assert len(table) == 1 + 5 * 6  # no row dropped
    bad = [r for r in table[1:] if r[4] != "ok"]
    assert [r[0] for r in bad] == [0.0] * 5
    assert [r[1] for r in bad] == pytest.approx([0.0, 1.2, 1.8, 2.4, 3.0])
    assert all(r[4] == "error:AssertionError" for r in bad)
    assert all(math.isnan(r[2]) and math.isnan(r[3]) for r in bad)
    good = [r for r in table[1:] if r[4] == "ok"]
    assert len(good) == 25 and all(0 <= r[2] <= 1 and 0 <= r[3] <= 1 for r in good)

    # a negative coupling rate is rejected per point, before the batch runs
    table = list(sweep_coupling(small_cfg(axis1_points=4, axis2_lo=-1.0, axis2_hi=3.0,
                                          axis2_points=7)))
    assert len(table) == 1 + 4 * 7
    bad = [r for r in table[1:] if r[4] != "ok"]
    assert len(bad) == 8 and all(r[1] < 0 and r[4] == "error:ValueError" for r in bad)
    assert all(r[4] == "ok" for r in table[1:] if r[1] >= 0)


def err_psw_cfg(**overrides):
    return small_cfg(**dict(dict(
        circuit="optimized",
        axis1="err", axis1_lo=1e-4, axis1_hi=1e-1, axis1_points=3, axis1_scale="log",
        axis2="p_sw", axis2_lo=0.6, axis2_hi=1.0, axis2_points=3,
        kappa_s_over_kappa=0.05, g_over_kappa=2.5,
    ), **overrides))


def test_invalid_grid_points_keep_their_error_rows():
    # a point fails exactly when err > 1 (wave plates, CPBSs) or p_sw leaves
    # [0, 1] (switches); linspace(-0.2, 1.2, 8) passes 0 at -2.8e-17
    def expected(err, p_sw):
        return "error:ValueError" if err > 1 or not 0 <= p_sw <= 1 else "ok"

    table = list(sweep_err_psw(err_psw_cfg(
        axis1_lo=0.0, axis1_hi=2.0, axis1_points=5, axis1_scale="linear",
        axis2_lo=-0.2, axis2_hi=1.2, axis2_points=8,
    )))
    statuses = [r[3] for r in table[1:]]
    assert statuses == [expected(r[0], r[1]) for r in table[1:]]
    assert (statuses.count("error:ValueError"), statuses.count("ok")) == (25, 15)
    assert all(math.isnan(r[2]) for r in table[1:] if r[3] != "ok")

    table = list(sweep_err_psw(err_psw_cfg(
        axis1="p_sw", axis1_lo=-0.2, axis1_hi=1.2, axis1_points=5, axis1_scale="linear",
        axis2="err", axis2_lo=0.0, axis2_hi=2.0, axis2_points=7,
    )))
    statuses = [r[3] for r in table[1:]]
    assert statuses == [expected(r[1], r[0]) for r in table[1:]]
    assert (statuses.count("error:ValueError"), statuses.count("ok")) == (23, 12)


def test_programming_error_in_a_stage_raises_instead_of_writing_rows(monkeypatch):
    # only a point outside a component's domain (ValueError at build time) or
    # a failed output check becomes an error row; a bug in a stage propagates
    import qdcnot.circuits as circuits

    def broken(*args):
        raise TypeError("broken stage")

    monkeypatch.setattr(circuits, "spin_hadamard", broken)
    with pytest.raises(TypeError, match="broken stage"):
        sweep_coupling(small_cfg())
    with pytest.raises(TypeError, match="broken stage"):
        sweep_err_psw(err_psw_cfg())


def test_chunk_moves_only_the_swept_fields(monkeypatch):
    seen = []
    real = sweep_mod.average_fidelity

    def spy(circuit, cavity, err, ensemble):
        seen.append((cavity, err))
        return real(circuit, cavity, err, ensemble)

    monkeypatch.setattr(sweep_mod, "average_fidelity", spy)
    sweep_err_psw(err_psw_cfg(axis2_lo=-0.2, axis2_hi=1.0, axis2_points=4))
    assert len(seen) == 1  # the 3 x 4 grid is one block
    cavity, err = seen[0]
    # the valid rows and columns (p_sw = -0.2 is not one): the err values
    # on an (m, 1) array, the p_sw values on a (1, n) array, each axis
    # one array for all its fields
    assert np.shape(err.xi1.xi) == (3, 1) and np.shape(err.sw1.t12) == (1, 3)
    np.testing.assert_allclose(err.xi1.xi[:, 0], np.logspace(-4, -1, 3), rtol=1e-15)
    np.testing.assert_allclose(err.sw1.t12[0, :], [0.2, 0.6, 1.0], rtol=1e-15)
    for moved in (err.xi2.xi, err.cpbs1.tau_r, err.cpbs1.tau_l, err.cpbs2.tau_l,
                  err.cpbs3.tau_l, err.cpbs4.tau_r):
        assert moved is err.xi1.xi
    for moved in (err.sw1.r22, err.sw2.t12, err.sw2.r11):
        assert moved is err.sw1.t12
    for scalar in (cavity.g, cavity.kappa_s, cavity.gamma, err.cpbs2.tau_r, err.cpbs3.tau_r,
                   err.cpbs4.tau_l, err.sw1.r11, err.sw2.r22, err.cloner.fidelity):
        assert np.ndim(scalar) == 0


def test_grid_without_a_valid_column_runs_nothing(monkeypatch):
    # every axis2 value (p_sw outside [0, 1], or a negative g) is invalid:
    # no block has a column, so every row is an error row and the circuit
    # never runs; likewise when every axis1 value (err above 1) is
    def unreachable(*args):
        raise AssertionError("average_fidelity called")

    monkeypatch.setattr(sweep_mod, "average_fidelity", unreachable)
    for invalid in (dict(axis2_lo=1.5, axis2_hi=2.0),
                    dict(axis2="g_over_kappa", axis2_lo=-2.0, axis2_hi=-1.0),
                    dict(axis1_lo=1.5, axis1_hi=2.0)):
        table = list(sweep_mod._run_grid(err_psw_cfg(**invalid)))[1:]
        assert len(table) == 9
        assert all(r[5] == "error:ValueError" and all(map(math.isnan, r[2:5])) for r in table)


def test_fig4b_runs_its_stages_on_the_err_points_only(monkeypatch):
    # p_sw only scales the optimized circuit's weight, so the canonical
    # 31 x 41 grid runs the amplitude stages on its 31 err values, once
    import qdcnot.circuits as circuits
    import qdcnot.fidelity as fidelity

    stage_points, outputs = [], []
    loop_pass, optimized = circuits.loop_pass, fidelity.optimized_cnot

    def spy_loop(*args):
        out = loop_pass(*args)
        stage_points.append(out.shape[-1])
        return out

    def spy_optimized(*args):
        out = optimized(*args)
        outputs.append((out.points, out.inputs))
        return out

    monkeypatch.setattr(circuits, "loop_pass", spy_loop)
    monkeypatch.setattr(fidelity, "optimized_cnot", spy_optimized)
    table = sweep_err_psw(_config_with(**target_values("fig4b")))
    assert len(table) == 1 + 31 * 41
    assert max(stage_points) == 31 and set(stage_points) <= {1, 31}
    # one run; its output spans the 31 err rows, a length-1 p_sw axis and the inputs
    assert outputs == [((31, 1), (4,))]


# grids whose fault rows the engine must keep: (sweep, a reproduce target's
# config values with overrides, sha256 of the status column joined by
# newlines, status counts), recorded with the per-input state engine that
# preceded the basis-level fidelity arithmetic
FAULT_GRIDS = (
    # superposition inputs through a non-unitary HWP1: some outputs exceed norm 1
    (sweep_coupling, dict(target_values("fig3a"), ensemble="superposition4",
                          xi1=0.1),
     "e9ba04ff62841787f81d980175cfc68e8d215507f4a84a96394f697f339040c6",
     {"ok": 2317, "error:AssertionError": 184}),
    # negative coupling rates g on the first 9 columns
    (sweep_coupling, dict(target_values("fig3a"), axis2_lo=-0.5),
     "408e54224b26a3cfcf4456b6d52da2dec1b8181c745ac938d4fa0fb4ea9e43a8",
     {"ok": 2132, "error:ValueError": 369}),
    # errors and switch probabilities beyond [0, 1], and norms above 1 inside it
    (sweep_err_psw, dict(target_values("fig4b"), axis1_scale="linear",
                         axis1_lo=0.0, axis1_hi=2.0, axis2_lo=-0.2, axis2_hi=1.2),
     "7fd210e57c85655969a36881594a57266ad11eda4e76894e425aefdf405a8192",
     {"ok": 435, "error:ValueError": 807, "error:AssertionError": 29}),
)


@pytest.mark.parametrize("sweep, overrides, digest, counts", FAULT_GRIDS,
                         ids=["superposition4-xi1", "negative-g", "err-psw-out-of-range"])
def test_fault_rows_keep_their_statuses(sweep, overrides, digest, counts):
    import hashlib
    from collections import Counter

    table = list(sweep(_config_with(**overrides)))
    status = [row[-1] for row in table[1:]]
    assert Counter(status) == counts
    assert hashlib.sha256("\n".join(status).encode()).hexdigest() == digest
    for row in table[1:]:  # a failed point reports no value
        assert (row[-1] == "ok") == all(math.isfinite(x) for x in row[2:-1])


def test_grid_blocks_keep_their_memory_bound():
    # tracemalloc peaks of warm grids: fig3a (0.60 MB with its 4 blocks; about
    # 3.5 MB as one unchunked block) and err x p_sw with 400 weight-only
    # p_sw values on the 36-input ensemble (1.71 MB with 117 p_sw values a
    # block); each bound is its peak plus 25%
    import tracemalloc

    fig3a = _config_with(**target_values("fig3a"))
    wide = _config_with(**dict(target_values("fig4b"), ensemble="haar_product",
                               axis2_points=400))
    for sweep, cfg, bound_mb in ((sweep_coupling, fig3a, 0.75), (sweep_err_psw, wide, 2.15)):
        sweep(cfg)
        tracemalloc.start()
        try:
            sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, (sweep.__name__, peak)


def test_repeated_grid_jobs_leave_no_memory_behind(tmp_path):
    # a job that builds a tuple from a generator (``tuple(gen)``, ``f(*gen)``)
    # sizes it by a guess and shrinks it, and each one parks a tuple in
    # CPython's free lists until they fill (2000 per size); with no row lists
    # left to trigger full collections, which empty those lists, that was
    # ~0.8 kB per small err/p_sw job here (245 kB over 300), and +0.5 MB of
    # peak RSS on a fig4b run.  Bound: 4x the 8 kB the 300 fig4b jobs of a
    # row-list sweep grew by; a clean job grows by ~5 kB in all.
    import tracemalloc

    cfg, path = err_psw_cfg(), str(tmp_path / "grid.csv")
    for _ in range(20):
        write_csv(sweep_err_psw(cfg), path)
    tracemalloc.start()
    try:
        for _ in range(20):
            write_csv(sweep_err_psw(cfg), path)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            write_csv(sweep_err_psw(cfg), path)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 32_000, growth


def test_err_psw_rejects_a_cloner_it_would_override():
    # the sweep pins the cloner at the universal bound 5/6: a config that
    # sets another value is rejected instead of silently replaced
    for value in (0.9, 0.5):
        with pytest.raises(ConfigError, match="cloner_fidelity"):
            sweep_err_psw(err_psw_cfg(cloner_fidelity=value))
    pinned = sweep_err_psw(err_psw_cfg(cloner_fidelity=5 / 6))
    assert list(pinned) == list(sweep_err_psw(err_psw_cfg()))


def test_axis_fields_are_built_once_and_read_only():
    err = sweep_mod._axis_fields("err")
    assert sweep_mod._axis_fields("err") is err
    assert dict(err) == {"xi1": ("xi",), "xi2": ("xi",), "cpbs1": ("tau_r", "tau_l"),
                         "cpbs2": ("tau_l",), "cpbs3": ("tau_l",), "cpbs4": ("tau_r",)}
    assert dict(sweep_mod._axis_fields("p_sw")) == {"sw1": ("t12", "r22"), "sw2": ("t12", "r11")}
    with pytest.raises(TypeError):
        err["cavity"] = ("g",)


def test_domain_mask_matches_point_builds():
    # just past each bound (g, kappa_s < 0; |xi| > 1; tau, p_sw outside
    # [0, 1]) is invalid, exactly at it valid
    below, above = np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)
    values = np.array([np.nextafter(-1.0, -2.0), -1.0, below, 0.0, 0.5, 1.0, above, 2.5])
    cfg = small_cfg()
    for axis in sweep_mod.AXIS_NAMES:
        built = []
        for value in values.tolist():
            point = SimConfig({**cfg.values, **dict.fromkeys(sweep_mod.AXIS_KEYS[axis], value)})
            try:
                point.cavity(), point.device_errors()
            except ValueError:
                built.append(False)
            else:
                built.append(True)
        assert sweep_mod._in_domain(axis, values).tolist() == built, axis
    in_unit = [False, False, False, True, True, True, False, False]
    assert sweep_mod._in_domain("p_sw", values).tolist() == in_unit
    assert sweep_mod._in_domain("err", values).tolist() == in_unit
    assert sweep_mod._in_domain("g_over_kappa", values).tolist() == [False] * 3 + [True] * 5
    # every field of every component, one by one: the per-value test is the
    # one its constructor applies
    parts = {"cavity": cfg.cavity(), **vars(cfg.device_errors())}
    for name, (cls, _) in sweep_mod.COMPONENTS.items():
        for field, (test, _) in cls.DOMAIN.items():
            for value in values.tolist() + [-0.5, 0.25, 0.75, math.inf]:
                try:
                    replace(parts[name], **{field: value})
                    accepted = True
                except ValueError:
                    accepted = False
                assert bool(test(value)) == accepted, (name, field, value)
            assert test(values).tolist() == [bool(test(x)) for x in values.tolist()]


# --- CSV contract

def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([["a", "b"], [0.937412345678, 1.0], [float("nan"), 2.5]], str(path))
    data = path.read_bytes()
    assert data == b"a,b\n0.9374123457,1\nnan,2.5\n"


def test_write_csv_float_cells_keep_their_bytes(tmp_path):
    # every float is written as format(v, ".10g"), every other cell as str
    path = tmp_path / "t.csv"
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
              0.1 + 0.2, -123456.78901234, 1e16, 2.5e-7]
    table = ([["x", "y", "status"]] + [[x, -x, "ok"] for x in values]
             + [[0.1 + 0.2, x, "ok"] for x in values])
    write_csv(table, str(path))
    expected = [",".join(format(c, ".10g") if isinstance(c, float) else str(c)
                         for c in row) for row in table]
    assert path.read_text().split("\n") == expected + [""]
    # repeating float columns: a zero of either sign, or both
    for zeros in ((0.0,), (-0.0,), (0.0, -0.0), (-0.0, 0.0)):
        column = [*zeros, math.nan, 1.5, 1e-300] * 3
        table = [["axis", "v"]] + [[x, float(k)] for k, x in enumerate(column)]
        write_csv(table, str(path))
        assert path.read_text().split("\n")[1:-1] == [
            f"{format(x, '.10g')},{k}" for k, x in enumerate(column)]
    # one kind per column: an int column is written as str(n), never "%.10g" % n
    table = [["n", "text", "v"], [12345678901, "ok", 0.1 + 0.2], [-7, "error:ValueError", -0.0]]
    write_csv(table, str(path))
    assert path.read_text() == "n,text,v\n12345678901,ok,0.3\n-7,error:ValueError,-0\n"
    # a header alone is written alone
    write_csv([["x", "y", "status"]], str(path))
    assert path.read_text() == "x,y,status\n"


def test_write_csv_rejects_ragged_rows_and_mixed_kind_columns(tmp_path):
    # a list of rows is written through one template: a row as long as the
    # header and one kind per column, or nothing, and the old file is kept
    path = tmp_path / "t.csv"
    path.write_bytes(b"old contents\n")
    header, row = ["x", "y", "status"], [0.5, 1.5, "ok"]
    for rows, message in (
        ([row, [0.25]], "row 2 after the header has 1 cells, the header 3"),
        ([row, row + ["extra"]], "row 2 after the header has 4 cells, the header 3"),
        ([row, [1, 2.0, "ok"]], "column 'x' mixes kinds ['float', 'int']"),
        ([row, [True, 0.5, "ok"]], "column 'x' mixes kinds ['bool', 'float']"),
        ([row, [0.5, "ok", 3.0]], "column 'y' mixes kinds ['float', 'str']"),
        ([row, [np.float64(0.5), 1.5, "ok"]], "column 'x' mixes kinds ['float', 'float64']"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csv([header, *rows], str(path))
        assert path.read_bytes() == b"old contents\n"


def test_write_csv_ten_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([["v"], [0.12345678901234]], str(path))
    assert path.read_text() == "v\n0.123456789\n"


def test_write_csv_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_csv([], str(tmp_path / "t.csv"))


TABLE = [["a", "b"], [1.5, "x"], [2.0, "y"]]
TABLE_BYTES = b"a,b\n1.5,x\n2,y\n"


def test_write_csv_overwrites_a_longer_file_in_place(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old contents\n" * 1000)
    inode = path.stat().st_ino
    write_csv(TABLE, str(path))
    assert path.read_bytes() == TABLE_BYTES
    assert path.stat().st_ino == inode


def test_write_csv_creates_a_fresh_path(tmp_path):
    path = tmp_path / "new.csv"
    write_csv(TABLE, str(path))
    assert path.read_bytes() == TABLE_BYTES


def test_write_csv_to_a_device_leaves_it_uncut():
    write_csv(TABLE, os.devnull)  # a character device has no length to cut


class Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be printed")


def test_a_cell_that_raises_mid_write_leaves_no_old_tail(tmp_path):
    # a status cell in the second chunk raises once the first chunk is
    # written; the file is cut after that chunk all the same
    path = tmp_path / "t.csv"
    path.write_bytes(b"old contents\n" * 1000)
    x2 = [float(k) for k in range(CSV_CHUNK_ROWS)]
    status = ["ok"] * (2 * CSV_CHUNK_ROWS)
    status[CSV_CHUNK_ROWS + 1] = Unprintable()
    table = GridTable(("a", "b", "v", "status"), ([0.0, 1.0], x2), ([0.5] * len(status),), status)
    with pytest.raises(RuntimeError, match="cannot be printed"):
        write_csv(table, str(path))
    first_chunk = "".join(f"0,{k},0.5,ok\n" for k in range(CSV_CHUNK_ROWS))
    assert path.read_text() == "a,b,v,status\n" + first_chunk


def test_a_file_not_opened_as_text_keeps_its_bytes_and_frees_its_descriptor(tmp_path, monkeypatch):
    # the descriptor os.open gave is closed when open(fd, ...) fails, and
    # the file, opened without truncation, keeps its bytes
    path = tmp_path / "t.csv"
    path.write_bytes(b"old contents\n" * 10)
    descriptors = []

    def refuse(fd, *args, **kwargs):
        descriptors.append(fd)
        raise OSError("no text layer")

    monkeypatch.setattr(table_mod, "open", refuse, raising=False)
    with pytest.raises(OSError, match="no text layer"):
        write_csv(TABLE, str(path))
    [fd] = descriptors
    with pytest.raises(OSError) as closed:
        os.fstat(fd)
    assert closed.value.errno == errno.EBADF
    assert path.read_bytes() == b"old contents\n" * 10


def test_same_config_twice_identical_bytes(tmp_path):
    cfg = small_cfg()
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    write_csv(sweep_coupling(cfg), str(p1))
    write_csv(sweep_coupling(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# --- reproduction targets

def test_reproduce_unknown_target_lists_valid_ones(tmp_path):
    with pytest.raises(ConfigError, match="fig3a.*fig4b.*table_anchors"):
        reproduce("fig9", str(tmp_path))


def test_reproduce_table_anchors(tmp_path):
    out = reproduce("table_anchors", str(tmp_path))
    assert out["ok"]
    assert os.path.exists(out["csv"]) and os.path.exists(out["summary_path"])
    by_name = {r.anchor.name: r for r in out["results"]}
    assert by_name["baseline_strong_ideal"].status == "PASS"
    assert by_name["baseline_weak_ideal"].status == "PASS"
    assert by_name["baseline_weak_err1e-2"].status == "PASS"
    assert by_name["optimized_measured_switches"].status == "PASS"
    assert by_name["optimized_best_case"].status == "PASS"
    # the strong-coupling error anchor is out of reach of every ensemble in
    # this model family; it is documented with its residual instead
    doc = by_name["baseline_strong_err1e-2"]
    assert doc.status == "DOCUMENTED"
    assert abs(doc.value - doc.anchor.expected) > doc.anchor.tolerance
    assert "residual" in out["summary"]


def test_check_anchors_flags_calibration_mismatch():
    # an ensemble that misses an anchor another ensemble meets -> FAIL
    results = check_anchors(InputEnsemble.superposition4(), (ANCHORS[1],))
    assert results[0].status == "FAIL"
    assert results[0].best_ensemble == "basis4"


def spy_engine(monkeypatch):
    """Record every engine call made through the sweep module, as its list of
    (circuit, ensemble part, points) entries: a block of both circuits gives
    one entry per circuit, in the order they first appear, and a union ensemble
    one per part."""
    calls = []
    real = sweep_mod.average_fidelity

    def counted(circuit, cavity, err, ensemble):
        names = (np.ravel(circuit).tolist() if not isinstance(circuit, str)
                 else [circuit] * math.prod(config_shapes(cavity, err, ())[0]))
        calls.append([(name, part.kind, names.count(name))
                      for part in ensemble.parts or (ensemble,) for name in dict.fromkeys(names)])
        return real(circuit, cavity, err, ensemble)

    monkeypatch.setattr(sweep_mod, "average_fidelity", counted)
    return calls


def test_check_anchors_evaluates_each_anchor_ensemble_pair_once(monkeypatch):
    calls = spy_engine(monkeypatch)
    results = check_anchors(calibrate_ensemble())
    assert [r.status for r in results].count("DOCUMENTED") == 1
    # the 6 anchors of both circuits on the check ensemble as one block, then
    # the documented residual alone on the union of the two other candidate
    # ensembles; the qualitative claims reuse the first block's values
    assert len(calls) == 2
    seen = [entry for call in calls for entry in call]
    assert seen == [("baseline", "basis4", 4), ("optimized", "basis4", 2),
                    ("baseline", "superposition4", 1), ("baseline", "haar_product", 1)]
    assert len({call[:2] for call in seen}) == len(seen)


def test_calibration_runs_one_block_per_ensemble(monkeypatch):
    calls = spy_engine(monkeypatch)
    assert calibrate_ensemble.__wrapped__().kind == "basis4"
    # one engine call on the union of the three candidates
    assert len(calls) == 1
    assert calls[0] == [("baseline", kind, 2)
                        for kind in ("basis4", "superposition4", "haar_product")]


def test_check_anchors_of_no_anchors_makes_no_engine_call(monkeypatch):
    calls = spy_engine(monkeypatch)
    assert check_anchors(InputEnsemble.basis4(), ()) == []
    assert calls == []


@pytest.mark.parametrize("target, calls", [
    ("fig3a", 5), ("fig3b", 5), ("fig4a", 5), ("fig4b", 2), ("table_anchors", 2)])
def test_engine_calls_per_target(monkeypatch, tmp_path, target, calls):
    # fig3a/fig3b/fig4a: 4 grid blocks (11 x 61 points on basis4) and the
    # check; fig4b: 1 grid block and the check; the anchor table: its two check calls
    calibrate_ensemble()  # once per process, before the spy
    seen = spy_engine(monkeypatch)
    assert reproduce(target, str(tmp_path))["ok"]
    assert len(seen) == calls


@pytest.mark.parametrize("kind", ["basis4", "superposition4", "haar_product"])
@pytest.mark.parametrize("target", ["fig3a", "fig4b"])
def test_a_grid_row_keeps_its_bits_in_any_block(monkeypatch, target, kind):
    # each point's row is the same bit for bit whether it ran in a default
    # block or in one of 12 amplitude points (6 on the complex haar_product,
    # so fig4b's last err row runs as a block of one amplitude point)
    cfg = SimConfig({**sweep_mod._target_config(target).values, "ensemble": kind})
    default = sweep_mod._run_grid(cfg)
    monkeypatch.setattr(sweep_mod, "BLOCK_BYTES", 12 * 2 * 4 * 8)
    small = sweep_mod._run_grid(cfg)
    assert np.array(small.values).tobytes() == np.array(default.values).tobytes()
    assert small.status == default.status


# the tracemalloc peak of the first fig3a block at 5bcddb9 (7 blocks of 6 x 61 points on
# either ensemble), with numpy 2.4
PARENT_BLOCK_PEAKS = {"basis4": 500_041, "haar_product": 3_269_152}


@pytest.mark.parametrize("kind", sorted(PARENT_BLOCK_PEAKS))
def test_a_default_fig3a_block_peaks_no_higher_than_before(monkeypatch, kind):
    blocks = []
    real = sweep_mod.average_fidelity
    monkeypatch.setattr(sweep_mod, "average_fidelity", lambda *args: blocks.append(args) or real(*args))
    sweep_mod._run_grid(SimConfig({**sweep_mod._target_config("fig3a").values, "ensemble": kind}))
    assert len(blocks) == {"basis4": 4, "haar_product": 9}[kind]  # 11 x 61 and 5 x 61 points
    real(*blocks[0])  # the ensemble's caches are built once per process
    tracemalloc.start()
    try:
        real(*blocks[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_BLOCK_PEAKS[kind]


@pytest.mark.parametrize("kind", ["basis4", "superposition4", "haar_product"])
def test_anchor_blocks_equal_single_configs(kind):
    # one block of both circuits gives each anchor the value its own config
    # gives, bit for bit: a point's sums run in one order at any number of points
    ensemble = sweep_mod.ENSEMBLES[kind]()
    batched = sweep_mod._anchor_values(ANCHORS, ensemble)
    for anchor in ANCHORS:
        report = average_fidelity(anchor.circuit, anchor.cavity, anchor.errors, ensemble)
        single = (max(report.f_up, report.f_down) if anchor.metric == "best_branch"
                  else report.f_both)
        assert batched[anchor, kind] == single, anchor.name


def test_anchor_values_on_a_union_equal_each_part_alone():
    parts = [make() for make in sweep_mod.ENSEMBLES.values()]
    union = sweep_mod._anchor_values(ANCHORS, InputEnsemble.union(*parts))
    assert len(union) == len(ANCHORS) * len(parts)
    for part in parts:
        alone = sweep_mod._anchor_values(ANCHORS, part)
        for anchor in ANCHORS:  # bit for bit: a real part gains exact zeros in a complex union
            assert union[anchor, part.kind] == alone[anchor, part.kind], anchor.name


def test_a_faulting_anchor_in_a_block_raises_by_name():
    # kappa_s = 0, g = 0.7 with xi1 = 0.1 is a fault row of the superposition4
    # coupling grid (test_fault_rows_keep_their_statuses): its output norm exceeds 1
    ensemble = InputEnsemble.superposition4()
    bad = replace(ANCHORS[0], name="norm_fault",
                  cavity=CavityParams(g=0.7, kappa_s=0.0, gamma=0.1),
                  errors=DeviceErrorConfig(xi1=HwpError(0.1)))
    with pytest.raises(Exception) as single:
        average_fidelity(bad.circuit, bad.cavity, bad.errors, ensemble)
    assert type(single.value) is OutputNormError
    with pytest.raises(OutputNormError, match="output norm exceeds 1: anchor norm_fault"):
        check_anchors(ensemble, (ANCHORS[1], bad, ANCHORS[3]))


def test_a_block_fault_raises_at_once():
    # the norm_fault anchor's point of a block raises as the block's reports
    # are read; a clean block gives only floats
    ensemble = InputEnsemble.superposition4()
    bad = replace(ANCHORS[0], name="norm_fault",
                  cavity=CavityParams(g=0.7, kappa_s=0.0, gamma=0.1),
                  errors=DeviceErrorConfig(xi1=HwpError(0.1)))
    with pytest.raises(OutputNormError, match="output norm exceeds 1: anchor norm_fault"):
        sweep_mod._anchor_values((ANCHORS[1], bad), ensemble)
    values = sweep_mod._anchor_values((ANCHORS[1], ANCHORS[3]), ensemble)
    assert [type(v) for v in values.values()] == [float, float]


def test_anchors_are_checked_on_one_ensemble_not_a_union():
    union = InputEnsemble.union(InputEnsemble.basis4(), InputEnsemble.superposition4())
    with pytest.raises(ValueError, match="not the union 'basis4\\+superposition4'"):
        check_anchors(union, (ANCHORS[0],))


def test_a_lone_faulting_anchor_raises_by_name(monkeypatch):
    # alone, the norm_fault anchor is one config, not a point of a block
    bad = replace(ANCHORS[0], name="norm_fault",
                  cavity=CavityParams(g=0.7, kappa_s=0.0, gamma=0.1),
                  errors=DeviceErrorConfig(xi1=HwpError(0.1)))
    with pytest.raises(OutputNormError, match="output norm exceeds 1: anchor norm_fault") as err:
        check_anchors(InputEnsemble.superposition4(), (bad,))
    assert type(err.value.__cause__) is OutputNormError

    def non_finite(*args):
        raise fault_error(1, "baseline circuit, input 0")

    monkeypatch.setattr(sweep_mod, "average_fidelity", non_finite)
    with pytest.raises(NonFiniteOutputError,
                       match="non-finite output amplitude: anchor norm_fault"):
        check_anchors(InputEnsemble.superposition4(), (bad,))


def test_anchors_that_share_a_name_keep_their_own_values():
    # an Anchor hashes by its name but compares by its fields: a copy of the
    # strong-coupling anchor on the weak cavity is another anchor, and each
    # reads its own value, in one block as alone
    ensemble = calibrate_ensemble()
    a = ANCHORS[0]
    b = replace(a, cavity=CavityParams(0.45, 1.0, 0.1))

    def read(results):
        return [(r.value, r.status, r.best_ensemble) for r in results]

    alone = [read(check_anchors(ensemble, (anchor,)))[0] for anchor in (a, b)]
    assert [status for _, status, _ in alone] == ["PASS", "FAIL"]
    assert read(check_anchors(ensemble, (a, b))) == alone
    # the qualitative claims read the real weak-coupling anchor, not one
    # that only shares its name
    strong_weak = replace(sweep_mod.ANCHOR_WEAK_IDEAL, cavity=a.cavity)
    results = check_anchors(ensemble, (sweep_mod.ANCHOR_STRONG_ERR, strong_weak))
    assert [r.status for r in results] == ["DOCUMENTED", "FAIL"]


@pytest.mark.parametrize("target", ["fig3a", "fig3b", "fig4a", "fig4b"])
def test_each_grid_target_passes_through_its_anchors(target):
    # each anchor a grid target checks is the target's config moved along the
    # grid's axes to a grid point, and the unrounded grid reads the anchor's
    # value there
    anchors = sweep_mod._GRID_TARGETS[target][2]
    values = target_values(target)
    table = sweep_mod.run_sweep(_config_with(**values))
    moved = {key for axis in table.header[:2] for key in sweep_mod.AXIS_KEYS[axis]}
    columns = dict(zip(table.header[2:-1], table.values))
    for result in check_anchors(calibrate_ensemble(), anchors):
        anchor_values = sweep_mod._config_values(result.anchor)
        assert {k: v for k, v in anchor_values.items() if k not in moved} == \
            {k: values[k] for k in anchor_values if k not in moved}, result.anchor.name
        i, j = [axis.index(anchor_values[sweep_mod.AXIS_KEYS[name][0]])
                for name, axis in zip(table.header[:2], table.axes)]
        point = i * len(table.axes[1]) + j
        value = (max(columns["f_up"][point], columns["f_down"][point])
                 if result.anchor.metric == "best_branch" else columns["f_both"][point])
        assert abs(value - result.value) <= 1e-12, (result.anchor.name, value, result.value)


def test_fig4b_scales_as_p_sw_to_the_fourth_and_falls_with_err():
    # p_sw scales four routed switch legs by sqrt(p_sw) each, so on the
    # unrounded fig4b grid F(err, p) = F(err, 1) p^4; and no error helps: F
    # does not increase along err at any p_sw
    table = sweep_err_psw(_config_with(**target_values("fig4b")))
    errs, p_sw = table.axes
    f = np.reshape(table.values[0], (len(errs), len(p_sw)))
    assert table.header[2] == "f_both" and p_sw[-1] == 1.0 and errs == sorted(errs)
    np.testing.assert_allclose(f, f[:, -1:] * np.array(p_sw) ** 4, rtol=1e-12, atol=0)
    assert np.all(np.diff(f, axis=0) <= 0)


def coupling_surface(target, column):
    """A coupling target's g axis and its unrounded ``column`` as (kappa_s, g) values."""
    table = sweep_coupling(sweep_mod._target_config(target))
    kappa_s, g = table.axes
    assert table.header[:2] == ("kappa_s_over_kappa", "g_over_kappa")
    assert set(table.status) == {"ok"}
    values = table.values[table.header[2:-1].index(column)]
    return np.array(g), np.reshape(values, (len(kappa_s), len(g)))


@pytest.mark.parametrize("target, column", [("fig3b", "f_down"), ("fig4a", "f_both")])
def test_coupling_surfaces_fall_with_kappa_s_and_rise_with_g(target, column):
    # side leakage never helps and stronger coupling never hurts, at every
    # step (recorded: the largest kappa_s step is -0.0032 on fig3b and
    # -0.00086 on fig4a, the smallest g step +1.1e-8 and +2.2e-5)
    _, f = coupling_surface(target, column)
    assert np.all(np.diff(f, axis=0) <= 0)
    assert np.all(np.diff(f, axis=1) >= 0)


def test_fig3a_falls_with_kappa_s_and_rises_with_g_past_weak_coupling():
    # f_up falls along kappa_s everywhere; along g it rises except at 93
    # steps, all within g <= 0.15, none deeper than -0.0039136: a recorded
    # weak-coupling feature, not an invariant
    g, f = coupling_surface("fig3a", "f_up")
    assert np.all(np.diff(f, axis=0) <= 0)
    steps = np.diff(f, axis=1)
    rows, ends = np.nonzero(steps < 0)
    assert len(rows) == 93
    assert np.all(g[ends + 1] <= 0.15 + 1e-12)
    assert steps.min() >= -0.00392


def test_reproduce_fig3a_surface(tmp_path):
    out = reproduce("fig3a", str(tmp_path))
    assert out["ok"]
    lines = Path(out["csv"]).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kappa_s_over_kappa,g_over_kappa,f_up,status"
    assert len(lines) == 1 + 41 * 61
    names = {r.anchor.name for r in out["results"]}
    assert names == {"baseline_strong_ideal", "baseline_weak_ideal"}


def test_reproduce_fig3b_emits_down_branch(tmp_path):
    # small sanity on the column selection without rerunning the full grid
    table = sweep_coupling(small_cfg())
    assert table.header[2:4] == ("f_up", "f_down")


def test_a_candidate_fault_raises_by_name_from_the_union_call(monkeypatch):
    # the norm_fault config runs on basis4 (f_up 0.837, outside this anchor's
    # tolerance) and faults on superposition4 and haar_product; a second
    # anchor outside tolerance makes the union call a block of two points
    bad = replace(ANCHORS[0], name="norm_fault", expected=0.5,
                  cavity=CavityParams(g=0.7, kappa_s=0.0, gamma=0.1),
                  errors=DeviceErrorConfig(xi1=HwpError(0.1)))
    missed = replace(ANCHORS[1], expected=0.9)
    calls = spy_engine(monkeypatch)
    with pytest.raises(OutputNormError, match="output norm exceeds 1: anchor norm_fault"):
        check_anchors(InputEnsemble.basis4(), (ANCHORS[0], missed, bad))
    assert calls == [[("baseline", "basis4", 3)],
                     [("baseline", "superposition4", 2), ("baseline", "haar_product", 2)]]
