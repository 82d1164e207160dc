import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qdcnot.sweep as sweep_mod
from qdcnot.cavity import CavityParams
from qdcnot.circuits import DeviceErrorConfig, OutputNormError, config_shapes
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


def small_cfg(**overrides):
    base = dict(
        circuit="baseline", ensemble="basis4",
        axis1="kappa_s_over_kappa", axis1_lo=0.05, axis1_hi=1.0, axis1_points=2,
        axis2="g_over_kappa", axis2_lo=0.45, axis2_hi=2.5, axis2_points=2,
    )
    base.update(overrides)
    return _config_with(**base)


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


def test_malformed_line_reports_lineno():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("circuit = baseline\nnot a config line\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# comment\n\ncircuit = optimized\n")
    assert cfg.values["circuit"] == "optimized"


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
        small_cfg(axis1_lo=2.0, axis1_hi=1.0).grid()
    with pytest.raises(ConfigError, match="log scale"):
        small_cfg(axis1_scale="log", axis1_lo=0.0).grid()
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
    table = sweep_coupling(small_cfg())
    assert table[0] == ["kappa_s_over_kappa", "g_over_kappa", "f_up", "f_down", "status"]
    assert len(table) == 5  # header + 2x2 grid
    # axis1-outer ordering
    assert [r[0] for r in table[1:]] == [0.05, 0.05, 1.0, 1.0]
    assert [r[1] for r in table[1:]] == [0.45, 2.5, 0.45, 2.5]
    assert all(r[4] == "ok" for r in table[1:])


def test_coupling_sweep_optimized_emits_combined_column():
    table = sweep_coupling(small_cfg(circuit="optimized"))
    assert table[0] == ["kappa_s_over_kappa", "g_over_kappa", "f_both", "status"]


def test_coupling_sweep_hits_anchor_points():
    table = sweep_coupling(small_cfg())
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
    for row in sweep_coupling(cfg)[1:]:
        assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0


def test_err_psw_sweep_schema_and_endpoints():
    cfg = small_cfg(
        circuit="optimized",
        axis1="err", axis1_lo=1e-4, axis1_hi=1e-1, axis1_points=4, axis1_scale="log",
        axis2="p_sw", axis2_lo=0.6, axis2_hi=1.0, axis2_points=3,
        kappa_s_over_kappa=0.05, g_over_kappa=2.5,
    )
    table = sweep_err_psw(cfg)
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
    table = sweep_err_psw(cfg)
    zero_rows = [r for r in table[1:] if r[1] == 0.0]
    assert zero_rows and all(r[2] == 0.0 for r in zero_rows)


def test_err_psw_requires_optimized_strong_coupling():
    with pytest.raises(ConfigError, match="optimized"):
        sweep_err_psw(small_cfg(axis1="err", axis2="p_sw"))
    with pytest.raises(ConfigError, match="strong"):
        sweep_err_psw(small_cfg(
            circuit="optimized", axis1="err", axis1_lo=1e-4, axis1_hi=1e-1,
            axis2="p_sw", axis2_lo=0.6, axis2_hi=1.0,
            kappa_s_over_kappa=1.0, g_over_kappa=0.45,
        ))


def test_failed_grid_point_emits_sentinel_row():
    # xi1 = 0.1 lifts the output norm of some superposition inputs above 1;
    # exactly these points of the batched rows fail the norm check
    table = sweep_coupling(small_cfg(
        ensemble="superposition4", xi1=0.1, axis1_lo=0.0, axis1_hi=2.0, axis1_points=5,
        axis2_lo=0.0, axis2_hi=3.0, axis2_points=6,
    ))
    assert len(table) == 1 + 5 * 6  # no row dropped
    bad = [r for r in table[1:] if r[4] != "ok"]
    assert [r[0] for r in bad] == [0.0] * 5
    assert [r[1] for r in bad] == pytest.approx([0.0, 1.2, 1.8, 2.4, 3.0])
    assert all(r[4] == "error:AssertionError" for r in bad)
    assert all(math.isnan(r[2]) and math.isnan(r[3]) for r in bad)
    good = [r for r in table[1:] if r[4] == "ok"]
    assert len(good) == 25 and all(0 <= r[2] <= 1 and 0 <= r[3] <= 1 for r in good)

    # a negative coupling rate is rejected per point, before the batch runs
    table = sweep_coupling(small_cfg(axis1_points=4, axis2_lo=-1.0, axis2_hi=3.0,
                                     axis2_points=7))
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

    table = sweep_err_psw(err_psw_cfg(
        axis1_lo=0.0, axis1_hi=2.0, axis1_points=5, axis1_scale="linear",
        axis2_lo=-0.2, axis2_hi=1.2, axis2_points=8,
    ))
    statuses = [r[3] for r in table[1:]]
    assert statuses == [expected(r[0], r[1]) for r in table[1:]]
    assert (statuses.count("error:ValueError"), statuses.count("ok")) == (25, 15)
    assert all(math.isnan(r[2]) for r in table[1:] if r[3] != "ok")

    table = sweep_err_psw(err_psw_cfg(
        axis1="p_sw", axis1_lo=-0.2, axis1_hi=1.2, axis1_points=5, axis1_scale="linear",
        axis2="err", axis2_lo=0.0, axis2_hi=2.0, axis2_points=7,
    ))
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
    # on an (m, 1, 1) array, the p_sw values on a (1, n, 1) array, each axis
    # one array for all its fields
    assert np.shape(err.xi1.xi) == (3, 1, 1) and np.shape(err.sw1.t12) == (1, 3, 1)
    np.testing.assert_allclose(err.xi1.xi[:, 0, 0], np.logspace(-4, -1, 3), rtol=1e-15)
    np.testing.assert_allclose(err.sw1.t12[0, :, 0], [0.2, 0.6, 1.0], rtol=1e-15)
    for moved in (err.xi2.xi, err.cpbs1.tau_r, err.cpbs1.tau_l, err.cpbs2.tau_r,
                  err.cpbs3.tau_l, err.cpbs4.tau_r, err.cpbs4.tau_l):
        assert moved is err.xi1.xi
    for moved in (err.sw1.r22, err.sw2.t12, err.sw2.r11):
        assert moved is err.sw1.t12
    for scalar in (cavity.g, cavity.kappa_s, cavity.gamma, err.sw1.t21, err.sw1.r11,
                   err.sw2.t21, err.sw2.r22, err.cloner.fidelity):
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
        columns = sweep_mod._run_grid(err_psw_cfg(**invalid), InputEnsemble.basis4())
        table = list(zip(*columns))  # rows
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
        outputs.append(out.amps.shape)
        return out

    monkeypatch.setattr(circuits, "loop_pass", spy_loop)
    monkeypatch.setattr(fidelity, "optimized_cnot", spy_optimized)
    table = sweep_err_psw(_config_with(**sweep_mod._TARGET_OVERRIDES["fig4b"]))
    assert len(table) == 1 + 31 * 41
    assert max(stage_points) == 31 and set(stage_points) <= {1, 31}
    # one run; its output spans the 31 err rows, a length-1 p_sw axis and the inputs
    assert outputs == [(31, 1, 4, 2, 2, 2)]


# grids whose fault rows the engine must keep: (sweep, overrides of a
# reproduce target, sha256 of the status column joined by newlines, status
# counts), recorded with the per-input state engine that preceded the
# basis-level fidelity arithmetic
FAULT_GRIDS = (
    # superposition inputs through a non-unitary HWP1: some outputs exceed norm 1
    (sweep_coupling, dict(sweep_mod._TARGET_OVERRIDES["fig3a"], ensemble="superposition4",
                          xi1=0.1),
     "e9ba04ff62841787f81d980175cfc68e8d215507f4a84a96394f697f339040c6",
     {"ok": 2317, "error:AssertionError": 184}),
    # negative coupling rates g on the first 9 columns
    (sweep_coupling, dict(sweep_mod._TARGET_OVERRIDES["fig3a"], axis2_lo=-0.5),
     "408e54224b26a3cfcf4456b6d52da2dec1b8181c745ac938d4fa0fb4ea9e43a8",
     {"ok": 2132, "error:ValueError": 369}),
    # errors and switch probabilities beyond [0, 1], and norms above 1 inside it
    (sweep_err_psw, dict(sweep_mod._TARGET_OVERRIDES["fig4b"], axis1_scale="linear",
                         axis1_lo=0.0, axis1_hi=2.0, axis2_lo=-0.2, axis2_hi=1.2),
     "7fd210e57c85655969a36881594a57266ad11eda4e76894e425aefdf405a8192",
     {"ok": 435, "error:ValueError": 807, "error:AssertionError": 29}),
)


@pytest.mark.parametrize("sweep, overrides, digest, counts", FAULT_GRIDS,
                         ids=["superposition4-xi1", "negative-g", "err-psw-out-of-range"])
def test_fault_rows_keep_their_statuses(sweep, overrides, digest, counts):
    import hashlib
    from collections import Counter

    table = sweep(_config_with(**overrides))
    status = [row[-1] for row in table[1:]]
    assert Counter(status) == counts
    assert hashlib.sha256("\n".join(status).encode()).hexdigest() == digest
    for row in table[1:]:  # a failed point reports no value
        assert (row[-1] == "ok") == all(math.isfinite(x) for x in row[2:-1])


def test_grid_blocks_keep_their_memory_bound():
    # tracemalloc peaks of warm grids: fig3a (0.65 MB with its 7 blocks; about
    # 3.5 MB as one unchunked block) and err x p_sw with 400 weight-only
    # p_sw values on the 36-input ensemble (4.3 MB with 128 p_sw values a block)
    import tracemalloc

    fig3a = _config_with(**sweep_mod._TARGET_OVERRIDES["fig3a"])
    wide = _config_with(**dict(sweep_mod._TARGET_OVERRIDES["fig4b"], ensemble="haar_product",
                               axis2_points=400))
    for sweep, cfg, bound_mb in ((sweep_coupling, fig3a, 1.0), (sweep_err_psw, wide, 6.0)):
        sweep(cfg)
        tracemalloc.start()
        try:
            sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, (sweep.__name__, peak)


def test_err_psw_rejects_a_cloner_it_would_override():
    # the sweep pins the cloner at the universal bound 5/6: a config that
    # sets another value is rejected instead of silently replaced
    for value in (0.9, 0.5):
        with pytest.raises(ConfigError, match="cloner_fidelity"):
            sweep_err_psw(err_psw_cfg(cloner_fidelity=value))
    pinned = sweep_err_psw(err_psw_cfg(cloner_fidelity=5 / 6))
    assert pinned == sweep_err_psw(err_psw_cfg())


def test_axis_fields_are_built_once_and_read_only():
    err = sweep_mod._axis_fields("err")
    assert sweep_mod._axis_fields("err") is err
    assert dict(err) == {"xi1": ("xi",), "xi2": ("xi",),
                         **{f"cpbs{k}": ("tau_r", "tau_l") for k in range(1, 5)}}
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


def test_write_csv_rows_of_other_kinds_keep_per_cell_bytes(tmp_path):
    # every float is written as format(v, ".10g") and every other cell as
    # str, whatever else its row or column holds (a header, an int, a bool or
    # a string where a float was); the same rows with a short row go row by
    # row, without it column by column, with a repeating (axis) column
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
              0.1 + 0.2, -123456.78901234, 1e16, 2.5e-7]
    rows = ([[x, -x, "ok"] for x in values] + [[0.1 + 0.2, x, "ok"] for x in values]
            + [[1, 2.0, "ok"], [True, 0.5, "ok"], [0.5, "ok", 3.0]])
    for table in ([["x", "y", "status"]] + rows + [[0.25]], [["x", "y", "status"]] + rows):
        path = tmp_path / "t.csv"
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
    # a short row sends the table down the row-by-row path, which writes the
    # rows before the failing one; the file is cut after them all the same
    path = tmp_path / "t.csv"
    path.write_bytes(b"old contents\n" * 1000)
    with pytest.raises(RuntimeError, match="cannot be printed"):
        write_csv([["a", "b"], [1.5, "x"], [Unprintable(), "y"], [0.5]], str(path))
    assert path.read_bytes() == b"a,b\n1.5,x\n"


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
    """Record (circuit, ensemble, points) of every engine call made through the sweep module."""
    seen = []
    real = sweep_mod.average_fidelity

    def counted(circuit, cavity, err, ensemble):
        seen.append((circuit, ensemble.kind, math.prod(config_shapes(cavity, err, ())[0])))
        return real(circuit, cavity, err, ensemble)

    monkeypatch.setattr(sweep_mod, "average_fidelity", counted)
    return seen


def test_check_anchors_evaluates_each_anchor_ensemble_pair_once(monkeypatch):
    seen = spy_engine(monkeypatch)
    results = check_anchors(calibrate_ensemble())
    assert [r.status for r in results].count("DOCUMENTED") == 1
    # the 6 anchors on the check ensemble as one block per circuit, then the
    # documented residual alone on the two other candidate ensembles; the
    # qualitative claims reuse the first blocks' values
    assert seen == [("baseline", "basis4", 4), ("optimized", "basis4", 2),
                    ("baseline", "superposition4", 1), ("baseline", "haar_product", 1)]
    assert len({call[:2] for call in seen}) == len(seen)


def test_calibration_runs_one_block_per_ensemble(monkeypatch):
    seen = spy_engine(monkeypatch)
    assert calibrate_ensemble.__wrapped__().kind == "basis4"
    assert seen == [("baseline", kind, 2) for kind in ("basis4", "superposition4", "haar_product")]


@pytest.mark.parametrize("kind", ["basis4", "superposition4", "haar_product"])
def test_anchor_blocks_equal_single_configs(kind):
    # one block per circuit gives each anchor the value its own config gives:
    # bit for bit on basis4, within rounding of the summation on the others
    ensemble = sweep_mod.ENSEMBLES[kind]()
    batched = sweep_mod._anchor_values(ANCHORS, ensemble)
    for anchor, value in zip(ANCHORS, batched):
        report = average_fidelity(anchor.circuit, anchor.cavity, anchor.errors, ensemble)
        single = (max(report.f_up, report.f_down) if anchor.metric == "best_branch"
                  else report.f_both)
        if kind == "basis4":
            assert value == single, anchor.name
        else:
            assert abs(value - single) <= 1e-15, anchor.name


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
    assert table[0][2] == "f_up" and table[0][3] == "f_down"
