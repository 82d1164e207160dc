import math

import numpy as np
import pytest

from qdcnot.circuits import DeviceErrorConfig, cnot_prefactor
from qdcnot.devices import (
    F_UC,
    ClonerConfig,
    CpbsError,
    HwpError,
    SwitchCoeffs,
    cpbs_loop_maps,
    hwp_map,
    spin_hadamard,
    switch_amplitude,
)
from qdcnot.state import PRUNE_TOL, apply_mode_map, inner_product, make_state, replace_unchecked

SQH = math.sqrt(0.5)


def basis_state(factor, value):
    return make_state(factor, [(value, 1.0)])


# --- half-wave plate

def test_hwp_ideal_images():
    out_r = apply_mode_map(basis_state("a", "R"), "a", hwp_map(HwpError(0.0)))
    assert out_r.amplitude(("R",)) == pytest.approx(SQH)
    assert out_r.amplitude(("L",)) == pytest.approx(SQH)
    out_l = apply_mode_map(basis_state("a", "L"), "a", hwp_map(HwpError(0.0)))
    assert out_l.amplitude(("L",)) == pytest.approx(-SQH)


def test_hwp_full_error_flips_r_to_l():
    m = hwp_map(HwpError(1.0))
    out_r = apply_mode_map(basis_state("a", "R"), "a", m)
    assert out_r.amplitude(("L",)) == 1.0 and out_r.amplitude(("R",)) == 0
    out_l = apply_mode_map(basis_state("a", "L"), "a", m)
    assert out_l.amplitude(("L",)) == -1.0


def test_hwp_image_norms_and_overlap():
    # each image ket has unit norm, but the two images overlap by -xi
    for xi in (0.0, 0.01, 0.3, -0.25):
        m = hwp_map(HwpError(xi))
        img_r = apply_mode_map(basis_state("a", "R"), "a", m)
        img_l = apply_mode_map(basis_state("a", "L"), "a", m)
        assert img_r.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert img_l.norm_sq() == pytest.approx(1.0, abs=1e-12)
        overlap = inner_product(img_r, img_l)
        assert overlap.real == pytest.approx(-xi, abs=1e-12)
        assert overlap.imag == 0


def test_hwp_zero_error_is_unitary_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = make_state("a", [("R", a), ("L", b)])
        out = apply_mode_map(s, "a", hwp_map(HwpError(0.0)))
        assert out.norm_sq() == pytest.approx(s.norm_sq(), abs=1e-12)


def test_hwp_out_of_range_rejected():
    with pytest.raises(ValueError, match="xi"):
        HwpError(1.5)


# --- circular polarizing beam splitter

DOWN, UP = 0, 1  # loop directions


def _split(err, pol):
    """Column of the CPBS split for one input polarization, indexed pol * 2 + dir."""
    split, _ = cpbs_loop_maps(err)
    return split[:, "RL".index(pol)]


def _port(pol, direction):
    return "RL".index(pol) * 2 + direction


def test_cpbs_ideal_ports():
    # transmitted R enters the loop travelling down, reflected L travelling up
    r_out = _split(CpbsError(0.0, 0.0), "R")
    assert r_out[_port("R", DOWN)] == 1.0 and r_out[_port("R", UP)] == 0
    l_out = _split(CpbsError(0.0, 0.0), "L")
    assert l_out[_port("L", UP)] == 1.0 and l_out[_port("L", DOWN)] == 0


def test_cpbs_small_error_amplitudes():
    r_out = _split(CpbsError(0.01, 0.04), "R")
    assert r_out[_port("R", DOWN)] == pytest.approx(math.sqrt(0.99), abs=1e-12)
    assert r_out[_port("R", UP)] == pytest.approx(0.1, abs=1e-12)
    l_out = _split(CpbsError(0.01, 0.04), "L")
    assert l_out[_port("L", UP)] == pytest.approx(math.sqrt(0.96), abs=1e-12)
    assert l_out[_port("L", DOWN)] == pytest.approx(0.2, abs=1e-12)


def test_cpbs_probability_conservation():
    rng = np.random.default_rng(9)
    for _ in range(50):
        err = CpbsError(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        for pol in ("R", "L"):
            assert np.sum(np.abs(_split(err, pol)) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_cpbs_merge_after_split_is_identity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        err = CpbsError(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        split, merge = cpbs_loop_maps(err)
        round_trip = merge @ split
        assert round_trip.shape == (2, 2)
        for p in range(2):
            out = round_trip[:, p]
            assert out[p] == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(np.abs(out) > PRUNE_TOL) == 1


def test_cpbs_out_of_range_rejected():
    with pytest.raises(ValueError, match="tau"):
        CpbsError(1.2, 0.0)


# --- spin rotation

def test_spin_hadamard_squares_to_identity():
    s = make_state("spin", [("up", 0.6), ("down", 0.8)])
    twice = apply_mode_map(apply_mode_map(s, "spin", spin_hadamard()), "spin", spin_hadamard())
    assert twice.amplitude(("up",)) == pytest.approx(0.6, abs=1e-15)
    assert twice.amplitude(("down",)) == pytest.approx(0.8, abs=1e-15)


def test_spin_hadamard_on_prepared_spin():
    # (up - down)/sqrt(2) rotates to the pure down branch
    s = make_state("spin", [("up", SQH), ("down", -SQH)])
    out = apply_mode_map(s, "spin", spin_hadamard())
    # oracle: 2x2 matrix arithmetic
    m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    expected = m @ np.array([SQH, -SQH])
    assert abs(out.amplitude(("up",)) - expected[0]) < 1e-15
    assert out.amplitude(("down",)) == pytest.approx(expected[1], abs=1e-15)


def test_spin_hadamard_unitary():
    s = make_state("spin", [("up", 0.28), ("down", 0.96j)])
    assert apply_mode_map(s, "spin", spin_hadamard()).norm_sq() == pytest.approx(1.0, abs=1e-12)


# --- map layout

def entry_by_entry(rows):
    """A (points..., i, j) map filled one entry at a time: the reference layout."""
    entries = [np.asarray(x, dtype=float) for row in rows for x in row]
    out = np.empty(np.broadcast_shapes(*(x.shape for x in entries)) + (len(rows), len(rows[0])))
    for k, x in enumerate(entries):
        out[..., k // len(rows[0]), k % len(rows[0])] = x
    return out


def test_maps_put_the_points_last():
    # a map of scalar fields is (i, j); a batched one (i, j, *shape), and
    # moving its entry axes last gives the entry-by-entry map bit for bit
    rng = np.random.default_rng(21)
    rows, columns = rng.uniform(0, 0.5, (3, 1, 1)), rng.uniform(0, 0.5, (1, 4, 1))
    for xi in (0.3, -1.0, rows, -columns):
        m = hwp_map(replace_unchecked(HwpError(), xi=xi))
        c, s = np.sqrt((1 - xi) / 2), np.sqrt((1 + xi) / 2)
        assert m.shape == (2, 2) + np.shape(xi)
        expected = entry_by_entry([[c, c], [s, -s]])
        assert np.moveaxis(m, (0, 1), (-2, -1)).tobytes() == expected.tobytes()
    for tau_r, tau_l in ((0.01, 0.04), (rows, 0.02), (0.0, columns), (rows, columns)):
        split, merge = cpbs_loop_maps(replace_unchecked(CpbsError(), tau_r=tau_r, tau_l=tau_l))
        sr, sl, cr, cl = np.sqrt(tau_r), np.sqrt(tau_l), np.sqrt(1 - tau_r), np.sqrt(1 - tau_l)
        shape = np.broadcast_shapes(np.shape(tau_r), np.shape(tau_l))
        assert split.shape == (4, 2) + shape and merge.shape == (2, 4) + shape
        expected = entry_by_entry([[cr, 0], [sr, 0], [0, sl], [0, cl]])
        assert np.moveaxis(split, (0, 1), (-2, -1)).tobytes() == expected.tobytes()
        assert np.array_equal(merge, np.swapaxes(split, 0, 1))
    assert spin_hadamard().shape == (2, 2)


# --- single-photon switch amplitudes

def test_switch_amplitude_values():
    ideal = SwitchCoeffs()
    assert switch_amplitude(ideal, "I1->O2") == 1.0
    sw1 = SwitchCoeffs(t12=0.899, r22=0.65)
    assert switch_amplitude(sw1, "I1->O2") == pytest.approx(math.sqrt(0.899), abs=1e-12)
    assert switch_amplitude(sw1, "I1->O2") == pytest.approx(0.94816, abs=1e-5)


def test_switch_amplitude_full_leg_product():
    sw1 = SwitchCoeffs(t12=0.899, r22=0.65)
    sw2 = SwitchCoeffs(t12=0.956, r11=0.648)
    product = (switch_amplitude(sw1, "I1->O2") * switch_amplitude(sw1, "I2->O2")
               * switch_amplitude(sw2, "I1->O2") * switch_amplitude(sw2, "I1->O1")
               * math.sqrt(0.82))
    assert product == pytest.approx(math.sqrt(0.899 * 0.65 * 0.956 * 0.648 * 0.82), abs=1e-12)
    assert product == pytest.approx(0.5448, abs=1e-4)


def test_switch_amplitude_unknown_path():
    with pytest.raises(ValueError, match="path"):
        switch_amplitude(SwitchCoeffs(), "O1->I1")


def test_switch_coeffs_range_checked():
    with pytest.raises(ValueError):
        SwitchCoeffs(t12=1.4)


# --- cloner

def test_clone_weight_factors():
    # the cloner enters only as the success amplitude sqrt(F)
    assert cnot_prefactor(DeviceErrorConfig(cloner=ClonerConfig(F_UC))) == pytest.approx(
        0.9129, abs=1e-4
    )
    assert cnot_prefactor(DeviceErrorConfig(cloner=ClonerConfig(0.82))) == pytest.approx(
        0.90554, abs=1e-5
    )
    assert cnot_prefactor(DeviceErrorConfig(cloner=ClonerConfig(0.82))) ** 2 == pytest.approx(
        0.82, abs=1e-12
    )


def test_cloner_fidelity_range():
    with pytest.raises(ValueError):
        ClonerConfig(0.4)
    assert F_UC == pytest.approx(5 / 6)
