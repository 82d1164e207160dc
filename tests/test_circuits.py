import math

import numpy as np
import pytest

from qdcnot.cavity import CavityCoeffs, CavityParams, cavity_coeffs, interaction_map
import qdcnot.circuits as circuits_mod
from qdcnot.circuits import (
    CnotInputs,
    DeviceErrorConfig,
    _basis_outputs,
    _dot,
    baseline_cnot,
    cnot_prefactor,
    loop_pass,
    optimized_cnot,
    sign_fix_amplitude,
)
from qdcnot.devices import ClonerConfig, CpbsError, HwpError, SwitchCoeffs, cpbs_loop_maps
from qdcnot.state import replace_unchecked, stack

from closed_form import extract_branch_amplitudes, output_amplitudes, rr_up_closed_form
from labeled import labeled
from oracle import baseline_dense, dense_vector

SQH = math.sqrt(0.5)
STRONG = cavity_coeffs(CavityParams(g=2.5, kappa_s=0.05, gamma=0.1))
IDEAL = CavityCoeffs.ideal()


def random_inputs(rng, real=False):
    v = rng.normal(size=4) + (0 if real else 1j * rng.normal(size=4))
    a, b, d, g = v
    na = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    nt = math.sqrt(abs(d) ** 2 + abs(g) ** 2)
    return CnotInputs(a / na, b / na, d / nt, g / nt)


def random_errors(rng, hi=0.1):
    e = rng.uniform(0, hi, size=10)
    return DeviceErrorConfig(
        xi1=HwpError(e[0]), xi2=HwpError(e[1]),
        cpbs1=CpbsError(e[2], e[3]), cpbs2=CpbsError(e[4], e[5]),
        cpbs3=CpbsError(e[6], e[7]), cpbs4=CpbsError(e[8], e[9]),
    )


def two_branch_target(inputs):
    """Error-free baseline output: correct gate on the down branch, the
    control-L terms sign-flipped on the up branch, 1/sqrt(2) per branch."""
    a, b = inputs.alpha, inputs.beta
    d, g = inputs.delta, inputs.gamma_amp
    return {
        ("R", "R", "up"): a * d * SQH, ("R", "L", "up"): a * g * SQH,
        ("L", "L", "up"): -b * d * SQH, ("L", "R", "up"): -b * g * SQH,
        ("R", "R", "down"): a * d * SQH, ("R", "L", "down"): a * g * SQH,
        ("L", "L", "down"): b * d * SQH, ("L", "R", "down"): b * g * SQH,
    }


# --- baseline circuit

def test_baseline_ideal_control_r():
    out = labeled(baseline_cnot(CnotInputs(1, 0, 1, 0), IDEAL))
    assert out.amplitude(("R", "R", "up")) == pytest.approx(SQH, abs=1e-12)
    assert out.amplitude(("R", "R", "down")) == pytest.approx(SQH, abs=1e-12)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_baseline_ideal_control_l_flips_target_with_sign():
    out = labeled(baseline_cnot(CnotInputs(0, 1, 1, 0), IDEAL))
    assert out.amplitude(("L", "L", "up")) == pytest.approx(-SQH, abs=1e-12)
    assert out.amplitude(("L", "L", "down")) == pytest.approx(SQH, abs=1e-12)
    assert out.amplitude(("L", "R", "up")) == 0


def test_baseline_ideal_random_inputs_match_target():
    rng = np.random.default_rng(42)
    for _ in range(100):
        inputs = random_inputs(rng)
        out = labeled(baseline_cnot(inputs, IDEAL))
        target = two_branch_target(inputs)
        for lbl in set(out.entries) | set(target.keys()):
            assert abs(out.amplitude(lbl) - target.get(lbl, 0)) < 1e-12


def test_baseline_strong_coupling_down_branch_mixture():
    # down-branch RR coefficient picks up the cold-cavity mixture of the target
    inputs = CnotInputs(0.6, 0.8, 0.28, 0.96)
    out = labeled(baseline_cnot(inputs, STRONG))
    expected = 0.6 * (STRONG.t0 * 0.28 + STRONG.r0 * 0.96) * SQH
    assert out.amplitude(("R", "R", "down")) == pytest.approx(expected, abs=1e-12)


def test_baseline_matches_dense_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        params = CavityParams(
            g=float(rng.uniform(0.2, 3)), kappa_s=float(rng.uniform(0, 2)),
            gamma=float(rng.uniform(0.05, 0.5)),
        )
        coeffs = cavity_coeffs(params)
        err = random_errors(rng)
        inputs = random_inputs(rng)
        out = labeled(baseline_cnot(inputs, coeffs, err))
        expected = baseline_dense(
            inputs.alpha, inputs.beta, inputs.delta, inputs.gamma_amp,
            (coeffs.t1, coeffs.r1, coeffs.t0, coeffs.r0),
            err.xi1.xi, err.xi2.xi, err.cpbs1.tau_r, err.cpbs1.tau_l,
        )
        assert np.max(np.abs(dense_vector(out) - expected)) < 1e-12


def test_baseline_norm_never_exceeds_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        out = labeled(baseline_cnot(random_inputs(rng), STRONG, random_errors(rng)))
        assert out.norm_sq() <= 1 + 1e-9


# --- optimized circuit

def test_optimized_ideal_is_exact_cnot_on_both_branches():
    rng = np.random.default_rng(3)
    for _ in range(50):
        inputs = random_inputs(rng)
        out = labeled(optimized_cnot(inputs, IDEAL))
        a, b = inputs.alpha, inputs.beta
        d, g = inputs.delta, inputs.gamma_amp
        expected = {
            ("R", "R"): a * d, ("R", "L"): a * g, ("L", "L"): b * d, ("L", "R"): b * g,
        }
        for (c, t), amp in expected.items():
            for spin in ("up", "down"):
                assert abs(out.amplitude((c, t, spin)) - amp * SQH) < 1e-12


def test_optimized_truth_table():
    table = {
        ("R", "R"): ("R", "R"), ("R", "L"): ("R", "L"),
        ("L", "R"): ("L", "L"), ("L", "L"): ("L", "R"),
    }
    for (c_in, t_in), (c_out, t_out) in table.items():
        out = labeled(optimized_cnot(CnotInputs.basis(c_in, t_in), IDEAL))
        for spin in ("up", "down"):
            amp = out.amplitude((c_out, t_out, spin))
            assert amp == pytest.approx(SQH, abs=1e-12)  # positive: no stray sign
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_prefactor_independent_of_input():
    rng = np.random.default_rng(4)
    err = DeviceErrorConfig(
        sw1=SwitchCoeffs(t12=0.899, r22=0.65),
        sw2=SwitchCoeffs(t12=0.956, r11=0.648),
        cloner=ClonerConfig(0.82),
    )
    expected = math.sqrt(0.899 * 0.65 * 0.956 * 0.648 * 0.82)
    for _ in range(20):
        out = optimized_cnot(random_inputs(rng), STRONG, err)
        assert abs(out.weight - expected) < 1e-12
    assert cnot_prefactor(err) == pytest.approx(expected, abs=1e-15)
    assert cnot_prefactor(err) ** 2 == pytest.approx(0.29684, abs=1e-5)


def test_sign_fix_amplitude_values():
    assert sign_fix_amplitude(DeviceErrorConfig()) == -1.0
    err = DeviceErrorConfig.uniform(0.01)
    assert sign_fix_amplitude(err) == pytest.approx(-(0.99 ** 1.5), abs=1e-12)


def test_sign_fix_lands_only_on_up_branch_control_l():
    rng = np.random.default_rng(5)
    for _ in range(25):
        inputs = random_inputs(rng)
        err = random_errors(rng)
        base = baseline_cnot(inputs, STRONG, err)
        opt = optimized_cnot(inputs, STRONG, err)
        flip = sign_fix_amplitude(err)
        pref = cnot_prefactor(err)
        up_b, down_b = extract_branch_amplitudes(base)
        up_o, down_o = extract_branch_amplitudes(opt)
        for i in range(4):
            scale = flip if i >= 2 else 1.0  # LL, LR positions only
            assert abs(up_o[i] - pref * scale * up_b[i]) < 1e-12
            assert abs(down_o[i] - pref * down_b[i]) < 1e-12


# --- closed-form cross-validation

def test_closed_form_all_ideal_reduction():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inputs = random_inputs(rng)
        value = rr_up_closed_form(inputs, IDEAL, DeviceErrorConfig())
        # in the error-free limit the coefficient is alpha*delta/sqrt(2)
        assert abs(value * math.sqrt(2) - inputs.alpha * inputs.delta) < 1e-12
        ref = rr_up_closed_form(inputs, IDEAL, DeviceErrorConfig(), reference=True)
        assert ref == value  # the reference-variant terms all vanish at tau=0


def test_closed_form_strong_coupling_zero_device_errors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        inputs = random_inputs(rng)
        value = rr_up_closed_form(inputs, STRONG, DeviceErrorConfig())
        expected = inputs.alpha * (STRONG.t0 * inputs.delta + STRONG.r0 * inputs.gamma_amp)
        assert abs(value * math.sqrt(2) - expected) < 1e-12


def test_closed_form_matches_composition_500_random_configs():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        params = CavityParams(
            g=float(rng.uniform(0.2, 3)), kappa_s=float(rng.uniform(0, 2)),
            gamma=float(rng.uniform(0.05, 0.5)),
        )
        coeffs = cavity_coeffs(params)
        err = random_errors(rng, hi=0.1)
        inputs = random_inputs(rng)
        amps = output_amplitudes(inputs, coeffs, err)
        worst = max(worst, abs(amps.up[0] - amps.rr_up_closed))
    assert worst <= 1e-9


def test_closed_form_reference_variant_disagrees_with_composition():
    # the reference coefficient variant only matches when CPBS1 is perfect
    inputs = CnotInputs(0.6, 0.8, 0.28, 0.96)
    for err, differs in ((DeviceErrorConfig(cpbs1=CpbsError(0.05, 0.05)), True),
                         (DeviceErrorConfig(xi1=HwpError(0.07), xi2=HwpError(0.03)), False)):
        amps = output_amplitudes(inputs, STRONG, err)
        discrepancy = abs(amps.rr_up_reference - amps.rr_up_closed)
        assert discrepancy > 1e-4 if differs else discrepancy == 0.0


def test_output_amplitudes_branch_layout():
    inputs = CnotInputs(0.6, 0.8, 0.28, 0.96)
    amps = output_amplitudes(inputs, IDEAL, DeviceErrorConfig())
    expected_up = [0.6 * 0.28, 0.6 * 0.96, 0.8 * 0.28, 0.8 * 0.96]  # RR RL LL LR
    for got, want in zip(amps.up, expected_up):
        assert abs(got - want * SQH) < 1e-12
    assert amps.up == amps.down
    assert amps.sign_fix == -1.0 and amps.prefactor == 1.0
    # a batched output has no one set of branch amplitudes
    for batched in (stack([inputs, inputs]), stack([inputs])):
        with pytest.raises(ValueError, match="branch amplitudes of one run"):
            output_amplitudes(batched, IDEAL, DeviceErrorConfig())
        with pytest.raises(ValueError, match="branch amplitudes of one run"):
            extract_branch_amplitudes(baseline_cnot(batched, IDEAL))


# --- spin readout onto the clone photon

def test_transfer_cpbs4_error_attenuates_control():
    # the readout photon survives CPBS4 with sqrt(1 - tau_r4); tau_l4 plays no part
    err = DeviceErrorConfig(cpbs4=CpbsError(0.04, 0.3))
    assert sign_fix_amplitude(err) == pytest.approx(-math.sqrt(0.96), abs=1e-12)


# --- CPBS loop wiring

def test_cavity_pass_builds_cpbs_maps_once(monkeypatch):
    import qdcnot.circuits as circuits

    calls = []
    for name in ("cpbs_loop_maps", "interaction_map"):
        real = getattr(circuits, name)
        monkeypatch.setattr(circuits, name,
                            lambda arg, real=real, name=name: calls.append(name) or real(arg))
    baseline_cnot(CnotInputs.basis("R", "L"), STRONG, DeviceErrorConfig.uniform(0.01))
    # the control pass and the target pass through the CPBS1 loop share both maps
    assert sorted(calls) == ["cpbs_loop_maps", "interaction_map"]


def test_loop_pass_is_the_spin_blocks_of_the_folded_pass():
    # split, cavity and merge never flip the spin: the CPBS1 loop pass folded
    # on (photon, spin) has no spin-flipping entry, and its two spin blocks
    # are the per-spin maps the engine builds, for one config and for blocks
    # whose cavity and CPBS1 errors move on (m, 1) and (1, n) axes
    rng = np.random.default_rng(5)
    cavity = CavityParams(g=2.5, kappa_s=0.05, gamma=0.1)
    rows, columns = rng.uniform(0, 2, (3, 1)), rng.uniform(0, 3, (1, 4))
    taus = rng.uniform(0, 0.3, (2, 3, 1))
    cases = [
        (cavity, CpbsError(0.03, 0.07)),
        (replace_unchecked(cavity, kappa_s=rows, g=columns), CpbsError(0.03, 0.07)),
        (replace_unchecked(cavity, g=columns), replace_unchecked(CpbsError(), tau_r=taus[0],
                                                                 tau_l=taus[1])),
        (replace_unchecked(cavity, kappa_s=columns),
         replace_unchecked(CpbsError(), tau_r=taus[0], tau_l=0.02)),
    ]
    eye = np.eye(2)
    for cavity, cpbs in cases:
        coeffs = cavity_coeffs(cavity)
        # the maps' point axes come last: move them in front of (i, j)
        split, merge = (np.moveaxis(m, (0, 1), (-2, -1)) for m in cpbs_loop_maps(cpbs))
        # m ⊗ I with the spin as the last, least significant bit
        with_spin = [(m[..., :, None, :, None] * eye[:, None, :]).reshape(
            m.shape[:-2] + (2 * m.shape[-2], 2 * m.shape[-1])) for m in (split, merge)]
        # the interaction's spin blocks placed on (pol-dir, spin), spin least significant
        spin_blocks = interaction_map(coeffs)  # (spin, 4, 4, points...)
        points = spin_blocks.shape[3:]
        interaction = np.zeros(points + (4, 2, 4, 2))
        for s in (0, 1):
            interaction[..., :, s, :, s] = np.moveaxis(spin_blocks[s], (0, 1), (-2, -1))
        fold = with_spin[1] @ interaction.reshape(points + (8, 8)) @ with_spin[0]
        batch = fold.shape[:-2]
        blocks = fold.reshape(batch + (2, 2, 2, 2))  # (photon out, spin out, photon in, spin in)
        assert not np.any(blocks[..., :, 0, :, 1]) and not np.any(blocks[..., :, 1, :, 0])
        loops = loop_pass(cpbs, coeffs, batch)  # (spin, out, in, points)
        for s in (0, 1):
            expected = np.broadcast_to(blocks[..., :, s, :, s], batch + (2, 2)).reshape(-1, 2, 2)
            np.testing.assert_allclose(loops[s].transpose(2, 0, 1), expected, rtol=0, atol=1e-15)


# --- one output layout

def test_circuits_build_no_labeled_state(monkeypatch, tmp_path):
    # the labeled-state names stay importable from this module (the
    # benchmark's span table traces them here), but no circuit calls them
    import qdcnot.circuits as circuits
    from qdcnot.fidelity import InputEnsemble, average_fidelity
    from qdcnot.state import JointState
    from qdcnot.sweep import reproduce

    def refuse(*args, **kwargs):
        raise AssertionError("a circuit called into the labeled-state kit")

    for name in ("apply_mode_map", "make_state", "tensor", "with_weight"):
        assert callable(getattr(circuits, name))
        monkeypatch.setattr(circuits, name, refuse)
    assert reproduce("table_anchors", str(tmp_path))["ok"]
    err = DeviceErrorConfig.uniform(1e-2)
    for circuit in ("baseline", "optimized"):
        report = average_fidelity(circuit, STRONG, err, InputEnsemble.superposition4())
        assert report.status == "ok"
    assert not issubclass(circuits.CircuitOutput, JointState)


# --- input validation

def test_a_line_keeps_its_points_apart_from_the_inputs():
    # a (4,) line against the four basis inputs: 4 x 4 runs, not 4 pairs
    line = stack([CavityParams(g=g, kappa_s=0.05, gamma=0.1) for g in (1, 2, 3, 4)])
    basis = stack([CnotInputs.basis(c, t) for c in "RL" for t in "RL"])
    out = baseline_cnot(basis, line)
    assert (out.points, out.inputs, out.fault.shape) == ((4,), (4,), (4, 4))
    for j, g in enumerate((1, 2, 3, 4)):
        alone = baseline_cnot(basis, CavityParams(g=g, kappa_s=0.05, gamma=0.1))
        assert out.columns[..., j].tobytes() == alone.columns[..., 0].tobytes(), j


def test_inputs_must_be_normalized():
    with pytest.raises(ValueError, match="normalized"):
        CnotInputs(1.0, 0.5, 1.0, 0.0)
    # a nan amplitude is rejected here, with its field named
    with pytest.raises(ValueError, match="control amplitudes not normalized"):
        CnotInputs(math.nan, 0, 1, 0)


def test_the_engine_runs_in_real_arithmetic():
    # every stage map is real, so the stages and a real input's outputs are float64
    err = DeviceErrorConfig.uniform(1e-2)
    assert _basis_outputs(STRONG, err, ()).dtype == np.float64
    basis4 = stack([CnotInputs.basis(c, t) for c in "RL" for t in "RL"])
    out = baseline_cnot(basis4, STRONG, err)
    assert out.amplitudes.dtype == np.float64 and out.columns.dtype == np.float64
    # a complex input runs as its real and imaginary parts: real amplitudes, complex columns
    rng = np.random.default_rng(3)
    inputs = stack([random_inputs(rng) for _ in range(3)])
    out = baseline_cnot(inputs, STRONG, err)
    assert out.amplitudes.dtype == np.float64 and out.amplitudes.shape == (2, 8, 3, 1)
    assert out.columns.dtype == complex and out.columns.shape == (2, 3, 4, 1)
    assert np.array_equal(out.columns.real, out.amplitudes[:, :4].transpose(0, 2, 1, 3))
    assert np.array_equal(out.columns.imag, out.amplitudes[:, 4:].transpose(0, 2, 1, 3))


@pytest.mark.parametrize("points", [1, 7, 600])
def test_a_dot_formed_whole_or_term_by_term_has_the_same_bits(monkeypatch, points):
    # the stages' products: a 4 x 4 map on a 4 x 2 one, a 2 x 4 map on a 4 x 2 one, 2 x 2 maps
    rng = np.random.default_rng(points)
    cases = [((2, 4, 4, points), (4, 2, 1)), ((2, 4, 1), (2, 4, 2, points)),
             ((2, 2, 2, points), (2, 2, 2, 1)), ((2, 2, 1), (2, 4, points))]
    for a_shape, b_shape in cases:
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        monkeypatch.setattr(circuits_mod, "DOT_WHOLE_POINTS", points)
        whole = _dot(a, b)
        monkeypatch.setattr(circuits_mod, "DOT_WHOLE_POINTS", 0)
        assert _dot(a, b).tobytes() == whole.tobytes(), (a_shape, b_shape)
