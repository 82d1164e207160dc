import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from qdcnot.cavity import CavityCoeffs, CavityParams, cavity_coeffs
from qdcnot.circuits import (
    FAULTS,
    CnotInputs,
    DeviceErrorConfig,
    NonFiniteOutputError,
    OutputNormError,
    baseline_cnot,
    optimized_cnot,
)
from qdcnot.devices import F_UC, ClonerConfig, HwpError, SwitchCoeffs
import qdcnot.fidelity as fidelity_module
from qdcnot.fidelity import InputEnsemble, average_fidelity
from qdcnot.state import (
    inner_product,
    make_state,
    project_spin,
    replace_unchecked,
    stack,
    tensor,
    with_weight,
)
from qdcnot.sweep import _STATUS

from labeled import columns, labeled

SQH = math.sqrt(0.5)
IDEAL = CavityCoeffs.ideal()
STRONG = cavity_coeffs(CavityParams(g=2.5, kappa_s=0.05, gamma=0.1))
WEAK = cavity_coeffs(CavityParams(g=0.45, kappa_s=1.0, gamma=0.1))
NO_ERR = DeviceErrorConfig()


def ideal_cnot_photons(inputs):
    """CNOT truth table: control L flips the target polarization.  The
    labeled reference for ``InputEnsemble.targets`` and :func:`target_state`."""
    a, b = inputs.alpha, inputs.beta
    d, g = inputs.delta, inputs.gamma_amp
    return make_state(
        ("p1", "p2"),
        [(("R", "R"), a * d), (("R", "L"), a * g), (("L", "R"), b * g), (("L", "L"), b * d)],
    )


def target_state(inputs, mode):
    """One input's ideal CNOT output tensored with the target spin of ``mode``."""
    if mode == "branch_up":
        spin = make_state("spin", [("up", 1.0)])
    elif mode == "branch_down":
        spin = make_state("spin", [("down", 1.0)])
    elif mode == "both":
        up, down = fidelity_module._ideal_output_spin()
        spin = make_state("spin", [("up", up), ("down", down)])
    else:
        raise ValueError(f"unknown fidelity mode {mode!r}")
    return tensor(ideal_cnot_photons(inputs), spin)


def fidelity_single(out, inputs, mode):
    """|<target|out>|^2 of one run, the output's weight folded in."""
    return abs(inner_product(target_state(inputs, mode), out)) ** 2


def test_ideal_cnot_photons_truth_table():
    out = ideal_cnot_photons(CnotInputs.basis("L", "R"))
    assert out.amplitude(("L", "L")) == 1.0
    out = ideal_cnot_photons(CnotInputs(SQH, SQH, 1, 0))
    assert out.amplitude(("R", "R")) == pytest.approx(SQH)
    assert out.amplitude(("L", "L")) == pytest.approx(SQH)


def test_perfect_gate_has_unit_fidelity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        na = math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
        nt = math.sqrt(abs(v[2]) ** 2 + abs(v[3]) ** 2)
        inputs = CnotInputs(v[0] / na, v[1] / na, v[2] / nt, v[3] / nt)
        out = labeled(optimized_cnot(inputs, IDEAL, NO_ERR))
        assert fidelity_single(out, inputs, "both") == pytest.approx(1.0, abs=1e-12)


def test_sign_defect_quarters_combined_fidelity():
    # ideal baseline on |+> x |R>: the up branch is orthogonal to the target,
    # so the overlap halves and the fidelity drops to 1/4
    inputs = CnotInputs(SQH, SQH, 1, 0)
    out = labeled(baseline_cnot(inputs, IDEAL, NO_ERR))
    assert fidelity_single(out, inputs, "both") == pytest.approx(0.25, abs=1e-12)
    # hand oracle: target (RR+LL)/sqrt(2) x (up+down)/sqrt(2) against the
    # four output terms (RR +- LL)/2 per branch
    overlap = SQH * (SQH * 0.5 - SQH * 0.5) + SQH * (SQH * 0.5 + SQH * 0.5)
    assert fidelity_single(out, inputs, "both") == pytest.approx(abs(overlap) ** 2, abs=1e-12)


def test_branch_modes_on_ideal_baseline():
    inputs = CnotInputs(SQH, SQH, 1, 0)
    out = labeled(baseline_cnot(inputs, IDEAL, NO_ERR))
    # up branch is Z-flipped: orthogonal to the plain gate target
    assert fidelity_single(out, inputs, "branch_up") == pytest.approx(0.0, abs=1e-12)
    # down branch is the correct gate at half weight
    assert fidelity_single(out, inputs, "branch_down") == pytest.approx(0.5, abs=1e-12)


def test_fidelity_scales_with_squared_weight():
    inputs = CnotInputs.basis("R", "R")
    out = labeled(optimized_cnot(inputs, IDEAL, NO_ERR))
    scaled = with_weight(out, 0.7)
    f = fidelity_single(out, inputs, "both")
    assert fidelity_single(scaled, inputs, "both") == pytest.approx(0.49 * f, abs=1e-12)


def test_fidelity_invariant_under_global_phase():
    rng = np.random.default_rng(1)
    inputs = CnotInputs(0.6, 0.8, 0.28, 0.96)
    out = labeled(baseline_cnot(inputs, STRONG, NO_ERR))
    f = fidelity_single(out, inputs, "both")
    for _ in range(5):
        phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        rotated = make_state(
            out.factors, [(lbl, phase * amp) for lbl, amp in out.entries.items()], out.weight
        )
        assert fidelity_single(rotated, inputs, "both") == pytest.approx(f, abs=1e-12)


def test_fidelity_requires_spin_factor():
    inputs = CnotInputs.basis("R", "R")
    with pytest.raises(ValueError, match="spin"):
        fidelity_single(ideal_cnot_photons(inputs), inputs, "both")


def test_target_state_modes():
    inputs = CnotInputs.basis("R", "R")
    up = target_state(inputs, "branch_up")
    assert up.amplitude(("R", "R", "up")) == 1.0
    both = target_state(inputs, "both")
    # the error-free pipeline leaves the spin in (up + down)/sqrt(2)
    assert both.amplitude(("R", "R", "up")) == pytest.approx(SQH, abs=1e-12)
    assert both.amplitude(("R", "R", "down")) == pytest.approx(SQH, abs=1e-12)
    with pytest.raises(ValueError, match="mode"):
        target_state(inputs, "sideways")



def test_the_ideal_spin_is_read_only_from_a_product_output(monkeypatch):
    # an engine whose error-free spin-down branch holds |RL> where |RR> was
    # leaves the |RR> spin ket short of unit norm: the guard refuses it
    real = fidelity_module.optimized_cnot

    def entangled(*args, **kwargs):
        out = real(*args, **kwargs)
        y = out.amplitudes.copy()
        y[1, [0, 1]] = y[1, [1, 0]]
        return replace(out, amplitudes=y)

    monkeypatch.setattr(fidelity_module, "optimized_cnot", entangled)
    fidelity_module._ideal_output_spin.cache_clear()
    try:
        with pytest.raises(AssertionError, match="did not produce a product output"):
            fidelity_module._ideal_output_spin()
    finally:
        fidelity_module._ideal_output_spin.cache_clear()
    monkeypatch.undo()
    assert fidelity_module._ideal_output_spin() == pytest.approx((SQH, SQH), abs=1e-12)


# --- success probability

def test_success_probability_ideal_baseline_branches():
    out = labeled(baseline_cnot(CnotInputs(0.6, 0.8, 0.28, 0.96), IDEAL, NO_ERR))
    assert project_spin(out, "down")[1] == pytest.approx(0.5, abs=1e-12)
    assert project_spin(out, "up")[1] == pytest.approx(0.5, abs=1e-12)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_success_probability_ideal_optimized_is_one():
    out = labeled(optimized_cnot(CnotInputs(0.6, 0.8, 0.28, 0.96), IDEAL, NO_ERR))
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_success_probability_measured_switches():
    err = DeviceErrorConfig(
        sw1=SwitchCoeffs(t12=0.899, r22=0.65),
        sw2=SwitchCoeffs(t12=0.956, r11=0.648),
        cloner=ClonerConfig(0.82),
    )
    out = labeled(optimized_cnot(CnotInputs.basis("R", "R"), IDEAL, err))
    assert out.norm_sq() == pytest.approx(0.29684, abs=1e-5)


def test_success_probability_unknown_branch():
    out = labeled(baseline_cnot(CnotInputs.basis("R", "R"), IDEAL, NO_ERR))
    with pytest.raises(ValueError, match="'left'"):
        project_spin(out, "left")


# --- ensembles

def test_basis4_and_superposition4_members():
    basis = InputEnsemble.basis4()
    assert len(basis.states) == 4
    assert {(s.alpha, s.beta, s.delta, s.gamma_amp) for s in basis.states} == {
        (1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0)
    }
    sup = InputEnsemble.superposition4()
    assert len(sup.states) == 4
    assert all(abs(abs(s.alpha) - SQH) < 1e-12 for s in sup.states)


def test_haar_product_is_36_normalized_cardinal_products_built_once():
    ensemble = InputEnsemble.haar_product()
    assert ensemble.kind == "haar_product"
    assert len(ensemble.states) == 36
    for s in ensemble.states:
        assert abs(s.alpha) ** 2 + abs(s.beta) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert abs(s.delta) ** 2 + abs(s.gamma_amp) ** 2 == pytest.approx(1.0, abs=1e-15)
    # 36 distinct inputs, each photon in one of six states
    assert len({(s.alpha, s.beta, s.delta, s.gamma_amp) for s in ensemble.states}) == 36
    assert len({(s.alpha, s.beta) for s in ensemble.states}) == 6
    assert ensemble is InputEnsemble.haar_product()


def test_average_fidelity_rejects_empty_ensemble():
    with pytest.raises(ValueError, match="empty"):
        average_fidelity("baseline", STRONG, NO_ERR, InputEnsemble("none", ()))


def test_average_fidelity_rejects_an_unknown_circuit_name():
    with pytest.raises(ValueError, match="unknown circuit 'fancy'"):
        average_fidelity("fancy", STRONG, NO_ERR, InputEnsemble.basis4())


def test_average_fidelity_ideal_everything():
    for ens in (InputEnsemble.basis4(), InputEnsemble.superposition4(),
                InputEnsemble.haar_product()):
        report = average_fidelity("optimized", IDEAL, NO_ERR, ens)
        assert report.f_up == pytest.approx(1.0, abs=1e-12)
        assert report.f_down == pytest.approx(1.0, abs=1e-12)
        assert report.f_both == pytest.approx(1.0, abs=1e-12)


# --- reference anchors

def test_anchor_strong_coupling_zero_errors():
    report = average_fidelity("baseline", STRONG, NO_ERR, InputEnsemble.basis4())
    assert max(report.f_up, report.f_down) == pytest.approx(0.9374, abs=0.010)
    # frozen value of this model, cross-checked against the dense oracle suite
    assert report.f_up == pytest.approx(0.9370889, abs=1e-6)


def test_anchor_weak_coupling_zero_errors():
    report = average_fidelity("baseline", WEAK, NO_ERR, InputEnsemble.basis4())
    assert max(report.f_up, report.f_down) == pytest.approx(0.3234, abs=0.010)
    assert report.f_up == pytest.approx(0.3234192, abs=1e-6)


def test_anchor_optimized_best_case():
    err = DeviceErrorConfig.uniform(1e-4, cloner=ClonerConfig(F_UC))
    report = average_fidelity("optimized", STRONG, err, InputEnsemble.basis4())
    assert report.f_both == pytest.approx(0.78, abs=0.010)


def test_branch_conventions_reported_side_by_side():
    from oracle import baseline_dense

    report = average_fidelity("baseline", STRONG, NO_ERR, InputEnsemble.basis4())
    assert report.f_up == pytest.approx(2 * report.f_up_folded, abs=1e-15)
    assert report.f_down == pytest.approx(2 * report.f_down_folded, abs=1e-15)
    # total retained weight agrees with the dense-matrix pipeline
    coeffs = (STRONG.t1, STRONG.r1, STRONG.t0, STRONG.r0)
    expected = np.mean([
        np.sum(np.abs(baseline_dense(*amps, coeffs)) ** 2)
        for amps in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
    ])
    assert report.success_up + report.success_down == pytest.approx(expected, abs=1e-12)


def test_ensemble_asymmetry_detects_sign_flip():
    # a gate that is perfect up to the control-L sign flip on both branches:
    # every basis ket only gains a global phase, but superpositions interfere
    def sign_flipped_output(inputs):
        photons = ideal_cnot_photons(inputs)
        flipped = {
            lbl: (-amp if lbl[0] == "L" else amp) for lbl, amp in photons.entries.items()
        }
        ph = make_state(("p1", "p2"), list(flipped.items()))
        spin = make_state("spin", [("up", SQH), ("down", SQH)])
        return tensor(ph, spin)

    basis_vals = [
        fidelity_single(sign_flipped_output(s), s, "both")
        for s in InputEnsemble.basis4().states
    ]
    assert all(abs(v - 1.0) < 1e-12 for v in basis_vals)
    sup_vals = [
        fidelity_single(sign_flipped_output(s), s, "both")
        for s in InputEnsemble.superposition4().states
    ]
    assert all(v < 1.0 - 1e-6 for v in sup_vals)


def test_monotone_degradation_on_error_ladder():
    ladder = [0.0, 0.005, 0.01, 0.02, 0.05]
    values = []
    for e in ladder:
        err = DeviceErrorConfig.uniform(e, cloner=ClonerConfig(F_UC))
        report = average_fidelity("optimized", STRONG, err, InputEnsemble.basis4())
        values.append(report.f_both)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


P_SW = (0.2, 0.6, 1.0)


def switch_line(err: DeviceErrorConfig) -> DeviceErrorConfig:
    """``err`` with the four routed switch legs holding a (3,) line over P_SW."""
    col = np.array(P_SW)
    return replace(err, sw1=replace_unchecked(err.sw1, t12=col, r22=col),
                   sw2=replace_unchecked(err.sw2, t12=col, r11=col))


def test_switch_line_reports_one_value_and_status_per_point():
    strong = CavityParams(g=2.5, kappa_s=0.05, gamma=0.1)
    base = DeviceErrorConfig.uniform(1e-2, cloner=ClonerConfig(F_UC))
    ensemble = InputEnsemble.basis4()
    # only the weight moves along a switch line; the amplitudes have no point axis
    assert labeled(optimized_cnot(ensemble.inputs, strong, switch_line(base))).batch_shape == (4,)
    for circuit in ("optimized", "baseline"):
        report = average_fidelity(circuit, strong, switch_line(base), ensemble)
        assert report.f_both.shape == report.f_up.shape == (3,)
        assert report.fault == 0
        for k, p in enumerate(P_SW):
            point = replace(base, sw1=SwitchCoeffs(t12=p, r22=p), sw2=SwitchCoeffs(t12=p, r11=p))
            single = average_fidelity(circuit, strong, point, ensemble)
            for name in ("f_up", "f_down", "f_both", "success_up", "success_down"):
                assert getattr(report, name)[k] == pytest.approx(getattr(single, name), abs=1e-12)


def test_core_norm_fault_flags_every_switch_point():
    # this core output (superposition inputs, xi1 = 0.1, kappa_s = 0) has norm > 1
    cavity = CavityParams(g=3.0, kappa_s=0.0, gamma=0.1)
    err = replace(DeviceErrorConfig(), xi1=HwpError(0.1))
    ensemble = InputEnsemble.superposition4()
    with pytest.raises(AssertionError, match="output norm exceeds 1"):
        average_fidelity("optimized", cavity, err, ensemble)
    for circuit in ("optimized", "baseline"):
        report = average_fidelity(circuit, cavity, switch_line(err), ensemble)
        assert report.fault.tolist() == [2] * 3
        assert np.isnan(report.f_both).all() and report.f_both.shape == (3,)


def test_one_input_against_a_switch_line_reports_per_point():
    # a line whose only arrays move the weight is still a line: one input
    # against it reports a fault per point, as against a cavity line
    cavity = CavityParams(g=3.0, kappa_s=0.0, gamma=0.1)
    err = DeviceErrorConfig(xi1=HwpError(0.1))
    inp = InputEnsemble.superposition4().states[3]
    with pytest.raises(AssertionError, match="output norm exceeds 1"):
        optimized_cnot(inp, cavity, err)
    for run in (optimized_cnot, baseline_cnot):
        out = run(inp, cavity, switch_line(err))
        assert (out.points, out.inputs) == ((), ())
        assert out.fault.tolist() == [2, 2, 2]
    line = stack([cavity] * 3)
    assert optimized_cnot(inp, line, err).fault.tolist() == [2, 2, 2]


@pytest.mark.parametrize("fault, kind", [
    ([0, 1, 2], NonFiniteOutputError), ([0, 2, 1], OutputNormError)])
def test_a_single_config_fault_names_the_first_failing_input(fault, kind):
    # the first input (in ensemble order) that failed raises, with its own code
    with pytest.raises(kind, match=r": baseline circuit, input 1$"):
        fidelity_module._report(np.zeros(5), np.array(fault), "baseline", "basis4")


def test_ensemble_caches_are_built_once_and_locked():
    ensemble = InputEnsemble.superposition4()
    # the fixed ensembles are built once per process
    assert ensemble is InputEnsemble.superposition4()
    assert InputEnsemble.basis4() is InputEnsemble.basis4()
    # the per-ensemble target map: each input's conjugated ideal CNOT output
    assert ensemble.targets is ensemble.targets
    assert ensemble.inputs.coefficients is ensemble.inputs.coefficients
    assert ensemble.inputs.real_coefficients is ensemble.inputs.real_coefficients
    coefficients = ensemble.inputs.coefficients
    assert ensemble.targets.shape == (1, 4, 4)   # (part, amplitude, input)
    assert np.array_equal(ensemble.targets[0], np.conj(coefficients[:, [0, 1, 3, 2]]).T)
    assert ensemble.inputs.real_coefficients.shape == (4, 1, 4)   # (input, part, basis input)
    for cached in (ensemble.targets, coefficients, ensemble.inputs.real_coefficients):
        with pytest.raises(ValueError, match="read-only"):
            cached[...] = 0
    # a batched copy never inherits the cached coefficients of the item it copies
    first = CnotInputs.basis("R", "L")
    assert first.coefficients.shape == (4,)
    stacked = stack([first, CnotInputs.basis("L", "R")])
    assert stacked.coefficients.shape == (2, 4)
    assert stacked.coefficients[:, 2].tolist() == [0, 1]   # the coefficient of |LR>


def test_targets_are_the_conjugated_truth_table():
    # the labeled reference, conjugated, bit for bit as a real map on (amplitude, input): a
    # real ensemble's is its real part (its imaginary part is exactly 0), a complex one's
    # takes (re, im) to the overlap's real part by (a, -b) and to its imaginary part by (b, a)
    for ensemble in (InputEnsemble.basis4(), InputEnsemble.superposition4(),
                     InputEnsemble.haar_product()):
        expected = np.conj(ideal_cnot_photons(ensemble.inputs).amps).reshape(-1, 4).T
        a, b = expected.real, expected.imag
        if ensemble.kind == "haar_product":
            want = np.array([np.concatenate([a, -b]), np.concatenate([b, a])])
        else:
            assert np.all(b == 0)
            want = a[None]
        assert ensemble.targets.dtype == np.float64
        assert ensemble.targets.tobytes() == np.ascontiguousarray(want).tobytes()


def test_average_fidelity_runs_the_circuit_once(monkeypatch):
    import qdcnot.circuits as circuits

    calls = []
    for name in ("baseline_cnot", "optimized_cnot"):
        real = getattr(fidelity_module, name)
        monkeypatch.setattr(fidelity_module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    stages = circuits._basis_outputs
    monkeypatch.setattr(circuits, "_basis_outputs",
                        lambda *args: calls.append("stages") or stages(*args))
    err = DeviceErrorConfig.uniform(1e-2, cloner=ClonerConfig(F_UC))
    for circuit in ("baseline", "optimized"):
        for ensemble in (InputEnsemble.basis4(), InputEnsemble.haar_product()):
            calls.clear()
            average_fidelity(circuit, STRONG, err, ensemble)
            assert calls == [f"{circuit}_cnot", "stages"]
        calls.clear()
        average_fidelity(circuit, STRONG, switch_line(err), InputEnsemble.superposition4())
        assert calls == [f"{circuit}_cnot", "stages"]


REPORT_VALUES = ("f_up", "f_down", "f_both", "success_up", "success_down")


def test_union_parts_equal_separate_calls():
    parts = [InputEnsemble.basis4(), InputEnsemble.superposition4(), InputEnsemble.haar_product()]
    union = InputEnsemble.union(*parts)
    assert union.kind == "basis4+superposition4+haar_product"
    assert union.states == parts[0].states + parts[1].states + parts[2].states
    assert InputEnsemble.union(*parts) is union  # built once per process
    # a (4,) line of g values at kappa_s = 0 with xi1 = 0.1: g = 0.7 faults on
    # superposition4 and haar_product, not on basis4
    line = stack([CavityParams(g=g, kappa_s=0.0, gamma=0.1) for g in (0.3, 0.7, 1.5, 3.0)])
    err = DeviceErrorConfig.uniform(1e-2, cloner=ClonerConfig(F_UC))
    faulty = DeviceErrorConfig(xi1=HwpError(0.1))
    for circuit in ("baseline", "optimized"):
        for cavity, errors in ((STRONG, err), (line, faulty), (STRONG, switch_line(err))):
            reports = average_fidelity(circuit, cavity, errors, union)
            assert [r.ensemble for r in reports] == [p.kind for p in parts]
            for part, report in zip(parts, reports):
                alone = average_fidelity(circuit, cavity, errors, part)
                assert np.array_equal(report.fault, alone.fault)
                for name in REPORT_VALUES:
                    got, want = (np.asarray(getattr(r, name)) for r in (report, alone))
                    if part.kind == "basis4":
                        assert got.tobytes() == want.tobytes(), (circuit, name)
                    else:
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        faults = [r.fault for r in average_fidelity(circuit, line, faulty, union)]
        assert faults[0] == 0
        assert faults[1][1] == faults[2][1] == 2
    # one config that faults on a part raises, as that part alone does
    with pytest.raises(AssertionError, match="output norm exceeds 1"):
        average_fidelity("baseline", CavityParams(g=0.7, kappa_s=0.0, gamma=0.1), faulty, union)


def test_a_block_reports_each_points_fault_code_and_the_grid_table_names_it():
    # the line and errors of test_union_parts_equal_separate_calls: from g = 0.7
    # on, a superposition input's output norm passes 1 (code 2); no basis one does
    line = stack([CavityParams(g=g, kappa_s=0.0, gamma=0.1) for g in (0.3, 0.7, 1.5, 3.0)])
    faulty = DeviceErrorConfig(xi1=HwpError(0.1))
    for circuit in ("baseline", "optimized"):
        report = average_fidelity(circuit, line, faulty, InputEnsemble.superposition4())
        assert report.fault.tolist() == [0, 2, 2, 2]
        assert not np.isnan(report.f_both[0]) and np.isnan(report.f_both[1:]).all()
        assert average_fidelity(circuit, line, faulty, InputEnsemble.basis4()).fault == 0
    # a grid row's status is "error:" and the builtin base of the error one
    # config failing that check raises
    assert _STATUS[0] == "ok"
    for code, (kind, _) in FAULTS.items():
        base = next(c for c in kind.__mro__ if c.__module__ == "builtins")
        assert _STATUS[code] == f"error:{base.__name__}", code
    assert _STATUS.tolist() == ["ok", "error:ValueError", "error:AssertionError"]


def test_union_rejects_empty_parts():
    basis4 = InputEnsemble.basis4()
    with pytest.raises(ValueError, match="a union needs parts that hold inputs"):
        InputEnsemble.union(basis4, InputEnsemble("none", ()))
    with pytest.raises(ValueError, match="a union needs parts that hold inputs"):
        InputEnsemble.union()


def test_union_rejects_parts_that_share_a_kind():
    # each part's report is known by its kind: two parts of one kind would share it
    basis4, superposition4 = InputEnsemble.basis4(), InputEnsemble.superposition4()
    with pytest.raises(ValueError, match=r"distinct kinds, got \['x'\] repeated"):
        InputEnsemble.union(InputEnsemble("x", basis4.states),
                            InputEnsemble("x", superposition4.states))
    with pytest.raises(ValueError, match=r"got \['basis4'\] repeated"):
        InputEnsemble.union(basis4, superposition4, basis4)


def test_a_mixed_block_equals_its_per_circuit_blocks():
    # four points of both circuits in one block, every field differing
    strong = CavityParams(g=2.5, kappa_s=0.05, gamma=0.1)
    weak = CavityParams(g=0.45, kappa_s=1.0, gamma=0.1)
    points = [
        ("baseline", strong, DeviceErrorConfig.uniform(1e-2)),
        ("optimized", strong, DeviceErrorConfig.uniform(
            1e-2, sw1=SwitchCoeffs(t12=0.899, r22=0.65), sw2=SwitchCoeffs(t12=0.956, r11=0.648),
            cloner=ClonerConfig(0.82))),
        ("baseline", weak, NO_ERR),
        ("optimized", strong, DeviceErrorConfig.uniform(1e-4, cloner=ClonerConfig(F_UC))),
    ]
    circuits = np.array([c for c, _, _ in points])
    cavity, err = stack([(cav, e) for _, cav, e in points])
    ensemble = InputEnsemble.basis4()
    mixed = optimized_cnot(ensemble.inputs, cavity, err, sign_fix=circuits == "optimized")
    weight = np.broadcast_to(mixed.weight, (4,))
    for j, (circuit, cav, e) in enumerate(points):
        run = baseline_cnot if circuit == "baseline" else optimized_cnot
        alone = run(ensemble.inputs, cav, e)
        # a baseline point keeps baseline_cnot's bits, with weight 1.0
        assert columns(mixed)[..., j].tobytes() == columns(alone)[..., 0].tobytes(), j
        assert mixed.spin_weights[..., j].tobytes() == alone.spin_weights[..., 0].tobytes(), j
        assert weight[j] == alone.weight, j
    # through the engine: each point's values equal its circuit's own block
    report = average_fidelity(circuits, cavity, err, ensemble)
    assert report.fault == 0
    for circuit in ("baseline", "optimized"):
        slots = [j for j, (c, _, _) in enumerate(points) if c == circuit]
        cav_block, err_block = stack([points[j][1:] for j in slots])
        block = average_fidelity(circuit, cav_block, err_block, ensemble)
        for name in REPORT_VALUES:
            assert (np.asarray(getattr(report, name))[slots].tobytes()
                    == np.asarray(getattr(block, name)).tobytes()), (circuit, name)
    with pytest.raises(ValueError, match="unknown circuit in"):
        average_fidelity(np.array(["baseline", "cloned"]), cavity, err, ensemble)
