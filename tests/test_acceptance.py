"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qdcnot.cavity import CavityCoeffs, CavityParams, cavity_coeffs
from qdcnot.circuits import (
    CnotInputs,
    DeviceErrorConfig,
    baseline_cnot,
    cnot_prefactor,
    extract_branch_amplitudes,
    optimized_cnot,
    output_amplitudes,
    rr_up_closed_form,
    sign_fix_amplitude,
)
from qdcnot.devices import ClonerConfig, CpbsError, HwpError, SwitchCoeffs
from qdcnot.fidelity import InputEnsemble, average_fidelity
from qdcnot.sweep import calibrate_ensemble, check_anchors, reproduce

SQH = math.sqrt(0.5)


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def random_inputs(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    na = math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    nt = math.sqrt(abs(v[2]) ** 2 + abs(v[3]) ** 2)
    return CnotInputs(v[0] / na, v[1] / na, v[2] / nt, v[3] / nt)


def test_criterion_1_cavity_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        c = cavity_coeffs(CavityParams(
            g=float(rng.uniform(0, 5)),
            kappa_s=float(rng.uniform(0, 3)),
            gamma=float(rng.uniform(0.01, 1.0)),
        ))
        worst = max(worst, abs(c.r_signed - 1 - c.t_signed),
                    abs(c.r0_signed - 1 - c.t0_signed))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: reflection/transmission identity over 1000 random parameter sets",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst residual {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_spot_coefficients():
    c = cavity_coeffs(CavityParams(g=2.5, kappa_s=0.05, gamma=0.1))
    ok = abs(c.t1 - 0.0079349) <= 1e-6 and abs(c.r0 - 0.0243902) <= 1e-6
    report(
        "criterion 2: strong-coupling spot values t1, r0",
        ok,
        f"t1={c.t1:.9f}, r0={c.r0:.9f}",
    )


def test_criterion_3_ideal_limit_exactness():
    rng = np.random.default_rng(103)
    ideal = CavityCoeffs.ideal()
    worst = 0.0
    for _ in range(100):
        inputs = random_inputs(rng)
        a, b = inputs.alpha, inputs.beta
        d, g = inputs.delta, inputs.gamma_amp
        out = baseline_cnot(inputs, ideal)
        target = {
            ("R", "R", "up"): a * d * SQH, ("R", "L", "up"): a * g * SQH,
            ("L", "L", "up"): -b * d * SQH, ("L", "R", "up"): -b * g * SQH,
            ("R", "R", "down"): a * d * SQH, ("R", "L", "down"): a * g * SQH,
            ("L", "L", "down"): b * d * SQH, ("L", "R", "down"): b * g * SQH,
        }
        for lbl in set(out.entries) | set(target):
            worst = max(worst, abs(out.amplitude(lbl) - target.get(lbl, 0)))
        opt = optimized_cnot(inputs, ideal)
        gate = {
            ("R", "R"): a * d, ("R", "L"): a * g, ("L", "L"): b * d, ("L", "R"): b * g,
        }
        for (c1, c2), amp in gate.items():
            for spin in ("up", "down"):
                worst = max(worst, abs(opt.amplitude((c1, c2, spin)) - amp * SQH))
    report(
        "criterion 3: error-free limit reproduces the two-branch output and the "
        "sign-free gate on both branches",
        worst <= 1e-12,
        f"worst amplitude error {worst:.2e} over 100 random inputs",
    )


def test_criterion_4_closed_form_cross_validation():
    rng = np.random.default_rng(104)
    worst = 0.0
    reference_gap = 0.0
    for _ in range(500):
        coeffs = cavity_coeffs(CavityParams(
            g=float(rng.uniform(0.2, 3)), kappa_s=float(rng.uniform(0, 2)),
            gamma=float(rng.uniform(0.05, 0.5)),
        ))
        e = rng.uniform(0, 0.1, size=10)
        err = DeviceErrorConfig(
            xi1=HwpError(e[0]), xi2=HwpError(e[1]),
            cpbs1=CpbsError(e[2], e[3]), cpbs2=CpbsError(e[4], e[5]),
            cpbs3=CpbsError(e[6], e[7]), cpbs4=CpbsError(e[8], e[9]),
        )
        inputs = random_inputs(rng)
        amps = output_amplitudes(inputs, coeffs, err)
        worst = max(worst, abs(amps.up[0] - amps.rr_up_closed))
        reference_gap = max(reference_gap, abs(amps.rr_up_reference - amps.rr_up_closed))
    # error-free reduction is exact
    inputs = CnotInputs(0.6, 0.8, 0.28, 0.96)
    ideal_value = rr_up_closed_form(inputs, CavityCoeffs.ideal(), DeviceErrorConfig())
    exact = abs(ideal_value * math.sqrt(2) - 0.6 * 0.28) < 1e-15
    report(
        "criterion 4: closed-form output coefficient matches the circuit engine "
        "(500 random configurations, corrected coefficient variant)",
        worst <= 1e-9 and exact and reference_gap > 0,
        f"worst |closed-engine| {worst:.2e}; uncorrected variant deviates "
        f"by up to {reference_gap:.2e} (reference-variant discrepancy reported)",
    )


def test_criterion_5_reference_anchors():
    start = time.perf_counter()
    ensemble = calibrate_ensemble()
    results = {r.anchor.name: r for r in check_anchors(ensemble)}
    elapsed = time.perf_counter() - start

    must_pass = (
        "baseline_strong_ideal", "baseline_weak_ideal", "baseline_weak_err1e-2",
        "optimized_measured_switches", "optimized_best_case",
    )
    ok = ensemble.kind == "basis4" and elapsed < 10.0
    details = []
    for name in must_pass:
        r = results[name]
        ok = ok and r.status == "PASS"
        details.append(f"{name}={r.value:.4f}")
    # the remaining anchor is out of reach of every supported ensemble at
    # exactly 1e-2 errors; the criterion's fallback applies: the report
    # documents the best-achieving ensemble and residual, and the
    # qualitative claims must still hold (checked inside DOCUMENTED status)
    doc = results["baseline_strong_err1e-2"]
    ok = ok and doc.status == "DOCUMENTED" and doc.best_ensemble != ""
    details.append(
        f"baseline_strong_err1e-2={doc.value:.4f} documented residual "
        f"{doc.value - doc.anchor.expected:+.4f}"
    )
    report(
        "criterion 5: reference fidelity anchors on the calibration ensemble",
        ok,
        f"ensemble={ensemble.kind}, {elapsed:.2f}s, " + ", ".join(details),
    )


def test_criterion_6_prefactor_property():
    rng = np.random.default_rng(106)
    err = DeviceErrorConfig(
        sw1=SwitchCoeffs(t12=0.899, r22=0.65),
        sw2=SwitchCoeffs(t12=0.956, r11=0.648),
        cloner=ClonerConfig(0.82),
    )
    expected = math.sqrt(0.899 * 0.65 * 0.956 * 0.648 * 0.82)
    coeffs = cavity_coeffs(CavityParams(g=2.5, kappa_s=0.05, gamma=0.1))
    worst = 0.0
    for _ in range(25):
        out = optimized_cnot(random_inputs(rng), coeffs, err)
        worst = max(worst, abs(out.weight - expected))
    squared = cnot_prefactor(err) ** 2
    report(
        "criterion 6: global success amplitude factorizes, independent of input",
        worst <= 1e-12 and abs(squared - 0.29684) < 1e-5,
        f"worst deviation {worst:.2e}, squared weight {squared:.6f}",
    )


def test_criterion_7_truth_table_and_sign_fix():
    table = {
        ("R", "R"): ("R", "R"), ("R", "L"): ("R", "L"),
        ("L", "R"): ("L", "L"), ("L", "L"): ("L", "R"),
    }
    ok = True
    for (c_in, t_in), (c_out, t_out) in table.items():
        out = optimized_cnot(CnotInputs.basis(c_in, t_in), CavityCoeffs.ideal())
        for spin in ("up", "down"):
            amp = out.amplitude((c_out, t_out, spin))
            ok = ok and abs(amp - SQH) <= 1e-12  # exact, positive amplitude
    # sign-fix placement: the optimized/baseline coefficient ratio equals the
    # conditional flip amplitude exactly on the spin-up control-L terms and 1
    # everywhere else
    rng = np.random.default_rng(107)
    coeffs = cavity_coeffs(CavityParams(g=2.5, kappa_s=0.05, gamma=0.1))
    for _ in range(25):
        e = rng.uniform(0, 0.1, size=10)
        err = DeviceErrorConfig(
            xi1=HwpError(e[0]), xi2=HwpError(e[1]),
            cpbs1=CpbsError(e[2], e[3]), cpbs2=CpbsError(e[4], e[5]),
            cpbs3=CpbsError(e[6], e[7]), cpbs4=CpbsError(e[8], e[9]),
        )
        inputs = random_inputs(rng)
        up_b, down_b = extract_branch_amplitudes(baseline_cnot(inputs, coeffs, err))
        up_o, down_o = extract_branch_amplitudes(optimized_cnot(inputs, coeffs, err))
        pref, flip = cnot_prefactor(err), sign_fix_amplitude(err)
        for i in range(4):
            want = pref * (flip if i >= 2 else 1.0)
            if abs(up_b[i]) > 1e-12:
                ok = ok and abs(up_o[i] / up_b[i] - want) <= 1e-12
            if abs(down_b[i]) > 1e-12:
                ok = ok and abs(down_o[i] / down_b[i] - pref) <= 1e-12
    report(
        "criterion 7: gate truth table on both branches and sign-fix placement",
        ok,
    )


def test_criterion_8_determinism_and_performance(tmp_path):
    start = time.perf_counter()
    first = reproduce("fig4b", str(tmp_path / "run1"))
    first_time = time.perf_counter() - start
    second = reproduce("fig4b", str(tmp_path / "run2"))
    b1, b2 = (Path(out["csv"]).read_bytes() for out in (first, second))
    rows = b1.count(b"\n") - 1
    report(
        "criterion 8: err/p_sw surface reproduction is fast and byte-deterministic",
        first_time < 60.0 and b1 == b2 and rows == 31 * 41 and first["ok"],
        f"{first_time:.2f}s for {rows} grid points; repeated runs give identical bytes",
    )
