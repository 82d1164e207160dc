"""Property tests over random configurations inside the declared config domain.

The batched engine is checked against the independent dense-matrix oracle,
the closed form, linearity in the input, single runs, and the bounds the
reported fidelities obey.  The engine runs every input through the photon
basis, combines the basis outputs per input, and averages the fidelities
from that points-last array against each input's truth-table target; the
oracle runs each input whole, and the ensemble averages are checked
against plain means of per-input values built from its output vectors.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, reject, settings
from hypothesis import strategies as st

from qdcnot.cavity import CavityParams, cavity_coeffs
from qdcnot.circuits import (
    NORM_TOL,
    CnotInputs,
    DeviceErrorConfig,
    OutputNormError,
    _basis_outputs,
    baseline_cnot,
    optimized_cnot,
)
from qdcnot.devices import ClonerConfig, CpbsError, HwpError, SwitchCoeffs
from qdcnot.fidelity import InputEnsemble, average_fidelity
from qdcnot.state import stack
import qdcnot.sweep as sweep_mod
from qdcnot.sweep import AXIS_KEYS, AXIS_NAMES, SimConfig, _config_with, _run_grid

from closed_form import output_amplitudes
from labeled import labeled
from oracle import baseline_dense, dense_vector

# no shrink phase: a failure reports the example it was found on, as shrinking
# one on a wrong engine can take minutes where the whole suite takes seconds
PROPERTY = settings(max_examples=40, deadline=None,
                    phases=[phase for phase in Phase if phase is not Phase.shrink])

unit = st.floats(0.0, 1.0)
cavities = st.builds(
    CavityParams, g=st.floats(0.0, 10.0), kappa_s=st.floats(0.0, 10.0),
    gamma=st.floats(1e-3, 10.0),
)
cpbs = st.builds(CpbsError, unit, unit)
switches = st.builds(SwitchCoeffs, unit, unit, unit)
errors = st.builds(
    DeviceErrorConfig,
    xi1=st.builds(HwpError, st.floats(-1.0, 1.0)), xi2=st.builds(HwpError, st.floats(-1.0, 1.0)),
    cpbs1=cpbs, cpbs2=cpbs, cpbs3=cpbs, cpbs4=cpbs, sw1=switches, sw2=switches,
    cloner=st.builds(ClonerConfig, st.floats(0.5, 1.0)),
)
qubits = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2 > 1e-2
)


def qubit(v):
    z = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
    return z / math.sqrt(abs(z[0]) ** 2 + abs(z[1]) ** 2)


inputs = st.builds(lambda c, t: CnotInputs(*qubit(c), *qubit(t)), qubits, qubits)


def oracle_output(inp, cavity, err):
    c = cavity_coeffs(cavity)
    return baseline_dense(
        inp.alpha, inp.beta, inp.delta, inp.gamma_amp, (c.t1, c.r1, c.t0, c.r0),
        err.xi1.xi, err.xi2.xi, err.cpbs1.tau_r, err.cpbs1.tau_l,
    )


@PROPERTY
@given(inputs, cavities, errors)
def test_engine_matches_dense_oracle(inp, cavity, err):
    expected = oracle_output(inp, cavity, err)
    norm = float(np.sum(np.abs(expected) ** 2))
    try:
        out = labeled(baseline_cnot(inp, cavity, err))
    except AssertionError:  # the output norm check, which the oracle must confirm
        assert norm > 1 + 1e-9 - 1e-12
        return
    assert norm <= 1 + 1e-9 + 1e-12
    assert np.max(np.abs(dense_vector(out) - expected)) < 1e-12


def oracle_circuit_output(circuit, inp, cavity, err):
    """The oracle's output of one input, and its norm before the switches and sign fix."""
    v = oracle_output(inp, cavity, err)
    norm = float(np.sum(np.abs(v) ** 2))
    if circuit == "optimized":
        sw1, sw2 = err.sw1, err.sw2
        v = v * math.sqrt(sw1.t12 * sw1.r22 * sw2.t12 * sw2.r11 * err.cloner.fidelity)
        # the sign fix on the spin-up, control-L amplitudes (index p1*4 + p2*2 + spin)
        v[[4, 6]] *= -math.sqrt((1 - err.cpbs2.tau_l) * (1 - err.cpbs3.tau_l)
                                * (1 - err.cpbs4.tau_r))
    return v, norm


@PROPERTY
@given(st.lists(inputs, min_size=1, max_size=6), st.lists(cavities, min_size=1, max_size=3),
       st.lists(errors, min_size=3, max_size=3), st.sampled_from(["baseline", "optimized"]))
# superposition inputs through a non-unitary HWP: at both points some
# expanded output exceeds norm 1, although no basis column does
@example(list(InputEnsemble.superposition4().states),
         [CavityParams(g=3.0, kappa_s=0.0, gamma=0.1), CavityParams(g=2.5, kappa_s=0.05, gamma=0.1)],
         [DeviceErrorConfig(xi1=HwpError(0.1))] * 3, "optimized")
def test_basis_expansion_matches_oracle_on_each_input(inps, cavs, errs, circuit):
    n = len(cavs)
    errs = errs[:n]
    run = baseline_cnot if circuit == "baseline" else optimized_cnot
    cavity, err = stack(cavs), stack(errs)
    out = labeled(run(stack(inps), cavity, err))
    amps = (out.amps * np.asarray(out.weight)[..., None, None, None]).reshape(n, len(inps), 8)
    fault = np.broadcast_to(out.fault, (n, len(inps)))
    # one input against the line has only the line's point axis
    single = labeled(run(inps[0], cavity, err))
    assert single.amps.shape == (n, 2, 2, 2)
    assert np.max(np.abs(single.amps - out.amps[:, 0])) < 1e-12
    report = average_fidelity(circuit, cavity, err, InputEnsemble("drawn", tuple(inps)))
    for p in range(n):
        norms = []
        for m, inp in enumerate(inps):
            expected, norm = oracle_circuit_output(circuit, inp, cavs[p], errs[p])
            norms.append(norm)
            assert np.max(np.abs(amps[p, m] - expected)) < 1e-12
            # the norm check runs on each expanded output
            if fault[p, m]:
                assert fault[p, m] == 2 and norm > 1 + 1e-9 - 1e-12
            else:
                assert norm <= 1 + 1e-9 + 1e-12
        if report.status[p] == "ok":
            assert max(norms) <= 1 + 1e-9 + 1e-12
        else:
            assert report.status[p] == "error:AssertionError" and max(norms) > 1 + 1e-9 - 1e-12


@PROPERTY
@given(inputs, cavities, errors)
def test_engine_matches_closed_form(inp, cavity, err):
    assume(np.sum(np.abs(oracle_output(inp, cavity, err)) ** 2) <= 1)
    amps = output_amplitudes(inp, cavity, err)
    assert abs(amps.up[0] - amps.rr_up_closed) < 1e-12


@PROPERTY
@given(qubits, qubits, qubits, st.complex_numbers(max_magnitude=2), cavities, errors)
def test_output_is_linear_in_the_input(c1, c2, target, a, cavity, err):
    # control (a c1 + c2)/n, a normalized superposition of two controls
    u, v, t = qubit(c1), qubit(c2), qubit(target)
    mix = a * u + v
    n = math.sqrt(abs(mix[0]) ** 2 + abs(mix[1]) ** 2)
    assume(n > 1e-3)
    batch = stack([CnotInputs(*u, *t), CnotInputs(*v, *t), CnotInputs(*(mix / n), *t)])
    out = labeled(optimized_cnot(batch, cavity, err))
    amps = out.amps * out.weight
    assert np.max(np.abs(amps[2] - (a * amps[0] + amps[1]) / n)) < 1e-12


@PROPERTY
@given(st.lists(cavities, min_size=1, max_size=3), st.lists(errors, min_size=3, max_size=3),
       st.lists(inputs, min_size=1, max_size=3), st.sampled_from(["baseline", "optimized"]))
def test_batch_of_points_and_inputs_equals_single_runs(cavs, errs, inps, circuit):
    n = len(cavs)
    errs = errs[:n]
    run = baseline_cnot if circuit == "baseline" else optimized_cnot
    out = labeled(run(stack(inps), stack(cavs), stack(errs)))
    assert out.amps.shape == (n, len(inps), 2, 2, 2)
    weight = np.broadcast_to(out.weight, (n, len(inps)))
    fault = np.broadcast_to(out.fault, (n, len(inps)))
    for p in range(n):
        for m, inp in enumerate(inps):
            try:
                single = labeled(run(inp, cavs[p], errs[p]))
            except AssertionError:
                assert fault[p, m] == 2
                continue
            assert fault[p, m] == 0
            assert single.weight == pytest.approx(weight[p, m], abs=1e-12)
            assert np.max(np.abs(single.amps - out.amps[p, m])) < 1e-12

    # the ensemble average of a row equals the average of each point alone
    ensemble = InputEnsemble("drawn", tuple(inps))
    row = average_fidelity(circuit, stack(cavs), stack(errs), ensemble)
    for p in range(n):
        try:
            point = average_fidelity(circuit, cavs[p], errs[p], ensemble)
        except AssertionError:
            assert row.status[p] == "error:AssertionError" and math.isnan(row.f_both[p])
            continue
        assert row.status[p] == "ok"
        for name in ("f_up", "f_down", "f_both", "success_up", "success_down"):
            assert getattr(point, name) == pytest.approx(getattr(row, name)[p], abs=1e-12)


@PROPERTY
@given(st.lists(inputs, min_size=1, max_size=4), cavities, errors,
       st.sampled_from(["baseline", "optimized"]))
# a non-unitary HWP2 puts more than half of |L L>'s weight into the spin-up
# branch, so f_up, which divides by the ideal herald weight 1/2, exceeds 1
@example([CnotInputs.basis("L", "L")], CavityParams(g=4.0, kappa_s=1.0, gamma=1.0),
         DeviceErrorConfig(xi2=HwpError(1.0)), "baseline")
def test_fidelities_obey_their_cauchy_schwarz_bounds(inps, cavity, err, circuit):
    # |<target|out>|^2 <= |out|^2 per branch and input: a branch fidelity is
    # at most twice its branch weight, a folded one at most the weight, and
    # no weight exceeds the norm bound the output check enforces
    try:
        report = average_fidelity(circuit, cavity, err, InputEnsemble("drawn", tuple(inps)))
    except AssertionError:  # some output norm exceeds 1
        reject()
    for f, folded, success in ((report.f_up, report.f_up_folded, report.success_up),
                               (report.f_down, report.f_down_folded, report.success_down)):
        assert 0 <= f <= 2 * success + 1e-12
        assert folded <= success + 1e-12
        assert success <= 1 + NORM_TOL + 1e-12
    assert report.success_up + report.success_down <= 1 + NORM_TOL + 1e-12
    assert 0 <= report.f_both <= 1 + 1e-12


def test_branch_fidelity_can_exceed_one():
    # the @example above: the output norm stays below 1 while f_up > 1
    inp = CnotInputs.basis("L", "L")
    cavity, err = CavityParams(g=4.0, kappa_s=1.0, gamma=1.0), DeviceErrorConfig(xi2=HwpError(1.0))
    report = average_fidelity("baseline", cavity, err, InputEnsemble("drawn", (inp,)))
    assert report.f_up == pytest.approx(1.0338, abs=1e-4)
    assert report.success_up + report.success_down == pytest.approx(
        np.sum(np.abs(oracle_output(inp, cavity, err)) ** 2), abs=1e-12)
    assert report.success_up + report.success_down < 1
    assert report.f_up_folded <= report.success_up


def wave_plate_bound(err):
    """(1 + |xi1|)(1 + |xi2|): every stage but the two HWPs is a contraction,
    and an HWP's squared singular values are 1 +- xi, so no output norm^2
    exceeds it."""
    return (1 + abs(err.xi1.xi)) * (1 + abs(err.xi2.xi))


@PROPERTY
@given(st.lists(inputs, min_size=1, max_size=6), st.lists(cavities, min_size=1, max_size=3),
       st.lists(errors, min_size=3, max_size=3), st.sampled_from(["baseline", "optimized"]))
def test_output_norm_stays_within_the_wave_plate_bound(inps, cavs, errs, circuit):
    n = len(cavs)
    errs = errs[:n]
    run = baseline_cnot if circuit == "baseline" else optimized_cnot
    # flags, never raises
    out = labeled(run(stack(inps), stack(cavs), stack(errs)))
    bound = np.array([wave_plate_bound(err) for err in errs])[:, None]
    assert np.all(out.norm_sq() <= bound * (1 + 1e-12))


@PROPERTY
@given(st.lists(inputs, min_size=1, max_size=6), st.lists(cavities, min_size=1, max_size=3),
       st.lists(errors.map(lambda err: replace(err, xi1=HwpError(0.0), xi2=HwpError(0.0))),
                min_size=3, max_size=3),
       st.sampled_from(["baseline", "optimized"]))
def test_unitary_wave_plates_never_fault(inps, cavs, errs, circuit):
    # with xi1 = xi2 = 0 the wave-plate bound is 1: no output check can fail
    n = len(cavs)
    errs = errs[:n]
    run = baseline_cnot if circuit == "baseline" else optimized_cnot
    out = run(stack(inps), stack(cavs), stack(errs))
    assert not np.any(out.fault)


def gram_top(cavity, err):
    """λmax of G, the Gram matrix of the four photon-basis outputs with both
    spin branches summed: an input's output norm^2 is c^H G c for its
    coefficients c, so λmax is the largest over all two-photon inputs."""
    x = _basis_outputs(cavity_coeffs(cavity), err, ())[..., 0]
    return np.linalg.eigvalsh(np.einsum("sip,sjp->ij", x.conj(), x))[-1]


@PROPERTY
@given(st.lists(inputs, min_size=1, max_size=4), cavities, errors)
# every error at 0.1 on the strong cavity: G's top eigenvector is this
# product input, whose norm^2 1.0020120 exceeds 1, so it raises
@example([CnotInputs(*qubit([0.157, 0.0, -0.988, 0.0]), *qubit([1.0, 0.0, -1.0, 0.0]))],
         CavityParams(g=2.5, kappa_s=0.05, gamma=0.1), DeviceErrorConfig.uniform(0.1))
def test_gram_top_eigenvalue_bounds_each_output_norm(inps, cavity, err):
    top = gram_top(cavity, err)
    # flags, never raises
    norms = baseline_cnot(stack(inps), cavity, err).spin_weights.sum(axis=0)[:, 0]
    assert np.all(norms <= top + 1e-12)
    for inp, norm in zip(inps, norms):
        if abs(norm - 1 - NORM_TOL) < 1e-12:
            reject()  # too close to the check's bound to say which side a single run lands on
        if norm > 1 + NORM_TOL:
            with pytest.raises(OutputNormError):
                baseline_cnot(inp, cavity, err)


@PROPERTY
@given(cavities, cpbs)
def test_gram_top_eigenvalue_stays_within_one_at_unitary_wave_plates(cavity, cpbs1):
    # with xi1 = xi2 = 0 no two-photon input, product or not, exceeds norm^2 1
    assert gram_top(cavity, DeviceErrorConfig(cpbs1=cpbs1)) <= 1 + NORM_TOL


def oracle_ideal_spin():
    """The spin ket the error-free optimized circuit ends in, from the oracle on |R R>."""
    v = baseline_dense(1, 0, 1, 0, (0.0, 1.0, 1.0, 0.0))
    v[[4, 6]] *= -1  # the sign fix; nothing reaches these |L ...> terms from |R R>
    spin = v[:2]  # |R R up>, |R R down>
    return spin / np.linalg.norm(spin)


FIXED_ENSEMBLES = st.sampled_from([InputEnsemble.basis4(), InputEnsemble.superposition4(),
                                   InputEnsemble.haar_product()])
ENSEMBLES = st.one_of(
    st.lists(inputs, min_size=1, max_size=5).map(lambda s: InputEnsemble("drawn", tuple(s))),
    FIXED_ENSEMBLES,
)


@PROPERTY
@given(ENSEMBLES, cavities, errors, st.sampled_from(["baseline", "optimized"]))
# inputs 2 and 3 exceed norm 1, inputs 0 and 1 do not
@example(InputEnsemble.superposition4(), CavityParams(g=3.0, kappa_s=0.0, gamma=0.1),
         DeviceErrorConfig(xi1=HwpError(0.1)), "optimized")
def test_average_fidelity_is_the_mean_of_oracle_values(ensemble, cavity, err, circuit):
    # each input's five values from its oracle output against the CNOT truth
    # table, then the plain mean; a config with an output above norm 1
    # raises, naming the first such input in ensemble order
    spins = {"up": np.array([1, 0]), "down": np.array([0, 1]), "both": oracle_ideal_spin()}
    values, norms = [], []
    for inp in ensemble.states:
        out, norm = oracle_circuit_output(circuit, inp, cavity, err)
        a, b, d, g = inp.alpha, inp.beta, inp.delta, inp.gamma_amp
        photons = np.array([a * d, a * g, b * g, b * d])  # RR, RL, LR, LL after the CNOT
        out = out.reshape(4, 2)  # (photon pair, spin)
        overlap = {k: np.vdot(np.kron(photons, s), out.ravel()) for k, s in spins.items()}
        values.append([2 * abs(overlap["up"]) ** 2, 2 * abs(overlap["down"]) ** 2,
                       abs(overlap["both"]) ** 2, *np.sum(np.abs(out) ** 2, axis=0)])
        norms.append(norm)
    over = [norm > 1 + NORM_TOL for norm in norms]
    if any(abs(norm - 1 - NORM_TOL) < 1e-12 for norm in norms):
        reject()  # too close to the check's bound to say which side the engine lands on
    if any(over):
        with pytest.raises(OutputNormError, match=f"{circuit} circuit, input {over.index(True)}$"):
            average_fidelity(circuit, cavity, err, ensemble)
        return
    report = average_fidelity(circuit, cavity, err, ensemble)
    expected = np.mean(values, axis=0)
    got = [report.f_up, report.f_down, report.f_both, report.success_up, report.success_down]
    assert np.max(np.abs(np.array(got) - expected)) < 1e-12


def at_p_sw(err, p):
    """``err`` with the four routed switch legs at ``p``, as the p_sw axis sets them."""
    return replace(err, sw1=replace(err.sw1, t12=p, r22=p), sw2=replace(err.sw2, t12=p, r11=p))


def report_or_fault(circuit, cavity, err, ensemble):
    """The five values and the status, or the fault one config raises as its status."""
    try:
        r = average_fidelity(circuit, cavity, err, ensemble)
    except (OutputNormError, ValueError) as fault:
        return None, f"{type(fault).__name__}: {fault}"
    return [r.f_up, r.f_down, r.f_both, r.success_up, r.success_down], r.status


@PROPERTY
# p from 1e-12 keeps F p^4 among the normal floats, where a relative tolerance holds
@given(FIXED_ENSEMBLES, cavities, errors, st.floats(1e-12, 1.0))
def test_optimized_report_scales_as_p_sw_to_the_fourth(ensemble, cavity, err, p):
    # each routed leg contributes sqrt(p) to the optimized circuit's weight and
    # moves no amplitude, so every value at p is the value at p = 1 times p^4;
    # the baseline routes through no switch and does not move at all
    for circuit in ("optimized", "baseline"):
        at_one, status_one = report_or_fault(circuit, cavity, at_p_sw(err, 1.0), ensemble)
        at_p, status_p = report_or_fault(circuit, cavity, at_p_sw(err, p), ensemble)
        assert status_p == status_one
        if at_one is None:
            continue
        if circuit == "optimized":
            np.testing.assert_allclose(at_p, np.array(at_one) * p ** 4, rtol=1e-12, atol=0)
        else:
            assert at_p == at_one


@st.composite
def grids(draw):
    """Configs over any two distinct axes, ranges reaching outside every domain."""
    axis1, axis2 = draw(st.permutations(AXIS_NAMES))[:2]
    overrides = dict(
        circuit=draw(st.sampled_from(["baseline", "optimized"])),
        ensemble=draw(st.sampled_from(["basis4", "superposition4"])),
        xi1=draw(st.floats(-1.0, 1.0)), tau_r1=draw(unit),
        kappa_s_over_kappa=draw(st.floats(0.0, 3.0)), g_over_kappa=draw(st.floats(0.0, 3.0)),
    )
    for n, axis in ((1, axis1), (2, axis2)):
        lo = draw(st.floats(-0.5, 2.0))
        overrides.update({
            f"axis{n}": axis, f"axis{n}_lo": lo, f"axis{n}_hi": lo + draw(st.floats(0.01, 2.0)),
            f"axis{n}_points": draw(st.integers(2, 5)),
        })
    return _config_with(**overrides)


def point_config(cfg, axis, value):
    """``cfg`` with every key ``axis`` sets moved to ``value``, unvalidated."""
    return SimConfig({**cfg.values, **dict.fromkeys(AXIS_KEYS[axis], value)})


def assert_rows_match_point_builds(cfg, rows):
    """Each grid row equals the same point built and evaluated on its own."""
    v = cfg.values
    ensemble = cfg.input_ensemble()
    for row in rows:
        point = point_config(point_config(cfg, v["axis1"], row[0]), v["axis2"], row[1])
        try:
            cavity, err = point.cavity(), point.device_errors()
        except ValueError as exc:  # the point is outside a component's domain
            assert row[5] == f"error:{type(exc).__name__}"
            assert all(math.isnan(x) for x in row[2:5])
            continue
        try:
            report = average_fidelity(v["circuit"], cavity, err, ensemble)
        except OutputNormError:  # grid rows keep the assertion's name
            assert row[5] == "error:AssertionError"
            assert all(math.isnan(x) for x in row[2:5])
            continue
        assert row[5] == "ok"
        for got, want in zip(row[2:5], (report.f_up, report.f_down, report.f_both)):
            assert got == pytest.approx(want, abs=1e-12)


@PROPERTY
@given(grids())
# maps on different grid dims: the wave plates and CPBSs move along axis1,
# the cavity along axis2; invalid rows and columns on both axes
@example(_config_with(
    circuit="optimized", ensemble="superposition4", xi1=0.05,
    axis1="err", axis1_lo=-0.2, axis1_hi=1.2, axis1_points=4,
    axis2="kappa_s_over_kappa", axis2_lo=-0.5, axis2_hi=2.0, axis2_points=5,
))
# a weight-only axis first: the switches scale the weight along axis1,
# every amplitude moves along axis2
@example(_config_with(
    circuit="optimized", ensemble="basis4",
    axis1="p_sw", axis1_lo=-0.5, axis1_hi=1.0, axis1_points=4,
    axis2="err", axis2_lo=-0.2, axis2_hi=1.2, axis2_points=5,
))
def test_grid_lines_equal_per_point_builds(cfg):
    v = cfg.values
    rows = list(_run_grid(cfg))[1:]  # the point rows, header dropped
    assert len(rows) == v["axis1_points"] * v["axis2_points"]
    assert_rows_match_point_builds(cfg, rows)


# axis -> the config field one of its values sets, read from a block's config
AXIS_FIELD = {
    "kappa_s_over_kappa": lambda cavity, err: cavity.kappa_s,
    "g_over_kappa": lambda cavity, err: cavity.g,
    "err": lambda cavity, err: err.xi1.xi,
    "p_sw": lambda cavity, err: err.sw1.t12,
}


def test_chunk_boundaries_keep_every_point_row(monkeypatch):
    # 12 amplitude points and 4 values per axis in a block.  err over
    # linspace(-0.5, 1.5, 9) is valid on 0..1 only, kappa_s over
    # linspace(-1, 1, 5) on 0..1 only, so invalid rows or columns lie before
    # the first block and after the last
    monkeypatch.setattr(sweep_mod, "BLOCK_BYTES", 12 * 2 * 4 * 8)  # 12 points on basis4
    real = sweep_mod.average_fidelity
    err_axis = dict(lo=-0.5, hi=1.5, points=9)
    kappa_axis = dict(lo=-1.0, hi=1.0, points=5)
    # err x kappa_s: 3 valid columns, so 4 rows fit a block, then 1;
    # kappa_s x err: 5 valid columns split 4 | 1, and all 3 rows fit;
    # err x p_sw: p_sw only scales the weight, so 4 err rows per block;
    # p_sw x kappa_s: still at most 4 p_sw values per block
    for (axis1, range1), (axis2, range2), blocks in (
        (("err", err_axis), ("kappa_s_over_kappa", kappa_axis), [(4, 3), (1, 3)]),
        (("kappa_s_over_kappa", kappa_axis), ("err", err_axis), [(3, 4), (3, 1)]),
        (("err", err_axis), ("p_sw", kappa_axis), [(4, 3), (1, 3)]),
        (("p_sw", dict(lo=0.0, hi=1.0, points=6)), ("kappa_s_over_kappa", kappa_axis),
         [(4, 3), (2, 3)]),
    ):
        calls = []

        def spy(circuit, cavity, err, ensemble):
            calls.append(tuple(AXIS_FIELD[axis](cavity, err) for axis in (axis1, axis2)))
            return real(circuit, cavity, err, ensemble)

        monkeypatch.setattr(sweep_mod, "average_fidelity", spy)
        overrides = dict(circuit="optimized", ensemble="basis4", axis1=axis1, axis2=axis2)
        for n, axis_range in ((1, range1), (2, range2)):
            overrides.update({f"axis{n}_{k}": x for k, x in axis_range.items()})
        cfg = _config_with(**overrides)
        rows = list(_run_grid(cfg))[1:]  # the point rows, header dropped
        assert len(rows) == range1["points"] * range2["points"]
        # the block's axis1 values on an (m, 1) array, its axis2 values on (1, n)
        assert [(np.shape(a)[0], np.shape(b)[1]) for a, b in calls] == blocks
        assert all(np.shape(a)[1:] == (1,) and np.shape(b)[:1] == (1,) for a, b in calls)
        # together the blocks hold each valid point exactly once, in row order
        points = [(x, y) for a, b in calls for x in np.ravel(a) for y in np.ravel(b)]
        valid = [(r[0], r[1]) for r in rows if r[5] != "error:ValueError"]
        assert sorted(points) == valid and len(set(points)) == len(points)
        assert_rows_match_point_builds(cfg, rows)


def rotated(ensemble, u1, u2):
    """``ensemble`` with the 2x2 unitary ``u1`` applied to each control, ``u2`` to each target."""
    return InputEnsemble("rotated", tuple(
        CnotInputs(*(u1 @ [s.alpha, s.beta]), *(u2 @ [s.delta, s.gamma_amp]))
        for s in ensemble.states
    ))


def unitary(v):
    """The SU(2) matrix whose first column is ``qubit(v)``."""
    a, b = qubit(v)
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


@PROPERTY
@given(cavities, errors, st.sampled_from(["baseline", "optimized"]), qubits, qubits)
def test_haar_product_average_is_rotation_invariant(cavity, err, circuit, v1, v2):
    # every reported value is at most quadratic in each photon's state, and
    # the six cardinal states are a qubit 2-design: rotating either photon's
    # six states leaves the 36-input average unchanged
    ensemble = InputEnsemble.haar_product()
    try:
        exact = average_fidelity(circuit, cavity, err, ensemble)
        moved = average_fidelity(circuit, cavity, err, rotated(ensemble, unitary(v1), unitary(v2)))
    except AssertionError:  # some output norm exceeds 1
        reject()
    for name in ("f_up", "f_down", "f_both", "success_up", "success_down"):
        assert getattr(moved, name) == pytest.approx(getattr(exact, name), abs=1e-12)
