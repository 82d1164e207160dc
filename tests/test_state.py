import math

import numpy as np
import pytest

from qdcnot.state import (
    apply_mode_map,
    inner_product,
    make_state,
    project_spin,
    tensor,
    with_weight,
)

SQH = math.sqrt(0.5)


def basis_state(factor, value):
    return make_state(factor, [(value, 1.0)])


def random_state(rng, factors=("a",), values=("R", "L")):
    labels = [(v,) * len(factors) for v in values] if len(factors) == 1 else None
    if labels is None:
        raise NotImplementedError
    amps = rng.normal(size=len(values)) + 1j * rng.normal(size=len(values))
    return make_state(factors, list(zip(values, amps)))


def test_make_state_single_ket():
    s = make_state(("spin", "p2", "p1", "a"), [(("up", "L", "R", "L"), 1.0)])
    assert s.norm_sq() == pytest.approx(1.0)
    # factor names are stored sorted; labels are permuted to match
    assert s.factors == ("a", "p1", "p2", "spin")
    assert s.amplitude(("L", "R", "L", "up")) == 1.0
    assert s.entries == {("L", "R", "L", "up"): 1.0}


def test_every_factor_but_spin_is_a_polarization():
    # no factor name selects a direction basis: (down, up) are not its values
    with pytest.raises(ValueError, match="'down'"):
        make_state("p1_dir", [("down", 1.0)])
    assert make_state("p1_dir", [("L", 1.0)]).amplitude("L") == 1.0


def test_make_state_spin_init():
    s = make_state("spin", [("up", SQH), ("down", -SQH)])
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_make_state_duplicate_label_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_state("spin", [("up", 1.0), ("up", 0.5)])


def test_identity_map_bit_exact():
    s = make_state("a", [("R", 0.3 + 0.4j), ("L", -0.5j)])
    out = apply_mode_map(s, "a", np.eye(2))
    assert out.entries == s.entries


def test_spin_hadamard_map():
    rules = np.array([[SQH, SQH], [SQH, -SQH]])  # columns: images of up, down
    out = apply_mode_map(basis_state("spin", "up"), "spin", rules)
    assert out.amplitude(("up",)) == pytest.approx(SQH)
    assert out.amplitude(("down",)) == pytest.approx(SQH)


def test_degenerate_hwp_interferes_to_zero():
    # both R and L map onto L with opposite signs: the superposition cancels
    s = make_state("a", [("R", SQH), ("L", SQH)])
    out = apply_mode_map(s, "a", np.array([[0.0, 0.0], [1.0, -1.0]]))
    # oracle: the amplitude vector by hand
    expected = (0.0, SQH * 1.0 + SQH * -1.0)
    assert abs(out.amplitude(("L",)) - expected[1]) < 1e-15
    assert len(out) == 0  # cancelled amplitude is pruned


def test_uncovered_label_names_it():
    # a map must cover both basis values of every factor it acts on
    s = make_state(("a", "spin"), [(("R", "up"), 1.0)])
    with pytest.raises(ValueError, match=r"\('a', 'spin'\).*4x4"):
        apply_mode_map(s, ("a", "spin"), np.eye(2))
    with pytest.raises(ValueError, match="'sideways'"):
        make_state("a", [("sideways", 1.0)])


def test_missing_factor_rejected():
    s = make_state("a", [("R", 1.0)])
    with pytest.raises(ValueError, match="nope"):
        apply_mode_map(s, "nope", np.eye(2))


def test_map_linearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rules = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        combo = make_state("a", list(zip("RL", a * v1 + b * v2)))
        lhs = apply_mode_map(combo, "a", rules)
        out1 = apply_mode_map(make_state("a", list(zip("RL", v1))), "a", rules)
        out2 = apply_mode_map(make_state("a", list(zip("RL", v2))), "a", rules)
        for lbl in (("R",), ("L",)):
            rhs = a * out1.amplitude(lbl) + b * out2.amplitude(lbl)
            assert abs(lhs.amplitude(lbl) - rhs) < 1e-12


def test_tensor_product_of_two_qubits():
    a, b = 0.6, 0.8j
    d, g = 0.28, 0.96
    s = tensor(make_state("p1", [("R", a), ("L", b)]),
               make_state("p2", [("R", d), ("L", g)]))
    assert s.amplitude(("R", "R")) == a * d
    assert s.amplitude(("R", "L")) == a * g
    assert s.amplitude(("L", "R")) == b * d
    assert s.amplitude(("L", "L")) == b * g


def test_tensor_three_factors_norm_one():
    s = tensor(
        tensor(basis_state("p1", "R"), basis_state("p2", "R")),
        make_state("spin", [("up", SQH), ("down", -SQH)]),
    )
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_tensor_with_empty_factor_set_is_identity():
    empty = make_state((), [((), 1.0)])
    s = make_state("a", [("R", 0.6), ("L", 0.8)])
    out = tensor(s, empty)
    assert out.entries == s.entries


def test_tensor_overlapping_factors_rejected():
    s = basis_state("a", "R")
    with pytest.raises(ValueError, match="overlap"):
        tensor(s, s)


def test_tensor_weights_multiply():
    s1 = with_weight(basis_state("a", "R"), 0.5)
    s2 = with_weight(basis_state("b", "L"), 0.25)
    assert tensor(s1, s2).weight == 0.125


def test_project_spin_two_branches():
    # correct gate on the down branch, sign-flipped control-L terms on up
    s = make_state(
        ("p1", "p2", "spin"),
        [
            (("R", "R", "up"), 0.5), (("L", "L", "up"), -0.5),
            (("R", "R", "down"), 0.5), (("L", "L", "down"), 0.5),
        ],
    )
    down, w = project_spin(s, "down")
    assert down.factors == ("p1", "p2")
    assert w == pytest.approx(0.5)
    assert down.amplitude(("L", "L")) == 0.5


def test_project_spin_empty_branch():
    s = make_state(("p1", "spin"), [(("R", "down"), 1.0)])
    up, w = project_spin(s, "up")
    assert w == 0.0 and len(up) == 0


def test_project_spin_weights_sum_to_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = make_state(
            ("p1", "spin"),
            [(("R", "up"), amps[0]), (("R", "down"), amps[1]),
             (("L", "up"), amps[2]), (("L", "down"), amps[3])],
            weight=float(rng.uniform(0.1, 1.0)),
        )
        _, w_up = project_spin(s, "up")
        _, w_down = project_spin(s, "down")
        # oracle: direct norm computation
        direct = s.weight**2 * float(np.sum(np.abs(amps) ** 2))
        assert abs((w_up + w_down) - direct) < 1e-12


def test_project_then_tensor_commutes_with_tensor_then_project():
    rng = np.random.default_rng(11)
    spin_part = make_state(
        ("p1", "spin"),
        [(("R", "up"), 0.5), (("L", "up"), 0.1j), (("R", "down"), -0.7), (("L", "down"), 0.2)],
    )
    other = random_state(rng, factors=("p2",))
    a = project_spin(tensor(spin_part, other), "up")[0]
    b = tensor(project_spin(spin_part, "up")[0], other)
    for lbl in set(a.entries) | set(b.entries):
        assert abs(a.amplitude(lbl) - b.amplitude(lbl)) < 1e-12


def test_inner_product_self_is_one():
    s = make_state("a", [("R", 0.6), ("L", 0.8j)])
    assert inner_product(s, s) == pytest.approx(1.0)


def test_inner_product_orthogonal_kets():
    assert inner_product(basis_state("a", "R"), basis_state("a", "L")) == 0


def test_inner_product_conjugate_linear_in_first_argument():
    s1 = make_state("a", [("R", 1j)])
    s2 = make_state("a", [("R", 1.0)])
    assert inner_product(s1, s2) == pytest.approx(-1j)
    assert inner_product(s2, s1) == pytest.approx(1j)


def test_inner_product_includes_weights():
    s1 = with_weight(basis_state("a", "R"), 0.5)
    s2 = with_weight(basis_state("a", "R"), 0.2)
    assert inner_product(s1, s2) == pytest.approx(0.1)


def test_inner_product_mismatched_factors_rejected():
    with pytest.raises(ValueError, match="differ"):
        inner_product(basis_state("a", "R"), basis_state("b", "R"))


def test_non_finite_amplitude_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        make_state("a", [("R", float("nan"))])


def test_factor_order_is_canonical():
    s1 = tensor(basis_state("b", "L"), basis_state("a", "R"))
    s2 = tensor(basis_state("a", "R"), basis_state("b", "L"))
    assert s1.factors == s2.factors == ("a", "b")
    assert s1.entries == s2.entries
