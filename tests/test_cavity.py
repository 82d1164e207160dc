import itertools
import math

import numpy as np
import pytest

from qdcnot.cavity import (
    CavityCoeffs,
    CavityParams,
    cavity_coeffs,
    interaction_map,
    is_strong_coupling,
)
from qdcnot.state import PRUNE_TOL, apply_mode_map, make_state

# (pol, dir, spin) labels: the bits pol (R, L), dir (down, up), spin (up, down)
LABELS = [(p, d, s) for p in "RL" for d in ("down", "up") for s in ("up", "down")]
SPINS = ("up", "down")
# (pol, dir) labels in the row and column order of one spin block of interaction_map
PD = [(p, d) for p in "RL" for d in ("down", "up")]
STRONG = CavityParams(g=2.5, kappa_s=0.05, gamma=0.1)
WEAK = CavityParams(g=0.45, kappa_s=1.0, gamma=0.1)


def test_strong_coupling_spot_values():
    c = cavity_coeffs(STRONG)
    # direct evaluation: t = -0.2/25.205, t0 = -0.2/0.205
    assert c.t1 == pytest.approx(0.2 / 25.205, abs=1e-12)
    assert c.r1 == pytest.approx(1 - 0.2 / 25.205, abs=1e-12)
    assert c.t0 == pytest.approx(0.2 / 0.205, abs=1e-12)
    assert c.r0 == pytest.approx(1 - 0.2 / 0.205, abs=1e-12)
    assert c.t1 == pytest.approx(0.0079349, abs=1e-6)
    assert c.r0 == pytest.approx(0.0243902, abs=1e-6)


def test_weak_coupling_spot_values():
    c = cavity_coeffs(WEAK)
    assert c.t1 == pytest.approx(0.2 / 1.11, abs=1e-12)
    assert c.t1 == pytest.approx(0.1801802, abs=1e-6)
    assert c.r1 == pytest.approx(0.8198198, abs=1e-6)


def test_ideal_limits():
    c = cavity_coeffs(CavityParams(g=1e8, kappa_s=0.0, gamma=0.1))
    assert c.t1 < 1e-15 and c.r1 > 1 - 1e-15
    assert c.t0 == 1.0 and c.r0 == 0.0  # exact at zero side leakage


def test_signed_identity_random_parameters():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = CavityParams(
            g=float(rng.uniform(0, 5)),
            kappa_s=float(rng.uniform(0, 3)),
            gamma=float(rng.uniform(0.01, 1.0)),
        )
        c = cavity_coeffs(p)
        # t lies in [-1, 0], so |r| = |1 + t| = 1 - |t| holds bit for bit
        assert c.r1 == 1 - c.t1
        assert c.r0 == 1 - c.t0


def test_transmission_decreases_with_coupling():
    values = [cavity_coeffs(CavityParams(g=g, kappa_s=0.05, gamma=0.1)).t1
              for g in (0.1, 0.5, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_degenerate_parameters_rejected():
    # gamma = 0 would zero the cold denominator gamma*(2*kappa + kappa_s):
    # the domain rejects it when the parameters are built
    with pytest.raises(ValueError, match="gamma must be positive and finite, got 0.0"):
        cavity_coeffs(CavityParams(g=0.0, kappa_s=0.0, gamma=0.0))


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        CavityParams(g=-1, kappa_s=0, gamma=0.1)


def test_strong_coupling_predicate():
    assert is_strong_coupling(STRONG)
    assert not is_strong_coupling(WEAK)  # 0.45 < (1.0 + 1)/4


def test_strong_coupling_boundary_is_strict():
    boundary = CavityParams(g=(0.05 + 1) / 4, kappa_s=0.05, gamma=0.1)
    assert not is_strong_coupling(boundary)


def images(c, src):
    """Nonzero images of one (pol, dir, spin) label: its column of its spin's block."""
    pol, d, spin = src
    column = interaction_map(c)[SPINS.index(spin), :, PD.index((pol, d))]
    return {(p, dd, spin): amp for (p, dd), amp in zip(PD, column.tolist())
            if abs(amp) > PRUNE_TOL}


def test_interact_ideal_limit():
    assert images(CavityCoeffs.ideal(), ("R", "down", "up")) == {("R", "down", "up"): -1.0}
    assert images(CavityCoeffs.ideal(), ("R", "down", "down")) == {("L", "up", "down"): 1.0}


def test_interact_strong_coupling_rule():
    out = images(cavity_coeffs(STRONG), ("L", "up", "down"))
    assert out[("R", "down", "down")] == pytest.approx(0.99207, abs=1e-5)
    assert out[("L", "up", "down")] == pytest.approx(0.00793, abs=1e-5)


def test_interact_requires_direction():
    # each spin block is 4x4 over (pol, direction): applied to the
    # polarization of a state without a direction, it is rejected as a shape
    # mismatch
    m = interaction_map(CavityCoeffs.ideal())
    assert m.shape == (2, 4, 4)
    s = make_state(("pol", "spin"), [(("R", "up"), 1.0)])
    with pytest.raises(ValueError, match=r"\('pol',\) must be 2x2, got \(4, 4\)"):
        apply_mode_map(s, "pol", m[0])


def _hand_encoded_matrix(c):
    """8x8 oracle over (pol, dir, spin), written out rule by rule."""
    idx = {}
    labels = [(p, d, s) for p in "RL" for d in ("down", "up") for s in ("up", "down")]
    for i, lbl in enumerate(labels):
        idx[lbl] = i
    m = np.zeros((8, 8), dtype=complex)
    t1, r1, t0, r0 = c.t1, c.r1, c.t0, c.r0
    rules = {
        ("R", "down", "up"): ((("R", "down", "up"), -t0), (("L", "up", "up"), -r0)),
        ("R", "down", "down"): ((("L", "up", "down"), r1), (("R", "down", "down"), t1)),
        ("R", "up", "up"): ((("L", "down", "up"), r1), (("R", "up", "up"), t1)),
        ("R", "up", "down"): ((("R", "up", "down"), -t0), (("L", "down", "down"), -r0)),
        ("L", "down", "up"): ((("R", "up", "up"), r1), (("L", "down", "up"), t1)),
        ("L", "down", "down"): ((("L", "down", "down"), -t0), (("R", "up", "down"), -r0)),
        ("L", "up", "up"): ((("L", "up", "up"), -t0), (("R", "down", "up"), -r0)),
        ("L", "up", "down"): ((("R", "down", "down"), r1), (("L", "up", "down"), t1)),
    }
    for src, images in rules.items():
        for dst, amp in images:
            m[idx[dst], idx[src]] = amp
    return m, labels, idx


def test_interaction_table_matches_matrix_oracle():
    c = cavity_coeffs(CavityParams(g=1.3, kappa_s=0.4, gamma=0.2))
    m, labels, idx = _hand_encoded_matrix(c)
    for src in labels:
        vec = np.zeros(8, dtype=complex)
        for lbl, amp in images(c, src).items():
            vec[idx[lbl]] = amp
        assert np.allclose(vec, m[:, idx[src]], atol=1e-15)


def test_interaction_map_puts_the_points_last():
    # batched coefficients keep their point axes after the (spin, 4, 4)
    # entries; each point's blocks are those of its own coefficients
    g = np.array([[0.0], [0.45], [2.5]])
    c = cavity_coeffs(CavityParams(g=g, kappa_s=0.05, gamma=0.1))
    m = interaction_map(c)
    assert m.shape == (2, 4, 4, 3, 1)
    for k, gk in enumerate(g[:, 0]):
        one = interaction_map(cavity_coeffs(CavityParams(g=gk, kappa_s=0.05, gamma=0.1)))
        assert one.shape == (2, 4, 4)
        assert np.array_equal(m[..., k, 0], one)
    # scalar coefficients against batched ones moved by two grid axes (t0 and
    # r0 along kappa_s only), bit for bit: the signs of zero entries included
    ks = np.array([0.0, 0.05, 1.0]).reshape(1, 3, 1)
    m = interaction_map(cavity_coeffs(CavityParams(g=g[:, :, None], kappa_s=ks, gamma=0.1)))
    assert m.shape == (2, 4, 4, 3, 3, 1)
    for (i, gi), (j, kj) in itertools.product(enumerate(g[:, 0]), enumerate(ks.ravel())):
        one = interaction_map(cavity_coeffs(CavityParams(g=gi, kappa_s=kj, gamma=0.1)))
        assert m[..., i, j, 0].tobytes() == one.tobytes()
        # without kappa_s, r0 is 0 and its entries -0.0
        assert (np.signbit(one) & (one == 0)).any() == (kj == 0)


def test_interaction_preserves_spin_and_links_pol_to_dir():
    c = cavity_coeffs(STRONG)
    for pol, d, spin in LABELS:
        out = images(c, (pol, d, spin))
        assert len(out) == 2
        for pol2, d2, spin2 in out:
            assert spin2 == spin
            assert (pol2 != pol) == (d2 != d)


def test_interact_linear_over_spin_superposition():
    c = cavity_coeffs(STRONG)
    sup = np.zeros((2, 4))  # (spin, pol-dir)
    sup[:, PD.index(("R", "down"))] = math.sqrt(0.5)
    out = (interaction_map(c) @ sup[..., None])[..., 0]
    for src in (("R", "down", "up"), ("R", "down", "down")):
        for (pol, d, spin), amp in images(c, src).items():
            assert out[SPINS.index(spin), PD.index((pol, d))] == pytest.approx(amp * math.sqrt(0.5))
