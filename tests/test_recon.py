import math

import numpy as np
import pytest

from pairtomo import (Decomposition, DegenerateInputError, IllConditionedError,
                      IllConditionedWarning, NonPhysicalMomentsError,
                      ParamVector, PureQubit, SymmetricTwoQubitState,
                      TripletKet, decompose_moments, ensemble_state,
                      states_from_xi, xi_from_triplet)
from pairtomo.qstate import to_triplet_matrix
from pairtomo.recon import eigh3, probabilities_given_states

from conftest import oracle_triplet


def _random_hermitian(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return a + a.conj().T


def test_eigh3_matches_lapack(rng):
    for _ in range(200):
        h = _random_hermitian(rng)
        w, v = eigh3(h)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12)
        np.testing.assert_allclose(h @ v, v @ np.diag(w), atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-13)
    assert eigh3(np.eye(3, dtype=complex))[0] == pytest.approx([1, 1, 1])


def test_eigh3_eigenvalues_sorted_and_phased(rng):
    h = _random_hermitian(rng)
    w, v = eigh3(h)
    assert w[0] <= w[1] <= w[2]
    for k in range(3):
        pivot = v[np.argmax(np.abs(v[:, k])), k]
        assert pivot.imag == pytest.approx(0, abs=1e-14)
        assert pivot.real >= 0


def test_decompose_moments_two_known_states():
    # 3/4 along +z, 1/4 along -z
    state = SymmetricTwoQubitState(np.array([0, 0, 0.5]),
                                   np.diag([0.0, 0.0, 1.0]))
    dec = decompose_moments(state)
    assert dec.p0 == pytest.approx(0.75, abs=1e-12)
    assert dec.p1 == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(dec.state0.bloch, [0, 0, 1], atol=1e-9)
    np.testing.assert_allclose(dec.state1.bloch, [0, 0, -1], atol=1e-9)
    assert not dec.degenerate and not dec.clamped
    assert dec.method == "moments"


def test_decompose_moments_equal_probabilities_tie_break():
    a = np.array([0, 0, 1.0])
    b = np.array([1.0, 0, 0])
    state = SymmetricTwoQubitState(0.5 * (a + b),
                                   0.5 * (np.outer(a, a) + np.outer(b, b)))
    dec = decompose_moments(state)
    assert dec.p0 == pytest.approx(0.5, abs=1e-12)
    # ties order by ascending Bloch tuple: (0,0,1) before (1,0,0)
    np.testing.assert_allclose(dec.state0.bloch, a, atol=1e-9)
    np.testing.assert_allclose(dec.state1.bloch, b, atol=1e-9)


def test_decompose_moments_single_state_branch():
    z = np.array([0, 0, 1.0])
    state = SymmetricTwoQubitState(z, np.outer(z, z))
    dec = decompose_moments(state)
    assert dec.degenerate
    assert dec.p0 == 1.0 and dec.p1 == 0.0
    np.testing.assert_allclose(dec.state0.bloch, z, atol=1e-12)


def test_decompose_moments_rejects_zero_information():
    state = SymmetricTwoQubitState(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        decompose_moments(state)


def test_decompose_moments_rejects_negative_dyad():
    # C - s s^T negative definite: no pure-pair mixture reproduces it
    state = SymmetricTwoQubitState(np.zeros(3), -np.eye(3) / 3.0)
    with pytest.raises(NonPhysicalMomentsError):
        decompose_moments(state)


def test_decompose_moments_clamps_slight_excess():
    # top dyad eigenvalue slightly negative along s: (p0-p1)^2 just above 1
    s = np.array([0.9, 0.0, 0.0])
    c = np.outer(s, s) + np.diag([-1e-10, -0.3, -0.3])
    dec = decompose_moments(SymmetricTwoQubitState(s, c))
    assert dec.clamped
    assert dec.p0 == pytest.approx(1.0, abs=1e-9)
    assert dec.p1 == pytest.approx(0.0, abs=1e-9)
    # well beyond tolerance is an error, not a repair
    c_bad = np.outer(s, s) + np.diag([-1e-4, -0.3, -0.3])
    with pytest.raises(NonPhysicalMomentsError):
        decompose_moments(SymmetricTwoQubitState(s, c_bad))


def test_decomposition_ordering_convention():
    hi = PureQubit(0.3, 1.0)
    lo = PureQubit(1.1, 2.0)
    dec = Decomposition.ordered(hi, lo, 0.2, 0.8)
    assert dec.p0 == 0.8 and dec.state0 == lo
    tie = Decomposition.ordered(PureQubit(0.0), PureQubit(1.0, 0.5), 0.5, 0.5)
    assert tuple(tie.state0.bloch) < tuple(tie.state1.bloch)


def test_triplet_ket_normalization():
    ket = TripletKet(1.0, 1.0, 1.0)
    assert (abs(ket.c00) ** 2 + 2 * abs(ket.c01) ** 2
            + abs(ket.c11) ** 2) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(ket.components()) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        TripletKet(0.0, 0.0, 0.0)


def test_xi_from_triplet_is_null_direction(param_draws):
    for row in param_draws[:30]:
        m = oracle_triplet(row)
        xi, w0 = xi_from_triplet(m)
        assert abs(w0) < 1e-12
        residual = m @ xi.components()
        assert np.max(np.abs(residual)) < 1e-10


def test_xi_from_triplet_warns_on_degenerate_pair():
    # a single-state source has a doubly degenerate null space
    m = oracle_triplet([0.4, 1.0, 0.4, 1.0, 0.3])
    with pytest.warns(IllConditionedWarning):
        xi_from_triplet(m)


def test_states_from_xi_recovers_preparations(param_draws):
    for row in param_draws[:30]:
        truth0 = PureQubit(row[0], row[1])
        truth1 = PureQubit(row[2], row[3])
        if truth0.overlap(truth1) > 1 - 1e-6:
            continue
        xi, _ = xi_from_triplet(oracle_triplet(row))
        sa, sb, degenerate = states_from_xi(xi)
        assert not degenerate
        f_direct = truth0.overlap(sa) + truth1.overlap(sb)
        f_swap = truth0.overlap(sb) + truth1.overlap(sa)
        assert max(f_direct, f_swap) > 2 - 1e-9


def test_states_from_xi_root_at_infinity():
    # c00 = 0: one preparation is exactly |0>
    xi = TripletKet(0.0, 0.3, 0.8)
    sa, sb, degenerate = states_from_xi(xi)
    assert sb == PureQubit(0.0, 0.0)
    assert not degenerate
    xi2 = TripletKet(0.0, 0.0, 1.0)
    sa, sb, degenerate = states_from_xi(xi2)
    assert degenerate and sa == sb == PureQubit(0.0, 0.0)


def test_states_from_xi_double_root():
    xi = TripletKet(1.0, 0.0, 0.0)
    sa, sb, degenerate = states_from_xi(xi)
    assert degenerate and sa == sb
    # z = 0 root means a0* = 0: the state is |1>
    assert sa.theta == pytest.approx(math.pi / 2, abs=1e-14)


def test_probabilities_given_states(param_draws):
    for row in param_draws[:30]:
        truth0 = PureQubit(row[0], row[1])
        truth1 = PureQubit(row[2], row[3])
        if truth0.overlap(truth1) > 1 - 1e-6:
            continue
        p0_true = math.cos(row[4]) ** 2
        p0, p1 = probabilities_given_states(oracle_triplet(row),
                                            truth0, truth1)
        assert p0 == pytest.approx(p0_true, abs=1e-11)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-14)


def test_probabilities_given_states_rejects_identical():
    s = PureQubit(0.8, 1.0)
    with pytest.raises(IllConditionedError):
        probabilities_given_states(np.eye(3) / 3, s, PureQubit(0.8, 1.0))


def test_both_routes_agree(param_draws):
    for row in param_draws:
        params = ParamVector.from_array(row)
        if abs(params.p0 - params.p1) < 1e-6:
            continue
        if params.state0.overlap(params.state1) > 1 - 1e-6:
            continue
        state = ensemble_state(params)
        dec_m = decompose_moments(state)
        if dec_m.degenerate:
            continue
        xi, _ = xi_from_triplet(to_triplet_matrix(state))
        sa, sb, _ = states_from_xi(xi)
        p0, _ = probabilities_given_states(to_triplet_matrix(state), sa, sb)
        dec_x = Decomposition.ordered(sa, sb, p0, 1 - p0)
        assert dec_m.state0.overlap(dec_x.state0) > 1 - 1e-9
        assert dec_m.state1.overlap(dec_x.state1) > 1 - 1e-9
        assert abs(dec_m.p0 - dec_x.p0) < 1e-9
