import itertools
import math

import numpy as np
import pytest

from pairtomo import (FEATURE_NAMES, ParamVector, PureQubit,
                      SymmetricTwoQubitState, ensemble_state, moment_features,
                      random_param_array)
from pairtomo.qstate import (FEATURE_TRIPLETS, HALF_PI, TWO_PI,
                             _isotropic_bloch, bloch_from_angles,
                             canonical_phase, from_triplet_matrix,
                             pair_ket_triplet, prior_features,
                             to_triplet_matrix)

from conftest import (oracle_bloch, oracle_ket, oracle_rho4, oracle_triplet,
                      SINGLET_4, TRIPLET_BASIS_4)


def test_pure_qubit_angles_and_bloch(rng):
    for _ in range(50):
        theta = rng.uniform(0, HALF_PI)
        phi = rng.uniform(0, TWO_PI)
        s = PureQubit(theta, phi)
        np.testing.assert_allclose(s.bloch, oracle_bloch(theta, phi),
                                   atol=1e-14)
        np.testing.assert_allclose(s.amplitudes, oracle_ket(theta, phi),
                                   atol=1e-14)
        assert abs(np.linalg.norm(s.bloch) - 1) < 1e-14


def test_pure_qubit_pole_phase_fixed():
    assert PureQubit(0.0, 2.5).phi == 0.0
    assert PureQubit(HALF_PI, 2.5).phi == 0.0
    assert PureQubit(0.0, 2.5) == PureQubit(0.0, 0.0)


def test_pure_qubit_range_validation():
    with pytest.raises(ValueError):
        PureQubit(-0.1, 0.0)
    with pytest.raises(ValueError):
        PureQubit(HALF_PI + 0.1, 0.0)
    with pytest.raises(ValueError):
        PureQubit(0.3, TWO_PI)
    with pytest.raises(ValueError):
        PureQubit(0.3, -0.1)


def test_from_amplitudes_global_phase_invariant(rng):
    for _ in range(30):
        theta = rng.uniform(0.05, HALF_PI - 0.05)
        phi = rng.uniform(0, TWO_PI)
        a0, a1 = oracle_ket(theta, phi)
        chi = np.exp(1j * rng.uniform(0, TWO_PI))
        scale = rng.uniform(0.2, 5.0)
        s = PureQubit.from_amplitudes(scale * chi * a0, scale * chi * a1)
        assert abs(s.theta - theta) < 1e-12
        assert abs((s.phi - phi + math.pi) % TWO_PI - math.pi) < 1e-12
    with pytest.raises(ValueError):
        PureQubit.from_amplitudes(0, 0)


def test_from_bloch_round_trip(rng):
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        s = PureQubit.from_bloch(v)
        np.testing.assert_allclose(s.bloch, v, atol=1e-12)


def test_from_any_angles_same_state():
    # theta beyond pi/2 describes the same ray with shifted phase
    s = PureQubit.from_any_angles(2 * math.pi / 3, HALF_PI)
    assert abs(s.theta - math.pi / 3) < 1e-15
    assert abs(s.phi - 3 * HALF_PI) < 1e-14
    t = PureQubit.from_any_angles(-0.4, 1.0)
    ref = PureQubit.from_amplitudes(math.cos(-0.4),
                                    np.exp(1j) * math.sin(-0.4))
    assert t == ref


def test_overlap_matches_amplitudes(rng):
    for _ in range(30):
        x = PureQubit(rng.uniform(0, HALF_PI), rng.uniform(0, TWO_PI))
        y = PureQubit(rng.uniform(0, HALF_PI), rng.uniform(0, TWO_PI))
        direct = abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2
        assert abs(x.overlap(y) - direct) < 1e-13
    z = PureQubit(0.7, 1.1)
    assert abs(z.overlap(z) - 1) < 1e-15


def test_param_vector_box_and_probabilities():
    p = ParamVector(0.3, 1.0, 1.2, 4.0, 0.9)
    assert abs(p.p0 + p.p1 - 1) < 1e-15
    assert abs(p.p0 - math.cos(0.9) ** 2) < 1e-15
    with pytest.raises(ValueError):
        ParamVector(0.3, 1.0, 2.0, 4.0, 0.9)
    with pytest.raises(ValueError):
        ParamVector.from_array([0.3, -1.0, 1.2, 4.0, 0.9])
    arr = p.to_array()
    assert ParamVector.from_array(arr) == p


def test_param_vector_from_any_angles_canonicalizes():
    p = ParamVector.from_any_angles(math.pi / 6, math.pi / 4,
                                    2 * math.pi / 3, HALF_PI, math.pi / 6)
    assert abs(p.theta1 - math.pi / 3) < 1e-15
    assert abs(p.phi1 - 3 * HALF_PI) < 1e-14
    assert abs(p.p0 - 0.75) < 1e-15
    # the represented source is unchanged
    q = ParamVector.from_any_angles(*p.to_array())
    np.testing.assert_allclose(ensemble_state(p).features(),
                               ensemble_state(q).features(), atol=1e-14)


def test_ensemble_state_matches_oracle(param_draws):
    for row in param_draws[:40]:
        params = ParamVector.from_array(row)
        state = ensemble_state(params)
        np.testing.assert_allclose(state.matrix4(), oracle_rho4(row),
                                   atol=1e-13)
        assert abs(np.trace(state.c) - 1) < 1e-13
        assert abs(state.singlet_weight) < 1e-13
        assert state.is_physical()


def test_symmetric_state_validation():
    with pytest.raises(ValueError):
        SymmetricTwoQubitState(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        SymmetricTwoQubitState(np.zeros(3), np.array([[0, 1, 0],
                                                      [0, 0, 0],
                                                      [0, 0, 1]], float))
    for shape in ((9,), (11,), (2, 10)):
        with pytest.raises(ValueError):
            SymmetricTwoQubitState.from_features(np.zeros(shape))


def test_moment_features_match_state_features(param_draws):
    batch = moment_features(param_draws)
    assert batch.shape == (len(param_draws), 10)
    assert len(FEATURE_NAMES) == 10
    for row, feats in zip(param_draws, batch):
        state = ensemble_state(ParamVector.from_array(row))
        np.testing.assert_allclose(feats, state.features(), atol=1e-14)


def test_triplet_matrix_round_trip(param_draws):
    for row in param_draws[:40]:
        state = ensemble_state(ParamVector.from_array(row))
        m = to_triplet_matrix(state)
        np.testing.assert_allclose(m, oracle_triplet(row), atol=1e-13)
        back = from_triplet_matrix(m)
        np.testing.assert_allclose(back.s, state.s, atol=1e-13)
        np.testing.assert_allclose(back.c, state.c, atol=1e-13)


def test_feature_triplets_exact_entries():
    # each entry is its closed form rounded once: sqrt(2)/4 for the chi
    # row, exactly 1/4 on the chi diagonal, which (1/sqrt(2))^2 misses
    one, sx, sy, sz, cxx, cyy, czz, cxy, cxz, cyz = FEATURE_TRIPLETS
    r = math.sqrt(2.0) / 4
    assert (sx[0, 2], sx[1, 2], sx[2, 0]) == (r, r, r)
    assert (sy[0, 2], sy[1, 2], sy[2, 0]) == (-1j * r, 1j * r, 1j * r)
    assert (cxz[0, 2], cxz[1, 2]) == (r, -r)
    assert (cyz[0, 2], cyz[1, 2]) == (-1j * r, -1j * r)
    assert (sz[0, 0], sz[1, 1], cxy[0, 1], cxy[1, 0]) == (0.5, -0.5, -0.5j, 0.5j)
    assert [one[2, 2], cxx[2, 2], cyy[2, 2], czz[2, 2]] == [0.25, 0.25, 0.25,
                                                           -0.25]
    assert (one[0, 0], czz[0, 0], cxx[0, 1], cyy[0, 1]) == (0.25, 0.25, 0.25,
                                                            -0.25)
    # every other chi-diagonal entry is zero
    assert np.count_nonzero(FEATURE_TRIPLETS[:, 2, 2]) == 4


def test_pair_ket_triplet_matches_basis_projection():
    s = PureQubit(0.7, 2.1)
    k4 = np.kron(s.amplitudes, s.amplitudes)
    expect = TRIPLET_BASIS_4.conj() @ k4
    np.testing.assert_allclose(pair_ket_triplet(s), expect, atol=1e-14)
    # product pairs never touch the singlet component
    assert abs(np.vdot(SINGLET_4, k4)) < 1e-15


def test_canonical_phase_pins_largest_component(rng):
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = canonical_phase(v)
        k = int(np.argmax(np.abs(w)))
        assert w[k].imag == 0 and w[k].real >= 0
        np.testing.assert_allclose(np.abs(w), np.abs(v), atol=1e-14)
        chi = np.exp(1j * rng.uniform(0, TWO_PI))
        np.testing.assert_allclose(canonical_phase(chi * v), w, atol=1e-13)


def test_random_param_array_distribution():
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
    draws = random_param_array(g, 200_000)
    assert draws.shape == (200_000, 5)
    lo = draws.min(axis=0)
    hi = draws.max(axis=0)
    assert (lo >= 0).all()
    assert (hi[[0, 2, 4]] <= HALF_PI).all() and (hi[[1, 3]] < TWO_PI).all()
    # isotropy: each Bloch component of state 0 has mean 0, variance 1/3
    bloch = np.stack(
        [np.sin(2 * draws[:, 0]) * np.cos(draws[:, 1]),
         np.sin(2 * draws[:, 0]) * np.sin(draws[:, 1]),
         np.cos(2 * draws[:, 0])], axis=1)
    se = math.sqrt(1 / 3 / len(draws))
    assert (np.abs(bloch.mean(axis=0)) < 4 * se).all()
    # alpha uniform on [0, pi/2]
    se_a = HALF_PI / math.sqrt(12 * len(draws))
    assert abs(draws[:, 4].mean() - HALF_PI / 2) < 4 * se_a


class _FixedUniforms:
    """Stands in for a Generator whose next draw is the given rows."""

    def __init__(self, rows):
        self.rows = rows

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


# the largest uniform below 1
_LAST = 1.0 - 2.0 ** -53


def test_prior_features_tangent_edge_cases():
    # u_phi = 1/2 puts the half angle at pi/2, where tan is about 1.6e16;
    # 0 and the last uniform put each angle at the ends of its range.  A
    # RuntimeWarning here (overflow, invalid) fails the test as an error.
    lats = (0.0, 0.5, 0.3, _LAST)
    phis = (0.0, 0.25, 0.5, 0.75, _LAST)
    alphas = (0.0, 0.5, _LAST)
    rows = np.array(list(itertools.product(lats, phis, lats, phis, alphas)))
    features = prior_features(_FixedUniforms(rows), len(rows))
    angles = random_param_array(_FixedUniforms(rows), len(rows))
    np.testing.assert_allclose(features, moment_features(angles).T,
                               rtol=0, atol=2e-15)

    v = _isotropic_bloch(rows[:, 0], rows[:, 1])
    assert (np.abs(np.linalg.norm(v, axis=0) - 1.0) <= 4 * 2.0 ** -52).all()
    # on the equator at phi = pi: cos phi = -1 and sin phi = 0 to rounding
    west = (rows[:, 0] == 0.5) & (rows[:, 1] == 0.5)
    assert (v[0, west] == -1.0).all()
    assert (np.abs(v[1:, west]) <= 2.0 ** -52).all()

    # a at the north pole and b = (1, 0, 0) make s_z = p0 exactly
    probe = (rows[:, 0] == 0.0) & (rows[:, 2] == 0.5) & (rows[:, 3] == 0.0)
    p0 = features[3, probe]
    assert ((0.0 <= p0) & (p0 <= 1.0)).all()
    assert p0[rows[probe, 4] == 0.0].tolist() == [1.0] * len(phis)
    assert (p0[rows[probe, 4] == _LAST] < 1e-30).all()


def test_bloch_from_angles_validates():
    with pytest.raises(ValueError):
        bloch_from_angles(2.0, 0.0)
    with pytest.raises(ValueError):
        bloch_from_angles(0.3, TWO_PI)
