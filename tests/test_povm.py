import math
import warnings

import numpy as np
import pytest

from pairtomo import (EmptyDataError, OptimizerConfig, ParamVector, SIC,
                      TETRA, ensemble_state, get_povm, li_pipeline,
                      log_likelihood, ml_estimate, moment_features,
                      plausibility)
from pairtomo.qstate import from_triplet_matrix, to_triplet_matrix

from conftest import (SINGLET_4, oracle_probs, oracle_sic_elements4,
                      oracle_tetra_elements4)


def test_get_povm_lookup():
    assert get_povm("sic") is SIC
    assert get_povm("tetra") is TETRA
    assert get_povm(SIC) is SIC
    with pytest.raises(ValueError):
        get_povm("bell")


def test_elements_match_oracle_construction():
    np.testing.assert_allclose(SIC.elements4(), oracle_sic_elements4(),
                               atol=1e-14)
    np.testing.assert_allclose(TETRA.elements4(), oracle_tetra_elements4(),
                               atol=1e-14)


def test_sic_completeness_and_gram():
    total = SIC.elements.sum(axis=0)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-14)
    gram = np.einsum("jab,kba->jk", SIC.elements, SIC.elements)
    np.testing.assert_allclose(gram, 1 / 36 + np.eye(9) / 12, atol=1e-14)
    # lifted to 4x4 the elements sum to the projector on the triplet sector
    proj = np.eye(4) - np.outer(SINGLET_4, SINGLET_4.conj())
    np.testing.assert_allclose(np.asarray(SIC.elements4()).sum(axis=0), proj,
                               atol=1e-14)
    for e in SIC.elements:
        assert np.trace(e).real == pytest.approx(1 / 3, abs=1e-14)


def test_tetra_direction_identities():
    t = TETRA.directions
    np.testing.assert_allclose(t @ t.T, (4 * np.eye(4) - 1) / 3, atol=1e-14)
    np.testing.assert_allclose(t.sum(axis=0), np.zeros(3), atol=1e-15)
    total = np.asarray(TETRA.elements4()).sum(axis=0)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-14)


def test_probabilities_match_trace_oracle(param_draws):
    for row in param_draws[:40]:
        state = ensemble_state(ParamVector.from_array(row))
        np.testing.assert_allclose(
            SIC.probabilities(state),
            oracle_probs(row, "sic"), atol=1e-13)
        np.testing.assert_allclose(
            TETRA.probabilities(state),
            oracle_probs(row, "tetra"), atol=1e-13)


def test_probabilities_from_features_is_same_map(param_draws):
    feats = moment_features(param_draws)
    qs = SIC.probabilities_from_features(feats)
    qt = TETRA.probabilities_from_features(feats)
    for row, q9, q10 in zip(param_draws, qs, qt):
        state = ensemble_state(ParamVector.from_array(row))
        np.testing.assert_allclose(q9, SIC.probabilities(state), atol=1e-14)
        np.testing.assert_allclose(q10, TETRA.probabilities(state),
                                   atol=1e-14)
    assert np.all(qs > -1e-14) and np.all(qt > -1e-14)
    np.testing.assert_allclose(qs.sum(axis=1), 1.0, atol=1e-13)
    np.testing.assert_allclose(qt.sum(axis=1), 1.0, atol=1e-13)


def test_sic_known_probability_table():
    # the pair |00> hits six of the nine outcomes with probability 1/6
    m = np.diag([1.0, 0.0, 0.0]).astype(complex)
    expect = np.array([0, 1, 1, 0, 1, 1, 0, 1, 1]) / 6.0
    np.testing.assert_allclose(SIC.probabilities(from_triplet_matrix(m)),
                               expect, atol=1e-14)
    # maximally mixed triplet state is uniform
    np.testing.assert_allclose(SIC.probabilities(from_triplet_matrix(np.eye(3) / 3)),
                               np.full(9, 1 / 9), atol=1e-14)


def test_sic_linear_inversion_round_trip(param_draws):
    for row in param_draws[:40]:
        m = to_triplet_matrix(ensemble_state(ParamVector.from_array(row)))
        counts = SIC.probabilities(from_triplet_matrix(m)) * 3e6
        np.testing.assert_allclose(to_triplet_matrix(SIC.linear_inversion(counts)),
                                   m, atol=1e-12)


def test_sic_linear_inversion_single_outcome_spectrum():
    counts = np.zeros(9)
    counts[0] = 1000
    w = np.linalg.eigvalsh(to_triplet_matrix(SIC.linear_inversion(counts)))
    np.testing.assert_allclose(w, [-1, -1, 3], atol=1e-12)


def test_tetra_linear_inversion_round_trip(param_draws):
    for row in param_draws[:40]:
        state = ensemble_state(ParamVector.from_array(row))
        est = TETRA.linear_inversion(TETRA.probabilities(state) * 2e6)
        np.testing.assert_allclose(est.s, state.s, atol=1e-12)
        np.testing.assert_allclose(est.c, state.c, atol=1e-12)
        assert abs(est.singlet_weight) < 1e-13
        # built without the constructor's checks, which hold as built
        assert (est.c == est.c.T).all()
        assert not (est.s.flags.writeable or est.c.flags.writeable)


def test_tetra_outcome_grouping_values():
    # pure pair along the first tetrahedron direction
    from pairtomo.qstate import PureQubit
    a = PureQubit.from_bloch(TETRA.directions[0])
    state = ensemble_state(ParamVector.from_states(a, a, 1.0))
    q = TETRA.probabilities(state)
    assert q[0] == pytest.approx(0.25, abs=1e-14)
    # pure pair along +z: same-exit probability ((1 + 1/sqrt(3))/4)^2
    z = PureQubit.from_bloch([0, 0, 1.0])
    qz = TETRA.probabilities(ensemble_state(ParamVector.from_states(z, z, 1.0)))
    assert qz[0] == pytest.approx(((1 + 1 / math.sqrt(3)) / 4) ** 2,
                                  abs=1e-14)


def test_tetra_sum_rules(param_draws):
    for row in param_draws[:40]:
        q = TETRA.probabilities(ensemble_state(ParamVector.from_array(row)))
        assert q[:4].sum() == pytest.approx(1 / 3, abs=1e-13)
        assert q[4:].sum() == pytest.approx(2 / 3, abs=1e-13)


def test_singlet_probabilities():
    rho_singlet = np.outer(SINGLET_4, SINGLET_4.conj())
    q_sic = [np.trace(e @ rho_singlet).real for e in SIC.elements4()]
    np.testing.assert_allclose(q_sic, np.zeros(9), atol=1e-14)
    q_tet = np.array([np.trace(e @ rho_singlet).real
                      for e in TETRA.elements4()])
    np.testing.assert_allclose(q_tet[:4], np.zeros(4), atol=1e-14)
    np.testing.assert_allclose(q_tet[4:], np.full(6, 1 / 6), atol=1e-14)


def test_tetra_singlet_weight_from_counts(param_draws):
    # pair-source counts carry no singlet weight; a singlet admixture shows up
    state = ensemble_state(ParamVector.from_array(param_draws[0]))
    q_pair = TETRA.probabilities(state)
    assert TETRA.linear_inversion(q_pair * 1e6).singlet_weight == pytest.approx(
        0.0, abs=1e-12)
    q_singlet = np.concatenate([np.zeros(4), np.full(6, 1 / 6)])
    for w in (0.1, 0.5):
        mixed = (1 - w) * q_pair + w * q_singlet
        assert TETRA.linear_inversion(mixed * 1e6).singlet_weight == pytest.approx(
            w, abs=1e-12)


def test_purity_band(rng):
    from pairtomo import random_param_array
    q = SIC.probabilities_from_features(
        moment_features(random_param_array(rng, 1000)))
    p2 = (q * q).sum(axis=1)
    assert (p2 >= 1 / 9 - 1e-12).all()
    assert (p2 <= 1 / 6 + 1e-12).all()
    # pure pair states sit exactly on the upper edge
    pure = moment_features(np.array([[0.7, 1.0, 0.7, 1.0, 0.0]]))
    q_pure = SIC.probabilities_from_features(pure)[0]
    assert (q_pure ** 2).sum() == pytest.approx(1 / 6, abs=1e-13)


def test_outcome_names_and_arity():
    assert SIC.outcome_names == tuple(f"v{j}" for j in range(1, 10))
    assert TETRA.outcome_names == ("s1", "s2", "s3", "s4", "c12", "c13",
                                   "c14", "c23", "c24", "c34")
    with pytest.raises(EmptyDataError):
        SIC.linear_inversion(np.zeros(9))
    with pytest.raises(EmptyDataError):
        TETRA.linear_inversion(np.zeros(10))
    with pytest.raises(ValueError):
        SIC.linear_inversion(np.ones(10))


def test_counts_whose_total_overflows_are_refused():
    # every entry is finite, the total is not: refused before any numpy
    # overflow warning, by every estimator that takes counts
    counts = [1e308] * 9
    theta = ParamVector.from_array([0.3, 1.0, 1.2, 2.0, 0.5])
    opt = OptimizerConfig(max_evaluations=240, restarts=1)
    calls = (lambda: li_pipeline(counts, "sic"),
             lambda: SIC.linear_inversion(counts),
             lambda: ml_estimate(counts, "sic", opt, 0),
             lambda: log_likelihood(theta, counts, "sic"),
             lambda: plausibility(counts, "sic", theta, 100, 0))
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="counts must be finite"):
                call()
