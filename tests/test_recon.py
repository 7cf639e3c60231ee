import cmath
import math
import warnings

import numpy as np
import pytest

from pairtomo import (Decomposition, DegenerateInputError, IllConditionedError,
                      IllConditionedWarning, NonPhysicalMomentsError,
                      ParamVector, PureQubit, SymmetricTwoQubitState,
                      TripletKet, decompose_moments, ensemble_state,
                      li_pipeline, states_from_xi)
from pairtomo.qstate import from_triplet_matrix, to_triplet_matrix
from pairtomo.recon import (DEGENERACY_TOL, _null_ket, eigh3,
                            probabilities_given_states)

from conftest import oracle_ket, oracle_triplet, oracle_triplet_coords


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


@pytest.mark.parametrize("scale", [1, 2, 3])
def test_moments_route_unit_bloch_norm_is_single_state(scale):
    # |s|^2 = 1 in exact arithmetic, 1 + 2e-15 after rounding: the
    # outcome must not hinge on the last bit, nor on the count scale
    counts = np.array([0, 0, 446, 446, 446, 0, 669, 223, 446]) * scale
    dec = li_pipeline(counts, "sic", "moments")
    assert dec.degenerate
    assert (dec.p0, dec.p1) == (1.0, 0.0)
    assert dec.state0 == dec.state1


def test_decompose_moments_rejects_bloch_norm_beyond_tolerance():
    s = np.array([0.0, 0.0, 1.2])
    c = np.outer(s, s) + np.diag([0.5, -0.5, 0.0])
    with pytest.raises(DegenerateInputError):
        decompose_moments(SymmetricTwoQubitState(s, c), tol=0.1)
    dec = decompose_moments(SymmetricTwoQubitState(s, c), tol=0.5)
    assert dec.degenerate
    np.testing.assert_allclose(dec.state0.bloch, [0.0, 0.0, 1.0], atol=1e-12)


def test_moments_route_warns_on_degenerate_top_dyad_eigenvalue():
    # the top two eigenvalues of the dyad C - s s^T coincide
    counts = np.array([181, 181, 181, 0, 0, 0, 543, 0, 543, 543])
    with pytest.warns(IllConditionedWarning):
        li_pipeline(counts, "tetra", "moments")


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
    assert (np.linalg.norm(oracle_triplet_coords(ket))
            == pytest.approx(1.0, abs=1e-14))
    with pytest.raises(ValueError):
        TripletKet(0.0, 0.0, 0.0)


def test_null_ket_is_null_direction(param_draws):
    for row in param_draws[:30]:
        m = oracle_triplet(row)
        xi, w0 = _null_ket(m)
        assert abs(w0) < 1e-12
        residual = m @ oracle_triplet_coords(xi)
        assert np.max(np.abs(residual)) < 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_raises_documented_value_error(bad):
    # a plain LinAlgError (a ValueError subclass) would not name the input
    whole = np.full((3, 3), bad)
    one = np.eye(3)
    one[0, 0] = bad
    for m in (whole, one):
        with pytest.raises(ValueError, match="finite and Hermitian"):
            from_triplet_matrix(m)
        with pytest.raises(ValueError, match="moments must be finite"):
            SymmetricTwoQubitState(np.zeros(3), m)
    with pytest.raises(ValueError, match="moments must be finite"):
        SymmetricTwoQubitState(np.full(3, bad), np.eye(3))


def test_null_ket_warns_on_degenerate_pair():
    # a single-state source has a doubly degenerate null space
    m = oracle_triplet([0.4, 1.0, 0.4, 1.0, 0.3])
    with pytest.warns(IllConditionedWarning):
        _null_ket(m)


def test_states_from_xi_recovers_preparations(param_draws):
    for row in param_draws[:30]:
        truth0 = PureQubit(row[0], row[1])
        truth1 = PureQubit(row[2], row[3])
        if truth0.overlap(truth1) > 1 - 1e-6:
            continue
        xi, _ = _null_ket(oracle_triplet(row))
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
        xi, _ = _null_ket(to_triplet_matrix(state))
        sa, sb, _ = states_from_xi(xi)
        p0, _ = probabilities_given_states(to_triplet_matrix(state), sa, sb)
        dec_x = Decomposition.ordered(sa, sb, p0, 1 - p0)
        assert dec_m.state0.overlap(dec_x.state0) > 1 - 1e-9
        assert dec_m.state1.overlap(dec_x.state1) > 1 - 1e-9
        assert abs(dec_m.p0 - dec_x.p0) < 1e-9


# --------------------------------------------------------------------------
# numpy oracles for the recovery steps: the code of the pre-scalar
# implementation, kept to pin the rewrite within its rounding tolerance

def reference_canonical_phase(ket):
    ket = np.asarray(ket, dtype=complex)
    k = int(np.argmax(np.abs(ket)))
    pivot = ket[k]
    mag = abs(pivot)
    if mag == 0.0:
        return ket.copy()
    out = ket * (pivot.conjugate() / mag)
    out[k] = abs(out[k])
    return out


def reference_null_ket(m):
    """_null_ket with reference_canonical_phase, without the warning."""
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    u = reference_canonical_phase(v[:, 0])
    return TripletKet(u[0], u[2] / math.sqrt(2.0), u[1]), w


def _reference_state_from_root(z):
    return PureQubit.from_amplitudes(z.conjugate(), 1.0)


def reference_states_from_xi(xi, tol=1e-12):
    c00 = xi.c00
    c01 = xi.c01
    c11 = xi.c11
    if abs(c00) <= tol:
        if abs(c01) <= tol:
            sa = sb = PureQubit(0.0, 0.0)
            return sa, sb, True
        sa = _reference_state_from_root(-c11 / (2.0 * c01))
        sb = PureQubit(0.0, 0.0)
    else:
        sq = cmath.sqrt(c01 * c01 - c00 * c11)
        if (c01.conjugate() * sq).real < 0.0:
            sq = -sq
        q = -(c01 + sq)
        if abs(q) <= tol:
            sa = sb = _reference_state_from_root(0j)
            return sa, sb, True
        sa = _reference_state_from_root(q / c00)
        sb = _reference_state_from_root(c11 / q)
    degenerate = sa.overlap(sb) >= 1.0 - 1e-12
    return sa, sb, degenerate


def _reference_pair_ket(state):
    a0, a1 = oracle_ket(state.theta, state.phi)
    return np.array([a0 * a0, a1 * a1, math.sqrt(2.0) * a0 * a1])


def reference_probabilities_given_states(m, state0, state1):
    if state0.overlap(state1) > 1.0 - 1e-10:
        raise IllConditionedError("states nearly identical; weights undetermined")
    m = np.asarray(m, dtype=complex)
    w0 = _reference_pair_ket(state0)
    w1 = _reference_pair_ket(state1)
    p_mat0 = np.outer(w0, w0.conj())
    p_mat1 = np.outer(w1, w1.conj())
    d = p_mat0 - p_mat1
    num = float(np.real(np.sum(d.conj() * (m - p_mat1))))
    den = float(np.real(np.sum(d.conj() * d)))
    p0 = min(1.0, max(0.0, num / den))
    return p0, 1.0 - p0


def reference_decompose_moments(state, tol=1e-8):
    s = np.asarray(state.s, dtype=float)
    s2 = float(s @ s)
    dyad = state.c - np.outer(s, s)
    if np.linalg.norm(dyad) <= tol or 1.0 <= s2 <= 1.0 + tol:
        norm_s = math.sqrt(s2)
        if norm_s < 1e-12:
            raise DegenerateInputError("moments carry no state direction")
        psi = PureQubit.from_bloch(s / norm_s)
        return Decomposition(psi, psi, 1.0, 0.0, degenerate=True, method="moments")
    if s2 > 1.0:
        raise DegenerateInputError(f"|s|^2 = {s2} exceeds 1 beyond tolerance")
    w, v = np.linalg.eigh(dyad)
    m_top = float(w[2])
    e = v[:, 2]
    g = float(s @ e)
    if g < 0.0:
        g = -g
        e = -e
    denom = m_top + g * g
    if denom <= 0.0:
        raise NonPhysicalMomentsError("moment dyad has no positive direction")
    d2 = g * g / denom
    clamped = False
    if d2 > 1.0 + tol:
        raise NonPhysicalMomentsError(f"(p0-p1)^2 = {d2} exceeds 1 beyond tolerance")
    if d2 > 1.0:
        d2 = 1.0
        clamped = True
    delta = math.sqrt(d2)
    p0 = 0.5 * (1.0 + delta)
    p1 = 1.0 - p0
    sp = s - g * e
    half = math.sqrt(denom)
    a = sp + half * e
    b = sp - half * e
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateInputError("recovered Bloch vector has no direction")
    if w[2] - w[1] < DEGENERACY_TOL:
        warnings.warn("top moment-dyad eigenvalues nearly degenerate; "
                      "difference direction is ill-determined",
                      IllConditionedWarning, stacklevel=2)
    return Decomposition.ordered(PureQubit.from_bloch(a / na),
                                 PureQubit.from_bloch(b / nb),
                                 p0, p1, method="moments", clamped=clamped)

