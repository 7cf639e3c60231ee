"""Analytic recovery of the two preparation states from triplet moments.

Two independent routes are provided:

* `decompose_moments` works directly on (s, C).  The dyad M = C - s s^T
  equals p0 p1 (a-b)(a-b)^T, so its leading eigenvector e carries the
  difference direction; with m the leading eigenvalue and g = s.e,

      s' = (a+b)/2 = s - g e,      (p0-p1)^2 = g^2 / (m + g^2),
      a, b = s' +- sqrt(m + g^2) e.

  These are the closed-form relations s' = (s - C.s)/(1 - s.s) and
  (p0-p1)^2 = (s-s')^2/(1-s'^2) rewritten through the eigenpair, which
  keeps full accuracy when p0 p1 is tiny (there 1 - s.s = p0 p1 |a-b|^2
  underflows the direct form) and absorbs the p0 = p1 case, where the
  construction reduces to the leading eigenvector with eigenvalue
  (1 - a.b)/2.

* the null-ket route: the triplet block of a rank-two pair ensemble has a
  null vector xi = c00|00> + c01(|01> + |10>) + c11|11>, and the preparation
  amplitudes (a0, a1) are read off the roots z = a0*/a1* of

      c00 z^2 + 2 c01 z + c11 = 0.

  `xi_from_triplet` extracts the null ket, `states_from_xi` solves the
  quadratic (with the numerically stable root pairing), and
  `probabilities_given_states` fits the weights by least squares.

Eigen-decompositions use LAPACK through numpy.linalg.eigh.  `eigh3` adds
a deterministic phase per eigenvector (canonical_phase), and
`xi_from_triplet` fixes the phase of the null ket the same way, so it does
not depend on LAPACK's arbitrary phase; the real dyad of the moment route
needs only a sign, fixed by taking g = s.e >= 0.  Everything after the
eigensolver works on Python floats and complex numbers: the vectors have
three components, where a numpy call costs more than its arithmetic.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import (_POLE_TOL, PureQubit, canonical_phase, pair_ket_triplet,
                     wrap_phase)


class DegenerateInputError(ValueError):
    """Moments carry no resolvable two-state structure (e.g. |s|^2 > 1 + tol)."""


class NonPhysicalMomentsError(ValueError):
    """Moments lie outside the reachable set, beyond noise tolerance."""


class IllConditionedError(ValueError):
    """Requested operation is numerically meaningless for this input."""


class IllConditionedWarning(UserWarning):
    """Result is returned but poorly determined by the input."""


# eigenvalue gap below which an eigenvector is treated as ill-determined
DEGENERACY_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)


# --------------------------------------------------------------------------
# 3x3 Hermitian eigensolver

def eigh3(a):
    """Eigen-decomposition of a 3x3 Hermitian matrix by LAPACK.

    Returns (w, v) with eigenvalues w ascending and unit eigenvectors in the
    columns of v, each phase-fixed by canonical_phase.
    """
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    for k in range(3):
        v[:, k] = canonical_phase(v[:, k])
    return w, v


# --------------------------------------------------------------------------
# Result containers

@dataclass(frozen=True)
class TripletKet:
    """Pure triplet-sector ket c00|00> + c01(|01>+|10>) + c11|11>.

    Stored normalized: |c00|^2 + 2|c01|^2 + |c11|^2 = 1.
    """

    c00: complex
    c01: complex
    c11: complex

    def __post_init__(self):
        norm = math.sqrt(abs(self.c00) ** 2 + 2 * abs(self.c01) ** 2 + abs(self.c11) ** 2)
        if norm < 1e-150:
            raise ValueError("null-ket components are all zero")
        object.__setattr__(self, "c00", complex(self.c00) / norm)
        object.__setattr__(self, "c01", complex(self.c01) / norm)
        object.__setattr__(self, "c11", complex(self.c11) / norm)

    def components(self):
        """Coordinates in the ordered triplet basis (|00>, |11>, chi)."""
        return np.array([self.c00, self.c11, _SQRT2 * self.c01])


@dataclass(frozen=True)
class Decomposition:
    """Recovered source: two pure states with probabilities p0 >= p1.

    clamped marks noisy inputs whose (p0-p1)^2 landed slightly above 1 and
    was truncated to the boundary.
    """

    state0: PureQubit
    state1: PureQubit
    p0: float
    p1: float
    degenerate: bool = False
    method: str = ""
    clamped: bool = False

    @classmethod
    def ordered(cls, sa, sb, pa, pb, degenerate=False, method="", clamped=False):
        """Apply the labeling convention: p0 >= p1, ties by ascending Bloch order."""
        if pa < pb or (pa == pb and tuple(sb.bloch) < tuple(sa.bloch)):
            sa, sb, pa, pb = sb, sa, pb, pa
        return cls(sa, sb, pa, pb, degenerate, method, clamped)


# --------------------------------------------------------------------------
# Moment route

def decompose_moments(state, tol=1e-8):
    """Recover states and probabilities from (s, C) moments.

    tol sets the scale below which the source is treated as degenerate
    (single state); use max(1e-8, 4/sqrt(N)) for moments estimated from N
    counts, matching the statistical noise floor of linear inversion.
    The same single-state answer covers |s|^2 in [1, 1+tol]; beyond that
    DegenerateInputError is raised.  Noisy inputs whose (p0-p1)^2 lands in
    (1, 1+tol] are clamped to the boundary and marked; beyond that
    NonPhysicalMomentsError is raised.  A doubly degenerate top dyad
    eigenvalue (gap below DEGENERACY_TOL) leaves the difference direction
    arbitrary and issues an IllConditionedWarning.
    """
    s_arr = np.asarray(state.s, dtype=float)
    s = s_arr.tolist()
    # numpy's dot, which may round differently from a Python sum: the
    # s2 = 1 boundary is hit exactly by some tables
    s2 = float(s_arr @ s_arr)
    dyad = state.c - s_arr[:, None] * s_arr
    flat = dyad.ravel()
    if math.sqrt(flat @ flat) <= tol or 1.0 <= s2 <= 1.0 + tol:
        norm_s = math.sqrt(s2)
        if norm_s < 1e-12:
            raise DegenerateInputError("moments carry no state direction")
        psi = PureQubit.from_bloch([x / norm_s for x in s])
        return Decomposition(psi, psi, 1.0, 0.0, degenerate=True, method="moments")
    if s2 > 1.0:
        raise DegenerateInputError(f"|s|^2 = {s2} exceeds 1 beyond tolerance")
    w, v = np.linalg.eigh(dyad)
    _, w_mid, m_top = w.tolist()
    e = v[:, 2].tolist()
    g = _dot3(s, e)
    if g < 0.0:
        g = -g
        e = [-x for x in e]
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
    half = math.sqrt(denom)
    sp = [x - g * y for x, y in zip(s, e)]
    a = [x + half * y for x, y in zip(sp, e)]
    b = [x - half * y for x, y in zip(sp, e)]
    na = math.sqrt(_dot3(a, a))
    nb = math.sqrt(_dot3(b, b))
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateInputError("recovered Bloch vector has no direction")
    if m_top - w_mid < DEGENERACY_TOL:
        warnings.warn("top moment-dyad eigenvalues nearly degenerate; "
                      "difference direction is ill-determined",
                      IllConditionedWarning, stacklevel=2)
    return Decomposition.ordered(PureQubit.from_bloch([x / na for x in a]),
                                 PureQubit.from_bloch([x / nb for x in b]),
                                 p0, p1, method="moments", clamped=clamped)


def _dot3(u, v):
    """u . v of two 3-sequences of Python floats."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# --------------------------------------------------------------------------
# Null-ket route

def xi_from_triplet(m, degeneracy_tol=DEGENERACY_TOL):
    """Null ket of a triplet 3x3 matrix: eigenvector of smallest eigenvalue.

    Returns (TripletKet, eigenvalue).  If the two smallest eigenvalues agree
    within degeneracy_tol the ket is poorly determined and an
    IllConditionedWarning is issued; the returned vector is still
    deterministic.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3) or np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise ValueError("input must be a 3x3 Hermitian matrix")
    return _null_ket(m, degeneracy_tol)


def _null_ket(m, degeneracy_tol=DEGENERACY_TOL):
    """`xi_from_triplet` of a complex 3x3 matrix that is Hermitian by
    construction.  Warnings point at the caller's caller."""
    w, v = np.linalg.eigh(m)
    w0, w1, _ = w.tolist()
    if w1 - w0 < degeneracy_tol:
        warnings.warn("smallest triplet eigenvalues nearly degenerate; "
                      "null ket is ill-determined", IllConditionedWarning,
                      stacklevel=3)
    u = canonical_phase(v[:, 0].tolist())
    # divided as numpy divides, signed zeros included, so the ket equals
    # the one built from an eigh3 column: at a tie, the sign of a zero
    # orders the two roots in states_from_xi
    return TripletKet(u[0], np.complex128(u[2]) / _SQRT2, u[1]), w0


def _state_from_root(z):
    """Preparation state for a root z = a0*/a1* of the null-ket quadratic.

    This is `PureQubit.from_amplitudes(z*, 1)`, whose relative phase
    arg 1 - arg z* is arg z: one phase, taken from z directly.
    """
    r = abs(z)
    theta = math.atan2(1.0, r)
    if r <= _POLE_TOL or 1.0 <= _POLE_TOL * r:
        return PureQubit(theta, 0.0)
    return PureQubit(theta, wrap_phase(math.atan2(z.imag, z.real)))


def states_from_xi(xi, tol=1e-12):
    """Solve c00 z^2 + 2 c01 z + c11 = 0 for the two preparation states.

    Returns (state_a, state_b, degenerate).  A vanishing c00 moves one root
    to infinity, which corresponds to the state |0>; a double root yields
    two identical states and sets the degenerate flag.
    """
    c00 = xi.c00
    c01 = xi.c01
    c11 = xi.c11
    if abs(c00) <= tol:
        if abs(c01) <= tol:
            # only (a1*)^2 c11 = 0 remains: both states are |0>
            sa = sb = PureQubit(0.0, 0.0)
            return sa, sb, True
        sa = _state_from_root(-c11 / (2.0 * c01))
        sb = PureQubit(0.0, 0.0)
    else:
        sq = cmath.sqrt(c01 * c01 - c00 * c11)
        if (c01.conjugate() * sq).real < 0.0:
            sq = -sq
        q = -(c01 + sq)
        if abs(q) <= tol:
            # c01 ~ 0 and c00*c11 ~ 0 with c00 != 0: double root at z = 0
            sa = sb = _state_from_root(0j)
            return sa, sb, True
        sa = _state_from_root(q / c00)
        sb = _state_from_root(c11 / q)
    degenerate = _overlap(sa, sb) >= 1.0 - 1e-12
    return sa, sb, degenerate


def _overlap(sa, sb):
    """`PureQubit.overlap` from scalar Bloch components.  The method keeps
    numpy's dot, whose bits the result tables of the ML path carry."""
    return 0.5 * (1.0 + _dot3(_bloch(sa), _bloch(sb)))


def _bloch(state):
    """`PureQubit.bloch` as a tuple of Python floats."""
    s2 = math.sin(2 * state.theta)
    return (s2 * math.cos(state.phi), s2 * math.sin(state.phi),
            math.cos(2 * state.theta))


def probabilities_given_states(m, state0, state1):
    """Least-squares probabilities for known states given a triplet matrix.

    Fits m ~ p0 P0 + p1 P1 with p0 + p1 = 1, where Pj = |wj><wj| is the
    triplet projector of psi_j (x) psi_j; the optimum is a one-dimensional
    linear fit along P0 - P1.  With F = |<psi_0|psi_1>|^2, so that
    tr(P0 P1) = F^2, it has the closed form

        p0 = (<w0|m|w0> - <w1|m|w1> + 1 - F^2) / (2 (1 - F^2)).

    Probabilities are clamped to [0, 1].
    """
    f = _overlap(state0, state1)
    if f > 1.0 - 1e-10:
        raise IllConditionedError("states nearly identical; weights undetermined")
    m = np.asarray(m, dtype=complex).tolist()
    den = 1.0 - f * f
    num = (_expectation(m, pair_ket_triplet(state0))
           - _expectation(m, pair_ket_triplet(state1)) + den)
    p0 = min(1.0, max(0.0, num / (2.0 * den)))
    return p0, 1.0 - p0


def _expectation(m, w):
    """Re <w|m|w> for a 3x3 matrix m as nested lists and a 3-ket w."""
    return sum((x.conjugate() * (r[0] * w[0] + r[1] * w[1] + r[2] * w[2])).real
               for x, r in zip(w, m))
