"""States of a two-state qubit-pair source and their moment representation.

The source model: every emitted pair is prepared in psi0 (x) psi0 with
probability p0 or in psi1 (x) psi1 with probability p1 = 1 - p0, where
psi0 and psi1 are unknown pure qubit states.  Any mixture of this form is
supported on the symmetric (triplet) sector of the two-qubit space and is
completely described by its first and second moments,

    rho = (1/4) * (I4 + s . (sigma(1) + sigma(2)) + sigma(1) . C . sigma(2)),

with

    s = p0*a + p1*b,        C = p0*a a^T + p1*b b^T,

where a, b are the Bloch vectors of psi0, psi1.  C is symmetric and has
unit trace for states of this family.

Parameterization used throughout the package:

    psi = cos(theta)|0> + e^{i phi} sin(theta)|1>,   theta in [0, pi/2],
                                                     phi   in [0, 2 pi),
    p0 = cos(alpha)^2,  p1 = sin(alpha)^2,           alpha in [0, pi/2].

Restricting theta to [0, pi/2] makes (theta, phi) <-> Bloch vector a
bijection except at the poles, where phi is fixed to 0.

Moments are packed into the length-10 feature vector

    f = (1, sx, sy, sz, Cxx, Cyy, Czz, Cxy, Cxz, Cyz),

C entries in the order of `_C_PAIRS`.  The state is linear in f:
rho = sum_i f_i O_i, with the 4x4 operators O_i of `FEATURE_OPERATORS`
built from `PAULIS`.  Triplet-sector matrices are written in the basis

    |00>,  |11>,  (|01> + |10>)/sqrt(2),

whose rows, unnormalized, are `TRIPLET_BASIS`; the triplet block of O_i
is `FEATURE_TRIPLETS[i]`.  So the triplet block and every measurement
probability are one matrix product with f.
"""

import math
from dataclasses import dataclass, field

import numpy as np

HALF_PI = math.pi / 2
TWO_PI = 2 * math.pi

# Pauli matrices x, y, z, used for embedding states in the full 4x4 picture
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

FEATURE_NAMES = ("1", "sx", "sy", "sz", "cxx", "cyy", "czz", "cxy", "cxz", "cyz")

# (row, column) of the entry of C behind each of features 4..9
_C_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_C_ROWS, _C_COLS = np.array(_C_PAIRS).T
# the feature position of every entry of C
_C_OF_FEATURES = np.empty((3, 3), dtype=int)
_C_OF_FEATURES[_C_ROWS, _C_COLS] = _C_OF_FEATURES[_C_COLS, _C_ROWS] = range(4, 10)


def _sym_kron(a, b):
    return np.kron(a, b) + np.kron(b, a)


# (10, 4, 4) operators O_i with rho = sum_i f_i O_i: I/4, the local terms
# (sigma_k (x) I + I (x) sigma_k)/4 and the symmetrized correlation terms,
# whose off-diagonal C entries stand for both C_kl and C_lk
FEATURE_OPERATORS = np.array(
    [np.eye(4)] + [_sym_kron(p, np.eye(2)) for p in PAULIS]
    + [_sym_kron(PAULIS[i], PAULIS[j]) / (1 + (i == j)) for i, j in _C_PAIRS]
) / 4.0
FEATURE_OPERATORS.setflags(write=False)

# triplet basis |00>, |11>, |01> + |10> as rows over |00>, |01>, |10>, |11>;
# the last row has norm sqrt(2), which _TRIPLET_SCALE divides out
TRIPLET_BASIS = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0]], dtype=float)
TRIPLET_BASIS.setflags(write=False)

_POLE_TOL = 1e-15
# tolerances of SymmetricTwoQubitState.is_physical
_EIG_TOL = 1e-10
_TRACE_TOL = 1e-12


def _check_angle(name, value, upper):
    if not (0.0 <= value <= upper) or not math.isfinite(value):
        raise ValueError(f"{name} = {value!r} outside [0, {upper}]")


def _check_phase(name, value):
    if not (0.0 <= value < TWO_PI) or not math.isfinite(value):
        raise ValueError(f"{name} = {value!r} outside [0, 2*pi)")


def wrap_phase(phi):
    """Reduce angles (scalar or array) modulo 2 pi into [0, 2 pi).

    A plain `phi % (2 pi)` rounds a tiny negative angle up to exactly
    2 pi; that value is mapped to 0, the same point on the circle.
    """
    if isinstance(phi, float):
        # the same fmod-and-adjust rule as np.mod, without the array round trip
        phi %= TWO_PI
        return 0.0 if phi >= TWO_PI else phi
    phi = np.mod(phi, TWO_PI)
    return np.where(phi >= TWO_PI, 0.0, phi)[()]


def canonical_phase(ket):
    """Fix the global phase of a complex vector deterministically.

    The component of largest magnitude (first such index on ties) is made
    real and non-negative.  Returns a new list of Python complex numbers.
    """
    ket = [complex(c) for c in ket]
    mags = [abs(c) for c in ket]
    mag = max(mags)
    if mag == 0.0:
        return ket
    k = mags.index(mag)
    rot = ket[k].conjugate() / mag
    out = [c * rot for c in ket]
    out[k] = complex(mag)
    return out


@dataclass(frozen=True)
class PureQubit:
    """A pure qubit state cos(theta)|0> + e^{i phi} sin(theta)|1>.

    The global phase is fixed by keeping the |0> amplitude real and >= 0.
    At the poles (theta = 0 or pi/2) phi is normalized to 0 so that equal
    states compare equal.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        _check_angle("theta", self.theta, HALF_PI)
        _check_phase("phi", self.phi)
        if math.sin(2 * self.theta) <= _POLE_TOL and self.phi != 0.0:
            object.__setattr__(self, "phi", 0.0)

    @classmethod
    def from_amplitudes(cls, a0, a1):
        """Canonical angles for any (not necessarily normalized) amplitudes."""
        a0 = complex(a0)
        a1 = complex(a1)
        r0 = abs(a0)
        r1 = abs(a1)
        if r0 == 0.0 and r1 == 0.0:
            raise ValueError("zero amplitude vector has no state")
        theta = math.atan2(r1, r0)
        if r0 <= _POLE_TOL * r1 or r1 <= _POLE_TOL * r0:
            phi = 0.0
        else:
            phi = wrap_phase(np.angle(a1) - np.angle(a0))
        return cls(theta, phi)

    @classmethod
    def from_bloch(cls, v):
        """State along the given Bloch vector (unit length expected).

        theta comes from atan2 rather than acos(z), which loses half the
        digits near the poles.
        """
        x, y, z = (float(c) for c in v)
        rho = math.hypot(x, y)
        theta = 0.5 * math.atan2(rho, z)
        if rho <= _POLE_TOL:
            phi = 0.0
        else:
            phi = wrap_phase(math.atan2(y, x))
        return cls(theta, phi)

    @classmethod
    def from_any_angles(cls, theta, phi):
        """Canonicalize angles that may lie outside the standard ranges."""
        return cls.from_amplitudes(math.cos(theta),
                                   complex(math.cos(phi), math.sin(phi)) * math.sin(theta))

    @property
    def amplitudes(self):
        return np.array([math.cos(self.theta),
                         complex(math.cos(self.phi), math.sin(self.phi)) * math.sin(self.theta)])

    @property
    def bloch(self):
        return bloch_from_angles(self.theta, self.phi)

    def overlap(self, other):
        """|<self|other>|^2, computed from Bloch vectors."""
        return 0.5 * (1.0 + float(np.dot(self.bloch, other.bloch)))


def bloch_from_angles(theta, phi):
    """Unit Bloch vector (sin2t cos phi, sin2t sin phi, cos2t) of PureQubit angles."""
    _check_angle("theta", theta, HALF_PI)
    _check_phase("phi", phi)
    s2 = math.sin(2 * theta)
    return np.array([s2 * math.cos(phi), s2 * math.sin(phi), math.cos(2 * theta)])


@dataclass(frozen=True)
class ParamVector:
    """Full source parameterization theta = (theta0, phi0, theta1, phi1, alpha)."""

    theta0: float
    phi0: float
    theta1: float
    phi1: float
    alpha: float

    def __post_init__(self):
        for name in ("theta0", "phi0", "theta1", "phi1", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_angle("theta0", self.theta0, HALF_PI)
        _check_angle("theta1", self.theta1, HALF_PI)
        _check_angle("alpha", self.alpha, HALF_PI)
        _check_phase("phi0", self.phi0)
        _check_phase("phi1", self.phi1)

    @classmethod
    def from_array(cls, arr):
        return cls(*(float(v) for v in arr))

    @classmethod
    def from_any_angles(cls, theta0, phi0, theta1, phi1, alpha):
        """Canonicalize angles that may lie outside the standard box.

        The states are rebuilt from their amplitudes and alpha is reduced
        through p0 = cos^2(alpha); the represented source is unchanged.
        """
        return cls.from_states(PureQubit.from_any_angles(theta0, phi0),
                               PureQubit.from_any_angles(theta1, phi1),
                               math.cos(alpha) ** 2)

    @classmethod
    def from_states(cls, state0, state1, p0):
        if not 0.0 <= p0 <= 1.0:
            raise ValueError(f"p0 = {p0!r} outside [0, 1]")
        alpha = math.acos(math.sqrt(p0))
        return cls(state0.theta, state0.phi, state1.theta, state1.phi, alpha)

    def to_array(self):
        return np.array([self.theta0, self.phi0, self.theta1, self.phi1, self.alpha])

    @property
    def p0(self):
        return math.cos(self.alpha) ** 2

    @property
    def p1(self):
        return math.sin(self.alpha) ** 2

    @property
    def state0(self):
        return PureQubit(self.theta0, self.phi0)

    @property
    def state1(self):
        return PureQubit(self.theta1, self.phi1)


@dataclass(frozen=True)
class SymmetricTwoQubitState:
    """Moment representation (s, C) of a swap-symmetric two-qubit state.

    C is stored exactly symmetric.  For pair-source ensembles trace(C) = 1
    and the singlet weight vanishes; linear-inversion estimates may violate
    positivity and the unit trace, which is what `is_physical` and
    `singlet_weight` report.
    """

    s: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        c = np.array(self.c, dtype=float)
        if s.shape != (3,) or c.shape != (3, 3):
            raise ValueError("s must be shape (3,), c must be shape (3, 3)")
        if not (np.isfinite(s).all() and np.isfinite(c).all()):
            raise ValueError("moments must be finite")
        if not np.max(np.abs(c - c.T)) <= 1e-12:
            raise ValueError("correlation dyad must be symmetric")
        c = 0.5 * (c + c.T)
        s.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_features(cls, features):
        """Inverse of `features`; the leading constant entry is ignored.

        C is symmetric by construction, so the constructor's checks are
        not run.
        """
        f = np.asarray(features, dtype=float)
        if f.shape != (10,):
            raise ValueError(f"features shape {f.shape} is not (10,)")
        s = f[1:4].copy()
        c = f[_C_OF_FEATURES]
        state = object.__new__(cls)
        s.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(state, "s", s)
        object.__setattr__(state, "c", c)
        return state

    @property
    def singlet_weight(self):
        """Weight on the antisymmetric (singlet) sector, (1 - tr C)/4."""
        c = self.c
        # summed left to right, as np.trace does
        return (1.0 - float(c[0, 0] + c[1, 1] + c[2, 2])) / 4.0

    def features(self):
        """Length-10 moment feature vector (see module docstring)."""
        return np.concatenate(([1.0], self.s, self.c[_C_ROWS, _C_COLS]))

    def matrix4(self):
        """Full 4x4 density-matrix embedding."""
        return np.tensordot(self.features(), FEATURE_OPERATORS, 1)

    def is_physical(self):
        """True when this is a valid pair-ensemble state within tolerance.

        Checks both positivity of the 4x4 embedding (eigenvalues >=
        -_EIG_TOL) and trace(C) = 1 within _TRACE_TOL (zero singlet
        weight).  Linear inversion on finite counts routinely fails this;
        the flag is informational, nothing is repaired.
        """
        if not abs(float(np.trace(self.c)) - 1.0) <= _TRACE_TOL:
            return False
        return bool(np.linalg.eigvalsh(self.matrix4())[0] >= -_EIG_TOL)


def ensemble_state(params):
    """Moments (s, C) of the pair source described by a ParamVector."""
    a = bloch_from_angles(params.theta0, params.phi0)
    b = bloch_from_angles(params.theta1, params.phi1)
    p0 = params.p0
    p1 = params.p1
    s = p0 * a + p1 * b
    c = p0 * np.outer(a, a) + p1 * np.outer(b, b)
    return SymmetricTwoQubitState(s, 0.5 * (c + c.T))


def moment_features(thetas):
    """Vectorized moment features for an (..., 5) array of parameter vectors.

    Column order matches ParamVector.to_array(); output columns follow
    FEATURE_NAMES.  This is the hot path for likelihood evaluation, so it
    works on batches without constructing any state objects.
    """
    thetas = np.asarray(thetas, dtype=float)
    t0, f0, t1, f1, al = (thetas[..., i] for i in range(5))
    s2t0 = np.sin(2 * t0)
    s2t1 = np.sin(2 * t1)
    ax = s2t0 * np.cos(f0)
    ay = s2t0 * np.sin(f0)
    az = np.cos(2 * t0)
    bx = s2t1 * np.cos(f1)
    by = s2t1 * np.sin(f1)
    bz = np.cos(2 * t1)
    p0 = np.cos(al) ** 2
    p1 = 1.0 - p0
    out = np.empty(thetas.shape[:-1] + (10,))
    out[..., 0] = 1.0
    out[..., 1] = p0 * ax + p1 * bx
    out[..., 2] = p0 * ay + p1 * by
    out[..., 3] = p0 * az + p1 * bz
    out[..., 4] = p0 * ax * ax + p1 * bx * bx
    out[..., 5] = p0 * ay * ay + p1 * by * by
    out[..., 6] = p0 * az * az + p1 * bz * bz
    out[..., 7] = p0 * ax * ay + p1 * bx * by
    out[..., 8] = p0 * ax * az + p1 * bx * bz
    out[..., 9] = p0 * ay * az + p1 * by * bz
    return out


def random_param_array(rng, size):
    """(size, 5) parameter vectors drawn from the reference measure.

    Bloch vectors isotropic on the sphere (cos 2theta uniform on [-1, 1],
    phi uniform on [0, 2pi)) and alpha uniform on [0, pi/2].
    """
    u = rng.random((size, 5))
    out = np.empty((size, 5))
    out[:, 0] = 0.5 * np.arccos(1.0 - 2.0 * u[:, 0])
    out[:, 1] = TWO_PI * u[:, 1]
    out[:, 2] = 0.5 * np.arccos(1.0 - 2.0 * u[:, 2])
    out[:, 3] = TWO_PI * u[:, 3]
    out[:, 4] = HALF_PI * u[:, 4]
    return out


def _isotropic_bloch(u_lat, u_phi):
    """(3, n) unit Bloch vectors from uniforms, cos 2theta = 1 - 2 u_lat and
    phi = 2 pi u_phi.

    sin 2theta = 2 sqrt(u (1 - u)) keeps its digits near the poles, where
    sqrt(1 - cos^2 2theta) would cancel.  The phase enters through its
    half-angle tangent t = tan(phi / 2): cos phi = (1 - t^2) / (1 + t^2) and
    sin phi = 2 t / (1 + t^2), one tan in place of a cos and a sin.  tan
    has period pi, so phi / 2 = pi u_phi is first moved into [-pi/2, pi/2];
    at u_phi = 1/2, t is about 1.6e16, not infinite, and the two formulas
    still give cos phi = -1 and sin phi = 0 to rounding.
    """
    r = u_lat * (1.0 - u_lat)
    np.sqrt(r, out=r)
    r *= 2.0
    t = np.rint(u_phi)
    np.subtract(u_phi, t, out=t)
    t *= math.pi
    np.tan(t, out=t)
    v = np.empty((3, len(u_lat)))
    tt = t * t
    np.subtract(1.0, tt, out=v[0])
    tt += 1.0
    # one factor sin 2theta / (1 + t^2) for both components
    r /= tt
    v[0] *= r
    np.multiply(t, r, out=v[1])
    v[1] *= 2.0
    np.subtract(1.0, 2.0 * u_lat, out=v[2])
    return v


def prior_features(rng, size):
    """(10, size) moment features of parameter vectors from the reference
    measure, one contiguous row per FEATURE_NAMES entry.

    Draws the same uniforms as `random_param_array` and agrees with
    `moment_features(random_param_array(rng, size)).T` to 2e-15, but goes
    from uniforms to features without the angles in between and without
    sin, cos or arccos: each Bloch phase takes the tangent of its half
    angle (see `_isotropic_bloch`), and p0 = cos^2 alpha is taken as
    1 / (1 + tan^2 alpha), three tan calls per sample in all.
    """
    u = np.ascontiguousarray(rng.random((size, 5)).T)
    a = _isotropic_bloch(u[0], u[1])
    b = _isotropic_bloch(u[2], u[3])
    p0 = np.tan(HALF_PI * u[4])
    p0 *= p0
    p0 += 1.0
    np.divide(1.0, p0, out=p0)
    out = np.empty((10, size))
    out[0] = 1.0
    # s = b + p0 (a - b),  C = b b^T + p0 (a a^T - b b^T)
    np.subtract(a, b, out=out[1:4])
    out[1:4] *= p0
    out[1:4] += b
    for row, (i, j) in enumerate(_C_PAIRS, start=4):
        bb = b[i] * b[j]
        f = out[row]
        np.multiply(a[i], a[j], out=f)
        f -= bb
        f *= p0
        f += bb
    return out


# --------------------------------------------------------------------------
# Triplet-sector 3x3 representation.

_SQRT2 = math.sqrt(2.0)

# D X D for D = diag(1, 1, 1/sqrt(2)), as an elementwise factor: it
# normalizes the chi row and column of a block taken in TRIPLET_BASIS.
# The chi diagonal takes 1/2 exactly, which (sqrt(2)/2)^2 misses by an ulp.
_TRIPLET_SCALE = np.array([[1.0, 1.0, _SQRT2 / 2], [1.0, 1.0, _SQRT2 / 2],
                           [_SQRT2 / 2, _SQRT2 / 2, 0.5]])

# (10, 3, 3) triplet blocks T_i of FEATURE_OPERATORS: m = sum_i f_i T_i.
# The unnormalized blocks are exact (multiples of 1/4), so every entry is
# one rounding of its closed form.  Adding +0 clears the sign of the
# products' zeros, which m would carry into the eigensolver of the null
# ket, where the sign of a zero can order two tied roots.  A first batched
# complex matmul here would add about 0.3 MB to every process's RSS.
FEATURE_TRIPLETS = (np.einsum("ak,ikl,bl->iab", TRIPLET_BASIS,
                              FEATURE_OPERATORS, TRIPLET_BASIS)
                    * _TRIPLET_SCALE + 0.0)
FEATURE_TRIPLETS.setflags(write=False)


# FEATURE_TRIPLETS as a (10, 9) matrix, a view of the same memory
_TRIPLET_MAP = FEATURE_TRIPLETS.reshape(10, 9)


def triplet_from_features(features):
    """Triplet 3x3 matrices from (..., 10) moment features."""
    f = np.asarray(features)
    return np.dot(f.reshape(-1, 10), _TRIPLET_MAP).reshape(f.shape[:-1] + (3, 3))


def to_triplet_matrix(state):
    """3x3 triplet-sector block of the state.

    Any singlet weight (see `state.singlet_weight`) lives outside this block
    and is simply not represented; for pair-ensemble states it is zero and
    the result has unit trace.
    """
    return triplet_from_features(state.features())


def from_triplet_matrix(m):
    """Moments (s, C) from a triplet 3x3 Hermitian matrix.

    Exact inverse of `to_triplet_matrix`: the nine real degrees of freedom of
    the block determine s and C completely.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError("triplet matrix must be 3x3")
    if not (np.isfinite(m).all() and np.max(np.abs(m - m.conj().T)) <= 1e-12):
        raise ValueError("triplet matrix must be finite and Hermitian")
    m00 = m[0, 0].real
    m11 = m[1, 1].real
    m22 = m[2, 2].real
    sz = m00 - m11
    czz = 2.0 * (m00 + m11) - 1.0
    cxx_m_cyy = 4.0 * m[0, 1].real
    cxy = -2.0 * m[0, 1].imag
    cxx_p_cyy = 4.0 * m22 - 1.0 + czz
    cxx = 0.5 * (cxx_p_cyy + cxx_m_cyy)
    cyy = 0.5 * (cxx_p_cyy - cxx_m_cyy)
    sx = _SQRT2 * (m[0, 2].real + m[1, 2].real)
    cxz = _SQRT2 * (m[0, 2].real - m[1, 2].real)
    sy = _SQRT2 * (m[1, 2].imag - m[0, 2].imag)
    cyz = -_SQRT2 * (m[0, 2].imag + m[1, 2].imag)
    s = np.array([sx, sy, sz])
    c = np.array([[cxx, cxy, cxz], [cxy, cyy, cyz], [cxz, cyz, czz]])
    return SymmetricTwoQubitState(s, c)


def pair_ket_triplet(state):
    """Triplet-basis components of psi (x) psi for a PureQubit psi.

    Returns [a0^2, a1^2, sqrt(2) a0 a1] as Python complex numbers; always
    a unit vector.
    """
    a0 = math.cos(state.theta)
    a1 = complex(math.cos(state.phi), math.sin(state.phi)) * math.sin(state.theta)
    return [complex(a0 * a0), a1 * a1, _SQRT2 * a0 * a1]
