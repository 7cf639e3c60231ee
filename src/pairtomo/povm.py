"""Joint measurement models for qubit pairs.

Two informationally complete measurements on the pair are implemented.

* A nine-outcome SIC measurement acting on the triplet sector, with
  elements Pi_j = |v_j><v_j| / 3.  The kets v_j, written in the ordered
  triplet basis (|00>, |11>, (|01>+|10>)/sqrt(2)), are the columns of

        1    [  0  -1   1   0  -w   1   0  -1   w ]
      ----   [  1   0  -1   1   0  -w   w   0  -1 ],    w = exp(2 pi i/3).
      sqrt2  [ -1   1   0  -w   1   0  -1   w   0 ]

  The elements sum to the triplet identity, satisfy
  tr(Pi_j Pi_k) = 1/36 + delta_jk/12, and admit the exact inversion
  rho = sum_j q_j (12 Pi_j - I).

* A ten-outcome model built from local tetrahedron measurements
  Pi_k = (I + t_k.sigma)/4 on each qubit, with outcomes grouped into the
  four same-exit events Pi_k (x) Pi_k and the six coincidence events
  Pi_j (x) Pi_k + Pi_k (x) Pi_j (j < k).  The dual reconstruction operators
  use R_k = (I + 3 t_k.sigma)/2.  In moment form,

      q_k^s  = (1 + 2 t_k.s + t_k.C.t_k) / 16,
      q_jk^c = (1 + (t_j + t_k).s + t_j.C.t_k) / 8,

  and linear inversion reads

      s = 3 sum_k f_k^s t_k + (3/2) sum_{j<k} f_jk^c (t_j + t_k),
      C = 9 sum_k f_k^s t_k t_k^T
          + (9/2) sum_{j<k} f_jk^c (t_j t_k^T + t_k t_j^T).

  The singlet weight of the inversion is (-2 sum n^s + sum n^c)/N.

Both measurements are written as one pair of linear maps on the moment
features of qstate: a K x 10 forward matrix to outcome probabilities and
a 10 x K dual matrix from relative frequencies back to features, which is
linear inversion.  Matrices and element sets are built at import time
and frozen.
"""

import math

import numpy as np

from .qstate import (FEATURE_TRIPLETS, PAULIS, SymmetricTwoQubitState,
                     from_triplet_matrix)


class EmptyDataError(ValueError):
    """A counts vector with zero total cannot be inverted."""


def _frozen(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


class LinearPovm:
    """A measurement on the pair as a pair of linear maps on moment features.

    moment_matrix (K x 10) sends moment features to outcome probabilities;
    dual_matrix (10 x K) sends relative frequencies back to moment
    features.  Subclasses build both matrices and the 4x4 elements.
    """

    name = ""
    n_outcomes = 0

    def __init__(self, outcome_names, moment_matrix, dual_matrix):
        self.outcome_names = tuple(outcome_names)
        self.moment_matrix = _frozen(moment_matrix)
        self.dual_matrix = _frozen(dual_matrix)

    def validate_counts(self, counts):
        """Counts as a float vector; rejects bad shapes, signs and empty data."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.n_outcomes,):
            raise ValueError(f"counts shape {counts.shape} does not match "
                             f"{self.name} ({self.n_outcomes} outcomes)")
        if np.any(counts < 0) or not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite and non-negative")
        if counts.sum() <= 0.0:
            raise EmptyDataError("counts sum to zero")
        return counts

    def probabilities_from_features(self, features):
        """(..., 10) moment features -> (..., K) outcome probabilities."""
        return np.asarray(features) @ self.moment_matrix.T

    def probabilities(self, state):
        """Outcome probabilities of a SymmetricTwoQubitState."""
        return self.probabilities_from_features(state.features())

    def linear_inversion(self, counts):
        """Moments (s, C) from relative frequencies through the dual matrix.

        For finite counts the result may be non-positive and, for the
        tetrahedron scheme, carry a nonzero singlet weight; see
        SymmetricTwoQubitState.is_physical.
        """
        counts = self.validate_counts(counts)
        return SymmetricTwoQubitState.from_features(
            self.dual_matrix @ (counts / counts.sum()))


class SicPovm(LinearPovm):
    """The nine-outcome triplet-sector SIC measurement."""

    name = "sic"
    n_outcomes = 9

    def __init__(self):
        w = np.exp(2j * math.pi / 3)
        kets = np.array([
            [0, -1, 1, 0, -w, 1, 0, -1, w],
            [1, 0, -1, 1, 0, -w, w, 0, -1],
            [-1, 1, 0, -w, 1, 0, -1, w, 0],
        ], dtype=complex) / math.sqrt(2.0)
        elements = np.einsum("aj,bj->jab", kets, kets.conj()) / 3.0
        # q_j as a linear map on moment features, via the triplet block
        moment = np.real(np.einsum("jab,iba->ji", elements, FEATURE_TRIPLETS))
        # frame inversion rho = sum_j q_j (12 Pi_j - I), in feature form
        dual = np.array([from_triplet_matrix(12.0 * e - np.eye(3)).features()
                         for e in elements]).T
        self.elements = _frozen(elements)
        super().__init__((f"v{j}" for j in range(1, 10)), moment, dual)

    def elements4(self):
        """4x4 embeddings of the elements (diagnostics and self tests)."""
        emb = np.zeros((9, 4, 4), dtype=complex)
        r = 1.0 / math.sqrt(2.0)
        lift = np.array([[1, 0, 0], [0, 0, r], [0, 0, r], [0, 1, 0]], dtype=complex)
        for j in range(9):
            emb[j] = lift @ self.elements[j] @ lift.conj().T
        return emb


class TetraPovm(LinearPovm):
    """Local tetrahedron measurements with same-exit/coincidence grouping."""

    name = "tetra"
    n_outcomes = 10

    def __init__(self):
        t = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     dtype=float) / math.sqrt(3.0)
        pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        # each outcome as a moment pair (u, d): same-exit k has (t_k, t_k t_k^T),
        # coincidence jk the symmetrized mean of the two orderings
        outcomes = [(t[k], np.outer(t[k], t[k])) for k in range(4)] + [
            (0.5 * (t[j] + t[k]), 0.5 * (np.outer(t[j], t[k]) + np.outer(t[k], t[j])))
            for j, k in pairs]
        feats = np.array([SymmetricTwoQubitState(u, d).features() for u, d in outcomes])
        # q = w (1 + 2 u.s + d:C), w = 1/16 or 1/8; d:C counts off-diagonals twice
        weights = np.array([1.0 / 16.0] * 4 + [1.0 / 8.0] * 6)
        moment = weights[:, None] * feats * [1, 2, 2, 2, 1, 1, 1, 2, 2, 2]
        # R_k = (I + 3 t_k.sigma)/2 maps frequencies back as s = 3u, C = 9d
        dual = (feats * [1, 3, 3, 3, 9, 9, 9, 9, 9, 9]).T
        self.directions = _frozen(t)
        self.pairs = pairs
        super().__init__(
            tuple(f"s{k}" for k in range(1, 5))
            + tuple(f"c{j + 1}{k + 1}" for j, k in pairs), moment, dual)

    def elements4(self):
        """4x4 POVM elements (diagnostics and self tests)."""
        local = np.array([(np.eye(2) + np.einsum("a,aij->ij", tk, PAULIS)) / 4.0
                          for tk in self.directions])
        out = np.zeros((10, 4, 4), dtype=complex)
        for k in range(4):
            out[k] = np.kron(local[k], local[k])
        for i, (j, k) in enumerate(self.pairs):
            out[4 + i] = np.kron(local[j], local[k]) + np.kron(local[k], local[j])
        return out


SIC = SicPovm()
TETRA = TetraPovm()
_POVMS = {"sic": SIC, "tetra": TETRA}


def get_povm(name):
    """Look up a measurement model by name ('sic' or 'tetra')."""
    if isinstance(name, LinearPovm):
        return name
    try:
        return _POVMS[name]
    except KeyError:
        raise ValueError(f"unknown povm {name!r}; expected 'sic' or 'tetra'") from None
