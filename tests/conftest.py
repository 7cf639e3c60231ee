"""Shared fixtures and independent brute-force oracles.

Everything here is computed from first principles (kets, Kronecker
products, 4x4 traces) without touching the package's moment-feature or
triplet-matrix machinery, so library results can be checked against a
truly independent construction.
"""

import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so a test run stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

SQ2 = math.sqrt(2)

# triplet basis |00>, |11>, (|01> + |10>)/sqrt(2) as 4-vectors
TRIPLET_BASIS_4 = np.array([
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 1 / SQ2, 1 / SQ2, 0],
], dtype=complex)

SINGLET_4 = np.array([0, 1 / SQ2, -1 / SQ2, 0], dtype=complex)

# the end-to-end tests append one PASS/FAIL line per criterion here;
# the summary hook keeps them visible under output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def oracle_ket(theta, phi):
    return np.array([math.cos(theta),
                     complex(math.cos(phi), math.sin(phi)) * math.sin(theta)])


def oracle_bloch(theta, phi):
    k = oracle_ket(theta, phi)
    rho = np.outer(k, k.conj())
    return np.array([np.trace(rho @ s).real for s in (_SX, _SY, _SZ)])


def oracle_rho4(params):
    """4x4 pair density matrix straight from the two product kets."""
    t0, f0, t1, f1, al = params
    k0 = oracle_ket(t0, f0)
    k1 = oracle_ket(t1, f1)
    pair0 = np.kron(k0, k0)
    pair1 = np.kron(k1, k1)
    p0 = math.cos(al) ** 2
    return (p0 * np.outer(pair0, pair0.conj())
            + (1 - p0) * np.outer(pair1, pair1.conj()))


def oracle_triplet(params):
    """3x3 triplet-sector block of oracle_rho4."""
    rho = oracle_rho4(params)
    return TRIPLET_BASIS_4 @ rho @ TRIPLET_BASIS_4.conj().T


def oracle_triplet_coords(xi):
    """Triplet-basis coordinates of a TripletKet, projected from its
    4-vector c00|00> + c01(|01> + |10>) + c11|11>."""
    ket4 = np.array([xi.c00, xi.c01, xi.c01, xi.c11])
    return TRIPLET_BASIS_4.conj() @ ket4


def oracle_sic_elements4():
    """The nine rank-1 elements lifted to 4x4, built from the ket table."""
    w = np.exp(2j * math.pi / 3)
    kets3 = np.array([
        [0, -1, 1, 0, -w, 1, 0, -1, w],
        [1, 0, -1, 1, 0, -w, w, 0, -1],
        [-1, 1, 0, -w, 1, 0, -1, w, 0],
    ], dtype=complex) / SQ2
    out = []
    for j in range(9):
        v4 = TRIPLET_BASIS_4.T @ kets3[:, j]
        out.append(np.outer(v4, v4.conj()) / 3.0)
    return np.array(out)


def oracle_tetra_elements4():
    """Same-exit then coincidence elements from local projector products."""
    t = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                 dtype=float) / math.sqrt(3)
    local = [(np.eye(2) + tk[0] * _SX + tk[1] * _SY + tk[2] * _SZ) / 4.0
             for tk in t]
    out = [np.kron(local[k], local[k]) for k in range(4)]
    for j in range(4):
        for k in range(j + 1, 4):
            out.append(np.kron(local[j], local[k])
                       + np.kron(local[k], local[j]))
    return np.array(out)


def oracle_probs(params, povm_name):
    rho = oracle_rho4(params)
    elements = (oracle_sic_elements4() if povm_name == "sic"
                else oracle_tetra_elements4())
    return np.array([np.trace(e @ rho).real for e in elements])


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every process pool a test opens is shut down by its end."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(1234)))


@pytest.fixture
def param_draws(rng):
    from pairtomo import random_param_array
    return random_param_array(rng, 100)
