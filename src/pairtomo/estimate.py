"""Point estimators for the pair source, and error diagnostics.

Two estimator families operate on a vector of detection counts:

* linear inversion (`li_pipeline`): counts -> relative frequencies ->
  the measurement's dual matrix, then one of the two analytic recovery
  routes from `recon`.  Unbiased but the intermediate state need not be
  physical; its singlet admixture (nonzero only for tetrahedron data) is
  projected out and the triplet part renormalized before recovery.

* maximum likelihood (`ml_estimate`): minimize -log(L)/N over the
  five-parameter box (theta0, phi0, theta1, phi1, alpha) in
  [0, pi/2] x [0, 2pi) x [0, pi/2] x [0, 2pi) x [0, pi/2], so the result
  is physical by construction.  The search is a covariance matrix
  adaptation evolution strategy (the standard (mu/mu_w, lambda) scheme
  with cumulative step-size control); the box is handled by a smooth
  wrap: phi angles are periodic mod 2pi and theta/alpha reflect off the
  box edges, which leaves the objective continuous on all of R^5.

The likelihood omits the multinomial combinatorial factor throughout; it
cancels from every ratio and every location of the optimum.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .povm import get_povm
from .qstate import (HALF_PI, ParamVector, SymmetricTwoQubitState,
                     moment_features, random_param_array, to_triplet_matrix,
                     wrap_phase)
from .recon import (Decomposition, IllConditionedError, decompose_moments,
                    eigh3, probabilities_given_states, states_from_xi,
                    xi_from_triplet)

_FOLD_REFLECT = (0, 2, 4)
_FOLD_WRAP = (1, 3)


def fold_params(x):
    """Map arbitrary real parameter rows into the canonical box.

    Reflection for the theta/alpha coordinates, wrapping for the phases;
    the composition is continuous, so the optimizer sees no artificial
    cliffs at the box boundary.
    """
    x = np.asarray(x, dtype=float)
    out = np.array(x, dtype=float, copy=True)
    for j in _FOLD_REFLECT:
        t = np.mod(x[..., j], math.pi)
        out[..., j] = np.where(t > HALF_PI, math.pi - t, t)
    for j in _FOLD_WRAP:
        out[..., j] = wrap_phase(x[..., j])
    return out


def log_likelihood(params, counts, povm):
    """Sum_j n_j log q_j(params); -inf if any observed outcome has q_j = 0."""
    povm = get_povm(povm)
    counts = povm.validate_counts(counts)
    if isinstance(params, ParamVector):
        arr = params.to_array()
    else:
        arr = np.asarray(params, dtype=float)
    qs = moment_features(arr) @ povm.moment_matrix.T
    active = counts > 0
    qa = qs[active]
    if np.any(qa <= 0.0):
        return -math.inf
    return float(counts[active] @ np.log(qa))


def _batch_objective(counts, povm):
    """-log(L)/N as a vectorized function of (B, 5) parameter rows."""
    counts = np.asarray(counts, dtype=float)
    n_total = counts.sum()
    active = counts > 0
    n_active = counts[active]
    w_active = povm.moment_matrix[active]

    def objective(rows):
        qs = moment_features(rows) @ w_active.T
        bad = (qs <= 0.0).any(axis=1)
        vals = -(np.log(np.maximum(qs, 1e-300)) @ n_active) / n_total
        vals[bad] = np.inf
        return vals

    return objective


# --------------------------------------------------------------------------
# Maximum likelihood

@dataclass(frozen=True)
class OptimizerConfig:
    """Evolution-strategy settings for ml_estimate."""

    population: int = 12
    sigma0: float = 0.3
    max_evaluations: int = 20000
    tol: float = 1e-10
    restarts: int = 5
    seed: object = None

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if not (self.sigma0 > 0 and self.tol > 0):
            raise ValueError("sigma0 and tol must be positive")
        if self.max_evaluations < self.population:
            raise ValueError("max_evaluations smaller than one generation")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class MlEstimate:
    """Best parameter vector found, with the achieved -log(L)/N."""

    params: ParamVector
    objective: float
    converged: bool
    n_evaluations: int


def _cma_minimize(objective, x0, sigma0, budget, tol, popsize, rng):
    """One evolution-strategy run; returns (best_x_folded, best_f, converged, evals).

    Hyperparameters follow the standard (mu/mu_w, lambda) recipe with
    rank-one plus rank-mu covariance updates and cumulative step-size
    adaptation. Convergence is declared when the best objective over a
    trailing window of generations spans less than tol.
    """
    n = len(x0)
    mu = popsize // 2
    weights = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = weights / weights.sum()
    mueff = 1.0 / float(weights @ weights)
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    cs = (mueff + 2.0) / (n + mueff + 5.0)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    mean = np.array(x0, dtype=float)
    sigma = float(sigma0)
    cov = np.eye(n)
    ps = np.zeros(n)
    pc = np.zeros(n)
    best_x = fold_params(mean)
    best_f = float(objective(best_x[None, :])[0])
    evals = 1
    hist = deque(maxlen=10 + math.ceil(30.0 * n / popsize))
    gen = 0
    while evals + popsize <= budget:
        gen += 1
        eigvals, basis = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-20)
        d = np.sqrt(eigvals)
        z = rng.standard_normal((popsize, n))
        y = z @ (basis * d).T
        x = mean + sigma * y
        xf = fold_params(x)
        f = objective(xf)
        evals += popsize
        order = np.argsort(f, kind="stable")
        if f[order[0]] < best_f:
            best_f = float(f[order[0]])
            best_x = xf[order[0]].copy()
        y_sel = y[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w
        inv_sqrt = (basis / d) @ basis.T
        ps = (1.0 - cs) * ps + math.sqrt(cs * (2.0 - cs) * mueff) * (inv_sqrt @ y_w)
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2.0 * gen)) / chi_n \
            < 1.4 + 2.0 / (n + 1.0)
        pc = (1.0 - cc) * pc + hsig * math.sqrt(cc * (2.0 - cc) * mueff) * y_w
        rank1 = np.outer(pc, pc) + (0.0 if hsig else cc * (2.0 - cc)) * cov
        rank_mu = y_sel.T @ (weights[:, None] * y_sel)
        cov = (1.0 - c1 - cmu) * cov + c1 * rank1 + cmu * rank_mu
        cov = 0.5 * (cov + cov.T)
        sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1.0))
        hist.append(best_f)
        if len(hist) == hist.maxlen and max(hist) - min(hist) < tol:
            return best_x, best_f, True, evals
        if sigma * math.sqrt(float(eigvals.max())) < 1e-13:
            return best_x, best_f, True, evals
    return best_x, best_f, False, evals


def ml_estimate(counts, povm, opt=None):
    """Maximum-likelihood parameter vector from counts.

    Runs opt.restarts independent strategy instances from prior-sampled
    starting points (splitting the evaluation budget evenly) and returns
    the best.  converged is False only if no restart met the objective
    tolerance before exhausting its share of the budget.
    """
    povm = get_povm(povm)
    if opt is None:
        opt = OptimizerConfig()
    counts = povm.validate_counts(counts)
    objective = _batch_objective(counts, povm)
    seed = opt.seed
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.Generator(np.random.Philox(
            seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)))
    budget = opt.max_evaluations // opt.restarts
    best_x = None
    best_f = np.inf
    converged = False
    total_evals = 0
    for _ in range(opt.restarts):
        x0 = random_param_array(rng, 1)[0]
        x, fval, ok, used = _cma_minimize(objective, x0, opt.sigma0, budget,
                                          opt.tol, opt.population, rng)
        total_evals += used
        converged = converged or ok
        if fval < best_f:
            best_f = fval
            best_x = x
    return MlEstimate(ParamVector.from_array(best_x), float(best_f),
                      converged, total_evals)


def ml_decomposition(est):
    """Repackage an MlEstimate as a Decomposition (label order applied)."""
    p = est.params
    return Decomposition.ordered(p.state0, p.state1, p.p0, p.p1, method="ml")


# --------------------------------------------------------------------------
# Linear-inversion pipelines

def remove_singlet(state, weight):
    """Project out a singlet admixture of the given weight and renormalize.

    The singlet has s = 0 and C = -1, so the triplet part of a mixture
    rho = (1-w) rho_t + w rho_sg has s_t = s/(1-w), C_t = (C + w)/(1-w);
    the result has unit trace(C) whenever weight matches (1 - tr C)/4.
    """
    if weight >= 1.0 - 1e-9:
        raise IllConditionedError("counts carry no triplet component")
    scale = 1.0 / (1.0 - weight)
    return SymmetricTwoQubitState(state.s * scale,
                                  (state.c + weight * np.eye(3)) * scale)


def _xi_decomposition(m3):
    xi, _ = xi_from_triplet(m3)
    sa, sb, degenerate = states_from_xi(xi)
    if not degenerate:
        try:
            p0, p1 = probabilities_given_states(m3, sa, sb)
        except IllConditionedError:
            degenerate = True
    if degenerate:
        return Decomposition(sa, sb, 1.0, 0.0, degenerate=True, method="xi")
    return Decomposition.ordered(sa, sb, p0, p1, method="xi")


def li_pipeline(counts, povm, method="xi"):
    """Linear inversion followed by analytic recovery.

    method selects the recovery route: "xi" extracts the null ket of the
    reconstructed triplet matrix and solves its quadratic; "moments"
    decomposes the (s, C) pair directly.  Degeneracy tolerances scale as
    max(1e-8, 4/sqrt(N)) with the count total, the statistical noise
    floor of linear inversion.
    """
    povm = get_povm(povm)
    if method not in ("xi", "moments"):
        raise ValueError(f"unknown method {method!r}; expected 'xi' or 'moments'")
    counts = povm.validate_counts(counts)
    tol = max(1e-8, 4.0 / math.sqrt(counts.sum()))
    raw = povm.linear_inversion(counts)
    state = remove_singlet(raw, raw.singlet_weight)
    if method == "moments":
        return decompose_moments(state, tol)
    return _xi_decomposition(to_triplet_matrix(state))


# --------------------------------------------------------------------------
# Scoring and diagnostics

def fidelity(x, y):
    """|<x|y>|^2 between two pure qubit states."""
    return x.overlap(y)


def match_and_score(truth, est):
    """Score a Decomposition against the true ParamVector.

    Estimated states are paired to the true ones by maximizing total
    fidelity (the labels carry no physical meaning).  Returns
    (err0_ppm, err1_ppm, prob_abs_err): per-true-state infidelities in
    parts per million and |p0_est - p0_true| under that pairing.
    """
    f00 = fidelity(est.state0, truth.state0)
    f11 = fidelity(est.state1, truth.state1)
    f01 = fidelity(est.state0, truth.state1)
    f10 = fidelity(est.state1, truth.state0)
    if f00 + f11 >= f01 + f10:
        return ((1.0 - f00) * 1e6, (1.0 - f11) * 1e6, abs(est.p0 - truth.p0))
    return ((1.0 - f10) * 1e6, (1.0 - f01) * 1e6, abs(est.p1 - truth.p0))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Hilbert-Schmidt error and the null-space overlap bound.

    eigenvalues are those of the reconstructed (possibly non-physical)
    triplet matrix, ascending.  overlap_lower_bound bounds the squared
    overlap between that matrix's smallest-eigenvalue vector and the true
    null ket: 1 - epsilon/r1 when r0 >= 0, else 1 - 2 epsilon/(r1 + |r0|),
    clamped to [0, 1].  ill_conditioned marks r1 <= 0, where the bound
    carries no information and is reported as 0.
    """

    hs_error_sq: float
    epsilon: float
    eigenvalues: tuple
    overlap_lower_bound: float
    ill_conditioned: bool
    null_vector: np.ndarray


def li_diagnostics(est, truth):
    """Compare a reconstructed triplet matrix against the true one."""
    est = np.asarray(est, dtype=complex)
    truth = np.asarray(truth, dtype=complex)
    delta = est - truth
    hs_sq = float(np.sum(np.abs(delta) ** 2).real)
    eps = math.sqrt(hs_sq)
    w, v = eigh3(est)
    r0, r1, _ = w
    if r1 <= 0.0:
        bound = 0.0
        ill = True
    else:
        if r0 >= 0.0:
            bound = 1.0 - eps / r1
        else:
            bound = 1.0 - 2.0 * eps / (r1 + abs(r0))
        bound = min(max(bound, 0.0), 1.0)
        ill = False
    return DiagnosticsReport(hs_sq, eps, (float(w[0]), float(w[1]), float(w[2])),
                             float(bound), ill, v[:, 0].copy())
