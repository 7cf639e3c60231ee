"""Point estimators for the pair source, and error diagnostics.

Two estimator families operate on a vector of detection counts:

* linear inversion (`li_pipeline`): counts -> relative frequencies ->
  the measurement's dual matrix, then one of the two analytic recovery
  routes from `recon`.  Unbiased but the intermediate state need not be
  physical; its singlet admixture (nonzero only for tetrahedron data) is
  projected out and the triplet part renormalized before recovery.  The
  counts are validated once, at the entry.  From the dual product to the
  recovery step the state stays one 10-entry feature vector: the singlet
  is removed in feature space, and the null ket is taken without
  `xi_from_triplet`'s Hermitian check, which holds by construction.

* maximum likelihood (`ml_estimate`): minimize -log(L)/N over the
  five-parameter box (theta0, phi0, theta1, phi1, alpha) in
  [0, pi/2] x [0, 2pi) x [0, pi/2] x [0, 2pi) x [0, pi/2], so the result
  is physical by construction.  The search is a covariance matrix
  adaptation evolution strategy (the standard (mu/mu_w, lambda) scheme
  with cumulative step-size control); the box is handled by a smooth
  wrap: phi angles are periodic mod 2pi and theta/alpha reflect off the
  box edges, which leaves the objective continuous on all of R^5.
  `ml_estimates` fits several tables together: the fits advance in
  lockstep, one generation per tick, and each result equals fitting its
  table alone with `ml_estimate`, bit for bit.

The likelihood omits the multinomial combinatorial factor throughout; it
cancels from every ratio and every location of the optimum.
"""

import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .povm import get_povm
from .qstate import (HALF_PI, ParamVector, SymmetricTwoQubitState,
                     moment_features, random_param_array,
                     triplet_from_features, wrap_phase)
from .recon import (Decomposition, IllConditionedError, _null_ket,
                    decompose_moments, eigh3, probabilities_given_states,
                    states_from_xi)

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
    """-log(L)/N as a vectorized function of the (B, 10) moment features
    of B parameter rows."""
    counts = np.asarray(counts, dtype=float)
    n_total = counts.sum()
    active = counts > 0
    n_active = counts[active]
    w_active = povm.moment_matrix[active]

    def objective(features):
        qs = features @ w_active.T
        bad = (qs <= 0.0).any(axis=1)
        vals = -(np.log(np.maximum(qs, 1e-300)) @ n_active) / n_total
        vals[bad] = np.inf
        return vals

    return objective


# --------------------------------------------------------------------------
# Maximum likelihood

@dataclass(frozen=True)
class OptimizerConfig:
    """Evolution-strategy settings for ml_estimate and ml_estimates."""

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


# a count or sample total is a 64-bit integer: the multinomial draw needs
# one, and it keeps a result table's n ** 2.5 finite
_MAX_N = 2 ** 63 - 1


def _whole_number(name, value, low):
    """value as an int if it is a whole number in [low, 2^63 - 1]: an int, a
    numpy integer or an integral float.  Anything else, nan, inf and
    strings included, is a ValueError that names the argument."""
    # the chained test is false for nan and rejects inf before int()
    if not (isinstance(value, numbers.Real) and low <= value <= _MAX_N
            and value == int(value)):
        raise ValueError(
            f"{name} = {value!r} is not a whole number in [{low}, {_MAX_N}]")
    return int(value)


def _as_generator(seed):
    """Philox Generator from an int, SeedSequence or None; a Generator as is."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(
        seed if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)))


class _Fit:
    """One fit's sequential state: generator, restarts, budget, best point.

    The stacked strategy state (mean, step size, covariance, paths) lives
    in `ml_estimates`; this holds what is per fit and scalar.
    """

    def __init__(self, objective, rng, restarts):
        self.objective = objective
        self.rng = rng
        self.restarts_left = restarts
        self.best_x = None
        self.best_f = np.inf
        self.converged = False
        self.total_evals = 0
        # the running restart
        self.run_x = None
        self.run_f = np.inf
        self.evals = 0
        self.gen = 0
        self.hist = None

    def start_restart(self, x_folded, f, hist_len):
        self.restarts_left -= 1
        self.run_x = x_folded.copy()
        self.run_f = f
        self.evals = 1
        self.gen = 0
        self.hist = deque(maxlen=hist_len)

    def end_restart(self, converged):
        self.total_evals += self.evals
        self.converged = self.converged or converged
        if self.run_f < self.best_f:
            self.best_f = self.run_f
            self.best_x = self.run_x

    def result(self):
        return MlEstimate(ParamVector.from_array(self.best_x),
                          float(self.best_f), self.converged, self.total_evals)


def ml_estimates(tables, povm, opt=None, seeds=None):
    """Maximum-likelihood estimates of several count tables, fitted together.

    Result k is bit for bit the `ml_estimate` of tables[k] alone with
    seed seeds[k] (default: opt.seed for every table).  Each fit keeps
    its own generator, restart sequence, budget and convergence test; the
    fits advance in lockstep, one generation per tick, so that the
    covariance eigendecompositions, `fold_params` and `moment_features`
    run once per tick on the stacked (K, population, 5) population while
    the objective still runs per fit on that fit's rows.  Every step is
    either elementwise or a per-slice LAPACK/BLAS call of the same shape
    as in a lone fit, and the scalar updates stay per-fit Python floats,
    which keeps the arithmetic identical.

    One Generator object cannot seed two tables of a batch: its draws
    would interleave across the fits and no longer match lone fits.
    """
    povm = get_povm(povm)
    if opt is None:
        opt = OptimizerConfig()
    tables = [povm.validate_counts(c) for c in tables]
    seeds = [opt.seed] * len(tables) if seeds is None else list(seeds)
    if len(seeds) != len(tables):
        raise ValueError(f"{len(seeds)} seeds for {len(tables)} tables")
    shared = [id(s) for s in seeds if isinstance(s, np.random.Generator)]
    if len(set(shared)) < len(shared):
        raise ValueError("one Generator seeds several tables of a batch; "
                         "give each table its own seed (e.g. a SeedSequence)")
    fits = [_Fit(_batch_objective(c, povm), _as_generator(s), opt.restarts)
            for c, s in zip(tables, seeds)]

    # (mu/mu_w, lambda) strategy with rank-one plus rank-mu covariance
    # updates and cumulative step-size adaptation (Hansen, arXiv:1604.00772)
    n = 5
    popsize = opt.population
    budget = opt.max_evaluations // opt.restarts
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
    c_ps = math.sqrt(cs * (2.0 - cs) * mueff)
    c_pc = math.sqrt(cc * (2.0 - cc) * mueff)
    hsig_bound = 1.4 + 2.0 / (n + 1.0)
    hist_len = 10 + math.ceil(30.0 * n / popsize)

    # stacked state of the fits running a generation, row k <-> live[k]
    live = []
    mean = np.empty((0, n))
    sigma = np.empty(0)
    cov = np.empty((0, n, n))
    ps = np.empty((0, n))
    pc = np.empty((0, n))
    pending = list(fits)
    while pending or live:
        # start restarts; one whose budget holds no generation ends at once
        while pending:
            x0 = np.array([random_param_array(fit.rng, 1)[0] for fit in pending])
            x0f = fold_params(x0)
            feats = moment_features(x0f)
            started, again = [], []
            for j, fit in enumerate(pending):
                f0 = fit.objective(feats[j][None, :])
                fit.start_restart(x0f[j], float(f0[0]), hist_len)
                if fit.evals + popsize <= budget:
                    started.append(j)
                else:
                    fit.end_restart(False)
                    if fit.restarts_left:
                        again.append(fit)
            if started:
                k = len(started)
                live += [pending[j] for j in started]
                mean = np.concatenate([mean, x0[started]])
                sigma = np.concatenate([sigma, np.full(k, float(opt.sigma0))])
                cov = np.concatenate([cov, np.broadcast_to(np.eye(n), (k, n, n))])
                ps = np.concatenate([ps, np.zeros((k, n))])
                pc = np.concatenate([pc, np.zeros((k, n))])
            pending = again
        if not live:
            break

        # one generation of every live fit
        eigvals, basis = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-20)
        d = np.sqrt(eigvals)
        k_live = len(live)
        z = np.empty((k_live, popsize, n))
        for k, fit in enumerate(live):
            fit.rng.standard_normal(out=z[k])
        y = z @ (basis * d[:, None, :]).transpose(0, 2, 1)
        x = mean[:, None, :] + sigma[:, None, None] * y
        xf = fold_params(x)
        feats = moment_features(xf)
        f = np.empty((k_live, popsize))
        for k, fit in enumerate(live):
            f[k] = fit.objective(feats[k])
        order = np.argsort(f, axis=1, kind="stable")
        y_sel = y[np.arange(k_live)[:, None], order[:, :mu]]
        y_w = weights @ y_sel
        mean = mean + sigma[:, None] * y_w
        inv_sqrt = (basis / d[:, None, :]) @ basis.transpose(0, 2, 1)
        ps = (1.0 - cs) * ps + c_ps * (inv_sqrt @ y_w[:, :, None])[:, :, 0]
        # per fit: the norm (as np.linalg.norm computes it), pow and exp
        # must not be batched, since their vectorized kernels round
        # differently
        ps_norm = [math.sqrt(row.dot(row)) for row in ps]
        hsig = []
        for k, fit in enumerate(live):
            fit.gen += 1
            fit.evals += popsize
            best = order[k, 0]
            if f[k, best] < fit.run_f:
                fit.run_f = float(f[k, best])
                fit.run_x = xf[k, best].copy()
            hsig.append(ps_norm[k] / math.sqrt(1.0 - (1.0 - cs) ** (2.0 * fit.gen))
                        / chi_n < hsig_bound)
        pc = (1.0 - cc) * pc + np.array([h * c_pc for h in hsig])[:, None] * y_w
        rank1 = (pc[:, :, None] * pc[:, None, :]
                 + np.array([0.0 if h else cc * (2.0 - cc) for h in hsig])[:, None, None]
                 * cov)
        rank_mu = y_sel.transpose(0, 2, 1) @ (weights[:, None] * y_sel)
        cov = (1.0 - c1 - cmu) * cov + c1 * rank1 + cmu * rank_mu
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        sigma = sigma * np.array([math.exp((cs / damps) * (v / chi_n - 1.0))
                                  for v in ps_norm])

        # convergence: the best objective over a trailing window spans less
        # than tol, or the step size has collapsed
        keep = np.ones(k_live, dtype=bool)
        for k, fit in enumerate(live):
            fit.hist.append(fit.run_f)
            done = ((len(fit.hist) == hist_len
                     and max(fit.hist) - min(fit.hist) < opt.tol)
                    or sigma[k] * math.sqrt(float(eigvals[k].max())) < 1e-13)
            if done or fit.evals + popsize > budget:
                fit.end_restart(done)
                keep[k] = False
                if fit.restarts_left:
                    pending.append(fit)
        if not keep.all():
            live = [fit for fit, kept in zip(live, keep) if kept]
            mean, sigma, cov, ps, pc = (a[keep] for a in (mean, sigma, cov, ps, pc))
    return [fit.result() for fit in fits]


def ml_estimate(counts, povm, opt=None):
    """Maximum-likelihood parameter vector from counts.

    Runs opt.restarts strategy instances in turn from prior-sampled
    starting points (splitting the evaluation budget evenly) and returns
    the best.  converged is False only if no restart met the objective
    tolerance before exhausting its share of the budget.  This is the
    one-table case of `ml_estimates`.
    """
    return ml_estimates([counts], povm, opt)[0]


def ml_decomposition(est):
    """Repackage an MlEstimate as a Decomposition (label order applied)."""
    p = est.params
    return Decomposition.ordered(p.state0, p.state1, p.p0, p.p1, method="ml")


# --------------------------------------------------------------------------
# Linear-inversion pipelines

def _xi_decomposition(m3):
    # m3 comes from real moment features, so it is Hermitian by construction
    xi, _ = _null_ket(m3)
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
    total = counts.sum()
    tol = max(1e-8, 4.0 / math.sqrt(total))
    f = povm.dual_matrix @ (counts / total)
    # Project out the singlet (s = 0, C = -1) and renormalize: a mixture
    # (1-w) rho_t + w rho_sg has s_t = s/(1-w) and C_t = (C + w)/(1-w),
    # where w = (1 - tr C)/4, summed left to right as np.trace does.
    w = (1.0 - float(f[4] + f[5] + f[6])) / 4.0
    if w >= 1.0 - 1e-9:
        raise IllConditionedError("counts carry no triplet component")
    f[0] = 1.0  # the dual's first row gives 1 only up to rounding
    f[4:7] += w
    f[1:] *= 1.0 / (1.0 - w)
    if method == "moments":
        return decompose_moments(SymmetricTwoQubitState.from_features(f), tol)
    return _xi_decomposition(triplet_from_features(f))


# --------------------------------------------------------------------------
# Scoring and diagnostics

def match_and_score(truth, est):
    """Score a Decomposition against the true ParamVector.

    Estimated states are paired to the true ones by maximizing total
    fidelity (the labels carry no physical meaning).  Returns
    (err0_ppm, err1_ppm, prob_abs_err): per-true-state infidelities in
    parts per million and |p0_est - p0_true| under that pairing.
    """
    f00 = est.state0.overlap(truth.state0)
    f11 = est.state1.overlap(truth.state1)
    f01 = est.state0.overlap(truth.state1)
    f10 = est.state1.overlap(truth.state0)
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
