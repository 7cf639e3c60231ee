"""Monte-Carlo evaluation of the plausible region of parameter vectors.

A parameter vector theta is plausible for given data when its posterior
density exceeds its prior density, which reduces to a likelihood-ratio
test against the maximum-likelihood point:

    lambda(theta) = L(theta) / L(theta_ML) > lambda_pl,
    lambda_pl     = E_prior[ lambda(theta) ].

Both lambda_pl and the region's prior content ("size") and posterior
content ("credibility") are estimated from M prior samples:

    lambda_pl   ~ (1/M) sum_m lambda^(m),
    size        ~ (1/M) sum_m chi(lambda^(m) > lambda_pl),
    credibility ~ sum_m lambda^(m) chi(...) / (M lambda_pl).

The prior draws each Bloch vector isotropically and alpha uniformly on
[0, pi/2] (p0 = cos^2 alpha).  Evaluation is streamed in fixed-size
chunks and makes one pass over the prior.  A chunk's kernel walks its
samples in cache-sized blocks: each block draws its moment features
straight from the prior's uniforms as contiguous rows
(`qstate.prior_features`), takes log q for every outcome in one
(outcomes, block) array, and then one vector-matrix product and exp per
checkpoint, written into that checkpoint's row of a (checkpoints, b)
lambda array; a checkpoint's lambda values do not depend on which other
checkpoints share the sweep.  Blocking changes no bit of the result:
consecutive Philox draws give the same uniforms as one draw of the whole
chunk, every step up to lambda works on each sample alone, and the sums
below run over whole chunk rows as before.  Each chunk reports its lambda
moments, which fix the threshold, and keeps as candidates the lambda
values above S_k / M, where S_k is the chunk's lambda sum as reported.
The indicator sums are then taken over the candidates alone, once the
threshold is known.  This is exact: every lambda is >= 0, a rounded sum
of non-negative terms is never below any one of them, and division by M
is monotone, so lambda_pl = fl(sum_k S_k) / M >= S_k / M for every chunk
and every lambda above lambda_pl is a candidate.  Filtering a chunk's
candidates by lambda_pl gives the same array, in the same sample order,
as filtering all of its samples, so the indicator sums are bitwise those
of a second pass.  The running sum over the chunks seen so far bounds
lambda_pl from below in the same way, which prunes stored candidates.
At most CANDIDATE_BUDGET candidates are held; a chunk whose candidates do
not fit is replayed through the same kernel once lambda_pl is known, so
memory stays bounded for any M.  Chunks own SeedSequence-derived
substreams and are reduced in chunk order, which makes reports bitwise
reproducible for any worker count at fixed (seed, chunk_size).

Division by L(theta_ML) keeps the log ratios near zero for typical
samples; with N counts the raw log likelihoods sit around -N log K and
would underflow any direct exponentiation.  Ratios that still underflow
to 0 are legitimate (deep in the implausible tail); only an all-zero
sample aborts, advising a larger M or smaller N.

Size and credibility estimates are scale errors of order 1/sqrt(M); the
attached standard errors come from the per-sample moment sums (delta
method for the credibility ratio), treating the threshold as fixed.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .estimate import _as_generator, _whole_number, log_likelihood
from .povm import get_povm
from .qstate import prior_features

# per-outcome stand-in for log 0: large enough that any observed count
# drives lambda to exact 0, finite so that 0*log(0) products stay 0
LOG_ZERO = -1e12
# cap on log lambda: keeps lambda**2 finite even for a suboptimal theta_ml
LOG_CAP = 300.0

DEFAULT_CHUNK = 100_000
# lambda candidates held between the prior pass and the threshold (4 MiB)
CANDIDATE_BUDGET = 1 << 19
# samples per block of the chunk kernel: the working set (about 1 MiB)
# stays in L2 cache.  A power of two, so that blocks split a chunk on the
# unroll boundaries of the BLAS products and every sample takes the
# kernel path it takes in a whole-chunk product; blocks of 5 do not
_BLOCK = 4096


class DegenerateSampleError(RuntimeError):
    """Every prior sample had likelihood ratio 0; enlarge M or reduce N."""


def _chunk_children(seed, n_chunks):
    """Index-keyed child SeedSequences; stateless, replayable."""
    ss = (seed if isinstance(seed, np.random.SeedSequence)
          else np.random.SeedSequence(seed))
    base = tuple(ss.spawn_key)
    return [np.random.SeedSequence(entropy=ss.entropy, spawn_key=base + (i,))
            for i in range(n_chunks)]


# --------------------------------------------------------------------------
# Chunk workers (module level for process pools)

def _chunk_stats(args):
    """Per-checkpoint lambda sums and threshold candidates of one chunk.

    Returns (out, cands): out has one row
        (sum lambda, sum lambda^2, count lambda > 0)
    per checkpoint, and cands[i] holds the chunk's lambda values above
    out[i, 0] / m in sample order: a superset of those above lambda_pl.

    The samples run through in blocks of _BLOCK, small enough that a
    block's uniforms, features and log probabilities stay in L2 cache, and
    each block fills its columns of a (checkpoints, b) lambda array.  The
    result is bitwise that of one pass over the whole chunk: successive
    Philox draws give the same uniforms as one draw, every step up to
    lambda works on each sample alone, and the sums run over whole rows.
    The checkpoints take separate products: a single counts_mat @ logq
    would round differently with the number of checkpoints in the sweep.
    """
    child, b, povm_name, counts_mat, logl_ml, m = args
    moment_matrix = get_povm(povm_name).moment_matrix
    rng = _as_generator(child)
    lam = np.empty((len(counts_mat), b))
    for start in range(0, b, _BLOCK):
        stop = min(start + _BLOCK, b)
        logq = moment_matrix @ prior_features(rng, stop - start)
        positive = logq > 0.0
        np.maximum(logq, 1e-300, out=logq)
        np.log(logq, out=logq)
        logq[~positive] = LOG_ZERO
        for i in range(len(counts_mat)):
            loglam = counts_mat[i] @ logq
            loglam -= logl_ml[i]
            np.minimum(loglam, LOG_CAP, out=loglam)
            np.exp(loglam, out=lam[i, start:stop])
    out = np.empty((len(counts_mat), 3))
    cands = []
    for i, row in enumerate(lam):
        out[i] = (row.sum(), float(row @ row), np.count_nonzero(row))
        cands.append(row[row > out[i, 0] / m])
    return out, cands


def _keep_candidates(results, m):
    """Sum chunk outputs in chunk order and hold their candidates.

    Returns (total, kept), kept[k] being chunk k's candidates, or None
    when they did not fit CANDIDATE_BUDGET and the chunk must be replayed.
    """
    total = None
    kept = []
    stored = 0
    for out, cands in results:
        total = out if total is None else total + out
        # partial sums of non-negative terms never exceed the final sum
        floor = total[:, 0] / m
        cands = [c[c > f] for c, f in zip(cands, floor)]
        size = sum(c.size for c in cands)
        if stored + size > CANDIDATE_BUDGET:
            kept = [None if ks is None else [c[c > f] for c, f in zip(ks, floor)]
                    for ks in kept]
            stored = sum(c.size for ks in kept if ks is not None for c in ks)
        if stored + size > CANDIDATE_BUDGET:
            cands = None
        else:
            stored += size
        kept.append(cands)
    return total, kept


# --------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class PlausibilityReport:
    """Threshold, size and credibility of the plausible region."""

    n_total: int
    lambda_pl: float
    size_pl: float
    credibility_pl: float
    m_samples: int
    se_lambda_pl: float
    se_size: float
    se_credibility: float
    truth_plausible: object = None


def plausibility_sweep(counts_list, povm, theta_ml_list, m, seed, truth=None,
                       chunk_size=DEFAULT_CHUNK, workers=None):
    """Plausible-region reports for several checkpoints of one count stream.

    counts_list holds cumulative count vectors (say at N = 100, 200, ...)
    and theta_ml_list the matching ML estimates.  All checkpoints share
    the same prior sample, so the per-sample outcome probabilities are
    computed once; with dozens of checkpoints this dominates the cost of
    separate calls.  Every table must hold counts: an all-zero one raises
    EmptyDataError, as in the other estimators.  m and chunk_size are
    whole numbers >= 1, as ints, numpy integers or integral floats.
    """
    povm = get_povm(povm)
    if len(counts_list) != len(theta_ml_list):
        raise ValueError("one theta_ml per counts vector is required")
    m = _whole_number("m", m, 1)
    chunk_size = _whole_number("chunk_size", chunk_size, 1)
    workers = workers if workers else 1
    counts_mat = np.array([povm.validate_counts(c) for c in counts_list])
    totals = counts_mat.sum(axis=1)

    logl_ml = np.zeros(len(counts_mat))
    for i, theta_ml in enumerate(theta_ml_list):
        ll = log_likelihood(theta_ml, counts_mat[i], povm)
        if not math.isfinite(ll):
            raise ValueError(f"theta_ml for checkpoint {i} has zero likelihood")
        logl_ml[i] = ll

    n_chunks = -(-m // chunk_size)
    children = _chunk_children(seed, n_chunks)
    tasks = [(children[k], min(chunk_size, m - k * chunk_size), povm.name,
              counts_mat, logl_ml, m) for k in range(n_chunks)]

    workers = min(workers, n_chunks)
    with (ProcessPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        run = map if pool is None else pool.map
        first, kept = _keep_candidates(run(_chunk_stats, tasks), m)
        sum_lam = first[:, 0]
        sum_lam_sq = first[:, 1]
        for i in range(len(counts_mat)):
            if first[i, 2] == 0:
                raise DegenerateSampleError(
                    f"all {m} likelihood ratios are 0 at N = {int(totals[i])}; "
                    "increase the sample count or evaluate a smaller N")
        lambda_pl = sum_lam / m

        replays = run(_chunk_stats,
                      [t for t, cands in zip(tasks, kept) if cands is None])
        second = np.zeros((len(counts_mat), 3))
        for cands in kept:
            if cands is None:
                cands = next(replays)[1]
            for i, c in enumerate(cands):
                above = c[c > lambda_pl[i]]
                second[i] += (above.size, above.sum(), float(above @ above))
    n_above = second[:, 0]
    sum_above = second[:, 1]
    sum_sq_above = second[:, 2]

    reports = []
    for i in range(len(counts_mat)):
        lam_pl = float(lambda_pl[i])
        size = float(n_above[i]) / m
        cred = float(sum_above[i] / sum_lam[i])
        var_lam = max(sum_lam_sq[i] / m - lam_pl ** 2, 0.0)
        se_lam = math.sqrt(var_lam / m)
        se_size = math.sqrt(max(size * (1.0 - size), 0.0) / m)
        # credibility is the ratio mean(lam*chi)/mean(lam): delta method
        a = sum_above[i] / m
        var_a = max(sum_sq_above[i] / m - a ** 2, 0.0)
        cov_ab = sum_sq_above[i] / m - a * lam_pl
        denom = lam_pl * lam_pl
        if denom > 0.0:
            var_c = (var_a - 2.0 * cred * cov_ab + cred ** 2 * var_lam) / denom
            se_cred = math.sqrt(max(var_c, 0.0) / m)
        else:
            # threshold so small its square underflows: no usable error bar
            se_cred = math.inf
        plausible = None
        if truth is not None:
            plausible = is_plausible(truth, counts_mat[i], theta_ml_list[i],
                                     lam_pl, povm)
        reports.append(PlausibilityReport(int(totals[i]), lam_pl, size, cred, m,
                                          se_lam, se_size, se_cred, plausible))
    return reports


def plausibility(counts, povm, theta_ml, m, seed, truth=None,
                 chunk_size=DEFAULT_CHUNK, workers=None):
    """Plausible-region report for a single count vector."""
    return plausibility_sweep([counts], povm, [theta_ml], m, seed, truth,
                              chunk_size, workers)[0]


def is_plausible(theta, counts, theta_ml, lambda_pl, povm):
    """Whether lambda(theta) = L(theta)/L(theta_ml) exceeds lambda_pl."""
    povm = get_povm(povm)
    logl_ml = log_likelihood(theta_ml, counts, povm)
    if not math.isfinite(logl_ml):
        raise ValueError("theta_ml has zero likelihood for these counts")
    # a zero likelihood gives exp(-inf) = 0
    ll = log_likelihood(theta, counts, povm)
    return bool(math.exp(min(ll - logl_ml, LOG_CAP)) > lambda_pl)


# --------------------------------------------------------------------------
# Large-N asymptotics

@dataclass(frozen=True)
class AsymptoticsReport:
    """Asymptotic predictions from a measured lambda_pl.

    With L = log(1/lambda_pl),

        predicted size            = lambda_pl L^{5/2} / Gamma(7/2),
        predicted 1 - credibility = size (5/(2L) + 15/(4L^2)) + erfc(sqrt(L)),

    and ratio_d divides the measured 1 - credibility by the right-hand
    side evaluated with the measured size; it tends to 1 in the
    asymptotic regime and is the least noise-sensitive of the three
    comparisons.
    """

    n_total: int
    lambda_pl: float
    predicted_size: float
    predicted_one_minus_credibility: float
    ratio_d: object = None


_GAMMA_7_2 = math.gamma(3.5)


def _credibility_bracket(size, big_l):
    return size * (2.5 / big_l + 3.75 / (big_l * big_l)) + math.erfc(math.sqrt(big_l))


def asymptotics(n_total, lambda_pl, size=None, credibility=None):
    """Asymptotic size/credibility predictions, and ratio_d when measured
    values are supplied."""
    if not 0.0 < lambda_pl < 1.0:
        raise ValueError("lambda_pl must lie strictly between 0 and 1")
    big_l = -math.log(lambda_pl)
    predicted_size = lambda_pl * big_l ** 2.5 / _GAMMA_7_2
    predicted_omc = _credibility_bracket(predicted_size, big_l)
    ratio_d = None
    if size is not None and credibility is not None:
        bracket = _credibility_bracket(size, big_l)
        # 0 only once erfc(sqrt(L)) underflows (lambda_pl < ~1e-305) beside
        # a zero size: no ratio is defined there
        if bracket != 0.0:
            ratio_d = (1.0 - credibility) / bracket
    return AsymptoticsReport(int(n_total), float(lambda_pl), predicted_size,
                             predicted_omc, ratio_d)
