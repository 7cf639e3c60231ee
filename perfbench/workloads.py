"""Workload inputs, one timed pass, and the correctness gates of a pass.

Every input derives from the workload seed: the simulate configs get a
master_seed drawn from it, and the li-requests count tables are sampled
from it.  The source of the two simulate workloads is fixed (the README
example), so the seed changes the counts and the optimizer streams but
not how hard the problem is; linear inversion never fails on it.

A pass runs in its own process (see worker.py).  Only the call into the
program is timed; input generation, gates and trace summaries are not.
"""

import csv
import hashlib
import json
import math
import os
import resource
import time

import numpy as np

from pairtomo import cli, estimate, qstate, sim
from pairtomo.estimate import li_pipeline, log_likelihood, match_and_score
from pairtomo.povm import get_povm
from pairtomo.qstate import HALF_PI, ParamVector, random_param_array
from pairtomo.recon import (DegenerateInputError, IllConditionedError,
                            NonPhysicalMomentsError)

import tracing

SOURCE = [0.6, 1.0, 1.2, 4.0, 0.9]

DOCUMENTED = (NonPhysicalMomentsError, DegenerateInputError,
              IllConditionedError)

# workload -> size -> parameters; "tiny" serves the benchmark's own test
WORKLOADS = {
    "ml-sweep": {
        "full": {"povm": "tetra", "runs": 4,
                 "n_schedule": [100, 200, 500, 1000, 2000, 5000, 10000,
                                20000],
                 "estimators": ["li-xi", "li-moments", "ml"],
                 "threads": 1},
        "tiny": {"povm": "tetra", "runs": 1, "n_schedule": [100, 200],
                 "estimators": ["li-xi", "li-moments", "ml"],
                 "threads": 1},
    },
    "plausible-region": {
        "full": {"povm": "sic", "runs": 1,
                 "n_schedule": [200, 500, 1000, 2000, 5000],
                 "estimators": ["ml"], "m": 3_000_000, "threads": 2},
        "tiny": {"povm": "sic", "runs": 1, "n_schedule": [200, 500],
                 "estimators": ["ml"], "m": 150_000, "threads": 2},
    },
    "li-requests": {
        "full": {"requests": 3000, "exact_sources": 25},
        "tiny": {"requests": 40, "exact_sources": 3},
    },
}

# stream keys separating the workloads' inputs drawn from one seed
_KEYS = {"ml-sweep": 1, "plausible-region": 2, "li-requests": 3}
_EXACT_KEY = 4


def _rng(seed, key):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, key])))


def master_seed(workload, seed):
    """The simulate config's master_seed for this workload seed."""
    ss = np.random.SeedSequence([seed, _KEYS[workload]])
    return int(ss.generate_state(1, np.uint32)[0])


def simulate_config(workload, seed, size):
    p = WORKLOADS[workload][size]
    cfg = {"povm": p["povm"], "source": {"theta": SOURCE},
           "n_schedule": p["n_schedule"], "runs": p["runs"],
           "estimators": p["estimators"],
           "master_seed": master_seed(workload, seed)}
    if "optimizer" in p:
        cfg["optimizer"] = p["optimizer"]
    if "m" in p:
        cfg["plausibility"] = {"enabled": True, "m": p["m"]}
    return cfg


def probe_config(workload):
    """Smallest simulate config on the workload's entry point."""
    p = WORKLOADS[workload]["full"]
    cfg = {"povm": p["povm"], "source": {"theta": SOURCE},
           "n_schedule": p["n_schedule"][:1], "runs": 1,
           "estimators": p["estimators"],
           "optimizer": {"max_evaluations": 12, "restarts": 1}}
    if "m" in p:
        cfg["plausibility"] = {"enabled": True, "m": 1000}
    return cfg


def li_requests(seed, n):
    """n count tables: half sic, half tetra; N log-uniform on 1e2..1e6.

    About 10% of the sources are near-degenerate (psi1 a rotation of psi0
    by 1e-4..1e-2 rad); the recovery route alternates between xi and
    moments.  Returns (counts, povm name, method, truth row) tuples.
    """
    rng = _rng(seed, _KEYS["li-requests"])
    params = random_param_array(rng, n)
    near = rng.random(n) < 0.10
    eps = 10.0 ** rng.uniform(-4.0, -2.0, n)
    params[near, 2] = np.clip(params[near, 0] + eps[near], 0.0, HALF_PI)
    params[near, 3] = params[near, 1]
    totals = np.rint(10.0 ** rng.uniform(2.0, 6.0, n)).astype(np.int64)
    requests = []
    for i in range(n):
        povm = get_povm("sic" if i % 2 == 0 else "tetra")
        probs = povm.probabilities_from_features(
            qstate.moment_features(params[i]))
        counts = sim.sample_counts(probs, totals[i], rng)
        method = "xi" if (i // 2) % 2 == 0 else "moments"
        requests.append((counts, povm.name, method, params[i]))
    return requests


def exact_sources(seed, n):
    """n well-separated sources (overlap <= 0.9, min(p0, p1) >= 0.05)."""
    rng = _rng(seed, _EXACT_KEY)
    rows = []
    while len(rows) < n:
        row = random_param_array(rng, 1)[0]
        truth = ParamVector.from_array(row)
        if (truth.state0.overlap(truth.state1) <= 0.9
                and 0.05 <= truth.p0 <= 0.95):
            rows.append(row)
    return rows


def peak_rss_mb():
    """Peak RSS of this process or its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _median(values):
    return float(np.median(values)) if values else None


class Pass:
    """Result of one pass, serialized by worker.py."""

    def __init__(self):
        self.wall_s = None
        self.ops = 0
        self.failed_ops = 0
        self.wrong_outputs = 0
        self.notes = []
        self.digest = None
        self.extra = {}

    def fail(self, note, ops=1, wrong=True):
        self.failed_ops += ops
        self.wrong_outputs += int(wrong)
        if len(self.notes) < 20:
            self.notes.append(note)


# --------------------------------------------------------------------------
# simulate workloads

def _finite_row(row):
    keys = ("err0_ppm", "err1_ppm", "p_err", "fidelity0", "fidelity1")
    return all(row[k] != "" and math.isfinite(float(row[k])) for k in keys)


def _plausible_row_ok(row):
    lam, size, cred = (float(row[k]) if row[k] else math.nan
                       for k in ("lambda_pl", "size", "credibility"))
    return 0.0 < lam < 1.0 and 0.0 < size <= 1.0 and 0.0 < cred <= 1.0


def _ml_below_truth(records, povm):
    """Checkpoints where log L(theta_ML) < log L(truth), beyond roundoff.

    theta_ML is rebuilt from the reported states and p0, which costs a
    few ulps; the tolerance covers that and nothing more.
    """
    truth = ParamVector.from_array(SOURCE)
    bad = []
    for rec in records:
        for est in rec.estimates:
            if est.estimator != "ml":
                continue
            dec = est.decomposition
            theta = ParamVector.from_states(dec.state0, dec.state1, dec.p0)
            ll_ml = log_likelihood(theta, rec.counts, povm)
            ll_truth = log_likelihood(truth, rec.counts, povm)
            if not ll_ml >= ll_truth - 1e-9 * max(1.0, abs(ll_truth)):
                bad.append((rec.run_index, rec.n_total, ll_ml, ll_truth))
    return bad


def prepare(workload, seed, size, workdir):
    """A pass's inputs, made before tracing starts."""
    if workload == "li-requests":
        p = WORKLOADS[workload][size]
        return {"requests": li_requests(seed, p["requests"]),
                "exact": exact_sources(seed, p["exact_sources"])}
    cfg = simulate_config(workload, seed, size)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return {"config": cfg, "path": cfg_path,
            "out": os.path.join(workdir, "out")}


def run_simulate(workload, inputs, threads, tracer=None):
    """One `pairtomo simulate` call, in-process through cli.main."""
    res = Pass()
    cfg, cfg_path, out_dir = inputs["config"], inputs["path"], inputs["out"]
    captured = []
    run_experiment = cli.run_experiment

    def capture(*args, **kwargs):
        records = run_experiment(*args, **kwargs)
        captured.append(records)
        return records

    # result capture for the gates only: one extra call per pass, no timing
    cli.run_experiment = capture
    argv = ["simulate", "--config", cfg_path, "--threads", str(threads),
            "--out", out_dir]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    res.wall_s = time.perf_counter() - t0
    cli.run_experiment = run_experiment
    summary = tracing.finish(tracer, res.wall_s)

    n_ckpt = cfg["runs"] * len(cfg["n_schedule"])
    res.ops = n_ckpt
    if rc != 0 or not captured:
        res.fail(f"simulate exited with code {rc}", ops=n_ckpt, wrong=False)
        return res, summary
    with open(os.path.join(out_dir, "results.csv"), "rb") as fh:
        raw = fh.read()
    res.digest = hashlib.sha256(raw).hexdigest()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    bad_ckpt = set()
    for row in rows:
        key = (row["run"], row["n"])
        if not _finite_row(row):
            bad_ckpt.add(key)
            res.notes.append(f"non-finite estimate at {key}")
        if (workload == "plausible-region" and row["estimator"] == "ml"
                and not _plausible_row_ok(row)):
            bad_ckpt.add(key)
            res.notes.append(f"plausibility summary out of range at {key}")
    povm = get_povm(cfg["povm"])
    for run, n, ll_ml, ll_truth in _ml_below_truth(captured[0], povm):
        key = (str(run), str(n))
        bad_ckpt.add(key)
        res.notes.append(f"log L(theta_ML) = {ll_ml} < log L(truth) = "
                         f"{ll_truth} at {key}")
    res.failed_ops += len(bad_ckpt)
    res.wrong_outputs += len(bad_ckpt)

    ml_err, li_err = [], []
    for row in rows:
        errs = (float(row["err0_ppm"]), float(row["err1_ppm"]))
        (ml_err if row["estimator"] == "ml" else li_err).extend(errs)
    m = cfg.get("plausibility", {}).get("m", 0)
    res.extra = {
        "checkpoints": n_ckpt,
        "ml_err_ppm": [_median(ml_err), len(ml_err)],
        "li_err_ppm": [_median(li_err), len(li_err)],
        # each prior sample is evaluated at every checkpoint, in 2 passes
        "lr_evals": m * n_ckpt * 2,
    }
    return res, summary


# --------------------------------------------------------------------------
# li-requests

def _decomposition_ok(dec):
    return (math.isfinite(dec.p0) and math.isfinite(dec.p1)
            and 0.0 <= dec.p0 <= 1.0 and abs(dec.p0 + dec.p1 - 1.0) < 1e-12)


def run_li_requests(inputs, tracer=None):
    """Closed loop, one client: each table is one li_pipeline call."""
    res = Pass()
    requests = inputs["requests"]
    serve = estimate.li_pipeline  # the traced wrapper when tracing is on
    outcomes = []
    latencies = []
    clock = time.perf_counter
    t0 = clock()
    for counts, povm_name, method, _ in requests:
        ts = clock()
        try:
            out = serve(counts, povm_name, method)
        except Exception as exc:  # noqa: BLE001  (classified after timing)
            out = exc
        latencies.append(clock() - ts)
        outcomes.append(out)
    res.wall_s = clock() - t0
    summary = tracing.finish(tracer, res.wall_s)

    res.ops = len(requests)
    errors = {}
    errs = []
    digest = hashlib.sha256()
    for (counts, povm_name, method, row), out in zip(requests, outcomes):
        if isinstance(out, DOCUMENTED):
            name = type(out).__name__
            errors[name] = errors.get(name, 0) + 1
            digest.update(name.encode())
        elif isinstance(out, Exception):
            res.fail(f"{povm_name}/{method} N={int(counts.sum())} "
                     f"counts={counts.tolist()}: {out!r}", wrong=False)
            digest.update(repr(out).encode())
        elif not _decomposition_ok(out):
            res.fail(f"{povm_name}/{method}: invalid decomposition {out!r}")
        else:
            e0, e1, _ = match_and_score(ParamVector.from_array(row), out)
            errs.extend((e0, e1))
            digest.update(repr((out.state0, out.state1, out.p0,
                                out.degenerate)).encode())
    res.digest = digest.hexdigest()

    # exact-probability inputs of well-separated sources: both routes,
    # both measurements, recovery error at most 1e-9
    checks = 0
    for row in inputs["exact"]:
        truth = ParamVector.from_array(row)
        for povm_name in ("sic", "tetra"):
            povm = get_povm(povm_name)
            probs = povm.probabilities_from_features(
                qstate.moment_features(row))
            for method in ("xi", "moments"):
                checks += 1
                try:
                    dec = li_pipeline(probs * 1e7, povm, method)
                    e0, e1, perr = match_and_score(truth, dec)
                    worst = max(e0 * 1e-6, e1 * 1e-6, perr)
                except Exception as exc:  # noqa: BLE001
                    worst = repr(exc)
                if not (isinstance(worst, float) and worst <= 1e-9):
                    res.fail(f"exact {povm_name}/{method} {row.tolist()}: "
                             f"recovery error {worst}")
    res.ops += checks
    res.extra = {
        "requests": len(requests),
        "exact_checks": checks,
        "latencies_ms": [x * 1e3 for x in latencies],
        "errors": errors,
        "li_err_ppm": [_median(errs), len(errs)],
    }
    return res, summary
