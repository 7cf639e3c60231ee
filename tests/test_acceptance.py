"""End-to-end acceptance suite, one verdict line per guarantee.

Each test covers one headline property of the package: analytic source
recovery, measurement-frame identities, benchmark estimator accuracy,
linear-inversion error statistics, plausible-region tracking, its
large-N scaling, and byte-level determinism of the command line.  Each
verdict goes into the terminal summary (see conftest) so a full run
reads as a checklist.  The two slowest checks share one tetrahedron
sweep; the whole module needs a few minutes on one core.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, SINGLET_4
from pairtomo import (ParamVector, ensemble_state, random_param_array,
                      run_experiment, sample_counts)
from pairtomo.cli import ExperimentConfig, main, render_counts
from pairtomo.estimate import (_xi_decomposition, li_diagnostics,
                               match_and_score)
from pairtomo.plausible import asymptotics
from pairtomo.povm import get_povm
from pairtomo.qstate import (from_triplet_matrix, moment_features,
                             to_triplet_matrix, triplet_from_features)
from pairtomo.recon import decompose_moments, eigh3

BENCHMARK_A = (math.pi / 6, math.pi / 4, 2 * math.pi / 3, math.pi / 2,
               math.pi / 6)
BENCHMARK_B = (math.pi / 12, math.pi / 4, 5 * math.pi / 12, math.pi / 2,
               math.pi / 3)


def _verdict(name, failures, detail):
    tag = "PASS" if not failures else "FAIL"
    text = detail if not failures else "; ".join(failures)
    ACCEPTANCE_LINES.append(f"{tag}  {name}: {text}")
    print(f"{tag}  {name}: {text}")
    assert not failures, f"{name}: {text}"


def test_analytic_round_trip():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20250815)))
    draws = random_param_array(rng, 10_000)
    worst = 0.0
    degenerate = 0
    d_bad = []
    for row in draws:
        truth = ParamVector.from_array(row)
        state = ensemble_state(truth)
        routes = (decompose_moments(state),
                  _xi_decomposition(to_triplet_matrix(state)))
        if any(dec.degenerate for dec in routes):
            # only genuinely near-degenerate sources may take that branch
            degenerate += 1
            gap = np.asarray(truth.state0.bloch) - np.asarray(truth.state1.bloch)
            d = truth.p0 * truth.p1 * float(gap @ gap)
            if d >= 1e-7:
                d_bad.append(d)
            continue
        for dec in routes:
            e0, e1, perr = match_and_score(truth, dec)
            worst = max(worst, e0 * 1e-6, e1 * 1e-6, perr)
    elapsed = time.perf_counter() - t0
    failures = []
    if worst >= 1e-9:
        failures.append(f"max recovery error {worst:.2e} >= 1e-9")
    if d_bad:
        failures.append(f"{len(d_bad)} separated sources routed as degenerate "
                        f"(worst spread {max(d_bad):.2e})")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    _verdict("analytic-round-trip", failures,
             f"10000 sources through both routes, max error {worst:.2e}, "
             f"{degenerate} degenerate-routed, {elapsed:.1f} s")


def test_measurement_identities():
    t0 = time.perf_counter()
    sic = get_povm("sic")
    tetra = get_povm("tetra")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    devs = {}
    devs["sic-completeness"] = np.max(np.abs(sic.elements.sum(axis=0) - np.eye(3)))
    gram = np.einsum("jab,kba->jk", sic.elements, sic.elements)
    devs["sic-gram"] = np.max(np.abs(gram - (1 / 36 + np.eye(9) / 12)))
    proj = np.eye(4) - np.outer(SINGLET_4, SINGLET_4.conj())
    devs["sic-pair-projector"] = np.max(np.abs(
        np.asarray(sic.elements4()).sum(axis=0) - proj))
    devs["sic-traces"] = max(abs(np.trace(e).real - 1 / 3) for e in sic.elements)
    feats = moment_features(random_param_array(rng, 2000))
    q = sic.probabilities_from_features(feats)
    p2 = (q * q).sum(axis=1)
    devs["purity-band"] = max(0.0, float((1 / 9 - p2).max()),
                              float((p2 - 1 / 6).max()))
    q_pure = sic.probabilities_from_features(
        moment_features(np.array([[0.7, 1.0, 0.7, 1.0, 0.0]])))[0]
    devs["purity-pure-edge"] = abs(float((q_pure ** 2).sum()) - 1 / 6)
    t = tetra.directions
    devs["tetra-gram"] = np.max(np.abs(t @ t.T - (4 * np.eye(4) - 1) / 3))
    devs["tetra-completeness"] = np.max(np.abs(
        np.asarray(tetra.elements4()).sum(axis=0) - np.eye(4)))
    qt = tetra.probabilities_from_features(feats)
    devs["sum-rule-same-exit"] = float(np.max(np.abs(qt[:, :4].sum(axis=1) - 1 / 3)))
    devs["sum-rule-cross"] = float(np.max(np.abs(qt[:, 4:].sum(axis=1) - 2 / 3)))
    # frame duality: exact probabilities invert back to the same operator
    dual = 0.0
    for f_row, q_row, qt_row in zip(feats[:50], q[:50], qt[:50]):
        m3 = triplet_from_features(f_row)
        dual = max(dual, float(np.max(np.abs(
            to_triplet_matrix(sic.linear_inversion(q_row * 1e6)) - m3))))
        st = tetra.linear_inversion(qt_row * 1e6)
        dual = max(dual, float(np.max(np.abs(st.features() - f_row))))
    devs["frame-duality"] = dual
    rho_sg = np.outer(SINGLET_4, SINGLET_4.conj())
    devs["singlet-blind-sic"] = float(np.max(np.abs(
        [np.trace(e @ rho_sg).real for e in sic.elements4()])))
    qt_sg = np.array([np.trace(e @ rho_sg).real for e in tetra.elements4()])
    devs["singlet-same-exit-zero"] = float(np.max(np.abs(qt_sg[:4])))
    devs["singlet-cross-sixth"] = float(np.max(np.abs(qt_sg[4:] - 1 / 6)))
    elapsed = time.perf_counter() - t0
    failures = [f"{k} deviates by {float(v):.1e}" for k, v in devs.items()
                if v >= 1e-12]
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _verdict("measurement-identities", failures,
             f"{len(devs)} identity groups exact to 1e-12 "
             f"(worst {float(max(devs.values())):.1e}), {elapsed:.2f} s")


def test_benchmark_error_levels():
    t0 = time.perf_counter()
    cases = (
        ("a", BENCHMARK_A, 750, 11852.0, 10546.0, False),
        ("b", BENCHMARK_B, 1000, 15760.0, 9283.0, True),
    )
    failures = []
    detail = []
    for label, angles, runs, li_target, ml_target, ml_below_li in cases:
        cfg = ExperimentConfig.from_dict({
            "povm": "sic",
            "source": {"theta": list(angles)},
            "n_schedule": [1000],
            "runs": runs,
            "estimators": ["li-xi", "ml"],
            "master_seed": 20250815,
        })
        sums = {"li-xi": [], "ml": []}
        for rec in run_experiment(cfg):
            for est in rec.estimates:
                sums[est.estimator].append(est.err0_ppm + est.err1_ppm)
        li_mean = float(np.mean(sums["li-xi"]))
        ml_mean = float(np.mean(sums["ml"]))
        for mean, target, tag in ((li_mean, li_target, "li"),
                                  (ml_mean, ml_target, "ml")):
            if not 0.8 * target <= mean <= 1.2 * target:
                failures.append(f"source {label} {tag} mean {mean:.0f} ppm "
                                f"outside {target:.0f} +/- 20%")
        if ml_below_li and not ml_mean < li_mean:
            failures.append(f"source {label}: ml mean {ml_mean:.0f} ppm "
                            f"not below li {li_mean:.0f}")
        detail.append(f"{label}: li {li_mean:.0f}/{li_target:.0f}, "
                      f"ml {ml_mean:.0f}/{ml_target:.0f} ppm")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.0f} s >= 1800 s")
    _verdict("benchmark-error-levels", failures,
             "; ".join(detail) + f" (within 20%), {elapsed:.0f} s")


def test_linear_inversion_statistics():
    t0 = time.perf_counter()
    sic = get_povm("sic")
    truth = ParamVector.from_any_angles(*BENCHMARK_A)
    m3 = np.asarray(to_triplet_matrix(ensemble_state(truth)), dtype=complex)
    q = sic.probabilities(from_triplet_matrix(m3))
    xi_true = eigh3(m3)[1][:, 0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    runs, n = 10_000, 1000

    def bound_check(counts, tallies):
        rho = to_triplet_matrix(sic.linear_inversion(counts))
        rep = li_diagnostics(rho, m3)
        if rep.eigenvalues[1] > 10.0 * rep.epsilon:
            actual = abs(np.vdot(rep.null_vector, xi_true)) ** 2
            tallies[0] += 1
            tallies[1] += int(rep.overlap_lower_bound > actual + 1e-12)
        return rho

    total_hs = 0.0
    mean_acc = np.zeros((3, 3), dtype=complex)
    var_re = np.zeros((3, 3))
    var_im = np.zeros((3, 3))
    ident_worst = 0.0
    tallies = [0, 0]
    for _ in range(runs):
        counts = sample_counts(q, n, rng)
        rho = bound_check(counts, tallies)
        delta = rho - m3
        hs = float(np.sum(np.abs(delta) ** 2))
        total_hs += hs
        f = counts / n
        ident_worst = max(ident_worst, abs(hs - 12.0 * float((f - q) @ (f - q))))
        mean_acc += rho
        var_re += delta.real ** 2
        var_im += delta.imag ** 2
    # statistical noise keeps r1 below 10 eps at this n, so also push the
    # overlap bound into its informative regime with a larger-n batch
    tallies_big = [0, 0]
    for _ in range(500):
        bound_check(sample_counts(q, 20_000, rng), tallies_big)

    mean_hs = total_hs / runs
    predicted = (12.0 / n) * (1.0 - float(q @ q))
    se_re = np.maximum(np.sqrt(var_re) / runs, 1e-300)
    se_im = np.maximum(np.sqrt(var_im) / runs, 1e-300)
    bias = max(float(np.max(np.abs(mean_acc.real / runs - m3.real) / se_re)),
               float(np.max(np.abs(mean_acc.imag / runs - m3.imag) / se_im)))
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(mean_hs / predicted - 1.0) >= 0.05:
        failures.append(f"mean squared error {mean_hs:.3e} off the predicted "
                        f"{predicted:.3e} by more than 5%")
    if not 10.0 / n <= mean_hs <= 32.0 / (3 * n):
        failures.append(f"mean squared error {mean_hs:.3e} outside "
                        f"[{10.0 / n:.3e}, {32.0 / (3 * n):.3e}]")
    if ident_worst >= 1e-12:
        failures.append(f"frequency identity broke by {ident_worst:.1e}")
    if bias > 4.0:
        failures.append(f"reconstruction biased at {bias:.2f} standard errors")
    if tallies[1] or tallies_big[1]:
        failures.append(f"overlap bound violated "
                        f"{tallies[1] + tallies_big[1]} times")
    if tallies_big[0] == 0:
        failures.append("large-n batch never reached the bound's regime")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f} s >= 120 s")
    _verdict("linear-inversion-statistics", failures,
             f"mean squared error {mean_hs:.4e} vs predicted {predicted:.4e} "
             f"(dev {abs(mean_hs / predicted - 1) * 100:.2f}%), bias "
             f"{bias:.2f} se, bound held in {tallies[0] + tallies_big[0]} "
             f"qualifying runs, {elapsed:.0f} s")


@pytest.fixture(scope="module")
def plausibility_sweep():
    cfg = ExperimentConfig.from_dict({
        "povm": "tetra",
        "source": {"a_bloch": [-2 / 3, -2 / 3, 1 / 3],
                   "b_bloch": [0.50709255283711, -0.16903085094570341,
                               -0.8451542547285167],
                   "p0": 0.37},
        "n_schedule": list(range(100, 5001, 100)),
        "runs": 5,
        "estimators": ["ml"],
        "plausibility": {"enabled": True, "m": 10_000_000},
        "master_seed": 20250815,
    })
    t0 = time.perf_counter()
    records = run_experiment(cfg)
    return records, time.perf_counter() - t0


def test_plausible_region_tracking(plausibility_sweep):
    records, elapsed = plausibility_sweep
    cred = {}
    size = {}
    truth_bad = 0
    for rec in records:
        est = rec.estimates[0]
        cred.setdefault(rec.n_total, []).append(est.credibility_pl)
        size.setdefault(rec.n_total, []).append(est.size_pl)
        truth_bad += int(not est.truth_plausible)
    failures = []
    marks = []
    # thresholds apply to the five-run average at each checkpoint
    for ncp, c_min, s_max in ((1000, 0.9999, 1e-3), (2000, 0.99999, 1e-4),
                              (5000, 0.999999, 1e-5)):
        c_bar = float(np.mean(cred[ncp]))
        s_bar = float(np.mean(size[ncp]))
        if not c_bar > c_min:
            failures.append(f"N={ncp} mean credibility {c_bar:.8f} <= {c_min}")
        if not s_bar < s_max:
            failures.append(f"N={ncp} mean size {s_bar:.2e} >= {s_max:.0e}")
        marks.append(f"N={ncp} credibility {c_bar:.7f}, size {s_bar:.1e}")
    if truth_bad:
        failures.append(f"true parameters implausible at {truth_bad} of "
                        f"{len(records)} checkpoints")
    lo, hi = min(cred[100]), max(cred[100])
    if not (0.95 <= lo and hi <= 0.999):
        failures.append(f"N=100 credibility range [{lo:.5f}, {hi:.5f}] "
                        f"outside [0.95, 0.999]")
    if elapsed >= 3600.0:
        failures.append(f"runtime {elapsed:.0f} s >= 3600 s")
    _verdict("plausible-region", failures,
             "; ".join(marks) + f"; truth plausible at all {len(records)} "
             f"checkpoints, N=100 credibility in [{lo:.4f}, {hi:.4f}], "
             f"{elapsed / 60:.1f} min")


def test_asymptotic_scaling(plausibility_sweep):
    records, _ = plausibility_sweep
    ratios = []
    per_run = {}
    for rec in records:
        est = rec.estimates[0]
        rep = asymptotics(rec.n_total, est.lambda_pl, size=est.size_pl,
                          credibility=est.credibility_pl)
        n = rec.n_total
        if n >= 2000:
            ratios.append(rep.ratio_d)
        if n >= 1000:
            scale = n ** 2.5
            per_run.setdefault(rec.run_index, []).append((
                n,
                scale * est.lambda_pl,
                scale * math.log(n) ** -2.5 * est.size_pl,
                scale * math.log(n) ** -1.5 * (1.0 - est.credibility_pl)))
    ratio_mean = float(np.mean(ratios))
    failures = []
    if not 0.9 <= ratio_mean <= 1.1:
        failures.append(f"mean deviation ratio {ratio_mean:.3f} "
                        f"outside [0.9, 1.1]")
    # trend test: per-run least-squares slope of each rescaled series,
    # then a one-sample t across the five independent runs
    t_marks = []
    for k, label in ((1, "lambda"), (2, "size"), (3, "complement")):
        slopes = []
        for _, rows in sorted(per_run.items()):
            x = np.array([r[0] for r in rows], dtype=float)
            y = np.array([r[k] for r in rows], dtype=float)
            xc = x - x.mean()
            slopes.append(float(xc @ (y - y.mean()) / (xc @ xc)))
        slopes = np.asarray(slopes)
        t_stat = slopes.mean() / (slopes.std(ddof=1) / math.sqrt(slopes.size))
        t_marks.append(f"{label} {t_stat:+.2f}")
        if not abs(t_stat) < 4.0:
            failures.append(f"{label} series trends with |t| = "
                            f"{abs(t_stat):.2f} >= 4")
    _verdict("asymptotic-scaling", failures,
             f"mean deviation ratio {ratio_mean:.3f} over {len(ratios)} "
             f"checkpoints with N >= 2000; trend t: " + ", ".join(t_marks)
             + " (all |t| < 4)")


def test_cli_determinism(tmp_path, capsys):
    failures = []
    cfg = {
        "povm": "tetra",
        "source": {"theta": [0.6, 1.0, 1.2, 4.0, 0.9]},
        "n_schedule": [60, 120],
        "runs": 2,
        "estimators": ["li-xi", "ml"],
        "optimizer": {"max_evaluations": 2000},
        "plausibility": {"enabled": True, "m": 20000},
        "master_seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        out_dir = tmp_path / name
        rc = main(["simulate", "--config", str(cfg_path),
                   "--out", str(out_dir), "--threads", threads])
        if rc != 0:
            failures.append(f"simulate exited {rc} with {threads} threads")
        outs.append(out_dir)
    capsys.readouterr()
    if not failures:
        for other in outs[1:]:
            for fname in ("results.csv", "manifest.json"):
                if not filecmp.cmp(outs[0] / fname, other / fname,
                                   shallow=False):
                    failures.append(f"simulate {fname} differs between "
                                    f"{outs[0].name} and {other.name}")

    tetra = get_povm("tetra")
    probs = tetra.probabilities_from_features(
        ensemble_state(ParamVector.from_array([0.6, 1.0, 1.2, 4.0, 0.9]))
        .features())
    counts = sample_counts(probs, 600, np.random.Generator(
        np.random.Philox(np.random.SeedSequence(3))))
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text(render_counts(counts, tetra), newline="")
    # estimate runs in one process and takes no --threads: it is rerun
    for cmd, runs in (
            (["estimate", str(counts_path), "--povm", "tetra",
              "--estimator", "ml", "--seed", "9"], ([], [])),
            (["plausible", str(counts_path), "--povm", "tetra",
              "--m", "30000", "--seed", "11"],
             (["--threads", "1"], ["--threads", "2"]))):
        rendered = []
        for flags in runs:
            rc = main(cmd + flags)
            out = capsys.readouterr().out
            if rc != 0:
                failures.append(f"{cmd[0]} exited {rc} with flags {flags}")
            rendered.append(out)
        if rendered[0] != rendered[1]:
            failures.append(f"{cmd[0]} output differs across reruns "
                            "or thread counts")
    _verdict("determinism", failures,
             "simulate, estimate and plausible byte-identical across "
             "reruns and thread counts")
