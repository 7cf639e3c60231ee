"""pairtomo benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {ml-sweep,plausible-region,li-requests}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Every pass runs in a fresh process with single-threaded BLAS.

--trace 0 measures the end-to-end metrics: set-up time (median of fresh
processes that import pairtomo and make one minimal call), then passes
until the next one would end after S seconds.  --trace 1 alternates an
untraced pass with a traced one and reports per-layer metrics from the
traced pass and the tracing overhead from the pair.  Both check every
pass's outputs.  A readable report goes to stdout, with the result as one
JSON object on the last line; the full report and the traced spans are
written under .perfbench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# OpenBLAS is threaded; with 2 pool workers it would oversubscribe the
# cores.  Set before numpy loads, here and in every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_PROBES = 11         # measured probes; one unmeasured warm-up precedes
MIN_PASSES = 3            # the determinism gate needs at least two
RUN_LIMIT_S = 170.0       # a run must end within 180 s

# metric names and units, shared with the benchmark's declaration
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Spawns worker processes under one deadline and collects results."""

    def __init__(self, workload, seed, size, workdir, outdir):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.outdir = outdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        self.count = 0

    def spawn(self, args):
        cmd = [sys.executable, str(HERE / "worker.py")] + args
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {args[:3]} overran the run limit")
        finally:
            try:  # pool workers left behind by a crashed pass
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return proc.returncode, out, err

    def probe(self):
        t0 = time.perf_counter()
        rc, _, err = self.spawn(["probe", "--workload", self.workload,
                                 "--workdir", str(self.workdir)])
        dt = time.perf_counter() - t0
        if rc != 0:
            raise BenchError(f"set-up probe failed ({rc}): {err[-2000:]}")
        return dt

    def run_pass(self, threads, traced=False, tag=""):
        self.count += 1
        pass_id = f"{self.workload}-seed{self.seed}-{self.count}{tag}"
        args = ["pass", "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--threads", str(threads),
                "--workdir", str(self.workdir), "--pass-id", pass_id]
        if traced:
            args += ["--trace", "--spans",
                     str(self.outdir / f"spans-{self.workload}{tag}.jsonl.gz")]
        t0 = time.monotonic()
        rc, out, err = self.spawn(args)
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"wall_s": None, "ops": 0, "failed_ops": 0,
                   "wrong_outputs": 1, "digest": None, "extra": {},
                   "trace": None, "peak_rss_mb": None,
                   "notes": [f"pass crashed ({rc}): {err[-2000:]}"]}
        res["threads"] = threads
        res["traced"] = traced
        res["process_s"] = time.monotonic() - t0
        return res


# --------------------------------------------------------------------------
# Aggregation

def p99(values):
    """99th percentile, linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def fastest_latencies(passes):
    """Each li request's fastest repetition across the run's passes, in ms."""
    return [min(reps) for reps in
            zip(*(p["extra"]["latencies_ms"] for p in passes))]


def work_items(workload, res):
    return res["extra"].get("requests" if workload == "li-requests"
                            else "checkpoints", 0)


def end_to_end(workload, passes, setup_samples):
    """Bounded metrics of a run; see README.md for the estimators.

    The host's CPU speed swings by up to 2x within seconds under other
    tenants' load.  A li request takes under a millisecond, so its
    fastest repetition across passes is an undisturbed service time;
    simulate passes take seconds and are summarized by their median.
    """
    if workload == "li-requests":
        lat = fastest_latencies(passes)
        # one closed-loop client: throughput is 1 / mean service time
        rate = len(lat) / (sum(lat) / 1e3)
    else:
        lat = [p["wall_s"] * 1e3 for p in passes]
        rate = work_items(workload, passes[0]) / (statistics.median(lat) / 1e3)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "checkpoints_per_s": rate,
        "latency_p50_ms": statistics.median(lat),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"setup_s": len(setup_samples), "checkpoints_per_s": len(lat),
               "latency_p50_ms": len(lat), "peak_rss_mb": len(passes)}
    return metrics, samples


def accuracy(res, key):
    """(median infidelity, unit, sample count) of one pass's estimates."""
    median, n = res["extra"][key]
    return median, "ppm", n


def workload_figures(workload, passes, reference=None):
    """The workload-specific end-to-end figures, printed but not bounded."""
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    fig = {"failed_frac": (failed / attempted if attempted else 0.0,
                           "fraction", attempted)}
    if workload == "li-requests":
        reqs = sum(p["extra"]["requests"] for p in passes)
        errors = {}
        for p in passes:
            for k, v in p["extra"]["errors"].items():
                errors[k] = errors.get(k, 0) + v
        fig["requests_per_s"] = (statistics.median(
            p["extra"]["requests"] / p["wall_s"] for p in passes), "1/s",
            len(passes))
        fastest = fastest_latencies(passes)
        fig["latency_p99_ms"] = (p99(fastest), "ms", len(fastest))
        every = [x for p in passes for x in p["extra"]["latencies_ms"]]
        fig["latency_all_p50_ms"] = (statistics.median(every), "ms",
                                     len(every))
        fig["latency_all_p99_ms"] = (p99(every), "ms", len(every))
        fig["documented_error_frac"] = (sum(errors.values()) / reqs,
                                        "fraction", reqs)
        for k, v in sorted(errors.items()):
            fig[f"documented_errors.{k}"] = (v, "count", reqs)
    else:
        fig["ml_err_ppm_median"] = accuracy(passes[0], "ml_err_ppm")
    if workload != "plausible-region":
        fig["li_err_ppm_median"] = accuracy(passes[0], "li_err_ppm")
    if workload == "plausible-region":
        fig["lr_evals_per_s"] = (statistics.median(
            p["extra"]["lr_evals"] / p["wall_s"] for p in passes), "1/s",
            len(passes))
        if reference is not None and reference["wall_s"]:
            fig["scaling_eff_untraced"] = (
                reference["wall_s"] / (2.0 * statistics.median(
                    p["wall_s"] for p in passes)), "ratio", len(passes) + 1)
    return fig


def layer_metrics(summary, untraced_wall, extra, summary_2w=None):
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    import tracing
    import workloads

    by_name = summary["by_name"]
    c = summary["counters"]

    def stat(name, key="self_s"):
        return by_name.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    sweep_2w = (summary_2w["by_name"].get("plausible.plausibility_sweep", {})
                .get("incl_s", 0.0) if summary_2w else 0.0)
    fits = c.get("estimate.ml.fits", 0)
    rows = c.get("qstate.moment_features.rows", 0)
    mf_calls = stat("qstate.moment_features", "calls")
    li_calls = stat("estimate.li_pipeline", "calls")
    li_failed = sum(v for k, v in c.items()
                    if k.startswith("estimate.li_pipeline.failed."))
    m = {f"layer.{layer}.self_s": summary["layers"][layer]
         for layer in tracing.LAYERS}
    m.update({
        "estimate.ml_estimate.self_s": stat("estimate.ml_estimate"),
        "estimate.ml.fits": fits,
        "estimate.ml.evaluations": c.get("estimate.ml.evaluations", 0),
        "estimate.ml.evals_per_fit": ratio(c.get("estimate.ml.evaluations", 0),
                                           fits),
        "estimate.ml.converged_frac": ratio(c.get("estimate.ml.converged", 0),
                                            fits),
        "estimate.ml.err_ppm_median": extra.get("ml_err_ppm", [0.0])[0] or 0.0,
        "qstate.moment_features.calls": mf_calls,
        "qstate.moment_features.rows": rows,
        "qstate.moment_features.rows_per_call": ratio(rows, mf_calls),
        "qstate.moment_features.self_s": stat("qstate.moment_features"),
        "qstate.moment_features.computed_bytes":
            rows * tracing.MOMENT_FEATURE_BYTES_PER_ROW,
        "plausible.plausibility_sweep.self_s":
            stat("plausible.plausibility_sweep"),
        "plausible.chunk_stats.self_s": stat("plausible._chunk_stats"),
        "plausible.lr_evals": c.get("plausible.lr_evals", 0),
        "plausible.scaling_eff": ratio(
            stat("plausible.plausibility_sweep", "incl_s"), 2.0 * sweep_2w),
        "estimate.li_pipeline.calls": li_calls,
        "estimate.li_pipeline.self_s": stat("estimate.li_pipeline"),
        "estimate.li_pipeline.failed_frac": ratio(li_failed, li_calls),
        "estimate.li_pipeline.err_ppm_median":
            extra.get("li_err_ppm", [0.0])[0] or 0.0,
        "povm.linear_inversion.self_s": stat("povm.linear_inversion"),
        "recon.jacobi_eigh3.calls": stat("recon.jacobi_eigh3", "calls"),
        "recon.jacobi_eigh3.self_s": stat("recon.jacobi_eigh3"),
        "recon.decompose_moments.self_s": stat("recon.decompose_moments"),
        "recon.xi_from_triplet.self_s": stat("recon.xi_from_triplet"),
        "recon.states_from_xi.self_s": stat("recon.states_from_xi"),
        "recon.degenerate_frac": ratio(c.get("recon.degenerate", 0),
                                       c.get("estimate.li_pipeline.ok", 0)),
        "sim.sample_counts.self_s": stat("sim.sample_counts"),
        "sim.simulate_run.self_s": stat("sim.simulate_run"),
        "cli.config_s": stat("cli._load_config", "incl_s"),
        "cli.render_s": sum(stat(n, "incl_s") for n in
                            ("cli.result_rows", "cli.render_table",
                             "cli._emit")),
        "cli.output_bytes": c.get("cli.output_bytes", 0),
        "trace.wall_s": summary["wall_s"],
        "trace.overhead_s": summary["wall_s"] - untraced_wall,
        "trace.coverage": ratio(summary["covered_s"], summary["wall_s"]),
    })
    for error in workloads.DOCUMENTED:
        key = f"estimate.li_pipeline.failed.{error.__name__}"
        m[key] = c.get(key, 0)
    return m


# --------------------------------------------------------------------------
# Environment record

def environment():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_env": THREAD_ENV}


# --------------------------------------------------------------------------
# Runs

def check_digests(passes, notes):
    """Every pass of a run must produce byte-identical results."""
    ref = next((p["digest"] for p in passes if p["digest"]), None)
    for p in passes:
        if p["digest"] is not None and p["digest"] != ref:
            p["failed_ops"] = p["ops"]
            p["wrong_outputs"] += 1
            notes.append(f"pass ({p['threads']} worker(s), traced="
                         f"{p['traced']}) results differ from the first pass")


def loop_passes(seconds, step, at_least):
    """Call step() until another call would end after `seconds`."""
    t0 = time.monotonic()
    out = []
    while True:
        s0 = time.monotonic()
        out.append(step())
        last = time.monotonic() - s0
        if len(out) >= at_least and time.monotonic() - t0 + last > seconds:
            return out


def measure(runner, workload, seconds):
    """--trace 0: set-up probes, then passes; end-to-end metrics."""
    import workloads

    threads = workloads.WORKLOADS[workload]["full"].get("threads", 1)
    if workload != "li-requests":
        with open(runner.workdir / "probe.json", "w") as fh:
            json.dump(workloads.probe_config(workload), fh)
    runner.probe()
    setup = [runner.probe() for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    reference = None
    if threads > 1:
        # reports at 1 and 2 workers must be identical
        reference = runner.run_pass(1)
    passes = loop_passes(seconds - (time.monotonic() - t0),
                         lambda: runner.run_pass(threads), MIN_PASSES)
    checked = passes + ([reference] if reference else [])
    notes = []
    check_digests(checked, notes)
    good = [p for p in passes if p["wall_s"]]
    if not good:
        raise BenchError("no pass completed: "
                         + "; ".join(n for p in passes for n in p["notes"]))
    metrics, samples = end_to_end(workload, good, setup)
    figures = workload_figures(workload, good, reference)
    return checked, notes, metrics, samples, figures


def measure_traced(runner, workload, seconds):
    """--trace 1: untraced/traced pass pairs; per-layer metrics."""
    import workloads

    threads = workloads.WORKLOADS[workload]["full"].get("threads", 1)

    def rep():
        # plausible-region is traced at 1 worker so the chunk kernel runs
        # in-process; its 2-worker trace gives the scaling efficiency
        base = runner.run_pass(1 if threads > 1 else threads)
        traced = runner.run_pass(base["threads"], traced=True, tag="-traced")
        group = [base, traced]
        if threads > 1:
            group.append(runner.run_pass(threads, traced=True,
                                         tag=f"-traced-{threads}w"))
        return group

    reps = loop_passes(seconds, rep, 1)
    notes = []
    for group in reps:
        check_digests(group, notes)
    per_rep = []
    shares = None
    for group in reps:
        base, traced = group[0], group[1]
        if not (base["wall_s"] and traced["trace"]):
            continue
        s2 = group[2]["trace"] if len(group) > 2 else None
        if len(group) > 2 and not s2:
            continue
        m = layer_metrics(traced["trace"], base["wall_s"], traced["extra"],
                          s2)
        m["trace.coverage"] = min(
            g["trace"]["covered_s"] / g["trace"]["wall_s"]
            for g in group[1:])
        per_rep.append(m)
        shares = traced["trace"]
    if not per_rep:
        raise BenchError("no traced pass completed: "
                         + "; ".join(n for g in reps for p in g
                                     for n in p["notes"]))
    metrics = {k: statistics.median(m[k] for m in per_rep)
               for k in per_rep[0]}
    return [p for g in reps for p in g], notes, metrics, len(per_rep), shares


def print_report(env, args, metrics, samples, units, figures, shares,
                 notes):
    out = sys.stdout
    out.write(f"pairtomo benchmark  workload={args.workload}  "
              f"seed={args.seed}  seconds={args.seconds}  "
              f"trace={args.trace}\n")
    out.write("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                          if k != "thread_env") + "\n")
    rows = [(name, value, units[name], samples.get(name, ""))
            for name, value in metrics.items()]
    rows += [(name, *fig) for name, fig in (figures or {}).items()]
    for name, value, unit, n in rows:
        shown = ("n/a" if value is None else str(value)
                 if isinstance(value, int) else f"{value:.6g}")
        out.write(f"  {name:52s} {shown:>14s} {unit:10s} n={n}\n")
    if shares:
        wall = shares["wall_s"]
        out.write(f"  traced wall {wall:.4f} s, spans {shares['spans']}, "
                  f"covered {shares['covered_s'] / wall:.1%}\n")
        out.write("  self time by span (share of traced wall time):\n")
        ranked = sorted(shares["by_name"].items(),
                        key=lambda kv: -kv[1]["self_s"])
        for name, st in ranked[:15]:
            out.write(f"    {name:40s} {st['self_s']:10.4f} s "
                      f"{st['self_s'] / wall:7.1%}  calls={st['calls']}\n")
    for note in notes[:20]:
        out.write(f"  gate: {note}\n")


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)

    outdir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.size, workdir, outdir)
    env = environment()
    try:
        if args.trace:
            passes, notes, metrics, n_reps, shares = measure_traced(
                runner, args.workload, args.seconds)
            samples = {k: n_reps for k in metrics}
            units = PER_LAYER
            figures = None
        else:
            passes, notes, metrics, samples, figures = measure(
                runner, args.workload, args.seconds)
            units = END_TO_END
            shares = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    metrics = {k: metrics[k] for k in units}
    for p in passes:
        notes.extend(p["notes"])
    attempted = sum(p["ops"] for p in passes)
    failed = min(attempted, sum(p["failed_ops"] for p in passes))
    correct = all(p["wrong_outputs"] == 0 for p in passes)
    print_report(env, args, metrics, samples, units, figures, shares, notes)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k],
                              "samples": samples.get(k)}
                          for k, v in metrics.items()},
              "figures": figures, "notes": notes,
              "passes": [{k: p.get(k) for k in ("threads", "traced", "wall_s",
                                                "process_s", "peak_rss_mb",
                                                "ops", "failed_ops")}
                         for p in passes]}
    with open(outdir / f"report-{args.workload}-seed{args.seed}-"
                       f"trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    if not (SRC / "pairtomo" / "__init__.py").is_file():
        print(f"error: no pairtomo sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
