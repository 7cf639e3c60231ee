"""One workload pass, or one set-up probe, in a fresh process.

    python3 perfbench/worker.py pass  --workload W --seed S --size full
                                      --threads K --workdir DIR
                                      [--trace --spans FILE]
    python3 perfbench/worker.py probe --workload W --workdir DIR

`pass` prints one JSON line with the pass's timing, gate results and, if
traced, its span summary.  `probe` imports pairtomo and makes the
smallest call into the workload's entry point; the caller times the
whole process.  PYTHONPATH must lead to the package under test.
"""

import argparse
import json
import os
import sys


def probe(workload, workdir):
    from pairtomo import cli, estimate

    if workload == "li-requests":
        estimate.li_pipeline([120, 95, 101, 88, 130, 97, 110, 99, 160], "sic")
        return 0
    # the config file is written by the caller, outside the timed process
    threads = "2" if workload == "plausible-region" else "1"
    return cli.main(["simulate", "--config",
                     os.path.join(workdir, "probe.json"),
                     "--threads", threads,
                     "--out", os.path.join(workdir, "probe-out")])


def run_pass(args):
    import tracing
    import workloads

    inputs = workloads.prepare(args.workload, args.seed, args.size,
                               args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.pass_id)
        tracing.install(tracer)
    if args.workload == "li-requests":
        res, summary = workloads.run_li_requests(inputs, tracer)
    else:
        res, summary = workloads.run_simulate(args.workload, inputs,
                                              args.threads, tracer)
    if tracer is not None and args.spans:
        tracing.write_spans(tracer, args.spans)
    out = dict(vars(res))
    out["peak_rss_mb"] = workloads.peak_rss_mb()
    out["trace"] = summary
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("pass", "probe"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--pass-id", default="")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        return probe(args.workload, args.workdir)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
