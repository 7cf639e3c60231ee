"""Command-line front end.

Subcommands:

    simulate     run a config-driven batch of simulated experiments
    estimate     reconstruct the source from a counts file
    plausible    plausible-region report for a counts file
    asymptotics  large-N rescaling of a result table
    selftest     run the analytic invariant suite

Configs are JSON (schema in the README), read into an ExperimentConfig
that checks itself on construction.  Result tables are long-format, one
row per (run, N, estimator); wall_time is a reserved column, always
empty because nothing is timed, so identical (config, seed) reruns
produce byte-identical files.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .estimate import (_MAX_N, OptimizerConfig, _as_generator, li_pipeline,
                       match_and_score, ml_decomposition, ml_estimate)
from .plausible import asymptotics, plausibility
from .povm import get_povm
from .qstate import (ParamVector, PureQubit, ensemble_state, moment_features,
                     random_param_array, to_triplet_matrix)
from .recon import decompose_moments, eigh3
from .sim import (GENERATOR_ID, LI_METHODS, STREAM_OPTIMIZER,
                  STREAM_PRIOR, run_experiment, sample_counts, seed_sequence)

ESTIMATOR_NAMES = (*LI_METHODS, "ml")

RESULT_COLUMNS = ("run", "n", "estimator", "err0_ppm", "err1_ppm", "p_err",
                  "fidelity0", "fidelity1", "lambda_pl", "size",
                  "credibility", "truth_plausible", "wall_time")

ASYMPTOTIC_COLUMNS = ("run", "n", "lambda_scaled", "size_scaled",
                      "one_minus_credibility_scaled", "ratio_d")

DEFAULT_M = 10_000_000

# the config's optimizer section: the seed comes from the master seed
_OPTIMIZER_FIELDS = tuple(f.name for f in dataclasses.fields(OptimizerConfig)
                          if f.name != "seed")
_OPTIMIZER_COUNTS = ("population", "max_evaluations", "restarts")


class UsageError(Exception):
    """Bad invocation, config or input file; maps to exit code 2."""


def _as_int(value, name):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _as_float(value, name):
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_list(value, name):
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _as_floats(value, name, n):
    if not (isinstance(value, list) and len(value) == n):
        raise ValueError(f"{name} must be {n} numbers, got {value!r}")
    return [_as_float(v, name) for v in value]


def _parse_source(data):
    """The source section: either {"theta": [five angles]} or {"a_bloch":
    [3], "b_bloch": [3], "p0": p0}, and no other field."""
    node = data["source"]
    form = (("theta",) if isinstance(node, dict) and "theta" in node
            else ("a_bloch", "b_bloch", "p0"))
    node = _section(data, "source", form)
    if set(node) != set(form):
        raise ValueError("source needs 'theta' or 'a_bloch', 'b_bloch', 'p0'")
    if form == ("theta",):
        theta = _as_floats(node["theta"], "source.theta", 5)
        try:
            return ParamVector.from_array(theta)
        except ValueError:
            # out-of-box angles describe the same source; canonicalize
            return ParamVector.from_any_angles(*theta)
    states = []
    for key in ("a_bloch", "b_bloch"):
        v = _as_floats(node[key], f"source.{key}", 3)
        norm = math.sqrt(sum(c * c for c in v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"source.{key} has norm {norm}, expected 1")
        states.append(PureQubit.from_bloch(v))
    return ParamVector.from_states(states[0], states[1],
                                   _as_float(node["p0"], "source.p0"))


def _section(data, name, fields):
    """An optional config section: absent reads as {}; anything but an
    object, or an object with unknown fields, is a config error."""
    node = data.get(name, {})
    if not isinstance(node, dict):
        raise ValueError(f"{name} must be an object, got {node!r}")
    bad = sorted(set(node) - set(fields))
    if bad:
        raise ValueError(f"unknown {name} fields: {bad}")
    return node


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulated batch needs; round-trips through to_dict.

    Checked on construction (dataclasses.replace included): a bad value
    raises ValueError, so every instance is a valid config.
    """

    povm: str
    source: ParamVector
    n_schedule: tuple
    runs: int = 1
    estimators: tuple = ("li-xi", "ml")
    optimizer: OptimizerConfig = OptimizerConfig()
    plausibility_enabled: bool = False
    plausibility_m: int = DEFAULT_M
    plausibility_checkpoints: tuple = ()
    master_seed: int = 0
    out_dir: object = None
    out_format: str = "csv"

    def __post_init__(self):
        get_povm(self.povm)
        if not isinstance(self.source, ParamVector):
            raise ValueError("source must be a ParamVector")
        if not self.n_schedule:
            raise ValueError("n_schedule must not be empty")
        if any(not 1 <= n <= _MAX_N for n in self.n_schedule):
            raise ValueError(f"n_schedule entries must lie in [1, {_MAX_N}]")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n_schedule must be strictly increasing")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad:
            raise ValueError(f"unknown estimators {bad}; "
                             f"choose from {list(ESTIMATOR_NAMES)}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("duplicate estimators")
        if not isinstance(self.plausibility_enabled, bool):
            raise ValueError("plausibility.enabled must be true or false, "
                             f"got {self.plausibility_enabled!r}")
        if self.plausibility_enabled:
            if "ml" not in self.estimators:
                raise ValueError("plausibility needs the 'ml' estimator "
                                 "(the threshold anchors at theta_ML)")
            if self.plausibility_m < 1:
                raise ValueError("plausibility m must be >= 1")
            missing = [n for n in self.plausibility_checkpoints
                       if n not in self.n_schedule]
            if missing:
                raise ValueError(f"plausibility checkpoints {missing} "
                                 "not in n_schedule")
            pairs = zip(self.plausibility_checkpoints,
                        self.plausibility_checkpoints[1:])
            if any(b <= a for a, b in pairs):
                raise ValueError("plausibility checkpoints must be "
                                 "strictly increasing")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.out_dir is not None and not (isinstance(self.out_dir, str)
                                             and self.out_dir):
            raise ValueError("output path must be a non-empty string, "
                             f"got {self.out_dir!r}")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.out_format!r}")

    @classmethod
    def from_dict(cls, data):
        known = {"povm", "source", "n_schedule", "runs", "estimators",
                 "optimizer", "plausibility", "master_seed", "output"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise UsageError(f"unknown config fields: {unknown}")
        try:
            for key in ("povm", "source", "n_schedule"):
                if key not in data:
                    raise ValueError(f"missing required field '{key}'")
            opt = _section(data, "optimizer", _OPTIMIZER_FIELDS)
            pl = _section(data, "plausibility",
                          ("enabled", "m", "checkpoints"))
            out = _section(data, "output", ("path", "format"))
            return cls(
                povm=str(data["povm"]),
                source=_parse_source(data),
                n_schedule=tuple(_as_int(n, "n_schedule entry") for n in
                                 _as_list(data["n_schedule"], "n_schedule")),
                runs=_as_int(data.get("runs", 1), "runs"),
                estimators=tuple(str(e) for e in _as_list(
                    data.get("estimators", ["li-xi", "ml"]), "estimators")),
                optimizer=OptimizerConfig(**{
                    k: _as_int(v, f"optimizer.{k}") if k in _OPTIMIZER_COUNTS
                    else _as_float(v, f"optimizer.{k}")
                    for k, v in opt.items()}),
                plausibility_enabled=pl.get("enabled", False),
                plausibility_m=_as_int(pl.get("m", DEFAULT_M),
                                       "plausibility.m"),
                plausibility_checkpoints=tuple(
                    _as_int(n, "plausibility checkpoint")
                    for n in _as_list(pl.get("checkpoints", []),
                                      "plausibility.checkpoints")),
                master_seed=_as_int(data.get("master_seed", 0),
                                    "master_seed"),
                out_dir=out.get("path"),
                out_format=str(out.get("format", "csv")),
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from exc

    def to_dict(self):
        src = self.source
        return {
            "povm": self.povm,
            "source": {"theta": [src.theta0, src.phi0,
                                 src.theta1, src.phi1, src.alpha]},
            "n_schedule": list(self.n_schedule),
            "runs": self.runs,
            "estimators": list(self.estimators),
            "optimizer": {k: getattr(self.optimizer, k)
                          for k in _OPTIMIZER_FIELDS},
            "plausibility": {"enabled": self.plausibility_enabled,
                             "m": self.plausibility_m,
                             "checkpoints":
                                 list(self.plausibility_checkpoints)},
            "master_seed": self.master_seed,
            "output": {"path": self.out_dir, "format": self.out_format},
        }


# --------------------------------------------------------------------------
# Table and report rendering

def _native(value):
    """Numpy scalars break json and repr formatting; drop to builtins."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return None if value is None else bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_table(columns, rows, fmt):
    """Long-format table as RFC-4180 CSV text or a JSON document."""
    rows = [{k: _native(row[k]) for k in columns} for row in rows]
    if fmt == "json":
        doc = {"columns": list(columns), "rows": rows}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[k]) for k in columns])
    return buf.getvalue()


def _flatten(node, prefix=""):
    if isinstance(node, dict):
        out = []
        for key, value in node.items():
            out.extend(_flatten(value, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(node, (list, tuple)):
        out = []
        for i, value in enumerate(node):
            out.extend(_flatten(value, f"{prefix}[{i}]"))
        return out
    return [(prefix, node)]


def render_report(report, fmt):
    """Nested report as JSON, or flattened key/value CSV."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    rows = [{"key": k, "value": v} for k, v in _flatten(report)]
    return render_table(("key", "value"), rows, fmt)


def result_rows(records):
    """Flatten RunRecords into ResultTable rows (wall_time always empty)."""
    rows = []
    for rec in records:
        for est in rec.estimates:
            rows.append({
                "run": int(rec.run_index),
                "n": int(rec.n_total),
                "estimator": est.estimator,
                "err0_ppm": est.err0_ppm,
                "err1_ppm": est.err1_ppm,
                "p_err": est.p_err,
                "fidelity0": est.fidelity0,
                "fidelity1": est.fidelity1,
                "lambda_pl": est.lambda_pl,
                "size": est.size_pl,
                "credibility": est.credibility_pl,
                "truth_plausible": est.truth_plausible,
                "wall_time": None,
            })
    return rows


def _emit(text, out_dir, filename, log=None):
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    if log:
        log(f"wrote {path}")


# --------------------------------------------------------------------------
# Counts and result-table input

def read_counts(path, povm):
    """Counts CSV (header 'outcome,count', documented outcome order)."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    except OSError as exc:
        raise UsageError(f"cannot read counts: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise UsageError(f"{path}: not a counts CSV ({exc})") from exc
    if not rows or [c.strip().lower() for c in rows[0][:2]] != ["outcome",
                                                                "count"]:
        raise UsageError(f"{path}: expected header 'outcome,count'")
    body = rows[1:]
    names = tuple(r[0].strip() for r in body)
    if names != povm.outcome_names:
        raise UsageError(
            f"{path}: outcome rows {list(names)} do not match the "
            f"{povm.name} order {list(povm.outcome_names)}")
    try:
        counts = np.array([int(r[1]) for r in body], dtype=np.int64)
        povm.validate_counts(counts)
    except (IndexError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: bad counts ({exc})") from exc
    return counts


def render_counts(counts, povm):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("outcome", "count"))
    for name, n in zip(povm.outcome_names, counts):
        writer.writerow((name, int(n)))
    return buf.getvalue()


def read_result_rows(path):
    """Rows of a result table written by cmd_simulate (csv or json)."""
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                doc = json.load(fh)
            if not (isinstance(doc, dict) and {"columns", "rows"} <= doc.keys()
                    and isinstance(doc["rows"], list)
                    and all(isinstance(r, dict) for r in doc["rows"])):
                raise ValueError("expected {'columns': [...], 'rows': [{...}]}")
            rows = doc["rows"]
            keys = [set(r) for r in rows]
        else:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                keys = [set(reader.fieldnames or [])]
                rows = list(reader)
        missing = [c for c in RESULT_COLUMNS if any(c not in k for k in keys)]
        if missing:
            raise ValueError(f"missing columns {missing}")
        return rows
    except OSError as exc:
        raise UsageError(f"cannot read results: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise UsageError(f"{path}: not a result table ({exc})") from exc


def _row_number(row, key, parse=float):
    """A numeric result-table cell, None when empty; UsageError when the
    cell is not a number (JSON booleans, lists and objects included)."""
    value = row.get(key)
    if value is None or value == "":
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"bad {key} cell {value!r}")
    try:
        return parse(value)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad {key} cell {value!r} ({exc})") from None


def _row_int(value):
    return _as_int(int(value) if isinstance(value, str) else value, "cell")


# --------------------------------------------------------------------------
# Subcommands

def _load_config(args):
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise UsageError("config root must be a JSON object")
    config = ExperimentConfig.from_dict(data)
    override = {}
    if args.seed is not None:
        override["master_seed"] = args.seed
    if args.out is not None:
        override["out_dir"] = args.out
    if args.format is not None:
        override["out_format"] = args.format
    try:
        return dataclasses.replace(config, **override) if override else config
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _threads(args):
    """--threads, default 0: all cores; never negative."""
    if args.threads is not None and args.threads < 0:
        raise UsageError(f"--threads must be non-negative, got {args.threads}")
    return args.threads or os.cpu_count() or 1


def _seed(args):
    """--seed of estimate and plausible, default 0; never negative."""
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    return args.seed or 0


def _log(args):
    if args.verbose:
        return lambda msg: print(msg, file=sys.stderr)
    return None


def cmd_simulate(args):
    config = _load_config(args)
    log = _log(args)
    records = run_experiment(config, workers=_threads(args))
    table = render_table(RESULT_COLUMNS, result_rows(records),
                         config.out_format)
    cfg_dict = config.to_dict()
    # where results land is runtime i/o, like thread count; the manifest
    # records only what determines the numbers
    del cfg_dict["output"]
    manifest = {
        "config": cfg_dict,
        "master_seed": config.master_seed,
        "generator": GENERATOR_ID,
        "package": "pairtomo",
        "version": __version__,
    }
    _emit(table, config.out_dir, f"results.{config.out_format}", log)
    if config.out_dir is not None:
        _emit(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
              config.out_dir, "manifest.json", log)
    return 0


def _state_dict(state):
    return {"theta": state.theta, "phi": state.phi,
            "bloch": [float(c) for c in state.bloch]}


def _decomposition_dict(name, dec):
    return {
        "estimator": name,
        "p0": dec.p0,
        "p1": dec.p1,
        "state0": _state_dict(dec.state0),
        "state1": _state_dict(dec.state1),
        "degenerate": dec.degenerate,
        "clamped": dec.clamped,
    }


def cmd_estimate(args):
    povm = get_povm(args.povm)
    counts = read_counts(args.counts, povm)
    names = args.estimator or ["li-xi"]
    seed = _seed(args)
    _threads(args)  # checked only: estimate runs in one process
    # Python ints: an int64 sum wraps for totals beyond 2^63 - 1
    report = {"povm": povm.name, "n_total": sum(int(c) for c in counts),
              "estimates": []}
    for name in names:
        if name == "ml":
            opt = OptimizerConfig(seed=seed_sequence(seed, STREAM_OPTIMIZER,
                                                     0, 0))
            ml = ml_estimate(counts, povm, opt)
            entry = _decomposition_dict(name, ml_decomposition(ml))
            entry["objective"] = ml.objective
            entry["converged"] = ml.converged
        else:
            dec = li_pipeline(counts, povm, LI_METHODS[name])
            entry = _decomposition_dict(name, dec)
        report["estimates"].append(entry)
    raw = povm.linear_inversion(counts)
    if povm.name == "tetra":  # the SIC frame never sees the singlet sector
        report["singlet_weight"] = float(raw.singlet_weight)
    spectrum, _ = eigh3(to_triplet_matrix(raw))
    report["triplet_spectrum"] = [float(w) for w in spectrum]
    _emit(render_report(report, args.format or "json"), args.out,
          f"estimate.{args.format or 'json'}", _log(args))
    return 0


def cmd_plausible(args):
    if args.m < 1:
        raise UsageError(f"--m must be at least 1, got {args.m}")
    povm = get_povm(args.povm)
    counts = read_counts(args.counts, povm)
    seed = _seed(args)
    workers = _threads(args)
    log = _log(args)
    opt = OptimizerConfig(seed=seed_sequence(seed, STREAM_OPTIMIZER, 0, 0))
    ml = ml_estimate(counts, povm, opt)
    if log:
        log(f"theta_ML = {ml.params.to_array().tolist()}")
    rep = plausibility(counts, povm, ml.params, args.m,
                       seed_sequence(seed, STREAM_PRIOR, 0), workers=workers)
    asym = asymptotics(rep.n_total, rep.lambda_pl, size=rep.size_pl,
                       credibility=rep.credibility_pl)
    report = {
        "n_total": rep.n_total,
        "m_samples": rep.m_samples,
        "theta_ml": ml.params.to_array().tolist(),
        "lambda_pl": rep.lambda_pl,
        "size": rep.size_pl,
        "credibility": rep.credibility_pl,
        "se_lambda_pl": rep.se_lambda_pl,
        "se_size": rep.se_size,
        "se_credibility": rep.se_credibility,
        "predicted_size": asym.predicted_size,
        "predicted_one_minus_credibility":
            asym.predicted_one_minus_credibility,
        "ratio_d": asym.ratio_d,
    }
    _emit(render_report(report, args.format or "json"), args.out,
          f"plausible.{args.format or 'json'}", log)
    return 0


def cmd_asymptotics(args):
    """Rescaled series of a result table.  Where log n = 0 (n = 1) the
    log-scaled cells are left empty, and ratio_d where lambda_pl lies
    outside (0, 1), which the asymptotic law does not cover."""
    rows = read_result_rows(args.results)
    out_rows = []
    for row in rows:
        lam = _row_number(row, "lambda_pl")
        size = _row_number(row, "size")
        cred = _row_number(row, "credibility")
        if lam is None:
            continue
        n = _row_number(row, "n", _row_int)
        run = _row_number(row, "run", _row_int)
        if n is None or run is None:
            raise UsageError(f"{args.results}: a row with lambda_pl has "
                             "no n or run")
        if not 1 <= n <= _MAX_N:
            raise UsageError(f"{args.results}: n = {n} outside [1, {_MAX_N}]")
        ratio_d = None
        if 0.0 < lam < 1.0:
            ratio_d = asymptotics(n, lam, size=size, credibility=cred).ratio_d
        log_n = math.log(n)
        scale = n ** 2.5
        out_rows.append({
            "run": run,
            "n": n,
            "lambda_scaled": scale * lam,
            "size_scaled": scale * log_n ** -2.5 * size
                if size is not None and log_n > 0.0 else None,
            "one_minus_credibility_scaled":
                scale * log_n ** -1.5 * (1.0 - cred)
                if cred is not None and log_n > 0.0 else None,
            "ratio_d": ratio_d,
        })
    if not out_rows:
        raise UsageError(f"{args.results}: no plausibility data "
                         "(rerun simulate with plausibility enabled)")
    _emit(render_table(ASYMPTOTIC_COLUMNS, out_rows, args.format or "csv"),
          args.out, f"asymptotics.{args.format or 'csv'}", _log(args))
    return 0


# --------------------------------------------------------------------------
# Self test

def _selftest_checks():
    rng = _as_generator(7)
    sic = get_povm("sic")
    tetra = get_povm("tetra")

    def sic_identities():
        err = np.max(np.abs(sic.elements.sum(axis=0) - np.eye(3)))
        gram = np.einsum("jab,kba->jk", sic.elements, sic.elements)
        target = 1.0 / 36.0 + np.eye(9) / 12.0
        return max(err, np.max(np.abs(gram - target))) < 1e-12

    def tetra_identities():
        t = tetra.directions
        gram = t @ t.T - (4.0 * np.eye(4) - 1.0) / 3.0
        err = max(np.max(np.abs(gram)), np.max(np.abs(t.sum(axis=0))))
        total = np.asarray(tetra.elements4()).sum(axis=0)
        return max(err, np.max(np.abs(total - np.eye(4)))) < 1e-12

    def sum_rules():
        worst = 0.0
        for row in random_param_array(rng, 50):
            q = tetra.probabilities(
                ensemble_state(ParamVector.from_array(row)))
            worst = max(worst, abs(q[:4].sum() - 1.0 / 3.0),
                        abs(q[4:].sum() - 2.0 / 3.0))
        return worst < 1e-12

    def singlet_probabilities():
        ket = np.array([0, 1, -1, 0]) / math.sqrt(2)
        rho = np.outer(ket, ket)
        q_sic = [np.trace(e @ rho).real for e in sic.elements4()]
        q_tet = np.array([np.trace(e @ rho).real
                          for e in tetra.elements4()])
        err = max(np.max(np.abs(q_sic)), np.max(np.abs(q_tet[:4])),
                  np.max(np.abs(q_tet[4:] - 1.0 / 6.0)))
        return err < 1e-12

    def purity_band():
        q = sic.probabilities_from_features(
            moment_features(random_param_array(rng, 500)))
        p2 = (q * q).sum(axis=1)
        return bool((p2 > 1.0 / 9.0 - 1e-12).all()
                    and (p2 < 1.0 / 6.0 + 1e-12).all())

    def _round_trip(povm, method):
        worst = 0.0
        for row in random_param_array(rng, 100):
            truth = ParamVector.from_array(row)
            probs = povm.probabilities_from_features(
                ensemble_state(truth).features())
            dec = li_pipeline(probs * 1e7, povm, method)
            if dec.degenerate:
                continue
            e0, e1, perr = match_and_score(truth, dec)
            worst = max(worst, e0 * 1e-6, e1 * 1e-6, perr)
        return worst < 1e-9

    def moment_route():
        worst = 0.0
        for row in random_param_array(rng, 200):
            truth = ParamVector.from_array(row)
            dec = decompose_moments(ensemble_state(truth))
            if dec.degenerate:
                continue
            e0, e1, perr = match_and_score(truth, dec)
            worst = max(worst, e0 * 1e-6, e1 * 1e-6, perr)
        return worst < 1e-9

    def count_determinism():
        probs = np.full(10, 0.1)
        c1 = sample_counts(probs, 1000, 42)
        c2 = sample_counts(probs, 1000, 42)
        return bool((c1 == c2).all() and c1.sum() == 1000)

    def plausibility_replay():
        truth = ParamVector.from_array([0.6, 1.0, 1.2, 4.0, 0.9])
        probs = tetra.probabilities(ensemble_state(truth))
        counts = sample_counts(probs, 500, 11)
        opt = OptimizerConfig(seed=seed_sequence(11, STREAM_OPTIMIZER, 0, 0),
                              max_evaluations=6000)
        ml = ml_estimate(counts, tetra, opt)
        rep1 = plausibility(counts, tetra, ml.params, 20_000,
                            seed_sequence(11, STREAM_PRIOR, 0))
        rep2 = plausibility(counts, tetra, ml.params, 20_000,
                            seed_sequence(11, STREAM_PRIOR, 0))
        return (rep1 == rep2 and 0.0 < rep1.lambda_pl < 1.0
                and 0.0 <= rep1.size_pl <= 1.0
                and 0.0 < rep1.credibility_pl <= 1.0)

    return [
        ("sic-identities", sic_identities),
        ("tetra-identities", tetra_identities),
        ("tetra-sum-rules", sum_rules),
        ("singlet-probabilities", singlet_probabilities),
        ("sic-purity-band", purity_band),
        ("moment-route-round-trip", moment_route),
        ("li-xi-sic", lambda: _round_trip(sic, "xi")),
        ("li-moments-sic", lambda: _round_trip(sic, "moments")),
        ("li-xi-tetra", lambda: _round_trip(tetra, "xi")),
        ("li-moments-tetra", lambda: _round_trip(tetra, "moments")),
        ("count-determinism", count_determinism),
        ("plausibility-replay", plausibility_replay),
    ]


def cmd_selftest(args):
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok = fn()
        except Exception as exc:
            ok = False
            if args.verbose:
                print(f"     {name}: {exc!r}", file=sys.stderr)
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# Entry point

def _add_common(sub, seeded=True):
    # seeded=False: the command draws nothing, so it takes no seed or threads
    sub.add_argument("--out", metavar="DIR",
                     help="output directory (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"),
                     help="output format")
    if seeded:
        sub.add_argument("--threads", type=int, metavar="K",
                         help="plausibility sweep processes (default or 0: "
                              "all cores); results do not depend on it")
        sub.add_argument("--seed", type=int, metavar="U64",
                         help="master seed (overrides the config for simulate)")
    sub.add_argument("--verbose", action="store_true",
                     help="name each file written on stderr; plausible "
                          "also prints theta_ML")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pairtomo",
        description="Two-state qubit-pair source simulation and estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="run a config-driven simulated experiment batch")
    p.add_argument("--config", required=True, metavar="PATH",
                   help="JSON experiment config")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate",
                       help="reconstruct the source from a counts file")
    p.add_argument("counts", metavar="COUNTS_CSV")
    p.add_argument("--povm", required=True, choices=("sic", "tetra"))
    p.add_argument("--estimator", action="append",
                   choices=ESTIMATOR_NAMES, metavar="NAME",
                   help="repeatable; default li-xi")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("plausible",
                       help="plausible-region report for a counts file")
    p.add_argument("counts", metavar="COUNTS_CSV")
    p.add_argument("--povm", required=True, choices=("sic", "tetra"))
    p.add_argument("--m", type=int, default=DEFAULT_M,
                   help="prior sample size (default 1e7)")
    _add_common(p)
    p.set_defaults(func=cmd_plausible)

    p = sub.add_parser("asymptotics",
                       help="large-N rescaled series from a result table")
    p.add_argument("results", metavar="RESULTS_FILE",
                   help="results.csv or results.json from simulate")
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("selftest", help="run the analytic invariant suite")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            raise UsageError("--out must be a non-empty path")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
