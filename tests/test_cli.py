import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pairtomo
from pairtomo import (ParamVector, cli, ensemble_state, estimate, plausible,
                      sample_counts)
from pairtomo.cli import (ASYMPTOTIC_COLUMNS, RESULT_COLUMNS, ExperimentConfig,
                          UsageError, main, read_counts, read_result_rows,
                          render_counts, render_table)
from pairtomo.povm import SIC, TETRA, SicPovm, TetraPovm, get_povm
from pairtomo.qstate import PureQubit

TRUTH = ParamVector.from_array([0.6, 1.0, 1.2, 4.0, 0.9])


def counts_file(tmp_path, n, seed=3, name="counts.csv"):
    povm = get_povm("tetra")
    q = povm.probabilities(ensemble_state(TRUTH))
    rng = np.random.Generator(np.random.Philox(seed))
    counts = sample_counts(q, n, rng)
    path = tmp_path / name
    path.write_text(render_counts(counts, povm), newline="")
    return str(path)


def base_config(**over):
    data = {
        "povm": "tetra",
        "source": {"theta": [0.6, 1.0, 1.2, 4.0, 0.9]},
        "n_schedule": [50, 100],
        "runs": 2,
        "estimators": ["li-xi"],
        "master_seed": 5,
    }
    data.update(over)
    return data


# --------------------------------------------------------------------------
# config parsing

def test_config_round_trip():
    data = base_config(
        estimators=["li-xi", "li-moments", "ml"],
        optimizer={"population": 8, "sigma0": 0.2, "max_evaluations": 1000,
                   "tol": 1e-9, "restarts": 2},
        plausibility={"enabled": True, "m": 5000, "checkpoints": [100]},
        output={"path": "outdir", "format": "json"},
    )
    config = ExperimentConfig.from_dict(data)
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config
    assert config.to_dict() == again.to_dict()


def test_config_defaults():
    config = ExperimentConfig.from_dict(base_config())
    assert config.optimizer.max_evaluations == 20000
    assert config.plausibility_enabled is False
    assert config.out_dir is None and config.out_format == "csv"


def test_source_forms_agree():
    a = PureQubit(0.6, 1.0)
    b = PureQubit(1.2, 4.0)
    by_theta = ExperimentConfig.from_dict(base_config())
    by_bloch = ExperimentConfig.from_dict(base_config(source={
        "a_bloch": [float(c) for c in a.bloch],
        "b_bloch": [float(c) for c in b.bloch],
        "p0": TRUTH.p0,
    }))
    assert by_theta.source.state0 == by_theta.source.state0
    assert abs(1 - by_bloch.source.state0.overlap(a)) < 1e-12
    assert abs(1 - by_bloch.source.state1.overlap(b)) < 1e-12
    assert abs(by_bloch.source.p0 - TRUTH.p0) < 1e-12
    # angles outside the box are canonicalized, not rejected
    folded = ExperimentConfig.from_dict(base_config(
        source={"theta": [math.pi / 6, math.pi / 4, 2 * math.pi / 3,
                          math.pi / 2, math.pi / 6]}))
    assert 0 <= folded.source.theta1 <= math.pi / 2


@pytest.mark.parametrize("mutate", [
    {"povm": "cube"},
    {"n_schedule": []},
    {"n_schedule": [100, 50]},
    {"n_schedule": [10.5]},
    {"runs": 0},
    {"estimators": []},
    {"estimators": ["li-xi", "li-xi"]},
    {"estimators": ["gradient"]},
    {"plausibility": {"enabled": True, "m": 100, "checkpoints": [100]}},
    {"estimators": ["ml"],
     "plausibility": {"enabled": True, "m": 100, "checkpoints": [75]}},
    {"master_seed": -1},
    {"output": {"format": "yaml"}},
    {"optimizer": {"popsize": 10}},
    {"frobnicate": 1},
    {"source": {"a_bloch": [1, 1, 0], "b_bloch": [0, 0, 1], "p0": 0.5}},
    {"source": {"theta": [0.1, 0.2, 0.3]}},
    # a section is absent or an object; a falsy value is not the defaults
    {"optimizer": []},
    {"optimizer": None},
    {"plausibility": 0},
    {"output": ""},
    # enabled is a JSON boolean, checkpoints a list, the path a string
    {"estimators": ["ml"], "plausibility": {"enabled": "false"}},
    {"estimators": ["ml"], "plausibility": {"enabled": "no"}},
    {"estimators": ["ml"], "plausibility": {"enabled": 1}},
    {"estimators": ["ml"], "plausibility": {"enabled": True,
                                            "checkpoints": None}},
    {"estimators": ["ml"], "plausibility": {"enabled": True,
                                            "checkpoints": 0}},
    {"estimators": ["ml"], "plausibility": {"enabled": True,
                                            "checkpoints": False}},
    {"output": {"path": 5}},
    {"output": {"path": True}},
    {"output": {"path": ["a"]}},
    {"output": {"path": ""}},
    # a source has one form and no other field, with JSON numbers
    {"source": {"theta": "01010"}},
    {"source": {"a_bloch": "100", "b_bloch": [0, 0, 1], "p0": 0.5}},
    {"source": {"theta": [0.6, 1.0, 1.2, 4.0, 0.9], "p0": 0.3}},
    {"source": {"theta": [0.6, 1.0, 1.2, 4.0, 0.9], "foo": 1}},
    {"source": {"a_bloch": [1, 0, 0], "b_bloch": [0, 0, 1], "p0": 0.5,
                "foo": 1}},
    {"source": {"a_bloch": [1, 0, 0], "b_bloch": [0, 0, 1]}},
    {"source": {"theta": [True, 1.0, 1.2, 4.0, 0.9]}},
    {"source": {"theta": [0.6, 1.0, 1.2, 4.0, 10 ** 400]}},
    {"source": {"a_bloch": [1, 0, 0], "b_bloch": [0, 0, 1], "p0": True}},
    {"source": {"a_bloch": [1, 0, 0], "b_bloch": [0, 0, 1], "p0": "0.5"}},
    {"optimizer": {"sigma0": True}},
    {"optimizer": {"tol": "1e-9"}},
    # n_schedule and estimators are lists
    {"n_schedule": "100"},
    {"estimators": "ml"},
])
def test_config_rejects(mutate):
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict(base_config(**mutate))


@pytest.mark.parametrize("bad", [{"runs": 0},
                                 {"estimators": ("li-xi", "gradient")}])
def test_config_is_valid_by_construction(bad):
    # built directly or through dataclasses.replace, a config checks itself
    with pytest.raises(ValueError):
        ExperimentConfig(povm="tetra", source=TRUTH, n_schedule=(50, 100),
                         **bad)
    config = ExperimentConfig.from_dict(base_config())
    with pytest.raises(ValueError):
        dataclasses.replace(config, **bad)


# --------------------------------------------------------------------------
# rendering and file round trips

def test_render_table_csv():
    rows = [{"run": 0, "n": 10, "estimator": "li-xi", "err0_ppm": 1.5,
             "err1_ppm": None, "p_err": np.float64(0.25), "fidelity0": 1.0,
             "fidelity1": 1.0, "lambda_pl": None, "size": None,
             "credibility": None, "truth_plausible": np.True_,
             "wall_time": None}]
    text = render_table(RESULT_COLUMNS, rows, "csv")
    lines = text.split("\r\n")
    assert lines[0] == ",".join(RESULT_COLUMNS)
    cells = lines[1].split(",")
    assert cells[3] == "1.5" and cells[4] == ""
    assert cells[5] == "0.25"
    assert cells[11] == "true"
    # repr round-trips doubles exactly
    assert float(cells[5]) == 0.25


def test_render_table_json():
    rows = [{"run": np.int64(1), "n": 20, "estimator": "ml",
             "err0_ppm": 0.1, "err1_ppm": 0.2, "p_err": 0.3,
             "fidelity0": 1.0, "fidelity1": 1.0, "lambda_pl": 1e-5,
             "size": 2e-4, "credibility": 0.99, "truth_plausible": False,
             "wall_time": None}]
    doc = json.loads(render_table(RESULT_COLUMNS, rows, "json"))
    assert doc["columns"] == list(RESULT_COLUMNS)
    assert doc["rows"][0]["run"] == 1
    assert doc["rows"][0]["wall_time"] is None
    assert doc["rows"][0]["truth_plausible"] is False


def test_counts_round_trip(tmp_path):
    povm = get_povm("sic")
    counts = np.arange(1, 10, dtype=np.int64)
    path = tmp_path / "c.csv"
    path.write_text(render_counts(counts, povm), newline="")
    back = read_counts(str(path), povm)
    np.testing.assert_array_equal(back, counts)
    assert back.dtype == np.int64


def test_read_counts_rejects(tmp_path):
    povm = get_povm("sic")
    path = tmp_path / "c.csv"
    path.write_text("wrong,header\r\na,1\r\n")
    with pytest.raises(UsageError):
        read_counts(str(path), povm)
    # outcome rows must match the documented order exactly
    good = render_counts(np.ones(9, dtype=int), povm)
    lines = good.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(UsageError):
        read_counts(str(path), povm)
    path.write_text(render_counts(np.zeros(9, dtype=int), povm), newline="")
    with pytest.raises(UsageError):
        read_counts(str(path), povm)
    path.write_text(render_counts(np.arange(-1, 8), povm), newline="")
    with pytest.raises(UsageError, match="negative"):
        read_counts(str(path), povm)
    with pytest.raises(UsageError):
        read_counts(str(tmp_path / "missing.csv"), povm)


def test_read_result_rows_validation(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\r\n1,2\r\n")
    with pytest.raises(UsageError):
        read_result_rows(str(path))


# --------------------------------------------------------------------------
# simulate

def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_simulate_writes_results_and_manifest(tmp_path):
    out1 = tmp_path / "out1"
    cfg = base_config(output={"path": str(out1), "format": "csv"})
    rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    rows = read_result_rows(str(out1 / "results.csv"))
    assert len(rows) == 2 * 2  # runs x schedule, one estimator
    assert {r["estimator"] for r in rows} == {"li-xi"}
    assert all(r["wall_time"] == "" for r in rows)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["package"] == "pairtomo"
    assert manifest["master_seed"] == 5
    # the embedded config re-parses to the config that ran, minus the
    # output location (runtime i/o stays out of the manifest)
    assert "output" not in manifest["config"]
    parsed = ExperimentConfig.from_dict(manifest["config"])
    expected = dataclasses.replace(ExperimentConfig.from_dict(cfg),
                                   out_dir=None, out_format="csv")
    assert parsed == expected


def test_simulate_deterministic_across_threads(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "2", "1")):
        out = tmp_path / f"out{i}"
        cfg = base_config(output={"path": str(out), "format": "csv"})
        rc = main(["simulate", "--config", write_config(tmp_path, cfg),
                   "--threads", threads])
        assert rc == 0
        outs.append(out / "results.csv")
    assert filecmp.cmp(outs[0], outs[1], shallow=False)
    assert filecmp.cmp(outs[0], outs[2], shallow=False)


def test_simulate_seed_override(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = base_config(output={"path": str(out1)})
    cfg2 = base_config(output={"path": str(out2)})
    main(["simulate", "--config", write_config(tmp_path, cfg1, "c1.json")])
    rc = main(["simulate", "--config", write_config(tmp_path, cfg2, "c2.json"),
               "--seed", "77"])
    assert rc == 0
    assert not filecmp.cmp(out1 / "results.csv", out2 / "results.csv",
                           shallow=False)
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["master_seed"] == 77


def test_simulate_stdout_by_default(tmp_path, capsys):
    rc = main(["simulate", "--config",
               write_config(tmp_path, base_config())])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(RESULT_COLUMNS))
    assert len(out.strip().splitlines()) == 1 + 4


def test_simulate_bad_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["simulate", "--config", str(path)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    bad = write_config(tmp_path, base_config(n_schedule=[]), "bad.json")
    assert main(["simulate", "--config", bad]) == 2
    # a valid config made invalid by an override, through dataclasses.replace
    out = tmp_path / "out"
    good = write_config(tmp_path, base_config(output={"path": str(out)}))
    assert main(["simulate", "--config", good, "--seed", "-1"]) == 2
    assert main(["simulate", "--config", good, "--out", ""]) == 2
    assert main(["simulate", "--config", good, "--threads", "-3"]) == 2
    assert not out.exists()


# --------------------------------------------------------------------------
# estimate

def test_estimate_reports_source(tmp_path, capsys):
    path = counts_file(tmp_path, 5000)
    rc = main(["estimate", path, "--povm", "tetra",
               "--estimator", "li-xi", "--estimator", "li-moments"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["povm"] == "tetra" and report["n_total"] == 5000
    assert "singlet_weight" in report
    assert len(report["triplet_spectrum"]) == 3
    for entry in report["estimates"]:
        got0 = PureQubit(entry["state0"]["theta"], entry["state0"]["phi"])
        got1 = PureQubit(entry["state1"]["theta"], entry["state1"]["phi"])
        # label order: heavier component first
        assert entry["p0"] >= entry["p1"]
        pairs = [(got0, got1, entry["p0"]), (got1, got0, entry["p1"])]
        best = min((2 - x.overlap(TRUTH.state0) - y.overlap(TRUTH.state1),
                    p) for x, y, p in pairs)
        assert best[0] < 2e-3  # summed infidelity at N = 5000
        assert abs(best[1] - TRUTH.p0) < 0.05


def test_estimate_ml_entry(tmp_path, capsys):
    path = counts_file(tmp_path, 800)
    rc = main(["estimate", path, "--povm", "tetra", "--estimator", "ml",
               "--seed", "4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["estimates"][0]
    assert entry["estimator"] == "ml"
    assert math.isfinite(entry["objective"])
    assert entry["converged"] in (True, False)
    assert 0 <= entry["p1"] <= entry["p0"] <= 1


def test_estimate_bad_inputs_exit_2(tmp_path):
    povm = get_povm("sic")
    path = tmp_path / "z.csv"
    path.write_text(render_counts(np.zeros(9, dtype=int), povm), newline="")
    assert main(["estimate", str(path), "--povm", "sic"]) == 2
    tet = counts_file(tmp_path, 100)
    assert main(["estimate", tet, "--povm", "sic"]) == 2
    assert main(["estimate", tet, "--povm", "tetra", "--estimator", "ml",
                 "--seed", "-1"]) == 2
    assert main(["estimate", tet, "--povm", "tetra", "--threads", "-3"]) == 2
    assert main(["estimate", tet, "--povm", "tetra", "--out", ""]) == 2


@pytest.mark.filterwarnings("ignore::pairtomo.IllConditionedWarning")
def test_estimate_n_total_beyond_int64(tmp_path, capsys):
    # every count fits int64 but their total does not: it must not wrap
    path = tmp_path / "big.csv"
    path.write_text(render_counts([2 ** 62] * 10, TETRA), newline="")
    assert main(["estimate", str(path), "--povm", "tetra"]) == 0
    assert json.loads(capsys.readouterr().out)["n_total"] == 10 * 2 ** 62


def test_unreadable_counts_exit_2(tmp_path):
    # undecodable bytes, a field over the csv module's size limit and a
    # count beyond int64 are usage errors, not runtime failures
    path = tmp_path / "c.csv"
    path.write_bytes(b"outcome,count\n\xff\xfe,1\n")
    assert main(["estimate", str(path), "--povm", "tetra"]) == 2
    path.write_text("outcome,count\ns1," + "1" * 200_000 + "\n")
    assert main(["estimate", str(path), "--povm", "tetra"]) == 2
    rows = ["outcome,count"] + [f"{name},1" for name in TETRA.outcome_names]
    rows[1] = "s1," + "9" * 30
    path.write_text("\n".join(rows) + "\n")
    assert main(["estimate", str(path), "--povm", "tetra"]) == 2


# --------------------------------------------------------------------------
# plausible and asymptotics

def test_plausible_report(tmp_path, capsys):
    path = counts_file(tmp_path, 400)
    rc = main(["plausible", path, "--povm", "tetra", "--m", "20000",
               "--threads", "1", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_total"] == 400 and report["m_samples"] == 20000
    assert 0 < report["lambda_pl"] < 1
    assert 0 < report["size"] < 1
    assert 0.5 < report["credibility"] <= 1
    assert report["ratio_d"] is not None
    assert len(report["theta_ml"]) == 5


def test_plausible_bad_arguments_exit_2(tmp_path):
    path = counts_file(tmp_path, 100)
    assert main(["plausible", path, "--povm", "tetra", "--m", "0"]) == 2
    assert main(["plausible", path, "--povm", "tetra", "--m", "100",
                 "--seed", "-1"]) == 2
    assert main(["plausible", path, "--povm", "tetra", "--m", "100",
                 "--threads", "-1"]) == 2
    assert main(["plausible", path, "--povm", "tetra", "--m", "100",
                 "--out", ""]) == 2


def test_plausible_degenerate_sample_exits_1(tmp_path):
    path = counts_file(tmp_path, 12000)
    rc = main(["plausible", path, "--povm", "tetra", "--m", "1",
               "--threads", "1"])
    assert rc == 1


def test_asymptotics_from_simulate(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(
        n_schedule=[60, 120],
        runs=1,
        estimators=["ml"],
        optimizer={"max_evaluations": 2000},
        plausibility={"enabled": True, "m": 4000, "checkpoints": [60, 120]},
        output={"path": str(out), "format": "csv"},
    )
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--threads", "1"]) == 0
    rc = main(["asymptotics", str(out / "results.csv"), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == list(ASYMPTOTIC_COLUMNS)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        n = row["n"]
        assert row["lambda_scaled"] == pytest.approx(
            n ** 2.5 * row["lambda_scaled"] / n ** 2.5)
        assert row["size_scaled"] > 0
        assert row["ratio_d"] is not None


def test_asymptotics_requires_plausibility_columns(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(output={"path": str(out)})
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
    assert main(["asymptotics", str(out / "results.csv")]) == 2
    # JSON tables must be the {"columns", "rows"} document simulate writes,
    # with every column in every row
    row = {c: None for c in RESULT_COLUMNS}
    row.update(run=0, n=100, lambda_pl=1e-3, size=1e-2, credibility=0.99)
    path = tmp_path / "r.json"
    path.write_text(json.dumps([row]))
    assert main(["asymptotics", str(path)]) == 2
    del row["n"]
    path.write_text(json.dumps({"columns": list(RESULT_COLUMNS),
                                "rows": [row]}))
    assert main(["asymptotics", str(path)]) == 2


def test_asymptotics_leaves_undefined_cells_empty(tmp_path, capsys):
    # log 1 = 0 leaves the log-scaled cells empty, and lambda_pl outside
    # (0, 1) leaves ratio_d empty; the other cells are still written
    rows = []
    for n, lam in ((1, 0.3), (100, 1.0), (200, 0.0), (300, 1e-3)):
        row = dict.fromkeys(RESULT_COLUMNS)
        row.update(run=0, n=n, lambda_pl=lam, size=1e-2, credibility=0.99)
        rows.append(row)
    path = tmp_path / "results.csv"
    path.write_text(render_table(RESULT_COLUMNS, rows, "csv"), newline="")
    assert main(["asymptotics", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["rows"]
    assert out[0]["lambda_scaled"] == 0.3
    assert out[0]["size_scaled"] is None
    assert out[0]["one_minus_credibility_scaled"] is None
    assert out[0]["ratio_d"] is not None
    assert [r["ratio_d"] is None for r in out] == [False, True, True, False]
    assert all(r["size_scaled"] is not None for r in out[1:])


def test_asymptotics_bad_arguments_exit_2(tmp_path, capsys):
    # the table is valid; only the arguments are wrong.  asymptotics draws
    # nothing, so it takes no --seed or --threads
    row = dict.fromkeys(RESULT_COLUMNS)
    row.update(run=0, n=100, lambda_pl=1e-3, size=1e-2, credibility=0.99)
    path = tmp_path / "results.csv"
    path.write_text(render_table(RESULT_COLUMNS, [row], "csv"), newline="")
    assert main(["asymptotics", str(path), "--out", ""]) == 2
    for flag in ("--seed", "--threads"):
        with pytest.raises(SystemExit) as exc:
            main(["asymptotics", str(path), flag, "1"])
        assert exc.value.code == 2
    assert main(["asymptotics", str(path)]) == 0


@pytest.mark.parametrize("column, cell", [("n", ""), ("n", "1.5"),
                                          ("n", "0"), ("run", "x"),
                                          ("lambda_pl", "abc"),
                                          ("size", "[1]")])
def test_asymptotics_bad_cells_exit_2(tmp_path, column, cell):
    row = dict.fromkeys(RESULT_COLUMNS)
    row.update(run=0, n=100, lambda_pl=1e-3, size=1e-2, credibility=0.99)
    row[column] = cell
    path = tmp_path / "results.csv"
    path.write_text(render_table(RESULT_COLUMNS, [row], "csv"), newline="")
    assert main(["asymptotics", str(path)]) == 2


# --------------------------------------------------------------------------
# selftest

def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == len(out.strip().splitlines())


def test_python_m_pairtomo_runs_the_cli():
    # a source checkout runs the command line without installing
    src = os.path.dirname(os.path.dirname(pairtomo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "pairtomo", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout


# --------------------------------------------------------------------------
# entry points that perfbench/ reaches from outside the package

def test_perfbench_hook_points_resolve(tmp_path, monkeypatch):
    for name in ("_load_config", "_emit", "result_rows", "render_table"):
        assert callable(getattr(cli, name))
    assert callable(estimate.li_pipeline) and callable(estimate.ml_estimate)
    assert isinstance(SIC, SicPovm) and isinstance(TETRA, TetraPovm)
    # the chunk kernel takes one 6-tuple
    out, cands = plausible._chunk_stats(
        (np.random.SeedSequence(0), 5, "tetra", np.ones((1, 10)),
         np.zeros(1), 5))
    assert out.shape == (1, 3) and len(cands) == 1
    # cmd_simulate reaches run_experiment through the module global
    captured = []
    run_experiment = cli.run_experiment

    def capture(*args, **kwargs):
        records = run_experiment(*args, **kwargs)
        captured.append(records)
        return records

    monkeypatch.setattr(cli, "run_experiment", capture)
    cfg = base_config(runs=1, estimators=["li-xi", "ml"],
                      optimizer={"max_evaluations": 240},
                      output={"path": str(tmp_path / "out")})
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--threads", "1"]) == 0
    (records,) = captured
    assert [(r.run_index, r.n_total) for r in records] == [(0, 50), (0, 100)]
    for rec in records:
        assert rec.counts.sum() == rec.n_total
        assert [e.estimator for e in rec.estimates] == ["li-xi", "ml"]
        assert all(e.decomposition is not None for e in rec.estimates)
