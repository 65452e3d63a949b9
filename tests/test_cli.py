import json
import os
import subprocess
import sys

import pytest

from tubereach import chance, reachalgo
from tubereach.cli import (EXIT_BAD_CONFIG, EXIT_EMPTY_SET, EXIT_OK,
                           EXIT_SOLVER_FAILURE, main)
from tubereach.reachalgo import ReachSetResult
from tubereach.lpsolve import LpSolution, solve_lp


def scalar_config(tmp_path, alphas, horizon=5, extra=None):
    cfg = {
        "system": {
            "type": "custom",
            "A_seq": [[[1.0]]] * horizon,
            "B_seq": [[[1.0]]] * horizon,
            "disturbance": {"mean": [0.0], "covariance": [[0.001]]},
            "input_set": {"normals": [[1.0], [-1.0]],
                          "offsets": [0.1, 0.1]},
        },
        "tube": {"type": "shrinking-box", "base_half_width": 1.0,
                 "decay": 0.6},
        "horizon": horizon,
        "alphas": alphas,
        "directions": {"count": 2},
        "seed": 0,
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_example_writes_loadable_config(tmp_path):
    out = tmp_path / "cfg.json"
    assert main(["example", "stochy-uncontrolled", "-o", str(out)]) == EXIT_OK
    cfg = json.loads(out.read_text())
    assert cfg["system"]["type"] == "uncontrolled"
    assert cfg["alphas"]


def test_example_unknown_name(tmp_path):
    assert main(["example", "nope",
                 "-o", str(tmp_path / "x.json")]) == EXIT_BAD_CONFIG


def test_compute_writes_artifacts(tmp_path):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    doc = json.loads((out / "reach_alpha0p6.json").read_text())
    assert doc["alpha"] == 0.6
    assert doc["status"] == "ok"
    assert "timings" not in doc
    assert (out / "reach_alpha0p6_vertices.csv").exists()
    assert (out / "timings.json").exists()


@pytest.mark.parametrize("name", ["integrator2", "integrator40",
                                  "stochy-uncontrolled", "cwh", "dubins"])
def test_compute_stores_each_result_as_to_json(tmp_path, monkeypatch, name):
    computed = []

    def recorded(*args, **kwargs):
        computed.append(compute(*args, **kwargs))
        return computed[-1]
    compute = reachalgo.compute_reach_set
    monkeypatch.setattr(reachalgo, "compute_reach_set", recorded)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    assert main(["example", name, "-o", str(cfg)]) == EXIT_OK
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    assert [res.alpha for res in computed] == \
        json.loads(cfg.read_text())["alphas"]
    for res in computed:
        tag = f"alpha{res.alpha:g}".replace(".", "p")
        text = (out / f"reach_{tag}.json").read_text()
        assert text == res.to_json()
        assert ReachSetResult.from_json(text).to_json() == text


def test_compute_empty_set_exit_code(tmp_path):
    cfg = scalar_config(tmp_path, [0.99])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_EMPTY_SET
    doc = json.loads((out / "reach_alpha0p99.json").read_text())
    assert doc["status"] == "empty"
    assert doc["diagnostic"]


def fail_line_lps(monkeypatch, failing):
    """Solve the anchor LP; the line LPs numbered in failing (from 1)
    stop at the iteration limit."""
    calls = []

    def solve(lp):
        calls.append(lp)
        if len(calls) - 1 in failing:
            return LpSolution(status="iteration_limit")
        return solve_lp(lp)
    monkeypatch.setattr(chance, "solve_lp", solve)


def test_compute_all_searches_failed_exit_code(tmp_path, monkeypatch):
    fail_line_lps(monkeypatch, {1, 2})
    cfg = scalar_config(tmp_path, [0.6])
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_SOLVER_FAILURE


def test_compute_partial_search_failure_still_ok(tmp_path, monkeypatch):
    fail_line_lps(monkeypatch, {2})
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    doc = json.loads((out / "reach_alpha0p6.json").read_text())
    assert [v["status"] for v in doc["vertices"]] == \
        ["ok", "solver_failure"]


def test_unknown_config_key_rejected(tmp_path):
    cfg = scalar_config(tmp_path, [0.6], extra={"bogus": 1})
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG


@pytest.mark.parametrize("backend", ["chance", "genz"])
def test_backend_key_rejected(tmp_path, caplog, backend):
    # configs that `tubereach example` wrote in earlier releases carry it
    cfg = scalar_config(tmp_path, [0.6], extra={"backend": backend})
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG
    assert "unknown key(s) in config: ['backend']" in caplog.text


def test_anchor_mode_both_rejected(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6], extra={"anchor_mode": "both"})
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG
    assert "unknown anchor_mode 'both'" in caplog.text
    # rejected before any side effect: no output directory is left behind
    assert not (tmp_path / "out").exists()


def test_malformed_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", str(bad),
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG


def test_missing_required_section_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 5, "alphas": [0.6]}))
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG


def test_library_validation_error_is_bad_config(tmp_path):
    # an input set without its lower face is unbounded, which the system
    # constructor (not the config reader) rejects
    cfg = scalar_config(tmp_path, [0.6])
    doc = json.loads(cfg.read_text())
    doc["system"]["input_set"] = {"normals": [[1.0]], "offsets": [0.1]}
    cfg.write_text(json.dumps(doc))
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG


def missing_input_is_bad_config(argv, missing, caplog):
    """main(argv) names the missing path in one logged error and returns
    EXIT_BAD_CONFIG instead of raising."""
    assert main(argv) == EXIT_BAD_CONFIG
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(missing) in errors[0].getMessage()


def test_report_of_a_missing_directory(tmp_path, caplog):
    missing = tmp_path / "nowhere"
    missing_input_is_bad_config(["report", str(missing)], missing, caplog)


def test_validate_with_a_missing_result(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    missing = tmp_path / "reach_alpha0p6.json"
    missing_input_is_bad_config(["validate", str(cfg), "--result",
                                 str(missing)], missing, caplog)


def test_interpolate_with_a_missing_set(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    missing = tmp_path / "reach_alpha0p4.json"
    missing_input_is_bad_config(
        ["interpolate", "--set1", str(missing),
         "--set2", str(out / "reach_alpha0p6.json"), "--beta", "0.5",
         "-o", str(tmp_path / "x.json")], missing, caplog)


def malformed_input_is_bad_config(argv, bad, key, caplog):
    """main(argv) logs one error naming the malformed file and the key it
    lacks, and returns EXIT_BAD_CONFIG instead of raising."""
    assert main(argv) == EXIT_BAD_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert str(bad) in errors[0] and repr(key) in errors[0]


def test_report_with_a_malformed_result(tmp_path, caplog):
    bad = tmp_path / "reach_bad.json"
    bad.write_text("{}")
    malformed_input_is_bad_config(["report", str(tmp_path)], bad, "anchor",
                                  caplog)
    assert not (tmp_path / "summary.json").exists()


def test_validate_with_a_malformed_result(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    bad = tmp_path / "reach_alpha0p6.json"
    bad.write_text(json.dumps({"alpha": 0.6}))
    malformed_input_is_bad_config(
        ["validate", str(cfg), "--result", str(bad), "-d",
         str(tmp_path / "out")], bad, "anchor", caplog)
    assert not (tmp_path / "out").exists()


def test_interpolate_with_a_malformed_set(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    good = out / "reach_alpha0p6.json"
    doc = json.loads(good.read_text())
    del doc["vertices"][0]["controls"]
    bad = tmp_path / "reach_alpha0p4.json"
    bad.write_text(json.dumps(doc))
    malformed_input_is_bad_config(
        ["interpolate", "--set1", str(bad), "--set2", str(good),
         "--beta", "0.5", "-o", str(tmp_path / "x.json")], bad, "controls",
        caplog)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [[], ["compute"],
                                  ["compute", "cfg.json", "--jobs", "two"],
                                  ["report", "out", "--bogus"]])
def test_usage_error_is_bad_config(argv, capsys):
    # argparse's own exit status, 2, means an empty reach set here
    assert main(argv) == EXIT_BAD_CONFIG
    assert "usage: tubereach" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"]])
def test_help_exits_ok(argv, capsys):
    assert main(argv) == EXIT_OK
    assert "usage: tubereach" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_compute_rejects_fewer_than_one_job(tmp_path, caplog, jobs):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out),
                 "-j", jobs]) == EXIT_BAD_CONFIG
    assert f"jobs must be at least 1, not {jobs}" in caplog.text
    assert not out.exists()


def test_validate_rejects_zero_trajectories(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "0", "-d", str(out)]) == EXIT_BAD_CONFIG
    assert "n_traj must be at least 100" in caplog.text
    assert not (out / "validation.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = scalar_config(tmp_path, [0.6])
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["compute", str(cfg), "-d", str(a)]) == EXIT_OK
    assert main(["compute", str(cfg), "-d", str(b), "-j", "4"]) == EXIT_OK
    for name in sorted(os.listdir(a)):
        if name == "timings.json":
            continue
        assert read(a / name) == read(b / name), name


def test_interpolate_between_computed_sets(tmp_path, capsys):
    cfg = scalar_config(tmp_path, [0.4, 0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    dst = tmp_path / "interp.json"
    assert main(["interpolate",
                 "--set1", str(out / "reach_alpha0p4.json"),
                 "--set2", str(out / "reach_alpha0p6.json"),
                 "--beta", "0.5", "-o", str(dst)]) == EXIT_OK
    echoed = capsys.readouterr().out
    assert "gamma=" in echoed
    doc = json.loads(dst.read_text())
    assert doc["beta"] == 0.5
    assert 0.0 < doc["gamma"] < 1.0
    assert len(doc["vertices"]) >= 2


def test_interpolate_beta_out_of_range(tmp_path):
    cfg = scalar_config(tmp_path, [0.4, 0.6])
    out = tmp_path / "out"
    main(["compute", str(cfg), "-d", str(out)])
    code = main(["interpolate",
                 "--set1", str(out / "reach_alpha0p4.json"),
                 "--set2", str(out / "reach_alpha0p6.json"),
                 "--beta", "0.9", "-o", str(tmp_path / "x.json")])
    assert code != EXIT_OK


def test_dp_writes_value_table(tmp_path):
    cfg = scalar_config(tmp_path, [0.6],
                        extra={"dp": {"state_spacing": 0.05,
                                      "input_spacing": 0.05}})
    out = tmp_path / "out"
    assert main(["dp", str(cfg), "-d", str(out)]) == EXIT_OK
    assert (out / "dp_values.csv").exists()


def test_dp_writes_level_polygon_in_2d(tmp_path):
    cfg = {
        "system": {"type": "uncontrolled", "dimension": 2, "gain": 0.8,
                   "covariance": 0.05},
        "tube": {"type": "viability", "half_width": 1.0},
        "horizon": 3,
        "alphas": [0.5],
        "dp": {"state_spacing": 0.1, "input_spacing": 0.1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["dp", str(path), "-d", str(out)]) == EXIT_OK
    assert (out / "dp_values.csv").exists()
    lines = (out / "dp_level_alpha0p5.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) >= 4


def test_validate_roundtrip(tmp_path):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    main(["compute", str(cfg), "-d", str(out)])
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "2000", "-d", str(out)]) == EXIT_OK
    doc = json.loads((out / "validation.json").read_text())
    assert doc["alpha"] == 0.6
    assert doc["mean_error"] >= -0.05


def test_validate_and_report_carry_the_pooled_std(tmp_path, capsys):
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "2000", "-d", str(out)]) == EXIT_OK
    pooled = json.loads((out / "validation.json").read_text())[
        "pooled_binomial_std"]
    assert f"pooled_binomial_std={pooled:.6f}" in capsys.readouterr().out
    assert main(["report", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validation"]["pooled_binomial_std"] == pooled


def test_report_reads_validation_without_the_pooled_std(tmp_path):
    # validation.json written before the pooled std was recorded
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    (out / "validation.json").write_text(json.dumps(
        {"mean_error": 0.01, "std_error": 0.002, "n_traj": 1000}))
    assert main(["report", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validation"]["pooled_binomial_std"] is None
    assert summary["validation"]["mean_error"] == 0.01


def test_report_reads_a_legacy_result(tmp_path):
    # result files of older releases carry "timings" and "backend" keys
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    assert main(["report", str(out)]) == EXIT_OK
    summary = (out / "summary.json").read_text()
    path = out / "reach_alpha0p6.json"
    doc = json.loads(path.read_text())
    doc.update(timings={"total": 1.0}, backend="chance")
    path.write_text(json.dumps(doc))
    assert main(["report", str(out)]) == EXIT_OK
    assert (out / "summary.json").read_text() == summary


def test_report_summarizes_directory(tmp_path, capsys):
    # 0.99 gives an empty set, which is timed too
    cfg = scalar_config(tmp_path, [0.4, 0.6, 0.99])
    out = tmp_path / "out"
    for _ in range(2):  # a rerun overwrites the timings sidecar
        assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_EMPTY_SET
    sidecar = json.loads((out / "timings.json").read_text())
    assert sorted(sidecar) == ["0.4", "0.6", "0.99"]
    assert main(["report", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "0.6" in text
    assert "time=n/a" not in text
    summary = json.loads((out / "summary.json").read_text())
    assert [r["alpha"] for r in summary["results"]] == [0.4, 0.6, 0.99]
    for row in summary["results"]:
        assert row["timings"]["total"] > 0.0


def test_python_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(chance.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = tmp_path / "cfg.json"
    done = subprocess.run(
        [sys.executable, "-m", "tubereach", "example", "integrator2",
         "-o", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(out.read_text())["system"]["type"] == "integrator"
