import json
import logging
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from tubereach import chance, gaussian, reachalgo
from tubereach.cli import (_EXAMPLES, EXIT_BAD_CONFIG, EXIT_EMPTY_SET,
                           EXIT_OK, EXIT_SOLVER_FAILURE, _alpha_tag,
                           _instantiate, load_config, main)
from tubereach.geometry import VPolytope, prune_vertices
from tubereach.reachalgo import ReachSetResult
from tubereach.lpsolve import LpSolution, highs_solve


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


def test_validate_empty_result_exit_code(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.99])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_EMPTY_SET
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p99.json"),
                 "-d", str(tmp_path / "val")]) == EXIT_EMPTY_SET
    assert "empty set" in caplog.text
    assert not (tmp_path / "val").exists()


def fail_line_lps(line_lps, failing):
    """Solve the anchor LP; the line LPs numbered in failing (from 1)
    stop at the iteration limit."""
    calls = []

    def solve(model):
        calls.append(model)
        if len(calls) in failing:
            return LpSolution(status="iteration_limit")
        return highs_solve(model)
    line_lps(solve)


def test_compute_all_searches_failed_exit_code(tmp_path, line_lps):
    fail_line_lps(line_lps, {1, 2})
    cfg = scalar_config(tmp_path, [0.6])
    assert main(["compute", str(cfg),
                 "-d", str(tmp_path / "out")]) == EXIT_SOLVER_FAILURE


def test_compute_partial_search_failure_still_ok(tmp_path, line_lps):
    fail_line_lps(line_lps, {2})
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    doc = json.loads((out / "reach_alpha0p6.json").read_text())
    assert [v["status"] for v in doc["vertices"]] == \
        ["ok", "solver_failure"]


def test_compute_anchor_without_verdict_exit_code(tmp_path, monkeypatch,
                                                  caplog):
    # every LP, the anchor's among them, stops without a verdict: no
    # result is written and one line says why
    monkeypatch.setattr(chance, "highs_solve",
                        lambda model: LpSolution(status="numerical_trouble"))
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_SOLVER_FAILURE
    logged = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(logged) == 1 and logged[0].levelname == "ERROR"
    assert "numerical_trouble" in logged[0].getMessage()
    assert not out.exists()


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


INTEGRATOR2 = _EXAMPLES["integrator2"]["system"]


@pytest.mark.parametrize("command", ["compute", "dp"])
@pytest.mark.parametrize("example, change", [
    ("integrator2", {"alphas": [None]}),
    ("integrator2", {"horizon": [3]}),
    ("integrator2", {"directions": 5}),
    ("integrator2", {"pwa": 3}),
    ("integrator2", {"dp": 3}),
    ("integrator40", {"directions": {"count": 8, "slice": [0]}}),
    ("integrator40", {"directions": {"count": 8, "slice": [0, 45]}}),
    ("integrator2", {"horizon": 2.5}),
    ("integrator2", {"horizon": True}),
    ("integrator2", {"horizon": 10 ** 400}),
    ("integrator2", {"directions": {"count": 8.9}}),
    ("integrator2", {"validation": {"n_traj": 1000.7}}),
    ("integrator2", {"seed": "7"}),
    ("integrator2", {"seed": -1}),
    ("integrator2", {"validation": {"seed": -3}}),
    ("integrator2", {"output_dir": 5}),
    ("integrator2", {"output_dir": None}),
    ("integrator2", {"output_dir": ["out"]}),
    ("integrator2", {"output_dir": ""}),
    ("integrator40", {"directions": {"count": 8, "slice": [0, 1.5]}}),
    ("integrator2", {"system": {**INTEGRATOR2, "dimension": None}}),
    ("integrator2", {"system": {**INTEGRATOR2, "covariance": [1]}}),
    ("integrator2", {"system": {**INTEGRATOR2, "covariance": math.nan}}),
    ("integrator2", {"system": {**INTEGRATOR2, "input_bound": math.inf}}),
    ("integrator2", {"tube": {"type": "explicit",
                              "sets": [{"normals": [[1.0, 0.0]]}]}}),
    ("integrator2", {"tube": {"type": "explicit", "sets": [
        {"normals": [[1.0, 0.0]], "offsets": [1.0], "offset": [2.0]}]}}),
    ("stochy-uncontrolled", {"system": {"type": "uncontrolled",
                                        "dimension": 0}}),
    ("integrator2", {"system": {"type": "custom", "B_seq": [[[1.0]]] * 10,
                                "disturbance": {"mean": [0.0],
                                                "covariance": [[0.001]]}}}),
], ids=["alphas-null", "horizon-list", "directions-number", "pwa-number",
        "dp-number", "slice-one-index", "slice-out-of-range",
        "horizon-fraction", "horizon-bool", "horizon-beyond-float",
        "count-fraction",
        "n-traj-fraction", "seed-string", "seed-negative",
        "validation-seed-unknown", "output-dir-number", "output-dir-null",
        "output-dir-list", "output-dir-empty", "slice-fraction",
        "dimension-null",
        "covariance-list", "covariance-nan", "input-bound-inf",
        "explicit-tube-without-offsets", "explicit-tube-unknown-key",
        "uncontrolled-dimension-zero", "custom-system-without-A_seq"])
def test_malformed_config_is_one_error_line(tmp_path, caplog, capsys,
                                            command, example, change):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_EXAMPLES[example], **change}))
    out = tmp_path / "out"
    assert main([command, str(cfg), "-d", str(out)]) == EXIT_BAD_CONFIG
    logged = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [r.levelname for r in logged] == ["ERROR"]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# every optional key at its default, the CLI's own or the receiving
# function's
DEFAULTS = {"directions": {"count": 8, "slice": [0, 1]},
            "pwa": {"delta_lb": 1e-6, "tolerance": 1e-3},
            "dp": {"state_spacing": 0.05, "input_spacing": 0.05},
            "validation": {"n_traj": 100000},
            "seed": 0, "anchor_mode": "cheby", "output_dir": "."}
SPELLED_OUT = {
    # a terminal box as wide as the others is no terminal box
    "integrator2": {"system": {"sampling_time": 0.1},
                    "tube": {"terminal_half_width": 1.0}},
    "cwh": {"system": {"orbital_rate": 0.00106, "mass": 1.0,
                       "sampling_time": 20.0, "input_bound": 0.1,
                       "covariance_diagonal": [1e-4, 1e-4, 5e-8, 5e-8]}},
    "dubins": {"system": {"sampling_time": 0.1, "input_bound": 10.0,
                          "heading": 0.3141592653589793,
                          "disturbance_mean": [0.0, 0.0],
                          "disturbance_covariance": [[1e-3, 0.0],
                                                     [0.0, 1e-3]]},
               "tube": {"delta": 0.7, "decay_steps": 100.0,
                        "base_half_width": 4.0}}}


@pytest.mark.parametrize("example", sorted(SPELLED_OUT))
def test_defaults_spelled_out_change_no_artifact(tmp_path, example):
    shipped = _EXAMPLES[example]
    spelled = {**shipped}
    for key, default in DEFAULTS.items():
        spelled[key] = {**default, **shipped.get(key, {})} \
            if isinstance(default, dict) else shipped.get(key, default)
    for section, keys in SPELLED_OUT[example].items():
        spelled[section] = {**keys, **shipped[section]}
        # where the example sets a key, it sets it at the default too
        assert spelled[section] == {**shipped[section], **keys}
    written = {}
    for name, cfg in (("shipped", shipped), ("spelled", spelled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["compute", str(path), "-d", str(out)]) == EXIT_OK
        written[name] = {f.name: f.read_bytes() for f in out.iterdir()
                         if f.name != "timings.json"}
    assert len(written["shipped"]) >= 2
    assert written["spelled"] == written["shipped"]


def test_validation_seed_is_refused(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    assert main(["compute", str(cfg), "-d", str(tmp_path)]) == EXIT_OK
    # one seed: the top-level seed is the one validation reads
    cfg = scalar_config(tmp_path, [0.6], extra={"validation": {"seed": 1}})
    caplog.clear()
    assert main(["validate", str(cfg), "--result",
                 str(tmp_path / "reach_alpha0p6.json"), "--n-traj", "1000",
                 "-d", str(tmp_path / "out")]) == EXIT_BAD_CONFIG
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", "unknown key(s) in validation: ['seed']")]
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


@pytest.mark.parametrize("alpha", [1.5, 0.0, float("nan")])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_result_alpha_outside_the_unit_interval(tmp_path, caplog, command,
                                                alpha):
    # a result whose alpha was edited out of (0, 1] is refused by name,
    # not validated against a threshold it was never computed for
    cfg = scalar_config(tmp_path, [0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    bad = out / "reach_alpha0p6.json"
    doc = json.loads(bad.read_text())
    doc["alpha"] = alpha
    bad.write_text(json.dumps(doc))
    argv = ["report", str(out)] if command == "report" else \
        ["validate", str(cfg), "--result", str(bad), "-d",
         str(tmp_path / "checked")]
    caplog.clear()
    assert main(argv) == EXIT_BAD_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert str(bad) in errors[0] and "outside (0, 1]" in errors[0]
    assert not (tmp_path / "checked").exists()
    assert not (out / "summary.json").exists()


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


@pytest.mark.parametrize("horizon", [3, 8])
def test_validate_rejects_controllers_of_another_horizon(tmp_path, caplog,
                                                         horizon):
    # the result's controllers hold 5 steps of the scalar input: a config
    # of horizon 3 would read only their first 3, one of horizon 8 would
    # run past their end
    out = tmp_path / "out"
    assert main(["compute", str(scalar_config(tmp_path, [0.6])),
                 "-d", str(out)]) == EXIT_OK
    cfg = scalar_config(tmp_path, [0.6], horizon=horizon)
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "1000", "-d", str(out)]) == EXIT_BAD_CONFIG
    assert (f"has 5 entries, but the system takes {horizon}: 1 per step "
            f"over a horizon of {horizon}") in caplog.text
    assert not (out / "validation.json").exists()


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


def test_compute_with_a_first_piece_of_1e_15(tmp_path, monkeypatch):
    # delta_lb 1e-15 used to hang the envelope's knot search; 10 000
    # secant-gap evaluations are fourteen times what it takes now
    cfg = tmp_path / "cfg.json"
    assert main(["example", "integrator2", "-o", str(cfg)]) == EXIT_OK
    doc = json.loads(cfg.read_text())
    doc.update(pwa={"delta_lb": 1e-15}, alphas=[0.6], directions={"count": 8})
    cfg.write_text(json.dumps(doc))
    evaluations = 0
    real_gap = gaussian._secant_gap

    def counted(a, fa, b):
        nonlocal evaluations
        evaluations += 1
        if evaluations > 10_000:
            raise RuntimeError("the knot search does not stop")
        return real_gap(a, fa, b)

    monkeypatch.setattr(gaussian, "_secant_gap", counted)
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    setup = json.loads((out / "timings.json").read_text())["setup"]
    assert setup["envelope_pieces"] == 167
    assert setup["envelope_evaluations"] == evaluations


def test_compute_records_the_envelope_build(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert main(["example", "stochy-uncontrolled", "-o", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    setup = json.loads((out / "timings.json").read_text())["setup"]
    assert setup["envelope"] > 0.0
    assert setup["envelope_pieces"] == 78
    assert 78 <= setup["envelope_evaluations"] <= 8 * 78
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["setup", "alpha=0.6"]
    assert lines[0].endswith(
        f" pieces=78 evaluations={setup['envelope_evaluations']}")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["setup"] == setup


def test_compute_a_200_state_integrator_chain(tmp_path, capsys):
    # ts^k / k! for k up to 200: 200! alone overflows a float
    cfg = tmp_path / "cfg.json"
    assert main(["example", "integrator40", "-o", str(cfg)]) == EXIT_OK
    doc = json.loads(cfg.read_text())
    doc["system"]["dimension"] = 200
    doc["alphas"] = [0.6]
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 10.0
    assert "Traceback" not in capsys.readouterr().err
    result = ReachSetResult.from_json(
        (out / "reach_alpha0p6.json").read_text())
    assert result.status == "ok" and result.polytope.dim == 200
    assert result.polytope.n_vertices == 8


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


def test_interpolate_ignores_the_order_of_the_sets(tmp_path):
    cfg = scalar_config(tmp_path, [0.4, 0.6])
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    low, high = out / "reach_alpha0p4.json", out / "reach_alpha0p6.json"
    written = []
    for i, (first, second) in enumerate([(low, high), (high, low)]):
        dst = tmp_path / f"interp{i}.json"
        assert main(["interpolate", "--set1", str(first),
                     "--set2", str(second), "--beta", "0.5",
                     "-o", str(dst)]) == EXIT_OK
        written.append(read(dst))
    assert written[0] == written[1]


def test_interpolate_beta_out_of_range(tmp_path):
    cfg = scalar_config(tmp_path, [0.4, 0.6])
    out = tmp_path / "out"
    main(["compute", str(cfg), "-d", str(out)])
    code = main(["interpolate",
                 "--set1", str(out / "reach_alpha0p4.json"),
                 "--set2", str(out / "reach_alpha0p6.json"),
                 "--beta", "0.9", "-o", str(tmp_path / "x.json")])
    assert code != EXIT_OK


def refusal_names_the_files(argv, paths, message, caplog):
    """main(argv) returns EXIT_BAD_CONFIG and logs one error: the paths,
    then the library's message."""
    assert main(argv) == EXIT_BAD_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{', '.join(map(str, paths))}: {message}"]


def integrator2_result(tmp_path):
    """The integrator2 example's config and its result at alpha 0.9, over
    8 directions."""
    cfg = tmp_path / "integrator2.json"
    assert main(["example", "integrator2", "-o", str(cfg)]) == EXIT_OK
    doc = json.loads(cfg.read_text())
    doc.update(alphas=[0.9], directions={"count": 8})
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "integrator2"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    return cfg, out / "reach_alpha0p9.json"


def test_interpolate_refuses_sets_of_another_dimension(tmp_path, caplog):
    out = tmp_path / "out"
    assert main(["compute", str(scalar_config(tmp_path, [0.6])),
                 "-d", str(out)]) == EXIT_OK
    scalar = out / "reach_alpha0p6.json"
    _, planar = integrator2_result(tmp_path)
    dst = tmp_path / "x.json"
    refusal_names_the_files(
        ["interpolate", "--set1", str(scalar), "--set2", str(planar),
         "--beta", "0.7", "-o", str(dst)], [scalar, planar],
        "dimension mismatch: 1 != 2", caplog)
    assert not dst.exists()


def test_interpolate_refuses_equal_thresholds(tmp_path, caplog):
    out = tmp_path / "out"
    assert main(["compute", str(scalar_config(tmp_path, [0.6])),
                 "-d", str(out)]) == EXIT_OK
    both = out / "reach_alpha0p6.json"
    dst = tmp_path / "x.json"
    refusal_names_the_files(
        ["interpolate", "--set1", str(both), "--set2", str(both),
         "--beta", "0.6", "-o", str(dst)], [both, both],
        "need 0 < alpha1 < alpha2 <= 1", caplog)
    assert not dst.exists()


def test_interpolate_refuses_an_empty_set(tmp_path, caplog):
    out = tmp_path / "out"
    assert main(["compute", str(scalar_config(tmp_path, [0.6, 0.99])),
                 "-d", str(out)]) == EXIT_EMPTY_SET
    low, empty = out / "reach_alpha0p6.json", out / "reach_alpha0p99.json"
    dst = tmp_path / "x.json"
    refusal_names_the_files(
        ["interpolate", "--set1", str(low), "--set2", str(empty),
         "--beta", "0.8", "-o", str(dst)], [low, empty],
        "both input sets must be nonempty; recompute at a lower threshold "
        "or with more directions", caplog)
    assert not dst.exists()


def test_validate_names_a_result_of_another_state_dimension(tmp_path,
                                                            caplog):
    cfg, planar = integrator2_result(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["system"]["dimension"] = 4
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    refusal_names_the_files(
        ["validate", str(cfg), "--result", str(planar), "--n-traj", "1000",
         "-d", str(out)], [planar],
        "initial state 0 has 2 entries, but the system state has 4", caplog)
    assert not (out / "validation.json").exists()


def test_interpolate_refuses_a_non_finite_vertex(tmp_path, caplog):
    _, good = integrator2_result(tmp_path)
    doc = json.loads(good.read_text())
    doc["alpha"] = 0.6
    doc["vertices"][0]["point"][0] = math.nan
    bad = tmp_path / "reach_alpha0p6.json"
    bad.write_text(json.dumps(doc))
    dst = tmp_path / "x.json"
    refusal_names_the_files(
        ["interpolate", "--set1", str(bad), "--set2", str(good),
         "--beta", "0.7", "-o", str(dst)], [bad],
        "vertex 0 point: NaN or infinite entry", caplog)
    assert not dst.exists()


@pytest.mark.parametrize("edits, message", [
    ([("controls", 0, math.nan), ("point", 1, math.inf)],
     "vertex 0 controls: NaN or infinite entry"),
    ([("point", 1, math.inf)], "vertex 1 point: NaN or infinite entry")],
    ids=["nan-control", "inf-point"])
def test_validate_refuses_a_non_finite_vertex(tmp_path, caplog, edits,
                                              message):
    cfg, good = integrator2_result(tmp_path)
    doc = json.loads(good.read_text())
    for key, vertex, value in edits:
        doc["vertices"][vertex][key][0] = value
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    refusal_names_the_files(
        ["validate", str(cfg), "--result", str(bad), "--n-traj", "1000",
         "-d", str(out)], [bad], message, caplog)
    assert not (out / "validation.json").exists()


def test_interpolate_ignores_a_stored_polytope(tmp_path):
    # the hull is derived from the certified points: a polytope replaced
    # by T_0's corners gives the same interpolation as the untouched file
    _, good = integrator2_result(tmp_path)
    doc = json.loads(good.read_text())
    low = tmp_path / "reach_alpha0p6.json"
    low.write_text(json.dumps({**doc, "alpha": 0.6}))
    doc["polytope"] = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    outputs = []
    for high in (good, tampered):
        dst = tmp_path / f"from_{high.stem}.json"
        assert main(["interpolate", "--set1", str(low), "--set2", str(high),
                     "--beta", "0.7", "-o", str(dst)]) == EXIT_OK
        outputs.append(json.loads(dst.read_text())["vertices"])
    assert outputs[0] == outputs[1]


def test_skipped_vertices_leave_the_hull(tmp_path, capsys):
    _, good = integrator2_result(tmp_path)
    doc = json.loads(good.read_text())
    for vertex in doc["vertices"][::2]:
        vertex.update(status="skipped", controls=None)
    kept = [v["point"] for v in doc["vertices"] if v["status"] == "ok"]
    hull = prune_vertices(VPolytope(np.array(kept + [doc["anchor"]["point"]])))
    assert hull.n_vertices < len(doc["polytope"])
    out = tmp_path / "skipped"
    out.mkdir()
    path = out / "reach_alpha0p9.json"
    path.write_text(json.dumps(doc))
    np.testing.assert_array_equal(
        ReachSetResult.from_json(path.read_text()).polytope.vertices,
        hull.vertices)
    assert main(["report", str(out)]) == EXIT_OK
    assert f"vertices={hull.n_vertices} " in capsys.readouterr().out


def test_report_refuses_a_non_finite_bound(tmp_path, caplog):
    _, good = integrator2_result(tmp_path)
    doc = json.loads(good.read_text())
    doc["vertices"][2]["lower_bound"] = math.nan
    good.write_text(json.dumps(doc))
    refusal_names_the_files(["report", str(good.parent)], [good],
                            "vertex 2 lower_bound: NaN or infinite entry",
                            caplog)
    assert not (good.parent / "summary.json").exists()


@pytest.mark.parametrize("alphas", [[0.9, 0.9 + 1e-13], [0.6, 0.6]])
def test_alphas_that_share_a_name_are_refused(tmp_path, caplog, alphas):
    out = tmp_path / "out"
    assert main(["compute", str(scalar_config(tmp_path, alphas)),
                 "-d", str(out)]) == EXIT_BAD_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"alphas {alphas[0]} and {alphas[1]} share the name "
                      f"{_alpha_tag(alphas[0])}, so their artifacts would "
                      "collide"]
    assert not out.exists()


def test_a_threshold_is_named_at_twelve_digits(tmp_path, capsys):
    # a threshold of at most 6 significant digits keeps its :g name
    rng = np.random.default_rng(0)
    for alpha in [0.6, 0.8, 0.9, 1.0, 1e-05, 0.123456, 0.999999] + [
            float(f"{a:.6g}") for a in rng.uniform(1e-6, 1.0, 1000)]:
        assert _alpha_tag(alpha) == f"alpha{alpha:g}".replace(".", "p")
    # a longer one is no longer cut to 6 digits
    out = tmp_path / "out"
    assert main(["compute", str(scalar_config(
        tmp_path, [0.9, 0.9000001, 0.9999999])), "-d", str(out)]) in (
            EXIT_OK, EXIT_EMPTY_SET)
    assert sorted(p.name for p in out.glob("reach_*.json")) == [
        "reach_alpha0p9.json", "reach_alpha0p9000001.json",
        "reach_alpha0p9999999.json"]
    assert set(json.loads((out / "timings.json").read_text())) == {
        "setup", "0.9", "0.9000001", "0.9999999"}
    assert main(["report", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "alpha=0.9999999 " in printed and "alpha=1 " not in printed


def test_dp_writes_value_table(tmp_path):
    cfg = scalar_config(tmp_path, [0.6],
                        extra={"dp": {"state_spacing": 0.05,
                                      "input_spacing": 0.05}})
    out = tmp_path / "out"
    assert main(["dp", str(cfg), "-d", str(out)]) == EXIT_OK
    assert (out / "dp_values.csv").exists()


def test_dp_builds_no_envelope_and_validate_does(tmp_path, monkeypatch):
    cfg = scalar_config(tmp_path, [0.6],
                        extra={"dp": {"state_spacing": 0.05,
                                      "input_spacing": 0.05}})
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    builds = 0

    def counted(*args, **kwargs):
        nonlocal builds
        builds += 1
        return gaussian.build_pwa_quantile(*args, **kwargs)

    monkeypatch.setattr("tubereach.cli.build_pwa_quantile", counted)
    assert main(["dp", str(cfg), "-d", str(out)]) == EXIT_OK
    assert builds == 0
    # validate keeps its build: it refuses the pwa settings compute refuses
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "1000", "-d", str(out)]) == EXIT_OK
    assert builds == 1


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


@pytest.mark.parametrize("spacing", [
    {"state_spacing": 0.0}, {"state_spacing": -0.05},
    {"input_spacing": 0.0}, {"input_spacing": -0.05}])
def test_dp_rejects_non_positive_spacing(tmp_path, caplog, spacing):
    cfg = scalar_config(tmp_path, [0.6], extra={"dp": spacing})
    out = tmp_path / "out"
    assert main(["dp", str(cfg), "-d", str(out)]) == EXIT_BAD_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["grid spacings must be positive"]
    assert not out.exists()


def csv_table(path):
    """The header and the rows of a CSV artifact, as strings."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def g12(values):
    return [f"{v:.12g}" for v in values]


def test_csv_artifacts_pin_header_and_number_format(tmp_path):
    # each CSV artifact is a header, then a row a record with numbers as
    # .12g: the vertices, DP values and validation of the scalar config,
    # and the boundary loop and DP level polygon of a planar one
    cfg = scalar_config(tmp_path, [0.6],
                        extra={"dp": {"state_spacing": 0.05,
                                      "input_spacing": 0.05}})
    out = tmp_path / "out"
    assert main(["compute", str(cfg), "-d", str(out)]) == EXIT_OK
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "1000", "-d", str(out)]) == EXIT_OK
    assert main(["dp", str(cfg), "-d", str(out)]) == EXIT_OK
    doc = json.loads((out / "reach_alpha0p6.json").read_text())
    assert csv_table(out / "reach_alpha0p6_vertices.csv") == (
        ["index", "status", "theta", "lower_bound", "x0"],
        [[str(i), v["status"],
          *g12([v["theta"], v["lower_bound"], *v["point"]])]
         for i, v in enumerate(doc["vertices"])])
    report = json.loads((out / "validation.json").read_text())
    assert csv_table(out / "validation.csv") == (
        ["x0", "empirical_probability", "binomial_std", "error"],
        [g12([*r["point"], r["empirical_probability"], r["binomial_std"],
              r["error"]]) for r in report["records"]])
    sys1, tube1, _, _ = _instantiate(load_config(str(cfg)))
    table = reachalgo.dp_values(sys1, tube1, 0.05, 0.05)
    assert csv_table(out / "dp_values.csv") == (
        ["x0"] + [f"V{k}" for k in range(6)],
        [g12([x, *(v[i] for v in table.values)])
         for i, x in enumerate(table.grids[0])])

    planar = tmp_path / "planar.json"
    planar.write_text(json.dumps({
        "system": {"type": "uncontrolled", "dimension": 2, "gain": 0.8,
                   "covariance": 0.05},
        "tube": {"type": "viability", "half_width": 1.0},
        "horizon": 3, "alphas": [0.5], "directions": {"count": 8},
        "dp": {"state_spacing": 0.1, "input_spacing": 0.1}}))
    out = tmp_path / "planar"
    assert main(["compute", str(planar), "-d", str(out)]) == EXIT_OK
    assert main(["dp", str(planar), "-d", str(out)]) == EXIT_OK
    vertices = json.loads((out / "reach_alpha0p5.json").read_text())[
        "polytope"]
    header, loop = csv_table(out / "reach_alpha0p5_boundary.csv")
    assert header == ["x0", "x1"] and loop[0] == loop[-1]
    assert sorted(loop[1:]) == sorted(g12(p) for p in vertices)
    sys2, tube2, _, _ = _instantiate(load_config(str(planar)))
    _, polygon = reachalgo.dp_level_set(
        reachalgo.dp_values(sys2, tube2, 0.1, 0.1), 0.5)
    assert csv_table(out / "dp_level_alpha0p5.csv") == (
        ["x0", "x1"], [g12(p) for p in polygon.vertices])


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
    assert main(["validate", str(cfg),
                 "--result", str(out / "reach_alpha0p6.json"),
                 "--n-traj", "2000", "-d", str(out)]) == EXIT_OK
    path = out / "validation.json"
    doc = json.loads(path.read_text())
    del doc["pooled_binomial_std"]
    path.write_text(json.dumps(doc))
    assert main(["report", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validation"]["pooled_binomial_std"] is None
    assert summary["validation"]["mean_error"] == doc["mean_error"]
    assert summary["validation"]["std_error"] == doc["std_error"]


def test_report_with_a_malformed_validation(tmp_path, caplog):
    cfg = scalar_config(tmp_path, [0.6])
    assert main(["compute", str(cfg), "-d", str(tmp_path)]) == EXIT_OK
    bad = tmp_path / "validation.json"
    bad.write_text("{}")
    malformed_input_is_bad_config(["report", str(tmp_path)], bad, "alpha",
                                  caplog)
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("text", [
    "{not json", "[1, 2]", '{"0.6": [1]}', '{"0.6": {"total": "1 s"}}'])
def test_report_with_malformed_timings(tmp_path, caplog, text):
    bad = tmp_path / "timings.json"
    bad.write_text(text)
    assert main(["report", str(tmp_path)]) == EXIT_BAD_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(f"{bad}: ")
    assert not (tmp_path / "summary.json").exists()


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
    # the thresholds, and the envelope's build under "setup"
    assert sorted(sidecar) == ["0.4", "0.6", "0.99", "setup"]
    # the LP counts of each set; the empty set had no searches
    for alpha in ("0.4", "0.6"):
        assert sidecar[alpha]["search_iterations"] >= 0
        assert sidecar[alpha]["search_rows"] > 0
        assert sidecar[alpha]["search_cols"] > 0
        assert sidecar[alpha]["hull"] >= 0.0
    assert "search_rows" not in sidecar["0.99"]
    assert "hull" not in sidecar["0.99"]
    assert all(sidecar[alpha]["anchor_iterations"] >= 0
               for alpha in ("0.4", "0.6", "0.99"))
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "0.6" in text
    assert "time=n/a" not in text
    # each phase of a set; the empty set stops after its anchor
    lines = dict(line.split(" ", 1) for line in text.splitlines())
    for alpha in ("0.4", "0.6"):
        for phase in ("assemble", "anchor", "anchor_solve", "searches",
                      "search_solve", "hull"):
            assert f" {phase}=" in lines[f"alpha={alpha}"]
    assert " anchor=" in lines["alpha=0.99"]
    assert " anchor_solve=" in lines["alpha=0.99"]
    assert " hull=" not in lines["alpha=0.99"]
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
