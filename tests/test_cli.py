"""CLI surface: exit codes, artifacts, config handling, determinism."""
import json

import pytest

from evanflow.cli import _DEFAULTS, main


def run(argv):
    return main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- flow -----------------------------------------------------------------

def test_flow_quadratic_passes(tmp_path):
    rc = run(["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
              "--T", "10", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "flow_trajectory.csv").exists()
    rep = read_json(tmp_path / "flow_report.json")
    assert rep["summary"]["failed"] == 0
    assert rep["config"]["potential"] == "quadratic:1,0;0,2"
    ids = {c["check_id"] for c in rep["checks"]}
    assert ids == {"lyapunov_psi", "energy_identity", "grad_norm_monotone",
                   "limit_point"}


def test_flow_check_subset(tmp_path):
    rc = run(["flow", "--potential", "quadratic:1", "--x0", "1",
              "--checks", "lyapunov,energy", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "flow_report.json")
    assert len(rep["checks"]) == 2


def test_flow_cubic_grad_norm_check_fails(tmp_path):
    rc = run(["flow", "--potential", "cubic", "--x0", "-1", "--T", "0.3",
              "--checks", "grad_norm_monotone", "--out", str(tmp_path)])
    assert rc == 2


def test_flow_input_errors(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run(["flow", "--potential", "no_such_potential", "--x0", "1"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1", "--x0", "abc"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1", "--x0", "1",
                "--checks", "no_such_check"] + out) == 1
    # shifts are written '+<const>'; 'cubic-2' is an unknown id
    assert run(["flow", "--potential", "cubic-2", "--x0", "1"] + out) == 1
    # a signed exponent is not a shift: '1e+' stays a bad literal, while
    # '1e+2' and '1e+2+5' resolve
    assert run(["flow", "--potential", "quadratic:1e+", "--x0", "1"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1e+2", "--x0", "1"] + out) == 0
    assert run(["flow", "--potential", "quadratic:1e+2+5", "--x0", "1"] + out) == 0


@pytest.mark.parametrize("argv", [
    ["flow", "--potential", "quadratic:1", "--x0", "1"],
    ["second-order", "--potential", "quadratic:1", "--x0", "1", "--v0=-1"],
], ids=["flow", "second-order"])
def test_unknown_check_name_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--checks", "no_such", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown checks")
    assert not out.exists()


def test_flow_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "quadratic:1", "x0": "1", "T": 5.0}))
    rc = run(["flow", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "flow_report.json")
    assert rep["config"]["T"] == 5.0


def test_flow_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "quadratic:1", "x0": "1",
                               "definitely_not_a_key": 1}))
    assert run(["flow", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_flow_deterministic_artifacts(tmp_path):
    argv = ["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
            "--out", str(tmp_path)]
    assert run(argv) == 0
    first = {p.name: p.read_bytes()
             for p in (tmp_path / "flow_report.json",
                       tmp_path / "flow_trajectory.csv")}
    assert run(argv) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


# --- second-order ---------------------------------------------------------

def test_second_order_evanescent_orbit(tmp_path):
    rc = run(["second-order", "--potential", "quadratic:1,0;0,2",
              "--x0", "1,1", "--v0=-1,-2", "--T", "12",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "second_order_report.json")
    assert rep["evanescence"]["classification"] == "strong"
    assert (tmp_path / "second_order_trajectory.csv").exists()


def test_second_order_requires_v0(tmp_path):
    assert run(["second-order", "--potential", "quadratic:1", "--x0", "1",
                "--out", str(tmp_path)]) == 1


def test_second_order_non_evanescent_fails_checks(tmp_path):
    # v0 off the stable direction: modula equality and phi both break
    rc = run(["second-order", "--potential", "quadratic:1", "--x0", "1",
              "--v0", "1", "--T", "4", "--checks", "modula,phi_residual",
              "--out", str(tmp_path)])
    assert rc == 2


# --- evanesce -------------------------------------------------------------

def test_evanesce_both_solvers_cross_validated(tmp_path):
    rc = run(["evanesce", "--potential", "quadratic:1", "--x0", "1",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "evanesce_report.json")
    assert rep["results"]["action"]["converged"]
    assert rep["cross_validation"]["summary"]["failed"] == 0
    assert (tmp_path / "evanesce_action_path.csv").exists()


@pytest.mark.parametrize("solver", ["action", "both"])
def test_evanesce_solves_each_route_once(tmp_path, monkeypatch, solver):
    # cross-validation reuses the routes the command already solved
    import evanflow.cli as cli
    import evanflow.evanescent as evanescent
    calls = {"action": 0, "shoot": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for mod in (cli, evanescent):
        monkeypatch.setattr(mod, "minimize_action",
                            counting(evanescent.minimize_action, "action"))
        monkeypatch.setattr(mod, "shoot_evanescent",
                            counting(evanescent.shoot_evanescent, "shoot"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": solver}))
    rc = run(["evanesce", "--config", str(cfg), "--potential", "quadratic:1",
              "--x0", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == {"action": 1, "shoot": 1}


def test_evanesce_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    # on quadratic:1 one preconditioned step converges, so the budget is cut
    # on a quadratic with two rates
    cfg.write_text(json.dumps({"potential": "quadratic:1,0;0,2", "x0": "1,1",
                               "max_iters": 1, "cross_validate": False}))
    assert run(["evanesce", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# --- reconstruct ----------------------------------------------------------

def test_reconstruct_1d_grid(tmp_path):
    rc = run(["reconstruct", "--potential", "quadratic:1", "--grid=-1:1:5",
              "--N", "120", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "reconstruction.json")
    assert rep["eikonal_residual"]["passed"]
    lines = (tmp_path / "reconstruction.csv").read_text().strip().split("\n")
    assert len(lines) == 6


def test_reconstruct_skips_the_residual_across_a_zero_width_axis(tmp_path):
    # x = 1 at all nine points, so no residual can see grad psi across x;
    # every point converges and the run passes
    rc = run(["reconstruct", "--potential", "quadratic:1,0;0,2",
              "--grid=1:1:3,-1:1:3", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "reconstruction.json")
    assert "eikonal_residual" not in rep
    assert all(d["converged"] for d in rep["per_point"])


def test_reconstruct_grid_dim_mismatch(tmp_path):
    assert run(["reconstruct", "--potential", "quadratic:1,0;0,2",
                "--grid=-1:1:5", "--out", str(tmp_path)]) == 1


def test_reconstruct_bad_grid_spec(tmp_path):
    assert run(["reconstruct", "--potential", "quadratic:1",
                "--grid=-1:1", "--out", str(tmp_path)]) == 1


def test_reconstruct_rejects_an_empty_axis(tmp_path):
    out = tmp_path / "out"
    assert run(["reconstruct", "--potential", "quadratic:1",
                "--grid=-1:1:0", "--out", str(out)]) == 1
    assert not out.exists()


def test_reconstruct_unknown_method(tmp_path):
    # reconstruction has one route, so a method key is an unknown key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "shoot"}))
    out = tmp_path / "out"
    assert run(["reconstruct", "--config", str(cfg), "--potential", "quadratic:1",
                "--grid=-1:1:3", "--out", str(out)]) == 1
    assert not out.exists()


# --- determine ------------------------------------------------------------

def test_determine_shifted_pair(tmp_path, capsys):
    rc = run(["determine", "quadratic:1", "quadratic:1+5",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "determination.json")
    assert rep["verdict"] == "pass"
    assert rep["constant"] == pytest.approx(5.0, abs=1e-9)
    assert json.loads(capsys.readouterr().out.strip())["constant"] == \
        pytest.approx(5.0, abs=1e-9)


def test_determine_hypothesis_not_met(tmp_path):
    rc = run(["determine", "linear", "neg_linear", "--out", str(tmp_path)])
    assert rc == 3
    rep = read_json(tmp_path / "determination.json")
    assert rep["verdict"] == "hypothesis_not_met"


def test_determine_dimension_mismatch(tmp_path):
    assert run(["determine", "quadratic:1", "quadratic:1,0;0,2",
                "--out", str(tmp_path)]) == 1


# a box as large as 1e308 draws finite points; the fields overflow on them,
# which the reports record as failed checks
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv,stem,code", [
    (["determine", "quadratic:1", "quadratic:1+5"], "determination", 3),
    (["check-convexity", "--potential", "cubic"], "convexity_criterion", 0),
])
def test_huge_box_draws_without_overflow(tmp_path, argv, stem, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": 1e308}))
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == code
    rep = strict_json((tmp_path / f"{stem}.json").read_text())
    if stem == "determination":
        # the mean of psi2 - psi1 over overflowed values is not a number
        assert rep["constant"] is None


def _no_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(text):
    """text parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_no_constant)


README_RUNS = [
    ["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1", "--T", "10"],
    ["second-order", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
     "--v0=-1,-2", "--T", "12"],
    ["evanesce", "--potential", "quadratic:1", "--x0", "1"],
    ["reconstruct", "--potential", "quadratic:1,0;0,2", "--grid=-1:1:5,-1:1:5"],
    ["determine", "quadratic:1", "quadratic:1+5"],
    ["check-convexity", "--potential", "cubic"],
    # every field value overflows, so every point fails with NaN values
    ["reconstruct", "--potential", "quadratic:1e200", "--grid=-1:1:3"],
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", README_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_json_artifacts_and_summaries_are_strict(tmp_path, capsys, argv):
    # an equilibrium's tail slope is -inf and a failed point's values NaN;
    # both are written as null
    assert run(argv + ["--out", str(tmp_path)]) in (0, 2)
    artifacts = sorted(tmp_path.glob("*.json"))
    assert artifacts
    for path in artifacts:
        strict_json(path.read_text())
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        strict_json(line)


# the fields overflow on these starts
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv,config", [
    # the orbit leaves r_max at once, so the Hardy check has too few nodes
    (["second-order", "--potential", "neg_square", "--x0", "1e200", "--v0", "1"], {}),
    # the first RK4 step overflows
    (["flow", "--potential", "neg_square", "--x0", "1e308"], {"integrator": "rk4"}),
], ids=["second-order-hardy", "flow-rk4-overflow"])
def test_failed_run_writes_no_artifact(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# --- check-convexity ------------------------------------------------------

def test_check_convexity_quadratic(tmp_path):
    rc = run(["check-convexity", "--potential", "quadratic:2,0.5;0.5,1",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "convexity_criterion.json")
    assert rep["summary"]["failed"] == 0


def test_check_convexity_cubic_consistent(tmp_path):
    # psi fails convexity but so does its bounded-below evidence, hence the
    # implication itself stands and the exit code is 0
    rc = run(["check-convexity", "--potential", "cubic",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "convexity_criterion.json")
    by_id = {c["check_id"]: c["passed"] for c in rep["checks"]}
    assert by_id["crit_V_convex"]
    assert not by_id["crit_psi_convex"]
    assert by_id["crit_implication_holds"]


# --- parser and config types ----------------------------------------------

@pytest.mark.parametrize("argv", [
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--T", "abc"],
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--no-such-flag", "1"],
    ["no-such-command"],
    [],
    # flags a command does not read
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--grid=-1:1:5"],
    ["determine", "quadratic:1", "quadratic:1+5", "--T", "5"],
    ["reconstruct", "--potential", "quadratic:1", "--grid=-1:1:5",
     "--workers", "2"],
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--seed", "3"],
])
def test_parser_rejections_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


# a valid config of each command, and values outside each declared type
VALID = {
    "flow": {"potential": "quadratic:1", "x0": "1"},
    "second-order": {"potential": "quadratic:1", "x0": "1", "v0": "-1"},
    "evanesce": {"potential": "quadratic:1", "x0": "1"},
    "reconstruct": {"potential": "quadratic:1", "grid": "-1:1:3"},
    "determine": {"potential1": "quadratic:1", "potential2": "quadratic:1+5"},
    "check-convexity": {"potential": "cubic"},
}
MISTYPED = {
    "_float": [[1], {"a": 1}, "abc", True],
    "_positive": [[1], {"a": 1}, "abc", True, 0, -1.5, "nan", "inf", "-inf"],
    "_nonnegative": [[1], {"a": 1}, "abc", True, -1, -1e-300, "nan", "inf"],
    "_int": [[3], {"a": 1}, "abc", 2.5, True],
    "_count": [[3], {"a": 1}, "abc", 2.5, True, 0, -1],
    "_nodes": [[3], {"a": 1}, "abc", 2.5, True, 1, 0, -240],
    "_str": [5, [1], {"a": 1}, True],
    "_bool": ["yes", 1, [True], {"a": 1}],
    "_names": [5, [1], {"a": 1}],
    "_vector": [{"a": 1}, ["a"], [[1]], "1,,2", True, "inf", "1,nan", ["-inf"]],
    "_grid": [[1], {"a": 1}, "-1:1", [[-1, 1]], [[-1, 1, 2.5]], "-1:1:0",
              "-1:nan:3", "-inf:1:3", [[-1, "inf", 3]]],
}


@pytest.mark.parametrize("cmd,key", [(cmd, key) for cmd, table in _DEFAULTS.items()
                                     for key in table])
def test_mistyped_config_value_exits_1(tmp_path, monkeypatch, capsys, cmd, key):
    default, kind = _DEFAULTS[cmd][key]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    cfg = tmp_path / "cfg.json"
    for value in MISTYPED[kind.__name__] + ([] if default is None else [None]):
        cfg.write_text(json.dumps({**VALID[cmd], key: value}))
        assert run([cmd, "--config", str(cfg)]) == 1, value
        assert capsys.readouterr().err.startswith(f"error: {key} must be "), value
        assert not any(run_dir.iterdir()), value


def test_numeric_strings_in_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "quadratic:1", "x0": "1",
                               "rtol": "1e-9"}))
    assert run(["flow", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "flow_report.json")["config"]["rtol"] == 1e-9
