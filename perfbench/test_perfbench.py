"""Tests of the benchmark's own rules.  Run: python3 -m pytest perfbench -q"""
import json
from pathlib import Path

import numpy as np
import pytest

import refs
import workloads
from benchstats import self_times, tail
from metrics import END_TO_END, PER_LAYER
from run import summarize

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n", [1, 5, 20, 21])
def test_tail_falls_back_to_median_without_ten_samples_beyond(n):
    xs = list(range(n, 0, -1))
    value, pct, count = tail(xs)
    assert (value, pct, count) == (float(np.median(xs)), 50.0, n)


def test_tail_is_highest_order_statistic_with_ten_beyond():
    xs = [float(i) for i in range(100)]
    value, pct, count = tail(reversed(xs))
    assert value == 89.0 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * 89 / 99) and count == 100
    value, pct, _ = tail(range(30))
    assert value == 19 and pct == pytest.approx(100.0 * 19 / 29)


def test_self_time_subtracts_covered_children_and_leaf_time():
    spans = [
        (0.0, 10.0, None, 1.0),   # root; 1 s in field calls made directly
        (1.0, 3.0, 0, 0.0),       # child
        (2.0, 4.0, 0, 0.5),       # child overlapping the first
        (2.5, 2.75, 2, 0.0),      # grandchild: covered by its parent only
        (9.5, 11.0, 0, 0.0),      # child running past the root's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 0.5) - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0 - 0.25 - 0.5)
    assert own[3] == pytest.approx(0.25)
    assert own[4] == pytest.approx(1.5)


def _evanesce_artifacts(out: Path, A, x0, final_action, path_shift=0.0):
    times = np.linspace(0.0, 12.0, 241)
    nodes = refs.decay_orbit(A, x0, times) + path_shift
    rows = ["t,x0,x1,w0,w1"] + [
        ",".join(f"{v:.17g}" for v in (t, *x, 0.0, 0.0)) for t, x in zip(times, nodes)]
    (out / "evanesce_action_path.csv").write_text("\n".join(rows) + "\n")
    report = {"config": {"max_iters": 50000}, "results": {"action": {
        "converged": True, "final_action": final_action,
        "detail": {"iterations": 10}}}}
    (out / "evanesce_report.json").write_text(json.dumps(report))


@pytest.mark.parametrize("action_factor, path_shift, expect_ok", [
    (1.0, 0.0, True),
    (1.05, 0.0, False),      # final action 5% off
    (1.0, 1e-2, False),      # every node moved by 1e-2
])
def test_perturbed_result_is_counted_as_failed(tmp_path, action_factor, path_shift,
                                               expect_ok):
    A = np.diag([1.0, 2.0])
    x0 = np.array([1.0, 1.0])
    exact = 0.5 * x0 @ A @ x0
    _evanesce_artifacts(tmp_path, A, x0, action_factor * exact, path_shift)
    ok, err, _ = workloads._verify_evanesce(A, x0)((0, ""), tmp_path)
    assert ok is expect_ok
    good = {"op": "good", "seconds": 1.0, "raw_seconds": 1.0, "ok": True, "err": 1e-6,
            "info": {}}
    checked = {"op": "checked", "seconds": 9.0, "raw_seconds": 9.0, "ok": ok, "err": err,
               "info": {}}
    s = summarize([[good, checked]])
    assert (s["attempted"], s["failed"]) == (2, 0 if expect_ok else 1)
    # a wrong answer adds no latency sample
    assert s["op_p50_s"] == (5.0 if expect_ok else 1.0)
    assert s["err_max"] == pytest.approx(max(err, 1e-6))


def test_nonzero_exit_on_a_quadratic_fails():
    ok, _, info = workloads._verify_evanesce(np.eye(1), np.ones(1))((1, "error"), Path("."))
    assert not ok and info["exit"] == 1


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        d[:3] for d in PER_LAYER]
