"""Self-tests of the benchmark: span and calibration arithmetic and the
printed metric set.

    python3 -m pytest perfbench          # from the root of the checkout

The end-to-end cases run every workload once per mode with the shortest
run length, so the whole file takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def span(id, parent, name, start, end, **attrs):
    return dict(id=id, parent=parent, name=name, start=start, end=end,
                trial="", thread=1, **attrs)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0),    # overlaps a: together they cover 1..6
        span(4, 2, "a.child", 2.0, 3.0),
        span(5, 1, "c", 9.0, 12.0),   # runs past the parent: only 9..10 counts
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})


def _training_tree(iterations, model_d=4, entries=100):
    """One train span in the shape fairrec's trainer produces for a per-item penalty."""
    spans, clock, next_id = [], [0.0], [1]

    def add(parent, name, length, **attrs):
        sid = next_id[0]
        next_id[0] += 1
        start = clock[0]
        clock[0] += length
        spans.append(span(sid, parent, name, start, clock[0], **attrs))
        return sid

    def with_predicts(parent, name, n):
        sid = add(parent, name, 0.0)
        for _ in range(n):
            add(sid, "factorization.predict_entries", 1.0,
                bytes=entries * (2 * model_d + 2) * 8)
        spans[-1 - n]["end"] = clock[0]

    train = add(None, "trainer.train", 0.0, spec="value")
    for _ in range(iterations):
        with_predicts(train, "factorization.objective", 1)
        with_predicts(train, "penalties.penalty_value", 2)
        with_predicts(train, "factorization.objective_gradient", 1)
        with_predicts(train, "penalties.penalty_gradient", 2)
        add(train, "trainer.adam_step", 1.0)
    # the evaluation after the last step is not part of any iteration
    with_predicts(train, "factorization.objective", 1)
    with_predicts(train, "penalties.penalty_value", 2)
    spans[0]["end"] = clock[0] + 1.0
    return spans


def test_per_iteration_counts_leave_out_the_final_evaluation():
    m = tracer.layer_metrics(_training_tree(3), wall_s=1.0, workers=1,
                             spec_labels=("none", "value"))
    assert m["trainer.iterations"] == 3
    assert m["factorization.predict_entries.calls_per_iter"] == 6
    assert m["factorization.predict_entries.calls_per_iter.value"] == 6
    assert m["factorization.predict_entries.calls_per_iter.none"] == 0
    assert m["factorization.gather_bytes_per_iter"] == 6 * 100 * 10 * 8
    assert m["penalties.penalty_gradient.value.ms_per_iter"] == pytest.approx(2000.0)
    assert m["trainer.adam_step.ms_per_iter"] == pytest.approx(1000.0)
    assert m["trainer.self.ms_per_iter"] == pytest.approx(1000.0 / 3)


def test_a_missing_binding_is_reported_absent():
    recorder = tracer.Recorder()
    recorder.install((("json", "no_such_function", "x"),
                      ("no_such_module_here", "f", "y")))
    assert recorder.absent == ["json.no_such_function", "no_such_module_here.f"]


def test_calibration_slowness_weighs_its_two_parts_equally():
    slowness, compute, startup = calibrate.Calibration().run()
    assert compute > 0 and startup > 0
    assert slowness == pytest.approx((compute / calibrate.REFERENCE_COMPUTE_S
                                      + startup / calibrate.REFERENCE_STARTUP_S) / 2)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=240)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} (median of "
                   in line for line in lines[:-1])
    assert any(line.startswith("failed_ratio = ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "table1-paper", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
