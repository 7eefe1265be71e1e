"""Tests of the benchmark's own logic.

Run from the repository root: python -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_inner()
        traced_leaf()
        clock.now += 0.25

    traced_leaf = tracer.wrap(leaf, "net.leaf")
    traced_inner = tracer.wrap(inner, "minimal.inner")
    tracer.wrap(outer, "cli.outer")()

    assert tracer.inclusive["cli.outer"] == 3.0 + 3.5 + 2.0 + 0.25
    assert tracer.inclusive["minimal.inner"] == 3.5
    assert tracer.calls["net.leaf"] == 2
    # duration minus the part of the interval covered by child spans
    assert tracer.self_time["cli.outer"] == 8.75 - (3.5 + 2.0)
    assert tracer.self_time["minimal.inner"] == 3.5 - 2.0
    assert tracer.layer_self("net") == 4.0
    total = sum(tracer.layer_self(layer) for layer in ("cli", "minimal", "net"))
    assert total == tracer.inclusive["cli.outer"]


def test_nested_calls_of_one_key_are_not_counted_twice():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def recurse(n):
        clock.now += 1.0
        if n:
            traced(n - 1)

    traced = tracer.wrap(recurse, "reflection.recurse")
    traced(2)
    assert tracer.calls["reflection.recurse"] == 3
    assert tracer.inclusive["reflection.recurse"] == 3.0
    assert tracer.self_time["reflection.recurse"] == 3.0


def test_span_is_recorded_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def fail():
        clock.now += 1.5
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "bvp.fail")()
    assert tracer.inclusive["bvp.fail"] == 1.5
    assert tracer._children == []


def test_fd_probe_and_trial_classification_on_toy_problem():
    from minnet import bvp

    target = np.array([1.0, -2.0, 0.5])
    calls, jacobians = [], []

    def residual(x):
        return np.array([x[0] - target[0], 3.0 * (x[1] - target[1]),
                         x[2] - target[2], x[0] * x[2] - target[0] * target[2]])

    def fun(x):
        calls.append(np.array(x))
        return residual(x)

    def converged(x):
        done = float(np.max(np.abs(residual(x)))) <= 1e-12
        if not done:
            jacobians.append(1)     # levenberg_marquardt assembles one next
        return done

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        x, iterations, ok = bvp.levenberg_marquardt(fun, np.zeros(3), converged)
    assert bvp.levenberg_marquardt.__name__ == "levenberg_marquardt"
    assert ok and np.allclose(x, target)

    counts = tracer.counts
    assert counts["bvp.lm_iterations"] == iterations
    assert tracer.calls["bvp.residual"] == len(calls)
    # every Jacobian is 2 probes per coordinate; everything else is a trial
    assert counts["bvp.fd_evals"] == 2 * len(x) * len(jacobians)
    assert counts["bvp.trial_evals"] == len(calls) - counts["bvp.fd_evals"]
    assert counts["bvp.trial_evals"] >= iterations + 1
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["bvp.accept_ratio"] == iterations / counts["bvp.trial_evals"]
    assert metrics["bvp.lm_self_s"] == tracer.self_time["bvp.lm"]


def test_differs_in_one():
    x = np.array([1.0, 2.0, 3.0])
    assert tracing.differs_in_one(x + np.array([0.0, 1e-6, 0.0]), x)
    assert not tracing.differs_in_one(x, x)
    assert not tracing.differs_in_one(x + 1e-6, x)
    assert not tracing.differs_in_one(x, None)


def test_instrument_restores_the_package():
    import minnet.cli
    import minnet.holomorphic
    from minnet.mobius import Isometry

    before = (minnet.cli.power_function, minnet.holomorphic.power_function,
              Isometry.distance, minnet.holomorphic.HoloGrid.__post_init__)
    with tracing.instrument(tracing.Tracer()):
        assert minnet.cli.power_function is minnet.holomorphic.power_function
        assert minnet.cli.power_function is not before[0]
    after = (minnet.cli.power_function, minnet.holomorphic.power_function,
             Isometry.distance, minnet.holomorphic.HoloGrid.__post_init__)
    assert after == before


def test_digest_mismatch_counts_as_failed_operation(tmp_path):
    op = run.Op(["export", "a.json", "a.obj"], ("a.obj",))
    (tmp_path / "a.obj").write_text("v 0 0 0\n")
    problems, first = run.check_op(op, str(tmp_path), 0)
    assert problems == []

    (tmp_path / "a.obj").write_text("v 0 0 1e-17\n")
    problems, second = run.check_op(op, str(tmp_path), 0)
    problems += run.digest_problems(first, second)
    results = [{"problems": []}, {"problems": problems}]
    assert run.tally(results) == (False, 2, 1)


def test_checks_exit_code_report_and_identical_output(tmp_path):
    (tmp_path / "r.json").write_text(json.dumps({"ok": False}))
    (tmp_path / "x").write_text("1")
    (tmp_path / "y").write_text("2")
    op = run.Op(["generate"], ("x",), "r.json", ("x", "y"))
    problems, _ = run.check_op(op, str(tmp_path), 0)
    assert problems == ["wrong: report r.json is not ok", "wrong: x is not byte-identical to y"]
    # a typed error (exit 3) fails the operation but is not a wrong output
    problems, _ = run.check_op(op, str(tmp_path), 3)
    assert run.tally([{"problems": problems}]) == (True, 1, 1)
    problems, _ = run.check_op(op, str(tmp_path), 1)
    assert run.tally([{"problems": problems}]) == (False, 1, 1)


def test_end_to_end_metrics_are_sums_of_median_scaled_times():
    def result(argv0, seconds, rss=30.0):
        return {"argv": [argv0], "seconds": seconds, "rss_mb": rss}

    passes = [[result("generate", 2.0), result("verify", 1.0), result("export", 0.5)],
              [result("generate", 9.0), result("verify", 1.2), result("export", 0.3, 41.0)],
              [result("generate", 3.0), result("verify", 0.8), result("export", 0.4)]]
    metrics = run.median_metrics(passes)
    assert metrics["generate_s"] == 3.0
    assert metrics["verify_s"] == 1.0
    assert metrics["derive_s"] == 0.4
    assert metrics["wall_s"] == pytest.approx(4.4)
    assert metrics["peak_rss_mb"] == 41.0


def test_workloads_follow_the_seed():
    assert run.workload_ops("grid", 5) == run.workload_ops("grid", 5)
    rows = {tuple(run.workload_ops("orbit", s)[3].argv[2:4]) for s in (0, 1)}
    assert rows == {("--row", "0"), ("--col", "0")}
    for name in ("grid", "knoid", "orbit"):
        assert all(op.argv[0] in run.KIND for op in run.workload_ops(name, 0))


def test_fit_exponent():
    sizes = [400, 1600, 6400]
    assert tracing.fit_exponent(sizes, [2.0 * n ** 1.5 for n in sizes]) == pytest.approx(1.5)
    assert tracing.fit_exponent([400], [1.0]) == 0.0
    assert tracing.fit_exponent([], []) == 0.0
