"""Tests of the span recording and self-time arithmetic in tracing.py.

    python3 -m pytest perfbench
"""

import threading
import types

import pytest

import tracing


def fake_modules():
    return {name: types.ModuleType(name)
            for name in {target[0] for target in tracing.TARGETS}}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(0, "p", 0.0, 10.0, 1, -1, None),
             (1, "a", 1.0, 4.0, 1, 0, None),
             (2, "b", 3.0, 6.0, 2, 0, None),   # overlaps a, other thread
             (3, "c", 8.0, 12.0, 2, 0, None)]  # runs past its parent
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0)


def test_install_wraps_every_binding_and_nests_recursive_calls():
    modules = fake_modules()
    mg = modules["multigrid"]

    def v_cycle(depth):
        return 0 if depth == 0 else mg.v_cycle(depth - 1) + 1

    mg.v_cycle = v_cycle
    modules["sdc"].v_cycle = v_cycle  # imported by name elsewhere
    tracer = tracing.Tracer()
    missing = tracer.install(modules)
    assert "multigrid.v_cycle" not in missing
    assert "heat.HeatOperator.apply" in missing

    assert modules["sdc"].v_cycle(2) == 2
    by_id = {s[0]: s for s in tracer.spans}
    assert [s[1] for s in tracer.spans] == ["multigrid.vcycle"] * 3
    outer = [s for s in tracer.spans if s[5] == -1]
    assert len(outer) == 1
    depth, span = 0, tracer.spans[0]
    while span[5] != -1:
        span, depth = by_id[span[5]], depth + 1
    assert depth == 2
    assert tracing.layer_metrics(tracer.spans)["multigrid.vcycle.calls"] == 3


def test_a_worker_threads_outer_span_hangs_under_the_main_threads_span():
    modules = fake_modules()
    modules["heat"].HeatOperator = type("HeatOperator", (), {
        "apply": lambda self, u: u, "diagonal": lambda self: 1.0})
    op = modules["heat"].HeatOperator()

    def pfasst_run():
        worker = threading.Thread(target=op.apply, args=(1.0,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    modules["pfasst"].pfasst_run = pfasst_run
    tracer = tracing.Tracer()
    tracer.install(modules)
    modules["pfasst"].pfasst_run()
    apply, run = sorted(tracer.spans, key=lambda s: s[1])
    assert (apply[1], run[1]) == ("heat.apply", "pfasst.run")
    assert apply[5] == run[0] and apply[4] != run[4]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["heat.apply.calls"] == 1
    assert metrics["pfasst.run.s"] >= metrics["heat.apply.s"]
