"""Tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

import metrics
import run
import stats
import tracing
from tracing import Span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentile selection -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [7, 1, 10, 3, 2, 9, 4, 8, 6, 5]
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 95) == 10
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 1) == 1


def test_percentile_returns_a_measured_value():
    values = [0.5, 1.5]
    assert stats.percentile(values, 50) == 0.5
    assert stats.percentile(values, 51) == 1.5
    assert stats.percentile([3.25], 95) == 3.25


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_median_of_nothing_is_zero():
    assert stats.median([]) == 0.0
    assert stats.median([4, 1, 3]) == 3


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_child_cover():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (6.0, 7.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    # Two children running in parallel on worker threads cover [1, 5] once.
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    assert stats.self_time(0.0, 10.0, [(2.0, 3.0), (1.0, 5.0)]) == 6.0


def test_self_time_clips_children_to_the_span():
    assert stats.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0), (20.0, 30.0)]) == 8.0
    assert stats.self_time(0.0, 10.0, [(0.0, 10.0)]) == 0.0


def test_layer_self_time_from_spans():
    spans = [
        Span(1, "training.adapt", 0.0, 10.0, None, "op1", "a"),
        Span(2, "network.forward", 1.0, 4.0, 1, "op1", None),
        Span(3, "network.encode", 1.5, 3.0, 2, "op1", None),
        Span(4, "autodiff.conv", 2.0, 2.5, 3, "op1", "enc0"),
    ]
    self_s = tracing._op_summary(spans)["self"]
    assert self_s["training"] == pytest.approx(7.0)
    assert self_s["network"] == pytest.approx(3.0 - 0.5)
    assert self_s["autodiff"] == pytest.approx(0.5)


def test_steps_and_encodes_per_adapt_step_from_spans():
    spans = [Span(1, "training.adapt", 0.0, 1.0, None, "op1", "site_a")]
    sid = 2
    for end in (0.25, 0.75):
        for _ in range(3):
            spans.append(Span(sid, "network.encode", end - 0.1, end - 0.05, 1, "op1", None))
            sid += 1
        spans.append(Span(sid, "autodiff.adam.step", end - 0.01, end, 1, "op1", None))
        sid += 1
    summary = tracing._op_summary(spans)
    assert summary["steps"] == 2
    assert summary["encode_per_adapt_step"] == 3.0
    assert summary["step_ms"]["training.adapt"] == pytest.approx([250.0, 500.0])
    assert summary["node_max"] == summary["node_min"] == 1.0


# -- failure counting -----------------------------------------------------------------


def _check(facts, reference):
    problems = [] if facts["ok"] else ["check failed"]
    if facts["digest"] != reference["digest"]:
        problems.append("digest differs from the first operation's")
    return problems


def test_tally_counts_failed_checks_and_errors():
    tally = stats.Tally(_check)
    tally.record({"ok": True, "digest": "a"})
    tally.record({"ok": False, "digest": "a"})  # a failing check
    tally.record({"ok": True, "digest": "b"})   # differs from the first op
    tally.record(error="RuntimeError: boom")
    tally.record({"ok": True, "digest": "a"})
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.fail_ratio == pytest.approx(0.6)
    assert tally.problems[0] == "op 2: check failed"


def test_tally_reference_is_the_first_op_with_facts():
    tally = stats.Tally(_check)
    tally.record(error="ValueError: first op raised")
    tally.record({"ok": True, "digest": "x"})
    tally.record({"ok": True, "digest": "x"})
    assert tally.reference == {"ok": True, "digest": "x"}
    assert (tally.attempted, tally.failed) == (3, 1)


def test_fail_ratio_bounds():
    assert stats.fail_ratio(0, 4) == 0.0
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(5, 4)


class _Raising:
    def run(self, call):
        raise RuntimeError("no output")

    def facts(self, result):
        raise AssertionError("facts of a failed operation are not read")


def test_closed_loop_counts_a_raising_operation():
    tally = stats.Tally(_check)
    walls, cpus, ops = run.closed_loop(_Raising(), 0.0, tally)
    assert len(walls) == len(cpus) == 1 and ops == ["op1"]
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "RuntimeError: no output" in tally.problems[0]


# -- BENCHMARK.json ---------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == {n: (v[0], metrics.PER_LAYER_BETTER[n]) for n, v in metrics.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for entry in metrics.PER_LAYER.values():
        assert set(entry[2]) <= set(metrics.WORKLOADS)


# -- wrapping fedseg ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fedseg():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fedseg.benchmark
    import fedseg.cli
    return fedseg


def test_tracing_spans_a_federated_run_and_restores_fedseg(fedseg):
    fs = fedseg
    originals = (fs.network.conv, fs.network.SegModel.encode, fs.autodiff.Tensor.backward,
                 fs.federation.ThreadPoolExecutor, fs.data.read_raster)
    shifts = list(fs.benchmark.benchmark_shifts().values())
    domains = fs.data.generate_domains(0, 3, 4, (16, 16), shifts)
    for ds, name in zip(domains, ("site_a", "site_b", "site_t")):
        ds.domain_id = name
    plan = fs.training.TrainPlan(epochs_pretrain=1, epochs_adapt=1, batch_size=2,
                                 swd_L=4, embed_sites=8)
    config = fs.benchmark.default_net_config()

    tracer = tracing.Tracer()
    patches = tracing.install(tracer, fs)
    try:
        tracer.op = "op1"
        fs.benchmark.run_msuda(domains[:2], domains[2], plan, config, workers=2)
    finally:
        tracer.op = None
        patches.undo()

    assert (fs.network.conv, fs.network.SegModel.encode, fs.autodiff.Tensor.backward,
            fs.federation.ThreadPoolExecutor, fs.data.read_raster) == originals
    values, samples = tracing.layer_metrics(tracer, ["op1"], [])
    assert values["network.encode.calls_per_adapt_step"] == 3.0
    assert values["training.steps"] == 2 * (2 + 2)
    assert values["sliced.swd2.calls"] == 4
    assert values["autodiff.conv.dec0.bwd_ms"] > 0.0
    assert values["autodiff.serialize_params.bytes"] > 0
    assert samples["training.adapt.step_ms.p95"] == 4
    # Node training on the pool threads is parented under run_msuda.
    by_id = {s.sid: s for s in tracer.spans}
    pretrain = [s for s in tracer.spans if s.name == "training.pretrain"]
    assert {s.tag for s in pretrain} == {"site_a", "site_b"}
    assert all(by_id[s.parent].name == "federation.run_msuda" for s in pretrain)
