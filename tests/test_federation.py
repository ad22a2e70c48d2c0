"""Federated orchestration: bus rules, audit checking, locality, parallel
equivalence, and incremental source addition."""

import multiprocessing
import os
import pickle
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fedseg import federation
from fedseg.autodiff import serialize_params
from fedseg.benchmark import default_net_config, make_benchmark_domains
from fedseg.data import DomainDataset, DomainShift, generate_domains
from fedseg.federation import (_BLAS_THREAD_VARS, AuditLog, Message, MessageBus, NodeId,
                               TargetMismatch, _map_jobs, _train_on_node, audit_check,
                               extend_run, run_msuda)
from fedseg.ensembling import AdaptedModelSet
from fedseg.network import NetConfig, SegModel
from fedseg.training import AdaptedModel, TrainPlan
from helpers import count_calls

CFG = NetConfig(depth=2, base_width=4, latent_dim=8)

SRC = NodeId("s1", "source")
SRC2 = NodeId("s2", "source")
TGT = NodeId("t", "target")


def quick_setup(n_sources=2, seed=0, n_images=6):
    shifts = [DomainShift(1.0 + 0.2 * i, 0.05 * i, 0.02, 0.0, seed=i)
              for i in range(n_sources)]
    shifts.append(DomainShift(0.4, 0.45, 0.02, 0.0, seed=99))
    domains = generate_domains(seed, n_sources + 1, n_images, (16, 16), shifts)
    return domains[:-1], domains[-1]


def quick_plan(**kw):
    defaults = dict(epochs_pretrain=6, epochs_adapt=4, batch_size=3, gamma=1.0,
                    swd_L=8, lambda_conf=0.5, seed=5, embed_sites=16,
                    learning_rate=2e-3)
    defaults.update(kw)
    return TrainPlan(**defaults)


def test_node_id_validation():
    with pytest.raises(ValueError, match="kind"):
        NodeId("x", "router")


def test_bus_rejects_source_to_source_image_data():
    bus = MessageBus()
    with pytest.raises(ValueError, match="refuses image data"):
        bus.send(SRC, SRC2, "unlabeled_images", [np.zeros((1, 4, 4))])


def test_bus_copies_image_payloads():
    bus = MessageBus()
    original = [np.ones((1, 4, 4))]
    copied = bus.send(TGT, SRC, "unlabeled_images", original)
    assert copied[0] is not original[0]
    copied[0][:] = 7.0
    np.testing.assert_array_equal(original[0], 1.0)
    assert bus.log.records[0].byte_size == original[0].nbytes


def test_audit_check_passes_model_params_between_sources():
    log = AuditLog()
    log.append(Message(SRC, SRC2, "model_params", 100))
    assert audit_check(log).ok


def test_audit_check_fails_source_to_source_images():
    log = AuditLog()
    log.append(Message(TGT, SRC, "unlabeled_images", 10))
    log.append(Message(SRC, SRC2, "unlabeled_images", 10))
    report = audit_check(log)
    assert not report.ok
    assert report.violation_index == 1
    assert "s1" in report.reason


@pytest.mark.parametrize("kind", ["weights", "prediction", "metrics"])
def test_only_images_and_params_cross_the_bus(kind):
    with pytest.raises(ValueError, match="unknown payload kind"):
        MessageBus().send(SRC, TGT, kind, b"")
    log = AuditLog()
    log.append(Message(SRC, TGT, kind, 8))
    assert not audit_check(log).ok


def test_audit_check_rejects_unknown_payload_kind():
    log = AuditLog()
    log.append(Message(SRC, TGT, "labeled_data", 10))
    report = audit_check(log)
    assert not report.ok and "labeled_data" in report.reason


def test_audit_log_round_trip(tmp_path):
    log = AuditLog()
    log.append(Message(TGT, SRC, "unlabeled_images", 1024))
    log.append(Message(SRC, TGT, "model_params", 2048))
    path = tmp_path / "audit.log"
    log.write(path)
    back = AuditLog.read(path)
    assert back.records == log.records


def test_run_msuda_single_source_degenerates_to_uda():
    sources, target = quick_setup(n_sources=1)
    result = run_msuda(sources, target, quick_plan(), CFG)
    assert result.weights.weights == [1.0]
    assert len(result.adapted.models) == 1


def test_run_msuda_audit_log_clean():
    sources, target = quick_setup(n_sources=2)
    result = run_msuda(sources, target, quick_plan(), CFG)
    assert audit_check(result.audit_log).ok
    for m in result.audit_log.records:
        assert not (m.sender.kind == "source" and m.receiver.kind == "source")
    kinds = [m.payload_kind for m in result.audit_log.records]
    assert kinds.count("unlabeled_images") == 2
    assert kinds.count("model_params") == 2


def test_run_msuda_non_oracle_never_reads_target_labels():
    sources, target = quick_setup(n_sources=2)
    run_msuda(sources, target, quick_plan(), CFG)
    assert target.label_reads == 0


def test_run_msuda_parallel_equals_sequential():
    sources, target = quick_setup(n_sources=2)
    seq = run_msuda(sources, target, quick_plan(), CFG, workers=1)
    par = run_msuda(sources, target, quick_plan(), CFG, workers=2)
    for a, b in zip(seq.adapted.models, par.adapted.models):
        assert serialize_params(a.model.state_dict()) == serialize_params(b.model.state_dict())
    assert seq.weights.weights == par.weights.weights


def test_run_msuda_more_workers_than_sources_equals_sequential():
    sources, target = quick_setup(n_sources=2)
    seq = run_msuda(sources, target, quick_plan(), CFG, workers=1)
    par = run_msuda(sources, target, quick_plan(), CFG, workers=3)
    for a, b in zip(seq.adapted.models, par.adapted.models):
        assert serialize_params(a.model.state_dict()) == serialize_params(b.model.state_dict())
    assert seq.weights.weights == par.weights.weights
    assert multiprocessing.active_children() == []


def test_diverging_node_fails_alike_in_a_worker_process():
    """A node process raises the in-process error, naming the domain, epoch
    and step, and no worker process outlives run_msuda."""
    sources, target = quick_setup(n_sources=2)
    plan = quick_plan(epochs_pretrain=1, epochs_adapt=1, learning_rate=1e200)
    errors = []
    for workers in (1, 2):
        with pytest.raises(FloatingPointError) as info:
            run_msuda(sources, target, plan, CFG, workers=workers)
        errors.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] == (
        f"pretrain of domain '{sources[0].domain_id}': non-finite loss nan "
        "at epoch 0, step 1")


def test_a_model_with_non_finite_target_probabilities_is_refused_naming_its_source():
    """At this learning rate one pretrain step leaves finite parameters whose
    forward pass on the target overflows; no weight is counted on it, and the
    error naming the source is all the run reports: numpy warns of nothing."""
    sources, target = make_benchmark_domains(0, images=4)
    plan = TrainPlan(epochs_pretrain=1, epochs_adapt=0, batch_size=4,
                     learning_rate=1e308)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(
            FloatingPointError, match=r"^source 'site_a': non-finite target probabilities$"):
        warnings.simplefilter("always")
        run_msuda(sources, target, plan, default_net_config())
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("phase, kind", [("adapt", "adapted"), ("pretrain", "pretrained")])
def test_a_node_model_with_a_non_finite_parameter_is_refused_naming_it(monkeypatch, phase,
                                                                      kind):
    """A -inf bias of an encoder channel leaves the target probabilities
    finite, as the channel's ReLU is dead, so only the node's own check
    names it: the source, the model and the parameter."""
    original = getattr(federation, phase)

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        (out.model if phase == "adapt" else out).params["enc0.b"].data[0] = -np.inf
        return out

    monkeypatch.setattr(federation, phase, poisoned)
    sources, target = make_benchmark_domains(0, images=4)
    plan = TrainPlan(epochs_pretrain=1, epochs_adapt=1, batch_size=4)
    with pytest.raises(FloatingPointError, match=(
            rf"^source 'site_a': {kind} model: non-finite values in parameter 'enc0.b'$")):
        run_msuda(sources, target, plan, default_net_config(), workers=1)


def test_node_processes_get_one_blas_thread_unless_the_caller_sets_a_count(monkeypatch):
    """Each job reads the variables in a spawned process of the runner; the
    caller's environment is as it was on return."""
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert _map_jobs(os.getenv, 2, _BLAS_THREAD_VARS) == ["1", "1", "1"]
    assert not any(var in os.environ for var in _BLAS_THREAD_VARS)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert _map_jobs(os.getenv, 2, _BLAS_THREAD_VARS) == [None, "4", None]
    assert os.environ["OMP_NUM_THREADS"] == "4"


def _fail_first(index, directory):
    """A job of the failure test: it leaves a file named after its index when
    it starts; job 0 then raises, the others sleep."""
    open(os.path.join(directory, str(index)), "w").close()
    if index == 0:
        raise ValueError("job 0 failed")
    time.sleep(0.2)
    return index


def test_a_failing_job_cancels_the_jobs_not_yet_started(tmp_path):
    """The job's own exception propagates, no job after the ones already
    running starts, and no process of the runner outlives it."""
    jobs = 10
    with pytest.raises(ValueError, match="^job 0 failed$"):
        _map_jobs(_fail_first, 2, range(jobs), [str(tmp_path)] * jobs)
    started = {int(name) for name in os.listdir(tmp_path)}
    assert 0 in started and started <= {0, 1}, sorted(started)
    assert multiprocessing.active_children() == []


def test_a_node_returns_its_models_without_gradients():
    """A node's record leaves its process pickled: the parameters of its two
    models and the adaptation records, not the last step's gradients, which
    used to double its size."""
    sources, target = quick_setup(n_sources=1)
    result = _train_on_node(sources[0], target.images,
                            quick_plan(epochs_pretrain=1, epochs_adapt=1),
                            default_net_config())
    params = [p for m in (result.pretrained, result.model) for p in m.parameters().values()]
    assert all(p.grad is None for p in params)
    assert len(pickle.dumps(result)) < 1.05 * sum(p.data.nbytes for p in params)


@pytest.mark.parametrize("workers", [0, -1])
def test_run_msuda_rejects_fewer_than_one_worker(workers):
    sources, target = quick_setup(n_sources=1)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_msuda(sources, target, quick_plan(), CFG, workers=workers)


def test_run_msuda_deterministic_across_calls():
    sources, target = quick_setup(n_sources=2)
    a = run_msuda(sources, target, quick_plan(), CFG)
    b = run_msuda(sources, target, quick_plan(), CFG)
    for ma, mb in zip(a.adapted.models, b.adapted.models):
        assert serialize_params(ma.model.state_dict()) == serialize_params(mb.model.state_dict())


def test_run_msuda_validation():
    sources, target = quick_setup(n_sources=1)
    with pytest.raises(ValueError, match="at least one source"):
        run_msuda([], target, quick_plan(), CFG)
    with pytest.raises(ValueError, match="no labels"):
        run_msuda([sources[0].unlabeled_copy()], target, quick_plan(), CFG)
    small = generate_domains(3, 1, 2, (32, 32), [DomainShift()])[0]
    with pytest.raises(ValueError, match="!= target"):
        run_msuda([small], target, quick_plan(), CFG)


def test_extend_run_trains_only_new_source():
    """The prior models come out byte-identical, and the run passed in keeps
    its list of records; every record holds the pretrained model its
    adaptation started from."""
    sources, target = quick_setup(n_sources=3)
    plan = quick_plan()
    first = run_msuda(sources[:2], target, plan, CFG)
    records = list(first.adapted.models)
    before = [serialize_params(m.model.state_dict()) for m in first.adapted.models]
    extended = extend_run(first, sources[2], target)
    after = [serialize_params(m.model.state_dict()) for m in extended.adapted.models[:2]]
    assert before == after  # prior models byte-identical
    assert len(extended.adapted.models) == 3
    assert len(first.adapted.models) == 2
    assert all(a is b for a, b in zip(first.adapted.models, records))
    for am in extended.adapted.models:
        assert serialize_params(am.pretrained.state_dict()) != \
            serialize_params(am.model.state_dict())
    assert extended.weights.raw_counts[:2] == first.weights.raw_counts
    assert audit_check(extended.audit_log).ok
    # extension reuses the same audit trail: 2+1 image broadcasts, 2+1 params
    kinds = [m.payload_kind for m in extended.audit_log.records]
    assert kinds.count("unlabeled_images") == 3
    assert kinds.count("model_params") == 3


def test_extend_run_returns_a_new_audit_log():
    sources, target = quick_setup(n_sources=3)
    result = run_msuda(sources[:2], target, quick_plan(epochs_pretrain=1, epochs_adapt=1),
                       CFG)
    records = result.audit_log.records
    extended = extend_run(result, sources[2], target)
    assert extended.audit_log is not result.audit_log
    assert result.audit_log.records == records
    t, c = target.domain_id, sources[2].domain_id
    assert extended.audit_log.records[:len(records)] == records
    assert [(m.sender.name, m.receiver.name, m.payload_kind)
            for m in extended.audit_log.records[len(records):]] == [
        (t, c, "unlabeled_images"), (c, t, "model_params")]


def test_a_failed_extension_leaves_the_run_audit_log_as_it_was():
    sources, target = quick_setup(n_sources=3)
    result = run_msuda(sources[:2], target, quick_plan(epochs_pretrain=1, epochs_adapt=1),
                       CFG)
    length = len(result.audit_log)
    images = sources[2].images.copy()
    images[1, 0, 4, 4] = np.nan
    broken = DomainDataset(images, sources[2].masks, sources[2].domain_id)
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        extend_run(result, broken, target)
    assert len(result.audit_log) == length


def test_extend_run_rejects_duplicate_source():
    sources, target = quick_setup(n_sources=2)
    result = run_msuda(sources, target, quick_plan(), CFG)
    with pytest.raises(ValueError, match="already"):
        extend_run(result, sources[0], target)


def test_extend_run_on_a_changed_target_refuses_before_training(monkeypatch):
    sources, target = quick_setup(n_sources=3)
    result = run_msuda(sources[:2], target, quick_plan(epochs_pretrain=1, epochs_adapt=1),
                       CFG)
    records = result.audit_log.records
    pretrains = count_calls(monkeypatch, federation, "pretrain")
    changed = DomainDataset(target.images * 1.5, None, target.domain_id)
    with pytest.raises(TargetMismatch, match=f"target domain '{target.domain_id}'"):
        extend_run(result, sources[2], changed)
    assert pretrains == []
    assert result.audit_log.records == records


def test_extend_run_matches_monolithic_weights():
    """Adding a source incrementally equals computing its count directly."""
    sources, target = quick_setup(n_sources=3)
    plan = quick_plan()
    incremental = extend_run(run_msuda(sources[:2], target, plan, CFG),
                             sources[2], target)
    monolithic = run_msuda(sources, target, plan, CFG)
    assert incremental.weights.raw_counts == monolithic.weights.raw_counts


def test_round_trip_audit_order():
    """Images go to every source before training; parameters come back in
    source order; an extension appends one more round trip."""
    sources, target = quick_setup(n_sources=3)
    plan = quick_plan(epochs_pretrain=1, epochs_adapt=1)
    result = extend_run(run_msuda(sources[:2], target, plan, CFG, workers=2),
                        sources[2], target)
    t, (a, b, c) = target.domain_id, (ds.domain_id for ds in sources)
    assert [(m.sender.name, m.receiver.name, m.payload_kind)
            for m in result.audit_log.records] == [
        (t, a, "unlabeled_images"), (t, b, "unlabeled_images"),
        (a, t, "model_params"), (b, t, "model_params"),
        (t, c, "unlabeled_images"), (c, t, "model_params")]


def test_target_pass_memory_does_not_grow_with_the_stack_beyond_its_result():
    """Beyond its result (the probability stack and the latent fields) and
    the one model's probabilities that wait to be copied into their slot,
    target_pass holds one slice's pass: no second copy of the probability
    stack and no stack of the target images."""
    models = [AdaptedModel(SegModel(CFG, seed=s), f"s{s}") for s in range(3)]
    run = federation.FederationResult(
        adapted=AdaptedModelSet(models), weights=None, audit_log=AuditLog(),
        config=CFG, plan=TrainPlan())

    def beyond_result(n):
        target = DomainDataset(np.random.default_rng(n).normal(size=(n, 1, 16, 16)),
                               domain_id="t")
        tracemalloc.start()
        try:
            out = federation.target_pass(run, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = out.target_probs.nbytes + sum(z.nbytes for z in out.target_latents)
        return peak - result - out.target_probs[0].nbytes

    assert beyond_result(128) < 1.5 * beyond_result(32)
