"""Single-machine federation: one node per source domain plus a target node.

All cross-node traffic goes through a message bus that deep-copies payloads
and appends an audit record per transfer. The bus carries two payload
kinds: unlabeled_images, which only the target node may send (to the
sources, for adaptation), and model_params, the adapted parameters each
source returns for ensembling. Labeled data is not a payload kind at all,
so the privacy constraint (no data sharing between sources, no target
labels leaving the target) holds by construction.

Per-node RNG streams derive from the node name plus the master seed, so the
result is independent of scheduling order. With workers > 1 each source
node trains in a spawned process of its own; it receives only its own
dataset and the bus copy of the target images, and returns its trained
models.

run_msuda and extend_run (and the CLI's eval) end in target_pass: the
weights, probabilities and latent fields of a result all come from one pass
of each adapted model over the target images.
"""

import contextlib
import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
# Bound here only because perfbench/tracing.py patches this name on this
# module and fails when it is missing.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .autodiff import serialize_params
from .data import DomainDataset
from .ensembling import AdaptedModelSet, EnsembleWeights, confidence_weights, stack_probs
from .network import NetConfig
from .training import TrainPlan, adapt, pretrain
from .util import derive_seed, hash_images

# Bound here only because perfbench/tracing.py wraps these names on this
# module and fails when one is missing.
from .ensembling import compute_weights  # noqa: F401
from .evaluation import model_target_dice  # noqa: F401

PAYLOAD_KINDS = ("model_params", "unlabeled_images")


@dataclass(frozen=True)
class NodeId:
    name: str
    kind: str  # "source" or "target"

    def __post_init__(self):
        if self.kind not in ("source", "target"):
            raise ValueError(f"node kind must be source or target, got {self.kind!r}")


@dataclass
class Message:
    sender: NodeId
    receiver: NodeId
    payload_kind: str
    byte_size: int


class AuditLog:
    """Append-only record of every bus transfer in a run."""

    def __init__(self, records=()):
        self._records = list(records)

    def append(self, message: Message):
        self._records.append(message)

    @property
    def records(self) -> tuple:
        return tuple(self._records)

    def __len__(self):
        return len(self._records)

    def write(self, path):
        lines = ["# from_name,from_kind,to_name,to_kind,payload_kind,byte_size"]
        for m in self._records:
            lines.append(
                f"{m.sender.name},{m.sender.kind},{m.receiver.name},"
                f"{m.receiver.kind},{m.payload_kind},{m.byte_size}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path) -> "AuditLog":
        log = cls()
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 6:
                    raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
                log.append(Message(
                    sender=NodeId(parts[0], parts[1]),
                    receiver=NodeId(parts[2], parts[3]),
                    payload_kind=parts[4],
                    byte_size=int(parts[5]),
                ))
        return log


@dataclass
class AuditReport:
    ok: bool
    violation_index: int = -1
    reason: str = ""

    def __bool__(self):
        return self.ok


def audit_check(log: AuditLog) -> AuditReport:
    """Verify the data-privacy rules over a complete log.

    Every record carries one of the two payload kinds. Image data may only
    originate at the target node, which also implies it never moves between
    two sources; model parameters may flow anywhere. Fails on the first
    violating record.
    """
    for i, m in enumerate(log.records):
        if m.payload_kind not in PAYLOAD_KINDS:
            return AuditReport(False, i, f"record {i}: unknown payload kind "
                                         f"{m.payload_kind!r}")
        if m.byte_size < 0:
            return AuditReport(False, i, f"record {i}: negative byte_size")
        if m.payload_kind == "unlabeled_images" and m.sender.kind != "target":
            return AuditReport(
                False, i,
                f"record {i}: unlabeled_images sent by {m.sender.kind} node "
                f"'{m.sender.name}' (only the target node may send image data)",
            )
    return AuditReport(True)


class MessageBus:
    """Mediates and logs every cross-node transfer, copying payloads."""

    def __init__(self):
        self.log = AuditLog()

    def send(self, sender: NodeId, receiver: NodeId, payload_kind: str, payload):
        if payload_kind not in PAYLOAD_KINDS:
            raise ValueError(f"unknown payload kind {payload_kind!r}")
        if payload_kind == "unlabeled_images":
            if sender.kind != "target":
                raise ValueError(
                    f"bus refuses image data from {sender.kind} node '{sender.name}'"
                )
            copied = [img.copy() for img in payload]
            size = sum(img.nbytes for img in copied)
        else:  # model_params
            copied = bytes(payload)
            size = len(copied)
        self.log.append(Message(sender, receiver, payload_kind, size))
        return copied


@dataclass
class FederationResult:
    adapted: AdaptedModelSet
    weights: EnsembleWeights
    audit_log: AuditLog
    pretrained: dict            # source_id -> SegModel snapshot before adaptation
    config: NetConfig
    plan: TrainPlan
    oracle_mode: bool
    target_label_reads: int
    # the one pass of the adapted models over the target images
    target_probs: np.ndarray = None  # (models, batch, classes, *spatial)
    target_latents: list = None      # per model


class TargetMismatch(ValueError):
    """The target images differ from the ones a run's weights were counted on."""


def _validate_domains(sources, target, num_classes):
    if not sources:
        raise ValueError("need at least one source domain")
    shape = target.images[0].shape
    names = set()
    label_sets = []
    for ds in sources:
        if ds.domain_id in names or ds.domain_id == target.domain_id:
            raise ValueError(f"duplicate domain id '{ds.domain_id}'")
        names.add(ds.domain_id)
        if not ds.has_masks:
            raise ValueError(f"source '{ds.domain_id}' has no labels")
        if ds.images[0].shape != shape:
            raise ValueError(
                f"domain '{ds.domain_id}' images {ds.images[0].shape} != target {shape}"
            )
        observed = set()
        for m in ds.masks:
            observed.update(int(v) for v in set(m.ravel().tolist()))
        label_sets.append(observed)
        if max(observed) >= num_classes:
            raise ValueError(
                f"domain '{ds.domain_id}' uses label {max(observed)} outside "
                f"[0, {num_classes})"
            )
    if any(s != label_sets[0] for s in label_sets[1:]):
        raise ValueError(f"class sets differ across sources: {label_sets}")


def _train_on_node(dataset, received_images, plan: TrainPlan, config: NetConfig):
    """Pretrain on the node's own data, then adapt toward the received target
    images. Runs entirely within the node, in the caller's process or in a
    worker process; pretrain and adapt are looked up on this module."""
    local_plan = dataclasses.replace(
        plan, seed=derive_seed(plan.seed, "node", dataset.domain_id))
    pre = pretrain(dataset, local_plan, config)
    target_view = DomainDataset(received_images, None, domain_id="target-view")
    return pre, adapt(pre, dataset, target_view, local_plan)


# A BLAS library sizes its thread pool from these when it loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread_per_node():
    """Node processes start with one BLAS thread each, unless the caller's
    environment sets a BLAS thread count. A BLAS that sizes its pool to all
    cores in every node process oversubscribes the machine, and a node's
    GEMMs are too small to gain from a second thread. A spawned process
    copies the environment when it starts, so the variables hold for the
    pool's lifetime and are removed after it."""
    if any(var in os.environ for var in _BLAS_THREAD_VARS):
        yield
        return
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var in _BLAS_THREAD_VARS:
            os.environ.pop(var, None)


def _federate(bus: MessageBus, target: DomainDataset, sources, plan: TrainPlan,
              config: NetConfig, workers: int) -> list:
    """One round trip per source node: the target images go out over the bus,
    the node pretrains and adapts locally, and its adapted parameters come
    back. Every image send precedes training; parameter sends follow in
    source order. With more than one worker, min(workers, len(sources))
    spawned processes train the nodes and all of them have exited on return,
    also when a node fails. Returns (pretrained, adapted) per source."""
    target_id = NodeId(target.domain_id, "target")
    node_ids = [NodeId(ds.domain_id, "source") for ds in sources]
    received = [bus.send(target_id, node_id, "unlabeled_images", target.images)
                for node_id in node_ids]

    processes = min(workers, len(sources))
    if processes > 1:
        with _one_blas_thread_per_node(), ProcessPoolExecutor(
                processes, mp_context=multiprocessing.get_context("spawn")) as pool:
            trained = list(pool.map(_train_on_node, sources, received,
                                    [plan] * len(sources), [config] * len(sources)))
    else:
        trained = [_train_on_node(ds, images, plan, config)
                   for ds, images in zip(sources, received)]

    for node_id, (_, adapted) in zip(node_ids, trained):
        bus.send(node_id, target_id, "model_params",
                 serialize_params(adapted.model.state_dict()))
    return trained


def target_pass(result: FederationResult, target: DomainDataset) -> FederationResult:
    """The result with its models' one pass over the target images: the
    probability stack, each model's latent field, and the weights at
    plan.lambda_conf, hashed to those images."""
    latents = []
    probs = stack_probs(result.adapted.models, target.images, latents)
    return dataclasses.replace(
        result, target_probs=probs, target_latents=latents,
        weights=confidence_weights(probs, result.plan.lambda_conf,
                                   hash_images(target.images)))


def run_msuda(sources, target, plan: TrainPlan, config: NetConfig,
              oracle_mode: bool = False, workers: int = 1) -> FederationResult:
    """Per-source pretrain + adapt, then confidence-weighted ensembling.

    Target images are broadcast to every source node over the bus; adapted
    model parameters flow back to the target node, where target_pass runs
    each model once on the target images for the weights and the evaluation.
    oracle_mode is recorded for the evaluation; training never reads target
    labels. workers > 1 trains the source nodes in separate processes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    _validate_domains(sources, target, config.num_classes)
    reads_before = target.label_reads
    bus = MessageBus()
    trained = _federate(bus, target, sources, plan, config, workers)
    return target_pass(FederationResult(
        adapted=AdaptedModelSet([adapted for _, adapted in trained]), weights=None,
        audit_log=bus.log, config=config, plan=plan, oracle_mode=oracle_mode,
        pretrained={ds.domain_id: pre for ds, (pre, _) in zip(sources, trained)},
        target_label_reads=target.label_reads - reads_before), target)


def extend_run(result: FederationResult, new_source: DomainDataset,
               target: DomainDataset) -> FederationResult:
    """Fold a newly arrived source domain into an existing run.

    Trains only the new source; existing adapted models are reused
    untouched, and target_pass counts every model anew, so the prior raw
    counts come out as the run had them. A target whose images differ from
    the ones the run's weights were counted on raises TargetMismatch before
    anything is trained or sent. The result's audit log is a copy of the
    run's, extended; the run's own is left as it was, also on failure.
    """
    if new_source.domain_id in result.adapted.source_ids():
        raise ValueError(f"source '{new_source.domain_id}' already in the run")
    _validate_domains([new_source], target, result.config.num_classes)
    if hash_images(target.images) != result.weights.target_hash:
        raise TargetMismatch(f"target domain '{target.domain_id}': images differ from "
                             f"the ones the run's weights were counted on")
    reads_before = target.label_reads

    bus = MessageBus()
    bus.log = AuditLog(result.audit_log.records)  # the run's trail, extended
    [(pre, adapted)] = _federate(bus, target, [new_source], result.plan,
                                 result.config, workers=1)
    return target_pass(dataclasses.replace(
        result, adapted=AdaptedModelSet(list(result.adapted.models) + [adapted]),
        audit_log=bus.log, pretrained={**result.pretrained, new_source.domain_id: pre},
        target_label_reads=result.target_label_reads + (target.label_reads - reads_before)),
        target)
