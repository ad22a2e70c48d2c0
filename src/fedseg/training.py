"""Per-source training: ERM pretraining and alignment-regularized adaptation.

Adaptation minimizes, per step, the supervised cross-entropy on a source
batch plus gamma times the sliced Wasserstein distance between source and
target latent embeddings. The source batch is encoded once: its logits are
classify(z_src) and its embedding samples sites of that same z_src, so a
step runs the encoder twice, once per domain. Target labels are never read;
the caller can verify via the dataset's label_reads counter, and the
returned record keeps a snapshot of it.

pretrain and adapt run one loop, _train, and differ only in the loss of a
step. It stops at the first step whose loss is not finite, and adapt also
at the first target batch whose embedding is not finite (before its sites
are sampled), raising FloatingPointError that names the phase, the source
domain, the epoch and the step. A finite loss whose backward pass leaves a
non-finite parameter gradient stops it too, before the update, and the
error names the parameter as well. Each step's forward and backward passes
run with numpy's overflow and invalid-value warnings off, so that error is
all a diverging run prints. The Adam update runs outside them, so an
overflow there, which no check would catch, still warns.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, Tensor, add, mul
from .data import DomainDataset
from .network import NetConfig, SegModel, ce_loss, sample_sites
# Bound here only because perfbench/tracing.py wraps this name on this
# module and fails when it is missing.
from .network import embed  # noqa: F401
from .sliced import sample_projections, swd2
from .util import derive_seed


@dataclass
class TrainPlan:
    """Hyperparameters for one pretrain + adapt cycle."""

    epochs_pretrain: int = 30
    epochs_adapt: int = 40
    batch_size: int = 4
    gamma: float = 1.0
    swd_L: int = 50
    lambda_conf: float = 0.3
    seed: int = 0
    embed_sites: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        # each message starts with the field it rejects; the CLI maps it to a flag
        for name, holds, rule in (
            ("epochs_pretrain", self.epochs_pretrain >= 0, ">= 0"),
            ("epochs_adapt", self.epochs_adapt >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("swd_L", self.swd_L >= 1, ">= 1"),
            ("embed_sites", self.embed_sites >= 1, ">= 1"),
            ("gamma", math.isfinite(self.gamma) and self.gamma >= 0, "finite and >= 0"),
            ("lambda_conf", 0.0 < self.lambda_conf < 1.0, "in (0,1)"),
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0,
             "finite and > 0"),
        ):
            if not holds:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class EpochRecord:
    supervised_loss: float
    swd: float


@dataclass
class AdaptedModel:
    """One source's record: its adapted and pretrained models and its trace."""

    model: SegModel
    source_id: str
    pretrained: SegModel = None
    history: list = field(default_factory=list)           # EpochRecord per epoch
    step_records: list = field(default_factory=list)      # (step, ce, swd, total)
    target_label_reads: int = 0


def _train(model, plan, phase, domain_id, epochs, n, rng, step_loss):
    """Adam on model's parameters over `epochs` passes of rng's permutations
    of n examples in plan.batch_size slices. Per batch, step_loss(idx, step,
    check) returns (loss, record); check(value, what, *args) raises
    FloatingPointError naming phase, domain, epoch, step and `what % args`
    where value is not finite. The loss and every parameter gradient are
    checked before the update. Returns each epoch's list of records."""
    opt = Adam(model.parameters(), learning_rate=plan.learning_rate)
    step = 0

    def check(value, what, *args):
        if not np.isfinite(value).all():  # the message is built only here
            raise FloatingPointError(f"{phase} of domain '{domain_id}': non-finite "
                                     f"{what % args} at epoch {epoch}, step {step}")

    records = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        records.append([])
        for start in range(0, n, plan.batch_size):
            # a diverging step overflows in the ops before the checks name it
            with np.errstate(over="ignore", invalid="ignore"):
                loss, record = step_loss(order[start:start + plan.batch_size], step, check)
                check(loss.data, "loss %s", loss.item())
                opt.zero_grad()
                loss.backward()
                for name, p in opt.params.items():
                    check(p.grad, "gradient of '%s'", name)
            opt.step()
            records[-1].append(record)
            step += 1
    opt.zero_grad()  # the trained model carries no gradient arrays
    return records


def pretrain(source: DomainDataset, plan: TrainPlan, config: NetConfig) -> SegModel:
    """Train a fresh model on the labeled source by empirical risk minimization."""
    if not source.has_masks:
        raise ValueError(f"pretrain requires labels, domain '{source.domain_id}' has none")
    model = SegModel(config, seed=derive_seed(plan.seed, "init"))
    images, masks = source.images, source.masks
    _train(model, plan, "pretrain", source.domain_id, plan.epochs_pretrain, len(source),
           np.random.default_rng(derive_seed(plan.seed, "pretrain")),
           lambda idx, step, check: (ce_loss(model.forward(Tensor(images[idx])),
                                             masks[idx]), None))
    return model


def adapt(model: SegModel, source: DomainDataset, target_unlabeled: DomainDataset,
          plan: TrainPlan) -> AdaptedModel:
    """Tune a pretrained model toward the target domain.

    Per step the objective is ce(source batch) + gamma * swd2 between the
    source and target embedding batches, with fresh projections each step.
    The input model is left untouched, kept as the record's pretrained; a copy is trained.
    """
    if not source.has_masks:
        raise ValueError(f"adapt requires source labels, '{source.domain_id}' has none")
    if source.images.shape[1:] != target_unlabeled.images.shape[1:]:
        raise ValueError(f"source images {source.images.shape[1:]} and target images "
                         f"{target_unlabeled.images.shape[1:]} disagree")

    label_reads_before = target_unlabeled.label_reads
    adapted = model.clone()
    src_masks = source.masks
    rng = np.random.default_rng(derive_seed(plan.seed, "adapt", source.domain_id))
    d_latent = adapted.config.latent_dim

    def step_loss(idx, step, check):
        tgt_idx = rng.choice(len(target_unlabeled), size=len(idx),
                             replace=len(target_unlabeled) < len(idx))
        proj = sample_projections(
            plan.swd_L, d_latent, seed=derive_seed(plan.seed, "proj", step)
        )
        z_src = adapted.encode(Tensor(source.images[idx]))
        sup = ce_loss(adapted.classify(z_src), src_masks[idx])
        # checked here too: a NaN in z_src fails sample_sites unnamed
        check(sup.data, "loss %s", sup.item())
        src_emb = sample_sites(z_src, plan.embed_sites,
                               seed=derive_seed(plan.seed, "sites-src", step),
                               domain_tag=source.domain_id)
        z_tgt = adapted.encode(Tensor(target_unlabeled.images[tgt_idx]))
        check(z_tgt.data, "target embedding")
        tgt_emb = sample_sites(z_tgt, plan.embed_sites,
                               seed=derive_seed(plan.seed, "sites-tgt", step),
                               domain_tag=target_unlabeled.domain_id)
        alignment = swd2(src_emb, tgt_emb, proj)
        total = add(sup, mul(alignment, plan.gamma))
        return total, (step, sup.item(), alignment.item(), total.item())

    epochs = _train(adapted, plan, "adapt", source.domain_id, plan.epochs_adapt,
                    len(source), rng, step_loss)
    return AdaptedModel(
        model=adapted,
        source_id=source.domain_id,
        pretrained=model,
        history=[EpochRecord(float(np.mean([ce for _, ce, _, _ in records])),
                             float(np.mean([swd for _, _, swd, _ in records])))
                 for records in epochs],
        step_records=[record for records in epochs for record in records],
        target_label_reads=target_unlabeled.label_reads - label_reads_before,
    )


def write_step_log(adapted: AdaptedModel, path):
    """Per-step adaptation trace as CSV: step, ce, swd, total."""
    lines = ["step,ce,swd,total"]
    for step, ce, swd_val, total in adapted.step_records:
        lines.append(f"{step},{ce!r},{swd_val!r},{total!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
