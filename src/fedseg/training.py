"""Per-source training: ERM pretraining and alignment-regularized adaptation.

Adaptation minimizes, per step, the supervised cross-entropy on a source
batch plus gamma times the sliced Wasserstein distance between source and
target latent embeddings. The source batch is encoded once: its logits are
classify(z_src) and its embedding samples sites of that same z_src, so a
step runs the encoder twice, once per domain. Target labels are never read;
the caller can verify via the dataset's label_reads counter, and the
returned record keeps a snapshot of it.

Both loops stop at the first step whose loss is not finite, and adapt also
at the first target batch whose embedding is not finite (before its sites
are sampled), raising FloatingPointError that names the phase, the source
domain, the epoch and the step. A finite loss whose backward pass leaves a
non-finite parameter gradient stops them too, before the update, and the
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
    epochs_adapt: int = 30
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
    """A source-adapted model plus its adaptation trace."""

    model: SegModel
    source_id: str
    history: list = field(default_factory=list)           # EpochRecord per epoch
    step_records: list = field(default_factory=list)      # (step, ce, swd, total)
    target_label_reads: int = 0

    def predict_probs(self, images, latents=None):
        return self.model.predict_probs(images, latents)


def _check_finite(loss, phase, domain_id, epoch, step):
    if not np.isfinite(loss.item()):
        _fail(f"loss {loss.item()}", phase, domain_id, epoch, step)


def _check_gradients(params, phase, domain_id, epoch, step):
    for name, p in params.items():
        if not np.isfinite(p.grad).all():
            _fail(f"gradient of '{name}'", phase, domain_id, epoch, step)


def _fail(what, phase, domain_id, epoch, step):
    raise FloatingPointError(
        f"{phase} of domain '{domain_id}': non-finite {what} at epoch {epoch}, step {step}")


def _quiet_overflow():
    """numpy's overflow and invalid-value warnings off for one step's forward
    and backward: a diverging step overflows inside the ops before its loss
    or a gradient is checked, and the checks then stop the run naming the
    step. numpy's error state is per thread, so other threads keep theirs."""
    return np.errstate(over="ignore", invalid="ignore")


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def pretrain(source: DomainDataset, plan: TrainPlan, config: NetConfig) -> SegModel:
    """Train a fresh model on the labeled source by empirical risk minimization."""
    if not source.has_masks:
        raise ValueError(f"pretrain requires labels, domain '{source.domain_id}' has none")
    model = SegModel(config, seed=derive_seed(plan.seed, "init"))
    if plan.epochs_pretrain == 0:
        return model
    images = source.image_stack()
    masks = source.mask_stack()
    opt = Adam(model.parameters(), learning_rate=plan.learning_rate)
    rng = np.random.default_rng(derive_seed(plan.seed, "pretrain"))
    step = 0
    for epoch in range(plan.epochs_pretrain):
        for idx in _batches(len(source), plan.batch_size, rng):
            with _quiet_overflow():
                loss = ce_loss(model.forward(Tensor(images[idx])), masks[idx])
                _check_finite(loss, "pretrain", source.domain_id, epoch, step)
                opt.zero_grad()
                loss.backward()
                _check_gradients(opt.params, "pretrain", source.domain_id, epoch, step)
            opt.step()
            step += 1
    opt.zero_grad()  # the returned model carries no gradient arrays
    return model


def adapt(model: SegModel, source: DomainDataset, target_unlabeled: DomainDataset,
          plan: TrainPlan) -> AdaptedModel:
    """Tune a pretrained model toward the target domain.

    Per step the objective is ce(source batch) + gamma * swd2 between the
    source and target embedding batches, with fresh projections each step.
    The input model is left untouched; a warm-started copy is trained.
    """
    if not source.has_masks:
        raise ValueError(f"adapt requires source labels, '{source.domain_id}' has none")
    src_shape = source.images[0].shape
    tgt_shape = target_unlabeled.images[0].shape
    if src_shape != tgt_shape:
        raise ValueError(
            f"source images {src_shape} and target images {tgt_shape} disagree"
        )

    label_reads_before = target_unlabeled.label_reads
    adapted = model.clone()
    src_images = source.image_stack()
    src_masks = source.mask_stack()
    tgt_images = target_unlabeled.image_stack()
    opt = Adam(adapted.parameters(), learning_rate=plan.learning_rate)
    rng = np.random.default_rng(derive_seed(plan.seed, "adapt", source.domain_id))
    d_latent = adapted.config.latent_dim

    history, step_records = [], []
    step = 0
    for epoch in range(plan.epochs_adapt):
        ce_vals, swd_vals = [], []
        for idx in _batches(len(source), plan.batch_size, rng):
            tgt_idx = rng.choice(len(target_unlabeled), size=len(idx),
                                 replace=len(target_unlabeled) < len(idx))
            proj = sample_projections(
                plan.swd_L, d_latent, seed=derive_seed(plan.seed, "proj", step)
            )
            with _quiet_overflow():
                z_src = adapted.encode(Tensor(src_images[idx]))
                sup = ce_loss(adapted.classify(z_src), src_masks[idx])
                # checked here too: a NaN in z_src fails sample_sites unnamed
                _check_finite(sup, "adapt", source.domain_id, epoch, step)
                src_emb = sample_sites(z_src, plan.embed_sites,
                                       seed=derive_seed(plan.seed, "sites-src", step),
                                       domain_tag=source.domain_id)
                z_tgt = adapted.encode(Tensor(tgt_images[tgt_idx]))
                if not np.isfinite(z_tgt.data).all():
                    _fail("target embedding", "adapt", source.domain_id, epoch, step)
                tgt_emb = sample_sites(z_tgt, plan.embed_sites,
                                       seed=derive_seed(plan.seed, "sites-tgt", step),
                                       domain_tag=target_unlabeled.domain_id)
                alignment = swd2(src_emb, tgt_emb, proj)
                total = add(sup, mul(alignment, plan.gamma))
                _check_finite(total, "adapt", source.domain_id, epoch, step)
                opt.zero_grad()
                total.backward()
                _check_gradients(opt.params, "adapt", source.domain_id, epoch, step)
            opt.step()
            ce_vals.append(sup.item())
            swd_vals.append(alignment.item())
            step_records.append((step, sup.item(), alignment.item(), total.item()))
            step += 1
        history.append(EpochRecord(float(np.mean(ce_vals)), float(np.mean(swd_vals))))

    opt.zero_grad()
    return AdaptedModel(
        model=adapted,
        source_id=source.domain_id,
        history=history,
        step_records=step_records,
        target_label_reads=target_unlabeled.label_reads - label_reads_before,
    )


def write_step_log(adapted: AdaptedModel, path):
    """Per-step adaptation trace as CSV: step, ce, swd, total."""
    lines = ["step,ce,swd,total"]
    for step, ce, swd_val, total in adapted.step_records:
        lines.append(f"{step},{ce!r},{swd_val!r},{total!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
