"""Dice scoring, generalization-bound diagnostics, and run reports.

The bound table reports, per source model: its empirical cross-entropy on
its own source, the sliced Wasserstein estimate between its target and
source embedding clouds, and the sample-complexity value
sqrt(2 log(1/xi) / zeta) * (sqrt(1/N_k) + sqrt(1/M)) with N_k and M the
per-domain image counts. The joint-error term requires target labels and a
jointly trained model, so outside oracle mode it is reported as not
computable.

Cross-entropy is the error functional throughout, matching the convexity
argument that makes the aggregated error at most the weighted mean of the
per-model errors.

evaluate_run is the one evaluation path: the CLI's run, eval and
add-source reports and the benchmark's acceptance quantities all come
from it. It takes a federation.FederationResult and runs no adapted model:
it reads the result's one pass of each model over the target images (kept
by federation.target_pass), its probabilities and its latent fields. Its
masks are uint8; the vote, Dice and suda share one label map per model.
Its settings follow from its inputs: oracle mode from target.has_masks, the
bound from sources given. It keeps the fmuda mixture only for the oracle
bound, which reads it. The pre-adaptation Dice runs am.pretrained where a
record holds one, and is None (not computable) where it does not.

The passes over a labeled dataset stream its image stack: mean_ce puts each
slice's CE terms into one buffer and sums it once, bit for bit the sum
ce_loss takes over the whole stack, and hands back the latent field of the
same pass, so bound_terms reads a source's CE and its codes from one pass.
"""

import dataclasses
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import DomainDataset
from .ensembling import EnsembleWeights, _labels, _majority, aggregate, average_vote
from .network import _filled, ce_terms, sample_sites
from .sliced import sample_projections, swd2
from .training import pretrain
from .util import derive_seed
# Bound here only because perfbench/tracing.py wraps these names on this
# module and fails when one is missing.
from .network import ce_loss, embed  # noqa: F401


def dice(pred, truth) -> float:
    """Overlap score 2|X∩Y| / (|X|+|Y|) of foreground class 1.

    Both masks empty counts as perfect agreement (1.0).
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {truth.shape}")
    a = pred == 1
    b = truth == 1
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / denom


def model_target_dice(model, dataset) -> float:
    """Pooled Dice of a model's argmax masks over a labeled dataset.

    Reads the dataset's labels (bumps its label_reads counter); use in
    evaluation contexts only.
    """
    return dice(_labels(np.asarray(model.predict_probs(dataset.images))), dataset.masks)


def mean_ce(model, dataset, latents=None) -> float:
    """Mean per-pixel cross-entropy of a model over a labeled dataset, that
    of ce_loss on the whole stack bit for bit: each slice of the model's one
    streamed pass puts its CE terms into one buffer, summed once. latents as
    in SegModel.logit_slices."""
    labels = dataset.masks
    terms = None
    for part, logits in model.logit_slices(dataset.images, latents):
        terms = _filled(terms, len(labels), part, ce_terms(logits, labels[part]))
    return float(terms.sum() * (-1.0 / labels.size))


def mixture_target_ce(mixture, labels) -> float:
    """Mean cross-entropy of a mixed probability field (batch, classes,
    *spatial) against integer target labels."""
    picked = np.take_along_axis(mixture, labels[:, None, ...], axis=1)[:, 0, ...]
    return float(-np.log(picked).mean())


def complexity_term(n_source: int, n_target: int, xi: float, zeta: float) -> float:
    """sqrt(2 log(1/xi) / zeta) * (sqrt(1/N) + sqrt(1/M))."""
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must be in (0, 1], got {xi}")
    if not 0.0 < zeta < math.sqrt(2.0):
        raise ValueError(f"zeta must be in (0, sqrt(2)), got {zeta}")
    if n_source < 1 or n_target < 1:
        raise ValueError("sample counts must be positive")
    scale = math.sqrt(2.0 * math.log(1.0 / xi) / zeta)
    return scale * (1.0 / math.sqrt(n_source) + 1.0 / math.sqrt(n_target))


@dataclass
class BoundTerm:
    source_id: str
    source_ce: float
    swd_term: float
    complexity: float
    joint_ce: float = None  # None outside oracle mode


def bound_terms(adapted_models, sources, target, target_latents, swd_L: int,
                embed_sites: int, seed: int, joint_errors: dict = None) -> list:
    """Per-source diagnostic terms of the target-error upper bound, at
    xi = 0.05 and zeta = 1; the target codes are sampled from each model's
    target latent field."""
    out = []
    proj_seed = derive_seed(seed, "bound-projections")
    for am, source, z_tgt in zip(adapted_models, sources, target_latents):
        model = am.model
        proj = sample_projections(swd_L, model.config.latent_dim, seed=proj_seed)
        z_src = []  # one pass over the source feeds both the CE and the codes
        source_ce = mean_ce(model, source, z_src)
        src_emb = sample_sites(z_src.pop(), embed_sites,
                               seed=derive_seed(seed, "bound-src", source.domain_id),
                               domain_tag=source.domain_id)
        tgt_emb = sample_sites(z_tgt, embed_sites,
                               seed=derive_seed(seed, "bound-tgt", source.domain_id),
                               domain_tag=target.domain_id)
        joint = None if joint_errors is None else joint_errors.get(am.source_id)
        out.append(BoundTerm(
            source_id=am.source_id,
            source_ce=source_ce,
            swd_term=swd2(tgt_emb, src_emb, proj).item(),
            complexity=complexity_term(len(source), len(target), xi=0.05, zeta=1.0),
            joint_ce=joint,
        ))
    return out


def bound_right_hand_side(terms, weights) -> float:
    """Weighted sum of the per-source terms; requires measured joint errors."""
    total = 0.0
    for term, w in zip(terms, weights):
        if term.joint_ce is None:
            raise ValueError(f"joint error for '{term.source_id}' was not measured")
        total += w * (term.source_ce + term.swd_term + term.complexity + term.joint_ce)
    return total


def measure_joint_error(source, target_labeled, plan, config) -> float:
    """Joint-training error term: train one model on source plus labeled
    target, return its source CE plus target CE. Oracle-mode only."""
    union = DomainDataset(np.concatenate([source.images, target_labeled.images]),
                          np.concatenate([source.masks, target_labeled.masks]),
                          domain_id=f"{source.domain_id}+{target_labeled.domain_id}")
    joint_plan = dataclasses.replace(
        plan, seed=derive_seed(plan.seed, "joint", source.domain_id))
    star = pretrain(union, joint_plan, config)
    return mean_ce(star, source) + mean_ce(star, target_labeled)


# -- reporting -------------------------------------------------------------------


@dataclass
class MetricsReport:
    seed: int
    oracle_mode: bool
    weights: EnsembleWeights                       # of source_ids, in order
    aggregation: str = "fmuda"
    settings: dict = field(default_factory=dict)   # flat config snapshot
    source_ids: list = field(default_factory=list)
    per_model_dice: dict = field(default_factory=dict)      # id -> (pre, post)
    ensemble_dice: dict = field(default_factory=dict)       # method -> dice
    bound: list = field(default_factory=list)               # BoundTerm entries
    bound_lhs: float = None
    bound_rhs: float = None
    timestamp: str = ""


def evaluate_run(result, sources, target):
    """The report and the masks of every aggregation mode of a
    federation.FederationResult, from its models, weights, plan, config and
    target pass. A target with labels is oracle mode; sources (the run's, in
    its order) or None decide the bound. Per-model Dice, the masks and the
    bound's left-hand side read target_probs, the bound's target codes
    target_latents. In oracle mode each record's pretrained model (where it
    holds one) runs once for the pre-adaptation Dice. Returns
    (MetricsReport, {mode: uint8 mask}); the suda mask needs oracle mode. Tie
    breaks and bound projections draw from seeds derived from plan.seed.
    """
    models, weights, plan = result.adapted.models, result.weights, result.plan
    probs, oracle_mode, seed = result.target_probs, target.has_masks, plan.seed
    with_bound = sources is not None
    report = MetricsReport(seed=seed, oracle_mode=oracle_mode, weights=weights,
                           source_ids=[m.source_id for m in models])
    report.settings = {f"plan.{k}": v for k, v in asdict(plan).items()}
    report.settings.update({f"net.{k}": v for k, v in asdict(result.config).items()})
    report.settings["audit.target_label_reads_before_eval"] = target.label_reads

    fmuda = aggregate(probs, weights)
    # the benchmark's seed labels: its acceptance figures depend on them
    tie_seed = derive_seed(seed, "benchmark-ties")
    labels = [_labels(p) for p in probs]  # one per model: pv, Dice and suda read it
    masks = {"fmuda": fmuda.mask, "av": average_vote(probs, seed=tie_seed).mask,
             "pv": _majority(labels, probs.shape[1:], tie_seed)}
    # only the oracle bound's left-hand side reads the mixture
    mixture = fmuda.probs if oracle_mode and with_bound else None
    del fmuda

    if with_bound:
        joint = None
        if oracle_mode:
            joint = {src.domain_id: measure_joint_error(src, target, plan, result.config)
                     for src in sources}
        report.bound = bound_terms(models, sources, target, result.target_latents,
                                   plan.swd_L, plan.embed_sites,
                                   seed=derive_seed(seed, "benchmark-bound"),
                                   joint_errors=joint)
    if not oracle_mode:
        return report, masks

    truth = target.masks
    for am, own in zip(models, labels):
        pre = None if am.pretrained is None else dice(
            _labels(np.asarray(am.pretrained.predict_probs(target.images))), truth)
        report.per_model_dice[am.source_id] = (pre, dice(own, truth))
    post = [d for _, d in report.per_model_dice.values()]
    masks["suda"] = labels[int(np.argmax(post))]
    report.ensemble_dice = {mode: dice(mask, truth) for mode, mask in masks.items()}
    if with_bound:
        report.bound_lhs = mixture_target_ce(mixture, truth)
        report.bound_rhs = bound_right_hand_side(report.bound, weights.weights)
    return report, masks


def emit_report(report: MetricsReport, path):
    """Write the report as a key: value header plus CSV tables."""
    weights = report.weights
    lines = ["# fedseg run report", "format_version: 1",
             f"timestamp: {report.timestamp or time.strftime('%Y-%m-%dT%H:%M:%S')}",
             f"seed: {report.seed}",
             f"oracle_mode: {str(report.oracle_mode).lower()}",
             f"aggregation: {report.aggregation}",
             f"lambda_conf: {weights.lambda_conf}",
             f"uniform_fallback: {str(weights.uniform_fallback).lower()}",
             f"target_hash: {weights.target_hash}"]
    lines += [f"{key}: {report.settings[key]}" for key in sorted(report.settings)]
    if not report.oracle_mode:
        lines.append("e_C: not computable")
    if report.bound_lhs is not None:
        lines += [f"bound_lhs: {report.bound_lhs}", f"bound_rhs: {report.bound_rhs}",
                  f"bound_holds: {str(report.bound_lhs <= report.bound_rhs).lower()}"]

    lines += ["", "[weights]", "source_id,raw_count,weight"]
    lines += [f"{sid},{c},{float(w)}"
              for sid, c, w in zip(report.source_ids, weights.raw_counts, weights.weights)]
    if report.bound:
        lines += ["", "[bound_terms]", "source_id,source_ce,swd_term,complexity_term,joint_ce"]
        for t in report.bound:
            joint = "not computable" if t.joint_ce is None else float(t.joint_ce)
            lines.append(f"{t.source_id},{float(t.source_ce)},{float(t.swd_term)},"
                         f"{float(t.complexity)},{joint}")
    if report.per_model_dice:
        lines += ["", "[per_model_dice]", "source_id,pre_adapt,post_adapt"]
        for sid in report.source_ids:
            pre, post = report.per_model_dice[sid]
            pre = "not computable" if pre is None else float(pre)
            lines.append(f"{sid},{pre},{float(post)}")
    if report.ensemble_dice:
        lines += ["", "[dice]", "method,dice"]
        lines += [f"{method},{float(report.ensemble_dice[method])}"
                  for method in sorted(report.ensemble_dice)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path) -> dict:
    """Parse a report back into {'header': dict, 'tables': {name: rows}}; a
    header line without a colon raises ValueError naming the file and line."""
    header, tables = {}, {}
    table = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                table = []
                tables[line[1:-1]] = table
                continue
            if table is not None:
                table.append(line.split(","))
            elif ":" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
            else:
                key, value = line.split(":", 1)
                header[key.strip()] = value.strip()
    return {"header": header, "tables": tables}


_EXPORT_ROWS = 1024  # rows per write of export_embeddings


def export_embeddings(batches, path):
    """CSV of latent codes: domain_tag, dim_0 .. dim_{d-1} per row, written
    _EXPORT_ROWS rows at a time, so the text is never held whole."""
    dims = batches[0].dim
    if any(batch.dim != dims for batch in batches):
        raise ValueError(f"embedding dims differ: {[batch.dim for batch in batches]}")
    with open(path, "w") as fh:
        fh.write("domain_tag," + ",".join(f"dim_{i}" for i in range(dims)) + "\n")
        for batch in batches:
            points = batch.points.data
            for lo in range(0, len(points), _EXPORT_ROWS):
                fh.write("".join(f"{batch.domain_tag},{','.join(map(repr, row))}\n"
                                 for row in points[lo:lo + _EXPORT_ROWS].tolist()))
