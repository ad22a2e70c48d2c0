"""Federated multi-source unsupervised domain adaptation for segmentation.

A numpy library implementing the full pipeline at desk scale: a reverse-mode
autodiff substrate, sliced Wasserstein alignment of latent embeddings,
miniature encoder/decoder segmentation networks, per-source adaptation,
confidence-weighted ensembling, and a single-machine federation with an audited
message bus. See README.md for the tour and the demos/ scripts for worked
sessions.
"""

from .autodiff import Adam, Tensor, load_params, save_params
from .data import DomainDataset, DomainShift, generate_domains, read_raster, write_raster
from .ensembling import (AdaptedModelSet, EnsembleWeights, add_source, aggregate,
                         average_vote, compute_weights, popular_vote)
from .evaluation import MetricsReport, bound_terms, dice, emit_report
from .federation import AuditLog, audit_check, extend_run, run_msuda
from .network import NetConfig, SegModel, ce_loss, embed
from .sliced import EmbeddingBatch, ProjectionSet, exact_w2_1d, sample_projections, swd2
from .training import AdaptedModel, TrainPlan, adapt, pretrain

__version__ = "0.1.0"

__all__ = [
    "Adam", "AdaptedModel", "AdaptedModelSet", "AuditLog", "DomainDataset",
    "DomainShift", "EmbeddingBatch", "EnsembleWeights", "MetricsReport",
    "NetConfig", "ProjectionSet", "SegModel", "Tensor", "TrainPlan", "adapt",
    "add_source", "aggregate", "audit_check", "average_vote", "bound_terms",
    "ce_loss", "compute_weights", "dice", "embed", "emit_report", "exact_w2_1d",
    "extend_run", "generate_domains", "load_params", "popular_vote", "pretrain",
    "read_raster", "run_msuda", "sample_projections", "save_params", "swd2",
    "write_raster",
]
