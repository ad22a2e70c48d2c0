"""Confidence-weighted aggregation of per-source adapted models.

Each model's raw weight is the number of target pixels where its maximum
post-softmax class probability exceeds the confidence threshold; weights are
the normalized raw counts. Aggregation mixes the models' per-pixel
probability distributions with those weights, so the result stays on the
probability simplex. Popular vote and uniform averaging are provided as
baselines, and a new source can be folded in by computing only its own raw
count and renormalizing.

Every ensemble quantity is a function of one array: the probability stack
(n_models, batch, classes, *spatial) that stack_probs builds by running each
model once on the target images. federation.target_pass builds it once for
a run, an extended run or an eval, and weights it with confidence_weights;
aggregate, average_vote and popular_vote take it too, never the models.
compute_weights and add_source take models (anything with
predict_probs(images) -> (batch, classes, *spatial)) for a caller that holds
no stack. All image arguments are batches; pass a single image as a batch
of one.
"""

from dataclasses import dataclass, field

import numpy as np

from .util import derive_seed, hash_images


@dataclass
class EnsembleWeights:
    raw_counts: list
    weights: list
    lambda_conf: float
    uniform_fallback: bool = False
    target_hash: str = ""

    def __post_init__(self):
        if len(self.raw_counts) != len(self.weights):
            raise ValueError("raw_counts and weights lengths differ")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")

    @classmethod
    def from_counts(cls, counts, lambda_conf, target_hash="") -> "EnsembleWeights":
        """Normalized raw counts; uniform (and flagged) when all are zero."""
        total = sum(counts)
        if total == 0:
            n = len(counts)
            return cls(list(counts), [1.0 / n] * n, lambda_conf,
                       uniform_fallback=True, target_hash=target_hash)
        return cls(list(counts), [c / total for c in counts], lambda_conf,
                   target_hash=target_hash)


@dataclass
class AggregatedPrediction:
    probs: np.ndarray  # (batch, classes, *spatial), pixel rows on the simplex
    mask: np.ndarray   # (batch, *spatial) argmax labels


@dataclass
class AdaptedModelSet:
    """The per-source adapted models, in a fixed order."""

    models: list = field(default_factory=list)

    def __len__(self):
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def source_ids(self):
        return [m.source_id for m in self.models]


def _as_image_batch(images) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float64)
    if arr.size == 0 or arr.ndim < 2:
        raise ValueError("empty target image set")
    return arr


def stack_probs(models, images, latents=None) -> np.ndarray:
    """(n_models, batch, classes, *spatial): one predict_probs call per model,
    with shape agreement enforced; a list given as latents receives each
    model's latent field of that pass."""
    probs = [np.asarray(m.predict_probs(images) if latents is None
                        else m.predict_probs(images, latents)) for m in models]
    if not probs:
        raise ValueError("need at least one model")
    base = probs[0].shape
    for k, p in enumerate(probs[1:], start=1):
        if p.shape != base:
            raise ValueError(f"model 0 predicts shape {base}, model {k} shape {p.shape}")
    return np.stack(probs)


def _confident_pixels(probs: np.ndarray, lambda_conf: float) -> int:
    return int((probs.max(axis=1) > lambda_conf).sum())


def confidence_weights(probs, lambda_conf: float, target_hash: str = "") -> EnsembleWeights:
    """Normalized confident-pixel counts of a probability stack.

    If no model clears the threshold anywhere, weights fall back to uniform
    and the result is flagged.
    """
    if not 0.0 < lambda_conf < 1.0:
        raise ValueError(f"lambda_conf must be in (0,1), got {lambda_conf}")
    counts = [_confident_pixels(p, lambda_conf) for p in probs]
    return EnsembleWeights.from_counts(counts, lambda_conf, target_hash)


def compute_weights(models, target_images, lambda_conf: float) -> EnsembleWeights:
    """confidence_weights of the models' probabilities on the target images."""
    images = _as_image_batch(target_images)
    return confidence_weights(stack_probs(models, images), lambda_conf,
                              hash_images(images))


def add_source(models, weights: EnsembleWeights, new_model,
               target_images) -> EnsembleWeights:
    """Fold one new adapted model into existing weights.

    Only the new model's raw count is computed; existing counts are reused
    verbatim and the whole vector renormalized. The target image set must be
    the one the existing weights were computed on.
    """
    images = _as_image_batch(target_images)
    target_hash = hash_images(images)
    if weights.target_hash and target_hash != weights.target_hash:
        raise ValueError("target image set differs from the one weights were computed on")
    new_probs = np.asarray(new_model.predict_probs(images))
    counts = list(weights.raw_counts) + [_confident_pixels(new_probs, weights.lambda_conf)]
    return EnsembleWeights.from_counts(counts, weights.lambda_conf, target_hash)


def _tie_break_argmax(scores: np.ndarray, rng) -> np.ndarray:
    """Argmax over axis 1 with exact ties resolved uniformly at random."""
    top = scores.max(axis=1, keepdims=True)
    tied = scores == top
    if rng is None or int(tied.sum(axis=1).max()) <= 1:
        return scores.argmax(axis=1)
    jitter = rng.random(scores.shape)
    return np.where(tied, jitter, -1.0).argmax(axis=1)


def aggregate(probs, weights: EnsembleWeights) -> AggregatedPrediction:
    """Pixel-wise convex combination of the models' class distributions."""
    probs = np.asarray(probs)
    if len(probs) != len(weights.weights):
        raise ValueError(f"{len(probs)} models but {len(weights.weights)} weights")
    w = np.asarray(weights.weights).reshape((-1,) + (1,) * (probs.ndim - 1))
    mixed = (probs * w).sum(axis=0)
    return AggregatedPrediction(probs=mixed, mask=mixed.argmax(axis=1))


def average_vote(probs, seed: int = 0) -> AggregatedPrediction:
    """Uniform-weight aggregation; exact probability ties break by seed."""
    mean = np.asarray(probs).mean(axis=0)
    rng = np.random.default_rng(derive_seed(seed, "average-vote"))
    return AggregatedPrediction(probs=mean, mask=_tie_break_argmax(mean, rng))


def popular_vote(probs, seed: int = 0) -> np.ndarray:
    """Per-pixel majority label across models; ties resolved by seed."""
    probs = np.asarray(probs)
    n_classes = probs.shape[2]
    labels = probs.argmax(axis=2)  # (models, batch, *spatial)
    votes = np.stack([(labels == c).sum(axis=0) for c in range(n_classes)], axis=1)
    rng = np.random.default_rng(derive_seed(seed, "popular-vote"))
    return _tie_break_argmax(votes.astype(np.float64), rng)
