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
model once on the target images; it is allocated once, and each model's
result is copied into its slot, so the stack is never held twice.
federation.target_pass builds it once for a run, an extended run or an
eval, and weights it with confidence_weights; aggregate, average_vote and
popular_vote take it too, never the models. Each mode streams over the
models: it adds one model's weighted probabilities or votes at a time into
one (batch, classes, *spatial) buffer, so it holds no temporary that grows
with the number of models. The models are added in the order in which
numpy sums over the model axis, so the results are those sums, bit for bit.
compute_weights and add_source take models (anything with
predict_probs(images) -> (batch, classes, *spatial)) for a caller that holds
no stack. All image arguments are batches; pass a single image as a batch
of one. Every class decision is a uint8 label map from _labels.
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
    mask: np.ndarray   # (batch, *spatial) uint8 argmax labels


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
    """(n_models, batch, classes, *spatial), allocated once: one
    predict_probs call per model, its result copied into the model's slot,
    with shape agreement enforced; a list given as latents receives each
    model's latent field of that pass."""
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    stack = None
    for k, m in enumerate(models):
        p = np.asarray(m.predict_probs(images) if latents is None
                       else m.predict_probs(images, latents))
        if stack is None:
            stack = np.empty((len(models),) + p.shape, dtype=p.dtype)
        elif p.shape != stack.shape[1:]:
            raise ValueError(f"model 0 predicts shape {stack.shape[1:]}, "
                             f"model {k} shape {p.shape}")
        stack[k] = p
        del p  # the next model's pass runs without this one's result
    return stack


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


def _labels(scores, rng=None) -> np.ndarray:
    """The class-axis argmax of scores bit for bit as a uint8 label map, by a running
    compare; with rng, exact ties break by a jitter draw (class 0 at a NaN pixel)."""
    best, labels, tied = scores[:, 0].copy(), np.zeros(scores[:, 0].shape, np.uint8), False
    for c, s in enumerate(scores.swapaxes(0, 1)[1:], start=1):
        wins = ~(best >= s) & (best == best)  # a larger value, or the first NaN
        tied = (tied | (s == best)) & ~wins  # a later class equals best
        labels[wins] = c
        np.copyto(best, s, where=wins)
    if rng is None or not np.any(tied):
        return labels
    jitter = rng.random(scores.shape)
    jitter[scores != best[:, None]] = -1.0
    return _labels(jitter)


def aggregate(probs, weights: EnsembleWeights) -> AggregatedPrediction:
    """Pixel-wise convex combination of the models' class distributions."""
    probs = np.asarray(probs)
    if len(probs) != len(weights.weights):
        raise ValueError(f"{len(probs)} models but {len(weights.weights)} weights")
    w = np.asarray(weights.weights)
    mixed = probs[0] * w[0]
    term = np.empty_like(mixed)
    for p, wk in zip(probs[1:], w[1:]):
        mixed += np.multiply(p, wk, out=term)
    del term  # freed before the class decision
    return AggregatedPrediction(probs=mixed, mask=_labels(mixed))


def average_vote(probs, seed: int = 0) -> AggregatedPrediction:
    """Uniform-weight aggregation; exact probability ties break by seed."""
    mean = np.asarray(probs).mean(axis=0)
    rng = np.random.default_rng(derive_seed(seed, "average-vote"))
    return AggregatedPrediction(probs=mean, mask=_labels(mean, rng))


def _majority(label_maps, shape, seed: int) -> np.ndarray:
    """Per-pixel majority of label maps; shape is (batch, classes, *spatial)."""
    classes = np.arange(shape[1]).reshape((-1,) + (1,) * (len(shape) - 2))
    votes = np.zeros(shape)  # counts, exact in float64
    for labels in label_maps:
        votes += labels[:, None] == classes
    return _labels(votes, np.random.default_rng(derive_seed(seed, "popular-vote")))


def popular_vote(probs, seed: int = 0) -> np.ndarray:
    """Per-pixel majority label across models; ties resolved by seed."""
    probs = np.asarray(probs)
    return _majority((_labels(p) for p in probs), probs.shape[1:], seed)
