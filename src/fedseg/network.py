"""Miniature configurable encoder/decoder segmentation network.

The model is the composition of an encoder (downsampling path ending in a
latent feature map whose channels form the embedding space) and a classifier
(upsampling path plus a 1x1 head). forward() is literally
classify(encode(x)): the classifier is a pure function of the latent field,
so the embedding used for distribution alignment is exactly the classifier's
input space. When skip_connections is enabled, each decoder level is fed an
upsampled copy of the latent field alongside the upsampled features; the
classifier still sees nothing but the latent field. Every conv layer is
one fused autodiff.conv node: convolution, bias, (except for the head)
ReLU and, in the encoder, the 2x max-pool (pool=2). Nearest upsampling
commutes with concat, so a decoder level joins its features with the latent
field at the features' size and leaves the last 2x upsample to its conv
(upsample=2): each decoder conv runs at half its output resolution, and
neither the upsampled features nor their concat is built.

Inference (predict_logits) builds no autodiff graph and runs forward on
INFERENCE_CHUNK images at a time; each image is computed on its own, so the
result equals one pass over the whole stack bit for bit. It can hand back
that pass's latent field, and sample_sites draws embedding rows from a
latent field the caller already has, so neither training nor evaluation
encodes an image twice for its logits and its codes. embed encodes in the
same slices.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, concat, conv, log_softmax, mul, no_grad, reshape, softmax,
                       take_rows, transpose, tsum, upsample_nearest)
from .sliced import EmbeddingBatch
from .util import derive_seed
# Bound here only because perfbench/tracing.py wraps this name on this
# module and fails when it is missing.
from .autodiff import max_pool  # noqa: F401

# Images per graph-free forward pass: the fastest of the sizes tried on 192
# 32x32 images with the default net.
INFERENCE_CHUNK = 16


def _chunks(images):
    """INFERENCE_CHUNK-image slices of a stack; an empty stack gives one
    empty slice, so a pass still runs for its shape."""
    return [images[i:i + INFERENCE_CHUNK]
            for i in range(0, max(len(images), 1), INFERENCE_CHUNK)]


@dataclass(frozen=True)
class NetConfig:
    spatial_rank: int = 2
    in_channels: int = 1
    num_classes: int = 2
    depth: int = 2
    base_width: int = 8
    latent_dim: int = 16
    skip_connections: bool = True

    def __post_init__(self):
        if self.spatial_rank not in (2, 3):
            raise ValueError(f"spatial_rank must be 2 or 3, got {self.spatial_rank}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if min(self.in_channels, self.num_classes, self.base_width, self.latent_dim) < 1:
            raise ValueError("channel counts must be positive")


def _he_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class SegModel:
    """Segmentation network decomposed into encoder and classifier halves.

    Parameters are held in a flat name -> Tensor mapping; "enc*" and
    "bottleneck*" names belong to the encoder, the rest to the classifier.
    """

    def __init__(self, config: NetConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(derive_seed(seed, "segmodel-init"))
        k = (3,) * config.spatial_rank
        one = (1,) * config.spatial_rank
        self.params = {}

        def conv_param(name, cout, cin, kernel):
            fan_in = cin * int(np.prod(kernel))
            self.params[name + ".w"] = Tensor(
                _he_uniform(rng, (cout, cin) + kernel, fan_in), requires_grad=True
            )
            self.params[name + ".b"] = Tensor(np.zeros(cout), requires_grad=True)

        cin = config.in_channels
        for i in range(config.depth):
            width = config.base_width * 2**i
            conv_param(f"enc{i}", width, cin, k)
            cin = width
        conv_param("bottleneck", config.latent_dim, cin, k)

        cin = config.latent_dim
        for i in reversed(range(config.depth)):
            width = config.base_width * 2**i
            if config.skip_connections:
                cin += config.latent_dim
            conv_param(f"dec{i}", width, cin, k)
            cin = width
        conv_param("head", config.num_classes, cin, one)

    # -- forward paths -----------------------------------------------------

    def _check_input(self, x):
        x = x if isinstance(x, Tensor) else Tensor(x)
        cfg = self.config
        if x.ndim != cfg.spatial_rank + 2 or x.shape[1] != cfg.in_channels:
            raise ValueError(
                f"expected (batch, {cfg.in_channels}, {'x'.join(['S'] * cfg.spatial_rank)})"
                f" input, got shape {x.shape}"
            )
        scale = 2**cfg.depth
        if any(s % scale != 0 for s in x.shape[2:]):
            raise ValueError(
                f"spatial shape {x.shape[2:]} must be divisible by {scale} "
                f"(depth {cfg.depth})"
            )
        return x

    def _conv_block(self, x, name, padding, rectify=True, upsample=1, pool=1):
        return conv(x, self.params[name + ".w"], padding, b=self.params[name + ".b"],
                    rectify=rectify, upsample=upsample, pool=pool)

    def encode(self, x) -> Tensor:
        """Image batch -> latent field (batch, latent_dim, *spatial/2^depth)."""
        h = self._check_input(x)
        for i in range(self.config.depth):
            h = self._conv_block(h, f"enc{i}", 1, pool=2)
        return self._conv_block(h, "bottleneck", 1)

    def classify(self, z: Tensor) -> Tensor:
        """Latent field -> per-pixel class logits at the input resolution."""
        cfg = self.config
        h = z
        for i in reversed(range(cfg.depth)):
            # up(concat(h, skip), 2) is concat(up(h, 2), up(skip, 2)): the
            # conv does the last 2x itself, so the level runs at h's size
            if cfg.skip_connections:
                factor = 2 ** (cfg.depth - 1 - i)
                skip = z if factor == 1 else upsample_nearest(z, factor)
                h = concat([h, skip], axis=1)
            h = self._conv_block(h, f"dec{i}", 1, upsample=2)
        return self._conv_block(h, "head", 0, rectify=False)

    def forward(self, x) -> Tensor:
        return self.classify(self.encode(x))

    def predict_logits(self, images, latents=None) -> np.ndarray:
        """Class logits of an image stack, graph-free, INFERENCE_CHUNK images
        per forward pass. A list given as latents receives the stack's latent
        field (batch, latent_dim, *spatial/2^depth) from the same pass."""
        with no_grad():
            z = [self.encode(Tensor(c)) for c in _chunks(np.asarray(images))]
            if latents is not None:
                latents.append(np.concatenate([c.data for c in z]))
            return np.concatenate([self.classify(c).data for c in z])

    def predict_probs(self, images, latents=None) -> np.ndarray:
        """Per-pixel class probabilities for a stacked image batch (no grad);
        latents as in predict_logits."""
        return softmax(self.predict_logits(images, latents), axis=1).data

    # -- bookkeeping ---------------------------------------------------------

    def parameters(self) -> dict:
        return self.params

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_dict(self, state):
        missing = set(self.params) ^ set(state)
        if missing:
            raise ValueError(f"parameter names do not match the model: {sorted(missing)}")
        for name, arr in state.items():
            if self.params[name].shape != np.shape(arr):
                raise ValueError(
                    f"shape mismatch for '{name}': model {self.params[name].shape} "
                    f"vs checkpoint {np.shape(arr)}"
                )
            self.params[name].data = np.asarray(arr, dtype=np.float64).copy()

    def clone(self) -> "SegModel":
        other = SegModel(self.config, seed=0)
        other.load_state_dict(self.state_dict())
        return other


def sample_sites(z: Tensor, n_sites: int = 64, seed: int = 0,
                 domain_tag: str = "") -> EmbeddingBatch:
    """Codes of a latent field (batch, latent_dim, *spatial) at a seeded
    uniform subsample of its spatial sites.

    Each image contributes min(n_sites, sites available) rows of dimension
    latent_dim. Differentiable with respect to z.
    """
    batch, d = z.shape[0], z.shape[1]
    p = int(np.prod(z.shape[2:]))
    flat = reshape(transpose(reshape(z, (batch, d, p)), (0, 2, 1)), (batch * p, d))
    rng = np.random.default_rng(derive_seed(seed, "embed-sites"))
    take = min(n_sites, p)
    rows = np.concatenate(
        [b * p + rng.choice(p, size=take, replace=False) for b in range(batch)]
    )
    return EmbeddingBatch(points=take_rows(flat, rows), domain_tag=domain_tag)


def embed(model: SegModel, x, n_sites: int = 64, seed: int = 0,
          domain_tag: str = "") -> EmbeddingBatch:
    """sample_sites of the model's latent field of an image batch.

    The encoder runs on INFERENCE_CHUNK images at a time, so under no_grad
    the peak memory does not grow with the stack; the latent field, and so
    every sampled row, equals that of one pass. Differentiable with respect
    to the model parameters.
    """
    x = x.data if isinstance(x, Tensor) else np.asarray(x)
    return sample_sites(concat([model.encode(c) for c in _chunks(x)], axis=0),
                        n_sites, seed, domain_tag)


def ce_loss(logits: Tensor, mask) -> Tensor:
    """Mean per-pixel cross-entropy between logits and integer labels."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    labels = np.asarray(mask)
    n_classes = logits.shape[1]
    expected = logits.shape[:1] + logits.shape[2:]
    if labels.shape != expected:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits.shape} "
            f"(expected {expected})"
        )
    bad = (labels < 0) | (labels >= n_classes)
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"label {labels[where]} at pixel {where} outside [0, {n_classes})"
        )
    onehot = (labels[:, None, ...] == np.arange(n_classes).reshape(
        (1, n_classes) + (1,) * (labels.ndim - 1))).astype(np.float64)
    picked = tsum(mul(log_softmax(logits, axis=1), onehot))
    return mul(picked, -1.0 / labels.size)

