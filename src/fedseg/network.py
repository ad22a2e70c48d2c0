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

Inference builds no autodiff graph and streams an image stack (a dataset's
images are one): logit_slices runs forward on INFERENCE_CHUNK images at a
time, each image computed on its own, so every slice equals that part of
one pass over the whole stack bit for bit. predict_probs allocates its
result, and the latent field it can hand back, once and fills them slice by
slice; neither the whole stack's logits nor a list of per-slice arrays is
ever held. ce_terms gives the graph-free cross-entropy terms of a slice,
which evaluation.mean_ce streams into one buffer.

sample_sites draws embedding rows from a latent field the caller already
has, so neither training nor evaluation encodes an image twice for its
logits and its codes. It is one autodiff node: it gathers the sampled sites
straight from the field and scatters the gradient back to them, with no
flattened copy of the field.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, _accumulate, _make, as_tensor, concat, conv, log_softmax, mul,
                       no_grad, softmax, tsum, upsample_nearest)
from .sliced import EmbeddingBatch
from .util import derive_seed
# Bound here only because perfbench/tracing.py wraps this name on this
# module and fails when it is missing.
from .autodiff import max_pool  # noqa: F401

# Images per graph-free forward pass: the fastest of the sizes tried on 192
# 32x32 images with the default net.
INFERENCE_CHUNK = 16


def _filled(buffer, n, part, values):
    """buffer, an (n, *values.shape[1:]) array allocated on the first slice,
    with values copied into rows part."""
    if buffer is None:
        buffer = np.empty((n,) + values.shape[1:], dtype=values.dtype)
    buffer[part] = values
    return buffer


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
        for name in ("depth", "in_channels", "num_classes", "base_width", "latent_dim"):
            if getattr(self, name) < 1:  # the message starts with the field it rejects
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_classes > 256:  # a label map is uint8
            raise ValueError(f"num_classes must be <= 256, got {self.num_classes}")


def _he_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _check_finite(name, values):
    """Raise ValueError naming the parameter when values holds a NaN or an inf."""
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite values in parameter '{name}'")


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

    def logit_slices(self, images, latents=None):
        """(slice, logits) of each graph-free forward pass over INFERENCE_CHUNK
        images, in order, of an image stack (batch, channels, *spatial). A
        list given as latents receives the latent field (batch, latent_dim,
        *spatial/2^depth), allocated once and filled as the slices pass."""
        field = None
        for lo in range(0, max(len(images), 1), INFERENCE_CHUNK):
            part = slice(lo, lo + INFERENCE_CHUNK)
            with no_grad():
                z = self.encode(Tensor(images[part]))
                logits = self.classify(z).data
            if latents is not None:
                field = _filled(field, len(images), part, z.data)
                if lo == 0:
                    latents.append(field)
            yield part, logits

    def predict_probs(self, images, latents=None) -> np.ndarray:
        """Per-pixel class probabilities (batch, classes, *spatial) of an image
        batch (no grad), filled slice by slice; images and latents as in
        logit_slices."""
        probs = None
        for part, logits in self.logit_slices(images, latents):
            probs = _filled(probs, len(images), part, softmax(logits, axis=1).data)
        return probs

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
            _check_finite(name, arr)
            self.params[name].data = np.asarray(arr, dtype=np.float64).copy()

    def clone(self) -> "SegModel":
        other = SegModel(self.config, seed=0)
        other.load_state_dict(self.state_dict())
        return other


def sample_sites(z, n_sites: int = 64, seed: int = 0,
                 domain_tag: str = "") -> EmbeddingBatch:
    """Codes of a latent field (batch, latent_dim, *spatial) at a seeded
    uniform subsample of its spatial sites.

    Each image contributes min(n_sites, sites available) rows of dimension
    latent_dim, image by image. One autodiff node, differentiable with
    respect to z: the rows are gathered from the field, and the gradient is
    scattered back to the sampled sites.
    """
    z = as_tensor(z)
    batch, d = z.shape[0], z.shape[1]
    field = z.data.reshape(batch, d, -1)
    p = field.shape[2]
    rng = np.random.default_rng(derive_seed(seed, "embed-sites"))
    take = min(n_sites, p)
    sites = np.array([rng.choice(p, size=take, replace=False) for _ in range(batch)],
                     dtype=np.intp).reshape(batch, take)
    images = np.arange(batch)[:, None]

    def back(g):
        g_field = np.zeros(field.shape)
        # an image's sites are distinct, so no two rows land on one site
        g_field[images, :, sites] += g.reshape(batch, take, d)
        _accumulate(z, g_field.reshape(z.shape))

    points = field[images, :, sites].reshape(batch * take, d)
    return EmbeddingBatch(points=_make(points, (z,), back), domain_tag=domain_tag)


def embed(model: SegModel, x, n_sites: int = 64, seed: int = 0,
          domain_tag: str = "") -> EmbeddingBatch:
    """sample_sites of the model's latent field of an image batch,
    differentiable with respect to the model parameters."""
    return sample_sites(model.encode(x), n_sites, seed, domain_tag)


def _onehot(logits_shape, mask) -> np.ndarray:
    """float64 one-hot (batch, classes, *spatial) of integer labels, checked
    against logits of logits_shape."""
    labels = np.asarray(mask)
    n_classes = logits_shape[1]
    expected = logits_shape[:1] + logits_shape[2:]
    if labels.shape != expected:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits_shape} "
            f"(expected {expected})"
        )
    bad = (labels < 0) | (labels >= n_classes)
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"label {labels[where]} at pixel {where} outside [0, {n_classes})"
        )
    return (labels[:, None, ...] == np.arange(n_classes).reshape(
        (1, n_classes) + (1,) * (labels.ndim - 1))).astype(np.float64)


def ce_loss(logits: Tensor, mask) -> Tensor:
    """Mean per-pixel cross-entropy between logits and integer labels."""
    logits, labels = as_tensor(logits), np.asarray(mask)
    picked = tsum(mul(log_softmax(logits, axis=1), _onehot(logits.shape, labels)))
    return mul(picked, -1.0 / labels.size)


def ce_terms(logits: np.ndarray, mask) -> np.ndarray:
    """Graph-free log_softmax(logits) times the one-hot labels, per pixel and
    class: ce_loss is the sum of these terms over a batch times -1/pixels."""
    return log_softmax(logits, axis=1).data * _onehot(np.shape(logits), mask)
