"""Synthetic multi-domain segmentation data, raster I/O and dataset manifests.

Domains are built from a shared set of phantom images (smooth random blobs
on a textured background, with a binary blob-vs-background mask). Each
domain applies its own intensity shift to the images; masks are untouched,
so paired phantoms have bit-identical labels across domains.

Raster files use the NDR format:
    magic "NDR1" | u8 dtype (0 = f64 LE, 1 = u8 labels) | u8 ndim |
    ndim x u32 LE dims | row-major payload.
A dataset directory is described by a manifest: key: value header lines
followed by one [domain <id>] stanza per domain.
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .util import derive_seed


@dataclass(frozen=True)
class DomainShift:
    """Affine intensity shift plus optional noise and smooth bias field.

    Applied as ((base * gain + offset) * bias_field) + noise. The identity
    shift (1, 0, 0, 0) reproduces the base image bit-exactly.
    """

    intensity_gain: float = 1.0
    intensity_offset: float = 0.0
    noise_sigma: float = 0.0
    bias_field_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0 or self.bias_field_amplitude < 0:
            raise ValueError("noise_sigma and bias_field_amplitude must be >= 0")


class DomainDataset:
    """One domain's images, (N, channels, *spatial) float64, and optional
    per-pixel label masks, (N, *spatial) uint8, each one array: a list is
    stacked once, an array of those dtypes kept as given. Every read of the
    masks bumps label_reads; the counter is how runs prove that target
    labels were never consulted."""

    def __init__(self, images, masks=None, domain_id=""):
        self.images = _stack(images, np.float64, domain_id, "images")
        if masks is not None:
            masks = _stack(masks, np.uint8, domain_id, "masks")
            if len(masks) != len(self.images):
                raise ValueError(f"{len(self.images)} images but {len(masks)} masks "
                                 f"in '{domain_id}'")
            if self.images.shape[2:] != masks.shape[1:]:
                raise ValueError(f"image spatial shape {self.images.shape[2:]} != mask "
                                 f"shape {masks.shape[1:]} in '{domain_id}'")
        self._masks = masks
        self.domain_id = domain_id
        self.label_reads = 0

    def __len__(self):
        return len(self.images)

    @property
    def has_masks(self) -> bool:
        return self._masks is not None

    @property
    def masks(self) -> np.ndarray:
        if self._masks is None:
            raise ValueError(f"domain '{self.domain_id}' has no masks")
        self.label_reads += 1
        return self._masks

    def __reduce__(self):
        # image by image: pickle protocol 4, a node pool's, copies a whole array to
        # bytes first, which raised the pool parent's peak RSS by 3 MiB at 192 images
        masks = None if self._masks is None else list(self._masks)
        return (DomainDataset, (list(self.images), masks, self.domain_id),
                {"label_reads": self.label_reads})

    def unlabeled_copy(self) -> "DomainDataset":
        return DomainDataset(self.images.copy(), None, self.domain_id)


def _stack(arrays, dtype, domain_id, what) -> np.ndarray:
    """arrays as one array of dtype; unequal shapes raise naming them."""
    try:
        return np.asarray(arrays, dtype=dtype)
    except ValueError:
        shapes = sorted({np.shape(a) for a in arrays})
        raise ValueError(f"domain '{domain_id}': {what} of unequal shapes {shapes}") from None


# -- phantom generation -------------------------------------------------------


def _smooth_field(rng, shape, coarse=4):
    """Smooth random field in [-1, 1] via linear upsampling of a coarse grid."""
    grid = rng.uniform(-1.0, 1.0, size=(coarse,) * len(shape))
    field = grid
    for axis, size in enumerate(shape):
        old = field.shape[axis]
        pos = np.linspace(0, old - 1, size)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, old - 1)
        frac = (pos - lo).reshape([-1 if a == axis else 1 for a in range(field.ndim)])
        field = (np.take(field, lo, axis=axis) * (1 - frac)
                 + np.take(field, hi, axis=axis) * frac)
    return field


def make_phantom(seed: int, shape) -> tuple:
    """One base phantom: (image, mask) with one to three smooth blobs.

    Blob radii are 0.12-0.26 of the smallest spatial extent, which yields
    lesion-like foreground fractions of a few percent up to ~25%.
    """
    shape = tuple(shape)
    rng = np.random.default_rng(derive_seed(seed, "phantom"))
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape], indexing="ij")
    blob = np.zeros(shape)
    for _ in range(int(rng.integers(1, 4))):
        radius = rng.uniform(0.12, 0.26) * min(shape)
        # Centers roam the whole frame (clamped so the blob core stays inside),
        # so no pixel is background in every phantom.
        center = [rng.uniform(min(radius, 0.45 * s), s - min(radius, 0.45 * s))
                  for s in shape]
        d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        blob = np.maximum(blob, np.exp(-d2 / radius**2))
    mask = (blob > 0.5).astype(np.uint8)
    texture = _smooth_field(rng, shape, coarse=5)
    image = 0.25 + 0.55 * blob + 0.08 * texture
    return image[None, ...], mask  # add the channel axis


def apply_shift(image: np.ndarray, shift: DomainShift, noise_seed: int) -> np.ndarray:
    out = image * shift.intensity_gain + shift.intensity_offset
    rng = np.random.default_rng(derive_seed(shift.seed, noise_seed, "shift"))
    if shift.bias_field_amplitude > 0:
        bias = 1.0 + shift.bias_field_amplitude * _smooth_field(rng, image.shape[1:])
        out = out * bias[None, ...]
    if shift.noise_sigma > 0:
        out = out + rng.normal(0.0, shift.noise_sigma, size=image.shape)
    return out


def generate_domains(base_seed: int, n_domains: int, images_per_domain: int,
                     shape, shifts) -> list:
    """Paired synthetic domains: shared phantom geometry, per-domain shifts."""
    shape = tuple(shape)
    if len(shifts) != n_domains:
        raise ValueError(f"{n_domains} domains but {len(shifts)} shifts")
    if any(s < 4 for s in shape):
        raise ValueError(f"degenerate spatial shape {shape}")
    phantoms = np.empty((images_per_domain, 1) + shape)
    masks = np.empty((images_per_domain,) + shape, dtype=np.uint8)
    for i in range(images_per_domain):
        phantoms[i], masks[i] = make_phantom(derive_seed(base_seed, i), shape)
    domains = []
    for d, shift in enumerate(shifts):
        images = np.empty_like(phantoms)  # each domain fills a stack of its own
        for i, phantom in enumerate(phantoms):
            images[i] = apply_shift(phantom, shift, i)
        domains.append(DomainDataset(images, masks.copy(), domain_id=f"domain{d}"))
    return domains


# -- NDR raster format ------------------------------------------------------------

_NDR_MAGIC = b"NDR1"
_DTYPE_F64 = 0
_DTYPE_U8 = 1
_MAX_NDIM = 8


def write_raster(path, raster: np.ndarray):
    raster = np.asarray(raster)
    if raster.dtype == np.uint8:
        code, payload = _DTYPE_U8, np.ascontiguousarray(raster).tobytes()
    else:
        code = _DTYPE_F64
        payload = np.ascontiguousarray(raster, dtype="<f8").tobytes()
    if raster.ndim > _MAX_NDIM:
        raise ValueError(f"raster rank {raster.ndim} exceeds limit {_MAX_NDIM}")
    if any(s >= 2**32 for s in raster.shape):
        raise ValueError(f"raster dimension overflow in shape {raster.shape}")
    with open(path, "wb") as fh:
        fh.write(_NDR_MAGIC)
        fh.write(struct.pack("<BB", code, raster.ndim))
        fh.write(struct.pack(f"<{raster.ndim}I", *raster.shape))
        fh.write(payload)


def read_raster(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _NDR_MAGIC:
        raise ValueError(f"{path}: bad magic at offset 0: {blob[:4]!r}")
    if len(blob) < 6:
        raise ValueError(f"{path}: truncated header at offset {len(blob)}")
    code, ndim = struct.unpack_from("<BB", blob, 4)
    if code not in (_DTYPE_F64, _DTYPE_U8):
        raise ValueError(f"{path}: unknown dtype code {code} at offset 4")
    if ndim > _MAX_NDIM:
        raise ValueError(f"{path}: dimension count {ndim} at offset 5 exceeds {_MAX_NDIM}")
    header_end = 6 + 4 * ndim
    if len(blob) < header_end:
        raise ValueError(f"{path}: truncated dimension list at offset {len(blob)}")
    shape = struct.unpack_from(f"<{ndim}I", blob, 6)
    count = int(np.prod(shape)) if ndim else 1
    itemsize = 8 if code == _DTYPE_F64 else 1
    if len(blob) != header_end + count * itemsize:
        raise ValueError(
            f"{path}: payload length {len(blob) - header_end} at offset {header_end}, "
            f"expected {count * itemsize}"
        )
    dtype = "<f8" if code == _DTYPE_F64 else np.uint8
    return np.frombuffer(blob, dtype=dtype, count=count, offset=header_end).reshape(shape).copy()


# -- dataset manifest ----------------------------------------------------------------


@dataclass
class ManifestEntry:
    domain_id: str
    role: str  # "source" or "target"
    shift: DomainShift
    image_paths: list = field(default_factory=list)
    mask_paths: list = field(default_factory=list)


def write_manifest(path, entries, base_seed: int, num_classes: int):
    lines = ["# fedseg dataset manifest", "format_version: 1",
             f"base_seed: {base_seed}", f"classes: {num_classes}"]
    for e in entries:
        s = e.shift
        lines.append("")
        lines.append(f"[domain {e.domain_id}]")
        lines.append(f"role: {e.role}")
        lines.append(
            "shift: gain={} offset={} noise={} bias={} seed={}".format(
                repr(float(s.intensity_gain)), repr(float(s.intensity_offset)),
                repr(float(s.noise_sigma)), repr(float(s.bias_field_amplitude)), s.seed
            )
        )
        for p in e.image_paths:
            lines.append(f"image: {p}")
        for p in e.mask_paths:
            lines.append(f"mask: {p}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# (manifest key, DomainShift attribute, parser) per field of a shift: line
_SHIFT_FIELDS = (("gain", "intensity_gain", float), ("offset", "intensity_offset", float),
                 ("noise", "noise_sigma", float), ("bias", "bias_field_amplitude", float),
                 ("seed", "seed", int))


def read_manifest(path) -> tuple:
    """Returns (header dict, list of ManifestEntry)."""
    header, entries, current = {}, [], None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[domain ") and line.endswith("]"):
                current = ManifestEntry(domain_id=line[8:-1].strip(), role="source",
                                        shift=DomainShift())
                entries.append(current)
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
            key, value = (part.strip() for part in line.split(":", 1))
            if current is None:
                header[key] = value
            elif key == "role":
                if value not in ("source", "target"):
                    raise ValueError(f"{path}:{lineno}: unknown role {value!r}")
                current.role = value
            elif key == "shift":
                fields = dict(item.partition("=")[::2] for item in value.split())
                shift = {}
                for name, attr, kind in _SHIFT_FIELDS:
                    try:
                        shift[attr] = kind(fields[name])
                    except (KeyError, ValueError):
                        got = repr(fields[name]) if name in fields else "missing"
                        raise ValueError(f"{path}:{lineno}: shift field '{name}' is "
                                         f"{got}, expected a number") from None
                try:
                    current.shift = DomainShift(**shift)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            elif key == "image":
                current.image_paths.append(value)
            elif key == "mask":
                current.mask_paths.append(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return header, entries


def load_domain(manifest_path, entry: ManifestEntry, read_masks: bool) -> DomainDataset:
    """Materialize one manifest entry; mask files are opened only on request."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    images = [read_raster(os.path.join(base, p)) for p in entry.image_paths]
    masks = None
    if read_masks:
        if len(entry.mask_paths) != len(entry.image_paths):
            raise ValueError(
                f"domain '{entry.domain_id}' lists {len(entry.mask_paths)} masks "
                f"for {len(entry.image_paths)} images"
            )
        masks = [read_raster(os.path.join(base, p)) for p in entry.mask_paths]
    return DomainDataset(images, masks, domain_id=entry.domain_id)
