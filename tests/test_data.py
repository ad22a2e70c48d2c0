"""Synthetic domain generation, intensity shifts, the NDR raster format and
dataset manifests."""

import pickle

import numpy as np
import pytest

from fedseg.data import (DomainDataset, DomainShift, apply_shift, generate_domains,
                         load_domain, make_phantom, read_manifest, read_raster,
                         write_manifest, write_raster)
from fedseg.data import ManifestEntry
from fedseg.util import hash_images

IDENTITY = DomainShift()


def test_identity_shift_reproduces_base_bitwise():
    domains = generate_domains(0, 1, 3, (16, 16), [IDENTITY])
    for i in range(3):
        base, _ = make_phantom(np.int64(0), (16, 16))
    # regenerate via the same seeding path
    from fedseg.util import derive_seed
    for i, img in enumerate(domains[0].images):
        base, _ = make_phantom(derive_seed(0, i), (16, 16))
        np.testing.assert_array_equal(img, base)


def test_affine_shift_algebra_between_domains():
    s1 = DomainShift(intensity_gain=1.5, intensity_offset=0.2, seed=1)
    s2 = DomainShift(intensity_gain=0.7, intensity_offset=-0.1, seed=2)
    d1, d2 = generate_domains(3, 2, 4, (16, 16), [s1, s2])
    for a, b in zip(d1.images, d2.images):
        recovered = (a - s1.intensity_offset) / s1.intensity_gain
        np.testing.assert_allclose(
            recovered * s2.intensity_gain + s2.intensity_offset, b, atol=1e-12
        )


def test_shift_invertibility_zero_noise():
    shift = DomainShift(intensity_gain=2.5, intensity_offset=-0.4, seed=7)
    base, _ = make_phantom(123, (16, 16))
    shifted = apply_shift(base, shift, 0)
    np.testing.assert_allclose(
        (shifted - shift.intensity_offset) / shift.intensity_gain, base, atol=1e-12
    )


def test_noise_sigma_monte_carlo_variance():
    shift = DomainShift(noise_sigma=0.5, seed=5)
    base, _ = make_phantom(9, (128, 128))  # >= 10^4 pixels
    shifted = apply_shift(base, shift, 0)
    residual = shifted - base
    assert np.var(residual) == pytest.approx(0.25, rel=0.10)


def test_masks_identical_across_domains():
    shifts = [DomainShift(intensity_gain=1.3, seed=1),
              DomainShift(intensity_gain=0.6, noise_sigma=0.4, seed=2)]
    d1, d2 = generate_domains(11, 2, 5, (16, 16), shifts)
    for m1, m2 in zip(d1.masks, d2.masks):
        np.testing.assert_array_equal(m1, m2)


def test_generator_deterministic_under_seed():
    a = generate_domains(21, 1, 2, (16, 16), [DomainShift(noise_sigma=0.2, seed=3)])
    b = generate_domains(21, 1, 2, (16, 16), [DomainShift(noise_sigma=0.2, seed=3)])
    for x, y in zip(a[0].images, b[0].images):
        np.testing.assert_array_equal(x, y)


def test_generate_domains_validation():
    with pytest.raises(ValueError, match="shifts"):
        generate_domains(0, 2, 2, (16, 16), [IDENTITY])
    with pytest.raises(ValueError, match="degenerate"):
        generate_domains(0, 1, 2, (2, 16), [IDENTITY])


def test_label_read_counter():
    ds = generate_domains(0, 1, 2, (16, 16), [IDENTITY])[0]
    assert ds.label_reads == 0
    _ = ds.masks
    _ = ds.masks
    assert ds.label_reads == 2
    assert ds.has_masks and ds.label_reads == 2  # presence peek is not a read
    unlabeled = ds.unlabeled_copy()
    assert not unlabeled.has_masks
    with pytest.raises(ValueError, match="no masks"):
        _ = unlabeled.masks


# -- NDR raster format ---------------------------------------------------------------


def test_raster_round_trip_f64(tmp_path):
    raster = np.random.default_rng(0).normal(size=(3, 5, 7))
    path = tmp_path / "r.ndr"
    write_raster(path, raster)
    np.testing.assert_array_equal(read_raster(path), raster)


def test_raster_round_trip_u8(tmp_path):
    raster = np.random.default_rng(1).integers(0, 3, size=(6, 6)).astype(np.uint8)
    path = tmp_path / "m.ndr"
    write_raster(path, raster)
    back = read_raster(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, raster)


def test_raster_file_size_formula(tmp_path):
    path = tmp_path / "z.ndr"
    write_raster(path, np.zeros((2, 2)))
    # magic 4 + dtype 1 + ndim 1 + dims 2*4 + payload 4*8
    assert path.stat().st_size == 4 + 1 + 1 + 8 + 32


def test_raster_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad.ndr"
    write_raster(path, np.zeros((2, 2)))
    blob = bytearray(path.read_bytes())
    blob[0] = 0x58
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="offset 0"):
        read_raster(path)


def test_raster_truncation_rejected(tmp_path):
    path = tmp_path / "t.ndr"
    write_raster(path, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ValueError, match="payload"):
        read_raster(path)


# -- manifest ---------------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    shift = DomainShift(intensity_gain=1.25, intensity_offset=0.5,
                        noise_sigma=0.1, bias_field_amplitude=0.05, seed=42)
    ds = generate_domains(5, 1, 2, (16, 16), [shift])[0]
    ddir = tmp_path / "siteX"
    ddir.mkdir()
    image_paths, mask_paths = [], []
    for i, (img, msk) in enumerate(zip(ds.images, ds.masks)):
        write_raster(ddir / f"img_{i:03d}.ndr", img)
        write_raster(ddir / f"msk_{i:03d}.ndr", msk)
        image_paths.append(f"siteX/img_{i:03d}.ndr")
        mask_paths.append(f"siteX/msk_{i:03d}.ndr")
    entry = ManifestEntry("siteX", "target", shift, image_paths, mask_paths)
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, [entry], base_seed=5, num_classes=2)

    header, entries = read_manifest(manifest)
    assert header["classes"] == "2"
    assert entries[0].role == "target"
    assert entries[0].shift == shift

    loaded = load_domain(manifest, entries[0], read_masks=True)
    for a, b in zip(loaded.images, ds.images):
        np.testing.assert_array_equal(a, b)

    no_masks = load_domain(manifest, entries[0], read_masks=False)
    assert not no_masks.has_masks


def test_dataset_shape_validation():
    with pytest.raises(ValueError, match="mask"):
        DomainDataset([np.zeros((1, 4, 4))], [np.zeros((5, 5), dtype=np.uint8)], "x")
    with pytest.raises(ValueError, match="images"):
        DomainDataset([np.zeros((1, 4, 4))], [], "x")
    with pytest.raises(ValueError, match=r"domain 'x': images of unequal shapes "
                                         r"\[\(1, 4, 4\), \(1, 5, 5\)\]"):
        DomainDataset([np.zeros((1, 4, 4)), np.zeros((1, 5, 5))], None, "x")
    with pytest.raises(ValueError, match=r"domain 'x': masks of unequal shapes "
                                         r"\[\(4, 4\), \(4, 5\)\]"):
        DomainDataset([np.zeros((1, 4, 4))] * 2, [np.zeros((4, 4)), np.zeros((4, 5))], "x")


def test_a_domain_holds_its_images_and_masks_as_one_array_each():
    """A list is stacked; an array of the right dtype is kept as given; each
    generated domain and each unlabeled copy owns its arrays."""
    listed = DomainDataset([np.ones((1, 4, 4))] * 3, [np.ones((4, 4))] * 3, "x")
    assert listed.images.shape == (3, 1, 4, 4) and listed.images.dtype == np.float64
    assert listed.masks.shape == (3, 4, 4) and listed.masks.dtype == np.uint8
    images, masks = np.zeros((2, 1, 4, 4)), np.zeros((2, 4, 4), dtype=np.uint8)
    given = DomainDataset(images, masks, "y")
    assert given.images is images and given.masks is masks
    first, second = generate_domains(0, 2, 3, (16, 16), [IDENTITY, IDENTITY])
    assert np.array_equal(first.masks, second.masks)
    assert not np.shares_memory(first.masks, second.masks)
    assert not np.shares_memory(first.images, second.images)
    assert not np.shares_memory(first.unlabeled_copy().images, first.images)


def test_a_pickled_domain_keeps_its_arrays_and_label_reads():
    """A node pool sends a domain pickled image by image; it arrives whole."""
    ds = generate_domains(2, 1, 3, (16, 16), [IDENTITY])[0]
    masks = ds.masks
    back = pickle.loads(pickle.dumps(ds))
    assert (back.domain_id, back.label_reads) == (ds.domain_id, 1)
    assert back.images.dtype == np.float64 and np.array_equal(back.images, ds.images)
    assert back.masks.dtype == np.uint8 and np.array_equal(back.masks, masks)
    assert not pickle.loads(pickle.dumps(ds.unlabeled_copy())).has_masks


def test_the_hash_of_a_stack_is_that_of_its_image_list():
    """Runs written when a domain was a list of images keep their target_hash."""
    ds = generate_domains(3, 1, 5, (16, 16), [DomainShift(noise_sigma=0.1, seed=4)])[0]
    assert hash_images(ds.images) == hash_images(list(ds.images))
