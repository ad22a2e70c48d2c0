"""Synthetic multi-site data: paired phantoms, intensity shifts and the
raster file format.

Each domain mimics one acquisition site. All sites share the same blob
phantoms and ground-truth masks; only the intensity mapping changes (affine
gain/offset, optional noise and a smooth multiplicative bias field), so
label geometry is identical across domains while appearance shifts.
"""

import os
import tempfile

import numpy as np

from fedseg.data import DomainShift, generate_domains, read_raster, write_raster

shifts = [
    DomainShift(intensity_gain=1.0, intensity_offset=0.0, seed=1),
    DomainShift(intensity_gain=1.6, intensity_offset=0.3, noise_sigma=0.05, seed=2),
    DomainShift(intensity_gain=0.25, intensity_offset=0.55, seed=3),
]
site_a, site_b, site_t = generate_domains(
    base_seed=0, n_domains=3, images_per_domain=4, shape=(32, 32), shifts=shifts)

print("intensity ranges per site (same anatomy, different scanner):")
for ds in (site_a, site_b, site_t):  # each site's images are one (N, 1, 32, 32) stack
    print(f"  {ds.domain_id}: [{ds.images.min():+.2f}, {ds.images.max():+.2f}]")

print("masks identical across sites:", np.array_equal(site_a.masks, site_t.masks))

# Rasters round-trip bit-exactly through the NDR format.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "image.ndr")
    write_raster(path, site_a.images[0])
    back = read_raster(path)
    print(f"\nNDR round trip bit-exact: {np.array_equal(back, site_a.images[0])} "
          f"({os.path.getsize(path)} bytes on disk)")
