"""Sliced squared 2-Wasserstein distance between embedding batches.

The estimate averages, over L random unit directions, the exact 1D squared
Wasserstein distance between the projected point sets: project both batches
onto each direction, sort both projected lists, pair by rank, and average
the squared gaps. For equal batch sizes the rank pairing is exact; unequal
sizes are matched by interpolating the smaller sorted list at the larger
list's quantile positions: each position mixes the two ranks around it, a
gather of two rows (and a scatter of the gradient back to them), never a
dense interpolation matrix.

swd2 runs one loop over blocks of directions (_SWD_BLOCK elements a side, at
least 2 directions, the last block never 1 of several), whether or not the
call records a graph. Per block and side it projects the points, sorts the
projections, interpolates the smaller side at the quantile ranks, and writes
the gaps into one (n, L) buffer, so a bound's 12288-code clouds never hold
their whole (n, L) projections. A call without a graph sorts the projections
in place and squares the gaps in place before it sums them once. A call that
records one keeps each side's (M, L) sorting order and the gaps: the node's
closed-form gradient holds the permutation locally constant, 2/(L n) times
the gaps, mapped back through the interpolation where there is one,
unsorted, and taken to each side's points by one GEMM with the directions.
Its ranks are those of a stable sort, so tied projections pair in index
order; an unstable argsort and an int64 sort of (run of equal values, index)
keys give them in half the time. Sorting in place gives the same values, so
both calls give the same sum of squared gaps bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _accumulate, _make, _recording, as_tensor


@dataclass(frozen=True)
class ProjectionSet:
    """L unit directions in R^d, reproducible from the stored seed."""

    count: int
    directions: np.ndarray  # (L, d), rows have unit norm
    seed: int

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


@dataclass
class EmbeddingBatch:
    """M latent codes of dimension d plus the tag of the originating domain."""

    points: Tensor  # (M, d)
    domain_tag: str = ""

    def __post_init__(self):
        self.points = as_tensor(self.points)
        if self.points.ndim != 2:
            raise ValueError(f"embedding batch must be 2-D, got shape {self.points.shape}")
        if self.points.shape[0] < 1:
            raise ValueError("embedding batch is empty")
        if not np.all(np.isfinite(self.points.data)):
            raise ValueError("embedding batch contains non-finite values")

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_projections(L: int, d: int, seed: int) -> ProjectionSet:
    """Draw L directions uniformly on the unit sphere in R^d."""
    if L < 1 or d < 1:
        raise ValueError(f"need L >= 1 and d >= 1, got L={L}, d={d}")
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((L, d))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    while np.any(norms < 1e-12):  # essentially impossible, but stay total
        bad = norms[:, 0] < 1e-12
        vecs[bad] = rng.standard_normal((bad.sum(), d))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return ProjectionSet(count=L, directions=vecs / norms, seed=seed)


def _quantile_weights(m: int, n: int):
    """Linear interpolation of m sorted values at n > m rank positions.

    Row i reads the sorted list at fractional index i * (m-1) / (n-1):
    (1 - frac[i]) times row lo[i] plus frac[i] times row hi[i]. Returns
    (lo, hi, frac), frac as an (n, 1) column.
    """
    pos = np.linspace(0.0, m - 1.0, n)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, m - 1)
    return lo, hi, (pos - lo)[:, None]


def _scatter_rows(rows, g, m: int) -> np.ndarray:
    """(m, L) sums of g's rows by their target row: the backward of g's
    gather from an m-row array."""
    out = np.zeros((m,) + g.shape[1:])
    np.add.at(out, rows, g)
    return out


def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """np.argsort(x, axis=0, kind="stable") of a 2-D array, from one
    unstable argsort and two sorts, which take half its time.

    Equal values (-0.0 == 0.0, and all NaNs, which sort last) are adjacent
    in any sorted order, so the runs of equal values sit at the same
    positions of the sorted values and of the unstable order. Sorting the
    keys (run number << bits) | index puts each run in index order, as a
    stable sort keeps it.
    """
    bits = max(len(x) - 1, 1).bit_length()
    ordered = np.sort(x, axis=0)
    keys = np.empty(x.shape, dtype=np.int64)
    keys[0] = 0
    keys[1:] = ordered[1:] != ordered[:-1]  # 1 where a run begins
    if np.isnan(ordered[-1]).any():  # NaN != NaN, but the NaNs form one run
        keys[1:] &= ordered[:-1] == ordered[:-1]
    del ordered
    np.cumsum(keys, axis=0, out=keys)
    keys <<= bits
    keys |= np.argsort(x, axis=0)
    keys.sort(axis=0)
    keys &= (1 << bits) - 1
    return keys


# Elements per direction block of swd2: a block's projections take 512 KiB
# a side (more above 32768 codes, where a block is 2 directions wide). A
# training step's (256, 50) is one block; the bound over 192 images of 64
# sites (12288 codes a side, L = 50) takes ten.
_SWD_BLOCK = 1 << 16


def swd2(a: EmbeddingBatch, b: EmbeddingBatch, proj: ProjectionSet) -> Tensor:
    """Sliced squared 2-Wasserstein distance as a differentiable scalar."""
    if a.dim != b.dim:
        raise ValueError(f"embedding dimensions differ: {a.dim} vs {b.dim}")
    if proj.dim != a.dim:
        raise ValueError(f"projection dimension {proj.dim} != embedding dimension {a.dim}")
    n = max(a.count, b.count)
    scale = 1.0 / (proj.count * n)
    parents = (a.points, b.points)
    quantiles = [None if p.shape[0] == n else _quantile_weights(p.shape[0], n)
                 for p in parents]
    recording = _recording(parents)
    orders = [np.empty((p.shape[0], proj.count), dtype=np.intp) if recording else None
              for p in parents]
    gaps = np.empty((n, proj.count))
    # no block is 1 direction of several: OpenBLAS projects one by a GEMV,
    # which rounds otherwise than the GEMM; a lone last one joins the block before
    cuts = list(range(0, max(proj.count - 1, 1), max(2, _SWD_BLOCK // n))) + [proj.count]
    for cols in map(slice, cuts, cuts[1:]):
        block = proj.directions[cols].T
        matched = []
        for points, order, q in zip(parents, orders, quantiles):
            x = points.data @ block  # (M, width) projections
            if order is None:
                x.sort(axis=0)
            else:
                order[:, cols] = _stable_argsort(x)
                x = np.take_along_axis(x, order[:, cols], axis=0)
            if q is not None:
                lo, hi, frac = q
                x = x[lo] * (1.0 - frac) + x[hi] * frac
            matched.append(x)
        np.subtract(*matched, out=gaps[:, cols])
    if not recording:
        gaps *= gaps
        return Tensor(gaps.sum() * scale)

    def back(g):
        g_a = (g * scale) * gaps
        g_a += g_a  # the two factors of gaps * gaps contribute one term each
        for points, order, q, g_sorted in zip(parents, orders, quantiles, (g_a, -g_a)):
            if q is not None:
                lo, hi, frac = q
                m = len(order)
                g_sorted = (_scatter_rows(lo, g_sorted * (1.0 - frac), m)
                            + _scatter_rows(hi, g_sorted * frac, m))
            g_points = np.empty(order.shape)
            np.put_along_axis(g_points, order, g_sorted, axis=0)
            _accumulate(points, g_points @ proj.directions)

    return _make((gaps * gaps).sum() * scale, parents, back)


def exact_w2_1d(a, b) -> float:
    """Exact squared 2-Wasserstein distance between two 1D empirical measures.

    Equals the minimum over all permutation couplings of the mean squared
    transport cost, attained by matching sorted ranks.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("empty input")
    return float(np.mean((np.sort(a) - np.sort(b)) ** 2))
