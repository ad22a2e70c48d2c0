"""Projection sampling, the sliced distance, and the exact 1D oracle."""

import itertools

import numpy as np
import pytest

from fedseg import sliced
from fedseg.autodiff import Tensor, no_grad
from fedseg.sliced import (EmbeddingBatch, ProjectionSet, _stable_argsort, exact_w2_1d,
                           sample_projections, swd2)
from helpers import gradient_check, swd2_graph


def batch(points, tag="", requires_grad=False):
    return EmbeddingBatch(Tensor(np.asarray(points, dtype=np.float64),
                                 requires_grad=requires_grad), domain_tag=tag)


def brute_force_w2(a, b):
    """Minimum mean squared cost over all permutation couplings."""
    a, b = np.asarray(a), np.asarray(b)
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        best = min(best, float(np.mean((a - b[list(perm)]) ** 2)))
    return best


def test_projection_1d_is_sign():
    proj = sample_projections(1, 1, seed=0)
    assert proj.directions.shape == (1, 1)
    assert abs(abs(proj.directions[0, 0]) - 1.0) < 1e-12


def test_projections_unit_norm():
    proj = sample_projections(50, 8, seed=3)
    np.testing.assert_allclose(np.linalg.norm(proj.directions, axis=1), 1.0, atol=1e-9)


def test_projections_reproducible_from_seed():
    a = sample_projections(20, 5, seed=99)
    b = sample_projections(20, 5, seed=99)
    np.testing.assert_array_equal(a.directions, b.directions)


def test_projection_argument_validation():
    with pytest.raises(ValueError):
        sample_projections(0, 4, seed=0)
    with pytest.raises(ValueError):
        sample_projections(4, 0, seed=0)


@pytest.mark.parametrize("width", [None, 1, 3],
                         ids=["one-block", "column-blocks", "ragged-blocks"])
@pytest.mark.parametrize("case", ["ties", "signed-zeros", "duplicate-rows", "nan-inf",
                                  "one-row", "256x50"])
def test_stable_argsort_equals_numpy_stable_argsort(case, width):
    """The sort behind swd2's rank matching gives np.argsort(axis=0,
    kind="stable") index for index, ties and equal zeros in index order,
    of a whole array and of the column blocks swd2 sorts one at a time."""
    rng = np.random.default_rng(len(case))
    x = rng.integers(-3, 4, size=(40, 7)).astype(np.float64)
    if case == "signed-zeros":
        x[rng.random(x.shape) < 0.5] = -0.0
        x[x == 0] *= rng.choice([-1.0, 1.0], size=(x == 0).sum())
    elif case == "duplicate-rows":
        x[1::2] = x[::2]
        x[-5:] = x[0]
    elif case == "nan-inf":
        x[rng.random(x.shape) < 0.2] = np.nan
        x[rng.random(x.shape) < 0.1] = -np.inf
        x[rng.random(x.shape) < 0.1] = np.inf
    elif case == "one-row":
        x = x[:1]
    elif case == "256x50":  # a default adapt step's projections, rounded into ties
        x = np.round(rng.normal(size=(256, 50)), 1)
    width = width or x.shape[1]
    blocks = [_stable_argsort(x[:, lo:lo + width]) for lo in range(0, x.shape[1], width)]
    np.testing.assert_array_equal(np.concatenate(blocks, axis=1),
                                  np.argsort(x, axis=0, kind="stable"))


def test_swd2_identical_batches_zero():
    pts = np.random.default_rng(0).normal(size=(10, 4))
    proj = sample_projections(25, 4, seed=1)
    assert swd2(batch(pts), batch(pts), proj).item() == 0.0


def test_swd2_hand_example_d1():
    proj = ProjectionSet(count=1, directions=np.array([[1.0]]), seed=0)
    out = swd2(batch([[0.0], [1.0]]), batch([[2.0], [3.0]]), proj)
    assert out.item() == pytest.approx(4.0, abs=1e-12)
    assert out.item() == pytest.approx(exact_w2_1d([0, 1], [2, 3]), abs=1e-12)


def test_swd2_symmetry_exact():
    rng = np.random.default_rng(5)
    a, b = batch(rng.normal(size=(8, 3))), batch(rng.normal(size=(8, 3)))
    proj = sample_projections(10, 3, seed=2)
    assert swd2(a, b, proj).item() == swd2(b, a, proj).item()


def test_swd2_translation_covariance():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(9, 4))
    b = rng.normal(size=(9, 4))
    shift = rng.normal(size=4)
    proj = sample_projections(20, 4, seed=3)
    base = swd2(batch(a), batch(b), proj).item()
    moved = swd2(batch(a + shift), batch(b + shift), proj).item()
    assert moved == pytest.approx(base, abs=1e-9)


def test_swd2_dimension_mismatch_rejected():
    proj = sample_projections(4, 3, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        swd2(batch(np.ones((4, 3))), batch(np.ones((4, 2))), proj)
    with pytest.raises(ValueError, match="dimension"):
        swd2(batch(np.ones((4, 2))), batch(np.ones((4, 2))), proj)


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty|2-D"):
        batch(np.zeros((0, 3)))


def test_swd2_matches_exact_1d_oracle():
    rng = np.random.default_rng(8)
    proj = ProjectionSet(count=1, directions=np.array([[1.0]]), seed=0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, 1))
        b = rng.normal(size=(n, 1))
        got = swd2(batch(a), batch(b), proj).item()
        assert got == pytest.approx(exact_w2_1d(a.ravel(), b.ravel()), abs=1e-12)


def test_exact_w2_equals_brute_force_minimum():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        exact = exact_w2_1d(a, b)
        assert exact == pytest.approx(brute_force_w2(np.sort(a), np.sort(b)), abs=1e-12)
        # every permutation coupling costs at least the rank matching
        for perm in itertools.permutations(range(n)):
            cost = float(np.mean((np.sort(a) - np.sort(b)[list(perm)]) ** 2))
            assert exact <= cost + 1e-12


def test_exact_w2_trivial_cases():
    assert exact_w2_1d([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert exact_w2_1d([0.0], [5.0]) == 25.0
    with pytest.raises(ValueError, match="mismatch"):
        exact_w2_1d([1.0], [1.0, 2.0])


def test_swd2_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    proj = sample_projections(12, 4, seed=7)

    def f():
        return swd2(EmbeddingBatch(a), EmbeddingBatch(b), proj)

    assert gradient_check(f, [a, b]) < 1e-4


def test_swd2_gradient_unequal_sizes():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    proj = sample_projections(9, 3, seed=8)

    def f():
        return swd2(EmbeddingBatch(a), EmbeddingBatch(b), proj)

    assert gradient_check(f, [a, b]) < 1e-4


def test_unequal_sizes_reduce_to_rank_matching_when_equal():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(7, 2))
    b = rng.normal(size=(7, 2))
    proj = sample_projections(6, 2, seed=9)
    direct = swd2(batch(a), batch(b), proj).item()
    assert direct >= 0.0
    # quantile path on equal sizes is the identity interpolation
    assert swd2(batch(a), batch(b), proj).item() == direct


def test_monte_carlo_variance_shrinks_with_more_projections():
    rng = np.random.default_rng(14)
    a = batch(rng.normal(size=(20, 6)))
    b = batch(rng.normal(loc=0.5, size=(20, 6)))
    variances = []
    for L in (1, 25, 50, 250):
        vals = [swd2(a, b, sample_projections(L, 6, seed=s)).item()
                for s in range(40)]
        variances.append(np.var(vals))
    assert variances[0] > variances[1] > variances[2] > variances[3]


def clouds(case):
    """Two point clouds of 16-dim codes: random, rectified (many exact
    zeros, so many tied projections), or of unequal sizes (the quantile
    path); a bound's 12288 codes per side (192 images of 64 sites), or 3072
    against 768."""
    rng = np.random.default_rng(len(case))
    sizes = {"unequal": (48, 80), "large": (12288, 12288),
             "large-unequal": (3072, 768)}.get(case, (64, 64))
    a, b = (rng.normal(size=(m, 16)) for m in sizes)
    if case == "relu-ties":
        a, b = np.maximum(a - 0.8, 0.0), np.maximum(b - 0.5, 0.0)
        a[::3] = 0.0  # whole rows of zeros: every direction ties them
    return a, b


@pytest.mark.parametrize("case", ["random", "relu-ties", "unequal", "large",
                                  "large-unequal"])
def test_swd2_value_without_a_graph_equals_the_value_with_one(case):
    """The value path sorts in place, the graph path gathers by the stable
    argsort: the same sorted values, so the same bits. The large clouds
    take the value path through several blocks of directions, the last one
    short in the unequal case."""
    a, b = clouds(case)
    proj = sample_projections(50, 16, seed=4)
    with_graph = swd2(batch(a, requires_grad=True), batch(b, requires_grad=True), proj)
    assert with_graph.requires_grad
    with no_grad():
        no_graph = swd2(batch(a, requires_grad=True), batch(b, requires_grad=True), proj)
    plain = swd2(batch(a), batch(b), proj)
    assert not no_graph.requires_grad and not plain.requires_grad
    assert no_graph.item() == with_graph.item() == plain.item()


def assert_node_equals_graph(a, b, proj):
    """swd2 and swd2_graph give the same value and the same gradients, bit
    for bit, scaled by an upstream factor."""
    grads = []
    for fn in (swd2, swd2_graph):
        pa, pb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = fn(EmbeddingBatch(pa), EmbeddingBatch(pb), proj)
        (out * 2.5).backward()
        grads.append((out.item(), pa.grad, pb.grad))
    (value, ga, gb), (ref_value, ref_a, ref_b) = grads
    assert value == ref_value
    np.testing.assert_array_equal(ga, ref_a)
    np.testing.assert_array_equal(gb, ref_b)


@pytest.mark.parametrize("case", ["random", "relu-ties", "unequal"])
def test_swd2_node_gradients_equal_the_graph_gradients(case):
    """The one node's closed-form backward gives the gradients, and the
    value, of the graph of autodiff ops it replaced, bit for bit, also
    scaled by an upstream factor."""
    assert_node_equals_graph(*clouds(case), sample_projections(50, 16, seed=5))


@pytest.mark.parametrize("width", [3, 12], ids=["3-wide", "12-wide"])
@pytest.mark.parametrize("case", ["random", "relu-ties", "unequal"])
def test_swd2_over_several_direction_blocks_equals_the_graph(case, width, monkeypatch):
    """A call that records a graph sorts one block of directions at a time
    and keeps each side's order in one array; the value and both gradients
    equal those of the graph over all 50 directions at once, bit for bit,
    the last block short. (Not one direction short: OpenBLAS projects a
    one-column block by a matrix-vector product, whose rounding differs.)"""
    a, b = clouds(case)
    monkeypatch.setattr(sliced, "_SWD_BLOCK", width * max(len(a), len(b)))
    assert_node_equals_graph(a, b, sample_projections(50, 16, seed=5))


@pytest.mark.parametrize("n", [1320, 40000])
def test_swd2_takes_no_block_of_one_direction(n, monkeypatch):
    """50 directions in blocks of _SWD_BLOCK // n would end in a lone one at
    1320 codes (49 + 1) and be all lone ones above 32768 codes. OpenBLAS
    projects a one-column block by a matrix-vector product, which rounds
    otherwise than the GEMM, so these clouds then read an ulp off. With and
    without a graph, the value equals that of one block of all 50."""
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(n, 16)), rng.normal(loc=0.3, size=(n, 16))
    proj = sample_projections(50, 16, seed=0)
    blocked = [swd2(batch(a), batch(b), proj).item(),
               swd2(batch(a, requires_grad=True), batch(b, requires_grad=True), proj).item()]
    monkeypatch.setattr(sliced, "_SWD_BLOCK", 1 << 40)
    assert blocked == [swd2(batch(a), batch(b), proj).item()] * 2


def test_swd2_gradient_reaches_only_the_side_that_needs_it():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    b = rng.normal(size=(9, 3))
    proj = sample_projections(5, 3, seed=6)
    swd2(EmbeddingBatch(a), batch(b), proj).backward()
    ref = Tensor(a.data.copy(), requires_grad=True)
    swd2_graph(EmbeddingBatch(ref), batch(b), proj).backward()
    np.testing.assert_array_equal(a.grad, ref.grad)


@pytest.mark.parametrize("case", ["unequal", "large-unequal"])
def test_swd2_quantile_gather_equals_the_dense_matrix(case):
    """The interpolation of the smaller side, a gather of two rows per rank
    with the gradient scattered back, gives the value and the gradients of
    the dense (n, m) quantile matrix it replaced, to rounding."""
    a, b = clouds(case)
    proj = sample_projections(50, 16, seed=5)
    results = []
    for fn in (swd2, lambda *args: swd2_graph(*args, dense=True)):
        pa, pb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = fn(EmbeddingBatch(pa), EmbeddingBatch(pb), proj)
        out.backward()
        results.append((out.item(), pa.grad, pb.grad))
    (value, ga, gb), (ref_value, ref_a, ref_b) = results
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    for g, ref in ((ga, ref_a), (gb, ref_b)):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
