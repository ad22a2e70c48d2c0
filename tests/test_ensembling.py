"""Confidence weights, aggregation, the vote baselines, and incremental
source addition, exercised with fixed probability stacks and stub models."""

import tracemalloc

import numpy as np
import pytest

from fedseg.ensembling import (EnsembleWeights, add_source, aggregate,
                               average_vote, compute_weights, popular_vote,
                               stack_probs)
from fedseg.network import NetConfig, SegModel
from helpers import aggregate_reference, average_vote_reference, popular_vote_reference


class StubModel:
    """Model stand-in returning preset per-pixel class probabilities."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def predict_probs(self, images):
        return self.probs


def confident_stub(n_pixels_confident, total=40, peak=0.95, low=0.6):
    """Binary-class stub confident (peak prob) on exactly n pixels of a row."""
    p1 = np.full((1, total), low)
    p1[0, :n_pixels_confident] = peak
    return StubModel(np.stack([1.0 - p1, p1], axis=1))  # (1, 2, total)


IMAGES = np.zeros((1, 1, 40))  # stubs ignore the pixels


def test_single_model_weight_is_one():
    w = compute_weights([confident_stub(12)], IMAGES, lambda_conf=0.9)
    assert w.weights == [1.0]
    assert not w.uniform_fallback


def test_known_confident_counts_30_10():
    models = [confident_stub(30), confident_stub(10)]
    w = compute_weights(models, IMAGES, lambda_conf=0.9)
    assert w.raw_counts == [30, 10]
    assert w.weights == [0.75, 0.25]


def test_all_counts_zero_falls_back_uniform():
    models = [confident_stub(0, peak=0.7), confident_stub(0, peak=0.7)]
    w = compute_weights(models, IMAGES, lambda_conf=0.99)
    assert w.raw_counts == [0, 0]
    assert w.weights == [0.5, 0.5]
    assert w.uniform_fallback


def test_weight_validation():
    with pytest.raises(ValueError, match="lambda"):
        compute_weights([confident_stub(5)], IMAGES, lambda_conf=1.5)
    with pytest.raises(ValueError, match="at least one"):
        compute_weights([], IMAGES, lambda_conf=0.5)
    with pytest.raises(ValueError, match="empty"):
        compute_weights([confident_stub(5)], np.zeros((0,)), lambda_conf=0.5)


def test_aggregate_two_models_hand_arithmetic():
    a = np.array([[[0.9], [0.1]]])  # (1 image, 2 classes, 1 pixel)
    b = np.array([[[0.1], [0.9]]])
    weights = EnsembleWeights([30, 10], [0.75, 0.25], 0.5)
    out = aggregate(np.stack([a, b]), weights)
    np.testing.assert_allclose(out.probs[0, :, 0], [0.7, 0.3], atol=1e-15)
    assert out.mask[0, 0] == 0


def test_aggregate_identical_models_is_identity():
    probs = np.random.default_rng(0).dirichlet(np.ones(3), size=(2, 4)).transpose(0, 2, 1)
    weights = EnsembleWeights([1, 1, 1], [1 / 3] * 3, 0.5)
    out = aggregate(np.stack([probs] * 3), weights)
    np.testing.assert_allclose(out.probs, probs, atol=1e-12)


def test_aggregate_one_hot_weights_select_model():
    a = np.array([[[0.9], [0.1]]])
    b = np.array([[[0.2], [0.8]]])
    weights = EnsembleWeights([5, 0], [1.0, 0.0], 0.5)
    out = aggregate(np.stack([a, b]), weights)
    np.testing.assert_array_equal(out.probs, a)


def test_aggregate_stays_on_simplex():
    rng = np.random.default_rng(3)
    probs = np.stack([rng.dirichlet(np.ones(4), size=(2, 9)).transpose(0, 2, 1)
                      for _ in range(3)])
    w = rng.dirichlet(np.ones(3))
    weights = EnsembleWeights([1, 1, 1], list(w), 0.5)
    out = aggregate(probs, weights)
    assert out.probs.min() >= 0
    np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)


def test_aggregate_length_mismatch():
    weights = EnsembleWeights([1], [1.0], 0.5)
    probs = stack_probs([confident_stub(1), confident_stub(2)], IMAGES)
    with pytest.raises(ValueError, match="weights"):
        aggregate(probs, weights)


def test_scale_free_weights():
    counts = np.array([12, 4, 8])
    small = counts / counts.sum()
    big = (counts * 1000) / (counts * 1000).sum()
    np.testing.assert_allclose(small, big, atol=1e-15)


def test_popular_vote_rules():
    agree = np.stack([np.array([[[0.1], [0.9]]])] * 3)
    assert popular_vote(agree)[0, 0] == 1

    majority = np.array([[[[0.9], [0.1]]], [[[0.8], [0.2]]], [[[0.1], [0.9]]]])
    assert popular_vote(majority)[0, 0] == 0


def test_popular_vote_tie_reproducible_under_seed():
    tied = np.array([[[[0.9], [0.1]]], [[[0.1], [0.9]]]])
    first = popular_vote(tied, seed=5)
    again = popular_vote(tied, seed=5)
    np.testing.assert_array_equal(first, again)
    assert first[0, 0] in (0, 1)
    # across many pixels both labels occur under some seed
    votes = popular_vote(np.tile(tied, (1, 1, 1, 50)), seed=5)
    assert set(np.unique(votes)) == {0, 1}


def test_average_vote_equals_uniform_aggregate():
    a = np.array([[[0.9], [0.1]]])
    b = np.array([[[0.1], [0.9]]])
    out = average_vote(np.stack([a, b]), seed=3)
    np.testing.assert_allclose(out.probs[0, :, 0], [0.5, 0.5], atol=1e-15)
    assert out.mask[0, 0] in (0, 1)
    single = average_vote(a[None])
    np.testing.assert_array_equal(single.probs, a)


def test_add_source_hand_normalization():
    models = [confident_stub(30), confident_stub(10)]
    w = compute_weights(models, IMAGES, lambda_conf=0.9)
    updated = add_source(models, w, confident_stub(40), IMAGES)
    assert updated.raw_counts == [30, 10, 40]
    assert updated.weights == [0.375, 0.125, 0.5]


def test_add_source_duplicate_model_same_count():
    models = [confident_stub(25)]
    w = compute_weights(models, IMAGES, lambda_conf=0.9)
    updated = add_source(models, w, confident_stub(25), IMAGES)
    assert updated.raw_counts == [25, 25]


def test_add_source_never_confident_model_gets_zero():
    models = [confident_stub(30), confident_stub(10)]
    w = compute_weights(models, IMAGES, lambda_conf=0.9)
    updated = add_source(models, w, confident_stub(0, peak=0.7), IMAGES)
    assert updated.weights[2] == 0.0
    assert updated.weights[0] / updated.weights[1] == pytest.approx(3.0)


def test_add_source_target_mismatch_rejected():
    models = [confident_stub(30)]
    w = compute_weights(models, IMAGES, lambda_conf=0.9)
    with pytest.raises(ValueError, match="target image set"):
        add_source(models, w, confident_stub(5), np.ones((1, 1, 40)))


def test_jensen_inequality_on_random_stubs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(n_classes), size=k)
        w = rng.dirichlet(np.ones(k))
        y = int(rng.integers(0, n_classes))
        mixture = (w[:, None] * probs).sum(axis=0)
        lhs = -np.log(mixture[y])
        rhs = float((w * (-np.log(probs[:, y]))).sum())
        assert lhs <= rhs + 1e-12



def test_stack_probs_equals_the_stack_of_each_models_probabilities():
    """The stack allocated once holds each model's predict_probs, and each
    model's latent field of that pass, over several inference slices."""
    models = [SegModel(NetConfig(), seed=s) for s in (1, 2)]
    images = np.random.default_rng(3).normal(size=(37, 1, 16, 16))
    latents = []
    stacked = stack_probs(models, images, latents)
    singles = [[] for _ in models]
    expected = np.stack([m.predict_probs(images, z) for m, z in zip(models, singles)])
    assert np.array_equal(stacked, expected)
    assert len(latents) == len(models)
    for z, [ref] in zip(latents, singles):
        assert np.array_equal(z, ref)


def random_stacks(case, count=60):
    """(probs, weights) of 1-5 models, 2-3 classes and 0-2 spatial axes:
    distinct probabilities, probabilities on a grid of halves (exact ties
    in the mean and in the votes), or distinct ones with a NaN."""
    rng = np.random.default_rng(len(case))
    for _ in range(count):
        k, n_classes = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        spatial = tuple(int(s) for s in rng.integers(1, 6, size=int(rng.integers(0, 3))))
        if case == "ties":
            probs = rng.integers(0, 3, size=(k, 3, n_classes) + spatial) / 2.0
        else:
            probs = np.moveaxis(rng.dirichlet(np.ones(n_classes), size=(k, 3) + spatial), -1, 2)
        probs = np.ascontiguousarray(probs)
        if case == "nan":
            probs.flat[int(rng.integers(probs.size))] = np.nan
        yield probs, EnsembleWeights([1] * k, list(rng.dirichlet(np.ones(k))), 0.5)


@pytest.mark.parametrize("case", ["distinct", "ties", "nan"])
def test_ensemble_modes_equal_the_whole_stack_formulas(case):
    """Streaming over the models gives the bits of the formulas over the
    whole stack: every mode at two seeds, on both branches of the tie-break.
    The votes of an even number of models tie in every case; the mean ties
    only in the tie case, where the two seeds then draw different masks."""
    seeds_differ = False
    for probs, weights in random_stacks(case):
        out, ref = aggregate(probs, weights), aggregate_reference(probs, weights)
        assert np.array_equal(out.probs, ref.probs, equal_nan=True)
        assert np.array_equal(out.mask, ref.mask)
        masks = []
        for seed in (0, 3):
            out, ref = average_vote(probs, seed), average_vote_reference(probs, seed)
            assert np.array_equal(out.probs, ref.probs, equal_nan=True)
            assert np.array_equal(out.mask, ref.mask)
            votes = popular_vote(probs, seed)
            assert votes.dtype == np.intp
            assert np.array_equal(votes, popular_vote_reference(probs, seed))
            masks.append(out.mask)
        seeds_differ |= not np.array_equal(*masks)
    assert seeds_differ == (case == "ties")


@pytest.mark.parametrize("mode", ["aggregate", "average_vote", "popular_vote"])
def test_ensemble_mode_memory_does_not_grow_with_the_model_count(mode):
    """Each mode adds one model at a time into a buffer of one model's size:
    its tracemalloc peak, net of the stack it is given, is the same for 6
    models as for 2 (both even, so the votes tie and take the jitter)."""
    peaks = []
    for k in (2, 6):
        rng = np.random.default_rng(k)
        probs = np.ascontiguousarray(
            np.moveaxis(rng.dirichlet(np.ones(2), size=(k, 16, 32, 32)), -1, 2))
        run = {"aggregate": lambda: aggregate(probs, EnsembleWeights.from_counts([1] * k, 0.5)),
               "average_vote": lambda: average_vote(probs),
               "popular_vote": lambda: popular_vote(probs)}[mode]
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks

