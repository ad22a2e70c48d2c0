"""Confidence weights, aggregation, the vote baselines, and incremental
source addition, exercised with fixed probability stacks and stub models."""

import numpy as np
import pytest

from fedseg.ensembling import (EnsembleWeights, add_source, aggregate,
                               average_vote, compute_weights, popular_vote,
                               stack_probs)
from fedseg.network import NetConfig, SegModel


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
