"""Shape contracts, the encoder/classifier decomposition, the pixel-wise
cross-entropy, and gradient checks for the segmentation network."""

import tracemalloc

import numpy as np
import pytest

from fedseg.autodiff import Tensor, mul, no_grad, softmax, tsum
from fedseg.data import DomainDataset
from fedseg.evaluation import mean_ce
from fedseg.network import NetConfig, SegModel, ce_loss, embed, sample_sites
from helpers import gradient_check, sample_sites_graph

SMALL = NetConfig(spatial_rank=2, in_channels=1, num_classes=2, depth=1,
                  base_width=3, latent_dim=4)
DEFAULT = NetConfig()


def test_output_shape_contract():
    model = SegModel(DEFAULT, seed=1)
    x = np.random.default_rng(0).normal(size=(1, 1, 16, 16))
    logits = model.forward(Tensor(x))
    assert logits.shape == (1, 2, 16, 16)


def test_zeroed_head_gives_uniform_softmax():
    model = SegModel(DEFAULT, seed=2)
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    x = np.random.default_rng(1).normal(size=(2, 1, 16, 16))
    probs = softmax(model.forward(Tensor(x)), axis=1).data
    np.testing.assert_allclose(probs, 0.5, atol=1e-12)


def test_identical_images_identical_logits():
    model = SegModel(DEFAULT, seed=3)
    img = np.random.default_rng(2).normal(size=(1, 16, 16))
    logits = model.forward(Tensor(np.stack([img, img]))).data
    np.testing.assert_array_equal(logits[0], logits[1])


def test_forward_is_classify_of_encode():
    model = SegModel(DEFAULT, seed=4)
    x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 16, 16)))
    direct = model.forward(x).data
    via_latent = model.classify(model.encode(x)).data
    np.testing.assert_array_equal(direct, via_latent)


def test_decomposition_holds_with_and_without_skips():
    for skips in (True, False):
        cfg = NetConfig(depth=2, base_width=4, latent_dim=8, skip_connections=skips)
        model = SegModel(cfg, seed=5)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 1, 16, 16)))
        np.testing.assert_array_equal(
            model.forward(x).data, model.classify(model.encode(x)).data
        )


def test_input_validation():
    model = SegModel(DEFAULT, seed=0)
    with pytest.raises(ValueError, match="shape"):
        model.forward(Tensor(np.zeros((1, 2, 16, 16))))  # wrong channels
    with pytest.raises(ValueError, match="divisible"):
        model.forward(Tensor(np.zeros((1, 1, 15, 15))))


def test_net_config_refuses_more_classes_than_a_uint8_label_holds():
    """Label maps are uint8, so 256 classes is the most a net may have; the
    message starts with the field, as the CLI's messages expect."""
    assert NetConfig(num_classes=256).num_classes == 256
    with pytest.raises(ValueError, match="^num_classes must be <= 256, got 257$"):
        NetConfig(num_classes=257)


def test_embed_shape_and_determinism():
    cfg = NetConfig(depth=2, base_width=4, latent_dim=8)
    model = SegModel(cfg, seed=6)
    x = Tensor(np.random.default_rng(5).normal(size=(3, 1, 32, 32)))
    out = embed(model, x, n_sites=4, seed=11, domain_tag="d")
    assert out.points.shape == (12, 8)
    again = embed(model, x, n_sites=4, seed=11, domain_tag="d")
    np.testing.assert_array_equal(out.points.data, again.points.data)


def test_embed_zero_weights_zero_codes():
    model = SegModel(SMALL, seed=7)
    for p in model.params.values():
        p.data[:] = 0.0
    x = Tensor(np.zeros((2, 1, 8, 8)))
    out = embed(model, x, n_sites=6, seed=0)
    np.testing.assert_array_equal(out.points.data, 0.0)


def test_ce_loss_uniform_logits_is_log2():
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    labels = np.zeros((1, 2, 2), dtype=np.uint8)
    assert ce_loss(logits, labels).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_loss_confident_correct_goes_to_zero():
    logits = np.zeros((1, 2, 2, 2))
    labels = np.random.default_rng(6).integers(0, 2, size=(1, 2, 2))
    logits[0, 1][labels[0] == 1] = 50.0
    logits[0, 0][labels[0] == 0] = 50.0
    assert ce_loss(Tensor(logits), labels).item() < 1e-12


def test_ce_loss_hand_example():
    # two pixels, logits [2,0] and [0,2], labels 0 and 1
    logits = Tensor(np.array([[[2.0, 0.0], [0.0, 2.0]]]).reshape(1, 2, 2))
    labels = np.array([[0, 1]], dtype=np.uint8)
    expected = -np.log(np.exp(2) / (np.exp(2) + 1))
    assert ce_loss(logits, labels).item() == pytest.approx(expected, abs=1e-12)
    assert ce_loss(logits, labels).item() == pytest.approx(0.1269, abs=5e-5)


def test_ce_loss_out_of_range_label_names_pixel():
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    labels = np.zeros((1, 2, 2), dtype=np.int64)
    labels[0, 1, 0] = 7
    with pytest.raises(ValueError, match=r"\(0, 1, 0\)"):
        ce_loss(logits, labels)


def test_ce_loss_shape_mismatch():
    with pytest.raises(ValueError, match="labels shape"):
        ce_loss(Tensor(np.zeros((1, 2, 4, 4))), np.zeros((1, 3, 3), dtype=np.uint8))


def test_network_gradients_match_finite_differences():
    model = SegModel(SMALL, seed=8)
    rng = np.random.default_rng(7)
    # Evaluate at a generic point: zero-initialized biases would otherwise sit
    # exactly on ReLU kinks where the subgradient and finite differences differ.
    for p in model.params.values():
        p.data += rng.normal(scale=0.05, size=p.shape)
    x = Tensor(rng.normal(size=(2, 1, 4, 4)))
    labels = rng.integers(0, 2, size=(2, 4, 4))

    def f():
        return ce_loss(model.forward(x), labels)

    params = list(model.parameters().values())
    assert gradient_check(f, params) < 1e-4


def test_default_forward_records_one_node_per_layer_op():
    """Each conv block is one fused node (conv, bias, ReLU and, in the
    encoder, the 2x max-pool of its output; in the decoder, the 2x upsample
    of its input): 6 convs, 1 upsample (the latent skip of dec0) and 2
    concats. A pool node per encoder level made it 11, upsampling every
    decoder input 14; a bias add with its reshape, and a ReLU, per conv
    made it 31."""
    model = SegModel(DEFAULT, seed=4)
    x = np.random.default_rng(4).normal(size=(2, 1, 16, 16))
    nodes, stack = set(), [model.forward(Tensor(x))]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in nodes:
            nodes.add(id(node))
            stack.extend(node._parents)
    assert len(nodes) == 6 + 1 + 2


def test_flip_equivariance_with_symmetric_kernels():
    cfg = NetConfig(depth=2, base_width=4, latent_dim=6, skip_connections=True)
    model = SegModel(cfg, seed=9)
    for name, p in model.params.items():
        if name.endswith(".w") and p.data.ndim >= 4:
            sym = 0.5 * (p.data + p.data[..., ::-1, :])
            sym = 0.5 * (sym + sym[..., :, ::-1])
            p.data = sym
    x = np.random.default_rng(8).normal(size=(1, 1, 16, 16))
    fwd = model.forward(Tensor(x)).data
    flipped = model.forward(Tensor(x[..., ::-1, ::-1].copy())).data
    np.testing.assert_allclose(flipped, fwd[..., ::-1, ::-1], atol=1e-10)


def test_volumetric_model_shape_contract():
    cfg = NetConfig(spatial_rank=3, in_channels=1, num_classes=2, depth=1,
                    base_width=3, latent_dim=4)
    model = SegModel(cfg, seed=11)
    x = Tensor(np.random.default_rng(10).normal(size=(1, 1, 8, 8, 8)))
    logits = model.forward(x)
    assert logits.shape == (1, 2, 8, 8, 8)
    codes = embed(model, x, n_sites=5, seed=1)
    assert codes.points.shape == (5, 4)


def test_checkpoint_round_trip_through_state_dict():
    model = SegModel(DEFAULT, seed=10)
    clone = model.clone()
    x = Tensor(np.random.default_rng(9).normal(size=(1, 1, 16, 16)))
    np.testing.assert_array_equal(model.forward(x).data, clone.forward(x).data)


def test_chunked_predict_equals_one_forward_pass():
    model = SegModel(DEFAULT, seed=12)
    x = np.random.default_rng(11).normal(size=(37, 1, 16, 16))
    expected = softmax(model.forward(Tensor(x)), axis=1).data
    assert np.array_equal(model.predict_probs(x), expected)


def test_predict_hands_back_the_latent_field_of_its_pass():
    """The latent field a prediction hands back is that of one encoder pass
    over the stack, and asking for it leaves the probabilities as they are."""
    model = SegModel(DEFAULT, seed=12)
    x = np.random.default_rng(11).normal(size=(37, 1, 16, 16))
    latents = []
    probs = model.predict_probs(x, latents)
    assert np.array_equal(probs, model.predict_probs(x))
    [z] = latents
    assert np.array_equal(z, model.encode(Tensor(x)).data)


def labeled(n, seed=12):
    rng = np.random.default_rng(seed)
    return DomainDataset(list(rng.normal(size=(n, 1, 16, 16))),
                         list(rng.integers(0, 2, size=(n, 16, 16))), domain_id="d")


def test_mean_ce_equals_ce_of_one_forward_pass():
    """The streamed CE terms, summed once, give ce_loss's sum over the whole
    stack bit for bit: one image, one full slice, and a partial last slice."""
    model = SegModel(DEFAULT, seed=13)
    for n in (1, 16, 37):
        ds = labeled(n)
        expected = ce_loss(model.forward(Tensor(ds.images)), ds.masks).item()
        assert mean_ce(model, ds) == expected, n


def _peak(run, n):
    """tracemalloc peak of run(stack of n 16x16 images)."""
    x = np.random.default_rng(n).normal(size=(n, 1, 16, 16))
    tracemalloc.start()
    try:
        run(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_memory_does_not_grow_with_the_stack():
    model = SegModel(DEFAULT, seed=14)
    assert _peak(model.predict_probs, 128) < 1.5 * _peak(model.predict_probs, 32)


def test_mean_ce_memory_does_not_grow_with_the_stack_beyond_its_terms():
    """What mean_ce holds beyond its (batch, classes, *spatial) buffer of CE
    terms is one slice's pass, whatever the stack. The small net keeps that
    pass below the whole-stack arrays a non-streaming CE would hold."""
    model = SegModel(SMALL, seed=17)

    def beyond_terms(n):
        ds = labeled(n, seed=n)
        tracemalloc.start()
        try:
            mean_ce(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - n * SMALL.num_classes * 16 * 16 * 8

    assert beyond_terms(128) < 1.5 * beyond_terms(32)


@pytest.mark.parametrize("n_sites", [5, 64], ids=["take<sites", "take==sites"])
def test_sample_sites_node_equals_the_graph_it_replaced(n_sites):
    """The one node gives the points of the reshape/transpose/take_rows
    graph, and the same gradient back to the latent field, bit for bit."""
    rng = np.random.default_rng(18)
    field = rng.normal(size=(3, 4, 4, 4))  # 16 sites per image
    upstream = rng.normal(size=(3 * min(n_sites, 16), 4))
    got = []
    for fn in (lambda z: sample_sites(z, n_sites, seed=7).points,
               lambda z: sample_sites_graph(z, n_sites, seed=7)):
        z = Tensor(field, requires_grad=True)
        points = fn(z)
        tsum(mul(points, Tensor(upstream))).backward()
        got.append((points.data, z.grad))
    (points, grad), (ref_points, ref_grad) = got
    assert np.array_equal(points, ref_points)
    assert np.array_equal(grad, ref_grad)


def test_chunked_embed_equals_one_encoder_pass():
    model = SegModel(DEFAULT, seed=15)
    x = np.random.default_rng(13).normal(size=(37, 1, 16, 16))
    expected = sample_sites(model.encode(Tensor(x)), 5, seed=2).points.data
    with no_grad():
        got = embed(model, x, n_sites=5, seed=2).points.data
    assert np.array_equal(got, expected)
