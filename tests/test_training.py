"""Pretraining and adaptation: contracts, locality, determinism, and the
loss decomposition."""

import dataclasses

import numpy as np
import pytest

from fedseg.data import DomainDataset, DomainShift, generate_domains
from fedseg.network import NetConfig, SegModel, ce_loss, embed
from fedseg.autodiff import Adam, Tensor, add, mul
from fedseg.sliced import sample_projections, swd2
from fedseg.training import TrainPlan, adapt, pretrain
from fedseg.util import derive_seed
from helpers import count_calls

CFG = NetConfig(depth=2, base_width=4, latent_dim=8)


def quick_domains(seed=0, n_images=6):
    shifts = [DomainShift(1.0, 0.0, 0.02, 0.0, seed=1),
              DomainShift(0.4, 0.45, 0.02, 0.0, seed=2)]
    src, tgt = generate_domains(seed, 2, n_images, (16, 16), shifts)
    return src, tgt


def quick_plan(**kw):
    defaults = dict(epochs_pretrain=8, epochs_adapt=6, batch_size=3, gamma=1.0,
                    swd_L=8, lambda_conf=0.5, seed=3, embed_sites=16,
                    learning_rate=2e-3)
    defaults.update(kw)
    return TrainPlan(**defaults)


def test_plan_validation():
    with pytest.raises(ValueError, match="gamma"):
        quick_plan(gamma=-0.1)
    with pytest.raises(ValueError, match="lambda"):
        quick_plan(lambda_conf=1.0)
    with pytest.raises(ValueError, match="batch_size"):
        quick_plan(batch_size=0)
    quick_plan(epochs_pretrain=0)  # zero epochs is a no-op, not an error


def test_pretrain_learns_separable_task():
    src, _ = quick_domains(n_images=12)
    model = pretrain(src, quick_plan(epochs_pretrain=30, batch_size=4), CFG)
    pred = model.forward(Tensor(src.image_stack())).data.argmax(axis=1)
    assert (pred == src.mask_stack()).mean() > 0.95


def test_pretrain_zero_epochs_returns_initialized_model():
    src, _ = quick_domains()
    plan = quick_plan(epochs_pretrain=0)
    model = pretrain(src, plan, CFG)
    fresh = SegModel(CFG, seed=__import__("fedseg.util", fromlist=["derive_seed"]).derive_seed(plan.seed, "init"))
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.data, fresh.parameters()[name].data)


def test_pretrain_requires_labels():
    src, _ = quick_domains()
    with pytest.raises(ValueError, match="labels"):
        pretrain(src.unlabeled_copy(), quick_plan(), CFG)


def test_pretrain_deterministic():
    src, _ = quick_domains()
    a = pretrain(src, quick_plan(), CFG)
    b = pretrain(src, quick_plan(), CFG)
    for name, p in a.parameters().items():
        np.testing.assert_array_equal(p.data, b.parameters()[name].data)


def test_adapt_never_reads_target_labels():
    src, tgt = quick_domains()
    plan = quick_plan()
    model = pretrain(src, plan, CFG)
    before = tgt.label_reads
    adapted = adapt(model, src, tgt, plan)
    assert tgt.label_reads == before
    assert adapted.target_label_reads == 0


def test_adapt_leaves_input_model_untouched():
    src, tgt = quick_domains()
    plan = quick_plan()
    model = pretrain(src, plan, CFG)
    snapshot = model.state_dict()
    adapt(model, src, tgt.unlabeled_copy(), plan)
    for name, arr in model.state_dict().items():
        np.testing.assert_array_equal(arr, snapshot[name])


def test_adapt_history_and_step_records():
    src, tgt = quick_domains()
    plan = quick_plan(epochs_adapt=5)
    adapted = adapt(pretrain(src, plan, CFG), src, tgt.unlabeled_copy(), plan)
    assert len(adapted.history) == 5
    steps_per_epoch = len(adapted.step_records) // 5
    assert steps_per_epoch == 2  # 6 images, batch 3
    assert all(rec.swd >= 0 for rec in adapted.history)


def test_adapt_loss_decomposition_per_step():
    src, tgt = quick_domains()
    plan = quick_plan(gamma=1.7)
    adapted = adapt(pretrain(src, plan, CFG), src, tgt.unlabeled_copy(), plan)
    for _, ce, swd_val, total in adapted.step_records:
        assert total == pytest.approx(ce + plan.gamma * swd_val, abs=1e-9)


def test_adapt_seeded_reproducibility():
    src, tgt = quick_domains()
    plan = quick_plan()
    base = pretrain(src, plan, CFG)
    a = adapt(base, src, tgt.unlabeled_copy(), plan)
    b = adapt(base, src, tgt.unlabeled_copy(), plan)
    for name, p in a.model.parameters().items():
        np.testing.assert_array_equal(p.data, b.model.parameters()[name].data)
    assert a.step_records == b.step_records


def test_adapt_gamma_zero_is_continued_erm():
    src, tgt = quick_domains()
    plan = quick_plan(gamma=0.0)
    adapted = adapt(pretrain(src, plan, CFG), src, tgt.unlabeled_copy(), plan)
    for _, ce, _, total in adapted.step_records:
        assert total == pytest.approx(ce, abs=1e-12)


def test_adapt_identical_domains_swd_near_zero():
    src, _ = quick_domains()
    same = dataclasses.replace  # no-op alias to keep line width
    plan = quick_plan(epochs_adapt=3)
    model = pretrain(src, plan, CFG)
    adapted = adapt(model, src, src.unlabeled_copy(), plan)
    # matched distributions: alignment term starts and stays near zero
    assert adapted.history[0].swd < 0.05
    assert adapted.history[-1].swd < 0.05


def test_adapt_shape_mismatch_rejected():
    src, _ = quick_domains()
    other = generate_domains(9, 1, 3, (32, 32), [DomainShift()])[0]
    plan = quick_plan()
    model = pretrain(src, plan, CFG)
    with pytest.raises(ValueError, match="disagree"):
        adapt(model, src, other.unlabeled_copy(), plan)


def test_adapt_keeps_source_loss_within_factor():
    """Supervised source loss after adaptation stays within 1.25x of the
    pretrained value (the embedding stays discriminative)."""
    from fedseg.evaluation import mean_ce

    src, tgt = quick_domains(n_images=12)
    plan = quick_plan(epochs_pretrain=20, epochs_adapt=15, batch_size=4)
    pre = pretrain(src, plan, CFG)
    ce_before = mean_ce(pre, src)
    adapted = adapt(pre, src, tgt.unlabeled_copy(), plan)
    assert mean_ce(adapted.model, src) <= 1.25 * ce_before


def test_adapt_ema_trend_not_increasing():
    src, tgt = quick_domains(n_images=8)
    plan = quick_plan(epochs_pretrain=4, epochs_adapt=12, gamma=1.0)
    adapted = adapt(pretrain(src, plan, CFG), src, tgt.unlabeled_copy(), plan)
    totals = [rec[3] for rec in adapted.step_records]

    def ema(values, window=10):
        alpha = 2.0 / (window + 1)
        acc = values[0]
        out = [acc]
        for v in values[1:]:
            acc = alpha * v + (1 - alpha) * acc
            out.append(acc)
        return out

    smoothed = ema(totals)
    assert smoothed[-1] <= smoothed[0]


def test_adapt_encodes_each_batch_once(monkeypatch):
    """One encoder pass for the source batch (shared by the CE term and the
    source embedding) and one for the target batch."""
    src, tgt = quick_domains()
    plan = quick_plan(epochs_adapt=2)
    model = pretrain(src, plan, CFG)
    calls = count_calls(monkeypatch, SegModel, "encode")
    adapted = adapt(model, src, tgt.unlabeled_copy(), plan)
    assert len(calls) == 2 * len(adapted.step_records)


def test_one_adapt_step_equals_the_two_pass_loss():
    """adapt's one-encoding step gives the parameters of the loss that
    encodes the source batch twice (once in forward, once in embed)."""
    src, tgt = quick_domains()
    tgt = tgt.unlabeled_copy()
    plan = quick_plan(epochs_adapt=1, batch_size=len(src))
    model = pretrain(src, plan, CFG)
    new = adapt(model, src, tgt, plan).model

    old = model.clone()
    rng = np.random.default_rng(derive_seed(plan.seed, "adapt", src.domain_id))
    idx = rng.permutation(len(src))
    tgt_idx = rng.choice(len(tgt), size=len(idx), replace=False)
    x_src = Tensor(src.image_stack()[idx])
    sup = ce_loss(old.forward(x_src), src.mask_stack()[idx])
    src_emb = embed(old, x_src, plan.embed_sites,
                    seed=derive_seed(plan.seed, "sites-src", 0), domain_tag=src.domain_id)
    tgt_emb = embed(old, Tensor(tgt.image_stack()[tgt_idx]), plan.embed_sites,
                    seed=derive_seed(plan.seed, "sites-tgt", 0), domain_tag=tgt.domain_id)
    proj = sample_projections(plan.swd_L, CFG.latent_dim,
                              seed=derive_seed(plan.seed, "proj", 0))
    add(sup, mul(swd2(src_emb, tgt_emb, proj), plan.gamma)).backward()
    Adam(old.parameters(), learning_rate=plan.learning_rate).step()

    for name, p in old.parameters().items():
        assert not np.array_equal(p.data, model.parameters()[name].data), name
        np.testing.assert_allclose(new.parameters()[name].data, p.data,
                                   rtol=0, atol=1e-12, err_msg=name)


def with_nan_pixel(dataset, index=2):
    images = [im.copy() for im in dataset.images]
    images[index][0, 5, 7] = np.nan
    return DomainDataset(images, dataset.masks, domain_id=dataset.domain_id)


def test_pretrain_stops_at_the_first_non_finite_loss():
    src, _ = quick_domains()
    plan = quick_plan(batch_size=len(src))
    with pytest.raises(FloatingPointError,
                       match=r"pretrain of domain 'domain0': non-finite loss nan "
                             r"at epoch 0, step 0"):
        pretrain(with_nan_pixel(src), plan, CFG)


def test_adapt_stops_at_the_first_non_finite_loss():
    src, tgt = quick_domains()
    plan = quick_plan(batch_size=len(src))
    model = pretrain(src, plan, CFG)
    with pytest.raises(FloatingPointError,
                       match=r"adapt of domain 'domain0': non-finite loss nan "
                             r"at epoch 0, step 0"):
        adapt(model, with_nan_pixel(src), tgt.unlabeled_copy(), plan)


def test_adapt_names_a_non_finite_target_embedding():
    src, tgt = quick_domains()
    plan = quick_plan(batch_size=len(src))
    model = pretrain(src, plan, CFG)
    with pytest.raises(FloatingPointError,
                       match=r"adapt of domain 'domain0': non-finite target "
                             r"embedding at epoch 0, step 0"):
        adapt(model, src, with_nan_pixel(tgt).unlabeled_copy(), plan)


@pytest.mark.parametrize("phase", ["pretrain", "adapt"])
def test_a_non_finite_gradient_under_a_finite_loss_names_the_parameter(monkeypatch,
                                                                       phase):
    src, tgt = quick_domains()
    plan = quick_plan(batch_size=len(src))  # one step per epoch
    model = pretrain(src, plan, CFG) if phase == "adapt" else None
    optimizers = count_calls(monkeypatch, Adam, "step")
    backward = Tensor.backward

    def poisoned(loss):
        backward(loss)
        if optimizers:  # from the second step on
            optimizers[0].params["dec0.w"].grad[0, 0, 1, 1] = np.inf

    monkeypatch.setattr(Tensor, "backward", poisoned)
    with pytest.raises(FloatingPointError,
                       match=rf"{phase} of domain 'domain0': non-finite gradient "
                             rf"of 'dec0.w' at epoch 1, step 1"):
        if phase == "pretrain":
            pretrain(src, plan, CFG)
        else:
            adapt(model, src, tgt.unlabeled_copy(), plan)
    assert len(optimizers) == 1  # the poisoned step made no update


@pytest.mark.parametrize("phase", ["pretrain", "adapt"])
def test_an_overflow_in_the_adam_update_still_warns(monkeypatch, phase):
    """Only forward and backward run with numpy's overflow warnings off: a
    finite gradient whose square overflows Adam's second moment would
    otherwise stall the parameter unseen."""
    src, tgt = quick_domains()
    plan = quick_plan(batch_size=len(src), epochs_pretrain=1, epochs_adapt=1)
    model = pretrain(src, plan, CFG) if phase == "adapt" else None
    step = Adam.step

    def huge_step(opt):  # finite, so it passes _check_gradients
        for p in opt.params.values():
            p.grad[...] = 1e200
        step(opt)

    monkeypatch.setattr(Adam, "step", huge_step)
    with pytest.warns(RuntimeWarning, match="overflow"):
        if phase == "pretrain":
            pretrain(src, plan, CFG)
        else:
            adapt(model, src, tgt.unlabeled_copy(), plan)
