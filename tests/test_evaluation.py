"""Dice scoring, bound-term arithmetic, report round trips, and how often
the benchmark evaluation runs each model."""

import math

import numpy as np
import pytest

from fedseg import evaluation
from fedseg.benchmark import make_benchmark_domains, run_benchmark
from fedseg.evaluation import (MetricsReport, BoundTerm, bound_terms, complexity_term,
                               dice, emit_report, export_embeddings, mean_ce,
                               read_report)
from fedseg.sliced import EmbeddingBatch, sample_projections, swd2
from fedseg.autodiff import Tensor, no_grad
from fedseg.data import DomainShift, generate_domains
from fedseg.ensembling import stack_probs
from fedseg.network import NetConfig, SegModel, embed
from fedseg.training import AdaptedModel, TrainPlan
from fedseg.util import derive_seed
from helpers import count_calls, count_target_passes


def test_dice_identical_masks():
    m = np.array([[1, 1, 0], [0, 1, 0]])
    assert dice(m, m) == 1.0


def test_dice_disjoint_masks():
    a = np.array([1, 1, 0, 0])
    b = np.array([0, 0, 1, 1])
    assert dice(a, b) == 0.0


def test_dice_hand_count():
    pred = np.zeros(12, dtype=int)
    truth = np.zeros(12, dtype=int)
    pred[:4] = 1          # |X| = 4
    truth[1:7] = 1        # |Y| = 6, intersection {1,2,3} = 3
    assert dice(pred, truth) == pytest.approx(0.6, abs=1e-12)


def test_dice_empty_empty_is_one():
    assert dice(np.zeros(5, dtype=int), np.zeros(5, dtype=int)) == 1.0


def test_dice_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, size=(5, 5))
        b = rng.integers(0, 2, size=(5, 5))
        assert dice(a, b) == dice(b, a)


def test_dice_against_exhaustive_iteration():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.integers(0, 2, size=(5, 5))
        b = rng.integers(0, 2, size=(5, 5))
        inter = sum(1 for i in range(5) for j in range(5) if a[i, j] == 1 and b[i, j] == 1)
        ca = sum(1 for i in range(5) for j in range(5) if a[i, j] == 1)
        cb = sum(1 for i in range(5) for j in range(5) if b[i, j] == 1)
        expected = 1.0 if ca + cb == 0 else 2 * inter / (ca + cb)
        assert dice(a, b) == pytest.approx(expected, abs=1e-12)


def test_dice_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        dice(np.zeros((2, 2)), np.zeros((3, 3)))


def test_complexity_term_xi_one_is_zero():
    assert complexity_term(10, 10, xi=1.0, zeta=1.0) == 0.0


def test_complexity_term_hand_value():
    got = complexity_term(100, 100, xi=math.exp(-1), zeta=1.0)
    assert got == pytest.approx(0.2 * math.sqrt(2.0), abs=1e-12)
    assert got == pytest.approx(0.2828, abs=5e-5)


def test_complexity_term_range_validation():
    with pytest.raises(ValueError, match="xi"):
        complexity_term(10, 10, xi=0.0, zeta=1.0)
    with pytest.raises(ValueError, match="zeta"):
        complexity_term(10, 10, xi=0.5, zeta=1.5)
    with pytest.raises(ValueError, match="counts"):
        complexity_term(0, 10, xi=0.5, zeta=1.0)


def _sample_report(oracle: bool) -> MetricsReport:
    report = MetricsReport(seed=3, oracle_mode=oracle, aggregation="fmuda")
    report.settings = {"plan.gamma": 2.0, "net.depth": 2}
    report.source_ids = ["site_a", "site_b"]
    report.raw_counts = [30, 10]
    report.weights = [0.75, 0.25]
    report.lambda_conf = 0.85
    report.bound = [
        BoundTerm("site_a", 0.123456789012345, 0.01, 0.9,
                  joint_ce=0.2 if oracle else None),
        BoundTerm("site_b", 0.5, 0.07, 0.9, joint_ce=0.4 if oracle else None),
    ]
    if oracle:
        report.per_model_dice = {"site_a": (0.4, 0.8), "site_b": (0.1, 0.3)}
        report.ensemble_dice = {"fmuda": 0.81, "av": 0.7, "pv": 0.6, "suda": 0.8}
        report.bound_lhs = 0.1
        report.bound_rhs = 1.9
    report.timestamp = "2026-01-01T00:00:00"
    return report


def test_report_round_trip_full_precision(tmp_path):
    report = _sample_report(oracle=True)
    path = tmp_path / "report.txt"
    emit_report(report, path)
    back = read_report(path)
    assert back["header"]["seed"] == "3"
    assert float(back["header"]["bound_rhs"]) == 1.9
    weights_rows = back["tables"]["weights"][1:]
    assert weights_rows[0] == ["site_a", "30", "0.75"]
    bound_rows = back["tables"]["bound_terms"][1:]
    assert float(bound_rows[0][1]) == 0.123456789012345


def test_report_non_oracle_has_literal_marker(tmp_path):
    path = tmp_path / "report.txt"
    emit_report(_sample_report(oracle=False), path)
    text = path.read_text()
    assert "e_C: not computable" in text
    assert "not computable" in text.split("[bound_terms]")[1]


def test_report_identical_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    ra = _sample_report(oracle=True)
    rb = _sample_report(oracle=True)
    ra.timestamp = "2026-01-01T00:00:00"
    rb.timestamp = "2027-05-05T05:05:05"
    emit_report(ra, a)
    emit_report(rb, b)

    def strip(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("timestamp:")]

    assert strip(a) == strip(b)
    assert a.read_text() != b.read_text()


def test_export_embeddings(tmp_path):
    pts = EmbeddingBatch(Tensor([[1.0, 2.0], [3.0, 4.0]]), domain_tag="src")
    tgt = EmbeddingBatch(Tensor([[5.0, 6.0]]), domain_tag="tgt")
    path = tmp_path / "emb.csv"
    export_embeddings([pts, tgt], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "domain_tag,dim_0,dim_1"
    assert lines[1] == "src,1.0,2.0"
    assert lines[3] == "tgt,5.0,6.0"


def test_export_embeddings_writes_the_repr_of_every_value(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-20, 20, size=(5, 3))
    values[0] = [0.0, 1e-300, 1 / 3]
    path = tmp_path / "emb.csv"
    export_embeddings([EmbeddingBatch(Tensor(values), domain_tag="d")], path)
    rows = path.read_text().splitlines()[1:]
    assert rows == ["d," + ",".join(repr(float(v)) for v in row) for row in values]


@pytest.mark.parametrize("rows", [1, 2, 1024])
def test_export_embeddings_writes_the_same_bytes_in_any_block_size(tmp_path, monkeypatch,
                                                                   rows):
    rng = np.random.default_rng(9)
    batches = [EmbeddingBatch(Tensor(rng.normal(size=(m, 3))), domain_tag=tag)
               for m, tag in ((5, "a/target_post"), (3, "b/target_post"))]
    monkeypatch.setattr(evaluation, "_EXPORT_ROWS", rows)
    export_embeddings(batches, tmp_path / "emb.csv")
    expected = ["domain_tag,dim_0,dim_1,dim_2"] + [
        f"{b.domain_tag}," + ",".join(map(repr, row))
        for b in batches for row in b.points.data.tolist()]
    assert (tmp_path / "emb.csv").read_text() == "\n".join(expected) + "\n"


def test_export_embeddings_rejects_mixed_dims_before_writing(tmp_path):
    batches = [EmbeddingBatch(Tensor(np.ones((2, d)))) for d in (3, 4)]
    with pytest.raises(ValueError, match="embedding dims differ"):
        export_embeddings(batches, tmp_path / "emb.csv")
    assert not (tmp_path / "emb.csv").exists()


def test_benchmark_predicts_twice_per_source(monkeypatch):
    """One target pass per adapted model, made at the target node and read
    by the weights, the masks, the Dice and the bound, and one per
    pretrained snapshot for the pre-adaptation Dice. The bound's joint-error
    models, trained on the labeled target, make one pass each for their
    target CE."""
    calls = count_calls(monkeypatch, SegModel, "predict_probs")
    plan = TrainPlan(epochs_pretrain=1, epochs_adapt=1, batch_size=6, swd_L=4,
                     lambda_conf=0.97, embed_sites=8)
    target = make_benchmark_domains(seed=0)[1]
    passes = count_target_passes(monkeypatch, target.image_stack())
    bench = run_benchmark(seed=0, plan=plan)
    assert np.isfinite(bench.bound_lhs) and set(bench.mode_dice) == {
        "fmuda", "av", "pv", "suda"}
    assert len(calls) == 2 * len(bench.post_dice)
    models = bench.result.adapted.models
    n = len(models)
    assert passes[:n] == [am.model for am in models]
    assert passes[-n:] == [bench.result.pretrained[am.source_id] for am in models]
    assert len({id(m) for m in passes}) == len(passes) == 3 * n
    # the bound's rows are the terms of its right-hand side
    assert evaluation.bound_right_hand_side(bench.bound, bench.result.weights.weights) == \
        bench.bound_rhs


def bound_inputs(n_images):
    *sources, target = generate_domains(
        0, 3, n_images, (16, 16),
        [DomainShift(1.0, 0.0, 0.02, 0.0, seed=1), DomainShift(0.7, 0.2, 0.02, 0.0, seed=2),
         DomainShift(0.4, 0.45, 0.02, 0.0, seed=3)])
    cfg = NetConfig(depth=2, base_width=4, latent_dim=8)
    models = [AdaptedModel(SegModel(cfg, seed=i), s.domain_id)
              for i, s in enumerate(sources)]
    return models, sources, target


def test_bound_terms_encodes_each_source_stack_once(monkeypatch):
    """One encoder pass over the source stack (shared by its CE and its
    codes) per source; the target codes come from the latent fields of the
    target pass, with no encoder pass of their own."""
    models, sources, target = bound_inputs(6)
    latents = []
    stack_probs(models, target.image_stack(), latents)
    calls = count_calls(monkeypatch, SegModel, "encode")
    bound_terms(models, sources, target, latents, swd_L=8, embed_sites=16, seed=3)
    assert len(calls) == len(sources)


def test_bound_terms_equal_the_two_pass_terms():
    """The shared passes give the CE of mean_ce and the SWD of embed,
    bit for bit, also over a stack of more than one inference slice."""
    models, sources, target = bound_inputs(20)
    latents = []
    stack_probs(models, target.image_stack(), latents)
    terms = bound_terms(models, sources, target, latents, swd_L=8, embed_sites=16,
                        seed=3)
    proj = sample_projections(8, 8, seed=derive_seed(3, "bound-projections"))
    for term, am, source in zip(terms, models, sources):
        with no_grad():
            src_emb = embed(am.model, source.image_stack(), 16,
                            seed=derive_seed(3, "bound-src", source.domain_id))
            tgt_emb = embed(am.model, target.image_stack(), 16,
                            seed=derive_seed(3, "bound-tgt", source.domain_id))
        assert term.source_ce == mean_ce(am.model, source)
        assert term.swd_term == swd2(tgt_emb, src_emb, proj).item()
