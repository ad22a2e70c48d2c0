"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS line when it holds (run with -s to watch).
The synthetic benchmark runs (5 seeds, base and corrupted-source variants)
are computed once, on a pool of two processes, and shared across criteria.
Budget on a laptop CPU: roughly ten minutes for the benchmark block, a few
minutes for the sweeps.
"""

import itertools
import multiprocessing

import numpy as np
import pytest

from fedseg.autodiff import Tensor, serialize_params
from fedseg.benchmark import default_net_config, default_plan, run_benchmark
from fedseg.cli import main as cli_main
from fedseg.data import DomainShift, generate_domains
from fedseg.ensembling import add_source, compute_weights
from fedseg.evaluation import dice
from fedseg.federation import AuditLog, Message, NodeId, audit_check, run_msuda
from fedseg.network import NetConfig, SegModel, ce_loss, embed
from fedseg.sliced import (EmbeddingBatch, ProjectionSet, exact_w2_1d,
                           sample_projections, swd2)
from fedseg.training import TrainPlan
from helpers import gradient_check, run_benchmarks


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


# -- shared benchmark runs (criteria 3, 4, 6, 7) ------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    """The ten seeds, computed once on two processes: seeds 0-4 of the base
    variant with the bound, then seeds 0-4 of the corrupted one without."""
    runs = run_benchmarks([dict(seed=seed, corrupted=corrupted, with_bound=not corrupted)
                           for corrupted in (False, True) for seed in range(5)])
    return runs[:5], runs[5:]


@pytest.fixture(scope="module")
def base_runs(benchmark_runs):
    return benchmark_runs[0]


@pytest.fixture(scope="module")
def corrupted_runs(benchmark_runs):
    return benchmark_runs[1]


def test_a_pooled_seed_equals_a_serial_run(base_runs):
    """The pool changes where a seed runs, not what it computes: adapted
    parameters, Dice and bound terms equal those of an in-process run."""
    def facts(bench):
        digests = [serialize_params(am.model.state_dict())
                   for am in bench.result.adapted.models]
        return repr((digests, bench.pre_dice, bench.post_dice, bench.mode_dice,
                     bench.bound, bench.bound_lhs, bench.bound_rhs))

    assert facts(base_runs[0]) == facts(run_benchmark(0, corrupted=False, with_bound=True))


def test_a_failing_seed_leaves_no_pool_process():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_benchmarks([dict(seed=seed, workers=0) for seed in range(3)])
    assert multiprocessing.active_children() == []


# -- criterion 1: SWD oracle equivalence ---------------------------------------------


def test_criterion_1_swd_oracle_equivalence():
    rng = np.random.default_rng(20260101)
    proj = ProjectionSet(count=1, directions=np.array([[1.0]]), seed=0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        sliced = swd2(EmbeddingBatch(Tensor(a[:, None])),
                      EmbeddingBatch(Tensor(b[:, None])), proj).item()
        exact = exact_w2_1d(a, b)
        brute = min(
            float(np.mean((np.sort(a) - np.sort(b)[list(p)]) ** 2))
            for p in itertools.permutations(range(n))
        )
        worst = max(worst, abs(sliced - exact), abs(exact - brute))
    assert worst < 1e-10
    ok(f"1 (SWD oracle equivalence, max err {worst:.2e})")


# -- criterion 2: gradient suite ------------------------------------------------------


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(7)
    cfg = NetConfig(spatial_rank=2, in_channels=1, num_classes=2, depth=1,
                    base_width=3, latent_dim=4)
    model = SegModel(cfg, seed=5)
    # evaluate at a generic point: zero-init biases sit exactly on ReLU kinks
    for p in model.params.values():
        p.data += rng.normal(scale=0.05, size=p.shape)
    params = list(model.parameters().values())

    x = Tensor(rng.normal(size=(2, 1, 4, 4)))
    labels = rng.integers(0, 2, size=(2, 4, 4))
    err_ce = gradient_check(lambda: ce_loss(model.forward(x), labels), params)

    proj = sample_projections(6, 3, seed=1)
    pa = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    pb = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    err_swd = gradient_check(
        lambda: swd2(EmbeddingBatch(pa), EmbeddingBatch(pb), proj), [pa, pb])

    tgt = Tensor(rng.normal(size=(2, 1, 4, 4)))
    adapt_proj = sample_projections(4, cfg.latent_dim, seed=2)

    def objective():
        sup = ce_loss(model.forward(x), labels)
        src_emb = embed(model, x, n_sites=6, seed=3, domain_tag="s")
        tgt_emb = embed(model, tgt, n_sites=6, seed=4, domain_tag="t")
        return sup + 1.5 * swd2(src_emb, tgt_emb, adapt_proj)

    err_total = gradient_check(objective, params)
    worst = max(err_ce, err_swd, err_total)
    assert worst < 1e-4
    ok(f"2 (gradient suite, max rel err {worst:.2e})")


# -- criterion 3: Jensen property ------------------------------------------------------


def test_criterion_3_jensen_random_and_trained(base_runs):
    rng = np.random.default_rng(11)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(n_classes), size=k)
        w = rng.dirichlet(np.ones(k))
        y = int(rng.integers(0, n_classes))
        mixture = (w[:, None] * probs).sum(axis=0)
        assert -np.log(mixture[y]) <= float((w * -np.log(probs[:, y])).sum()) + 1e-12

    # trained benchmark models, every labeled target pixel
    from fedseg.benchmark import make_benchmark_domains
    bench = base_runs[0]
    _, target = make_benchmark_domains(bench.seed, corrupted=False)
    images = target.image_stack()
    labels = target.mask_stack()
    stacked = np.stack([m.predict_probs(images) for m in bench.result.adapted.models])
    w = np.asarray(bench.result.weights.weights)
    picked = np.take_along_axis(stacked, labels[None, :, None, ...], axis=2)[:, :, 0]
    mixture = np.einsum("k,kbhw->bhw", w, picked)
    per_model = np.einsum("k,kbhw->bhw", w, -np.log(picked))
    assert np.all(-np.log(mixture) <= per_model + 1e-12)
    ok("3 (Jensen inequality, 500 random + trained models)")


# -- criterion 4: synthetic benchmark ordering ------------------------------------------


def test_criterion_4a_adaptation_uptick(base_runs):
    for sid in ("site_a", "site_b"):
        pre = np.mean([b.pre_dice[sid] for b in base_runs])
        post = np.mean([b.post_dice[sid] for b in base_runs])
        assert post > pre, f"{sid}: post {post:.4f} <= pre {pre:.4f}"
    ok("4a (post-adaptation target Dice > pre-adaptation, every source)")


def test_criterion_4b_swd_halves(base_runs):
    for sid in ("site_a", "site_b"):
        first = np.mean([b.swd_first[sid] for b in base_runs])
        last = np.mean([b.swd_last[sid] for b in base_runs])
        assert last <= 0.5 * first, f"{sid}: {last:.4f} > 0.5 * {first:.4f}"
    ok("4b (final-epoch SWD <= 0.5 x initial-epoch SWD, every source pair)")


def test_criterion_4c_ensemble_ordering(base_runs, corrupted_runs):
    fmuda = np.mean([b.mode_dice["fmuda"] for b in base_runs])
    suda = np.mean([b.mode_dice["suda"] for b in base_runs])
    assert fmuda >= suda - 0.02, f"fmuda {fmuda:.4f} < suda {suda:.4f} - 0.02"

    fm = np.mean([c.mode_dice["fmuda"] for c in corrupted_runs])
    av = np.mean([c.mode_dice["av"] for c in corrupted_runs])
    pv = np.mean([c.mode_dice["pv"] for c in corrupted_runs])
    assert fm >= av, f"with corrupted source: fmuda {fm:.4f} < av {av:.4f}"
    assert fm >= pv, f"with corrupted source: fmuda {fm:.4f} < pv {pv:.4f}"
    ok(f"4c (fmuda {fmuda:.3f} >= suda-0.02; corrupted: {fm:.3f} >= av {av:.3f}, pv {pv:.3f})")


# -- criterion 5: weight arithmetic ---------------------------------------------------


class _StubModel:
    def __init__(self, confident_pixels, total=40):
        p1 = np.full((1, total), 0.6)
        p1[0, :confident_pixels] = 0.95
        self.probs = np.stack([1.0 - p1, p1], axis=1)

    def predict_probs(self, images):
        return self.probs


def test_criterion_5_weight_arithmetic():
    images = np.zeros((1, 1, 40))
    weights = compute_weights([_StubModel(30), _StubModel(10)], images,
                              lambda_conf=0.9)
    assert weights.raw_counts == [30, 10]
    assert weights.weights == [0.75, 0.25]
    updated = add_source([_StubModel(30), _StubModel(10)], weights,
                         _StubModel(40), images)
    assert updated.raw_counts == [30, 10, 40]
    assert updated.weights == [0.375, 0.125, 0.5]
    ok("5 (confidence-count weights (0.75, 0.25) and (0.375, 0.125, 0.5) exact)")


# -- criterion 6: federated locality ---------------------------------------------------


def test_criterion_6_locality(base_runs, corrupted_runs):
    for bench in base_runs + corrupted_runs:
        assert audit_check(bench.result.audit_log).ok

    injected = AuditLog()
    injected.append(Message(NodeId("s1", "source"), NodeId("s2", "source"),
                            "unlabeled_images", 64))
    assert not audit_check(injected).ok

    # non-oracle run: the target-label read counter stays at zero
    shifts = [DomainShift(1.0, 0.0, 0.02, 0.0, seed=1),
              DomainShift(0.4, 0.45, 0.02, 0.0, seed=2)]
    src, tgt = generate_domains(3, 2, 6, (16, 16), shifts)
    plan = TrainPlan(epochs_pretrain=3, epochs_adapt=2, batch_size=3, swd_L=8,
                     embed_sites=16, seed=0)
    cfg = NetConfig(depth=2, base_width=4, latent_dim=8)
    result = run_msuda([src], tgt, plan, cfg, oracle_mode=False)
    assert result.target_label_reads == 0
    assert tgt.label_reads == 0
    ok("6 (audit passes; injected source-to-source data fails; label reads 0)")


# -- criterion 7: bound sanity (oracle mode) --------------------------------------------


def test_criterion_7_bound_holds_every_run(base_runs):
    violations = 0
    for bench in base_runs:
        assert np.isfinite(bench.bound_lhs) and np.isfinite(bench.bound_rhs)
        if not bench.bound_lhs <= bench.bound_rhs:
            violations += 1
    assert violations == 0
    worst = max(b.bound_lhs / b.bound_rhs for b in base_runs)
    ok(f"7 (measured target CE <= measured bound on all 5 seeds, max ratio {worst:.2f})")


# -- criterion 8: Dice exactness --------------------------------------------------------


def test_criterion_8_dice_exactness():
    m = np.array([[1, 1, 0], [0, 1, 0]])
    assert abs(dice(m, m) - 1.0) < 1e-12
    assert abs(dice(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1]))) < 1e-12
    pred = np.zeros(12, dtype=int)
    truth = np.zeros(12, dtype=int)
    pred[:4] = 1
    truth[1:7] = 1
    assert abs(dice(pred, truth) - 0.6) < 1e-12
    assert dice(np.zeros(6, dtype=int), np.zeros(6, dtype=int)) == 1.0
    ok("8 (Dice 1.0 / 0.0 / 0.6 / empty-empty 1.0, all to 1e-12)")


# -- criterion 9: lambda and L sweeps ------------------------------------------------------


def test_criterion_9_sweeps(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["gen", "--out", str(data), "--domains", "3", "--images",
                     "12", "--size", "32", "--seed", "0"]) == 0
    manifest = str(data / "manifest.txt")
    plan_flags = ["--epochs-pretrain", "30", "--epochs-adapt", "40",
                  "--batch-size", "4", "--gamma", "2.0", "--sites", "64",
                  "--lr", "2e-3", "--seed", "0"]

    assert cli_main(["sweep", "--data", manifest, "--out", str(tmp_path / "lam"),
                     "--parameter", "lambda", "--values", "0.1,0.3,0.5,0.7,0.9",
                     "--swd-l", "50", *plan_flags]) == 0
    lam_rows = (tmp_path / "lam" / "sweep_lambda.csv").read_text().splitlines()
    assert len(lam_rows) == 6 and lam_rows[0] == "value,dice"

    assert cli_main(["sweep", "--data", manifest, "--out", str(tmp_path / "L"),
                     "--parameter", "L", "--values", "1,25,50,100",
                     "--lambda", "0.97", *plan_flags]) == 0
    rows = (tmp_path / "L" / "sweep_L.csv").read_text().splitlines()
    assert len(rows) == 5
    by_L = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    gap = abs(by_L[50.0] - by_L[100.0])
    assert gap <= 0.03, f"dice(L=50) differs from dice(L=100) by {gap:.4f}"
    ok(f"9 (sweep CSVs written; |dice(L=50) - dice(L=100)| = {gap:.4f} <= 0.03)")


# -- criterion 10: determinism ---------------------------------------------------------------


def test_criterion_10_run_determinism(tmp_path):
    import hashlib

    data = tmp_path / "data"
    assert cli_main(["gen", "--out", str(data), "--domains", "3", "--images",
                     "6", "--size", "16", "--seed", "0"]) == 0
    flags = ["--data", str(data / "manifest.txt"), "--seed", "4", "--oracle",
             "--epochs-pretrain", "5", "--epochs-adapt", "4", "--batch-size", "3",
             "--swd-l", "8", "--sites", "16", "--depth", "2", "--base-width", "4",
             "--latent-dim", "8"]
    assert cli_main(["run", "--out", str(tmp_path / "r1"), *flags]) == 0
    assert cli_main(["run", "--out", str(tmp_path / "r2"), *flags]) == 0

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    for rel in ("checkpoints/site_a_pretrained.fpar", "checkpoints/site_a_adapted.fpar",
                "checkpoints/site_b_pretrained.fpar", "checkpoints/site_b_adapted.fpar",
                "masks/fmuda/pred_000.ndr"):
        assert digest(tmp_path / "r1" / rel) == digest(tmp_path / "r2" / rel), rel

    def report_lines(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("timestamp:")]

    assert report_lines(tmp_path / "r1" / "report.txt") == \
        report_lines(tmp_path / "r2" / "report.txt")
    ok("10 (two identical runs: hash-identical checkpoints and reports)")
