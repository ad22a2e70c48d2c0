"""Command-line surface: subcommand contracts, exit codes, reproducibility,
and the add-source flow."""

import argparse
import dataclasses
import hashlib
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from fedseg import cli
from fedseg import data as fedseg_data
from fedseg import evaluation, federation
from fedseg.autodiff import load_params, save_params
from fedseg.benchmark import make_benchmark_domains
from fedseg.cli import build_parser, main
from fedseg.data import load_domain, read_manifest, read_raster, write_raster
from fedseg.ensembling import compute_weights
from fedseg.evaluation import read_report
from fedseg.federation import AuditLog
from fedseg.network import NetConfig, SegModel
from fedseg.training import TrainPlan
from helpers import count_calls, count_target_passes

FAST = ["--epochs-pretrain", "4", "--epochs-adapt", "3", "--batch-size", "3",
        "--swd-l", "8", "--sites", "16", "--depth", "2", "--base-width", "4",
        "--latent-dim", "8"]


def gen_args(out, domains=3, images=6, seed=0, extra=()):
    return ["gen", "--out", str(out), "--domains", str(domains), "--images",
            str(images), "--size", "16", "--seed", str(seed), *extra]


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def report_hash(path):
    lines = [line for line in open(path).read().splitlines()
             if not line.startswith("timestamp:")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(gen_args(out)) == 0
    return out / "manifest.txt"


@pytest.fixture(scope="module")
def trained_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--seed", "0",
                 *FAST]) == 0
    return out


def test_gen_default_manifest_counts(dataset):
    header, entries = read_manifest(dataset)
    assert len(entries) == 3
    assert sum(len(e.image_paths) for e in entries) == 18
    assert sum(len(e.mask_paths) for e in entries) == 18
    assert [e.role for e in entries] == ["source", "source", "target"]


def test_gen_single_domain(tmp_path, capsys):
    """One domain has no target, which run, eval and sweep all need."""
    capsys.readouterr()
    assert main(gen_args(tmp_path / "one", domains=1)) == 1
    assert "usage error: --domains" in capsys.readouterr().err
    assert not (tmp_path / "one").exists()


def test_gen_same_seed_identical_hashes(tmp_path):
    assert main(gen_args(tmp_path / "a", seed=7)) == 0
    assert main(gen_args(tmp_path / "b", seed=7)) == 0
    for rel in ("site_a/img_000.ndr", "site_t/msk_003.ndr", "manifest.txt"):
        assert file_hash(tmp_path / "a" / rel) == file_hash(tmp_path / "b" / rel)


@pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
def test_gen_at_the_defaults_writes_the_benchmark_domains(tmp_path, corrupted):
    out = tmp_path / "g"
    assert main(["gen", "--out", str(out), "--seed", "3",
                 *(["--corrupted"] if corrupted else [])]) == 0
    sources, target = make_benchmark_domains(3, corrupted)
    _, entries = read_manifest(out / "manifest.txt")
    assert [e.domain_id for e in entries] == [ds.domain_id for ds in sources + [target]]
    for entry, ds in zip(entries, sources + [target]):
        for paths, rasters in ((entry.image_paths, ds.images), (entry.mask_paths, ds.masks)):
            assert len(paths) == len(rasters)
            for path, expected in zip(paths, rasters):
                written = read_raster(out / path)
                assert written.dtype == expected.dtype
                assert np.array_equal(written, expected)


@pytest.mark.parametrize("extra", [["--domains", "4"]], ids=["four-domains"])
def test_gen_corrupted_outside_the_benchmark_layout_is_usage_error(tmp_path, capsys,
                                                                   extra):
    out = tmp_path / "g"
    capsys.readouterr()
    assert main(["gen", "--out", str(out), "--corrupted", *extra]) == 1
    assert "usage error: --corrupted" in capsys.readouterr().err
    assert not out.exists()


def test_gen_refuses_nonempty_without_force(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "existing.txt").write_text("x")
    assert main(gen_args(out)) == 1
    assert main(gen_args(out, extra=["--force"])) == 0


def test_run_then_rerun_hash_identical(dataset, tmp_path):
    args = lambda out: ["run", "--data", str(dataset), "--out", str(out),
                        "--seed", "1", "--oracle", *FAST]
    assert main(args(tmp_path / "r1")) == 0
    assert main(args(tmp_path / "r2")) == 0
    for rel in ("checkpoints/site_a_adapted.fpar", "checkpoints/site_b_pretrained.fpar",
                "curves/site_a.csv", "masks/fmuda/pred_000.ndr"):
        assert file_hash(tmp_path / "r1" / rel) == file_hash(tmp_path / "r2" / rel)
    assert report_hash(tmp_path / "r1" / "report.txt") == \
        report_hash(tmp_path / "r2" / "report.txt")


def test_run_non_oracle_report_marks_ec_not_computable(dataset, tmp_path):
    out = tmp_path / "plain"
    assert main(["run", "--data", str(dataset), "--out", str(out),
                 "--seed", "0", *FAST]) == 0
    text = (out / "report.txt").read_text()
    assert "e_C: not computable" in text
    assert "audit.target_label_reads: 0" in text
    assert "[dice]" not in text  # no target labels, no Dice


def test_run_suda_requires_oracle(dataset, tmp_path):
    code = main(["run", "--data", str(dataset), "--out", str(tmp_path / "s"),
                 "--aggregation", "suda", *FAST])
    assert code == 1


def test_run_bad_manifest_is_usage_error(tmp_path):
    code = main(["run", "--data", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "x"), *FAST])
    assert code == 1


def weight_rows(report_path):
    """The rows of a report's [weights] table, below its column names."""
    return read_report(report_path)["tables"]["weights"][1:]


def two_source_run(tmp_path):
    """A 4-domain manifest and a seed-2 run on a copy of it without site_c."""
    data = tmp_path / "data4"
    assert main(gen_args(data, domains=4)) == 0
    head, *stanzas = (data / "manifest.txt").read_text().split("[domain ")
    kept = [s for s in stanzas if not s.startswith("site_c")]
    two = data / "manifest_two.txt"
    two.write_text(head + "".join("[domain " + s for s in kept))
    out = tmp_path / "run"
    assert main(["run", "--data", str(two), "--out", str(out), "--seed", "2",
                 *FAST]) == 0
    return data / "manifest.txt", out


def test_add_source_keeps_prior_checkpoints(tmp_path, capsys):
    manifest, out = two_source_run(tmp_path)
    before = {rel: file_hash(out / "checkpoints" / rel)
              for rel in os.listdir(out / "checkpoints")}

    add = ["run", "--data", str(manifest), "--out", str(out), "--seed", "2",
           "--add-source", "site_c", *FAST]

    # without the run's audit log there is no trail to extend
    audit = out / "audit.log"
    audit.rename(tmp_path / "audit.log")
    capsys.readouterr()
    assert main(add) == 1
    assert str(audit) in capsys.readouterr().err
    assert not (out / "checkpoints" / "site_c_adapted.fpar").exists()
    (tmp_path / "audit.log").rename(audit)

    prior = AuditLog.read(audit).records
    prior_rows = weight_rows(out / "report.txt")
    assert main(add) == 0
    for rel, digest in before.items():
        assert file_hash(out / "checkpoints" / rel) == digest
    assert (out / "checkpoints" / "site_c_adapted.fpar").exists()
    rows = weight_rows(out / "report.txt")
    assert [row[:2] for row in rows[:-1]] == [row[:2] for row in prior_rows]
    assert [row[0] for row in rows] == ["site_a", "site_b", "site_c"]

    records = AuditLog.read(audit).records
    assert records[:len(prior)] == prior
    added = [(m.sender.name, m.sender.kind, m.receiver.name, m.receiver.kind,
              m.payload_kind) for m in records[len(prior):]]
    assert added == [("site_t", "target", "site_c", "source", "unlabeled_images"),
                     ("site_c", "source", "site_t", "target", "model_params")]
    assert main(["audit", "--log", str(audit)]) == 0


def test_add_source_on_a_changed_target_refuses_before_training(tmp_path, capsys,
                                                                monkeypatch):
    manifest, out = two_source_run(tmp_path)
    path = manifest.parent / "site_t" / "img_000.ndr"
    image = read_raster(path)
    image[0, 0, 0] += 1.0
    write_raster(path, image)
    ckpts = {rel: file_hash(out / "checkpoints" / rel)
             for rel in os.listdir(out / "checkpoints")}
    audit = file_hash(out / "audit.log")
    pretrains = count_calls(monkeypatch, federation, "pretrain")
    capsys.readouterr()
    assert main(["run", "--data", str(manifest), "--out", str(out), "--seed", "2",
                 "--add-source", "site_c", *FAST]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'report.txt'}: target domain 'site_t': images differ" in err, err
    assert pretrains == []
    assert {rel: file_hash(out / "checkpoints" / rel)
            for rel in os.listdir(out / "checkpoints")} == ckpts
    assert file_hash(out / "audit.log") == audit
    assert list(out.rglob("site_c_*")) == []


def test_a_report_without_a_target_hash_refuses_add_source_but_evaluates(tmp_path,
                                                                          capsys):
    manifest, out = two_source_run(tmp_path)
    report = out / "report.txt"
    report.write_text("".join(line for line in report.read_text().splitlines(True)
                              if not line.startswith("target_hash:")))
    capsys.readouterr()
    assert main(["run", "--data", str(manifest), "--out", str(out), "--seed", "2",
                 "--add-source", "site_c", *FAST]) == 2
    err = capsys.readouterr().err
    assert f"{report}: missing field 'target_hash'" in err, err
    assert list(out.rglob("site_c_*")) == []
    assert main(["eval", "--data", str(manifest), "--run", str(out), "--sites", "16"]) == 0


def test_add_source_under_another_aggregation_leaves_only_its_masks(tmp_path):
    manifest, out = two_source_run(tmp_path)
    assert os.listdir(out / "masks") == ["fmuda"]
    assert main(["run", "--data", str(manifest), "--out", str(out), "--seed", "2",
                 "--add-source", "site_c", "--aggregation", "av", *FAST]) == 0
    assert os.listdir(out / "masks") == ["av"]


def test_add_source_with_a_drifted_plan_names_the_field_and_writes_nothing(tmp_path,
                                                                           capsys):
    manifest, out = two_source_run(tmp_path)
    audit = file_hash(out / "audit.log")
    capsys.readouterr()
    assert main(["run", "--data", str(manifest), "--out", str(out), "--seed", "2",
                 "--add-source", "site_c", *FAST, "--epochs-adapt", "5"]) == 1
    err = capsys.readouterr().err
    assert "plan.epochs_adapt is 5 by the flags but 3 in" in err, err
    assert not (out / "checkpoints" / "site_c_adapted.fpar").exists()
    assert file_hash(out / "audit.log") == audit


def test_add_source_without_the_run_flags_trains_under_the_run_settings(tmp_path):
    manifest, out = two_source_run(tmp_path)
    before = settings_lines(out / "report.txt")
    assert "net.base_width: 4" in before and "plan.seed: 2" in before
    assert main(["run", "--data", str(manifest), "--out", str(out),
                 "--add-source", "site_c"]) == 0
    assert [row[0] for row in weight_rows(out / "report.txt")] == [
        "site_a", "site_b", "site_c"]
    assert settings_lines(out / "report.txt") == before


def test_add_source_with_a_rejected_value_names_its_flag_and_writes_nothing(tmp_path,
                                                                            capsys):
    manifest, out = two_source_run(tmp_path)
    audit = file_hash(out / "audit.log")
    capsys.readouterr()
    assert main(["run", "--data", str(manifest), "--out", str(out),
                 "--add-source", "site_c", "--lr", "-1"]) == 1
    assert "usage error: --lr: learning_rate must be" in capsys.readouterr().err
    assert not (out / "checkpoints" / "site_c_adapted.fpar").exists()
    assert file_hash(out / "audit.log") == audit


def test_add_source_predicts_once_per_model(tmp_path, monkeypatch):
    manifest, out = two_source_run(tmp_path)
    calls = count_calls(monkeypatch, SegModel, "predict_probs")
    assert main(["run", "--data", str(manifest), "--out", str(out), "--seed", "2",
                 "--add-source", "site_c", *FAST]) == 0
    assert len(calls) == len({id(m) for m in calls}) == 3


def settings_lines(path):
    return [line for line in open(path).read().splitlines()
            if line.startswith(("net.", "plan."))]


def test_eval_takes_the_net_and_plan_of_the_run(dataset, tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--data", str(dataset), "--out", str(out), *FAST,
                 "--depth", "1", "--epochs-adapt", "1", "--gamma", "0.5"]) == 0
    assert main(["eval", "--data", str(dataset), "--run", str(out)]) == 0
    lines = settings_lines(out / "eval" / "report.txt")
    assert "net.depth: 1" in lines and "plan.epochs_adapt: 1" in lines
    assert lines == settings_lines(out / "report.txt")


def test_eval_defaults_to_the_seed_and_sites_of_the_run(dataset, tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--seed", "3",
                 *FAST]) == 0
    assert main(["eval", "--data", str(dataset), "--run", str(out), "--oracle",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["eval", "--data", str(dataset), "--run", str(out), "--oracle",
                 "--out", str(tmp_path / "b"), "--seed", "3", "--sites", "16"]) == 0
    for rel in ("embeddings.csv", "masks/fmuda/pred_000.ndr"):
        assert file_hash(tmp_path / "a" / rel) == file_hash(tmp_path / "b" / rel)
    assert report_hash(tmp_path / "a" / "report.txt") == \
        report_hash(tmp_path / "b" / "report.txt")


def test_eval_of_a_run_without_its_report_names_the_file(dataset, trained_run,
                                                         tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    (run / "report.txt").unlink()
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run),
                 "--out", str(tmp_path / "ev")]) == 1
    assert f"{run} holds no report.txt" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("value", ["two", "2.5", "True", "0", None],
                         ids=["word", "float", "bool", "zero", "missing"])
def test_bad_net_line_in_the_run_report_names_file_and_field(dataset, trained_run,
                                                             tmp_path, capsys, value):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    report = run / "report.txt"
    line = "" if value is None else f"net.depth: {value}\n"
    report.write_text(report.read_text().replace("net.depth: 2\n", line))
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run),
                 "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert f"{report}: " in err and "depth" in err, err
    assert not (tmp_path / "ev").exists()


def test_more_classes_than_a_uint8_label_in_the_run_report_names_file_and_field(
        dataset, trained_run, tmp_path, capsys):
    """A net of 257 classes would write class 256 as 0 in a uint8 mask, so
    eval refuses it before anything is written."""
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    report = run / "report.txt"
    report.write_text(report.read_text().replace("net.num_classes: 2\n",
                                                 "net.num_classes: 257\n"))
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run),
                 "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert f"{report}: num_classes must be <= 256, got 257" in err, err
    assert not (tmp_path / "ev").exists()


def test_checkpoint_that_does_not_fit_the_net_names_the_file(dataset, trained_run,
                                                             tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    report = run / "report.txt"
    report.write_text(report.read_text().replace("net.depth: 2\n", "net.depth: 1\n"))
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run)]) == 2
    err = capsys.readouterr().err
    assert f"{run / 'checkpoints' / 'site_a_adapted.fpar'}: parameter names" in err, err


def tree_hashes(root):
    return {os.path.relpath(os.path.join(d, f), root): file_hash(os.path.join(d, f))
            for d, _, files in os.walk(root) for f in files}


def test_eval_into_a_run_directory_refuses_and_writes_nothing(dataset, trained_run,
                                                              tmp_path, capsys):
    """A run directory is its report.txt: eval exits 1 naming --out when
    --out holds a run, the evaluated one or another, and leaves it as it
    was."""
    run = tmp_path / "r"
    assert main(["run", "--data", str(dataset), "--out", str(run), "--oracle",
                 *FAST]) == 0
    other = tmp_path / "other"
    shutil.copytree(trained_run, other)
    assert {"bound_terms", "per_model_dice"} <= set(
        read_report(run / "report.txt")["tables"])
    for out in (run, other):
        before = tree_hashes(out)
        capsys.readouterr()
        assert main(["eval", "--data", str(dataset), "--run", str(run), "--oracle",
                     "--out", str(out)]) == 1
        assert f"--out {out} holds a run" in capsys.readouterr().err
        assert tree_hashes(out) == before
    assert not (run / "eval").exists()


def test_eval_reuses_checkpoints(dataset, tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--seed", "3",
                 "--oracle", *FAST]) == 0
    assert main(["eval", "--data", str(dataset), "--run", str(out),
                 "--aggregation", "av", "--oracle", "--sites", "16"]) == 0
    assert (out / "eval" / "report.txt").exists()


def test_eval_predicts_once_per_model(tmp_path, monkeypatch):
    data = tmp_path / "data4"
    assert main(gen_args(data, domains=4)) == 0
    manifest = str(data / "manifest.txt")
    out = tmp_path / "r"
    assert main(["run", "--data", manifest, "--out", str(out), "--seed", "0",
                 *FAST]) == 0
    calls = count_calls(monkeypatch, SegModel, "predict_probs")
    assert main(["eval", "--data", manifest, "--run", str(out), "--oracle",
                 "--sites", "16"]) == 0
    assert len(calls) == 3
    assert len({id(m) for m in calls}) == 3


def test_run_and_eval_encode_the_target_once_per_adapted_model(dataset, tmp_path,
                                                              monkeypatch):
    """The weights, the masks, the bound's target codes and the exported
    embeddings all read one pass of each adapted model over the target."""
    _, entries = read_manifest(dataset)
    [target] = [load_domain(str(dataset), e, read_masks=False)
                for e in entries if e.role == "target"]
    passes = count_target_passes(monkeypatch, target.images)
    out = tmp_path / "r"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--seed", "0",
                 "--workers", "1", *FAST]) == 0
    assert len(passes) == len({id(m) for m in passes}) == 2
    passes.clear()
    assert main(["eval", "--data", str(dataset), "--run", str(out),
                 "--sites", "16"]) == 0
    assert len(passes) == len({id(m) for m in passes}) == 2


def test_eval_reads_only_the_target_rasters(dataset, trained_run, tmp_path, monkeypatch):
    reads = count_calls(monkeypatch, fedseg_data, "read_raster")
    assert main(["eval", "--data", str(dataset), "--run", str(trained_run), "--oracle",
                 "--out", str(tmp_path / "ev"), "--sites", "16"]) == 0
    rel = [os.path.relpath(path, dataset.parent) for path in reads]
    assert len(rel) == 12 and all(r.startswith("site_t" + os.sep) for r in rel), rel


def test_eval_on_a_manifest_without_a_run_source_names_it_and_writes_nothing(
        dataset, trained_run, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    head, *stanzas = (data / "manifest.txt").read_text().split("[domain ")
    (data / "manifest.txt").write_text(
        head + "".join("[domain " + s for s in stanzas if not s.startswith("site_b")))
    out = tmp_path / "ev"
    capsys.readouterr()
    assert main(["eval", "--data", str(data / "manifest.txt"), "--run", str(trained_run),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error: manifest lacks source domains ['site_b']" in err, err
    assert not out.exists()


def test_eval_at_the_run_lambda_reports_the_weights_and_target_hash_of_the_run(
        dataset, trained_run, tmp_path):
    out = tmp_path / "ev"
    assert main(["eval", "--data", str(dataset), "--run", str(trained_run),
                 "--out", str(out), "--sites", "16"]) == 0
    run, ev = (read_report(d / "report.txt") for d in (trained_run, out))
    assert ev["tables"]["weights"] == run["tables"]["weights"]
    assert ev["header"]["target_hash"] == run["header"]["target_hash"] != ""


def test_a_second_eval_into_one_directory_leaves_only_its_masks(dataset, trained_run,
                                                               tmp_path):
    out = tmp_path / "ev"
    for mode in ("fmuda", "pv"):
        assert main(["eval", "--data", str(dataset), "--run", str(trained_run),
                     "--out", str(out), "--aggregation", mode, "--sites", "16"]) == 0
        assert os.listdir(out / "masks") == [mode]


def test_eval_new_lambda_reweights_the_one_probability_stack(dataset, trained_run,
                                                            tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, SegModel, "predict_probs")
    assert main(["eval", "--data", str(dataset), "--run", str(trained_run),
                 "--out", str(tmp_path / "eval"), "--lambda", "0.6", "--sites", "16"]) == 0
    assert len(calls) == 2
    # the counts of weighting the adapted checkpoints anew at 0.6
    report = read_report(tmp_path / "eval" / "report.txt")
    rows = report["tables"]["weights"][1:]
    models = []
    for sid, _, _ in rows:
        model = SegModel(NetConfig(depth=2, base_width=4, latent_dim=8))
        model.load_state_dict(load_params(
            trained_run / "checkpoints" / f"{sid}_adapted.fpar"))
        models.append(model)
    _, entries = read_manifest(str(dataset))
    target = load_domain(str(dataset), entries[-1], read_masks=False)
    expected = compute_weights(models, target.images, 0.6)
    assert report["header"]["lambda_conf"] == "0.6"
    assert [int(count) for _, count, _ in rows] == expected.raw_counts


def test_nan_pixel_fails_the_run_naming_domain_epoch_and_step(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(gen_args(data)) == 0
    path = data / "site_b" / "img_001.ndr"
    image = read_raster(path)
    image[0, 4, 4] = np.nan
    write_raster(path, image)
    capsys.readouterr()
    assert main(["run", "--data", str(data / "manifest.txt"), "--out",
                 str(tmp_path / "r"), "--workers", "1", *FAST]) == 2
    err = capsys.readouterr().err
    assert "pretrain of domain 'site_b': non-finite loss nan at epoch 0, step" in err


def test_nan_target_pixel_fails_the_run_naming_domain_epoch_and_step(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(gen_args(data)) == 0
    path = data / "site_t" / "img_003.ndr"
    image = read_raster(path)
    image[0, 4, 4] = np.nan
    write_raster(path, image)
    capsys.readouterr()
    assert main(["run", "--data", str(data / "manifest.txt"), "--out",
                 str(tmp_path / "r"), "--workers", "1", *FAST]) == 2
    err = capsys.readouterr().err
    assert re.search(r"adapt of domain 'site_[ab]': non-finite target embedding "
                     r"at epoch \d+, step \d+", err), err


def test_eval_on_a_nan_target_raster_names_it_and_writes_nothing(dataset, trained_run,
                                                                 tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    path = data / "site_t" / "img_003.ndr"
    image = read_raster(path)
    image[0, 4, 4] = np.nan
    write_raster(path, image)
    out = tmp_path / "ev"
    capsys.readouterr()
    assert main(["eval", "--data", str(data / "manifest.txt"), "--run", str(trained_run),
                 "--out", str(out), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert (f"target domain 'site_t': non-finite values in "
            f"{os.path.join(str(data), 'site_t/img_003.ndr')}") in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, raster, other", [
    ("run", "site_b/img_001.ndr", np.zeros((1, 8, 8))),
    ("run", "site_a/msk_002.ndr", np.zeros((8, 8), dtype=np.uint8)),
    ("run", "site_t/img_003.ndr", np.zeros((1, 8, 8))),
    ("eval", "site_t/img_003.ndr", np.zeros((1, 8, 8))),
], ids=["run-source-image", "run-source-mask", "run-target-image", "eval-target-image"])
def test_a_raster_of_another_shape_names_its_domain_and_writes_nothing(
        dataset, trained_run, tmp_path, capsys, command, raster, other):
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    write_raster(data / raster, other)
    out = tmp_path / "out"
    argv = {"run": ["run", "--workers", "1", *FAST],
            "eval": ["eval", "--run", str(trained_run), "--oracle"]}[command]
    capsys.readouterr()
    assert main(argv + ["--data", str(data / "manifest.txt"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"domain '{raster.split('/')[0]}'" in err and str(other.shape) in err, err
    assert not out.exists()


@pytest.mark.parametrize("edit, complaint", [
    (lambda rows: [], "no rows in table 'weights'"),
    (lambda rows: [rows[0].replace(",", ",x", 1)] + rows[1:], "in table 'weights'"),
    (lambda rows: [rows[0].rsplit(",", 1)[0]] + rows[1:], "in table 'weights'"),
], ids=["no-rows", "non-integer-count", "short-row"])
def test_malformed_ensemble_names_file(dataset, trained_run, tmp_path, capsys, edit,
                                       complaint):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    report = run / "report.txt"
    head, table = report.read_text().split("[weights]\nsource_id,raw_count,weight\n")
    rows, rest = table.split("\n\n", 1)
    report.write_text(head + "[weights]\nsource_id,raw_count,weight\n"
                      + "".join(row + "\n" for row in edit(rows.splitlines()))
                      + "\n" + rest)
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run)]) == 2
    err = capsys.readouterr().err
    assert str(report) in err
    assert complaint in err


@pytest.mark.parametrize("bad, complaint", [
    (b"garbage line without colon\n", ":5: expected 'key: value', "
                                        "got 'garbage line without colon'"),
    (b"net.depth\xff: 2\n", ": 'utf-8' codec can't decode byte 0xff"),
], ids=["no-colon", "not-utf8"])
def test_an_unparsable_run_report_line_names_file_and_line_once(dataset, trained_run,
                                                                  tmp_path, capsys, bad,
                                                                  complaint):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    report = run / "report.txt"
    lines = report.read_bytes().splitlines(keepends=True)
    report.write_bytes(b"".join(lines[:4] + [bad] + lines[4:]))
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run),
                 "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert f"{report}{complaint}" in err, err
    assert err.count(str(report)) == 1, err
    assert not (tmp_path / "ev").exists()


def test_sweep_lambda_csv_shape(dataset, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--data", str(dataset), "--out", str(out),
                 "--parameter", "lambda", "--values", "0.1,0.3,0.5,0.7,0.9",
                 "--seed", "0", *FAST]) == 0
    lines = (out / "sweep_lambda.csv").read_text().splitlines()
    assert lines[0] == "value,dice"
    assert len(lines) == 6


def test_sweep_rejects_bad_values_before_running(dataset, tmp_path):
    assert main(["sweep", "--data", str(dataset), "--out", str(tmp_path / "x"),
                 "--parameter", "lambda", "--values", "0.5,1.5", *FAST]) == 1
    assert main(["sweep", "--data", str(dataset), "--out", str(tmp_path / "y"),
                 "--parameter", "L", "--values", "", *FAST]) == 1
    assert not (tmp_path / "x").exists()


def test_audit_command(dataset, tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--seed", "0",
                 *FAST]) == 0
    assert main(["audit", "--log", str(out / "audit.log")]) == 0
    bad = tmp_path / "bad.log"
    bad.write_text("# from_name,from_kind,to_name,to_kind,payload_kind,byte_size\n"
                   "s1,source,s2,source,unlabeled_images,64\n")
    assert main(["audit", "--log", str(bad)]) == 2
    assert main(["audit", "--log", str(tmp_path / "absent.log")]) == 1


@pytest.mark.parametrize("command", ["audit", "add-source"])
@pytest.mark.parametrize("field, index, bad", [
    ("byte_size", 5, b"{}x"), ("from_kind", 1, b"tgt"), (None, 5, b"{}\xff"),
], ids=["byte-size", "node-kind", "not-utf8"])
def test_a_bad_audit_log_field_names_file_line_and_field(trained_run, tmp_path, capsys,
                                                         command, field, index, bad):
    if command == "audit":
        log = tmp_path / "audit.log"
        shutil.copy(trained_run / "audit.log", log)
        argv = ["audit", "--log", str(log)]
    else:
        manifest, run = two_source_run(tmp_path)
        log = run / "audit.log"
        argv = ["run", "--data", str(manifest), "--out", str(run), "--seed", "2",
                "--add-source", "site_c", *FAST]
    lines = log.read_bytes().splitlines()
    parts = lines[1].split(b",")
    parts[index] = bad.replace(b"{}", parts[index])
    lines[1] = b",".join(parts)
    log.write_bytes(b"\n".join(lines) + b"\n")
    before = tree_hashes(log.parent)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    if field is None:  # a byte that no UTF-8 text holds
        assert f"{log}:2: 'utf-8' codec can't decode byte 0xff" in err, err
    else:
        assert f"{log}:2: field '{field}': " in err, err
        assert repr(parts[index].decode()) in err, err
    assert tree_hashes(log.parent) == before


@pytest.fixture(scope="module")
def grown_data(tmp_path_factory):
    """two_source_run's manifest and run, to be copied before a change."""
    return two_source_run(tmp_path_factory.mktemp("grown"))


def report_line(key, value=None):
    """An edit of a run's report: the key's line set to value, or dropped."""
    def edit(run):
        report = run / "report.txt"
        lines = report.read_text().splitlines(True)
        new = "" if value is None else f"{key}: {value}\n"
        report.write_text("".join(new if line.startswith(f"{key}:") else line
                                  for line in lines))
    return edit


def drop(rel):
    return lambda run: (run / rel).unlink()


@pytest.mark.parametrize("command, source, edit, complaint, code", [
    ("eval", None, report_line("net.latent_dim"),
     "{run}/report.txt: missing or bad field 'net.latent_dim'", 2),
    ("eval", None, report_line("plan.epochs_adapt", "1.5"),
     "{run}/report.txt: missing or bad field 'plan.epochs_adapt'", 2),
    ("eval", None, report_line("plan.gamma"),
     "{run}/report.txt: missing or bad field 'plan.gamma'", 2),
    ("eval", None, drop("checkpoints/site_b_adapted.fpar"),
     "missing checkpoint {run}/checkpoints/site_b_adapted.fpar", 1),
    ("add-source", "site_c", report_line("plan.swd_L", "'8'"),
     "{run}/report.txt: missing or bad field 'plan.swd_L'", 2),
    ("add-source", "site_c", drop("checkpoints/site_a_pretrained.fpar"),
     "missing checkpoint {run}/checkpoints/site_a_pretrained.fpar", 1),
    ("add-source", "site_x", None, "--add-source 'site_x' not in the manifest", 1),
    ("add-source", "site_b", None, "source 'site_b' already in the ensemble", 1),
    ("add-source", "site_c", drop("audit.log"), "audit log not found: {run}/audit.log", 1),
], ids=["eval-missing-net-line", "eval-float-plan-line", "eval-missing-plan-line",
        "eval-missing-adapted-checkpoint", "add-source-string-plan-line",
        "add-source-missing-pretrained-checkpoint", "add-source-not-in-manifest",
        "add-source-already-in-ensemble", "add-source-without-audit-log"])
def test_a_run_directory_the_loader_refuses_names_the_file_or_field(
        grown_data, tmp_path, capsys, command, source, edit, complaint, code):
    """Each refusal of a run directory, of its report, checkpoints and audit
    log, exits with its code, names what it refuses and writes nothing."""
    manifest, grown = grown_data
    run = tmp_path / "run"
    shutil.copytree(grown, run)
    if edit is not None:
        edit(run)
    if command == "eval":
        argv = ["eval", "--data", str(manifest), "--run", str(run),
                "--out", str(tmp_path / "ev")]
    else:
        argv = ["run", "--data", str(manifest), "--out", str(run), "--seed", "2",
                "--add-source", source, *FAST]
    before = tree_hashes(run)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert complaint.format(run=run) in err, err
    assert tree_hashes(run) == before
    assert not (tmp_path / "ev").exists()


def test_unknown_flag_is_usage_error():
    assert main(["run", "--nonsense"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--parameter", "lambda", "--values", "0.1,abc"], "--values"),
    (["sweep", "--parameter", "L", "--values", "5,2.5"], "--values"),
    (["gen", "--domains", "0"], "--domains"),
    (["gen", "--images", "0"], "--images"),
    (["gen", "--size", "2"], "--size"),
    (["sweep", "--parameter", "gamma", "--values", "1,nan"], "--values"),
    (["run", "--lr", "0"], "--lr"),
    (["run", "--lr", "-1"], "--lr"),
    (["run", "--lr", "nan"], "--lr"),
    (["run", "--lr", "inf"], "--lr"),
    (["run", "--gamma", "nan"], "--gamma"),
    (["run", "--gamma", "inf"], "--gamma"),
    (["eval", "--lambda", "1.5"], "--lambda"),
    (["eval", "--sites", "0"], "--sites"),
    (["run", "--workers", "-1"], "--workers"),
    (["sweep", "--parameter", "lambda", "--values", "0.5", "--workers", "-1"],
     "--workers"),
], ids=["sweep-float", "sweep-int", "gen-domains", "gen-images", "gen-size",
        "sweep-gamma-nan", "run-lr-zero", "run-lr-negative", "run-lr-nan", "run-lr-inf",
        "run-gamma-nan", "run-gamma-inf", "eval-lambda", "eval-sites",
        "run-workers-negative", "sweep-workers-negative"])
def test_bad_flag_value_is_usage_error(dataset, trained_run, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    extra = {"sweep": ["--data", str(dataset), *FAST], "run": ["--data", str(dataset), *FAST],
             "eval": ["--data", str(dataset), "--run", str(trained_run)]}
    capsys.readouterr()
    assert main([argv[0], "--out", str(out), *argv[1:], *extra.get(argv[0], [])]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


SETTINGS = {f.name for cls in (TrainPlan, NetConfig) for f in dataclasses.fields(cls)}


def test_no_settings_flag_has_a_default_of_its_own():
    """A flag not given must keep the base value, so none may carry one."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("run", "sweep", "eval"):
        actions = [a for a in sub.choices[command]._actions if a.dest in SETTINGS]
        assert actions, command
        assert [(command, a.dest) for a in actions if a.default is not None] == []


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--parameter", "gamma",
                                            "--values", "1.0"]], ids=["run", "sweep"])
def test_a_flag_less_command_trains_the_default_plan_and_net(dataset, tmp_path,
                                                            monkeypatch, argv):
    seen = []

    def stop(sources, target, plan, config, **kwargs):
        seen.append((plan, config))
        raise RuntimeError("stop before training")

    monkeypatch.setattr(cli, "run_msuda", stop)
    assert main([*argv, "--data", str(dataset), "--out", str(tmp_path / "o")]) == 2
    assert seen == [(TrainPlan(), NetConfig())]
    assert TrainPlan() == TrainPlan(epochs_pretrain=30, epochs_adapt=40, batch_size=4,
                                    gamma=1.0, swd_L=50, lambda_conf=0.3, seed=0,
                                    embed_sites=64, learning_rate=1e-3)
    assert NetConfig() == NetConfig(spatial_rank=2, in_channels=1, num_classes=2,
                                    depth=2, base_width=8, latent_dim=16,
                                    skip_connections=True)


@pytest.mark.parametrize("flag", ["--depth", "--base-width", "--latent-dim"])
def test_a_value_the_net_rejects_is_usage_error_naming_its_flag(dataset, tmp_path,
                                                               capsys, flag):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--data", str(dataset), "--out", str(out), flag, "0"]) == 1
    assert f"usage error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_divergent_learning_rate_fails_naming_domain_epoch_and_step(dataset, tmp_path,
                                                                   capsys):
    """The overflow inside the ops raises no numpy warning: the error line
    is all the run prints."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     "--workers", "1", *FAST, "--lr", "1e200"]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "[run] error: pretrain of domain 'site_a': non-finite loss nan at epoch 0, step 1"]


def test_a_model_with_non_finite_target_probabilities_fails_the_run_naming_its_source(
        dataset, tmp_path, capsys):
    """One pretrain step at this learning rate leaves finite parameters whose
    target pass overflows: the run stops before any checkpoint is written."""
    out = tmp_path / "r"
    capsys.readouterr()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--data", str(dataset), "--out", str(out), "--workers", "1",
                     *FAST, "--lr", "1e308", "--epochs-pretrain", "1",
                     "--epochs-adapt", "0", "--batch-size", "6"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "[run] error: source 'site_a': non-finite target probabilities"]
    assert not (out / "checkpoints").exists()


def test_eval_of_a_model_with_non_finite_target_probabilities_names_it_and_writes_nothing(
        dataset, trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    ckpt = run / "checkpoints" / "site_b_adapted.fpar"
    save_params({name: np.full_like(arr, 1e300) for name, arr in load_params(ckpt).items()},
                ckpt)
    out = tmp_path / "ev"
    capsys.readouterr()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["eval", "--data", str(dataset), "--run", str(run),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "[eval] error: source 'site_b': non-finite target probabilities"]
    assert not out.exists()


def test_a_node_model_with_a_non_finite_parameter_fails_the_run_naming_it(
        dataset, tmp_path, capsys, monkeypatch):
    """A -inf bias of an encoder channel leaves the target probabilities
    finite, as the channel's ReLU is dead; the node refuses the model, so no
    checkpoint that a later eval refuses is written."""
    original = federation.adapt

    def adapt(*args, **kwargs):
        adapted = original(*args, **kwargs)
        adapted.model.params["enc0.b"].data[0] = -np.inf
        return adapted

    monkeypatch.setattr(federation, "adapt", adapt)
    out = tmp_path / "r"
    capsys.readouterr()
    assert main(["run", "--data", str(dataset), "--out", str(out), "--workers", "1",
                 *FAST]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "[run] error: source 'site_a': adapted model: non-finite values in parameter "
        "'enc0.b'"]
    assert not (out / "checkpoints").exists()


def no_space(*args, **kwargs):
    raise OSError(28, "No space left on device")


def test_a_run_whose_evaluation_fails_writes_nothing(dataset, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(evaluation, "measure_joint_error", no_space)
    out = tmp_path / "r"
    capsys.readouterr()
    assert main(["run", "--data", str(dataset), "--out", str(out), "--oracle",
                 "--workers", "1", *FAST]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "[run] error: [Errno 28] No space left on device"]
    assert os.listdir(out) == []  # no checkpoints/ or curves/


def test_an_add_source_whose_evaluation_fails_leaves_the_run_as_it_was(
        tmp_path, monkeypatch):
    manifest, run = two_source_run(tmp_path)
    before = tree_hashes(run)
    monkeypatch.setattr(evaluation, "measure_joint_error", no_space)
    assert main(["run", "--data", str(manifest), "--out", str(run), "--seed", "2",
                 "--add-source", "site_c", "--oracle", *FAST]) == 2
    assert tree_hashes(run) == before


@pytest.mark.parametrize("old, new, complaint", [
    ("gain=", "gian=", "shift field 'gain' is missing"),
    ("noise=", "noise=abc", "shift field 'noise' is 'abc"),
    ("noise=", "noise=-", "noise_sigma and bias_field_amplitude must be >= 0"),
], ids=["missing-key", "non-numeric", "negative"])
def test_malformed_manifest_shift_names_file(dataset, tmp_path, capsys, old, new,
                                             complaint):
    lines = dataset.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("shift:"))
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    bad = dataset.parent / f"manifest_{tmp_path.name}.txt"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--data", str(bad), "--out", str(tmp_path / "r"), *FAST]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:{lineno}: " in err
    assert complaint in err


@pytest.mark.parametrize("keep", [7, -100], ids=["header", "payload"])
def test_truncated_checkpoint_names_file(dataset, trained_run, tmp_path, capsys, keep):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    ckpt = run / "checkpoints" / "site_b_adapted.fpar"
    ckpt.write_bytes(ckpt.read_bytes()[:keep])
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset), "--run", str(run)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err
    assert "truncated" in err


@pytest.mark.parametrize("command", ["eval", "add-source"])
@pytest.mark.parametrize("checkpoint, parameter, value", [
    ("site_a_adapted.fpar", "bottleneck.b", np.nan),
    ("site_b_adapted.fpar", "head.w", np.inf),
], ids=["nan", "inf"])
def test_a_non_finite_checkpoint_value_names_file_and_parameter(
        dataset, trained_run, tmp_path, capsys, command, checkpoint, parameter, value):
    """Refused where the checkpoint is loaded, before anything is written."""
    if command == "eval":
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        argv = ["eval", "--data", str(dataset), "--run", str(run), "--oracle"]
    else:
        manifest, run = two_source_run(tmp_path)
        argv = ["run", "--data", str(manifest), "--out", str(run), "--seed", "2",
                "--add-source", "site_c", *FAST]
    ckpt = run / "checkpoints" / checkpoint
    state = {name: arr.copy() for name, arr in load_params(ckpt).items()}
    state[parameter][(0,) * state[parameter].ndim] = value
    save_params(state, ckpt)
    before = tree_hashes(run)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: non-finite values in parameter '{parameter}'" in err, err
    assert tree_hashes(run) == before  # no report.txt, masks or checkpoint written
