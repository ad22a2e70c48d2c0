"""Command-line pipeline driver: gen, run, eval, sweep, audit.

Exit codes are a stable scripting contract: 0 success, 1 usage error
(bad flags, invalid values, refused overwrite), 2 runtime error. gen, run,
eval and sweep take --seed and are reproducible; reports differ across
identical runs only in the timestamp line.

Evaluation modes that report Dice (oracle mode, sweeps, suda aggregation)
read target labels; plain runs never do, which the audit counter verifies.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .autodiff import load_params, save_params
from .benchmark import benchmark_shifts
from .data import (DomainShift, ManifestEntry, generate_domains, load_domain,
                   read_manifest, write_manifest, write_raster)
from .ensembling import (AdaptedModelSet, EnsembleWeights, aggregate,
                         confidence_weights, stack_probs)
from .evaluation import dice, emit_report, evaluate_run, export_embeddings
from .federation import AuditLog, FederationResult, audit_check, extend_run, run_msuda
from .network import NetConfig, SegModel, sample_sites
from .training import AdaptedModel, TrainPlan, write_step_log
from .util import derive_seed

# Bound here only because perfbench/tracing.py wraps each of these names on
# this module and fails when one is missing.
from .ensembling import average_vote, compute_weights, popular_vote  # noqa: F401
from .evaluation import (bound_right_hand_side, bound_terms,  # noqa: F401
                         measure_joint_error, mixture_target_ce, model_target_dice)
from .network import embed  # noqa: F401


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- argument plumbing -----------------------------------------------------------


def _add_net_flags(p):
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--base-width", type=int, default=8)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--no-skips", action="store_true",
                   help="disable latent reinjection in the decoder")


def _add_plan_flags(p):
    p.add_argument("--epochs-pretrain", type=int, default=30)
    p.add_argument("--epochs-adapt", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="weight of the distribution-alignment term")
    p.add_argument("--swd-l", type=int, default=50,
                   help="number of random projections")
    p.add_argument("--lambda", dest="lambda_conf", type=float, default=0.3,
                   help="confidence threshold for ensemble weights")
    p.add_argument("--sites", type=int, default=64,
                   help="embedding sites sampled per image")
    p.add_argument("--lr", type=float, default=1e-3)


def _net_config(args) -> NetConfig:
    return NetConfig(spatial_rank=2, in_channels=1, num_classes=2,
                     depth=args.depth, base_width=args.base_width,
                     latent_dim=args.latent_dim,
                     skip_connections=not args.no_skips)


# the flag that sets each field TrainPlan can reject
_PLAN_FLAGS = {"epochs_pretrain": "--epochs-pretrain", "epochs_adapt": "--epochs-adapt",
               "batch_size": "--batch-size", "swd_L": "--swd-l", "embed_sites": "--sites",
               "gamma": "--gamma", "lambda_conf": "--lambda", "learning_rate": "--lr"}


def _checked_plan(**fields) -> TrainPlan:
    """TrainPlan(**fields); a rejected field is a usage error naming its flag."""
    try:
        return TrainPlan(**fields)
    except ValueError as exc:
        field = str(exc).split()[0]
        raise UsageError(f"{_PLAN_FLAGS[field]}: {exc}") from None


def _plan(args) -> TrainPlan:
    return _checked_plan(
        epochs_pretrain=args.epochs_pretrain, epochs_adapt=args.epochs_adapt,
        batch_size=args.batch_size, gamma=args.gamma, swd_L=args.swd_l,
        lambda_conf=args.lambda_conf, seed=args.seed, embed_sites=args.sites,
        learning_rate=args.lr,
    )


def _workers(args, sources) -> int:
    """--workers, where 0 means one per source."""
    if args.workers < 0:
        raise UsageError(f"--workers must be >= 0, got {args.workers}")
    return args.workers or len(sources)


def _manifest_roles(manifest_path):
    """The manifest's source entries and its one target entry."""
    if not os.path.exists(manifest_path):
        raise UsageError(f"manifest not found: {manifest_path}")
    _, entries = read_manifest(manifest_path)
    sources = [e for e in entries if e.role == "source"]
    targets = [e for e in entries if e.role != "source"]
    if not sources or len(targets) != 1:
        raise UsageError(
            f"manifest must designate >=1 source and exactly 1 target, found "
            f"{len(sources)} sources and {len(targets)} targets"
        )
    return sources, targets[0]


def _load_datasets(manifest_path, oracle_mode):
    """The source datasets and the target of a manifest."""
    entries, target = _manifest_roles(manifest_path)
    return ([load_domain(manifest_path, e, read_masks=True) for e in entries],
            load_domain(manifest_path, target, read_masks=oracle_mode))


def _check_target_finite(manifest_path, entry, target):
    """Fail naming the raster before eval writes anything for a non-finite
    target image; a run names the phase and step where the NaN surfaces."""
    for path, image in zip(entry.image_paths, target.images):
        if not np.isfinite(image).all():
            raise ValueError(
                f"target domain '{target.domain_id}': non-finite values in "
                f"{os.path.join(os.path.dirname(manifest_path), path)}")


def _prepare_out(path, force):
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise UsageError(f"output directory {path} is not empty (use --force)")
    os.makedirs(path, exist_ok=True)


# -- gen -----------------------------------------------------------------------


def _palette_shift(rng, index) -> DomainShift:
    return DomainShift(
        intensity_gain=float(rng.uniform(0.7, 1.5)),
        intensity_offset=float(rng.uniform(-0.2, 0.3)),
        noise_sigma=0.03,
        bias_field_amplitude=0.05,
        seed=int(index + 1) * 17,
    )


def cmd_gen(args) -> int:
    if args.domains < 1:
        raise UsageError(f"--domains must be >= 1, got {args.domains}")
    if args.images < 1:
        raise UsageError(f"--images must be >= 1, got {args.images}")
    if args.size < 4:
        raise UsageError(f"--size must be >= 4, got {args.size}")
    _prepare_out(args.out, args.force)
    names = [f"site_{chr(ord('a') + i)}" for i in range(args.domains - 1)]
    names.append("site_t" if args.domains > 1 else "site_a")
    if args.domains == 3 and not args.palette:
        shifts = benchmark_shifts(corrupted=args.corrupted)
        names = ["site_a", "site_b", "site_t"]
        shift_list = [shifts[n] for n in names]
    else:
        rng = np.random.default_rng(derive_seed(args.seed, "gen-palette"))
        shift_list = [_palette_shift(rng, i) for i in range(args.domains - 1)]
        shift_list.append(DomainShift(0.25, 0.55, 0.02, 0.05, seed=173))
        if args.domains == 1:
            shift_list = shift_list[-1:]
    domains = generate_domains(derive_seed(args.seed, "benchmark-phantoms"),
                               args.domains, args.images,
                               (args.size, args.size), shift_list)
    entries = []
    for ds, name, shift in zip(domains, names, shift_list):
        ds.domain_id = name
        role = "target" if name == names[-1] and args.domains > 1 else "source"
        ddir = os.path.join(args.out, name)
        os.makedirs(ddir, exist_ok=True)
        entry = ManifestEntry(name, role, shift)
        for i, (img, msk) in enumerate(zip(ds.images, ds.masks)):
            write_raster(os.path.join(ddir, f"img_{i:03d}.ndr"), img)
            write_raster(os.path.join(ddir, f"msk_{i:03d}.ndr"), msk)
            entry.image_paths.append(f"{name}/img_{i:03d}.ndr")
            entry.mask_paths.append(f"{name}/msk_{i:03d}.ndr")
        entries.append(entry)
        print(f"{name} ({role}): {len(ds)} images "
              f"gain={shift.intensity_gain} offset={shift.intensity_offset} "
              f"noise={shift.noise_sigma} bias={shift.bias_field_amplitude}")
    write_manifest(os.path.join(args.out, "manifest.txt"), entries,
                   base_seed=args.seed, num_classes=2)
    print(f"manifest: {os.path.join(args.out, 'manifest.txt')}")
    return 0


# -- shared run/eval machinery ----------------------------------------------------


def _write_ensemble(path, weights: EnsembleWeights, source_ids):
    lines = [f"lambda_conf: {weights.lambda_conf!r}",
             f"target_hash: {weights.target_hash}",
             f"uniform_fallback: {str(weights.uniform_fallback).lower()}",
             "source_id,raw_count"]
    for sid, count in zip(source_ids, weights.raw_counts):
        lines.append(f"{sid},{count}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_ensemble(path):
    """Source ids and weights stored in ensemble.txt. A malformed file raises
    ValueError naming the path and the bad line or field."""
    header, counts, ids = {}, [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line == "source_id,raw_count":
                continue
            if ":" in line:
                key, value = line.split(":", 1)
                header[key.strip()] = value.strip()
                continue
            sid, _, count = line.partition(",")
            if not sid or not count.isdigit():
                raise ValueError(f"{path}:{lineno}: expected 'source_id,raw_count', "
                                 f"got {line!r}")
            ids.append(sid)
            counts.append(int(count))
    if not ids:
        raise ValueError(f"{path}: no 'source_id,raw_count' rows")
    try:
        lambda_conf = float(header["lambda_conf"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: missing or bad field 'lambda_conf'") from None
    return ids, EnsembleWeights.from_counts(counts, lambda_conf,
                                            header.get("target_hash", ""))


def _write_outputs(out_dir, report, masks, mode, models, latents, plan,
                   audit_log=None):
    """Report, masks, audit log and the embeddings sampled from latents."""
    report.aggregation = mode
    emit_report(report, os.path.join(out_dir, "report.txt"))
    mask_dir = os.path.join(out_dir, "masks", mode)
    os.makedirs(mask_dir, exist_ok=True)
    for i, mask in enumerate(masks[mode].astype(np.uint8)):
        write_raster(os.path.join(mask_dir, f"pred_{i:03d}.ndr"), mask)
    if audit_log is not None:
        audit_log.write(os.path.join(out_dir, "audit.log"))
    batches = [sample_sites(z, plan.embed_sites,
                            seed=derive_seed(plan.seed, "export", am.source_id),
                            domain_tag=f"{am.source_id}/target_post")
               for am, z in zip(models, latents)]
    export_embeddings(batches, os.path.join(out_dir, "embeddings.csv"))


def _write_run(args, result, trained, sources, target):
    """Checkpoints and step logs of the `trained` models, then ensemble.txt,
    the evaluated outputs and the audit log of the whole run."""
    for am in trained:
        ckpt = os.path.join(args.out, "checkpoints", am.source_id)
        save_params(result.pretrained[am.source_id].state_dict(),
                    f"{ckpt}_pretrained.fpar")
        save_params(am.model.state_dict(), f"{ckpt}_adapted.fpar")
        write_step_log(am, os.path.join(args.out, "curves", f"{am.source_id}.csv"))
    _write_ensemble(os.path.join(args.out, "ensemble.txt"), result.weights,
                    result.adapted.source_ids())

    probs, latents = result.target_probs, result.target_latents
    if latents is None:  # an extended run: extend_run ran only the new model
        latents = []
        probs = stack_probs(result.adapted.models, target.image_stack(), latents)
    report, masks = evaluate_run(result.adapted.models, result.weights, sources,
                                 target, result.plan, result.config,
                                 result.oracle_mode, args.seed, probs, latents,
                                 pretrained=result.pretrained)
    report.settings["audit.target_label_reads"] = target.label_reads
    if not result.oracle_mode and target.label_reads != 0:
        raise RuntimeError("target labels were read outside oracle mode")
    _write_outputs(args.out, report, masks, args.aggregation,
                   result.adapted.models, latents, result.plan,
                   audit_log=result.audit_log)


def cmd_run(args) -> int:
    oracle = args.oracle
    if args.aggregation == "suda" and not oracle:
        raise UsageError("--aggregation suda needs --oracle (selects by target Dice)")
    sources, target = _load_datasets(args.data, oracle)
    plan = _plan(args)
    config = _net_config(args)
    workers = _workers(args, sources)

    if args.add_source:
        return _run_add_source(args, sources, target, plan, config)

    _prepare_out(args.out, args.force)
    result = run_msuda(sources, target, plan, config, oracle_mode=oracle,
                       workers=workers, keep_latents=True)
    os.makedirs(os.path.join(args.out, "checkpoints"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "curves"), exist_ok=True)
    _write_run(args, result, result.adapted.models, sources, target)
    print(f"run complete: {args.out} "
          f"(weights {[round(w, 4) for w in result.weights.weights]})")
    return 0


def _checkpoint(run_dir, source_id, kind, config) -> SegModel:
    path = os.path.join(run_dir, "checkpoints", f"{source_id}_{kind}.fpar")
    if not os.path.exists(path):
        raise UsageError(f"missing checkpoint {path}")
    model = SegModel(config, seed=0)
    model.load_state_dict(load_params(path))
    return model


def _load_run(run_dir, config):
    """Source ids, ensemble weights and adapted models of a run directory."""
    path = os.path.join(run_dir, "ensemble.txt")
    if not os.path.exists(path):
        raise UsageError(f"{run_dir} holds no ensemble.txt (not a run directory?)")
    ids, weights = _read_ensemble(path)
    models = [AdaptedModel(model=_checkpoint(run_dir, sid, "adapted", config),
                           source_id=sid) for sid in ids]
    return ids, weights, models


def _run_sources(sources, ids):
    by_id = {ds.domain_id: ds for ds in sources}
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise UsageError(f"manifest lacks source domains {missing} from the run")
    return [by_id[sid] for sid in ids]


def _run_add_source(args, sources, target, plan, config) -> int:
    """Rebuild the run in args.out and extend it by one source over the bus."""
    if args.add_source not in {ds.domain_id for ds in sources}:
        raise UsageError(f"--add-source {args.add_source!r} not in the manifest")
    ids, weights, models = _load_run(args.out, config)
    if args.add_source in ids:
        raise UsageError(f"source {args.add_source!r} already in the ensemble")
    run_sources = _run_sources(sources, ids + [args.add_source])
    audit_path = os.path.join(args.out, "audit.log")
    if not os.path.exists(audit_path):
        raise UsageError(f"audit log not found: {audit_path} "
                         f"(--add-source extends the run's audit trail)")

    prior = FederationResult(
        adapted=AdaptedModelSet(models), weights=weights,
        audit_log=AuditLog.read(audit_path),
        pretrained={sid: _checkpoint(args.out, sid, "pretrained", config)
                    for sid in ids},
        config=config, plan=plan, oracle_mode=args.oracle, target_label_reads=0)
    result = extend_run(prior, run_sources[-1], target)
    _write_run(args, result, result.adapted.models[-1:], run_sources, target)
    print(f"added source {args.add_source}: weights "
          f"{[round(w, 4) for w in result.weights.weights]}")
    return 0


def cmd_eval(args) -> int:
    oracle = args.oracle
    if args.aggregation == "suda" and not oracle:
        raise UsageError("--aggregation suda needs --oracle (selects by target Dice)")
    source_entries, target_entry = _manifest_roles(args.data)  # no source is read
    target = load_domain(args.data, target_entry, read_masks=oracle)
    _check_target_finite(args.data, target_entry, target)
    config = _net_config(args)
    ids, weights, models = _load_run(args.run, config)
    _run_sources(source_entries, ids)
    lambda_conf = weights.lambda_conf if args.lambda_conf is None else args.lambda_conf
    if lambda_conf != weights.lambda_conf:
        weights = None  # evaluate_run weights its own probability stack
    plan = _checked_plan(seed=args.seed, lambda_conf=lambda_conf, embed_sites=args.sites)
    out_dir = args.out or os.path.join(args.run, "eval")
    os.makedirs(out_dir, exist_ok=True)
    latents = []
    probs = stack_probs(models, target.image_stack(), latents)
    report, masks = evaluate_run(models, weights, None, target, plan, config, oracle,
                                 args.seed, probs, with_bound=False)
    _write_outputs(out_dir, report, masks, args.aggregation, models, latents, plan)
    print(f"eval complete: {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise UsageError("--values is empty")
    kind = int if args.parameter == "L" else float
    try:
        parsed = [kind(v) for v in values]
    except ValueError as exc:
        raise UsageError(f"--values: {exc}") from None
    if args.parameter == "lambda":
        if any(not 0.0 < v < 1.0 for v in parsed):
            raise UsageError(f"--values: lambda values must lie in (0,1): {parsed}")
    elif args.parameter == "L":
        if any(v < 1 for v in parsed):
            raise UsageError(f"--values: L values must be >= 1: {parsed}")
    else:  # gamma
        if any(not math.isfinite(v) or v < 0 for v in parsed):
            raise UsageError(f"--values: gamma values must be finite and >= 0: {parsed}")

    sources, target = _load_datasets(args.data, oracle_mode=True)
    plan = _plan(args)
    config = _net_config(args)
    workers = _workers(args, sources)
    _prepare_out(args.out, args.force)
    truth = target.mask_stack()

    rows = []
    if args.parameter == "lambda":
        result = run_msuda(sources, target, plan, config, oracle_mode=True,
                           workers=workers)
        probs = result.target_probs
        for lam in parsed:
            score = dice(aggregate(probs, confidence_weights(probs, lam)).mask, truth)
            rows.append((lam, score))
    else:
        field = "swd_L" if args.parameter == "L" else "gamma"
        for value in parsed:
            variant = dataclasses.replace(plan, **{field: value})
            result = run_msuda(sources, target, variant, config, oracle_mode=True,
                               workers=workers)
            score = dice(aggregate(result.target_probs, result.weights).mask, truth)
            rows.append((value, score))

    csv_path = os.path.join(args.out, f"sweep_{args.parameter}.csv")
    with open(csv_path, "w") as fh:
        fh.write("value,dice\n")
        for value, score in rows:
            fh.write(f"{value},{score!r}\n")
    for value, score in rows:
        print(f"{args.parameter}={value}: dice={score:.4f}")
    print(f"sweep CSV: {csv_path}")
    return 0


def cmd_audit(args) -> int:
    if not os.path.exists(args.log):
        raise UsageError(f"audit log not found: {args.log}")
    report = audit_check(AuditLog.read(args.log))
    if report.ok:
        print("audit: pass")
        return 0
    print(f"audit: FAIL at record {report.violation_index}: {report.reason}")
    return 2


# -- entry point --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fedseg",
                     description="Federated multi-source domain adaptation "
                                 "for segmentation, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic multi-domain dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--domains", type=int, default=3)
    p.add_argument("--images", type=int, default=12)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupted", action="store_true",
                   help="replace the second source with the signal-dead scanner")
    p.add_argument("--palette", action="store_true",
                   help="use generated shifts even for 3 domains")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="train, adapt, ensemble, and report")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aggregation", choices=("fmuda", "pv", "av", "suda"),
                   default="fmuda")
    p.add_argument("--oracle", action="store_true",
                   help="read target labels for evaluation quantities")
    p.add_argument("--workers", type=int, default=0,
                   help="processes training source nodes in parallel "
                        "(default: one per source)")
    p.add_argument("--add-source", default=None,
                   help="train only this manifest domain and update the ensemble")
    p.add_argument("--force", action="store_true")
    _add_plan_flags(p)
    _add_net_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="re-evaluate checkpoints from a prior run")
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True, help="directory of a prior run")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aggregation", choices=("fmuda", "pv", "av", "suda"),
                   default="fmuda")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--lambda", dest="lambda_conf", type=float, default=None,
                   help="recompute weights at this threshold (default: stored)")
    p.add_argument("--sites", type=int, default=64)
    _add_net_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="hyperparameter sensitivity sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--parameter", choices=("lambda", "L", "gamma"), required=True)
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--force", action="store_true")
    _add_plan_flags(p)
    _add_net_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("audit", help="check an exported audit log")
    p.add_argument("--log", required=True)
    p.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures get the module-tagged contract
        print(f"[{args.command}] error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
