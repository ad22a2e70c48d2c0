"""Command-line pipeline driver: gen, run, eval, sweep, audit.

Exit codes are a stable scripting contract: 0 success, 1 usage error
(bad flags, invalid values, refused overwrite), 2 runtime error. gen, run,
eval and sweep take --seed and are reproducible; reports differ across
identical runs only in the timestamp line.

Evaluation modes that report Dice (oracle mode, sweeps, suda aggregation)
read target labels; plain runs never do, which the audit counter verifies.

A run directory is its report.txt and its checkpoints: eval and run
--add-source take the net, the plan, the source ids and the target's hash
from the report's net.* and plan.* lines, [weights] table and target_hash
line. Each TrainPlan/NetConfig field the CLI sets has one flag (_SETTINGS);
a flag not given keeps the base value, TrainPlan()'s and NetConfig()'s for
run and sweep, the run's for eval and --add-source, which exits 1 naming
the field where a given flag differs from the run's. A value the plan or
net rejects exits 1 naming its flag. run, --add-source and eval report
weights that federation.target_pass counts in the one pass of each model
over the target.
"""

import argparse
import ast
import dataclasses
import os
import shutil
import sys

import numpy as np

from .autodiff import load_params, save_params
from .benchmark import benchmark_shifts, make_benchmark_domains
from .data import (DomainShift, ManifestEntry, generate_domains, load_domain,
                   read_manifest, write_manifest, write_raster)
from .ensembling import AdaptedModelSet, EnsembleWeights, aggregate, confidence_weights
from .evaluation import dice, emit_report, evaluate_run, export_embeddings, read_report
from .federation import (AuditLog, FederationResult, TargetMismatch, audit_check,
                         extend_run, run_msuda, target_pass)
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


# The flag and help of each TrainPlan/NetConfig field the CLI sets. A flag
# takes its type from the field and defaults to None, so _settings can tell
# the flags given from the rest.
_SETTINGS = {
    "seed": ("--seed", "seed of training, tie breaks and the export"),
    "epochs_pretrain": ("--epochs-pretrain", "supervised epochs per source"),
    "epochs_adapt": ("--epochs-adapt", "adaptation epochs per source"),
    "batch_size": ("--batch-size", None),
    "gamma": ("--gamma", "weight of the distribution-alignment term"),
    "swd_L": ("--swd-l", "number of random projections"),
    "lambda_conf": ("--lambda", "confidence threshold for ensemble weights"),
    "embed_sites": ("--sites", "embedding sites sampled per image"),
    "learning_rate": ("--lr", None),
    "depth": ("--depth", None),
    "base_width": ("--base-width", None),
    "latent_dim": ("--latent-dim", None),
    "skip_connections": ("--no-skips", "disable latent reinjection in the decoder"),
}
_FIELDS = {f.name: f for cls in (TrainPlan, NetConfig) for f in dataclasses.fields(cls)}


def _add_settings(p, names=tuple(_SETTINGS)):
    for name in names:
        flag, text = _SETTINGS[name]
        if _FIELDS[name].type is bool:
            p.add_argument(flag, dest=name, action="store_false", default=None, help=text)
        else:
            p.add_argument(flag, dest=name, type=_FIELDS[name].type, help=text)


def _settings(args, plan, config):
    """plan and config with the fields of the flags args was given replaced;
    a value they reject is a usage error naming its flag."""
    def given(base):
        return {f.name: getattr(args, f.name) for f in dataclasses.fields(base)
                if getattr(args, f.name, None) is not None}
    try:
        return (dataclasses.replace(plan, **given(plan)),
                dataclasses.replace(config, **given(config)))
    except ValueError as exc:
        raise UsageError(f"{_SETTINGS[str(exc).split()[0]][0]}: {exc}") from None


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
    if args.domains < 2:
        raise UsageError(f"--domains must be >= 2, got {args.domains}")
    if args.images < 1:
        raise UsageError(f"--images must be >= 1, got {args.images}")
    if args.size < 4:
        raise UsageError(f"--size must be >= 4, got {args.size}")
    if args.corrupted and args.domains != 3:
        raise UsageError("--corrupted needs the benchmark's 3 domains (--domains 3)")
    _prepare_out(args.out, args.force)
    if args.domains == 3:
        sources, target = make_benchmark_domains(args.seed, args.corrupted,
                                                 images=args.images, size=args.size)
        domains = sources + [target]
        shift_list = [benchmark_shifts(args.corrupted)[ds.domain_id] for ds in domains]
    else:
        rng = np.random.default_rng(derive_seed(args.seed, "gen-palette"))
        shift_list = [_palette_shift(rng, i) for i in range(args.domains - 1)]
        shift_list.append(DomainShift(0.25, 0.55, 0.02, 0.05, seed=173))
        domains = generate_domains(derive_seed(args.seed, "benchmark-phantoms"),
                                   args.domains, args.images,
                                   (args.size, args.size), shift_list)
        names = [f"site_{chr(ord('a') + i)}" for i in range(args.domains - 1)]
        for ds, name in zip(domains, names + ["site_t"]):
            ds.domain_id = name
    entries = []
    for ds, shift in zip(domains, shift_list):
        name = ds.domain_id
        role = "target" if ds is domains[-1] else "source"
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


def _write_outputs(out_dir, report, masks, mode, result):
    """Report, masks, the audit log where the result has one, and the
    embeddings sampled from the result's target latents."""
    report.aggregation = mode
    emit_report(report, os.path.join(out_dir, "report.txt"))
    mask_dir = os.path.join(out_dir, "masks", mode)
    if os.path.isdir(os.path.dirname(mask_dir)):  # an earlier mode's or ensemble's
        shutil.rmtree(os.path.dirname(mask_dir))
    os.makedirs(mask_dir)
    for i, mask in enumerate(masks[mode]):
        write_raster(os.path.join(mask_dir, f"pred_{i:03d}.ndr"), mask)
    if result.audit_log is not None:
        result.audit_log.write(os.path.join(out_dir, "audit.log"))
    plan = result.plan
    batches = [sample_sites(z, plan.embed_sites,
                            seed=derive_seed(plan.seed, "export", am.source_id),
                            domain_tag=f"{am.source_id}/target_post")
               for am, z in zip(result.adapted.models, result.target_latents)]
    export_embeddings(batches, os.path.join(out_dir, "embeddings.csv"))


def _write_run(args, result, trained, sources, target):
    """Checkpoints and step logs of the `trained` models, then the evaluated
    outputs and the audit log of the whole run."""
    for am in trained:
        ckpt = os.path.join(args.out, "checkpoints", am.source_id)
        save_params(result.pretrained[am.source_id].state_dict(),
                    f"{ckpt}_pretrained.fpar")
        save_params(am.model.state_dict(), f"{ckpt}_adapted.fpar")
        write_step_log(am, os.path.join(args.out, "curves", f"{am.source_id}.csv"))
    report, masks = evaluate_run(result, sources, target)
    report.settings["audit.target_label_reads"] = target.label_reads
    if not result.oracle_mode and target.label_reads != 0:
        raise RuntimeError("target labels were read outside oracle mode")
    _write_outputs(args.out, report, masks, args.aggregation, result)


def cmd_run(args) -> int:
    if args.aggregation == "suda" and not args.oracle:
        raise UsageError("--aggregation suda needs --oracle (selects by target Dice)")
    sources, target = _load_datasets(args.data, args.oracle)
    workers = _workers(args, sources)
    if args.add_source:
        return _run_add_source(args, sources, target)
    plan, config = _settings(args, TrainPlan(), NetConfig())
    _prepare_out(args.out, args.force)
    result = run_msuda(sources, target, plan, config, oracle_mode=args.oracle,
                       workers=workers)
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
    state = load_params(path)
    model = SegModel(config, seed=0)
    try:
        model.load_state_dict(state)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def _load_run(run_dir) -> FederationResult:
    """The run _write_run wrote to run_dir: report.txt's net, plan, [weights]
    table (raw counts at plan.lambda_conf) and target_hash, and the adapted
    checkpoints. A bad line or table raises ValueError naming the file and
    the field. It runs no model and reads no audit log."""
    path = os.path.join(run_dir, "report.txt")
    if not os.path.exists(path):
        raise UsageError(f"{run_dir} holds no report.txt (not a run directory?)")

    def value(header, key, default):
        try:
            v = ast.literal_eval(header.get(key, "None"))
        except (ValueError, SyntaxError):
            v = None
        if type(v) is not type(default):
            raise ValueError(f"missing or bad field '{key}'")
        return v

    try:
        report = read_report(path)
        header = report["header"]
        config, plan = [cls(**{f.name: value(header, prefix + f.name, f.default)
                               for f in dataclasses.fields(cls)})
                        for cls, prefix in ((NetConfig, "net."), (TrainPlan, "plan."))]
        rows = report["tables"].get("weights", [])[1:]
        for row in rows:
            if len(row) != 3 or not row[1].isdigit():
                raise ValueError(f"bad row {','.join(row)!r} in table 'weights'")
        if not rows:
            raise ValueError("no rows in table 'weights'")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    weights = EnsembleWeights.from_counts([int(row[1]) for row in rows], plan.lambda_conf,
                                          header.get("target_hash", ""))
    models = [AdaptedModel(model=_checkpoint(run_dir, sid, "adapted", config),
                           source_id=sid) for sid, _, _ in rows]
    return FederationResult(adapted=AdaptedModelSet(models), weights=weights,
                            audit_log=None, pretrained={}, config=config, plan=plan,
                            oracle_mode=False, target_label_reads=0)


def _run_sources(sources, ids):
    by_id = {ds.domain_id: ds for ds in sources}
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise UsageError(f"manifest lacks source domains {missing} from the run")
    return [by_id[sid] for sid in ids]


def _run_add_source(args, sources, target) -> int:
    """Extend the run in args.out by one source over the bus, under the run's
    net and plan, which a given flag must not change."""
    if args.add_source not in {ds.domain_id for ds in sources}:
        raise UsageError(f"--add-source {args.add_source!r} not in the manifest")
    run = _load_run(args.out)
    ids = run.adapted.source_ids()
    if args.add_source in ids:
        raise UsageError(f"source {args.add_source!r} already in the ensemble")
    run_sources = _run_sources(sources, ids + [args.add_source])
    audit_path = os.path.join(args.out, "audit.log")
    if not os.path.exists(audit_path):
        raise UsageError(f"audit log not found: {audit_path} "
                         f"(--add-source extends the run's audit trail)")
    report_path = os.path.join(args.out, "report.txt")
    plan, config = _settings(args, run.plan, run.config)
    for prefix, given, recorded in (("net.", config, run.config), ("plan.", plan, run.plan)):
        for name, value in dataclasses.asdict(recorded).items():
            if getattr(given, name) != value:
                raise UsageError(
                    f"--add-source: {prefix}{name} is {getattr(given, name)!r} by the "
                    f"flags but {value!r} in {report_path}")
    if not run.weights.target_hash:
        raise ValueError(f"{report_path}: missing field 'target_hash'")

    run = dataclasses.replace(
        run, audit_log=AuditLog.read(audit_path), oracle_mode=args.oracle,
        pretrained={sid: _checkpoint(args.out, sid, "pretrained", config) for sid in ids})
    try:
        result = extend_run(run, run_sources[-1], target)
    except TargetMismatch as exc:
        raise TargetMismatch(f"{report_path}: {exc}") from None
    _write_run(args, result, result.adapted.models[-1:], run_sources, target)
    print(f"added source {args.add_source}: weights "
          f"{[round(w, 4) for w in result.weights.weights]}")
    return 0


def cmd_eval(args) -> int:
    if args.aggregation == "suda" and not args.oracle:
        raise UsageError("--aggregation suda needs --oracle (selects by target Dice)")
    out_dir = args.out or os.path.join(args.run, "eval")
    if os.path.isdir(os.path.join(out_dir, "checkpoints")):
        raise UsageError(f"--out {out_dir} holds a run (checkpoints/); eval would "
                         f"overwrite its report and masks")
    source_entries, target_entry = _manifest_roles(args.data)  # no source is read
    target = load_domain(args.data, target_entry, read_masks=args.oracle)
    _check_target_finite(args.data, target_entry, target)
    run = _load_run(args.run)
    _run_sources(source_entries, run.adapted.source_ids())
    plan, _ = _settings(args, run.plan, run.config)
    os.makedirs(out_dir, exist_ok=True)
    result = target_pass(dataclasses.replace(run, plan=plan, oracle_mode=args.oracle),
                         target)
    report, masks = evaluate_run(result, None, target, with_bound=False)
    _write_outputs(out_dir, report, masks, args.aggregation, result)
    print(f"eval complete: {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise UsageError("--values is empty")
    kind = int if args.parameter == "L" else float
    field = {"lambda": "lambda_conf", "L": "swd_L", "gamma": "gamma"}[args.parameter]
    plan, config = _settings(args, TrainPlan(), NetConfig())
    try:
        parsed = [kind(v) for v in values]
        variants = [dataclasses.replace(plan, **{field: v}) for v in parsed]
    except ValueError as exc:
        raise UsageError(f"--values: {exc}") from None

    sources, target = _load_datasets(args.data, oracle_mode=True)
    workers = _workers(args, sources)
    _prepare_out(args.out, args.force)
    truth = target.mask_stack()

    rows, probs = [], None
    for value, variant in zip(parsed, variants):
        if probs is None or args.parameter != "lambda":  # lambda reweights one run
            probs = run_msuda(sources, target, variant, config, oracle_mode=True,
                              workers=workers).target_probs
        mixed = aggregate(probs, confidence_weights(probs, variant.lambda_conf))
        rows.append((value, dice(mixed.mask, truth)))

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
                   help="the benchmark's corrupted variant: a signal-dead second "
                        "source with 4x --images")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="train, adapt, ensemble, and report")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True)
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
    _add_settings(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="re-evaluate checkpoints from a prior run",
                       description="--seed, --lambda and --sites default to the run's.")
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True, help="directory of a prior run")
    p.add_argument("--out", default=None)
    p.add_argument("--aggregation", choices=("fmuda", "pv", "av", "suda"),
                   default="fmuda")
    p.add_argument("--oracle", action="store_true")
    _add_settings(p, ("seed", "lambda_conf", "embed_sites"))
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="hyperparameter sensitivity sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--parameter", choices=("lambda", "L", "gamma"), required=True)
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--force", action="store_true")
    _add_settings(p)
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
