"""Every metric the benchmark reports: unit, direction, and for each
per-layer metric the end-to-end metric it should move and on which workloads.

BENCHMARK.json repeats the names, units and directions (test_bench.py keeps
the two in step). Its schema has no field for the layer -> end-to-end ->
workload mapping, so that mapping is recorded here, under the same names.
"""

WORKLOADS = ("oracle_seed", "corrupted_fed", "ensemble_eval")
TRAINING = ("oracle_seed", "corrupted_fed")

# name -> (unit, better). Printed and put in the JSON with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Printed with --trace 0 but kept out of the JSON metrics, which may only
# hold metrics that are never 0 and whose spread across seeds stays within a
# bound: fail_ratio is 0 on a correct run (the JSON carries it as `failed`
# over `attempted`), and dice_fmuda depends on the seed (0.335 to 0.646 on
# corrupted_fed seeds 0-3), so it is a per-layer quality guard instead.
REPORTED_ONLY = {
    "fail_ratio": ("1", "lower"),
    "dice_fmuda": ("1", "higher"),
}


def _conv():
    out = {}
    for layer in ("enc0", "enc1", "bottleneck", "dec1", "dec0", "head"):
        out[f"autodiff.conv.{layer}.fwd_ms"] = ("ms", "wall_s", WORKLOADS)
        out[f"autodiff.conv.{layer}.bwd_ms"] = ("ms", "wall_s", TRAINING)
    return out


# name -> (unit, end-to-end metric it should move, workloads where it does).
# `busy` is time inside the layer's calls per operation; `self` is busy time
# minus the time covered by child spans. Counts move wall_s by the work they
# stand for; an empty workload tuple marks a count that must stay exact.
PER_LAYER = {
    **_conv(),
    "autodiff.conv.calls": ("count", "wall_s", TRAINING),
    "autodiff.conv.busy_s": ("s", "wall_s", TRAINING),
    "autodiff.max_pool.busy_s": ("s", "wall_s", TRAINING),
    "autodiff.upsample_nearest.busy_s": ("s", "wall_s", TRAINING),
    "autodiff.softmax.busy_s": ("s", "wall_s", TRAINING),
    "autodiff.backward.busy_s": ("s", "wall_s", TRAINING),
    "autodiff.adam.step_ms": ("ms", "wall_s", TRAINING),
    "autodiff.load_params.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "autodiff.serialize_params.bytes": ("B", "wall_s", ()),
    "network.encode.calls_per_adapt_step": ("calls/step", "wall_s", TRAINING),
    "network.forward.calls": ("count", "wall_s", TRAINING),
    "network.embed.busy_s": ("s", "wall_s", TRAINING),
    "network.predict_probs.calls": ("count", "wall_s", ("ensemble_eval",)),
    "network.predict_probs.busy_s": ("s", "wall_s", ("ensemble_eval", "oracle_seed")),
    "sliced.swd2.calls": ("count", "wall_s", ("oracle_seed",)),
    "sliced.swd2.busy_s": ("s", "wall_s", ("oracle_seed",)),
    "training.pretrain.busy_s": ("s", "wall_s,cpu_s", TRAINING),
    "training.adapt.busy_s": ("s", "wall_s,cpu_s", TRAINING),
    "training.steps": ("count", "wall_s,cpu_s", TRAINING),
    "training.pretrain.step_ms.p50": ("ms", "wall_s,cpu_s", TRAINING),
    "training.pretrain.step_ms.p95": ("ms", "wall_s,cpu_s", TRAINING),
    "training.adapt.step_ms.p50": ("ms", "wall_s,cpu_s", TRAINING),
    "training.adapt.step_ms.p95": ("ms", "wall_s,cpu_s", TRAINING),
    "federation.node_train_s.max": ("s", "wall_s", ("corrupted_fed",)),
    "federation.node_train_s.min": ("s", "wall_s", ("corrupted_fed",)),
    "federation.straggler_wait_s": ("s", "wall_s", ("corrupted_fed",)),
    "federation.bus.messages": ("count", "wall_s", ()),
    "federation.bus.bytes": ("B", "wall_s", ()),
    "federation.train_label_reads": ("count", "wall_s", ()),
    "ensembling.compute_weights.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "ensembling.aggregate.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "ensembling.average_vote.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "ensembling.popular_vote.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "ensembling.dice_fmuda": ("1", "none", ()),
    "evaluation.measure_joint_error.busy_s": ("s", "wall_s", ("oracle_seed",)),
    "evaluation.bound_terms.busy_s": ("s", "wall_s", ("oracle_seed",)),
    "evaluation.model_target_dice.busy_s": ("s", "wall_s", ("oracle_seed",)),
    "evaluation.mixture_target_ce.busy_s": ("s", "wall_s", ("oracle_seed",)),
    "evaluation.export_embeddings.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "evaluation.emit_report.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "data.read_raster.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "data.read_raster.bytes": ("B", "wall_s", ("ensemble_eval",)),
    "data.write_raster.busy_s": ("s", "wall_s", ("ensemble_eval",)),
    "data.generate_domains.busy_s": ("s", "setup_s", WORKLOADS),
    **{f"{layer}.self_s": ("s", "wall_s", WORKLOADS)
       for layer in ("autodiff", "network", "sliced", "training", "ensembling",
                     "federation", "evaluation", "data", "benchmark")},
    "cli.self_s": ("s", "wall_s", ("ensemble_eval",)),
    "trace.untraced_wall_s": ("s", "wall_s", WORKLOADS),
    "trace.wall_s": ("s", "none", WORKLOADS),
    "trace.overhead_s": ("s", "none", WORKLOADS),
    "trace.overhead_pct": ("%", "none", WORKLOADS),
}

# Direction of each per-layer metric: every one is a cost except the quality
# guard.
PER_LAYER_BETTER = {name: "higher" if name == "ensembling.dice_fmuda" else "lower"
                    for name in PER_LAYER}
