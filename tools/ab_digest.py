"""Check that two source trees give bit-identical benchmark runs.

    python3 tools/ab_digest.py OLD_SRC NEW_SRC [--seeds 0,1] [--quick]
    python3 tools/ab_digest.py OLD_SRC NEW_SRC --cli [--seeds 0,1]

OLD_SRC and NEW_SRC are directories holding a `fedseg` package (a checkout's
src/). Both trees are imported into this one process (ab_steps.load_tree),
and each runs benchmark.run_benchmark(seed) and run_benchmark(seed,
corrupted=True) for every seed, under its own benchmark.default_plan(seed);
--quick cuts that plan to one pretrain and one adapt epoch.

Per run it prints whether the trees agree bit for bit on the model bytes
(every adapted and pretrained model), the adaptation step records, the
per-epoch history, the Dice values (per model before and after adaptation,
and per ensemble mode) and the bound (its terms, lhs and rhs). Floats are
compared by repr, which round-trips them exactly. It exits 1 on any
mismatch.

--cli runs the command line instead, per seed and tree: `fedseg gen`, `run
--oracle --workers 1`, `eval --oracle`, a label-free `eval --aggregation pv`,
`run --oracle --workers 2`, a run on the manifest without one source followed
by `run --add-source` of that source, and `sweep --parameter lambda`, each
into a directory of its own, at small flags (CLI_STEPS), each in a
subprocess whose PYTHONPATH is the tree, with one BLAS thread. It compares
every file they write byte for byte (datasets, checkpoints, step curves,
masks, reports, embeddings, audit logs, sweep tables), apart from the
timestamp: line of each report.txt, prints each file that differs or that
only one tree wrote, and exits 1 on any difference.
"""

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile

from ab_steps import load_tree


def digest(tree, seed, corrupted, quick):
    """The compared quantities of one benchmark run, as bytes or reprs."""
    bench_mod, serialize = tree["benchmark"], tree["autodiff"].serialize_params
    plan = bench_mod.default_plan(seed)
    if quick:
        plan = dataclasses.replace(plan, epochs_pretrain=1, epochs_adapt=1)
    bench = bench_mod.run_benchmark(seed, corrupted=corrupted, plan=plan)
    result = bench.result
    return {
        "models": [serialize(am.model.state_dict()) for am in result.adapted.models]
                  + [serialize(result.pretrained[sid].state_dict())
                     for sid in sorted(result.pretrained)],
        "step_records": repr([am.step_records for am in result.adapted.models]),
        "history": repr([am.history for am in result.adapted.models]),
        "dice": repr((bench.pre_dice, bench.post_dice, bench.mode_dice)),
        "bound": repr((bench.bound, bench.bound_lhs, bench.bound_rhs)),
    }


# The commands of --cli, formatted with the output directories and the seed.
# The run at --workers 2 trains its nodes on the spawn pool, which the
# in-process mode cannot load a tree into. {data}/manifest_without.txt is the
# manifest without ADDED, written after gen; the run on it is then extended
# by ADDED.
ADDED = "site_b"
TRAIN_FLAGS = ["--epochs-pretrain", "2", "--epochs-adapt", "2", "--sites", "16",
               "--seed", "{seed}"]
RUN_FLAGS = ["--oracle", *TRAIN_FLAGS]
CLI_STEPS = (
    ["gen", "--out", "{data}", "--images", "6", "--size", "16", "--seed", "{seed}"],
    ["run", "--data", "{data}/manifest.txt", "--out", "{run}", "--workers", "1", *RUN_FLAGS],
    ["eval", "--data", "{data}/manifest.txt", "--run", "{run}", "--out", "{eval}",
     "--oracle"],
    ["eval", "--data", "{data}/manifest.txt", "--run", "{run}", "--out", "{voted}",
     "--aggregation", "pv"],
    ["run", "--data", "{data}/manifest.txt", "--out", "{pooled}", "--workers", "2",
     *RUN_FLAGS],
    ["run", "--data", "{data}/manifest_without.txt", "--out", "{grown}", "--workers", "1",
     *RUN_FLAGS],
    ["run", "--data", "{data}/manifest.txt", "--out", "{grown}", "--workers", "1",
     "--add-source", ADDED, *RUN_FLAGS],
    ["sweep", "--data", "{data}/manifest.txt", "--out", "{sweep}", "--workers", "1",
     "--parameter", "lambda", "--values", "0.3,0.7", *TRAIN_FLAGS],
)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest_without(data_dir, source):
    """data_dir/manifest_without.txt: data_dir/manifest.txt without the
    stanza of source."""
    with open(os.path.join(data_dir, "manifest.txt")) as fh:
        head, *stanzas = fh.read().split("[domain ")
    kept = [stanza for stanza in stanzas if not stanza.startswith(source + "]")]
    with open(os.path.join(data_dir, "manifest_without.txt"), "w") as fh:
        fh.write(head + "".join("[domain " + stanza for stanza in kept))


def cli_outputs(src, seed, workdir):
    """{path relative to workdir: bytes} of every file CLI_STEPS write with
    the tree src, each report.txt without its timestamp: line."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **dict.fromkeys(BLAS_VARS, "1"))
    dirs = {name: os.path.join(workdir, name)
            for name in ("data", "run", "eval", "voted", "pooled", "grown", "sweep")}
    for step in CLI_STEPS:
        argv = [arg.format(seed=seed, **dirs) for arg in step]
        done = subprocess.run([sys.executable, "-m", "fedseg.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{src}: fedseg {step[0]} exited with {done.returncode}: "
                     f"{done.stderr.strip()}")
        if step[0] == "gen":
            write_manifest_without(dirs["data"], ADDED)
    files = {}
    for root, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            if name == "report.txt":
                lines = [line for line in lines if not line.startswith(b"timestamp:")]
            files[os.path.relpath(path, workdir)] = b"".join(lines)
    return files


def compare_cli(old_src, new_src, seed):
    """Prints the files of one seed that differ; True when none does."""
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        old, new = cli_outputs(old_src, seed, old_dir), cli_outputs(new_src, seed, new_dir)
    differ = sorted(path for path in old.keys() & new.keys() if old[path] != new[path])
    only = [(label, path) for label, ours, theirs in (("old", old, new), ("new", new, old))
            for path in sorted(ours.keys() - theirs.keys())]
    print(f"cli seed {seed}: {len(old.keys() | new.keys())} files, "
          f"{len(differ) + len(only)} differ")
    for path in differ:
        print(f"  differs: {path}")
    for label, path in only:
        print(f"  only in {label}: {path}")
    return not differ and not only


def seed_list(text):
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=seed_list, default=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="one pretrain and one adapt epoch")
    parser.add_argument("--cli", action="store_true",
                        help="compare the files that gen, run, eval and sweep write")
    args = parser.parse_args(argv)

    if args.cli:
        identical = all([compare_cli(args.old_src, args.new_src, seed) for seed in args.seeds])
        print(f"all files identical: {'yes' if identical else 'no'}")
        return 0 if identical else 1
    trees = [load_tree(src) for src in (args.old_src, args.new_src)]
    identical = True
    for seed in args.seeds:
        for corrupted in (False, True):
            old, new = (digest(tree, seed, corrupted, args.quick) for tree in trees)
            same = {key: old[key] == new[key] for key in old}
            identical &= all(same.values())
            print(f"seed {seed} {'corrupted' if corrupted else 'clean':9s} "
                  + "  ".join(f"{key} {'yes' if ok else 'NO'}" for key, ok in same.items()))
    print(f"all runs bit-identical: {'yes' if identical else 'no'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
