"""Check that two source trees give bit-identical benchmark runs.

    python3 tools/ab_digest.py OLD_SRC NEW_SRC [--seeds 0,1] [--quick]

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
"""

import argparse
import dataclasses
import sys

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
    args = parser.parse_args(argv)

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
