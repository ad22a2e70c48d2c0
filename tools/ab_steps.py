"""Interleaved in-process A/B timing of the training steps of two source trees.

    python3 tools/ab_steps.py OLD_SRC NEW_SRC [--pairs 30] [--steps 15]

OLD_SRC and NEW_SRC are directories holding a `fedseg` package (a checkout's
src/). Both trees are imported into this one process, and each builds the
benchmark net (benchmark.default_net_config) from seed 5 and takes its batch
size, learning rate, sites, projections and gamma from its own
benchmark.default_plan() and its image size from benchmark.IMAGE_SIZE, so the
steps follow the tree's benchmark. A pair runs
one block of --steps pretrain steps (forward, cross-entropy, backward, Adam)
on each tree, then one block of adapt steps (source encode, classify,
cross-entropy, target encode, swd2 of the sampled sites, backward, Adam),
alternating which tree goes first from pair to pair. Every step uses the
same seeded source batch and target batch on both sides.

It prints, per step kind, the median ms per step of each tree, the ratio
new/old and the number of pairs in which the new tree was faster, then
whether the two trees' parameters are still bit-identical after these
steps. The steps are built here from network and sliced and never call
training.py, so that line says nothing about a change to the training loop;
tools/ab_digest.py compares whole runs. Timing both trees in one process,
block by block, exposes them to the same machine noise.
"""

import argparse
import hashlib
import importlib
import os
import statistics
import sys
import time

import numpy as np

MODULES = ("autodiff", "benchmark", "network", "sliced")
SEED = 5


def load_tree(src):
    """The fedseg modules of one source tree, imported apart from any other."""
    def drop():
        return {name: sys.modules.pop(name) for name in list(sys.modules)
                if name == "fedseg" or name.startswith("fedseg.")}

    saved = drop()
    sys.path.insert(0, os.path.abspath(src))
    importlib.invalidate_caches()
    try:
        return {name: importlib.import_module(f"fedseg.{name}") for name in MODULES}
    finally:
        sys.path.pop(0)
        drop()
        sys.modules.update(saved)


class Side:
    """One tree's model, optimizer and step functions on fixed batches."""

    def __init__(self, tree, batch, size):
        self.ad, net = tree["autodiff"], tree["network"]
        self.net, self.sliced = net, tree["sliced"]
        config = tree["benchmark"].default_net_config()
        self.plan = plan = tree["benchmark"].default_plan(SEED)
        self.model = net.SegModel(config, seed=SEED)
        self.opt = self.ad.Adam(self.model.parameters(), learning_rate=plan.learning_rate)
        rng = np.random.default_rng(SEED)
        batch = plan.batch_size if batch is None else batch
        size = tree["benchmark"].IMAGE_SIZE if size is None else size
        shape = (batch, config.in_channels) + (size,) * config.spatial_rank
        self.src = rng.normal(size=shape)
        self.masks = (self.src[:, 0] > 0).astype(np.int64)
        self.tgt = 0.25 * rng.normal(size=shape) + 0.55
        self.step_no = 0

    def _update(self, loss):
        self.opt.zero_grad()
        loss.backward()
        self.opt.step()
        self.step_no += 1

    def pretrain_step(self):
        T = self.ad.Tensor
        self._update(self.net.ce_loss(self.model.forward(T(self.src)), self.masks))

    def adapt_step(self):
        ad, net, plan, T = self.ad, self.net, self.plan, self.ad.Tensor
        z_src = self.model.encode(T(self.src))
        sup = net.ce_loss(self.model.classify(z_src), self.masks)
        src_emb = net.sample_sites(z_src, plan.embed_sites, seed=self.step_no)
        tgt_emb = net.sample_sites(self.model.encode(T(self.tgt)), plan.embed_sites,
                                   seed=self.step_no)
        proj = self.sliced.sample_projections(plan.swd_L, z_src.shape[1], seed=self.step_no)
        swd = self.sliced.swd2(src_emb, tgt_emb, proj)
        self._update(ad.add(sup, ad.mul(swd, plan.gamma)))

    def digest(self):
        params = self.model.parameters()
        return hashlib.sha256(self.ad.serialize_params(params)).hexdigest()


def time_block(step, steps):
    start = time.perf_counter()
    for _ in range(steps):
        step()
    return (time.perf_counter() - start) * 1e3 / steps


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--pairs", type=positive, default=30)
    parser.add_argument("--steps", type=positive, default=15, help="steps per timed block")
    parser.add_argument("--batch", type=positive, help="images per step (default: the plan's)")
    parser.add_argument("--size", type=positive,
                        help="image side length (default: the benchmark's)")
    args = parser.parse_args(argv)

    sides = {label: Side(load_tree(src), args.batch, args.size)
             for label, src in (("old", args.old_src), ("new", args.new_src))}
    for side in sides.values():  # warm-up: first-call allocations and caches
        side.pretrain_step()
        side.adapt_step()
    ms = {(kind, label): [] for kind in ("pretrain", "adapt") for label in sides}
    for pair in range(args.pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for kind in ("pretrain", "adapt"):
            for label in order:
                step = getattr(sides[label], f"{kind}_step")
                ms[kind, label].append(time_block(step, args.steps))

    for kind in ("pretrain", "adapt"):
        old, new = ms[kind, "old"], ms[kind, "new"]
        wins = sum(n < o for o, n in zip(old, new))
        old_med, new_med = statistics.median(old), statistics.median(new)
        print(f"{kind:8s} old {old_med:8.3f} ms/step  new {new_med:8.3f} ms/step  "
              f"new/old {new_med / old_med:.3f}  new faster in {wins}/{args.pairs} pairs")
    same = sides["old"].digest() == sides["new"].digest()
    print("parameters bit-identical after these network/sliced steps "
          f"(training.py: see ab_digest.py): {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
