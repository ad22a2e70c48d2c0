"""The full federated pipeline: per-source adaptation on separate nodes,
then confidence-weighted aggregation at the target node.

Every cross-node transfer goes through an audited bus. Target images are
broadcast to source nodes; adapted model parameters flow back; no image
data ever moves between two sources. The corrupted variant swaps one source
for a signal-dead scanner and shows the confidence rule down-weighting it
while uniform averaging and majority vote take the damage.

With workers=2 each source node trains in a spawned process, which imports
this file again; the __main__ guard keeps that import from starting a run.
"""

from fedseg.benchmark import (default_net_config, default_plan,
                              make_benchmark_domains)
from fedseg.ensembling import aggregate, average_vote, popular_vote
from fedseg.evaluation import dice
from fedseg.federation import audit_check, run_msuda


def main():
    config = default_net_config()
    for corrupted in (False, True):
        label = "corrupted second source" if corrupted else "two healthy sources"
        print(f"=== {label} ===")
        sources, target = make_benchmark_domains(seed=0, corrupted=corrupted)
        result = run_msuda(sources, target, default_plan(seed=0), config,
                           oracle_mode=True, workers=2)

        print("audit:", "pass" if audit_check(result.audit_log).ok else "FAIL")
        for message in result.audit_log.records:
            print(f"  {message.sender.name} -> {message.receiver.name}: "
                  f"{message.payload_kind} ({message.byte_size} bytes)")

        # each adapted model ran once on the target, in run_msuda; every
        # score reads that probability stack
        models = result.adapted.models
        truth = target.masks
        probs = result.target_probs
        for am, weight, p in zip(models, result.weights.weights, probs):
            print(f"  {am.source_id}: weight {weight:.3f} "
                  f"target Dice {dice(p.argmax(axis=1), truth):.3f}")

        weighted = aggregate(probs, result.weights).mask
        print(f"  weighted ensemble : {dice(weighted, truth):.3f}")
        print(f"  uniform average   : {dice(average_vote(probs, seed=0).mask, truth):.3f}")
        print(f"  majority vote     : {dice(popular_vote(probs, seed=0), truth):.3f}")
        print()


if __name__ == "__main__":
    main()
