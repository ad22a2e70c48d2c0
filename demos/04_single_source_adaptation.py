"""Single-source adaptation: supervised pretraining, then joint descent on
cross-entropy plus the embedding-alignment term.

The target site here is contrast-compressed relative to the source, which
wrecks zero-shot transfer. Adaptation keeps minimizing the source loss while
shrinking the sliced Wasserstein distance between source and target latent
clouds; target accuracy recovers without ever touching a target label.
Target Dice below is measured with held-out labels, outside the loop.
"""

from fedseg.benchmark import default_net_config, default_plan, make_benchmark_domains
from fedseg.evaluation import model_target_dice
from fedseg.training import adapt, pretrain

sources, target = make_benchmark_domains(seed=0)
source = sources[0]
plan = default_plan(seed=0)
config = default_net_config()

print(f"pretraining on {source.domain_id} "
      f"({plan.epochs_pretrain} epochs, {len(source)} images)...")
pretrained = pretrain(source, plan, config)
print(f"zero-shot target Dice: {model_target_dice(pretrained, target):.3f}")

print(f"\nadapting toward {target.domain_id} "
      f"({plan.epochs_adapt} epochs, gamma={plan.gamma}, L={plan.swd_L})...")
adapted = adapt(pretrained, source, target.unlabeled_copy(), plan)

print("epoch  ce       swd")
for i, rec in enumerate(adapted.history):
    if i % 5 == 0 or i == len(adapted.history) - 1:
        print(f"{i:5d}  {rec.supervised_loss:.4f}  {rec.swd:.6f}")

print(f"\nadapted target Dice: {model_target_dice(adapted.model, target):.3f}")
print(f"alignment term: {adapted.history[0].swd:.4f} -> {adapted.history[-1].swd:.4f}")
print(f"target labels read during adaptation: {adapted.target_label_reads} "
      f"(the Dice figures read them only before and after)")
