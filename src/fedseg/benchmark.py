"""Default synthetic benchmark: two sources and a target at desk scale.

Three 32x32 domains share phantom geometry. Both sources span intensity
ranges that cover the target's from below, so their models sit in the live
activation zone on target images and distribution alignment can actually
repair the shift; the target itself is contrast-compressed, which reliably
degrades un-adapted transfer. The corrupted variant replaces the second
source with a signal-dead scanner (zero gain: every image is the flat
offset). That corruption is deliberately unmemorizable: with identical
inputs the best attainable prediction is the per-pixel label frequency,
whose confidence stays below the threshold wherever labels ever disagree,
so the confidence rule genuinely down-weights the dead model. White-noise
corruptions fail this purpose at desk scale: a dozen images are memorized
outright and the model becomes confidently wrong.

The confidence threshold sits above the two-class indifference level and
above the label-frequency ceiling, where confident and uncertain models
actually separate.
"""

from dataclasses import dataclass, field

from .data import DomainShift, generate_domains
from .evaluation import evaluate_run
from .federation import FederationResult, run_msuda
from .network import NetConfig
from .training import TrainPlan
from .util import derive_seed

# Bound here only because perfbench/tracing.py wraps each of these names on
# this module and fails when one is missing.
from .ensembling import aggregate, average_vote, popular_vote  # noqa: F401
from .evaluation import (bound_right_hand_side, bound_terms, dice,  # noqa: F401
                         measure_joint_error, mixture_target_ce, model_target_dice)

IMAGE_SIZE = 32
IMAGES_PER_DOMAIN = 12
CORRUPTED_SOURCE_IMAGES = 48
SOURCE_IDS = ("site_a", "site_b")
TARGET_ID = "site_t"
BENCHMARK_LAMBDA = 0.97


def benchmark_shifts(corrupted: bool = False) -> dict:
    shifts = {
        "site_a": DomainShift(intensity_gain=1.0, intensity_offset=0.0,
                              noise_sigma=0.03, bias_field_amplitude=0.05, seed=11),
        "site_b": DomainShift(intensity_gain=1.3, intensity_offset=-0.15,
                              noise_sigma=0.05, bias_field_amplitude=0.10, seed=22),
        "site_t": DomainShift(intensity_gain=0.25, intensity_offset=0.55,
                              noise_sigma=0.02, bias_field_amplitude=0.05, seed=33),
    }
    if corrupted:
        shifts["site_b"] = DomainShift(intensity_gain=0.0, intensity_offset=0.5,
                                       noise_sigma=0.0, bias_field_amplitude=0.0,
                                       seed=22)
    return shifts


def default_net_config() -> NetConfig:
    return NetConfig(spatial_rank=2, in_channels=1, num_classes=2, depth=2,
                     base_width=8, latent_dim=16, skip_connections=True)


def default_plan(seed: int = 0) -> TrainPlan:
    return TrainPlan(epochs_pretrain=30, epochs_adapt=40, batch_size=4,
                     gamma=2.0, swd_L=50, lambda_conf=BENCHMARK_LAMBDA,
                     seed=seed, embed_sites=64, learning_rate=2e-3)


def make_benchmark_domains(seed: int = 0, corrupted: bool = False):
    """Returns ([source datasets], target dataset) for one benchmark seed.

    The corrupted variant's dead source carries extra phantoms: more masks
    flatten its per-pixel label-frequency optimum further below the
    confidence threshold.
    """
    shifts = benchmark_shifts(corrupted)
    names = list(SOURCE_IDS) + [TARGET_ID]
    base_seed = derive_seed(seed, "benchmark-phantoms")
    shift_list = [shifts[n] for n in names]
    domains = generate_domains(base_seed, len(names), IMAGES_PER_DOMAIN,
                               (IMAGE_SIZE, IMAGE_SIZE), shift_list)
    if corrupted:
        extra = generate_domains(base_seed, len(names), CORRUPTED_SOURCE_IMAGES,
                                 (IMAGE_SIZE, IMAGE_SIZE), shift_list)
        domains[1] = extra[1]
    for ds, name in zip(domains, names):
        ds.domain_id = name
    return domains[:-1], domains[-1]


@dataclass
class BenchmarkResult:
    seed: int
    corrupted: bool
    result: FederationResult
    pre_dice: dict = field(default_factory=dict)    # source_id -> dice before adapt
    post_dice: dict = field(default_factory=dict)   # source_id -> dice after adapt
    swd_first: dict = field(default_factory=dict)   # source_id -> first-epoch mean
    swd_last: dict = field(default_factory=dict)    # source_id -> final-epoch mean
    mode_dice: dict = field(default_factory=dict)   # fmuda/av/pv/suda -> dice
    bound_lhs: float = float("nan")
    bound_rhs: float = float("nan")


def run_benchmark(seed: int = 0, corrupted: bool = False, workers: int = 1,
                  with_bound: bool = True, plan: TrainPlan = None) -> BenchmarkResult:
    """One oracle-mode benchmark run with all acceptance quantities measured."""
    sources, target = make_benchmark_domains(seed, corrupted)
    plan = plan or default_plan(seed)
    config = default_net_config()
    result = run_msuda(sources, target, plan, config, oracle_mode=True,
                       workers=workers, keep_latents=with_bound)

    report, _ = evaluate_run(result.adapted.models, result.weights, sources, target,
                             plan, config, True, seed, result.target_probs,
                             result.target_latents, pretrained=result.pretrained,
                             with_bound=with_bound)
    bench = BenchmarkResult(seed=seed, corrupted=corrupted, result=result,
                            mode_dice=report.ensemble_dice)
    for am in result.adapted.models:
        bench.pre_dice[am.source_id], bench.post_dice[am.source_id] = \
            report.per_model_dice[am.source_id]
        bench.swd_first[am.source_id] = am.history[0].swd
        bench.swd_last[am.source_id] = am.history[-1].swd
    if with_bound:
        bench.bound_lhs, bench.bound_rhs = report.bound_lhs, report.bound_rhs
    return bench
