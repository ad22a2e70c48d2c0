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
CORRUPTED_SOURCE_FACTOR = 4  # the dead source's images per image of the others
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
    return NetConfig()


def default_plan(seed: int = 0) -> TrainPlan:
    return TrainPlan(epochs_pretrain=30, epochs_adapt=40, batch_size=4,
                     gamma=2.0, swd_L=50, lambda_conf=BENCHMARK_LAMBDA,
                     seed=seed, embed_sites=64, learning_rate=2e-3)


def make_benchmark_domains(seed: int = 0, corrupted: bool = False,
                           images: int = IMAGES_PER_DOMAIN, size: int = IMAGE_SIZE):
    """([source datasets], target dataset) of one benchmark seed: `images`
    phantoms of size x size pixels per domain, and CORRUPTED_SOURCE_FACTOR
    times as many in the corrupted variant's dead source, whose extra masks
    flatten its per-pixel label-frequency optimum further below the
    confidence threshold.
    """
    shifts = benchmark_shifts(corrupted)
    names = list(SOURCE_IDS) + [TARGET_ID]
    base_seed = derive_seed(seed, "benchmark-phantoms")
    shift_list = [shifts[n] for n in names]
    domains = generate_domains(base_seed, len(names), images, (size, size), shift_list)
    if corrupted:  # phantom i and its shift noise depend on i alone
        [domains[1]] = generate_domains(base_seed, 1, CORRUPTED_SOURCE_FACTOR * images,
                                        (size, size), shift_list[1:2])
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
    mode_dice: dict = field(default_factory=dict)   # fmuda/av/pv/suda -> dice
    bound: list = field(default_factory=list)       # evaluation.BoundTerm per source
    bound_lhs: float = float("nan")
    bound_rhs: float = float("nan")


def run_benchmark(seed: int = 0, corrupted: bool = False, workers: int = 1,
                  with_bound: bool = True, plan: TrainPlan = None) -> BenchmarkResult:
    """One oracle-mode benchmark run with all acceptance quantities measured."""
    sources, target = make_benchmark_domains(seed, corrupted)
    result = run_msuda(sources, target, plan or default_plan(seed), default_net_config(),
                       workers=workers)

    report, _ = evaluate_run(result, sources if with_bound else None, target)
    bench = BenchmarkResult(seed=seed, corrupted=corrupted, result=result,
                            mode_dice=report.ensemble_dice, bound=report.bound)
    for am in result.adapted.models:
        bench.pre_dice[am.source_id], bench.post_dice[am.source_id] = \
            report.per_model_dice[am.source_id]
    if with_bound:
        bench.bound_lhs, bench.bound_rhs = report.bound_lhs, report.bound_rhs
    return bench
