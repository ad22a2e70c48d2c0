"""Span tracing of fedseg from outside the package.

install() replaces, inside each fedseg module, the public functions that
module imports from its neighbouring layers with wrappers that record a span:
name, start, end, parent span, operation and a tag (the conv layer or the
federation node). Methods that other layers call on shared objects
(SegModel.encode/forward/predict_probs, Tensor.backward, Adam.step) are
wrapped on their class. The conv backward pass is timed by wrapping the
backward closure of the tensor each conv call returns. Undo with the
returned Patches. No file of the package is edited.

Spans are kept in memory and summarised into per-layer metrics by
layer_metrics() once the run ends.
"""

import contextvars
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict, namedtuple
from concurrent.futures import ThreadPoolExecutor

import stats

LAYERS = ("autodiff", "network", "sliced", "training", "ensembling",
          "federation", "evaluation", "data", "cli", "benchmark")
CONV_LAYERS = ("enc0", "enc1", "bottleneck", "dec1", "dec0", "head")

Span = namedtuple("Span", "sid name start end parent op tag")

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Collects spans and byte counts; `op` labels what runs now."""

    def __init__(self):
        self.spans = []
        self.bytes = Counter()  # (op, name) -> bytes
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def call(self, name, fn, *args, tag=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        parent = _CURRENT.get()
        sid = next(self._ids)
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(Span(sid, name, start, end, parent, self.op, tag))

    def add_bytes(self, name, count):
        with self._lock:
            self.bytes[(self.op, name)] += count

    def wrap(self, name, fn, tag_of=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_of(args) if tag_of else None
            result = self.call(name, fn, *args, tag=tag, **kwargs)
            if after is not None:
                after(result, tag)
            return result
        return traced


class ContextExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context, so
    a span opened on a worker thread has the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(tracer, fs) -> Patches:
    """Wrap the layer boundaries of the imported fedseg package `fs`."""
    ad, net, tr, fed = fs.autodiff, fs.network, fs.training, fs.federation
    ev, data, cli, bench = fs.evaluation, fs.data, fs.cli, fs.benchmark

    default = net.SegModel(bench.default_net_config())
    conv_names = {tuple(p.shape): name[:-2]
                  for name, p in default.parameters().items() if name.endswith(".w")}

    def conv_tag(args):
        return conv_names.get(tuple(args[1].shape), "other")

    def time_conv_backward(out, tag):
        back = out._backward
        if back is not None:
            out._backward = lambda g: tracer.call("autodiff.conv.bwd", back, g, tag=tag)

    def count_bytes(name, size):
        return lambda result, tag: tracer.add_bytes(name, size(result))

    # (span name, attribute, owners that look the attribute up, tag, after)
    plan = [
        ("autodiff.conv", "conv", [net], conv_tag, time_conv_backward),
        ("autodiff.max_pool", "max_pool", [net], None, None),
        ("autodiff.upsample_nearest", "upsample_nearest", [net], None, None),
        ("autodiff.softmax", "softmax", [net], None, None),
        ("autodiff.softmax", "log_softmax", [net], None, None),
        ("autodiff.backward", "backward", [ad.Tensor], None, None),
        ("autodiff.adam.step", "step", [ad.Adam], None, None),
        ("autodiff.load_params", "load_params", [cli], None, None),
        ("autodiff.serialize_params", "serialize_params", [fed], None,
         count_bytes("autodiff.serialize_params", len)),
        ("network.encode", "encode", [net.SegModel], None, None),
        ("network.forward", "forward", [net.SegModel], None, None),
        ("network.predict_probs", "predict_probs", [net.SegModel], None, None),
        ("network.embed", "embed", [tr, ev, cli], None, None),
        ("network.ce_loss", "ce_loss", [tr, ev], None, None),
        ("sliced.swd2", "swd2", [tr, ev], None, None),
        ("sliced.sample_projections", "sample_projections", [tr, ev], None, None),
        ("training.pretrain", "pretrain", [fed], lambda a: a[0].domain_id, None),
        ("training.adapt", "adapt", [fed], lambda a: a[1].domain_id, None),
        ("federation.run_msuda", "run_msuda", [bench, cli], None, None),
        ("ensembling.compute_weights", "compute_weights", [fed, cli], None, None),
        ("ensembling.aggregate", "aggregate", [bench, cli], None, None),
        ("ensembling.average_vote", "average_vote", [bench, cli], None, None),
        ("ensembling.popular_vote", "popular_vote", [bench, cli], None, None),
        ("evaluation.model_target_dice", "model_target_dice", [bench, fed, cli],
         None, None),
        ("evaluation.measure_joint_error", "measure_joint_error", [bench, cli],
         None, None),
        ("evaluation.bound_terms", "bound_terms", [bench, cli], None, None),
        ("evaluation.mixture_target_ce", "mixture_target_ce", [bench, cli], None, None),
        ("evaluation.bound_right_hand_side", "bound_right_hand_side", [bench, cli],
         None, None),
        ("evaluation.dice", "dice", [bench, cli], None, None),
        ("evaluation.emit_report", "emit_report", [cli], None, None),
        ("evaluation.export_embeddings", "export_embeddings", [cli], None, None),
        ("data.generate_domains", "generate_domains", [bench, cli], None, None),
        ("data.load_domain", "load_domain", [cli], None, None),
        ("data.read_manifest", "read_manifest", [cli], None, None),
        ("data.read_raster", "read_raster", [data], None,
         count_bytes("data.read_raster", lambda arr: arr.nbytes)),
        ("data.write_raster", "write_raster", [cli], None, None),
    ]
    patches = Patches()
    for span_name, attr, owners, tag_of, after in plan:
        original = getattr(owners[0], attr)
        if any(getattr(o, attr) is not original for o in owners[1:]):
            patches.undo()
            raise RuntimeError(f"{attr} differs between {[o.__name__ for o in owners]}")
        wrapper = tracer.wrap(span_name, original, tag_of, after)
        for owner in owners:
            patches.set(owner, attr, wrapper)
    patches.set(fed, "ThreadPoolExecutor", ContextExecutor)
    return patches


# -- summary --------------------------------------------------------------------


def _training_ancestor(span, by_id):
    parent = span.parent
    while parent is not None and parent in by_id:
        anc = by_id[parent]
        if anc.name.startswith("training."):
            return anc
        parent = anc.parent
    return None


def _op_summary(spans):
    """Busy time, call counts, layer self time and training facts of one op."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    busy, calls, layer_self = Counter(), Counter(), Counter()
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_self[s.name.split(".")[0]] += stats.self_time(s.start, s.end,
                                                            children[s.sid])

    steps = defaultdict(list)  # training span -> Adam.step spans inside it
    for s in spans:
        if s.name == "autodiff.adam.step" and s.parent in by_id \
                and by_id[s.parent].name.startswith("training."):
            steps[s.parent].append(s)
    step_ms = defaultdict(list)
    for sid, adam_steps in steps.items():
        span = by_id[sid]
        ends = [span.start] + sorted(a.end for a in adam_steps)
        step_ms[span.name].extend(1e3 * (b - a) for a, b in zip(ends, ends[1:]))

    adapt_steps = sum(len(v) for k, v in steps.items() if by_id[k].name == "training.adapt")
    adapt_encodes = sum(
        1 for s in spans if s.name == "network.encode"
        and (anc := _training_ancestor(s, by_id)) is not None
        and anc.name == "training.adapt")

    node_span = {}
    for s in spans:
        if s.name.startswith("training."):
            lo, hi = node_span.get(s.tag, (s.start, s.end))
            node_span[s.tag] = (min(lo, s.start), max(hi, s.end))
    node_s = [hi - lo for lo, hi in node_span.values()]

    return {
        "busy": busy, "calls": calls, "self": layer_self, "step_ms": step_ms,
        "steps": sum(len(v) for v in steps.values()),
        "encode_per_adapt_step": adapt_encodes / adapt_steps if adapt_steps else 0.0,
        "node_max": max(node_s, default=0.0), "node_min": min(node_s, default=0.0),
    }


def _pooled_ms(spans, name, tag=None):
    return [1e3 * (s.end - s.start) for s in spans
            if s.name == name and (tag is None or s.tag == tag)]


def layer_metrics(tracer, ops, setup_ops):
    """Per-layer metrics over the traced operations `ops` and set-ups
    `setup_ops`, and the sample count behind each per-call time.

    Per-operation values are medians over the operations; per-call times
    (conv, Adam step, training step) pool the calls of all of them.
    """
    op_set = set(ops)
    spans = [s for s in tracer.spans if s.op in op_set]
    summaries = [_op_summary([s for s in spans if s.op == op]) for op in ops]

    def per_op(get):
        return stats.median([get(s) for s in summaries])

    out, samples = {}, {}

    def pooled(metric, values, q=None):
        samples[metric] = len(values)
        if q is None:
            out[metric] = stats.median(values)
        else:
            out[metric] = stats.percentile(values, q) if values else 0.0

    for layer in CONV_LAYERS:
        pooled(f"autodiff.conv.{layer}.fwd_ms", _pooled_ms(spans, "autodiff.conv", layer))
        pooled(f"autodiff.conv.{layer}.bwd_ms",
               _pooled_ms(spans, "autodiff.conv.bwd", layer))
    out["autodiff.conv.calls"] = per_op(lambda s: s["calls"]["autodiff.conv"])
    out["autodiff.conv.busy_s"] = per_op(
        lambda s: s["busy"]["autodiff.conv"] + s["busy"]["autodiff.conv.bwd"])
    for name in ("max_pool", "upsample_nearest", "softmax", "backward", "load_params"):
        out[f"autodiff.{name}.busy_s"] = per_op(lambda s: s["busy"][f"autodiff.{name}"])
    pooled("autodiff.adam.step_ms", _pooled_ms(spans, "autodiff.adam.step"))
    out["network.encode.calls_per_adapt_step"] = per_op(
        lambda s: s["encode_per_adapt_step"])
    out["network.forward.calls"] = per_op(lambda s: s["calls"]["network.forward"])
    out["network.embed.busy_s"] = per_op(lambda s: s["busy"]["network.embed"])
    out["network.predict_probs.calls"] = per_op(
        lambda s: s["calls"]["network.predict_probs"])
    out["network.predict_probs.busy_s"] = per_op(
        lambda s: s["busy"]["network.predict_probs"])
    out["sliced.swd2.calls"] = per_op(lambda s: s["calls"]["sliced.swd2"])
    out["sliced.swd2.busy_s"] = per_op(lambda s: s["busy"]["sliced.swd2"])

    step_ms = defaultdict(list)
    for s in summaries:
        for name, values in s["step_ms"].items():
            step_ms[name].extend(values)
    for phase in ("pretrain", "adapt"):
        out[f"training.{phase}.busy_s"] = per_op(lambda s: s["busy"][f"training.{phase}"])
        pooled(f"training.{phase}.step_ms.p50", step_ms[f"training.{phase}"], 50)
        pooled(f"training.{phase}.step_ms.p95", step_ms[f"training.{phase}"], 95)
    out["training.steps"] = per_op(lambda s: s["steps"])

    out["federation.node_train_s.max"] = per_op(lambda s: s["node_max"])
    out["federation.node_train_s.min"] = per_op(lambda s: s["node_min"])
    out["federation.straggler_wait_s"] = per_op(lambda s: s["node_max"] - s["node_min"])

    for name in ("compute_weights", "aggregate", "average_vote", "popular_vote"):
        out[f"ensembling.{name}.busy_s"] = per_op(lambda s: s["busy"][f"ensembling.{name}"])
    for name in ("measure_joint_error", "bound_terms", "model_target_dice",
                 "mixture_target_ce", "export_embeddings", "emit_report"):
        out[f"evaluation.{name}.busy_s"] = per_op(lambda s: s["busy"][f"evaluation.{name}"])
    out["data.read_raster.busy_s"] = per_op(lambda s: s["busy"]["data.read_raster"])
    out["data.write_raster.busy_s"] = per_op(lambda s: s["busy"]["data.write_raster"])

    for name in ("autodiff.serialize_params", "data.read_raster"):
        out[f"{name}.bytes"] = stats.median([tracer.bytes[(op, name)] for op in ops])
    setups = [_op_summary([s for s in tracer.spans if s.op == op]) for op in setup_ops]
    out["data.generate_domains.busy_s"] = stats.median(
        [s["busy"]["data.generate_domains"] for s in setups])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(lambda s: s["self"][layer])
    return out, samples


def layer_self_times(tracer, op):
    """Self time per layer (and the benchmark's own spans) of one op."""
    return dict(_op_summary([s for s in tracer.spans if s.op == op])["self"])
