"""Shared test utilities: finite-difference gradients, error measures, call
counters, the autodiff ops only reference graphs use (reshape, transpose,
take_rows), the graph references of swd2 and sample_sites, the dense
quantile matrix, the ensemble modes as they were before they streamed over
the models, and the pool that runs the acceptance suite's benchmark
seeds."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from fedseg.autodiff import (Tensor, _accumulate, _make, add, as_tensor, matmul, mul, sub,
                             tsum)
from fedseg.benchmark import run_benchmark
from fedseg.ensembling import AggregatedPrediction
from fedseg.federation import _one_blas_thread_per_node
from fedseg.network import INFERENCE_CHUNK, SegModel
from fedseg.sliced import _quantile_weights
from fedseg.util import derive_seed


def numerical_grad(f, params, h=1e-5):
    """Central-difference gradient of scalar f() w.r.t. each param tensor.

    f rebuilds its graph on every call; parameters are perturbed in place.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = f().item()
            flat[i] = keep - h
            lo = f().item()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / scale).max())


def gradient_check(f, params, h=1e-5, floor=1e-6):
    """Max relative error between autodiff and central differences."""
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    numeric = numerical_grad(f, params, h=h)
    worst = 0.0
    for p, num in zip(params, numeric):
        assert p.grad is not None, "missing gradient"
        assert np.all(np.isfinite(p.grad)), "non-finite gradient"
        worst = max(worst, max_rel_error(p.grad, num, floor=floor))
    return worst


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.name; returns the list of each call's first
    argument (the instance, for a method looked up on its class)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_target_passes(monkeypatch, images):
    """The models that start an inference pass over the image stack: every
    SegModel.encode call whose input is the stack's first INFERENCE_CHUNK
    images."""
    first = np.asarray(images)[:INFERENCE_CHUNK]
    passes = []
    original = SegModel.encode

    def encode(self, x):
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.shape == first.shape and np.array_equal(data, first):
            passes.append(self)
        return original(self, x)

    monkeypatch.setattr(SegModel, "encode", encode)
    return passes


def reshape(t, shape):
    t = as_tensor(t)
    old = t.shape

    def back(g):
        _accumulate(t, g.reshape(old))

    return _make(t.data.reshape(shape), (t,), back)


def transpose(t, axes):
    t = as_tensor(t)
    inverse = np.argsort(axes)

    def back(g):
        _accumulate(t, np.transpose(g, inverse))

    return _make(np.transpose(t.data, axes), (t,), back)


def take_rows(t, indices):
    """Gather rows along axis 0; duplicate indices accumulate on backward."""
    t = as_tensor(t)
    idx = np.asarray(indices, dtype=np.intp)

    def back(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            np.add.at(full, idx, g)
            _accumulate(t, full)

    return _make(np.take(t.data, idx, axis=0), (t,), back)


def quantile_matrix(m, n):
    """(n, m) dense matrix of the interpolation of m sorted values at n > m
    rank positions, as swd2 once built it: row i at fractional index
    i * (m-1) / (n-1)."""
    w = np.zeros((n, m))
    pos = np.linspace(0.0, m - 1.0, n)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, m - 1)
    frac = pos - lo
    w[np.arange(n), lo] += 1.0 - frac
    w[np.arange(n), hi] += frac
    return w


def swd2_graph(a, b, proj, dense=False):
    """swd2 built from autodiff ops, as it was before it became one node:
    a projection matmul per side, a gather of the stable sort order, for
    the smaller side the quantile interpolation as two row gathers mixed by
    their fractions (or, dense, a matmul with quantile_matrix), then the
    mean squared gap. The reference for the node's gradients."""
    n = max(a.count, b.count)

    def rank_matched(points):
        projected = matmul(points, Tensor(proj.directions.T))
        m, L = projected.shape
        order = np.argsort(projected.data, axis=0, kind="stable")
        rows = (order * L + np.arange(L)).ravel()  # flat index of each rank
        ordered = reshape(take_rows(reshape(projected, (m * L, 1)), rows), (m, L))
        if m == n:
            return ordered
        if dense:
            return matmul(Tensor(quantile_matrix(m, n)), ordered)
        lo, hi, frac = _quantile_weights(m, n)
        return add(mul(take_rows(ordered, lo), Tensor(1.0 - frac)),
                   mul(take_rows(ordered, hi), Tensor(frac)))

    gaps = sub(rank_matched(a.points), rank_matched(b.points))
    return mul(tsum(mul(gaps, gaps)), 1.0 / (proj.count * n))


def sample_sites_graph(z, n_sites, seed):
    """sample_sites' points built from autodiff ops, as it was before it
    became one node: the field flattened to (batch * sites, latent_dim) by a
    reshape, a transpose and a reshape, then the sampled rows gathered. The
    reference for the node's points and gradient."""
    batch, d = z.shape[0], z.shape[1]
    p = int(np.prod(z.shape[2:]))
    flat = reshape(transpose(reshape(z, (batch, d, p)), (0, 2, 1)), (batch * p, d))
    rng = np.random.default_rng(derive_seed(seed, "embed-sites"))
    take = min(n_sites, p)
    rows = np.concatenate(
        [b * p + rng.choice(p, size=take, replace=False) for b in range(batch)])
    return take_rows(flat, rows)


def tie_break_argmax_reference(scores, rng):
    """ensembling._tie_break_argmax as it was before it jittered in place."""
    top = scores.max(axis=1, keepdims=True)
    tied = scores == top
    if rng is None or int(tied.sum(axis=1).max()) <= 1:
        return scores.argmax(axis=1)
    jitter = rng.random(scores.shape)
    return np.where(tied, jitter, -1.0).argmax(axis=1)


def aggregate_reference(probs, weights):
    """ensembling.aggregate as it was before it streamed over the models:
    one (models, ...) product summed over the model axis."""
    probs = np.asarray(probs)
    w = np.asarray(weights.weights).reshape((-1,) + (1,) * (probs.ndim - 1))
    mixed = (probs * w).sum(axis=0)
    return AggregatedPrediction(probs=mixed, mask=mixed.argmax(axis=1))


def average_vote_reference(probs, seed=0):
    mean = np.asarray(probs).mean(axis=0)
    rng = np.random.default_rng(derive_seed(seed, "average-vote"))
    return AggregatedPrediction(probs=mean, mask=tie_break_argmax_reference(mean, rng))


def popular_vote_reference(probs, seed=0):
    """ensembling.popular_vote as it was before it streamed over the models:
    a label stack of every model, int64 votes, then their float copy."""
    probs = np.asarray(probs)
    labels = probs.argmax(axis=2)  # (models, batch, *spatial)
    votes = np.stack([(labels == c).sum(axis=0) for c in range(probs.shape[2])], axis=1)
    rng = np.random.default_rng(derive_seed(seed, "popular-vote"))
    return tie_break_argmax_reference(votes.astype(np.float64), rng)


def run_benchmarks(calls):
    """[run_benchmark(**kwargs) for kwargs in calls], computed on a spawn pool
    of min(2, cores) processes with one BLAS thread each (unless the
    environment sets a count), as federation runs its nodes. Every process
    has exited on return, also when a call fails: the calls not yet started
    are cancelled."""
    processes = min(2, os.cpu_count() or 1)
    with _one_blas_thread_per_node(), ProcessPoolExecutor(
            processes, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(run_benchmark, **kwargs) for kwargs in calls]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
