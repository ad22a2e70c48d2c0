"""Shared test utilities: finite-difference gradients, error measures, call
counters, the graph references of swd2 and sample_sites, and the pool that
runs the acceptance suite's benchmark seeds."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from fedseg.autodiff import Tensor, matmul, mul, reshape, sub, take_rows, transpose, tsum
from fedseg.benchmark import run_benchmark
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


def swd2_graph(a, b, proj):
    """swd2 built from autodiff ops, as it was before it became one node:
    a projection matmul per side, a gather of the stable sort order,
    the quantile matmul for the smaller side, then the mean squared gap.
    The reference for the node's gradients."""
    n = max(a.count, b.count)

    def rank_matched(points):
        projected = matmul(points, Tensor(proj.directions.T))
        m, L = projected.shape
        order = np.argsort(projected.data, axis=0, kind="stable")
        rows = (order * L + np.arange(L)).ravel()  # flat index of each rank
        ordered = reshape(take_rows(reshape(projected, (m * L, 1)), rows), (m, L))
        return ordered if m == n else matmul(Tensor(_quantile_weights(m, n)), ordered)

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
