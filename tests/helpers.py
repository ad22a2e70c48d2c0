"""Shared test utilities: finite-difference gradients, error measures, and
a call counter."""

import numpy as np


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
