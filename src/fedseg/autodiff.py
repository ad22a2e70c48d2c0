"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation records its parents and a
closure that routes the output gradient back to them. backward() on a
scalar walks the graph once in reverse topological order. Leaf gradients
accumulate across backward() calls until zero_grad().

Inside a `with no_grad():` block operations record no parents and no
backward closure, so their outputs have requires_grad=False and every
intermediate array can be freed as soon as the next op has read it. The
switch is thread-local: another thread keeps building graphs meanwhile.
Inference uses it; training never does.

conv copies its padded input once, into a row-major flat buffer
(batch, cin, n_flat) whose tail of zeros keeps every slice below in bounds.
A kernel offset (k_0, .., k_r) is then one flat shift, sum k_d * stride_d,
and its input window is the strided view xf[:, :, shift:shift + n_wide]
that BLAS reads in place. The output is computed on a "wide" grid whose
rows have the padded row length: out_spatial[0] rows of the padded
(*spatial[1:]) plane, flattened to n_wide positions. Position i of the wide
grid plus the shift is the input position that tap reads, so each offset
costs one matmul over all positions; the columns past out_spatial[1:] are
discarded by a crop. dw is taken per offset from those slices of the
forward's buffer.

Backward writes the output gradient g into a zeroed buffer. When x needs a
gradient, g starts after a head room of shifts[-1] zero columns and is
followed by zeros up to n_pad columns: the flat input position q < n_pad
reads g[q - shift] through each offset, and that window is then the plain
slice starting at column shifts[-1] - shift. dx is gathered, not
accumulated: per image the k^rank windows are copied into one
(taps * cout, n_pad) block, and one GEMM (cin, taps * cout) @ block writes
that image's dx. Per image keeps the block small; over the whole batch the
transient would grow with it. Without dx (the network's input layer) the
buffer is the wide grid alone, which keeps it contiguous for dw.

conv is also the fused conv block: an optional bias is added in place on
the wide grid after the tap sum, and with rectify the crop itself is the
ReLU pass (np.maximum(v, 0.0), then += 0.0: NaN passes through, zeros are
+0.0), so bias and ReLU cost no tape node and no full-size pass of their
own. The result is always a fresh compact array: a view of the crop would
keep the wide buffer alive. Backward masks the gradient while writing it
into the buffer above and takes the bias gradient from its wide grid.

conv(x, w, 1, upsample=2) is conv(upsample_nearest(x, 2), w, 1) for a 3-tap
kernel, computed at x's resolution (the sub-pixel identity). Along an axis,
output 2m + pi reads upsampled positions 2m + pi - 1 + t for taps t = 0..2,
which are low-res positions m + floor((pi - 1 + t) / 2): parity 0 reads m - 1
through tap 0 and m through taps 1 and 2, parity 1 reads m through taps 0
and 1 and m + 1 through tap 2. A constant 0/1 map therefore folds w, once per
call, into 2^rank phase kernels of 2^rank taps each, stacked as 2^rank blocks
of cout GEMM rows, and the tap loop above runs that 2-tap kernel over x
padded by 1. Phase pi's outputs are the block of its rows of the wide grid
that starts at offset s_pi = pi along each axis; the crop pass is the parity
interleave, writing each block into its strided view out[..., pi::2, ...]
with the ReLU applied on the way. Backward de-interleaves the masked
gradient into the wide grid the same way, runs the same dx and dw code, and
maps dw back through the transpose of the fold. upsample=1 is the identity
fold: one phase at offset 0, and the crop is the plain one.

conv(x, w, 1, pool=2) is max_pool(conv(x, w, 1), 2) in one node: the
encoder block. Its crop pass takes np.maximum over the 2^rank window views
of the wide grid's crop (views in np.ndindex order), and with rectify the
ReLU runs on the pooled grid, since ReLU commutes with max. When the call
records a graph it also keeps, per window, the uint8 index of the first view
whose rectified value is the maximum, as max_pool routes the gradient: view
0 when that maximum is 0 (every rectified value of the window is), the first
NaN in a NaN window. Backward writes each window's gradient, masked by its
ReLU, to that view alone, so neither the full-resolution output nor a pool
node is kept.

The layout of a call (wide grid, shifts, crops, views and the inner slice)
depends on shapes only and is computed once per shape (_conv_plan).

A one-channel input (cin == 1) would make each forward offset a 1-deep
matmul, so its k^rank shifted windows are copied once into a
(taps, batch, n_wide) array instead: the forward is one GEMM
(cout, taps) @ (taps, batch * n_wide) and dw one tensordot.

max_pool and upsample_nearest work on the k^rank strided views
x[:, :, i::k, j::k] (one per window offset, in np.ndindex order). The pool
is np.maximum over them; its backward sends each window's gradient to the
first view holding the maximum, as argmax would. The upsample backward is
the sum of the gradient's views.

Also provides the Adam optimizer, whose moments live in one flat buffer,
and a binary parameter-archive format for checkpointing named parameter
sets.
"""

import contextlib
import functools
import itertools
import math
import struct
import threading

import numpy as np


class _GradMode(threading.local):
    enabled = True  # each thread starts with graph recording on


_grad_mode = _GradMode()


class Tensor:
    """N-dimensional float64 array participating in autodiff.

    data is always a float64 ndarray. grad, once populated, has the same
    shape as data. Tensors created by operations carry the graph edges
    needed by backward().
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal --------------------------------------------------

    def backward(self):
        """Populate grad on every requires_grad ancestor of this scalar.

        Internal nodes get fresh gradients each call; leaves accumulate, so
        repeated calls without zero_grad() sum their contributions.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ValueError("backward() called on a tensor with requires_grad=False")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        for node in topo:
            if node._parents:
                node.grad = None

        seed = np.ones_like(self.data)
        if self._parents:
            self.grad = seed
        else:
            self.grad = seed if self.grad is None else self.grad + seed

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Build no autodiff graph in this thread until the block exits."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _recording(parents):
    """Whether an op on these parents records a graph node."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def _check_broadcast(a, b, opname):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(
            f"{opname}: shapes {a.shape} and {b.shape} are not broadcastable"
        ) from None


# -- element-wise arithmetic ------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def back(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), back)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def back(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), back)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def back(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), back)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), back)


# -- shape manipulation ------------------------------------------------------

def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, back)


# -- reductions ---------------------------------------------------------------

def tsum(t, axis=None):
    t = as_tensor(t)
    in_shape = t.shape

    def back(g):
        if axis is None:
            _accumulate(t, np.full(in_shape, g))
        else:
            _accumulate(t, np.broadcast_to(np.expand_dims(g, axis), in_shape).copy())

    return _make(t.data.sum(axis=axis), (t,), back)


def tmean(t):
    t = as_tensor(t)
    n = t.data.size
    in_shape = t.shape

    def back(g):
        _accumulate(t, np.full(in_shape, g / n))

    return _make(t.data.mean(), (t,), back)


# -- nonlinearities -----------------------------------------------------------

def _rectified(v):
    """max(v, 0) as a fresh array; a NaN passes through and zeros are +0.0."""
    out = np.maximum(v, 0.0)
    out += 0.0  # -0.0 + 0.0 is +0.0, whichever zero maximum kept
    return out


def relu(t):
    t = as_tensor(t)
    mask = t.data > 0

    def back(g):
        _accumulate(t, g * mask)

    return _make(_rectified(t.data), (t,), back)


def _default_axis(t):
    return 1 if t.ndim >= 2 else 0


def softmax(t, axis=None):
    """Softmax along the channel axis (axis 1 for stacked maps, 0 for vectors)."""
    t = as_tensor(t)
    ax = _default_axis(t) if axis is None else axis
    shifted = t.data - t.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=ax, keepdims=True)
        _accumulate(t, y * (g - dot))

    return _make(y, (t,), back)


def log_softmax(t, axis=None):
    t = as_tensor(t)
    ax = _default_axis(t) if axis is None else axis
    shifted = t.data - t.data.max(axis=ax, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=ax, keepdims=True))
    out = shifted - lse

    def back(g):
        _accumulate(t, g - np.exp(out) * g.sum(axis=ax, keepdims=True))

    return _make(out, (t,), back)


# -- spatial operations ---------------------------------------------------------

def _per_axis(value, rank, name):
    if isinstance(value, int):
        return (value,) * rank
    value = tuple(value)
    if len(value) != rank:
        raise ValueError(f"{name} must have {rank} entries, got {len(value)}")
    return value


# Per axis, the fold of a 3-tap kernel at padding 1 over a 2x nearest
# upsample: _PHASE_TAPS[parity, a, t] is 1 where output parity pi reads kernel
# tap t through phase tap a, at low-res offset floor((pi - 1 + t) / 2), which
# is a + pi - 1: phase tap a sits at padded offset a + s_pi, with s_pi = pi.
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]],
                        [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)


@functools.lru_cache(maxsize=None)
def _phase_fold(rank):
    """The 0/1 map (phases * phase taps, kernel taps) of a 3^rank kernel onto
    its 2^rank phase kernels of 2^rank taps, all in np.ndindex order."""
    fold = np.ones((1, 1, 1))
    for _ in range(rank):
        p, a, t = fold.shape
        fold = np.einsum("pat,qbu->pqabtu", fold, _PHASE_TAPS).reshape(2 * p, 2 * a, 3 * t)
    fold = fold.reshape(-1, fold.shape[2])
    fold.setflags(write=False)  # one cached array serves every call
    return fold


@functools.lru_cache(maxsize=256)
def _conv_plan(spatial, kernel, cout, padding, upsample, pool):
    """The shape-only layout of a conv call, cached per argument tuple:
    (grid, out_shape, shifts, crops, dests, inner, padded, n_wide, n_flat).

    grid is the wide grid's shape after the batch axis. crops and dests
    hold, per phase, its crop of the wide grid and its strided view of the
    result; with pool=2, crops holds the 2^rank window views of phase 0's
    crop instead, and dests is empty. A bad shape raises ValueError on every
    call, since lru_cache keeps no exception.
    """
    rank = len(spatial)
    if upsample == 2:
        if any(k != 3 for k in kernel) or any(p != 1 for p in padding):
            raise ValueError(f"conv: upsample=2 needs kernel 3 and padding 1 on every "
                             f"axis, got kernel {kernel} with padding {padding}")
        taps = (2,) * rank
    elif upsample == 1:
        taps = kernel
    else:
        raise ValueError(f"conv: upsample must be 1 or 2, got {upsample}")
    # the tap loop's output grid; each phase's output is its block at offset s_pi
    out_taps = tuple(s + 2 * p - k + 1 for s, p, k in zip(spatial, padding, taps))
    if any(o < 1 for o in out_taps):
        raise ValueError(
            f"conv: kernel {kernel} with padding {padding} "
            f"does not fit input spatial shape {spatial}"
        )
    extent = tuple(o - upsample + 1 for o in out_taps)
    if pool not in (1, 2):
        raise ValueError(f"conv: pool must be 1 or 2, got {pool}")
    if pool == 2 and (upsample != 1 or any(e % 2 for e in extent)):
        raise ValueError(f"conv: pool=2 needs upsample=1 and an even output shape, "
                         f"got upsample={upsample} with output shape {extent}")
    phases = tuple(itertools.product(range(upsample), repeat=rank))

    padded = tuple(s + 2 * p for s, p in zip(spatial, padding))
    strides = [math.prod(padded[d + 1:]) for d in range(rank)]
    shifts = tuple(sum(k * st for k, st in zip(k_off, strides))
                   for k_off in itertools.product(*map(range, taps)))
    n_wide = out_taps[0] * strides[0]
    grid = (len(phases), cout, out_taps[0]) + padded[1:]
    head = (slice(None),) * 2
    if pool == 2:
        crops = tuple(head + tuple(slice(o, e, 2) for o, e in zip(offset, extent))
                      for offset in itertools.product(range(2), repeat=rank))
        dests = ()
        out_shape = tuple(e // 2 for e in extent)
    else:
        crops = tuple(head + tuple(slice(s, s + e) for s, e in zip(ph, extent))
                      for ph in phases)
        dests = tuple(head + tuple(slice(s, None, upsample) for s in ph) for ph in phases)
        out_shape = tuple(upsample * e for e in extent)
    inner = head + tuple(slice(p, p + s) for p, s in zip(padding, spatial))
    return grid, out_shape, shifts, crops, dests, inner, padded, n_wide, shifts[-1] + n_wide


def conv(x, w, padding=0, b=None, rectify=False, upsample=1, pool=1):
    """N-D stride-1 cross-correlation over (batch, channels, *spatial) inputs.

    w has shape (out_channels, in_channels, *kernel) and the optional bias b
    shape (out_channels,). With rectify the result is relu(conv + b), in one
    node. With upsample=2 the result is that of the same conv on
    upsample_nearest(x, 2), computed at x's resolution (3-tap kernels at
    padding 1 only). With pool=2 it is max_pool of that result with window
    2, and its gradient is routed as max_pool routes it (upsample=1 and an
    even output shape only). Works for any spatial rank; used here with
    rank 2 and 3. Computed over the flat/wide layout and the phase fold of
    the module docstring.
    """
    x, w = as_tensor(x), as_tensor(w)
    rank = x.ndim - 2
    if rank < 1 or w.ndim != x.ndim:
        raise ValueError(f"conv: input shape {x.shape} and kernel shape {w.shape} disagree")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"conv: input channels {x.shape[1]} (shape {x.shape}) != "
            f"kernel channels {w.shape[1]} (shape {w.shape})"
        )
    batch, cin, cout = x.shape[0], x.shape[1], w.shape[0]
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (cout,):
            raise ValueError(f"conv: bias shape {b.shape} != ({cout},) for kernel {w.shape}")
        parents = (x, w, b)
    grid, out_shape, shifts, crops, dests, inner, padded, n_wide, n_flat = _conv_plan(
        x.shape[2:], w.shape[2:], cout, _per_axis(padding, rank, "padding"), upsample, pool)
    n_phases = grid[0]
    rows = n_phases * cout  # GEMM rows: a block of cout channels per phase
    n_pad = math.prod(padded)

    xf = np.zeros((batch, cin, n_flat))
    xf[:, :, :n_pad].reshape((batch, cin) + padded)[inner] = x.data
    wflat = w.data.reshape(cout * cin, -1)
    if upsample == 2:
        wflat = wflat @ _phase_fold(rank).T
    # (phase taps, phases * cout, cin): each offset's taps as one contiguous matrix
    wk = np.ascontiguousarray(
        wflat.reshape(cout, cin, n_phases, -1).transpose(3, 2, 0, 1).reshape(-1, rows, cin))

    if cin == 1:
        # one GEMM over all offsets: (rows, taps) @ (taps, batch * n_wide)
        cols = np.empty((len(shifts), batch, n_wide))
        for i, shift in enumerate(shifts):
            cols[i] = xf[:, 0, shift:shift + n_wide]
        out = np.ascontiguousarray(wk[:, :, 0].T) @ cols.reshape(len(shifts), -1)
        out = out.reshape(rows, batch, n_wide).transpose(1, 0, 2)
    else:
        out = np.zeros((batch, rows, n_wide))
        for shift, tap in zip(shifts, wk):
            out += tap @ xf[:, :, shift:shift + n_wide]
    if b is not None:
        # over whole wide rows: broadcast over the spatial axes, the inner
        # loop would run along one short padded row at a time
        rows_view = out.reshape(batch, n_phases, cout, n_wide)
        rows_view += b.data[:, None]
    out = out.reshape((batch,) + grid)
    # the crop pass (interleave, or pool, and ReLU) into a fresh compact
    # array: a view of the crop would keep the wide buffer alive
    if pool == 2:
        # ReLU commutes with max, so it runs once on the pooled grid
        wins = [out[:, 0][view] for view in crops]
        res = np.maximum(wins[0], wins[1])
        for win in wins[2:]:
            np.maximum(res, win, out=res)
        if rectify:
            np.maximum(res, 0.0, out=res)
    else:
        res = np.empty((batch, cout) + out_shape)
        for p, (crop, dest) in enumerate(zip(crops, dests)):
            if rectify:
                np.maximum(out[:, p][crop], 0.0, out=res[dest])
            else:
                res[dest] = out[:, p][crop]
    if rectify:
        res += 0.0  # -0.0 + 0.0 is +0.0, whichever zero maximum kept
    if pool == 2 and _recording(parents):
        # per window, the first view in window order whose (rectified) value
        # is the maximum, as max_pool routes it: the number of views before
        # it. A NaN window's maximum is its first NaN.
        nan = np.isnan(res).any()

        def missed(win):
            miss = win != res
            if nan:
                miss &= win == win
            return miss

        pending = missed(wins[0])
        if rectify:
            pending &= res != 0  # all rectified values are 0: view 0 holds the max
        first = pending.astype(np.uint8)
        for win in wins[1:-1]:
            pending &= missed(win)
            first += pending

    def back(g):
        # head room for dx (module docstring), in the forward's memory order,
        # which the one-channel GEMM makes rows-major
        head, width = (shifts[-1], shifts[-1] + n_pad) if x.requires_grad else (0, n_wide)
        gbuf = (np.zeros((rows, batch, width)).transpose(1, 0, 2) if cin == 1
                else np.zeros((batch, rows, width)))
        gw = gbuf[:, :, head:head + n_wide]
        gwide = gw.reshape((batch,) + grid)
        if pool == 2:
            # the rectified mask of the routed element is that of the window's max
            gm = g * (res > 0) if rectify else g
            for v, view in enumerate(crops):
                gwide[:, 0][view] = np.where(first == v, gm, 0.0)
        else:
            for p, (crop, dest) in enumerate(zip(crops, dests)):
                if rectify:
                    np.multiply(g[dest], res[dest] > 0, out=gwide[:, p][crop])
                else:
                    gwide[:, p][crop] = g[dest]
        if x.requires_grad:
            wt = wk.reshape(-1, cin).T  # (cin, taps * rows), taps-major like block
            block = np.empty((len(shifts), rows, n_pad))
            dxf = np.empty((batch, cin, n_pad))
            for i in range(batch):
                for t, shift in enumerate(shifts):
                    block[t] = gbuf[i, :, head - shift:head - shift + n_pad]
                np.matmul(wt, block.reshape(-1, n_pad), out=dxf[i])
            _accumulate(x, dxf.reshape((batch, cin) + padded)[inner])
        if w.requires_grad:
            if cin == 1:
                dwk = np.tensordot(gw, cols, axes=([0, 2], [1, 2])).T[:, :, None]
            else:
                dwk = np.empty_like(wk)
                for i, shift in enumerate(shifts):
                    window = xf[:, :, shift:shift + n_wide]
                    dwk[i] = np.matmul(gw, window.transpose(0, 2, 1)).sum(axis=0)
            # back to (cout * cin, phases * taps), then through the transposed fold
            dw = dwk.reshape(-1, n_phases, cout, cin).transpose(2, 3, 1, 0)
            dw = dw.reshape(cout * cin, -1)
            if upsample == 2:
                dw = dw @ _phase_fold(rank)
            _accumulate(w, dw.reshape(w.shape))
        if b is not None:
            _accumulate(b, gw.reshape(batch, n_phases, cout, n_wide).sum(axis=(0, 1, 3)))

    return _make(res, parents, back)


def _window_views(rank, k):
    """Indices of the k**rank strided views of a (batch, channels, *spatial)
    array, in np.ndindex window order: view o holds element o of every
    non-overlapping k-window."""
    return [(slice(None),) * 2 + tuple(slice(o, None, k) for o in offset)
            for offset in np.ndindex(*(k,) * rank)]


def max_pool(x, k=2):
    """Non-overlapping max pooling with window k along every spatial axis.

    The gradient of a window goes to its first maximum in window order, as
    argmax would route it (a NaN counts as the maximum).
    """
    x = as_tensor(x)
    rank = x.ndim - 2
    spatial = x.shape[2:]
    if any(s % k != 0 for s in spatial):
        raise ValueError(f"max_pool: spatial shape {spatial} not divisible by window {k}")
    views = _window_views(rank, k)
    out = x.data[views[0]].copy()
    for view in views[1:]:
        np.maximum(out, x.data[view], out=out)

    def back(g):
        if not x.requires_grad:
            return
        dx = np.empty_like(x.data)
        pending = np.ones(out.shape, dtype=bool)
        for view in views:
            xv = x.data[view]
            hit = pending & ((xv == out) | np.isnan(xv))
            pending &= ~hit
            dx[view] = np.where(hit, g, 0.0)
        _accumulate(x, dx)

    return _make(out, (x,), back)


def upsample_nearest(x, factor=2):
    """Nearest-neighbour upsampling by an integer factor on spatial axes."""
    x = as_tensor(x)
    rank = x.ndim - 2
    out = x.data
    for ax in range(2, 2 + rank):
        out = np.repeat(out, factor, axis=ax)

    def back(g):
        if not x.requires_grad:
            return
        views = _window_views(rank, factor)
        dx = g[views[0]].copy()
        for view in views[1:]:
            dx += g[view]
        _accumulate(x, dx)

    return _make(out, (x,), back)


# -- optimizer ------------------------------------------------------------------

class Adam:
    """Adam with bias correction over a named parameter set.

    Defaults follow the canonical recommendation: lr 1e-3, betas (0.9, 0.999),
    epsilon 1e-8. Both moments live in one flat buffer, so a step is a few
    passes over every parameter at once; m[name] and v[name] are views of it
    in each parameter's shape.
    """

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        for name, value, low, high in (("beta1", beta1, 0, 1), ("beta2", beta2, 0, 1),
                                       ("learning_rate", learning_rate, 0, math.inf),
                                       ("epsilon", epsilon, 0, math.inf)):
            if not (low < value < high):  # also rejects NaN
                rule = "in (0,1)" if high == 1 else "finite and > 0"
                raise ValueError(f"adam: {name} must be {rule}, got {value!r}")
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        ends = np.cumsum([0] + [p.data.size for p in self.params.values()])
        self._slices = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
        self._moments = np.zeros((2, ends[-1]))
        self._grads = np.empty(ends[-1])
        self.m, self.v = ({name: flat[sl].reshape(p.shape)
                           for (name, p), sl in zip(self.params.items(), self._slices)}
                          for flat in self._moments)

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adam step: parameter '{name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        g = self._grads
        for p, sl in zip(self.params.values(), self._slices):
            g[sl] = p.grad.reshape(-1)
        m, v = self._moments
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g * g,
        # rounded as those expressions are
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = self.learning_rate * (m / c1)
        update /= np.sqrt(v / c2) + self.epsilon
        for p, sl in zip(self.params.values(), self._slices):
            p.data -= update[sl].reshape(p.shape)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# -- parameter archive ------------------------------------------------------------

_ARCHIVE_MAGIC = b"FPAR"
_ARCHIVE_VERSION = 1


def serialize_params(params) -> bytes:
    """Pack a name -> array mapping into the versioned little-endian archive.

    Entries are written in sorted name order so equal parameter sets always
    serialize to identical bytes.
    """
    chunks = [_ARCHIVE_MAGIC, struct.pack("<HI", _ARCHIVE_VERSION, len(params))]
    for name in sorted(params):
        arr = params[name]
        data = np.ascontiguousarray(
            arr.data if isinstance(arr, Tensor) else np.asarray(arr), dtype="<f8"
        )
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    return b"".join(chunks)


def deserialize_params(blob: bytes) -> dict:
    """Unpack an archive produced by serialize_params."""
    if blob[:4] != _ARCHIVE_MAGIC[:len(blob)]:
        raise ValueError(f"parameter archive: bad magic at offset 0: {blob[:4]!r}")
    if len(blob) < 10:
        raise ValueError(f"parameter archive: truncated header ({len(blob)} of 10 bytes)")
    version, count = struct.unpack_from("<HI", blob, 4)
    if version != _ARCHIVE_VERSION:
        raise ValueError(f"parameter archive: unsupported version {version}")
    pos = 10
    out = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            payload = blob[pos:pos + 8 * n]
            if len(payload) != 8 * n:
                raise struct.error("truncated payload")
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            pos += 8 * n
        except struct.error:
            raise ValueError(
                f"parameter archive: truncated or corrupt entry at offset {pos}"
            ) from None
    return out


def save_params(params, path):
    with open(path, "wb") as fh:
        fh.write(serialize_params(params))


def load_params(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return deserialize_params(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
