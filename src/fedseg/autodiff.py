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
discarded by a crop. Backward scatters the output gradient into a zeroed
wide gradient, accumulates dx into a flat buffer of the same layout through
the same shifted slices, and takes dw from those slices of the forward's
buffer, so no window is copied in either direction.

conv is also the fused conv block: an optional bias is added in place on
the wide grid after the tap sum, and with rectify the crop itself is the
ReLU pass np.where(v <= 0, 0.0, v) (NaN passes through, zeros are +0.0), so
bias and ReLU cost no tape node and no full-size pass of their own. The
result is always a fresh compact array: a view of the crop would keep the
wide buffer alive. Backward masks the gradient while scattering it into the
wide grid and takes the bias gradient from that grid.

A one-channel input (cin == 1) would make each offset a 1-deep matmul, so
its k^rank shifted windows are copied once into a (taps, batch, n_wide)
array instead: the forward is one GEMM (cout, taps) @ (taps, batch * n_wide)
and dw one tensordot; dx keeps the loop over offsets.

max_pool and upsample_nearest work on the k^rank strided views
x[:, :, i::k, j::k] (one per window offset, in np.ndindex order). The pool
is np.maximum over them; its backward sends each window's gradient to the
first view holding the maximum, as argmax would. The upsample backward is
the sum of the gradient's views.

Also provides the Adam optimizer and a binary parameter-archive format
for checkpointing named parameter sets.
"""

import contextlib
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

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def relu(self):
        return relu(self)

    def log(self):
        return tlog(self)


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


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
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


def take_per_column(t, indices):
    """Gather along axis 0 with a per-column index matrix (sorting gather)."""
    t = as_tensor(t)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != t.shape:
        raise ValueError(f"take_per_column: index shape {idx.shape} != data shape {t.shape}")
    cols = np.broadcast_to(np.arange(idx.shape[1]), idx.shape)

    def back(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            np.add.at(full, (idx, cols), g)
            _accumulate(t, full)

    return _make(np.take_along_axis(t.data, idx, axis=0), (t,), back)


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

def relu(t):
    t = as_tensor(t)
    mask = t.data > 0

    def back(g):
        _accumulate(t, g * mask)

    # `<= 0` rather than `~mask`: a NaN passes through instead of becoming 0
    return _make(np.where(t.data <= 0, 0.0, t.data), (t,), back)


def tlog(t):
    t = as_tensor(t)

    def back(g):
        _accumulate(t, g / t.data)

    return _make(np.log(t.data), (t,), back)


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
    y = np.exp(out)

    def back(g):
        _accumulate(t, g - y * g.sum(axis=ax, keepdims=True))

    return _make(out, (t,), back)


# -- spatial operations ---------------------------------------------------------

def _per_axis(value, rank, name):
    if isinstance(value, int):
        return (value,) * rank
    value = tuple(value)
    if len(value) != rank:
        raise ValueError(f"{name} must have {rank} entries, got {len(value)}")
    return value


def conv(x, w, padding=0, b=None, rectify=False):
    """N-D stride-1 cross-correlation over (batch, channels, *spatial) inputs.

    w has shape (out_channels, in_channels, *kernel) and the optional bias b
    shape (out_channels,). With rectify the result is relu(conv + b), in one
    node. Works for any spatial rank; used here with rank 2 and 3. Computed
    over the flat/wide layout of the module docstring.
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
    if b is not None:
        b = as_tensor(b)
        if b.shape != (cout,):
            raise ValueError(f"conv: bias shape {b.shape} != ({cout},) for kernel {w.shape}")
    padding = _per_axis(padding, rank, "padding")
    kernel = w.shape[2:]
    spatial = x.shape[2:]
    out_spatial = tuple(s + 2 * p - k + 1 for s, p, k in zip(spatial, padding, kernel))
    if any(o < 1 for o in out_spatial):
        raise ValueError(
            f"conv: kernel {kernel} with padding {padding} "
            f"does not fit input spatial shape {spatial}"
        )

    padded = tuple(s + 2 * p for s, p in zip(spatial, padding))
    n_pad = int(np.prod(padded))
    strides = [int(np.prod(padded[d + 1:])) for d in range(rank)]
    shifts = [sum(k * st for k, st in zip(k_off, strides))
              for k_off in np.ndindex(*kernel)]
    n_wide = out_spatial[0] * strides[0]
    n_flat = shifts[-1] + n_wide
    wide = (batch, cout, out_spatial[0]) + padded[1:]
    valid = (slice(None),) * 3 + tuple(slice(0, o) for o in out_spatial[1:])
    inner = (slice(None),) * 2 + tuple(slice(p, p + s) for p, s in zip(padding, spatial))

    xf = np.zeros((batch, cin, n_flat))
    xf[:, :, :n_pad].reshape((batch, cin) + padded)[inner] = x.data
    # (kernel offsets, cout, cin): each offset's taps as one contiguous matrix
    wk = np.ascontiguousarray(w.data.reshape(cout, cin, -1).transpose(2, 0, 1))

    if cin == 1:
        # one GEMM over all offsets: (cout, taps) @ (taps, batch * n_wide)
        cols = np.empty((len(shifts), batch, n_wide))
        for i, shift in enumerate(shifts):
            cols[i] = xf[:, 0, shift:shift + n_wide]
        out = (w.data.reshape(cout, -1) @ cols.reshape(len(shifts), -1))
        out = out.reshape(cout, batch, n_wide).transpose(1, 0, 2)
    else:
        out = np.zeros((batch, cout, n_wide))
        for shift, taps in zip(shifts, wk):
            out += taps @ xf[:, :, shift:shift + n_wide]
    if b is not None:
        out += b.data[:, None]
    out = out.reshape(wide)[valid]
    # a fresh compact array: a view of the crop would keep the wide buffer alive
    out = np.where(out <= 0, 0.0, out) if rectify else out.copy()

    def back(g):
        # in the forward's memory order, which the one-channel GEMM makes cout-major
        gw = (np.zeros((cout, batch, n_wide)).transpose(1, 0, 2) if cin == 1
              else np.zeros((batch, cout, n_wide)))
        if rectify:
            np.multiply(g, out > 0, out=gw.reshape(wide)[valid])
        else:
            gw.reshape(wide)[valid] = g
        if x.requires_grad:
            dxf = np.zeros_like(xf)
            for shift, taps in zip(shifts, wk):
                dxf[:, :, shift:shift + n_wide] += taps.T @ gw
            _accumulate(x, dxf[:, :, :n_pad].reshape((batch, cin) + padded)[inner])
        if w.requires_grad:
            if cin == 1:
                dw = np.tensordot(gw, cols, axes=([0, 2], [1, 2]))
            else:
                dw = np.empty_like(wk)
                for i, shift in enumerate(shifts):
                    window = xf[:, :, shift:shift + n_wide]
                    dw[i] = np.matmul(gw, window.transpose(0, 2, 1)).sum(axis=0)
                dw = dw.transpose(1, 2, 0)
            _accumulate(w, dw.reshape(w.shape))
        if b is not None:
            _accumulate(b, gw.sum(axis=(0, 2)))

    return _make(out, (x, w) if b is None else (x, w, b), back)


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
    epsilon 1e-8.
    """

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        if not 0 < beta1 < 1 or not 0 < beta2 < 1:
            raise ValueError(f"betas must be in (0,1), got {beta1}, {beta2}")
        if learning_rate <= 0 or epsilon <= 0:
            raise ValueError("learning_rate and epsilon must be positive")
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adam step: parameter '{name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / c1
            v_hat = self.v[name] / c2
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

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
