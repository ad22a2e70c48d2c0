"""Tensors, reverse-mode gradients, and the Adam optimizer.

Everything in this package runs on a small define-by-run autodiff engine
over float64 numpy arrays. This script builds a couple of graphs from the
ops the pipeline records, checks a gradient against finite differences,
and recovers a convolution kernel with Adam.
"""

import numpy as np

from fedseg.autodiff import Adam, Tensor, add, conv, mul, tsum

# A scalar graph: loss = sum(x * x) has gradient 2x.
x = Tensor([3.0, -1.5], requires_grad=True)
loss = tsum(x * x)
loss.backward()
print("d/dx sum(x^2) at [3, -1.5]:", x.grad)

# Gradients survive compositions: the network's conv block (conv, bias and
# ReLU in one node), then the mean activation as a scaled sum.
rng = np.random.default_rng(0)
image = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
kernel = Tensor(rng.normal(scale=0.5, size=(2, 1, 3, 3)), requires_grad=True)
bias = Tensor(rng.normal(scale=0.1, size=2), requires_grad=True)


def mean_activation():
    out = conv(image, kernel, padding=1, b=bias, rectify=True)
    return tsum(out) * (1.0 / out.data.size)


mean_activation().backward()
print("conv kernel grad shape:", kernel.grad.shape, " bias grad:", bias.grad)

# Spot-check one entry against central finite differences.
h = 1e-5
k = kernel.data.copy()
kernel.data[0, 0, 1, 1] = k[0, 0, 1, 1] + h
hi = mean_activation().item()
kernel.data[0, 0, 1, 1] = k[0, 0, 1, 1] - h
lo = mean_activation().item()
kernel.data[0, 0, 1, 1] = k[0, 0, 1, 1]
numeric = (hi - lo) / (2 * h)
print(f"kernel[0,0,1,1]: autodiff {kernel.grad[0, 0, 1, 1]:+.8f}  "
      f"finite diff {numeric:+.8f}")

# Adam on least squares: recover a 3x3 kernel from noisy filtered images.
w_true = np.array([[[[0.0, 1.0, 0.0], [1.0, -2.0, 0.5], [0.0, 0.5, 0.0]]]])
images = Tensor(rng.normal(size=(8, 1, 8, 8)))
observed = conv(images, Tensor(w_true), padding=1).data
minus_y = Tensor(-(observed + 0.01 * rng.normal(size=observed.shape)))
w = Tensor(np.zeros(w_true.shape), requires_grad=True)
opt = Adam({"w": w}, learning_rate=0.05)
for step in range(200):
    residual = add(conv(images, w, padding=1), minus_y)
    objective = mul(tsum(mul(residual, residual)), 1.0 / residual.data.size)
    opt.zero_grad()
    objective.backward()
    opt.step()
print("Adam recovered w:", " ".join(f"{v:+.3f}" for v in w.data.ravel()))
print("          true w:", " ".join(f"{v:+.3f}" for v in w_true.ravel()))
