"""Forward-only NN layers with shape/FLOP/GEMM introspection.

Each layer both *executes* (numpy forward pass) and *describes itself* to
the NSFlow frontend: output shape, FLOPs, byte traffic, weight element
count, and — for the layers the AdArray runs as systolic GEMMs — the
lowered :class:`~repro.nn.gemm.GemmDims`. Layers that are not GEMMs
(activations, pooling, batch-norm, element-wise adds) map onto the SIMD
unit (paper Sec. IV-E).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ShapeError
from ..utils import make_rng, prod
from .gemm import GemmDims, conv2d_gemm_dims, conv_output_hw, im2col_t, linear_gemm_dims

__all__ = [
    "Layer",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "Softmax",
    "Flatten",
    "Add",
    "Sequential",
]


class Layer:
    """Base class: a named, stateless-or-weighted forward operator."""

    #: Operator kind tag used by the tracer ("conv2d", "linear", "relu", ...).
    kind: str = "layer"
    #: True when the AdArray executes this layer as a systolic GEMM.
    is_gemm: bool = False

    def __init__(self, name: str):
        self.name = name

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- introspection -----------------------------------------------------

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape produced for a given input shape (no execution)."""
        raise NotImplementedError

    def gemm_dims(self, input_shape: tuple[int, ...]) -> GemmDims | None:
        """Lowered GEMM dims, or ``None`` for non-GEMM (SIMD) layers."""
        return None

    def weight_elements(self) -> int:
        """Number of stored parameters (0 for stateless layers)."""
        return 0

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Forward FLOPs for one invocation at ``input_shape``."""
        dims = self.gemm_dims(input_shape)
        if dims is not None:
            return dims.flops
        # Default for element-wise layers: one op per output element.
        return prod(self.output_shape(input_shape))

    def params(self) -> dict[str, int | float | str]:
        """Static parameters recorded into traces."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class Conv2d(Layer):
    """2-D convolution, square kernel, NCHW layout, bias optional."""

    kind = "conv2d"
    is_gemm = True

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__(name)
        if min(in_channels, out_channels, kernel, stride) <= 0 or padding < 0:
            raise ShapeError(f"invalid conv parameters for {name!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        gen = make_rng(rng)
        fan_in = in_channels * kernel * kernel
        self.weight = gen.standard_normal(
            (out_channels, in_channels, kernel, kernel)
        ) * np.sqrt(2.0 / fan_in)
        self.bias = np.zeros(out_channels) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected NCHW with C={self.in_channels}, got {x.shape}"
            )
        n = x.shape[0]
        oh, ow = conv_output_hw(x.shape[2], x.shape[3], self.kernel, self.stride, self.padding)
        # ``cols_t.T @ w.T`` poses BLAS the same (m, n, k) problem as the
        # ``im2col(x) @ w.T`` oracle, so it rounds identically (see
        # ``repro.nn.gemm``); ``w @ cols_t`` would swap m and n and round
        # differently on some registry shapes.
        cols_t = im2col_t(x, self.kernel, self.stride, self.padding)
        w = self.weight.reshape(self.out_channels, -1)
        out = cols_t.T @ w.T
        if self.bias is not None:
            out += self.bias
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, _, h, w = input_shape
        oh, ow = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, self.out_channels, oh, ow)

    def gemm_dims(self, input_shape: tuple[int, ...]) -> GemmDims:
        n, _, h, w = input_shape
        return conv2d_gemm_dims(
            n, self.in_channels, self.out_channels, h, w,
            self.kernel, self.stride, self.padding,
        )

    def weight_elements(self) -> int:
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def params(self) -> dict[str, int | float | str]:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
        }


class Linear(Layer):
    """Fully-connected layer on ``(batch, features)`` inputs."""

    kind = "linear"
    is_gemm = True

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__(name)
        if min(in_features, out_features) <= 0:
            raise ShapeError(f"invalid linear parameters for {name!r}")
        self.in_features = in_features
        self.out_features = out_features
        gen = make_rng(rng)
        self.weight = gen.standard_normal((in_features, out_features)) * np.sqrt(
            2.0 / in_features
        )
        self.bias = np.zeros(out_features) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_features}), got {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], self.out_features)

    def gemm_dims(self, input_shape: tuple[int, ...]) -> GemmDims:
        return linear_gemm_dims(input_shape[0], self.in_features, self.out_features)

    def weight_elements(self) -> int:
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def params(self) -> dict[str, int | float | str]:
        return {"in_features": self.in_features, "out_features": self.out_features}


class BatchNorm2d(Layer):
    """Inference-mode batch norm: per-channel affine normalization."""

    kind = "batchnorm"

    def __init__(self, name: str, channels: int):
        super().__init__(name)
        if channels <= 0:
            raise ShapeError(f"invalid channel count for {name!r}")
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.eps = 1e-5

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"{self.name}: expected NCHW with C={self.channels}, got {x.shape}")
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        shift = self.beta - self.running_mean * scale
        return x * scale[None, :, None, None] + shift[None, :, None, None]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)

    def weight_elements(self) -> int:
        return 4 * self.channels

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * prod(input_shape)

    def params(self) -> dict[str, int | float | str]:
        return {"channels": self.channels}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)


class MaxPool2d(Layer):
    """Square-window max pooling (stride defaults to the window size)."""

    kind = "maxpool"

    def __init__(self, name: str, kernel: int, stride: int | None = None, padding: int = 0):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        n, c, h, w = x.shape
        oh, ow = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        if self.padding:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2),
                constant_values=-np.inf,
            )
        s = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, self.kernel, self.kernel),
            strides=(s[0], s[1], s[2] * self.stride, s[3] * self.stride, s[2], s[3]),
            writeable=False,
        )
        return windows.max(axis=(4, 5))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = input_shape
        oh, ow = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, c, oh, ow)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return prod(self.output_shape(input_shape)) * self.kernel * self.kernel

    def params(self) -> dict[str, int | float | str]:
        return {"kernel": self.kernel, "stride": self.stride, "padding": self.padding}


class AvgPool2d(Layer):
    """Global average pooling: NCHW → (N, C)."""

    kind = "avgpool"

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        return x.mean(axis=(2, 3))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], input_shape[1])

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return prod(input_shape)


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 4 * prod(input_shape)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], prod(input_shape[1:]))

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 0


class Add(Layer):
    """Element-wise residual addition (two-input layer)."""

    kind = "add"

    def forward(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:  # type: ignore[override]
        if y is None:
            raise ShapeError(f"{self.name}: Add needs two operands")
        if x.shape != y.shape:
            raise ShapeError(f"{self.name}: shape mismatch {x.shape} vs {y.shape}")
        return x + y

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)


class Sequential:
    """An ordered chain of layers with shape-checked execution."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    __call__ = forward

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def weight_elements(self) -> int:
        return sum(layer.weight_elements() for layer in self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
