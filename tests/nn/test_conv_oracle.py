"""Conv2d's production lowering against the im2col oracle, bit for bit.

``Conv2d.forward`` gathers the windows as ``im2col_t(x)`` (no transposed
copy) and must reproduce ``im2col(x) @ weight.reshape(oc, -1).T`` (+ bias)
exactly — the accuracy axis depends on it. Every conv configuration the
registry workloads instantiate is checked at the input size it runs at:
the small-CNN 3×3 convs at strides 1 and 2 (prae, mimonet), and ResNet-18's
7×7 stride-2 pad-3 stem, 3×3 convs and 1×1 pad-0 downsamples (lvrf, nvsa).

Bit identity rests on BLAS running the same blocked kernel for both
products. Tiny products can go to small-matrix kernels that differ by
transpose flag; :func:`test_tiny_shapes_agree_to_rounding` documents that
case at ulp tolerance.
"""

import numpy as np
import pytest

from repro.nn import Conv2d
from repro.nn.gemm import conv_output_hw, im2col, im2col_t
from repro.workloads import build_workload

REGISTRY = ("prae", "mimonet", "lvrf", "nvsa")


def _registry_conv_shapes() -> list[tuple[str, int, int, int, int, int, int]]:
    """(workload, in_ch, out_ch, kernel, stride, padding, input hw), deduped."""
    seen: dict[tuple, str] = {}
    for name in REGISTRY:
        workload = build_workload(name)
        net = getattr(workload, "_frontend", None) or workload._cnn
        hw = workload.config.image_size
        for op in net.describe((1, 1, hw, hw)):
            if op.kind == "conv2d":
                p = op.params
                shape = (p["in_channels"], p["out_channels"], p["kernel"],
                         p["stride"], p["padding"], op.input_shape[2])
                seen.setdefault(shape, name)
    return [(name, *shape) for shape, name in seen.items()]


SHAPES = _registry_conv_shapes()


def _oracle(conv: Conv2d, x: np.ndarray) -> np.ndarray:
    n, _, h, w = x.shape
    oh, ow = conv_output_hw(h, w, conv.kernel, conv.stride, conv.padding)
    out = im2col(x, conv.kernel, conv.stride, conv.padding) @ (
        conv.weight.reshape(conv.out_channels, -1).T
    )
    if conv.bias is not None:
        out += conv.bias
    return out.reshape(n, oh, ow, conv.out_channels).transpose(0, 3, 1, 2)


def test_registry_covers_every_conv_kind():
    kinds = {(k, s, p) for _, _, _, k, s, p, _ in SHAPES}
    assert {(3, 1, 1), (3, 2, 1), (7, 2, 3), (1, 2, 0)} <= kinds


@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize(
    "workload,cin,cout,kernel,stride,padding,hw", SHAPES,
    ids=[f"{s[0]}-{s[1]}x{s[2]}-k{s[3]}s{s[4]}p{s[5]}-{s[6]}" for s in SHAPES],
)
def test_forward_is_bit_identical_to_im2col_oracle(
    workload, cin, cout, kernel, stride, padding, hw, batch, bias
):
    rng = np.random.default_rng(hw * 131 + cin)
    conv = Conv2d("c", cin, cout, kernel, stride, padding, bias=bias, rng=rng)
    if bias:
        conv.bias = rng.standard_normal(cout)
    x = rng.standard_normal((batch, cin, hw, hw))
    out = conv.forward(x)
    assert out.shape == conv.output_shape(x.shape)
    assert np.array_equal(out, _oracle(conv, x))


def test_windows_are_the_oracle_transposed():
    x = np.random.default_rng(0).standard_normal((2, 3, 9, 9))
    for kernel, stride, padding in ((3, 1, 1), (3, 2, 1), (7, 2, 3), (1, 2, 0)):
        assert np.array_equal(
            im2col_t(x, kernel, stride, padding),
            im2col(x, kernel, stride, padding).T,
        )


def test_non_contiguous_input():
    """Conv outputs are channel-last in memory; the next conv reads them."""
    rng = np.random.default_rng(1)
    conv = Conv2d("c", 8, 16, 1, stride=2, padding=0, bias=False, rng=rng)
    x = rng.standard_normal((3, 12, 12, 8)).transpose(0, 3, 1, 2)
    assert np.array_equal(conv.forward(x), _oracle(conv, x))


def test_tiny_shapes_agree_to_rounding():
    rng = np.random.default_rng(2)
    conv = Conv2d("c", 3, 8, 3, stride=1, padding=1, bias=False, rng=rng)
    x = rng.standard_normal((1, 3, 9, 9))
    np.testing.assert_allclose(conv.forward(x), _oracle(conv, x), rtol=0, atol=1e-14)
