"""The seeded-network memo behind ``build_resnet18`` / ``build_small_cnn``.

A hit must be indistinguishable from a fresh build: same weights, and the
shared generator left in the same state, so every later draw (perception
noise, codebooks, ...) is bit-identical.
"""

import sys
import threading

import numpy as np
import pytest

from repro.dse import deployed_workload
from repro.nn import (
    Conv2d,
    build_resnet18,
    build_small_cnn,
    clear_network_memo,
    network_build_stats,
)
from repro.nn import resnet
from repro.quant import MIXED_PRECISION_PRESETS
from repro.workloads import build_workload


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_network_memo()
    yield
    clear_network_memo()


def _weights(net):
    return [
        layer.weight for layer in net.stem + net.head if hasattr(layer, "weight")
    ] + [
        block.conv1.weight for block in net.blocks
    ]


def _frontend(workload):
    return getattr(workload, "_frontend", None) or workload._cnn


class TestHitIsExact:
    def test_generator_draws_after_a_hit_match_a_fresh_build(self):
        gen = np.random.default_rng(5)
        build_small_cnn(rng=gen)
        fresh = gen.standard_normal(1000)
        clear_network_memo()

        gen = np.random.default_rng(5)
        build_small_cnn(rng=gen)
        gen_hit = np.random.default_rng(5)
        build_small_cnn(rng=gen_hit)
        assert network_build_stats() == {"builds": 1, "hits": 1}
        assert np.array_equal(gen_hit.standard_normal(1000), fresh)

    def test_hit_returns_the_same_network(self):
        a = build_resnet18(base_width=8, rng=np.random.default_rng(2))
        b = build_resnet18(base_width=8, rng=np.random.default_rng(2))
        assert a is b

    def test_key_covers_arguments_and_state(self):
        base = build_small_cnn(depth=2, rng=np.random.default_rng(0))
        assert build_small_cnn(depth=3, rng=np.random.default_rng(0)) is not base
        assert build_small_cnn(depth=2, rng=np.random.default_rng(1)) is not base
        other = build_small_cnn(name="other", depth=2, rng=np.random.default_rng(1))
        assert other is not base
        assert network_build_stats() == {"builds": 4, "hits": 0}

    @pytest.mark.parametrize("name", ["prae", "mimonet", "lvrf", "nvsa"])
    def test_precision_twin_shares_the_network(self, name):
        base = build_workload(name)
        twin = deployed_workload(base, MIXED_PRECISION_PRESETS["INT4"])
        assert twin is not base
        for a, b in zip(_weights(_frontend(base)), _weights(_frontend(twin))):
            assert a is b
        # ... and leaves the twin's generator where a fresh build would.
        state = twin._rng.bit_generator.state
        clear_network_memo()
        fresh = deployed_workload(build_workload(name), MIXED_PRECISION_PRESETS["INT4"])
        assert fresh._rng.bit_generator.state == state


class TestMemoBounds:
    def test_weights_are_read_only(self):
        net = build_resnet18(base_width=8, rng=0)
        for weight in _weights(net):
            assert not weight.flags.writeable
        assert not net.stem[1].gamma.flags.writeable
        with pytest.raises(ValueError):
            net.stem[0].weight[0, 0, 0, 0] = 1.0

    def test_holds_at_most_one_network(self):
        a = build_small_cnn(depth=2, rng=0)
        build_small_cnn(depth=3, rng=0)
        assert len(resnet._memo) == 1
        assert build_small_cnn(depth=2, rng=0) is not a   # evicted
        assert len(resnet._memo) == 1
        assert network_build_stats() == {"builds": 3, "hits": 0}

    def test_threads_building_one_seed_get_one_network(self):
        n_threads = 8   # more than the cores, so builds really interleave
        barrier = threading.Barrier(n_threads)
        nets = [None] * n_threads

        def build(i):
            barrier.wait()
            nets[i] = build_small_cnn(depth=2, rng=np.random.default_rng(3))

        threads = [threading.Thread(target=build, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(net is nets[0] for net in nets)
        assert network_build_stats() == {"builds": 1, "hits": n_threads - 1}


class TestSeedForms:
    def test_int_seed_reseeds_every_layer_as_before(self):
        net = build_small_cnn(depth=2, rng=0)
        assert build_small_cnn(depth=2, rng=0) is net
        direct = Conv2d("c", 1, 32, kernel=3, stride=2, padding=1, bias=False, rng=0)
        assert np.array_equal(net.stem[0].weight, direct.weight)

    def test_unseeded_builds_are_fresh(self):
        a = build_small_cnn(depth=2, rng=None)
        b = build_small_cnn(depth=2, rng=None)
        assert a is not b
        assert not np.array_equal(a.stem[0].weight, b.stem[0].weight)
        assert not a.stem[0].weight.flags.writeable
        assert network_build_stats() == {"builds": 0, "hits": 0}
        assert resnet._memo == []
