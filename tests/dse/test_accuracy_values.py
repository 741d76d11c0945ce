"""Pinned functional-accuracy values of the registry workloads (Table IV axis).

Every value is a fraction of seeded problems solved, so it is exact: any
change to the networks, the generator streams, the quantizers or the
pipelines that moves a single prediction shows up here. The values were
recorded before the seeded-network memo and the ``im2col_t`` conv lowering
went in, and both must leave them untouched.
"""

import pytest

from repro.dse import clear_accuracy_cache, evaluate_accuracy
from repro.quant import MIXED_PRECISION_PRESETS
from repro.workloads import build_workload

#: n_problems=4, seed 0.
SMALL = {
    ("prae", "INT8"): 1.0, ("prae", "INT4"): 0.5,
    ("mimonet", "INT8"): 0.875, ("mimonet", "INT4"): 0.875,
    ("lvrf", "INT8"): 1.0, ("lvrf", "INT4"): 1.0,
    ("nvsa", "INT8"): 1.0, ("nvsa", "INT4"): 1.0,
}

#: The default 16 problems, seed 0, every precision preset.
FULL = {
    ("prae", "FP16"): 1.0, ("prae", "INT8"): 1.0,
    ("prae", "MP"): 1.0, ("prae", "INT4"): 0.875,
    ("mimonet", "FP16"): 0.625, ("mimonet", "INT8"): 0.625,
    ("mimonet", "MP"): 0.625, ("mimonet", "INT4"): 0.625,
    ("lvrf", "FP16"): 1.0, ("lvrf", "INT8"): 1.0,
    ("lvrf", "MP"): 1.0, ("lvrf", "INT4"): 0.9375,
    ("nvsa", "FP16"): 1.0, ("nvsa", "INT8"): 1.0,
    ("nvsa", "MP"): 1.0, ("nvsa", "INT4"): 0.9375,
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_accuracy_cache()
    yield
    clear_accuracy_cache()


def _measure(table: dict, n_problems: int) -> dict:
    out, workload = {}, None
    for name, precision in table:   # grouped by workload: one alive at a time
        if workload is None or workload.name != name:
            workload = build_workload(name)
        out[(name, precision)] = evaluate_accuracy(
            workload, n_problems, 0, precision=MIXED_PRECISION_PRESETS[precision],
        ).value
    return out


def test_int8_int4_values_at_four_problems():
    assert _measure(SMALL, 4) == SMALL


@pytest.mark.slow
def test_full_precision_table_at_default_problems():
    assert _measure(FULL, 16) == FULL
