"""ordered_sum, the one float total of pdnx, against an explicit loop."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pdnx import architecture, pdn_grid
from pdnx.datasets import load_datasets
from pdnx.floats import ordered_sum


def _loop(values):
    total = 0
    for value in values:
        total = total + value
    return total


@given(st.lists(st.floats() | st.integers(-10, 10)), st.booleans())
def test_equals_an_explicit_loop(values, numpy_items):
    if numpy_items:
        values = list(np.array(values, dtype=float))
    # Two numpy floats that overflow warn where Python floats go to inf
    # silently, in the loop as in ordered_sum, so neither may warn here.
    with np.errstate(over="ignore"):
        got, want = ordered_sum(iter(values)), _loop(values)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@given(st.lists(st.floats() | st.sampled_from([0.0, -0.0])))
def test_an_array_equals_an_explicit_loop_over_its_floats(values):
    # np.add.accumulate adds in the loop's order; an all -0.0 array totals
    # 0.0 and an empty one the int 0, as the loop does. The loop overflows
    # to inf silently, so the array's overflow warning is silenced too.
    with np.errstate(over="ignore"):
        got = ordered_sum(np.array(values, dtype=float))
    want = _loop(values)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_each_addition_is_rounded():
    # A compensated sum, such as sum() from Python 3.12 on, gives 1.0.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0


def test_an_empty_total_prints_0():
    assert repr(ordered_sum([])) == "0"


def test_the_shipped_a1_demand_weights(monkeypatch):
    # The A1 plane's demand weights at the shipped demand weight total
    # 2241.0000000000023 added left to right; compensated, 2241.0. Every
    # A1 sink current is divided by this total.
    parts, profile_parts = [], pdn_grid.profile_parts
    monkeypatch.setattr(pdn_grid, "profile_parts",
                        lambda *a: parts.append(profile_parts(*a)) or parts[-1])
    monkeypatch.setattr(pdn_grid, "_operator", None)
    monkeypatch.setattr(pdn_grid, "_discretisation", None)
    ds = load_datasets()
    architecture.evaluate(architecture.build_architecture("A1", "DSCH", ds), ds)
    _, uniform, radial = parts[0]
    weights = (uniform + ds.calibration.demand_weight * radial).tolist()
    assert ordered_sum(weights) == _loop(weights) == 2241.0000000000023
