"""The 10-cell A0-A3 x DSCH/DPMIH comparison against a frozen golden copy,
and the widest lattices of the benchmark's mesh ladder against its reference.

`golden/comparison.json` is the `reporting.table_to_dict` output of the
comparison below at 1 kW and 1 V, taken before the two-stage operating point
was solved in closed form. Strings, statuses and structure must match
exactly; numbers must match to 1e-9 relative. The ladder's entries in
`bench/reference.json` are only read here.
"""

import json
import math
from pathlib import Path

import pytest

from pdnx import reporting as rpt
from pdnx.architecture import build_architecture, compare, evaluate
from pdnx.datasets import load_datasets

GOLDEN = Path(__file__).with_name("golden") / "comparison.json"
BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
REL_TOL = 1e-9


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_ten_cell_comparison_matches_golden():
    table = compare(["A0", "A1", "A2", "A3@12V", "A3@6V"], ["DSCH", "DPMIH"],
                    load_datasets(), total_power_w=1000.0, pol_voltage_v=1.0)
    got = json.loads(rpt.dump_json(rpt.table_to_dict(table)))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _mismatches(got, want) == []



@pytest.mark.parametrize("resolution", [48, 64, 96])
@pytest.mark.parametrize("arch", ["A1", "A2"])
def test_wide_lattices_match_the_mesh_ladder_reference(arch, resolution):
    # The golden table's blocks are at most 53 wavefronts wide. These are
    # the only planes that reduce a block to its even wavefronts (A1 at 48,
    # 64 and 96, A2 at 96; the others are their narrower neighbours),
    # evaluated as the benchmark's mesh_ladder workload does: total loss to
    # 1e-9 relative and the converter rating verdict.
    want = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["mesh_ladder"]
    want = want[f"{arch}/{resolution}"]
    ds = load_datasets({"calibration-default": {"grid_resolution": resolution}})
    got = evaluate(build_architecture(arch, "DSCH", ds, total_power_w=1000.0,
                                      pol_voltage_v=1.0), ds)
    assert math.isclose(got.total_loss_w, want["total_loss_w"], rel_tol=REL_TOL, abs_tol=0.0)
    over_rated = any(f.check == "converter_rating" and f.status == "fail"
                     for f in got.feasibility)
    assert over_rated is not want["within_rating"]
