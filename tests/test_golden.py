"""The 10-cell A0-A3 x DSCH/DPMIH comparison against a frozen golden copy.

`golden/comparison.json` is the `reporting.table_to_dict` output of the
comparison below at 1 kW and 1 V, taken before the two-stage operating point
was solved in closed form. Strings, statuses and structure must match
exactly; numbers must match to 1e-9 relative.
"""

import json
import math
from pathlib import Path

from pdnx import reporting as rpt
from pdnx.architecture import compare
from pdnx.datasets import load_datasets

GOLDEN = Path(__file__).with_name("golden") / "comparison.json"
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

