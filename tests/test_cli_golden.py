"""Every CLI report file, byte for byte, against a frozen copy.

`golden/cli/<case>/` holds the files each command below writes. Rerunning
the command must write the same set of files with the same bytes, so a
change to how reports are serialised cannot move a key, a float repr or a
line. A change that moves a reported number on purpose re-freezes the cases
it moves with `golden_drift.py --write`, which prints every moved number.
"""

import json
from pathlib import Path

import pytest

from pdnx.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli"

# case name -> (run config, command and arguments; --config and --out are added)
CASES = {
    "evaluate_a0": ({"architectures": "A0"}, ["evaluate"]),
    "evaluate_a1_dsch": ({"architectures": "A1", "topologies": "DSCH"}, ["evaluate"]),
    "evaluate_a1_dpmih": ({"architectures": "A1", "topologies": "DPMIH"}, ["evaluate"]),
    "evaluate_a3_12v_dsch": ({"architectures": "A3@12V", "topologies": "DSCH"},
                             ["evaluate"]),
    "compare_15": ({"architectures": ["A0", "A1", "A2", "A3@12V", "A3@6V"],
                    "topologies": ["DSCH", "DPMIH", "3LHD"]}, ["compare"]),
    "feasibility_a1": ({"architectures": "A1"}, ["feasibility"]),
    "calibrate_three_targets": ({}, ["calibrate", "--target", "a1_spread=16:27",
                                     "--target", "a0_loss_pct=40",
                                     "--target", "utilizations=bga:0.01,c4:0.02"]),
    "sweep_a3_6v_sheet": ({"architectures": "A3@6V", "topologies": "DSCH"},
                          ["sweep", "--param", "sheet_resistance",
                           "--values", "0.00025,0.0005,0.5"]),
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one case with its outputs under workdir/out; return that directory."""
    config, argv = CASES[name]
    cfg_path = workdir / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = workdir / "out"
    assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(tmp_path, name):
    out = run_case(name, tmp_path)
    want = GOLDEN / name
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in want.iterdir())
    for file_name in names:
        assert (out / file_name).read_bytes() == (want / file_name).read_bytes(), file_name
