"""A1 and A2 + DSCH at every resolution of the benchmark's mesh ladder,
bit for bit against `golden/ladder.json`.

The ladder's wide lattices are the only golden cover of the reduced path,
the blocks wider than pdn_grid._BAND_MAX_WIDTH that are factored through
their even wavefronts. Each point holds the total loss and every per-VR
current, as float.hex strings, or the exception the point raises. The last
bits depend on the BLAS kernel and thread count, so this file holds only
under the ones the goldens are frozen with (tests/conftest.py). To re-freeze
it on purpose:

    PYTHONPATH=src python tests/test_golden_ladder.py --write
"""

import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden") / "ladder.json"
ARCHS = ("A1", "A2")
# Every resolution bench/workloads.py's mesh ladder can draw.
RESOLUTIONS = (14, 16, 18, 22, 24, 26, 30, 32, 34, 48, 64, 96)


def ladder_point(arch: str, resolution: int) -> dict:
    """One point as the golden stores it: hex figures, or the error."""
    from pdnx.architecture import build_architecture, evaluate
    from pdnx.datasets import load_datasets

    try:
        ds = load_datasets({"calibration-default": {"grid_resolution": resolution}})
        b = evaluate(build_architecture(arch, "DSCH", ds, total_power_w=1000.0,
                                        pol_voltage_v=1.0), ds)
    except Exception as exc:    # noqa: BLE001 - the golden records what is raised
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"total_loss_w": b.total_loss_w.hex(),
            "per_vr_currents_a": {stage: [i.hex() for i in currents]
                                  for stage, currents in b.per_vr_currents_a.items()}}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_holds_every_ladder_point():
    assert list(_golden()) == [f"{a}/{r}" for a in ARCHS for r in RESOLUTIONS]


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("arch", ARCHS)
def test_ladder_point_matches_golden_bit_for_bit(arch, resolution):
    want = _golden()[f"{arch}/{resolution}"]
    assert json.dumps(ladder_point(arch, resolution)) == json.dumps(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")    # as tests/conftest.py
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    doc = {f"{a}/{r}": ladder_point(a, r) for a in ARCHS for r in RESOLUTIONS}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
