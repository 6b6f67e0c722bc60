"""Show how far each CLI golden has drifted, and re-freeze it on request.

    PYTHONPATH=src python tests/golden_drift.py [--bound 1e-12] [--write] [CASE ...]

Reruns each case of test_cli_golden (all of them by default) into a
temporary directory and compares every file it writes with
`golden/cli/<case>/`. JSON files are compared value by value, CSV files
cell by cell and text reports line by line, number by number; every number
that moved is printed with its path, old and new value and relative change.
Any other difference (a file, a key, a string, a row, a line or a word of a
text report) is printed as a difference of its own. Then each changed case
gets one line with its count of moved numbers and its worst relative change.

The exit status is 1 when a difference is not numeric or a number moved by
more than --bound relative, else 0. With --write, each case whose bytes
changed is copied over its golden, but only when the exit status is 0.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

# The BLAS kernel and thread count the goldens are frozen with (see
# conftest.py); set before numpy and scipy load OpenBLAS.
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_cli_golden import CASES, GOLDEN, run_case  # noqa: E402


def _number(value):
    """value as a float if it is a JSON or CSV number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _relative(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def _compare_values(path: str, old, new, moved: list, other: list) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            other.append(f"{path}: keys {list(old)} -> {list(new)}")
            return
        for key in old:
            _compare_values(f"{path}.{key}", old[key], new[key], moved, other)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            other.append(f"{path}: {len(old)} items -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            _compare_values(f"{path}[{i}]", a, b, moved, other)
    else:
        a, b = _number(old), _number(new)
        if a is not None and b is not None:
            if old != new:
                moved.append((path, old, new, _relative(a, b)))
        elif old != new:
            other.append(f"{path}: {old!r} -> {new!r}")


def _csv_rows(data: bytes) -> list[dict]:
    """Each row as {column: cell}; a cell past the header is keyed #index."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return [{"header": header}] + [
        {header[j] if j < len(header) else f"#{j}": cell for j, cell in enumerate(row)}
        for row in rows]


# A number standing on its own in a text report: "1117" in "1117 mm2", but
# not the digits of "mm2", "A1" or "A3@12V".
_TEXT_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def _text_lines(data: bytes) -> list[dict]:
    """Each line as {"words": the line with its numbers blanked, "#k": number k}."""
    return [{"words": _TEXT_NUMBER.sub("#", line),
             **{f"#{k}": m.group() for k, m in enumerate(_TEXT_NUMBER.finditer(line))}}
            for line in data.decode().split("\n")]


def compare_file(label: str, old: bytes, new: bytes, moved: list, other: list) -> None:
    """Append the moved numbers and other differences of one file."""
    if old == new:
        return
    found = len(moved) + len(other)
    if label.endswith(".json"):
        _compare_values(label, json.loads(old), json.loads(new), moved, other)
    elif label.endswith(".csv"):
        _compare_values(label, _csv_rows(old), _csv_rows(new), moved, other)
    elif label.endswith(".txt"):
        _compare_values(label, _text_lines(old), _text_lines(new), moved, other)
    else:
        other.append(f"{label}: bytes differ")
        return
    if len(moved) + len(other) == found:
        # Equal values in different bytes, such as a changed float spelling.
        other.append(f"{label}: bytes differ, values equal")


def drift(names: list[str], workdir: Path) -> tuple[list, list, dict[str, Path]]:
    """Rerun each case; returns moved numbers, other differences and, per
    case whose bytes changed, the directory of its fresh outputs."""
    moved, other, changed = [], [], {}
    for name in names:
        (workdir / name).mkdir()
        with contextlib.redirect_stdout(io.StringIO()):
            out = run_case(name, workdir / name)
        want = GOLDEN / name
        got_names = sorted(p.name for p in out.iterdir())
        want_names = sorted(p.name for p in want.iterdir())
        if got_names != want_names:
            other.append(f"{name}: files {want_names} -> {got_names}")
            changed[name] = out
        for file_name in sorted(set(got_names) & set(want_names)):
            old, new = (want / file_name).read_bytes(), (out / file_name).read_bytes()
            if old != new:
                changed[name] = out
            compare_file(f"{name}/{file_name}", old, new, moved, other)
    return moved, other, changed


def case_summary(moved: list, changed) -> list[str]:
    """One line per changed case: how many of its numbers moved and the
    worst relative change among them."""
    lines = []
    for name in sorted(changed):
        rels = [rel for path, *_, rel in moved if path.split("/", 1)[0] == name]
        lines.append(f"case   {name}: {len(rels)} number(s) moved, worst "
                     f"{max(rels, default=0.0):.2e} relative")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cases", nargs="*", metavar="CASE", help=f"of {sorted(CASES)}")
    p.add_argument("--bound", type=float, default=1e-12,
                   help="largest relative change a number may make (default 1e-12)")
    p.add_argument("--write", action="store_true",
                   help="copy each changed case over its golden when the check passes")
    args = p.parse_args(argv)
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        p.error(f"unknown case(s) {unknown}")
    names = args.cases or sorted(CASES)

    with tempfile.TemporaryDirectory() as tmp:
        moved, other, changed = drift(names, Path(tmp))
        for path, old, new, rel in moved:
            print(f"moved  {path}: {old!r} -> {new!r} (relative {rel:.2e})")
        for line in other:
            print(f"other  {line}")
        for line in case_summary(moved, changed):
            print(line)
        worst = max((rel for *_, rel in moved), default=0.0)
        failed = bool(other) or worst > args.bound
        print(f"{len(moved)} number(s) moved, worst {worst:.2e} relative (bound "
              f"{args.bound:.0e}); {len(other)} other difference(s); changed case(s): "
              f"{', '.join(sorted(changed)) or 'none'}")
        if args.write and not failed:
            for name, out in sorted(changed.items()):
                for src in out.iterdir():
                    shutil.copyfile(src, GOLDEN / name / src.name)
                print(f"re-froze {name}")
        elif args.write:
            print("nothing written: the check failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
