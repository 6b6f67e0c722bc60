"""golden_drift's text-report comparison: moved numbers versus other changes."""

from golden_drift import compare_file


def test_text_report_numbers_move_and_words_differ():
    old = b"A1 needs 1118 mm2 (0.89 A/mm2, binding level c4)\n  [pass] -3.96%\n"
    new = b"A1 needs 1117 mm2 (0.90 A/mm2, binding level tsv)\n  [pass] -3.96%\n"
    moved, other = [], []
    compare_file("case/report.txt", old, new, moved, other)
    assert [(path, a, b) for path, a, b, _ in moved] == [
        ("case/report.txt[0].#0", "1118", "1117"), ("case/report.txt[0].#1", "0.89", "0.90")]
    assert other == ["case/report.txt[0].words: "
                     "'A1 needs # mm2 (# A/mm2, binding level c4)' -> "
                     "'A1 needs # mm2 (# A/mm2, binding level tsv)'"]


def test_text_report_line_count_is_another_difference():
    moved, other = [], []
    compare_file("case/report.txt", b"1 W\n", b"1 W\n2 W\n", moved, other)
    assert moved == [] and other == ["case/report.txt: 2 items -> 3"]
