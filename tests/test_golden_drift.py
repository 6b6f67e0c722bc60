"""golden_drift's text-report comparison: moved numbers versus other changes."""

from golden_drift import case_summary, compare_file


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


def test_case_summary_counts_and_worst_drift_per_changed_case():
    moved = [("a/breakdown.json.loss", 1.0, 1.0 + 1e-14, 1e-14),
             ("b/report.txt[3].#0", "2.5", "2.6", 0.04),
             ("a/breakdown.csv[1].loss", "3", "3.000000000003", 1e-12)]
    assert case_summary(moved, {"b": None, "a": None, "c": None}) == [
        "case   a: 2 number(s) moved, worst 1.00e-12 relative",
        "case   b: 1 number(s) moved, worst 4.00e-02 relative",
        "case   c: 0 number(s) moved, worst 0.00e+00 relative"]
