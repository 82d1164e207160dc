"""Every cell of three ``reproduce`` outputs against the recorded references.

The summary text of every ``reproduce`` target is pinned byte for byte as
well.

``bench/reference/`` holds ``fig3a.csv``, ``fig4b.csv`` and
``table_anchors.csv`` as recorded from a known-good tree.  Numbers must
agree within one unit of the 10th significant digit (the last digit the
CSV prints), every other cell exactly, so numeric drift fails the tests
without a benchmark run.
"""

import math
from pathlib import Path

import pytest

from qdcnot.sweep import reproduce

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def last_digit(x: float) -> float:
    """One unit in the 10th significant digit of ``x``; 0 for 0."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 9) if x else 0.0


def same_cell(got: str, want: str) -> bool:
    try:
        x, y = float(got), float(want)
    except ValueError:  # a name, a header or a status
        return got == want
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    # the slack covers the binary rounding of two decimal strings one unit apart
    return abs(x - y) <= 1.00001 * max(last_digit(x), last_digit(y))


def test_last_digit_rule():
    assert same_cell("0.9374123457", "0.9374123458")
    assert not same_cell("0.9374123457", "0.9374123459")
    assert same_cell("nan", "nan") and not same_cell("nan", "0")
    assert not same_cell("1e-17", "0") and same_cell("0", "0")
    assert not same_cell("error:ValueError", "ok")


@pytest.mark.parametrize("target", ["fig3a", "fig4b", "table_anchors"])
def test_reproduce_matches_reference(target, tmp_path):
    out = reproduce(target, str(tmp_path))
    got = Path(out["csv"]).read_text(encoding="utf-8").splitlines()
    want = (REFERENCE / f"{target}.csv").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    bad = [
        (n, g, w) for n, (g, w) in enumerate(zip(got, want), start=1)
        if len(g.split(",")) != len(w.split(","))
        or not all(same_cell(a, b) for a, b in zip(g.split(","), w.split(",")))
    ]
    assert bad == [], f"{len(bad)} rows differ, first: {bad[:3]}"


# The summary of every anchor, as a known-good tree prints it; the
# DOCUMENTED line names the best ensemble any candidate reaches.
ANCHOR_SUMMARY = (
    "baseline_strong_ideal: expected 0.9374 +/- 0.0100, got 0.937089 (basis4) -> PASS\n"
    "baseline_weak_ideal: expected 0.3234 +/- 0.0100, got 0.323419 (basis4) -> PASS\n"
    "baseline_strong_err1e-2: expected 0.8789 +/- 0.0150, got 0.899527 (basis4) -> DOCUMENTED"
    " [residual +0.020627; best ensemble superposition4 -> 0.899071]\n"
    "baseline_weak_err1e-2: expected 0.3002 +/- 0.0150, got 0.304392 (basis4) -> PASS\n"
    "optimized_measured_switches: expected 0.2627 +/- 0.0150, got 0.264931 (basis4) -> PASS\n"
    "optimized_best_case: expected 0.7800 +/- 0.0100, got 0.780210 (basis4) -> PASS\n"
)


def test_anchor_summary_text(tmp_path):
    out = reproduce("table_anchors", str(tmp_path))
    assert out["summary"] == ANCHOR_SUMMARY
    assert Path(out["summary_path"]).read_text(encoding="utf-8") == ANCHOR_SUMMARY


# The summary of each grid target, as a known-good tree prints it: the lines
# of the anchors that target checks
IDEAL_SUMMARY = (
    "baseline_strong_ideal: expected 0.9374 +/- 0.0100, got 0.937089 (basis4) -> PASS\n"
    "baseline_weak_ideal: expected 0.3234 +/- 0.0100, got 0.323419 (basis4) -> PASS\n"
)
GRID_SUMMARIES = {
    "fig3a": IDEAL_SUMMARY,
    "fig3b": IDEAL_SUMMARY,
    "fig4a": "optimized_measured_switches: expected 0.2627 +/- 0.0150, got 0.264931 (basis4)"
             " -> PASS\n",
    "fig4b": "optimized_best_case: expected 0.7800 +/- 0.0100, got 0.780210 (basis4) -> PASS\n",
}


@pytest.mark.parametrize("target", sorted(GRID_SUMMARIES))
def test_grid_summary_text(target, tmp_path):
    out = reproduce(target, str(tmp_path))
    assert out["summary"] == GRID_SUMMARIES[target]
    assert Path(out["summary_path"]).read_text(encoding="utf-8") == GRID_SUMMARIES[target]
