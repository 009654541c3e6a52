"""Self-tests of the benchmark's own arithmetic (no program under test).

Run with ``python3 -m pytest e2ebench/test_e2e_stats.py``.
"""

import pytest

from e2e_stats import (
    covered_length,
    percentile,
    relative_spread,
    split_steps,
    tail_percentile,
    unattributed_frac,
)


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(reversed(data), 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0), (99, None), (5, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_split_steps_by_resolved_flag():
    steps, resolves = split_steps([1.0, 2.0, 3.0, 4.0, 5.0], [True, False, False, True, False])
    assert steps == [2.0, 3.0, 5.0]
    assert resolves == [1.0, 4.0]


def test_split_steps_rejects_a_missed_step():
    with pytest.raises(ValueError):
        split_steps([1.0, 2.0], [True, False, False])


def test_covered_length_merges_overlaps():
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered_length([]) == 0


def test_unattributed_frac_on_synthetic_spans():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},   # the job
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 4.0},       # overlaps span 1
        {"id": 3, "parent": 1, "start": 1.5, "end": 2.5},       # grandchild: not top level
        {"id": 4, "parent": 0, "start": 6.0, "end": 7.0},
        {"id": 5, "parent": 0, "start": 9.0, "end": 12.0},      # clipped to the job
    ]
    # covered: [1, 4] + [6, 7] + [9, 10] = 5 of 10 seconds
    assert unattributed_frac(spans, 0) == pytest.approx(0.5)
    assert unattributed_frac(spans, 3) == pytest.approx(1.0)


def test_relative_spread_is_iqr_over_median():
    # statistics.quantiles(range 1..10, n=4) -> Q1 = 2.75, Q3 = 8.25
    assert relative_spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)
    assert relative_spread([2.0] * 10) == 0.0
