"""Tests of span self-time arithmetic and of the comparison rule.

    python3 -m pytest -q perfbench
"""

import types

import pytest

from compare import Run, pair_runs, verdict
from spans import NO_PARENT, Span, Tracer, example_times, hit_ratio, inside, summarize


def span(name, start, end, parent=NO_PARENT):
    return Span(name, start, end, parent, None)


# root [0, 10] holds a [1, 5] (which holds b [2, 3]) and c [6, 8].
TREE = [
    span("root", 0.0, 10.0),
    span("a", 1.0, 5.0, 0),
    span("b", 2.0, 3.0, 1),
    span("c", 6.0, 8.0, 0),
]


def test_self_time_subtracts_direct_children_only():
    stats = summarize(TREE)
    assert stats["root"].self_s == pytest.approx(10 - 4 - 2)
    assert stats["a"].self_s == pytest.approx(4 - 1)
    assert stats["b"].self_s == pytest.approx(1)
    assert stats["c"].self_s == pytest.approx(2)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10)


def test_self_time_sums_calls_of_one_name():
    spans = [span("root", 0.0, 10.0), span("x", 1.0, 2.0, 0), span("x", 3.0, 6.0, 0), span("y", 4.0, 5.0, 2)]
    stats = summarize(spans)
    assert stats["x"].calls == 2
    assert stats["x"].total_s == pytest.approx(4)
    assert stats["x"].self_s == pytest.approx(3)


def test_masked_span_still_counts_as_a_child():
    keep = [not f for f in inside(TREE, "a")]
    assert keep == [True, True, False, True]
    stats = summarize(TREE, keep=keep)
    assert "b" not in stats
    assert stats["a"].self_s == pytest.approx(3)


def test_hit_ratio_counts_calls_without_the_miss_child():
    spans = [
        span("lookup", 0.0, 3.0),
        span("compute", 1.0, 2.0, 0),
        span("lookup", 4.0, 4.5),
        span("lookup", 5.0, 5.5),
    ]
    assert hit_ratio(spans, "lookup", "compute") == pytest.approx(2 / 3)
    assert hit_ratio(spans, "absent", "compute") == 0.0


def test_example_time_adds_the_following_backward_once():
    spans = [
        span("backward", 0.0, 0.5),  # before any forward: an NLI-head step
        span("fwd", 1.0, 2.0),
        span("backward", 2.0, 2.5),
        span("backward", 3.0, 3.5),  # second backward belongs to no example
        span("fwd", 4.0, 4.25),
    ]
    assert example_times(spans, "fwd", "backward") == pytest.approx([1.5, 0.25])


def test_tracer_nests_spans_where_functions_are_looked_up_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original_inner, original_outer = ns.inner, ns.outer
    tracer = Tracer()
    seen = []
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer", example_of=lambda args: f"ex{args[0]}", after=lambda a, r: seen.append(r))
    assert ns.outer(3) == 8
    assert seen == [8]
    names = [(s.name, s.parent, s.example) for s in tracer.spans]
    assert names == [("outer", NO_PARENT, "ex3"), ("inner", 0, "ex3")]
    assert all(s.end >= s.start for s in tracer.spans)
    tracer.uninstall()
    assert ns.inner is original_inner and ns.outer is original_outer


# ----------------------------------------------------------- comparison rule


def pairs(parent, change):
    return list(zip(parent, change))


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_parent_iqr():
    change = [v * 1.05 for v in BASE]
    v = verdict(pairs(BASE, change), "higher", 0.1)
    assert (v.label, v.wins, v.pairs) == ("gain", 10, 10)
    assert v.change_pct == pytest.approx(5.0, rel=1e-3)


def test_eight_wins_of_ten_is_no_gain():
    change = [v * 1.05 for v in BASE]
    change[0] = change[1] = 90.0
    assert verdict(pairs(BASE, change), "higher", 0.1).label == "same"


def test_gap_inside_parent_iqr_is_no_gain():
    parent = [90.0, 110.0] * 5
    change = [v + 1.0 for v in parent]
    v = verdict(pairs(parent, change), "higher", 0.25)
    assert v.wins == 10
    assert v.label == "same"


def test_lower_is_better_direction():
    change = [v * 0.9 for v in BASE]
    assert verdict(pairs(BASE, change), "lower", 0.1).label == "gain"
    assert verdict(pairs(BASE, change), "higher", 0.05).label == "regression"


def test_regression_beyond_bound():
    change = [v * 0.85 for v in BASE]
    v = verdict(pairs(BASE, change), "higher", 0.1)
    assert v.label == "regression"
    assert v.change_pct == pytest.approx(-15.0, rel=1e-3)


def test_worse_within_bound_is_same():
    change = [v * 0.97 for v in BASE]
    assert verdict(pairs(BASE, change), "higher", 0.1).label == "same"


def test_spread_wider_than_bound_is_unresolved():
    parent = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 100.0, 100.0, 85.0, 115.0]
    change = list(reversed(parent))
    assert verdict(pairs(parent, change), "higher", 0.1).label == "unresolved"


def test_wide_spread_but_every_change_run_better():
    parent = [10.0 * i for i in range(1, 11)]
    change = [100.0 + i for i in range(1, 11)]
    v = verdict(pairs(parent, change), "higher", 0.1)
    assert v.wins == 10
    assert v.label == "better"  # the gap is inside the parent's IQR, so not a gain
    # With nine pairs there is no claim either way.
    assert verdict(pairs(parent[:9], change[:9]), "higher", 0.1).label == "too-few-pairs"


def test_pairs_form_from_back_to_back_runs_of_both_sides():
    sides = ["parent", "change", "change", "parent", "parent", "parent", "change"]
    runs = [Run(s, "w", float(i), {}, 1, 30.0) for i, s in enumerate(sides)]
    got = [(p.started, c.started) for p, c in pair_runs(runs)]
    assert got == [(0.0, 1.0), (3.0, 2.0), (5.0, 6.0)]


def test_pair_of_runs_with_different_seed_or_seconds_is_an_error():
    base = [Run("parent", "w", 0.0, {}, 1, 30.0)]
    assert len(pair_runs(base + [Run("change", "w", 1.0, {}, 1, 30.0)])) == 1
    with pytest.raises(ValueError, match="seed or seconds"):
        pair_runs(base + [Run("change", "w", 1.0, {}, 2, 30.0)])
    with pytest.raises(ValueError, match="seed or seconds"):
        pair_runs(base + [Run("change", "w", 1.0, {}, 1, 20.0)])


def test_speed_probe_measures_on_request_and_ends_on_close():
    from run import SpeedProbe

    speed = SpeedProbe()
    try:
        times = [speed.measure(), speed.measure()]
    finally:
        speed.close()
    assert all(t > 0 for t in times)
    assert speed.proc.returncode == 0
