"""Unit tests of the benchmark's own arithmetic and tracer.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from stats import Tally, fail_frac, quartiles  # noqa: E402
from tracing import Tracer, is_count, metric_names, self_times  # noqa: E402


# -- self time -------------------------------------------------------------

def test_self_time_of_nested_spans():
    # a(0..10) > b(2..8) > c(3..5)
    spans = [(0.0, 10.0, -1), (2.0, 8.0, 0), (3.0, 5.0, 1)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_self_time_of_siblings():
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 5.0])


def test_zero_length_spans_take_no_time():
    spans = [(0.0, 4.0, -1), (1.0, 1.0, 0), (2.0, 2.0, -1)]
    assert self_times(spans) == pytest.approx([4.0, 0.0, 0.0])


def test_overlapping_children_are_subtracted_once():
    # b and c overlap on 3..4, and c runs past its parent's end
    spans = [(0.0, 6.0, -1), (2.0, 4.0, 0), (3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_times_sum_to_root_duration():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.5, 0),
             (6.0, 6.0, 3)]
    assert sum(self_times(spans)) == pytest.approx(10.0)


# -- summary statistics ----------------------------------------------------

def test_quartiles_match_statistics_module():
    values = [4.4, 4.1, 5.0, 4.2, 4.6, 4.3]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    # the middle quartile is the median the benchmark reports
    assert q2 == pytest.approx(statistics.median(values)) == pytest.approx(4.35)


def test_quartiles_of_one_value():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_quartiles_of_nothing_are_rejected():
    with pytest.raises(ValueError):
        quartiles([])


# -- failure counting ------------------------------------------------------

def test_fail_frac():
    assert fail_frac(0, 12) == 0.0
    assert fail_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        fail_frac(0, 0)
    with pytest.raises(ValueError):
        fail_frac(5, 4)


def test_tally_counts_false_and_raised_as_failed():
    tally = Tally()
    tally.check("ok", lambda: True)
    tally.check("wrong", lambda: False)
    tally.check("raised", lambda: 1 / 0)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failures[0].startswith("wrong:")
    assert "ZeroDivisionError" in tally.failures[1]
    assert fail_frac(tally.failed, tally.attempted) == pytest.approx(2 / 3)


# -- tracer ----------------------------------------------------------------

def test_tracer_records_layers_and_restores_originals():
    import idlab
    import idlab.measures as measures

    original = measures.GaussianDistribution.sample
    original_fn = measures.sample
    dist = idlab.GaussianDistribution([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
    tracer = Tracer()
    tracer.install()
    try:
        assert measures.GaussianDistribution.sample is not original
        z = idlab.sample(dist, idlab.stream(1, 0), 50)
        dist.conditional_quantile(1, z[:10, :1], [0.5] * 10)
    finally:
        tracer.uninstall()
    assert measures.GaussianDistribution.sample is original
    assert measures.sample is original_fn and idlab.sample is original_fn

    m = tracer.metrics()
    # the module function and the method it calls share one span name, so
    # rows are counted once, at the outer call
    assert m["measures.sample.rows"] == 50
    assert m["measures.quantile.rows"] == 10
    assert m["measures.cdf_per_quantile_row"] > 1
    assert m["rng.streams"] == 1
    assert m["measures.self_s"] > 0
    assert set(m) | {"trace.overhead_frac"} == set(metric_names())


def test_count_metrics():
    assert is_count("envs.rows_for.calls")
    assert is_count("measures.density.bytes")
    assert is_count("rng.streams")
    assert not is_count("measures.cdf.self_s")
    assert not is_count("experiments.strong-vae.s")
