"""Tests of the benchmark's own code, on a rank <= 2 sweep that runs in well
under a second."""

import gzip
import json

import pytest

import bench
import layer_trace

TINY_ARGV = ["sweep", "--max-rank", "2", "--max-total-degree", "1", "--format", "csv"]


@pytest.fixture(scope="module")
def tiny() -> dict:
    """A one-invocation workload whose reference is taken from a first run."""
    ref = bench.run_invocation(TINY_ARGV, bench.child_env(0))
    assert ref.exit_code == 0
    return {"invocations": [{"argv": TINY_ARGV, "cases": 14, "exit": 0, "sha256": ref.sha256}]}


def metric_names(key: str) -> set[str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[key]}


def test_self_time_on_synthetic_nested_trace():
    spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 3.0, 0, 1],
        ["e", 1.5, 2.5, 1, 1],
        ["c", 2.0, 5.0, 0, 1],  # overlaps b: their union [1, 5] counts once
        ["a", 6.0, 7.0, 0, 1],  # nested under a span of the same name
    ]
    stats = layer_trace.span_stats(spans)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == pytest.approx((10 - 4 - 1) + 1)
    assert stats["a"]["outer"] == [10.0]
    assert stats["b"]["self_s"] == pytest.approx(1.0)
    assert stats["c"]["self_s"] == pytest.approx(3.0)
    assert stats["e"]["self_s"] == pytest.approx(1.0)


def test_percentile_nearest_rank():
    assert layer_trace.percentile([], 0.5) == 0.0
    assert layer_trace.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert layer_trace.percentile(list(range(1, 101)), 0.99) == 99


def test_tampered_digest_counts_as_failed(tiny):
    good = bench.run_timed(tiny, seed=1, seconds=0)
    assert good["failed"] == 0 and good["attempted"] == 14

    bad_inv = dict(tiny["invocations"][0], sha256="0" * 64)
    bad = bench.run_timed({"invocations": [bad_inv]}, seed=1, seconds=0)
    assert bad["failed"] / bad["attempted"] == 1.0
    assert json.loads(bench.result_line(bad))["correct"] is False


def test_every_end_to_end_metric_is_reported(tiny):
    line = json.loads(bench.result_line(bench.run_timed(tiny, seed=2, seconds=0)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == metric_names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_every_per_layer_metric_is_reported_and_wrappers_are_removed(tiny, tmp_path):
    import canstrip.cli
    import canstrip.ratpoly

    mul, expand = canstrip.ratpoly.RatPoly.__mul__, canstrip.cli.expand
    trace_path = tmp_path / "trace.tsv.gz"
    result = bench.run_traced(tiny, seed=3, trace_path=trace_path)
    assert result["failed"] == 0 and result["attempted"] == 28
    assert set(result["metrics"]) == metric_names("per_layer")
    m = {k: v for k, (v, _) in result["metrics"].items()}
    assert m["cli.sweep.cases"] == 14
    assert m["root_system.marked.calls"] > m["root_system.marked.distinct"] > 0
    assert m["root_system.mark.cache_hits"] > 0
    assert m["ratpoly.mul.calls"] > 0 and m["hilbert.hilbert_gp.calls"] == 14
    assert canstrip.ratpoly.RatPoly.__mul__ is mul and canstrip.cli.expand is expand
    with gzip.open(trace_path, "rt") as fh:
        assert fh.readline().startswith("id\tname\tstart")
        assert sum(1 for _ in fh) > m["ratpoly.mul.calls"]
