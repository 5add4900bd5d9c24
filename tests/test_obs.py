"""Tests for the observability subsystem: metrics, traces, determinism."""

import json
import pathlib

import pytest

from repro.community import CommunityConfig, generate_community
from repro.core import (
    FusionRecommender,
    LiveCommunityIndex,
    RecommenderConfig,
)
from repro.defense import init_defense_metrics
from repro.obs import (
    NULL_TRACE,
    MetricsRegistry,
    QueryTrace,
    get_metrics,
    parse_prometheus,
    percentiles,
    render_prometheus,
    set_metrics,
    use_metrics,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics.prom"


class FakeClock:
    """Deterministic clock: every read advances by a fixed step."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def golden_scenario() -> MetricsRegistry:
    """The fixed recording sequence behind the golden exposition file."""
    registry = MetricsRegistry(clock=FakeClock(0.001))
    registry.inc("repro_queries_total", engine="batch")
    registry.inc("repro_queries_total", 2, engine="batch")
    registry.inc("repro_queries_total", engine="scalar")
    registry.inc("repro_wal_bytes_total", 512)
    registry.set_gauge("repro_index_videos", 24)
    registry.set_gauge("repro_social_available", 1)
    for value in (0.0002, 0.004, 0.004, 0.07, 3.0):
        registry.observe("repro_query_seconds", value)
    with registry.time("repro_stage_seconds", stage="content_scores"):
        pass
    # The defense family: zero-registered so an idle deployment still
    # exposes every series, then a few mechanisms fire.
    init_defense_metrics(registry)
    registry.inc("repro_defense_coalesce_leaders_total")
    registry.inc("repro_defense_coalesced_followers_total", 3)
    registry.inc("repro_defense_quarantined_comments_total", 2)
    registry.set_gauge("repro_defense_suspect_users", 1)
    return registry


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("hits_total")
        registry.inc("hits_total", 4)
        assert registry.value("hits_total") == 5

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.inc("queries_total", engine="batch")
        registry.inc("queries_total", engine="scalar")
        registry.inc("queries_total", engine="batch")
        assert registry.value("queries_total", engine="batch") == 2
        assert registry.value("queries_total", engine="scalar") == 1
        assert registry.value("queries_total", engine="missing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="counter"):
            MetricsRegistry().inc("x_total", -1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("videos", 10)
        registry.set_gauge("videos", 7)
        assert registry.value("videos") == 7

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            registry.observe("lat", value)
        data = registry.snapshot()["histograms"]["lat"]
        assert data["buckets"] == {"0.01": 2, "0.1": 3, "1": 4, "+Inf": 5}
        assert data["count"] == 5
        assert data["sum"] == pytest.approx(5.56)

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a_total")
        registry.set_gauge("b", 1)
        registry.observe("c", 0.5)
        with registry.time("d"):
            pass
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_time_uses_injected_clock(self):
        registry = MetricsRegistry(clock=FakeClock(0.002))
        with registry.time("op_seconds"):
            pass
        data = registry.snapshot()["histograms"]["op_seconds"]
        assert data["sum"] == pytest.approx(0.002)
        assert data["buckets"]["0.0025"] == 1
        assert data["buckets"]["0.001"] == 0

    def test_reset_clears_series(self):
        registry = golden_scenario()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_global_registry_swap_and_scope(self):
        original = get_metrics()
        replacement = MetricsRegistry()
        with use_metrics(replacement) as active:
            assert get_metrics() is replacement is active
        assert get_metrics() is original
        previous = set_metrics(replacement)
        assert previous is original
        set_metrics(original)


class TestExposition:
    def test_round_trip_exactly(self):
        registry = golden_scenario()
        snapshot = registry.snapshot()
        assert parse_prometheus(registry.to_prometheus()) == snapshot

    def test_round_trip_survives_awkward_label_values(self):
        registry = MetricsRegistry()
        registry.inc("odd_total", stage='quo"te', note="a,b=c")
        snapshot = registry.snapshot()
        assert parse_prometheus(render_prometheus(snapshot)) == snapshot

    def test_golden_file(self):
        # The exposition of a fixed scenario under an injected clock is
        # byte-stable; regenerate with
        # `python -c "from tests.test_obs import golden_scenario; ..."`
        # only when the format deliberately changes.
        assert golden_scenario().to_prometheus() == GOLDEN.read_text()

    def test_snapshot_is_json_ready(self):
        snapshot = golden_scenario().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
        assert parse_prometheus("") == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        result = percentiles(values, (50.0, 90.0, 99.0))
        assert result == {"p50": 50.0, "p90": 90.0, "p99": 99.0}

    def test_empty_is_zero(self):
        assert percentiles([], (50.0,)) == {"p50": 0.0}


class TestQueryTrace:
    def test_nesting_and_aggregation(self):
        trace = QueryTrace("root", clock=FakeClock(0.001))
        with trace:
            for _ in range(3):
                with trace.span("outer"):
                    with trace.span("inner"):
                        pass
        outer = trace.root.children["outer"]
        assert outer.count == 3
        assert list(outer.children) == ["inner"]
        assert outer.children["inner"].count == 3
        # Each outer entry reads the clock 4x (outer in/out + inner in/out).
        assert outer.seconds == pytest.approx(3 * 0.003)
        assert trace.total_seconds >= outer.seconds

    def test_stage_seconds_view(self):
        trace = QueryTrace(clock=FakeClock(0.001))
        with trace, trace.span("a"):
            pass
        assert set(trace.stage_seconds()) == {"a"}

    def test_format_tree_lists_stages_with_shares(self):
        trace = QueryTrace("recommend", clock=FakeClock(0.001))
        with trace:
            with trace.span("content_scores"):
                pass
        text = trace.format_tree()
        assert text.splitlines()[0].startswith("recommend")
        assert "content_scores" in text
        assert "%" in text and "ms" in text

    def test_as_dict_round_trips_json(self):
        trace = QueryTrace(clock=FakeClock(0.001))
        with trace, trace.span("a"):
            pass
        assert json.loads(json.dumps(trace.as_dict()))["name"] == "recommend"

    def test_null_trace_is_inert(self):
        with NULL_TRACE, NULL_TRACE.span("anything"):
            pass  # no state, no clock reads, no error


@pytest.fixture(scope="module")
def dataset():
    return generate_community(CommunityConfig(hours=2.0, seed=21))


def _instrumented_run(dataset, registry):
    """A fixed serve+ingest workload recorded into *registry*."""
    with use_metrics(registry):
        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        rec = FusionRecommender(live, omega=0.7, social_mode="sar-h")
        for query in live.video_ids[:3]:
            rec.recommend(query, 5)
        live.apply_comments(
            [(c.user_id, c.video_id) for c in dataset.comments[:20]],
            incremental=True,
        )
        live.retire_video(live.video_ids[-1])
        FusionRecommender(live, omega=0.0).recommend(live.video_ids[0], 5)
    return registry


class TestDeterminism:
    def test_identical_seeded_runs_identical_snapshots(self, dataset):
        first = _instrumented_run(dataset, MetricsRegistry(clock=FakeClock()))
        second = _instrumented_run(dataset, MetricsRegistry(clock=FakeClock()))
        assert first.snapshot() == second.snapshot()
        assert first.to_prometheus() == second.to_prometheus()

    def test_counters_reflect_workload(self, dataset):
        registry = _instrumented_run(dataset, MetricsRegistry(clock=FakeClock()))
        assert registry.value("repro_queries_total", engine="batch") == 4
        assert registry.value("repro_retire_total") == 1
        assert registry.value("repro_comment_batches_total") == 1
        assert registry.value("repro_comment_pairs_total") == 20
        assert registry.value("repro_social_maintenance_batches_total") >= 1
        snapshot = registry.snapshot()
        assert "repro_query_seconds" in snapshot["histograms"]
        assert snapshot["histograms"]["repro_query_seconds"]["count"] == 4

    def test_histogram_buckets_stable_under_injected_clock(self, dataset):
        registry = _instrumented_run(dataset, MetricsRegistry(clock=FakeClock()))
        data = registry.snapshot()["histograms"]["repro_query_seconds"]
        # Every fake-clocked query lasts a deterministic number of steps,
        # so the whole distribution lands in exact buckets.
        assert data["buckets"]["+Inf"] == data["count"] == 4
        assert data["sum"] == pytest.approx(
            _instrumented_run(dataset, MetricsRegistry(clock=FakeClock()))
            .snapshot()["histograms"]["repro_query_seconds"]["sum"]
        )


class TestRecommendTracing:
    def test_stage_durations_sum_close_to_total(self, dataset):
        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        rec = FusionRecommender(live, omega=0.7, social_mode="sar-h")
        best = 0.0
        for _ in range(3):  # retry headroom for loaded CI machines
            trace = QueryTrace("recommend")
            rec.recommend(live.video_ids[0], 5, trace=trace)
            covered = sum(node.seconds for node in trace.root.children.values())
            best = max(best, covered / trace.total_seconds)
            if best >= 0.9:
                break
        assert best >= 0.9
        assert best <= 1.0 + 1e-9

    def test_trace_covers_the_expected_stages(self, dataset):
        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        trace = QueryTrace("recommend")
        rec = FusionRecommender(live, omega=0.7, social_mode="sar-h")
        rec.recommend(live.video_ids[0], 5, trace=trace)
        assert set(trace.stage_seconds()) == {
            "candidates",
            "content_scores",
            "social_scores",
            "fuse_topk",
        }

    def test_degraded_query_skips_social_stage(self, dataset):
        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        live.social_store.mark_unavailable("blip")
        trace = QueryTrace("recommend")
        results = FusionRecommender(live, omega=0.7).recommend(
            live.video_ids[0], 5, trace=trace
        )
        assert results.degraded
        assert "social_scores" not in trace.stage_seconds()

    def test_budgeted_scan_aggregates_chunks_into_one_stage_node(self, dataset):
        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        trace = QueryTrace("recommend")
        rec = FusionRecommender(
            live, omega=0.7, social_mode="sar-h", time_budget=120.0
        )
        rec.recommend(live.video_ids[0], 5, trace=trace)
        content = trace.root.children["content_scores"]
        assert content.count >= 1  # one aggregated node, however many chunks
        assert set(trace.stage_seconds()) >= {"content_scores", "social_scores"}
