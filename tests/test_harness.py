"""Tests for the evaluation harness."""

import pytest

from repro.evaluation.harness import Timer, evaluate_method, format_table
from repro.evaluation.judges import JudgePanel


@pytest.fixture()
def panel(workload):
    return JudgePanel(workload.dataset, seed=5)


def perfect_recommender(dataset):
    """Recommends near-duplicates and same-topic videos first."""

    def recommend(query_id, top_k):
        ranked = sorted(
            (v for v in dataset.records if v != query_id),
            key=lambda v: (-dataset.relevance_grade(query_id, v), v),
        )
        return ranked[:top_k]

    return recommend


def hostile_recommender(dataset):
    """Recommends unrelated videos first."""

    def recommend(query_id, top_k):
        ranked = sorted(
            (v for v in dataset.records if v != query_id),
            key=lambda v: (dataset.relevance_grade(query_id, v), v),
        )
        return ranked[:top_k]

    return recommend


class TestEvaluateMethod:
    def test_rows_for_each_cutoff(self, workload, panel):
        report = evaluate_method(
            "perfect", perfect_recommender(workload.dataset), workload.sources, panel
        )
        assert {row.top_k for row in report.rows} == {5, 10, 20}
        assert report.row(5).method == "perfect"
        with pytest.raises(KeyError):
            report.row(7)

    def test_perfect_beats_hostile(self, workload, panel):
        good = evaluate_method(
            "good", perfect_recommender(workload.dataset), workload.sources, panel
        )
        bad = evaluate_method(
            "bad", hostile_recommender(workload.dataset), workload.sources, panel
        )
        for top_k in (5, 10, 20):
            assert good.row(top_k).ar > bad.row(top_k).ar
            assert good.row(top_k).map >= bad.row(top_k).map

    def test_query_excluded_from_own_list(self, workload, panel):
        seen_lists = {}

        def mixed(query_id, top_k):
            others = [v for v in sorted(workload.dataset.records) if v != query_id]
            result = [query_id, *others][:top_k]
            seen_lists[query_id] = result
            return result

        source = workload.sources[0]
        evaluate_method("mixed", mixed, [source], panel, top_ks=(5,))
        # The harness asked for one extra result to compensate for dropping
        # the query itself from the list it scores.
        assert source in seen_lists[source]
        assert len(seen_lists[source]) == 6

    def test_empty_sources_rejected(self, workload, panel):
        with pytest.raises(ValueError, match="at least one source"):
            evaluate_method("x", lambda q, k: [], [], panel)

    def test_timing_recorded(self, workload, panel):
        report = evaluate_method(
            "timed", perfect_recommender(workload.dataset), workload.sources[:2], panel
        )
        assert report.seconds >= 0.0


class TestFormatTable:
    def test_contains_methods_and_headers(self, workload, panel):
        report = evaluate_method(
            "mymethod", perfect_recommender(workload.dataset), workload.sources[:2], panel
        )
        table = format_table([report])
        assert "mymethod" in table
        assert "AR@5" in table
        assert "MAP@20" in table


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            sum(range(100_000))
        assert timer.seconds > 0.0


class TestObservability:
    def test_queries_recorded_into_registry(self, workload, panel):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        sources = workload.sources[:3]
        evaluate_method(
            "perfect",
            perfect_recommender(workload.dataset),
            sources,
            panel,
            registry=registry,
        )
        assert registry.value("repro_harness_queries_total") == len(sources)
        histogram = registry.snapshot()["histograms"]["repro_harness_query_seconds"]
        assert histogram["count"] == len(sources)

    def test_uses_process_registry_by_default(self, workload, panel):
        from repro.obs import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            evaluate_method(
                "perfect",
                perfect_recommender(workload.dataset),
                workload.sources[:2],
                panel,
            )
        assert registry.value("repro_harness_queries_total") == 2
