"""Tests for degraded-mode serving: social outages, staleness, time budgets."""

import pytest

from repro.community import CommunityConfig, generate_community
from repro.core import (
    FusionRecommender,
    LiveCommunityIndex,
    Recommendations,
    RecommenderConfig,
    social_recommender,
)
from repro.errors import SocialStoreUnavailableError


@pytest.fixture(scope="module")
def dataset():
    return generate_community(CommunityConfig(hours=2.0, seed=33))


@pytest.fixture()
def live(dataset):
    return LiveCommunityIndex(dataset, RecommenderConfig(k=8))


@pytest.fixture()
def query(live):
    return live.video_ids[0]


class TestSocialOutage:
    def test_healthy_serving_is_not_flagged(self, live, query):
        results = FusionRecommender(live, omega=0.7).recommend(query, 8)
        assert isinstance(results, Recommendations)
        assert not results.degraded and not results.partial
        assert results.reasons == ()
        assert results.scored == results.total == len(live.video_ids) - 1

    def test_outage_serves_content_only(self, live, query):
        content_only = FusionRecommender(live, omega=0.0).recommend(query, 8)
        live.social_store.mark_unavailable("uig shard lost")
        degraded = FusionRecommender(live, omega=0.7, social_mode="sar-h").recommend(
            query, 8
        )
        assert degraded.degraded
        assert "uig shard lost" in degraded.reasons[0]
        assert list(degraded) == list(content_only)

    def test_outage_degrades_pure_social_too(self, live, query):
        live.social_store.mark_unavailable()
        results = social_recommender(live).recommend(query, 8)
        assert results.degraded
        assert len(results) == 8

    def test_component_scores_still_raises(self, live, query):
        live.social_store.mark_unavailable("maintenance")
        recommender = FusionRecommender(live, omega=0.7)
        with pytest.raises(SocialStoreUnavailableError, match="maintenance"):
            recommender.component_scores(query)

    def test_store_guards_mutations_when_unavailable(self, live, query):
        live.social_store.mark_unavailable()
        with pytest.raises(SocialStoreUnavailableError):
            live.social_store.apply_comments([("user", query)])

    def test_recovery_restores_full_service(self, live, query):
        recommender = FusionRecommender(live, omega=0.7, social_mode="sar-h")
        healthy = recommender.recommend(query, 8)
        live.social_store.mark_unavailable("blip")
        assert recommender.recommend(query, 8).degraded
        live.social_store.mark_available()
        restored = recommender.recommend(query, 8)
        assert not restored.degraded
        assert list(restored) == list(healthy)

    def test_content_only_recommender_ignores_outage(self, live, query):
        live.social_store.mark_unavailable()
        results = FusionRecommender(live, omega=0.0).recommend(query, 8)
        assert not results.degraded


class TestStaleness:
    def test_within_bound_serves_fused(self, live, query):
        live.social_store.record_skipped_mutations(2)
        results = FusionRecommender(
            live, omega=0.7, max_social_staleness=5
        ).recommend(query, 8)
        assert not results.degraded

    def test_beyond_bound_degrades(self, live, query):
        live.social_store.record_skipped_mutations(6)
        content_only = FusionRecommender(live, omega=0.0).recommend(query, 8)
        results = FusionRecommender(
            live, omega=0.7, max_social_staleness=5
        ).recommend(query, 8)
        assert results.degraded
        assert "stale" in results.reasons[0]
        assert list(results) == list(content_only)

    def test_no_bound_never_degrades_on_staleness(self, live, query):
        live.social_store.record_skipped_mutations(1000)
        results = FusionRecommender(live, omega=0.7).recommend(query, 8)
        assert not results.degraded

    def test_bound_from_config(self, dataset, query):
        live = LiveCommunityIndex(
            dataset, RecommenderConfig(k=8, max_social_staleness=0)
        )
        live.social_store.record_skipped_mutations(1)
        assert FusionRecommender(live, omega=0.7).recommend(query, 8).degraded

    def test_negative_bound_rejected(self, live):
        with pytest.raises(ValueError, match="max_social_staleness"):
            FusionRecommender(live, max_social_staleness=-1)
        with pytest.raises(ValueError, match="max_social_staleness"):
            RecommenderConfig(max_social_staleness=-1)


class TestTimeBudget:
    @pytest.mark.parametrize("social_mode", ["sar", "sar-h", "sketch"])
    @pytest.mark.parametrize("omega", [0.0, 0.6, 1.0])
    def test_generous_budget_matches_unbudgeted(self, live, social_mode, omega):
        # The chunked id-addressed scan a budget selects must rank exactly
        # like the pruned scan that serves unbudgeted queries.
        unbudgeted_rec = FusionRecommender(live, omega=omega, social_mode=social_mode)
        for query in live.video_ids[::6]:
            unbudgeted = unbudgeted_rec.recommend(query, 8)
            for engine in ("batch", "scalar"):
                budgeted = FusionRecommender(
                    live,
                    omega=omega,
                    social_mode=social_mode,
                    engine=engine,
                    time_budget=120.0,
                ).recommend(query, 8)
                assert list(budgeted) == list(unbudgeted)
                # The scalar engine is float64, so it meets the float32
                # scan at the kernel's relative tolerance.
                rel = 1e-5 if engine == "scalar" else None
                assert budgeted.scores == pytest.approx(
                    unbudgeted.scores, rel=rel, abs=1e-6
                )
                assert not budgeted.partial

    def test_tiny_budget_returns_flagged_partial_prefix(self, dataset):
        # > one scoring chunk of candidates, so the deadline can cut the scan.
        big = generate_community(CommunityConfig(hours=4.0, seed=11))
        live = LiveCommunityIndex(big, RecommenderConfig(k=8))
        query = live.video_ids[0]
        results = FusionRecommender(
            live, omega=0.7, social_mode="sar-h", time_budget=1e-9
        ).recommend(query, 4)
        assert results.partial and results.degraded
        assert 1 <= results.scored < results.total
        assert "time budget" in results.reasons[-1]
        assert len(results) == 4  # still a usable ranking

    def test_budget_from_config(self, dataset, query):
        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8, time_budget=120.0))
        results = FusionRecommender(live, omega=0.7).recommend(query, 8)
        assert not results.partial
        assert results.scored == results.total

    def test_non_positive_budget_rejected(self, live):
        with pytest.raises(ValueError, match="time_budget"):
            FusionRecommender(live, time_budget=0.0)
        with pytest.raises(ValueError, match="time_budget"):
            RecommenderConfig(time_budget=-1.0)


class TestRecommendationsType:
    def test_compares_equal_to_plain_list(self, live, query):
        results = FusionRecommender(live, omega=0.7).recommend(query, 5)
        assert results == list(results)
        assert isinstance(results, list)

    def test_carries_flags(self):
        results = Recommendations(
            ["a", "b"], degraded=True, partial=True, reasons=["why"], scored=2, total=9
        )
        assert results == ["a", "b"]
        assert results.degraded and results.partial
        assert results.reasons == ("why",)
        assert (results.scored, results.total) == (2, 9)


class TestSlicing:
    """Slices and copies must not silently drop serving metadata."""

    def test_degraded_slice_keeps_flags_and_reasons(self, live, query):
        live.social_store.mark_unavailable("uig shard lost")
        results = FusionRecommender(live, omega=0.7).recommend(query, 8)
        top = results[:5]
        assert isinstance(top, Recommendations)
        assert top == list(results)[:5]
        assert top.degraded is True
        assert top.reasons == results.reasons
        assert "uig shard lost" in top.reasons[0]
        assert (top.scored, top.total) == (results.scored, results.total)

    def test_partial_slice_keeps_flags(self):
        big = generate_community(CommunityConfig(hours=4.0, seed=11))
        live = LiveCommunityIndex(big, RecommenderConfig(k=8))
        results = FusionRecommender(
            live, omega=0.7, social_mode="sar-h", time_budget=1e-9
        ).recommend(live.video_ids[0], 5)
        assert results.partial
        sliced = results[:3]
        assert sliced.partial is True
        assert sliced.scored == results.scored

    def test_every_slice_shape_preserves_metadata(self):
        results = Recommendations(
            list("abcdef"), degraded=True, partial=True,
            reasons=["why"], scored=4, total=9,
        )
        for sliced in (results[1:4], results[::2], results[::-1], results[:]):
            assert isinstance(sliced, Recommendations)
            assert sliced.degraded and sliced.partial
            assert sliced.reasons == ("why",)
            assert (sliced.scored, sliced.total) == (4, 9)

    def test_copy_preserves_metadata_and_detaches(self):
        results = Recommendations(["a", "b"], degraded=True, reasons=["r"], total=5)
        duplicate = results.copy()
        assert isinstance(duplicate, Recommendations)
        assert duplicate == results
        assert duplicate.degraded and duplicate.reasons == ("r",)
        duplicate.append("c")
        assert results == ["a", "b"]

    def test_integer_index_returns_plain_item(self, live, query):
        results = FusionRecommender(live, omega=0.7).recommend(query, 5)
        assert isinstance(results[0], str)
        assert results[0] == list(results)[0]
