"""Parity and bound tests for the sub-millisecond fused-scan hot path.

The serving scan (float32 packed signature banks, segment-CDF pruning
bounds, position-addressed kernels, the gateway's epoch-keyed query
memo) must return the *same top-k ids* as the float64 unpruned oracle —
every candidate's :meth:`FusionRecommender.component_scores`, fused and
ranked by :func:`rank_components_scored` — bit-identical ranking,
scores within float32 tolerance.  DESIGN §12 states the contracts; this
file pins them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.community import build_workload
from repro.community.models import CommunityDataset
from repro.core import CommunityIndex, LiveCommunityIndex, RecommenderConfig
from repro.core.knn import KTopScoreVideoSearch
from repro.core.recommender import FusionRecommender, rank_components_scored
from repro.core.stores import ContentStore, SocialStore
from repro.emd.one_dim import emd_1d, pack_emd_keys
from repro.measures.content import kappa_j
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serving import GatewayConfig, ServingGateway
from repro.signatures.cuboid import CuboidSignature
from repro.signatures.series import SignatureSeries
from repro.social.descriptor import SocialDescriptor

TOP_K = 8


def build_synthetic_index(
    num_videos: int = 72, seed: int = 11, duplicates: int = 3
) -> CommunityIndex:
    """A compact content+social index with deliberate exact ties.

    The last *duplicates* videos are byte-for-byte clones of the first
    ones (same signatures, same fans), so their fused scores tie exactly
    and the ranking exercises the id tie-break at pruning boundaries.
    """
    rng = np.random.default_rng(seed)
    config = RecommenderConfig(k=12)
    content = ContentStore(config, build_lsb=False, build_global_features=False)
    num_users = 60
    users = [f"u{j:04d}" for j in range(num_users)]
    descriptors = {}
    series_by_vid = {}
    for i in range(num_videos):
        vid = f"v{i:05d}"
        if i >= num_videos - duplicates:
            clone_of = f"v{i - (num_videos - duplicates):05d}"
            series = SignatureSeries(
                video_id=vid, signatures=series_by_vid[clone_of].signatures
            )
            fans = descriptors[clone_of].users
            descriptors[vid] = SocialDescriptor.from_users(vid, fans)
        else:
            sigs = []
            for _ in range(int(rng.integers(2, 7))):
                ncub = int(rng.integers(3, 16))
                sigs.append(
                    CuboidSignature(
                        values=rng.normal(0.0, 6.0, ncub),
                        weights=rng.random(ncub) + 0.05,
                    )
                )
            series = SignatureSeries(video_id=vid, signatures=tuple(sigs))
            fans = [users[f] for f in rng.choice(num_users, size=4, replace=False)]
            descriptors[vid] = SocialDescriptor.from_users(vid, fans)
        series_by_vid[vid] = series
        content.add_series(vid, series)
    social = SocialStore(descriptors, k=config.k)
    dataset = CommunityDataset(records={}, users={}, comments=[], topics=())
    return CommunityIndex._from_parts(dataset, config, content, social)


@pytest.fixture(scope="module")
def index():
    idx = build_synthetic_index()
    idx.sar_matrix("sar")
    idx.sar_matrix("sar-h")
    idx.signature_bank().fast_pack()
    return idx


@pytest.fixture(scope="module")
def queries(index):
    return list(index.video_ids[::9][:8])


def _recommender(index, omega, social_mode, content_measure):
    return FusionRecommender(
        index,
        omega=omega,
        social_mode=social_mode,
        content_measure=content_measure,
        engine="batch",
    )


def _rankings(index, queries, omega, social_mode, content_measure):
    rec = _recommender(index, omega, social_mode, content_measure)
    out = []
    for q in queries:
        ranked = rec.recommend(q, TOP_K)
        out.append((list(ranked), list(ranked.scores)))
    return out


def _oracle(index, queries, omega, social_mode, content_measure):
    """``(ids, scores)`` per query from the float64 unpruned arithmetic."""
    rec = _recommender(index, omega, social_mode, content_measure)
    return [
        rank_components_scored(rec.component_scores(q), omega, TOP_K)
        for q in queries
    ]


class TestParityMatrix:
    """The serving scan x fusion modes vs the float64 oracle."""

    @pytest.mark.parametrize("social_mode", ["sar", "sar-h"])
    @pytest.mark.parametrize("omega", [0.0, 0.6, 1.0])
    def test_topk_ids_bit_identical(self, index, queries, social_mode, omega):
        oracle = _oracle(index, queries, omega, social_mode, "kj")
        fast = _rankings(index, queries, omega, social_mode, "kj")
        for (oracle_ids, oracle_scores), (fast_ids, fast_scores) in zip(oracle, fast):
            assert fast_ids == oracle_ids
            np.testing.assert_allclose(
                fast_scores, oracle_scores, rtol=1e-5, atol=1e-6
            )

    @pytest.mark.parametrize("social_mode", ["exact", "naive"])
    def test_non_array_social_modes_fall_back_with_parity(
        self, index, queries, social_mode
    ):
        # These modes have no SAR matrix, so the fast scan must route to
        # the id-addressed scan — same results, no crash.
        oracle = _oracle(index, queries[:3], 0.5, social_mode, "kj")
        fast = _rankings(index, queries[:3], 0.5, social_mode, "kj")
        assert [ids for ids, _ in fast] == [ids for ids, _ in oracle]

    @pytest.mark.parametrize("content_measure", ["erp", "dtw"])
    def test_non_kj_measures_fall_back_with_parity(
        self, index, queries, content_measure
    ):
        oracle = _oracle(index, queries[:2], 0.5, "sar-h", content_measure)
        fast = _rankings(index, queries[:2], 0.5, "sar-h", content_measure)
        assert [ids for ids, _ in fast] == [ids for ids, _ in oracle]

    def test_duplicate_videos_tie_break_by_id(self, index, queries):
        # A query that IS one of the duplicated videos scores its clone
        # at the exact same fused score as any other tied pair; the
        # ranking must break such ties by ascending id, identically in
        # the pruned float32 path and the oracle.
        clones = [list(index.video_ids)[0], list(index.video_ids)[-1]]
        for query in clones:
            oracle = _oracle(index, [query], 0.6, "sar-h", "kj")
            fast = _rankings(index, [query], 0.6, "sar-h", "kj")
            assert fast[0][0] == oracle[0][0]

    def test_pruned_scan_applicability(self, index):
        # The pruned scan serves exactly when array kernels cover every
        # term the fusion weight keeps.
        def applicable(omega, social_mode="sar-h", content_measure="kj", **kw):
            rec = FusionRecommender(
                index,
                social_mode=social_mode,
                content_measure=content_measure,
                **kw,
            )
            return rec._pruned_scan_applicable(omega)

        assert applicable(0.5)
        assert applicable(0.5, social_mode="sketch")
        assert not applicable(0.5, engine="scalar")
        assert not applicable(0.5, social_mode="exact")
        assert applicable(0.0, social_mode="exact")
        assert not applicable(0.5, content_measure="erp")
        assert applicable(1.0, content_measure="erp")

    def test_pruning_skips_candidates_and_keeps_ranking(self, index, queries):
        registry = MetricsRegistry()
        rec = FusionRecommender(index, omega=0.6, engine="batch")
        with use_metrics(registry):
            pruned_results = [list(rec.recommend(q, TOP_K)) for q in queries]
        counters = registry.snapshot()["counters"]
        assert counters.get("repro_candidates_pruned_total", 0) > 0
        oracle = _oracle(index, queries, 0.6, "sar-h", "kj")
        assert pruned_results == [ids for ids, _ in oracle]


class TestSegmentBound:
    """The pruning bound must actually be a bound (DESIGN §12)."""

    def test_segment_lower_bound_never_exceeds_emd(self, index):
        pack = index.signature_bank().fast_pack()
        bank = index.signature_bank()
        rows = bank.values.shape[0]
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, rows, size=(60, 2))
        for a, b in pairs:
            lower = float(np.abs(pack.seg_integrals[a] - pack.seg_integrals[b]).sum())
            true = emd_1d(
                bank.values[a].astype(np.float64),
                bank.weights[a].astype(np.float64),
                bank.values[b].astype(np.float64),
                bank.weights[b].astype(np.float64),
            )
            # 1e-3 is the slack the scan subtracts before inverting the
            # bound into a SimC ceiling; float32 integral rounding must
            # stay far inside it.
            assert lower <= true + 1e-3

    def test_kappa_cap_dominates_true_score(self, index, queries):
        # Replicate the scan's per-candidate cap and check it clears the
        # oracle's content score for every candidate, not just top-k.
        threshold = index.config.match_threshold
        pack = index.signature_bank().fast_pack()
        for query in queries[:4]:
            rec = FusionRecommender(index, omega=0.0, engine="batch")
            components = rec.component_scores(query)
            pos = pack.index_of[query]
            rows = slice(int(pack.starts[pos]), int(pack.starts[pos]) + int(pack.counts[pos]))
            lower = np.abs(
                pack.seg_integrals[rows][:, None, :] - pack.seg_integrals[None, :, :]
            ).sum(axis=2)
            n1 = rows.stop - rows.start
            best_lower = np.minimum.reduceat(lower, pack.starts, axis=1)
            best = 1.0 / (1.0 + np.maximum(best_lower - 1e-3, 0.0))
            cut = 1.0 / threshold - 1.0 + 1e-3 if threshold > 0 else np.inf
            best[best_lower > cut] = 0.0
            sig_edges = (best > 0.0).sum(axis=0)
            matched_cap = np.minimum(sig_edges, pack.counts)
            total_cap = np.minimum(best.sum(axis=0), matched_cap)
            caps = np.minimum(
                (total_cap / (n1 + pack.counts - matched_cap)) * (1.0 + 2e-6), 1.0
            )
            for vid, (content, _social) in components.items():
                assert caps[pack.index_of[vid]] >= content - 1e-9, vid


class TestKeyEncoding:
    """The offset-positive int64 merge-key encoding."""

    def test_offset_must_lie_below_all_values(self):
        with pytest.raises(ValueError, match="offset"):
            pack_emd_keys(
                np.array([1.0, 2.0]), np.array([0.5, 0.5]), offset=1.5
            )

    def test_query_keys_at_matches_fresh_packing(self, index):
        pack = index.signature_bank().fast_pack()
        bank = index.signature_bank()
        threshold = index.config.match_threshold
        positions = np.arange(min(16, len(pack.ids)))
        for vid in list(index.video_ids)[:4]:
            pos = pack.index_of[vid]
            keys, _rows = pack.query_keys_at(pos)
            via_slices = bank.kappa_j_scores_at(keys, positions, threshold, pack=pack)
            fresh_keys = pack.pack_query(index.series[vid])[0]
            via_fresh = bank.kappa_j_scores_at(
                fresh_keys, positions, threshold, pack=pack
            )
            np.testing.assert_allclose(via_slices, via_fresh, rtol=1e-5, atol=1e-7)

    def test_float32_kappa_matches_scalar_reference(self, index):
        bank = index.signature_bank()
        threshold = index.config.match_threshold
        vids = list(index.video_ids)[:10]
        query = index.series[vids[0]]
        fast = bank.kappa_j_scores(query, vids, threshold, dtype="float32")
        for vid, score in zip(vids, fast):
            scalar = kappa_j(query, index.series[vid], match_threshold=threshold)
            assert score == pytest.approx(scalar, rel=1e-5, abs=1e-6)


class TestSocialGuard:
    def test_unknown_candidate_raises_instead_of_mismapping(self, index):
        # np.searchsorted returns an insertion point for absent ids; the
        # guard must turn that into a KeyError, never a wrong row.
        rec = FusionRecommender(index, engine="batch")
        query = list(index.video_ids)[0]
        with pytest.raises(KeyError, match="zzz-missing"):
            rec._social_scores_batch(query, ["zzz-missing"])

    def test_present_candidates_map_to_their_own_rows(self, index):
        rec = FusionRecommender(index, engine="batch")
        query = list(index.video_ids)[0]
        candidates = list(index.video_ids)[1:5]
        batch = rec._social_scores_batch(query, candidates)
        scalar = rec._social_scores_scalar(query, candidates)
        np.testing.assert_allclose(batch, scalar, rtol=1e-9)


class TestKnnFastPath:
    @pytest.fixture(scope="class")
    def knn_index(self):
        workload = build_workload(hours=4.0, seed=7)
        return CommunityIndex(
            workload.dataset,
            RecommenderConfig(),
            build_lsb=True,
            build_global_features=False,
        )

    def test_prune_parity(self, knn_index):
        query = list(knn_index.video_ids)[0]
        pruned = KTopScoreVideoSearch(knn_index).search(query, top_k=6)
        exhaustive = KTopScoreVideoSearch(knn_index, prune=False).search(query, top_k=6)
        assert [r.video_id for r in pruned] == [r.video_id for r in exhaustive]

    def test_multi_probe_shrinks_candidates(self, knn_index):
        query = list(knn_index.video_ids)[0]
        narrow = KTopScoreVideoSearch(knn_index, probes=1)
        full = KTopScoreVideoSearch(knn_index)
        assert len(narrow._content_candidates(query)) <= len(
            full._content_candidates(query)
        )
        narrow.search(query, top_k=6)  # must still serve a ranking

    def test_probes_validated(self, knn_index):
        with pytest.raises(ValueError, match="probes"):
            KTopScoreVideoSearch(knn_index, probes=0)


class TestServingMemo:
    @pytest.fixture()
    def gateway_env(self):
        workload = build_workload(hours=4.0, seed=7)
        live = LiveCommunityIndex(workload.dataset, RecommenderConfig())
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = ServingGateway(
                live, config=GatewayConfig(default_deadline=None, memo_capacity=4)
            )
            yield gateway, registry, live

    def _counter(self, registry, name):
        return registry.snapshot()["counters"].get(name, 0)

    def test_repeat_query_hits_and_matches(self, gateway_env):
        gateway, registry, live = gateway_env
        query = list(live.video_ids)[0]
        first = gateway.recommend(query, 5)
        assert self._counter(registry, "repro_serving_memo_miss_total") == 1
        second = gateway.recommend(query, 5)
        assert self._counter(registry, "repro_serving_memo_hit_total") == 1
        assert list(second) == list(first)
        assert second.epoch_id == first.epoch_id

    def test_key_includes_topk_and_epoch(self, gateway_env):
        gateway, registry, live = gateway_env
        query = list(live.video_ids)[0]
        gateway.recommend(query, 5)
        gateway.recommend(query, 7)  # different top_k: a distinct entry
        assert self._counter(registry, "repro_serving_memo_miss_total") == 2
        # Epoch publication invalidates everything memoized before it.
        retired = next(
            vid for vid in reversed(list(live.video_ids)) if vid != query
        )
        gateway.retire_video(retired)
        result = gateway.recommend(query, 5)
        assert self._counter(registry, "repro_serving_memo_miss_total") == 3
        assert retired not in list(result)

    def test_lru_eviction_is_bounded_and_counted(self, gateway_env):
        gateway, registry, live = gateway_env
        for vid in list(live.video_ids)[:6]:
            gateway.recommend(vid, 5)
        assert self._counter(registry, "repro_serving_memo_evict_total") >= 2
        # The most recent entries still hit.
        recent = list(live.video_ids)[5]
        gateway.recommend(recent, 5)
        assert self._counter(registry, "repro_serving_memo_hit_total") >= 1

    def test_memo_capacity_zero_disables(self):
        workload = build_workload(hours=4.0, seed=7)
        live = LiveCommunityIndex(workload.dataset, RecommenderConfig())
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = ServingGateway(
                live, config=GatewayConfig(default_deadline=None, memo_capacity=0)
            )
            query = list(live.video_ids)[0]
            gateway.recommend(query, 5)
            gateway.recommend(query, 5)
        counters = registry.snapshot()["counters"]
        assert counters.get("repro_serving_memo_hit_total", 0) == 0
        assert counters.get("repro_serving_memo_miss_total", 0) == 2
