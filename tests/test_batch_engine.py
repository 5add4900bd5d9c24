"""Parity tests for the batch scoring engine vs the scalar reference.

The batch engine must be a pure performance optimisation: for every
``social_mode`` × ``content_measure`` combination, rankings must be
identical and component scores must agree within 1e-9 on seeded
communities.  The underlying kernels (batched 1-D EMD, batched s̃J,
SignatureBank κJ) are additionally pinned against their scalar
counterparts directly.
"""

import numpy as np
import pytest

from repro.emd.one_dim import emd_1d, emd_1d_one_vs_many, pack_distributions
from repro.measures.content import SignatureBank, kappa_j, pairwise_sim_matrix
from repro.core.config import RecommenderConfig
from repro.core.knn import KTopScoreVideoSearch
from repro.core.pipeline import CommunityIndex
from repro.core.recommender import (
    CONTENT_MEASURES,
    SOCIAL_MODES,
    FusionRecommender,
)
from repro.social.sar import approx_jaccard, approx_jaccard_batch


def _random_distribution(rng, size):
    values = rng.normal(0.0, 20.0, size=size)
    weights = rng.uniform(0.1, 2.0, size=size)
    return values, weights


class TestBatchedEmd:
    def test_one_vs_many_matches_scalar_loop(self, rng):
        qv, qw = _random_distribution(rng, 7)
        sizes = [1, 2, 5, 9, 14, 3, 7]
        dists = [_random_distribution(rng, n) for n in sizes]
        packed = pack_distributions([v for v, _ in dists], [w for _, w in dists])
        batch = emd_1d_one_vs_many(qv, qw, packed.values, packed.weights)
        scalar = np.array([emd_1d(qv, qw, v, w) for v, w in dists])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_padding_is_inert(self, rng):
        # A distribution packed alone (no padding) and packed next to a
        # much longer one (heavy padding) must score identically.
        qv, qw = _random_distribution(rng, 5)
        v, w = _random_distribution(rng, 3)
        long_v, long_w = _random_distribution(rng, 20)
        alone = pack_distributions([v], [w])
        padded = pack_distributions([v, long_v], [w, long_w])
        first = emd_1d_one_vs_many(qv, qw, alone.values, alone.weights)[0]
        second = emd_1d_one_vs_many(qv, qw, padded.values, padded.weights)[0]
        assert first == second

    def test_pack_normalises_rows(self, rng):
        dists = [_random_distribution(rng, n) for n in (2, 6, 4)]
        packed = pack_distributions([v for v, _ in dists], [w for _, w in dists])
        np.testing.assert_allclose(packed.weights.sum(axis=1), 1.0)
        assert packed.lengths.tolist() == [2, 6, 4]

    def test_pack_rejects_empty(self):
        with pytest.raises(ValueError):
            pack_distributions([], [])
        with pytest.raises(ValueError):
            pack_distributions([np.array([])], [np.array([])])

    def test_shape_validation(self, rng):
        qv, qw = _random_distribution(rng, 4)
        with pytest.raises(ValueError, match="2-D"):
            emd_1d_one_vs_many(qv, qw, np.zeros(3), np.zeros(3))


class TestBatchedSimMatrix:
    def test_pairwise_sim_matrix_engines_agree(self, index, workload):
        first = index.series[workload.sources[0]]
        second = index.series[workload.sources[1]]
        scalar = pairwise_sim_matrix(first, second, engine="scalar")
        batch = pairwise_sim_matrix(first, second, engine="batch")
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_signature_bank_matches_scalar_kappa(self, index):
        bank = index.signature_bank()
        ids = index.video_ids
        query = index.series[ids[0]]
        threshold = index.config.match_threshold
        scores = bank.kappa_j_scores(query, ids[:8], threshold)
        expected = [
            kappa_j(query, index.series[vid], match_threshold=threshold)
            for vid in ids[:8]
        ]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-9)

    def test_bank_subset_equals_full(self, index):
        bank = index.signature_bank()
        ids = index.video_ids
        query = index.series[ids[3]]
        threshold = index.config.match_threshold
        full = bank.kappa_j_scores(query, ids, threshold)
        subset = bank.kappa_j_scores(query, ids[5:9], threshold)
        np.testing.assert_allclose(subset, full[5:9], rtol=0, atol=1e-12)

    def test_bank_rejects_empty(self):
        with pytest.raises(ValueError):
            SignatureBank({})


class TestBatchedSar:
    def test_batch_matches_scalar_loop(self, rng):
        matrix = rng.integers(0, 8, size=(20, 12)).astype(np.float64)
        query = rng.integers(0, 8, size=12).astype(np.float64)
        batch = approx_jaccard_batch(query, matrix)
        scalar = [approx_jaccard(query, row) for row in matrix]
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_zero_union_rows_score_zero(self):
        matrix = np.zeros((3, 4))
        query = np.zeros(4)
        assert approx_jaccard_batch(query, matrix).tolist() == [0.0, 0.0, 0.0]

    def test_shape_and_sign_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            approx_jaccard_batch(np.ones(3), np.ones((2, 4)))
        with pytest.raises(ValueError, match="non-negative"):
            approx_jaccard_batch(-np.ones(3), np.ones((2, 3)))

    def test_index_sar_matrix_rows_match_vectorizer(self, index):
        for backend in ("sar", "sar-h"):
            matrix = index.sar_matrix(backend)
            assert matrix.shape == (len(index.video_ids), index.social.k)
            vectorizer = index.sar if backend == "sar" else index.sar_h
            probe = index.video_ids[4]
            np.testing.assert_array_equal(
                matrix[4], vectorizer.vectorize(index.descriptor(probe))
            )

    def test_sar_matrix_unknown_backend(self, index):
        with pytest.raises(ValueError, match="backend"):
            index.sar_matrix("exact")


@pytest.mark.parametrize("social_mode", SOCIAL_MODES)
@pytest.mark.parametrize("content_measure", tuple(CONTENT_MEASURES))
class TestEngineParity:
    """Batch and scalar engines agree for every mode combination."""

    def test_scores_and_rankings_identical(
        self, workload, index, social_mode, content_measure
    ):
        scalar = FusionRecommender(
            index,
            omega=0.5,
            social_mode=social_mode,
            content_measure=content_measure,
            engine="scalar",
        )
        batch = FusionRecommender(
            index,
            omega=0.5,
            social_mode=social_mode,
            content_measure=content_measure,
            engine="batch",
        )
        for query in workload.sources[:2]:
            scalar_components = scalar.component_scores(query)
            batch_components = batch.component_scores(query)
            assert scalar_components.keys() == batch_components.keys()
            for vid, (content_s, social_s) in scalar_components.items():
                content_b, social_b = batch_components[vid]
                assert content_b == pytest.approx(content_s, abs=1e-9)
                assert social_b == pytest.approx(social_s, abs=1e-9)
            assert scalar.recommend(query, 10) == batch.recommend(query, 10)


class TestEngineConfiguration:
    def test_default_engine_comes_from_config(self, index):
        assert FusionRecommender(index).engine == index.config.engine == "batch"

    def test_invalid_engine_rejected(self, index):
        with pytest.raises(ValueError, match="engine"):
            FusionRecommender(index, engine="gpu")


class TestMaintenanceInvalidation:
    """The cached SAR matrices must track incremental social maintenance.

    SAR-H's hash table is maintained in place by ``maintain()``, so the
    scalar engine sees fresh sub-community labels immediately — before
    any ``rebuild_sorted_dictionary()`` call.  The batch engine's cached
    matrix must not lag behind.
    """

    @pytest.fixture()
    def mutable_index(self, workload):
        # The shared ``index`` fixture is session-scoped; build a private
        # one (no LSB / global features — social state is what we mutate).
        return CommunityIndex(
            workload.dataset,
            RecommenderConfig(k=12),
            build_lsb=False,
            build_global_features=False,
        )

    def test_parity_survives_maintenance_without_rebuild(
        self, workload, mutable_index
    ):
        index = mutable_index
        before = index.sar_matrix("sar-h")
        target = index.video_ids[0]
        existing = set(index.descriptor(target).users)
        mover = next(
            user
            for descriptor in index.social.descriptors.values()
            for user in descriptor.users
            if user not in existing
        )
        stats = index.social.apply_comments([(mover, target)])
        assert stats.connections >= 0  # maintenance ran
        after = index.sar_matrix("sar-h")
        assert after is not before  # revision bump invalidated the cache
        row = index.video_ids.index(target)
        np.testing.assert_array_equal(
            after[row], index.sar_h.vectorize(index.descriptor(target))
        )
        scalar = FusionRecommender(index, social_mode="sar-h", engine="scalar")
        batch = FusionRecommender(index, social_mode="sar-h", engine="batch")
        query = workload.sources[0]
        scalar_components = scalar.component_scores(query)
        batch_components = batch.component_scores(query)
        for vid, (content_s, social_s) in scalar_components.items():
            content_b, social_b = batch_components[vid]
            assert content_b == pytest.approx(content_s, abs=1e-9)
            assert social_b == pytest.approx(social_s, abs=1e-9)
        assert scalar.recommend(query, 10) == batch.recommend(query, 10)

    def test_revision_counts_maintenance_batches(self, mutable_index):
        social = mutable_index.social
        start = social.revision
        social.maintain([])
        social.maintain([])
        assert social.revision == start + 2


class TestKnnBatchRefinement:
    def test_memo_reused_across_searches(self, workload, index):
        search = KTopScoreVideoSearch(index)
        query = workload.sources[0]
        first = search.search(query, top_k=5)
        assert search._component_memo  # populated by the first search
        second = search.search(query, top_k=5)
        assert first == second
        search.clear_memo()
        assert not search._component_memo

    def test_block_size_one_matches_default(self, workload, index):
        query = workload.sources[2]
        default = KTopScoreVideoSearch(index).search(query, top_k=6)
        tiny_blocks = KTopScoreVideoSearch(index, block_size=1).search(query, top_k=6)
        assert default == tiny_blocks

    def test_invalid_block_size(self, index):
        with pytest.raises(ValueError, match="block_size"):
            KTopScoreVideoSearch(index, block_size=0)
