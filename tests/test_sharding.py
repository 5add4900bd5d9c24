"""Sharded index + scatter-gather serving: bit-parity with the oracle.

The contract under test: a :class:`ShardedGateway` over S shards serves
the **same bytes** as one :class:`ServingGateway` over the unsharded
index — same ids, same fused scores, same tie-breaks — across shard
counts, routers, social modes, engines, after mutations, and after
per-shard crash recovery.  Fault and deadline tests pin the degraded
path: one broken or slow shard yields a flagged merged ranking with a
per-shard reason, never a failed query.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

import pytest

from repro.community import build_workload
from repro.community.models import Comment
from repro.core import LiveCommunityIndex, RecommenderConfig
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serving import GatewayConfig, ServingGateway
from repro.serving.gateway import SERVE_SOCIAL_POINT
from repro.sharding import (
    HashShardRouter,
    ShardedGateway,
    ShardedIndex,
    ZOrderShardRouter,
    attach_wals,
    companion_path,
    is_sharded_deployment,
    make_router,
    open_master,
    read_manifest,
    recover_shards,
    save_master,
    save_shards,
    serving_gateway,
    shard_paths,
)
from repro.testing.faults import FaultPlan

TOP_K = 8
NO_DEADLINE = GatewayConfig(default_deadline=None)


@pytest.fixture(scope="module")
def workload():
    return build_workload(hours=4.0, seed=7)


@pytest.fixture(scope="module")
def config():
    return RecommenderConfig()


@pytest.fixture(scope="module")
def oracle(workload, config):
    live = LiveCommunityIndex(workload.dataset, config)
    return ServingGateway(live, config=NO_DEADLINE), live


def _queries(live, every: int = 9, count: int = 6) -> list[str]:
    return list(live.video_ids)[::every][:count]


def _assert_bitwise_equal(expected, actual, context: str = "") -> None:
    assert list(expected) == list(actual), context
    assert expected.scores == actual.scores, context


class TestRouters:
    def test_hash_router_is_stable_and_in_range(self, config):
        router = HashShardRouter(4)
        targets = [router.route(f"v{i:05d}") for i in range(100)]
        assert all(0 <= t < 4 for t in targets)
        assert targets == [router.route(f"v{i:05d}") for i in range(100)]
        assert len(set(targets)) > 1  # not degenerate

    def test_zorder_router_requires_power_of_two(self, config):
        with pytest.raises(ValueError, match="power-of-two"):
            ZOrderShardRouter(3, config)
        ZOrderShardRouter(4, config)  # fine

    def test_zorder_route_is_top_bits_of_key(self, workload, config):
        router = ZOrderShardRouter(4, config)
        from repro.core.stores import ContentStore

        extractor = ContentStore(
            config, build_lsb=False, build_global_features=False
        )
        for video_id in sorted(workload.dataset.records)[:8]:
            series = extractor.extract(workload.dataset.clip(video_id))
            key = router.zorder_key(series)
            expected = key >> (router.total_bits - router.prefix_bits)
            assert router.route(video_id, series) == expected
            assert 0 <= expected < 4

    def test_zorder_route_needs_series(self, config):
        router = ZOrderShardRouter(2, config)
        with pytest.raises(ValueError, match="signature series"):
            router.route("v00000")

    def test_make_router_rejects_unknown(self, config):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("range", 2, config)

    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match="shard count"):
            HashShardRouter(0)


class TestShardedParity:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_shard_count_sweep(self, workload, config, oracle, shards):
        oracle_gw, live = oracle
        sharded = ShardedIndex.build(workload.dataset, config, shards)
        gateway = ShardedGateway(sharded, config=NO_DEADLINE)
        try:
            assert sharded.video_ids == list(live.video_ids)
            for query in _queries(live):
                expected = oracle_gw.recommend(query, TOP_K)
                merged = gateway.recommend(query, TOP_K)
                _assert_bitwise_equal(
                    expected, merged, f"S={shards} query={query}"
                )
                assert not merged.degraded and not merged.partial
        finally:
            gateway.close()

    @pytest.mark.parametrize("social_mode", ["exact", "sar", "sar-h", "sketch"])
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_mode_engine_matrix(self, workload, config, social_mode, engine):
        live = LiveCommunityIndex(workload.dataset, config)
        oracle_gw = ServingGateway(
            live, social_mode=social_mode, engine=engine, config=NO_DEADLINE
        )
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        gateway = ShardedGateway(
            sharded, social_mode=social_mode, engine=engine, config=NO_DEADLINE
        )
        try:
            for query in _queries(live, every=11, count=4):
                expected = oracle_gw.recommend(query, TOP_K)
                merged = gateway.recommend(query, TOP_K)
                _assert_bitwise_equal(
                    expected, merged, f"{social_mode}/{engine} query={query}"
                )
        finally:
            gateway.close()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sketch_shard_count_sweep(self, workload, config, shards):
        # Sketch guests ship a (row, size) query vector instead of a SAR
        # histogram; the scatter path must stay bit-identical across
        # shard counts (and seed-stable: both sides sketch with the
        # config's bits/seed).
        live = LiveCommunityIndex(workload.dataset, config)
        oracle_gw = ServingGateway(
            live, social_mode="sketch", config=NO_DEADLINE
        )
        sharded = ShardedIndex.build(workload.dataset, config, shards)
        gateway = ShardedGateway(
            sharded, social_mode="sketch", config=NO_DEADLINE
        )
        try:
            for query in _queries(live):
                _assert_bitwise_equal(
                    oracle_gw.recommend(query, TOP_K),
                    gateway.recommend(query, TOP_K),
                    f"sketch S={shards} query={query}",
                )
        finally:
            gateway.close()

    def test_zorder_router_parity(self, workload, config, oracle):
        oracle_gw, live = oracle
        sharded = ShardedIndex.build(workload.dataset, config, 4, router="zorder")
        gateway = ShardedGateway(sharded, config=NO_DEADLINE)
        try:
            assert sum(sharded.shard_sizes()) == len(live.video_ids)
            for query in _queries(live):
                _assert_bitwise_equal(
                    oracle_gw.recommend(query, TOP_K),
                    gateway.recommend(query, TOP_K),
                    f"zorder query={query}",
                )
        finally:
            gateway.close()

    def test_unknown_query_raises(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 2)
        gateway = ShardedGateway(sharded, config=NO_DEADLINE)
        try:
            with pytest.raises(KeyError, match="nope"):
                gateway.recommend("nope", TOP_K)
        finally:
            gateway.close()


class TestShardedMutations:
    def _new_records(self, count: int = 4):
        donor = build_workload(hours=2.0, seed=99).dataset
        return [
            replace(donor.records[vid], video_id=f"z{i:05d}")
            for i, vid in enumerate(sorted(donor.records)[:count])
        ]

    def test_mutation_and_recovery_parity(self, workload, config, tmp_path):
        live = LiveCommunityIndex(workload.dataset, config)
        oracle_gw = ServingGateway(live, config=NO_DEADLINE)
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        gateway = ShardedGateway(sharded, config=NO_DEADLINE)
        root = tmp_path / "deployment"
        save_shards(sharded, root)
        attach_wals(sharded, root)

        records = self._new_records()
        victims = list(live.video_ids)[3:5]
        pairs = [
            ("u_mut_1", live.video_ids[0]),
            ("u_mut_2", live.video_ids[7]),
        ]
        with gateway.mutations():
            for record in records:
                gateway.ingest_video(record)
            for victim in victims:
                gateway.retire_video(victim)
            gateway.apply_comments(pairs)
            gateway.advance_watermark(live.up_to_month + 1)
        for record in records:
            oracle_gw.ingest_video(record)
        for victim in victims:
            oracle_gw.retire_video(victim)
        oracle_gw.apply_comments(pairs)
        oracle_gw.advance_watermark(live.up_to_month + 1)

        queries = _queries(live) + [records[0].video_id]
        for query in queries:
            _assert_bitwise_equal(
                oracle_gw.recommend(query, TOP_K),
                gateway.recommend(query, TOP_K),
                f"post-mutation query={query}",
            )
        gateway.close()

        # Crash model: drop the in-memory shards; recover each shard
        # independently from its checkpoint + WAL and re-compare.
        assert is_sharded_deployment(root)
        assert read_manifest(root)["shards"] == 4
        recovered = recover_shards(root)
        assert all(shard.recovery.replayed > 0 for shard in recovered.shards)
        recovered_gw = ShardedGateway(recovered, config=NO_DEADLINE)
        try:
            for query in queries:
                _assert_bitwise_equal(
                    oracle_gw.recommend(query, TOP_K),
                    recovered_gw.recommend(query, TOP_K),
                    f"post-recovery query={query}",
                )
        finally:
            recovered_gw.close()

        # A torn WAL tail on one shard (the crash-interrupted record) is
        # dropped by that shard's replay; the others are untouched.
        _, wal_path = shard_paths(root, 2)
        raw = pathlib.Path(wal_path).read_bytes()
        pathlib.Path(wal_path).write_bytes(raw[:-7])
        torn = recover_shards(root)
        assert torn.shards[2].recovery.torn_tail
        assert not torn.shards[1].recovery.torn_tail

    def test_batched_mutations_publish_once(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 2)
        gateway = ShardedGateway(sharded, config=NO_DEADLINE)
        try:
            before = [gw.epochs.published_total for gw in gateway.gateways]
            vector_before = gateway.current_epochs
            with gateway.mutations():
                for record in self._new_records(3):
                    gateway.ingest_video(record)
                # Readers still see the pre-block vector mid-batch.
                assert gateway.current_epochs == vector_before
            after = [gw.epochs.published_total for gw in gateway.gateways]
            assert [a - b for a, b in zip(after, before)] == [1, 1]
            assert gateway.current_epochs != vector_before
        finally:
            gateway.close()

    def test_social_replication_spans_shards(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        total = set(sharded.video_ids)
        for shard in sharded.shards:
            # Partial content, full social view.
            assert set(shard.content.series) < total or sharded.num_shards == 1
            assert set(shard.social_store.descriptors) == total

    def test_owner_of_routes_and_raises(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        video_id = sharded.video_ids[0]
        owner = sharded.owner_of(video_id)
        assert video_id in sharded.shards[owner].content.series
        with pytest.raises(KeyError):
            sharded.owner_of("nope")


class TestShardedDegradation:
    def test_one_shard_fault_burst_degrades_with_reason(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        plans = [None, None, FaultPlan(), None]
        plans[2].arm_failures(SERVE_SOCIAL_POINT, -1)
        gateway = ShardedGateway(
            sharded,
            config=GatewayConfig(default_deadline=None, retry_attempts=0),
            faults=plans,
        )
        try:
            result = gateway.recommend(sharded.video_ids[0], TOP_K)
            assert result.degraded and not result.partial
            assert any("shard 2" in reason for reason in result.reasons)
            assert len(result) == TOP_K  # the other shards still merged
            served = [
                r.omega_served
                for r in result.shard_results
                if r is not None
            ]
            assert served.count(0.0) == 1  # only the bursting shard dropped ω
        finally:
            gateway.close()

    def test_breaker_scope_is_per_shard(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        plans = [None, None, FaultPlan(), None]
        plans[2].arm_failures(SERVE_SOCIAL_POINT, -1)
        gateway = ShardedGateway(
            sharded,
            config=GatewayConfig(
                default_deadline=None,
                retry_attempts=0,
                breaker_failure_threshold=2,
                breaker_cooldown=60.0,
            ),
            faults=plans,
        )
        try:
            for query in _queries_of(sharded, 3):
                gateway.recommend(query, TOP_K)
            states = [gw.breaker.state for gw in gateway.gateways]
            assert states[2] == "open"
            assert all(state == "closed" for i, state in enumerate(states) if i != 2)
        finally:
            gateway.close()

    def test_slow_shard_yields_partial_not_timeout(self, workload, config):
        sharded = ShardedIndex.build(workload.dataset, config, 4)
        plans = [None, FaultPlan(), None, None]
        plans[1].slow_at[SERVE_SOCIAL_POINT] = 0.5
        gateway = ShardedGateway(sharded, config=NO_DEADLINE, faults=plans)
        try:
            result = gateway.recommend(sharded.video_ids[0], TOP_K, deadline=0.15)
            assert result.partial
            assert any("shard 1" in reason for reason in result.reasons)
            assert result.shard_results[1] is None
            present = [r for r in result.shard_results if r is not None]
            assert len(present) == 3  # everyone else answered in time
        finally:
            gateway.close()


def _queries_of(sharded, count: int) -> list[str]:
    return sharded.video_ids[:count]


class TestShardedMemo:
    def test_repeat_query_hits_and_mutation_invalidates(self, workload, config):
        registry = MetricsRegistry()
        with use_metrics(registry):
            sharded = ShardedIndex.build(workload.dataset, config, 2)
            gateway = ShardedGateway(sharded, config=NO_DEADLINE)
            try:
                query = sharded.video_ids[0]
                first = gateway.recommend(query, TOP_K)
                second = gateway.recommend(query, TOP_K)
                counters = registry.snapshot()["counters"]
                assert counters.get("repro_sharded_memo_hit_total", 0) == 1
                _assert_bitwise_equal(first, second, "memo hit")

                victim = next(
                    vid for vid in reversed(sharded.video_ids) if vid != query
                )
                gateway.retire_video(victim)
                third = gateway.recommend(query, TOP_K)
                counters = registry.snapshot()["counters"]
                assert counters.get("repro_sharded_memo_miss_total", 0) == 2
                assert (
                    counters.get("repro_serving_memo_invalidate_total", 0) >= 1
                )
                assert victim not in list(third)
            finally:
                gateway.close()

    def test_per_shard_metrics_are_labelled(self, workload, config):
        registry = MetricsRegistry()
        with use_metrics(registry):
            sharded = ShardedIndex.build(workload.dataset, config, 2)
            gateway = ShardedGateway(sharded, config=NO_DEADLINE)
            try:
                gateway.recommend(sharded.video_ids[0], TOP_K)
            finally:
                gateway.close()
        gauges = registry.snapshot()["gauges"]
        assert 'repro_shard_videos{shard="0"}' in gauges
        assert 'repro_shard_videos{shard="1"}' in gauges


class TestOneMasterSurface:
    """A single index and a deployment answer the same calls."""

    @staticmethod
    def _pair(workload, config, shards: int = 2):
        light = dict(build_lsb=False, build_global_features=False)
        live = LiveCommunityIndex(workload.dataset, config, **light)
        return live, ShardedIndex.build(workload.dataset, config, shards, **light)

    def test_gateways_serve_the_same_catalogue(self, workload, config):
        live, sharded = self._pair(workload, config, shards=4)
        single = serving_gateway(live, config=NO_DEADLINE)
        scattered = serving_gateway(sharded, config=NO_DEADLINE)
        try:
            assert isinstance(single, ServingGateway)
            assert isinstance(scattered, ShardedGateway)
            assert (single.num_shards, scattered.num_shards) == (1, 4)
            assert scattered.video_ids == single.video_ids == live.video_ids
            for video_id in [*live.video_ids[::7], "nope"]:
                assert scattered.has_video(video_id) == single.has_video(video_id)
            victim = live.video_ids[1]
            scattered.retire_video(victim)
            assert not scattered.has_video(victim)
            assert victim not in scattered.video_ids
        finally:
            single.close()
            scattered.close()

    def test_open_and_save_master_tell_the_kinds_apart(
        self, workload, config, tmp_path
    ):
        live, sharded = self._pair(workload, config)
        snapshot, deployment = tmp_path / "index.json.gz", tmp_path / "deployment"
        save_master(live, snapshot)
        save_master(sharded, deployment)
        assert snapshot.is_file() and is_sharded_deployment(deployment)
        reopened = open_master(snapshot)
        recovered = open_master(deployment)
        assert isinstance(reopened, LiveCommunityIndex)
        assert isinstance(recovered, ShardedIndex)
        assert reopened.video_ids == recovered.video_ids == live.video_ids
        assert recovered.up_to_month == live.up_to_month
        assert companion_path(deployment, "x.wal") == deployment / "x.wal"
        assert companion_path(snapshot, "x.wal") == tmp_path / "index.json.gz.x.wal"

    def test_comment_history_reaches_every_shard(self, workload, config):
        _, sharded = self._pair(workload, config)
        extra = Comment(user_id="u-new", video_id=sharded.video_ids[0], month=3)
        assert sharded.add_comment_history([extra]) == 1
        assert all(shard.dataset.comments[-1] == extra for shard in sharded.shards)
        assert sharded.dataset is sharded.shards[0].dataset
        assert sharded.social_store is sharded.shards[0].social_store
